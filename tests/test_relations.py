"""Relations across the whole pipeline, from scenario to channels to branches
to rates, on a few fixed scenarios.

- *Own value.*  A one-point sweep of any variable at the base scenario's own
  value rates the base itself, so it equals ``evaluate_scenario`` bit for
  bit, whichever decomposition path the sweep takes.
- *Phase symmetry.*  The rate is even and 2*pi-periodic in the RIS common
  phase, which ``optimal_phase`` relies on when it searches only [0, pi]:
  rate(phi) = rate(2*pi - phi) = rate(phi + 2*pi), branch by branch.
- *Config round trip.*  A config file written by ``serialize_params`` loads
  back to the scenario that ``make_scenario`` builds from the same keys.
- *Distance.*  On line of sight, every case's rate is non-increasing in the
  Alice-Bob distance, up to the entropy rounding floor.
- *Path order.*  The order of the extra paths behind each channel's first
  path moves no branch rate beyond the entropy rounding floor.
- *Moved endpoints.*  ``oracle.scenario_at_distance(s, d)`` rated by
  ``evaluate_scenario`` equals the distance-sweep row at d bit for bit.
- *Independent probes.*  Under ``AttackModel.INDEPENDENT`` no branch rate
  depends on the common phase at all.
- *Transparent stored tap.*  With the stored hop's transmissivity exactly 1,
  the Holevo term is 0 up to the entropy rounding floor: under
  ``INDEPENDENT`` for every case, under ``PAPER`` for the direct case.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_cvqkd.channel import channel_factors
from ris_cvqkd.config import default_scenario, load_scenario, make_scenario, serialize_params
from ris_cvqkd.decomposition import make_branch
from ris_cvqkd.experiments import (SweepSpec, SweepVariable, _points, evaluate_scenario,
                                   run_sweep)
from ris_cvqkd.oracle import scenario_at_distance
from ris_cvqkd.qkd import AncillaCase, AttackModel, NoiseModel, total_skr

# entropy rounding of one branch rate: four terms of up to ~1e4, each
# rounded to about 2**-40 (as in tests/test_batched.py)
BRANCH_ABS_TOL = 8 * 2.0 ** -40

SCENARIOS = {
    "default": {},
    "extra-paths": dict(extra_paths_d=3, extra_paths_g=2, extra_paths_f=2),
    "short-leg": dict(distance_alice_ris_m=5.0),
}
FAR_NOISY = dict(distance_alice_bob_m=50.0, eve_variance_snu=2.0)
RICH = dict(extra_paths_d=31, extra_paths_g=31, extra_paths_f=31,  # criterion 9's scenario
            extra_path_angle_spread_rad=1.0, extra_path_excess_length=1.001)
SEEDED = settings(derandomize=True, database=None, deadline=None)

OWN_VALUE = {
    SweepVariable.DISTANCE_AB: lambda s: s.d_alice_bob,
    SweepVariable.RIS_ELEMENTS: lambda s: s.ris.k_x * s.ris.k_y,
    SweepVariable.RIS_PHASE: lambda s: s.ris.common_phase,
    SweepVariable.CARRIER_FREQUENCY: lambda s: s.carrier_frequency,
    SweepVariable.ANTENNA_COUNT: lambda s: s.tx.element_count,
}


@pytest.mark.parametrize("variable", list(SweepVariable), ids=lambda v: v.value)
@pytest.mark.parametrize("overrides", list(SCENARIOS.values()), ids=list(SCENARIOS))
def test_sweep_at_the_base_value_equals_the_base(overrides, variable):
    base = default_scenario(**overrides)
    (row,) = run_sweep(SweepSpec(variable, (OWN_VALUE[variable](base),), base)).rows
    want = evaluate_scenario(base)
    assert row.error is None
    for case in AncillaCase:
        got = row.reports[case]
        assert got.total_skr == want[case].total_skr
        assert got.total_holevo == want[case].total_holevo
        assert got.rates.skr.tobytes() == want[case].rates.skr.tobytes()


@pytest.mark.parametrize("overrides", [*SCENARIOS.values(), FAR_NOISY],
                         ids=[*SCENARIOS, "far-noisy"])
def test_rate_is_even_and_periodic_in_the_common_phase(overrides):
    base = default_scenario(**overrides)
    phis = np.sort(np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 20)).tolist()

    def rates(grid):
        rows = run_sweep(SweepSpec(SweepVariable.RIS_PHASE, grid, base)).rows
        return [{case: row.reports[case].rates.skr for case in AncillaCase} for row in rows]

    reference = rates(phis)
    for moved in ([2.0 * math.pi - phi for phi in phis], [phi + 2.0 * math.pi for phi in phis]):
        for want, got in zip(reference, rates(moved)):
            for case in (AncillaCase.DIRECT, AncillaCase.ALICE_RIS):
                assert got[case].tobytes() == want[case].tobytes()
            assert np.all(np.abs(got[AncillaCase.RIS_BOB] - want[AncillaCase.RIS_BOB])
                          <= BRANCH_ABS_TOL)


ROUND_TRIP = {
    "defaults": {},
    "distance-and-paths": dict(distance_alice_bob_m=7, extra_paths_d=3),
    "leg-and-antennas": dict(distance_alice_ris_m=5, tx_antennas=16),
    "alias-and-paths": {"d_ab": 7, "extra_paths_d": 3},
    "string-count": {"tx_antennas": "16"},
}


@pytest.mark.parametrize("params", list(ROUND_TRIP.values()), ids=list(ROUND_TRIP))
def test_serialized_params_load_back_to_the_same_scenario(params, tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(serialize_params(params), encoding="utf-8")
    scenario, _ = load_scenario(str(path))
    assert scenario == make_scenario(params)


def test_rate_is_non_increasing_in_distance_on_line_of_sight():
    base = default_scenario()
    paths = base.multipaths_d + base.multipaths_g + base.multipaths_f
    assert len(paths) == 3 and all(p.is_los for p in paths)
    grid = np.linspace(0.5, 200.0, 800).tolist()
    rows = run_sweep(SweepSpec(SweepVariable.DISTANCE_AB, grid, base)).rows
    assert all(row.error is None for row in rows)
    for case in AncillaCase:
        rates = np.array([row.reports[case].total_skr for row in rows])
        assert np.diff(rates).max() <= BRANCH_ABS_TOL


@settings(SEEDED, max_examples=30)
@given(params=st.sampled_from([RICH, SCENARIOS["extra-paths"]]),
       distance=st.sampled_from([2.0, 10.0, 40.0]), data=st.data())
def test_rate_does_not_depend_on_the_order_of_the_extra_paths(params, distance, data):
    # the first path stays first: it sets the channel's leg length
    base = make_scenario({**params, "distance_alice_bob_m": distance})
    reordered = {}
    for name in ("multipaths_d", "multipaths_g", "multipaths_f"):
        first, *extra = getattr(base, name)
        reordered[name] = (first, *data.draw(st.permutations(extra)))
    want, got = evaluate_scenario(base), evaluate_scenario(dataclasses.replace(base, **reordered))
    for case in AncillaCase:
        assert len(got[case].rates.skr) == len(want[case].rates.skr)
        assert np.abs(got[case].rates.skr - want[case].rates.skr).max() <= BRANCH_ABS_TOL


@settings(SEEDED, max_examples=60)
@given(legs=st.fixed_dictionaries({}, optional={"distance_alice_ris_m": st.floats(1.0, 20.0),
                                                "distance_ris_bob_m": st.floats(1.0, 20.0)}),
       distance=st.floats(0.5, 200.0))
def test_scenario_moved_to_a_distance_equals_the_distance_sweep_row(legs, distance):
    base = make_scenario(legs)
    (row,) = run_sweep(SweepSpec(SweepVariable.DISTANCE_AB, (distance,), base)).rows
    want = evaluate_scenario(scenario_at_distance(base, distance))
    assert row.error is None
    for case in AncillaCase:
        got = row.reports[case]
        assert got.total_skr == want[case].total_skr
        assert got.total_holevo == want[case].total_holevo
        assert got.rates.skr.tobytes() == want[case].rates.skr.tobytes()


@settings(SEEDED, max_examples=20)
@given(params=st.sampled_from([*SCENARIOS.values(), FAR_NOISY]), phi=st.floats(-10.0, 10.0))
def test_independent_rate_does_not_depend_on_the_common_phase(params, phi):
    def rates(phase):
        scenario = make_scenario({**params, "ris_phase_rad": phase})
        branches, _, _, noise = _points(channel_factors(scenario), [1.0])
        return [total_skr(case, branches, noise, model=AttackModel.INDEPENDENT).rates.skr
                for case in AncillaCase]

    for got, want in zip(rates(phi), rates(0.0)):
        assert np.array_equal(got, want)


TRANSPARENT_TAPS = [(AttackModel.PAPER, AncillaCase.DIRECT),
                    *((AttackModel.INDEPENDENT, case) for case in AncillaCase)]


# The lambda_3 ~ lambda_4 cancellation in qkd._conditional_eigs gives a false
# sub-vacuum lambda_4 and a Holevo term up to about 2e-6 on a few percent of
# these draws; its fix moves lambda bits that tests/data/closed_forms.txt pins
@pytest.mark.xfail(strict=True, reason="lambda_3/lambda_4 cancellation (ROADMAP item 8)")
@settings(SEEDED, max_examples=40)
@given(others=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       phi=st.floats(0.0, 2.0 * math.pi), v_s=st.floats(1.0, 2000.0), v_e=st.floats(1.0, 20.0))
@example(others=(0.9565489554251437, 0.5696480438757227), phi=1.234901994753134,
         v_s=674.6506248541799, v_e=17.69663621104134)
def test_a_transparent_stored_tap_leaks_nothing(others, phi, v_s, v_e):
    noise = NoiseModel.from_link(1e13, 300.0, v_s=v_s, v_e=v_e)
    for model, case in TRANSPARENT_TAPS:
        betas = list(others)
        betas.insert("dgf".index(case.value), 1.0)  # the stored hop is transparent
        rec = total_skr(case, [make_branch(*betas, phi)], noise, model=model).branches[0]
        assert abs(rec.holevo) <= BRANCH_ABS_TOL, (model, case, rec.lambda_3, rec.lambda_4)
