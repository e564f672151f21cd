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
"""

import math

import numpy as np
import pytest

from ris_cvqkd.config import default_scenario, load_scenario, make_scenario, serialize_params
from ris_cvqkd.experiments import SweepSpec, SweepVariable, evaluate_scenario, run_sweep
from ris_cvqkd.qkd import AncillaCase

# entropy rounding of one branch rate: four terms of up to ~1e4, each
# rounded to about 2**-40 (as in tests/test_batched.py)
BRANCH_ABS_TOL = 8 * 2.0 ** -40

SCENARIOS = {
    "default": {},
    "extra-paths": dict(extra_paths_d=3, extra_paths_g=2, extra_paths_f=2),
    "short-leg": dict(distance_alice_ris_m=5.0),
}
FAR_NOISY = dict(distance_alice_bob_m=50.0, eve_variance_snu=2.0)

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
