import collections
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_cvqkd import channel, experiments, oracle
from ris_cvqkd.cli import emit_csv
from ris_cvqkd.config import default_scenario
from ris_cvqkd.experiments import (SweepSpec, SweepVariable, evaluate_scenario,
                                   max_secure_distance, no_ris_baseline,
                                   noise_model, optimal_phase, run_sweep,
                                   scenario_with_frequency, scenario_with_ris_elements)
from ris_cvqkd.oracle import scenario_at_distance
from ris_cvqkd.qkd import AncillaCase


def test_sweep_spec_validation():
    base = default_scenario()
    with pytest.raises(ValueError):
        SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(), base=base)
    with pytest.raises(ValueError):
        SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(1.0, 3.0, 2.0),
                  base=base)


def test_single_point_sweep_equals_direct_evaluation():
    base = default_scenario()
    spec = SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(12.0,), base=base)
    result = run_sweep(spec)
    direct = evaluate_scenario(scenario_at_distance(base, 12.0))
    assert len(result.rows) == 1
    for case in AncillaCase:
        assert result.rows[0].reports[case].total_skr \
            == direct[case].total_skr


RICH = dict(extra_paths_d=31, extra_paths_g=31, extra_paths_f=31,
            extra_path_angle_spread_rad=1.0, extra_path_excess_length=1.001)


def _bits(x) -> tuple:
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_same_rates(got, want):
    """Equal totals, warnings and per-branch rates, bit for bit."""
    assert got.total_skr == want.total_skr
    assert got.total_holevo == want.total_holevo
    assert got.warnings == want.warnings
    for field in dataclasses.fields(want.rates):
        assert _bits(getattr(got.rates, field.name)) == _bits(getattr(want.rates, field.name))


def test_distance_sweep_rows_equal_rebuilt_scenarios(tmp_path):
    # the sweep rescales the base scenario's paths; rebuilding the scenario
    # at every point gives the same numbers bit for bit.  Each row's report
    # is a view of its block's, and writing the CSV slices none of them.
    base = default_scenario(**RICH)
    grid = (1.3, 4.0, 9.7, 33.0, 120.0)
    result = run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=grid, base=base))
    emit_csv(result, str(tmp_path / "sweep.csv"))
    for row in result.rows:
        for report in row.reports.values():
            assert "rates" not in vars(report) and "conditioned" not in vars(report)
    for d, row in zip(grid, result.rows):
        rebuilt = evaluate_scenario(scenario_at_distance(base, d))
        for case in AncillaCase:
            got, want = row.reports[case], rebuilt[case]
            _assert_same_rates(got, want)
            for name in ("a", "b", "c"):
                got_pair, want_pair = getattr(got.conditioned, name), getattr(want.conditioned, name)
                assert list(map(_bits, got_pair)) == list(map(_bits, want_pair))
            assert got.branches == want.branches


@pytest.mark.parametrize("overrides, branches, clamped", [
    ({}, 1, 0), ({"d_ab": 1e-3}, 1, 3), ({"d_ab": 1e4}, 0, 0), (RICH, 32, 0),
], ids=["default", "clamped", "zero-branch", "32-path"])
def test_scenario_rating_equals_one_row_phase_sweep(overrides, branches, clamped):
    # a scenario's own rating is the one-point block every sweep row comes from
    scenario = default_scenario(**overrides)
    row, = run_sweep(SweepSpec(variable=SweepVariable.RIS_PHASE,
                               grid=(scenario.ris.common_phase,), base=scenario)).rows
    for case, want in evaluate_scenario(scenario).items():
        assert (len(want.rates.skr), want.warnings.beta_clamped) == (branches, clamped)
        _assert_same_rates(row.reports[case], want)


LEGS = dict(distance_alice_ris_m=5, distance_ris_bob_m=9)


@pytest.mark.parametrize("overrides", [{}, RICH, LEGS], ids=["default", "32-path", "legs"])
def test_distance_sweep_row_at_own_distance_equals_scenario_rating(overrides):
    # the row at the scenario's own distance is its unit scale: legs set
    # apart from 0.4 and 0.7 of d_ab keep their lengths
    scenario = default_scenario(**overrides)
    row, = run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB,
                               grid=(scenario.d_alice_bob,), base=scenario)).rows
    for case, want in evaluate_scenario(scenario).items():
        _assert_same_rates(row.reports[case], want)


def test_rich_distance_sweep_calls_no_scalar_path_loss():
    # the channels evaluate their path losses as arrays, one call per channel
    # and block of 8 points; the one-path reference is counted by its code
    # object, under whatever name it would be called
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    spec = SweepSpec(variable=SweepVariable.DISTANCE_AB, base=default_scenario(**RICH),
                     grid=tuple(np.linspace(1.0, 100.0, 100).tolist()))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_sweep(spec)
    finally:
        sys.setprofile(previous)
    assert all(row.error is None for row in result.rows)
    assert calls[channel._path_losses.__code__] == 3 * 13
    assert calls[oracle.path_loss.__code__] == 0


def test_distance_sweep_records_unreachable_points():
    base = default_scenario()
    grid = (-1.0, 0.0, 1.0, 1e308)
    rows = run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=grid,
                               base=base)).rows
    assert [row.error for row in rows[:2]] == ["distance must be > 0"] * 2
    assert rows[2].error is None
    assert rows[2].reports[AncillaCase.DIRECT].total_skr > 0.0
    # at 1e308 m the path phase 2*pi*f_c*delay overflows a float
    assert rows[3].reports is None
    assert "phase overflows" in rows[3].error


def test_distance_rule_applied_at_each_point():
    base = default_scenario()
    scenario = scenario_at_distance(base, 25.0)
    assert scenario.d_alice_ris == pytest.approx(0.4 * 25.0)
    assert scenario.d_ris_bob == pytest.approx(0.7 * 25.0)
    assert scenario.multipaths_d[0].path_length == pytest.approx(25.0)
    assert scenario.multipaths_g[0].path_length == pytest.approx(10.0)
    assert scenario.multipaths_f[0].path_length == pytest.approx(17.5)
    # free-space delays track the rescaled lengths
    assert scenario.multipaths_f[0].delay == pytest.approx(
        17.5 / 299_792_458.0)


def test_sweep_rows_are_deterministic():
    base = default_scenario()
    spec = SweepSpec(variable=SweepVariable.RIS_PHASE,
                     grid=(0.0, 0.5, 1.0, 1.5), base=base)
    a = run_sweep(spec)
    b = run_sweep(spec)
    for row_a, row_b in zip(a.rows, b.rows):
        for case in AncillaCase:
            assert row_a.reports[case].total_skr \
                == row_b.reports[case].total_skr
    assert a.scenario_digest == b.scenario_digest


def test_sweep_marks_failing_points_without_aborting():
    base = default_scenario()
    spec = SweepSpec(variable=SweepVariable.RIS_ELEMENTS,
                     grid=(100.0, 150.0, 400.0), base=base)
    result = run_sweep(spec)
    assert result.rows[0].error is None
    assert result.rows[1].error is not None  # 150 is not a perfect square
    assert result.rows[1].reports is None
    assert result.rows[2].error is None


def test_frequency_transform_preserves_spacing_ratio():
    base = default_scenario()
    moved = scenario_with_frequency(base, 5e12)
    assert moved.tx.element_spacing / moved.wavelength == pytest.approx(
        base.tx.element_spacing / base.wavelength)
    assert moved.ris.spacing_x / moved.wavelength == pytest.approx(
        base.ris.spacing_x / base.wavelength)


def test_ris_elements_transform_requires_square():
    base = default_scenario()
    grown = scenario_with_ris_elements(base, 400)
    assert grown.ris.k_x == grown.ris.k_y == 20
    with pytest.raises(ValueError):
        scenario_with_ris_elements(base, 150)


def test_optimal_phase_dominates_grid_samples():
    base = scenario_at_distance(default_scenario(), 5.0)
    from ris_cvqkd.channel import build_channels
    from ris_cvqkd.decomposition import branch_params, decompose, make_branch
    from ris_cvqkd.qkd import total_skr

    for case in AncillaCase:
        opt = optimal_phase(base, case, resolution=math.pi / 64)
        bundles = decompose(build_channels(base))
        branches, _ = branch_params(bundles, base.ris)
        noise = noise_model(base)
        for phi in np.linspace(0.0, math.pi, 65):
            swapped = [make_branch(b.beta_d, b.beta_g, b.beta_f, float(phi)) for b in branches]
            sample = total_skr(case, swapped, noise).total_skr
            assert opt.skr_star >= sample - 1e-15


def test_optimal_phase_rate_matches_fresh_evaluation_at_that_phase():
    # the search rebuilds decomposed branches at each phase; a phase sweep
    # runs the whole pipeline on a scenario carrying that phase
    base = default_scenario(d_ab=20.0, extra_paths_d=2, extra_paths_g=2,
                            extra_paths_f=2)
    for case in AncillaCase:
        opt = optimal_phase(base, case, resolution=math.pi / 32)
        spec = SweepSpec(variable=SweepVariable.RIS_PHASE, grid=(opt.phi_star,),
                         base=base, cases=(case,))
        assert run_sweep(spec).rows[0].reports[case].total_skr == opt.skr_star


def test_optimal_phase_known_endpoints():
    base = scenario_at_distance(default_scenario(), 5.0)
    opt_d = optimal_phase(base, AncillaCase.DIRECT, resolution=math.pi / 128)
    assert opt_d.phi_star == pytest.approx(math.pi, abs=math.pi / 128 + 1e-9)
    # the rate is flat to fp noise near zero: allow a couple of grid steps
    opt_g = optimal_phase(base, AncillaCase.ALICE_RIS, resolution=math.pi / 128)
    assert opt_g.phi_star <= 2.0 * math.pi / 128 + 1e-9


def test_optimal_phase_rejects_a_scan_finer_than_its_floor(monkeypatch):
    # 1e-9 would scan 3,141,592,655 phases and 5e-324 overflows math.ceil:
    # each is rejected before the base is decomposed or a grid is built
    base = default_scenario()
    floor = math.pi / 2**16  # a scan of 65,537 phases
    with monkeypatch.context() as m:
        m.setattr(experiments, "_grid", lambda *args: pytest.fail("the base was decomposed"))
        for resolution in (1e-9, 1e-300, 5e-324, math.nextafter(floor, 0.0)):
            with pytest.raises(ValueError, match=r"resolution must be >= pi / 2\*\*16"):
                optimal_phase(base, AncillaCase.DIRECT, resolution)
    calls = _count_rated_branches(monkeypatch)
    assert 0.0 <= optimal_phase(base, AncillaCase.DIRECT, floor).phi_star <= math.pi
    assert sum(calls) >= 65_537


# the bracket searches of optimal_phase and max_secure_distance, on synthetic
# batched rates
_REACH_GRID = [0.5 + 199.5 * i / 63 for i in range(64)]
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _synthetic(rate, calls=None):
    def outcomes(points):
        if calls is not None:
            calls.append(len(points))
        return [rate(x) for x in points]
    return outcomes


def _textbook_golden(rate, a, b):
    """Golden-section ascent to width 1e-9, one rating per step."""
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = rate(c), rate(d)
    while (b - a) > 1e-9:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = rate(d)
    return 0.5 * (a + b), rate(0.5 * (a + b))


@pytest.mark.parametrize("rate, peak", [
    (lambda x: -(x - 0.3) ** 2, 0.3),
    # flat up to 0.4: ties keep the upper bracket, so the ascent ends at the edge
    (lambda x: min(1.0, 1.4 - x), 0.4),
], ids=["parabola", "plateau"])
def test_golden_ascent_equals_one_point_per_step(rate, peak):
    got = experiments._golden_ascent(_synthetic(rate), 0.0, 1.0)
    assert got == _textbook_golden(rate, 0.0, 1.0)
    assert got[0] == pytest.approx(peak, abs=1e-8)


def test_bracket_search_rates_the_next_levels_per_call():
    # a falling rate keeps [a, d] at every golden-section step, a route no
    # other route meets: 44 steps take width 1 to 1e-9, and the 45 brackets
    # read are rated in passes of _GOLDEN_STEPS levels of both outcomes
    calls = []
    phi, _ = experiments._golden_ascent(_synthetic(lambda x: -x, calls), 0.0, 1.0)
    assert phi == pytest.approx(0.0, abs=1e-9)
    assert len(calls) == math.ceil(45 / experiments._GOLDEN_STEPS)
    assert max(calls) <= 2 ** experiments._GOLDEN_STEPS
    # the grid, then 10 bisection levels from width 1 to 2**-10 in passes of
    # _BISECTION_STEPS levels, each every midpoint of both outcomes
    calls.clear()
    experiments._last_crossing(_synthetic(lambda d: 0.3 - d, calls), [0.0, 1.0], 2.0 ** -10)
    passes = 10 // experiments._BISECTION_STEPS
    assert calls == [2] + [2 ** experiments._BISECTION_STEPS - 1] * passes


def test_max_secure_distance_hook_upper_bound():
    d = experiments._last_crossing(_synthetic(lambda d: 1.0), _REACH_GRID, 0.01)
    assert d == 200.0


def test_max_secure_distance_no_positive_rate():
    d = experiments._last_crossing(_synthetic(lambda d: -1.0), _REACH_GRID, 0.01)
    assert d == 0.0


def test_max_secure_distance_refines_crossing():
    d = experiments._last_crossing(_synthetic(lambda d: 42.0 - d), _REACH_GRID, 1e-6)
    assert d == pytest.approx(42.0, abs=1e-5)


def test_max_secure_distance_takes_largest_crossing():
    # positive on [0, 30] and again on [60, 90]: keep the far crossing

    def lobes(d):
        return 1.0 if d <= 30.0 or 60.0 <= d <= 90.0 else -1.0

    d = experiments._last_crossing(_synthetic(lobes), _REACH_GRID, 1e-3)
    assert d == pytest.approx(90.0, abs=0.01)


def test_last_crossing_stops_at_adjacent_floats():
    # a tolerance below the float spacing ends once no midpoint splits further
    d = experiments._last_crossing(_synthetic(lambda d: 42.0 - d), _REACH_GRID, 1e-300)
    assert d == pytest.approx(42.0, abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"tolerance": 0.0}, {"tolerance": -1.0}, {"tolerance": math.nan},
    {"tolerance": math.inf}, {"d_min": 100.0, "d_max": 10.0},
    {"d_min": 0.0}, {"d_max": math.inf}, {"d_min": math.nan},
    {"grid_points": 1}, {"grid_points": 0}, {"grid_points": 2.5},
    {"grid_points": math.inf}, {"grid_points": math.nan},
])
def test_max_secure_distance_rejects_unsearchable_input(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        max_secure_distance(default_scenario(), AncillaCase.DIRECT, **kwargs)


def test_max_secure_distance_orders_cases():
    # a probe above vacuum separates the storage cases
    base = default_scenario(eve_variance_snu=1.5)
    d_direct = max_secure_distance(base, AncillaCase.DIRECT)
    d_reflected = max_secure_distance(base, AncillaCase.RIS_BOB)
    assert d_reflected > d_direct
    # a whole-number float is that many grid points
    assert max_secure_distance(base, AncillaCase.RIS_BOB, grid_points=64.0) == d_reflected


def test_max_secure_distance_grows_with_antennas():
    from ris_cvqkd.experiments import scenario_with_antennas

    base = default_scenario(eve_variance_snu=1.5)
    reaches = [max_secure_distance(scenario_with_antennas(base, n),
                                   AncillaCase.RIS_BOB, tolerance=0.1,
                                   d_max=60.0, grid_points=24)
               for n in (32, 64, 128)]
    assert reaches[0] <= reaches[1] <= reaches[2]


def test_reference_scenario_reflected_case_is_positive():
    # default setup at 10 m: the reflected-tap storage case keeps a positive
    # rate, and the branch record recomposes from its own intermediates
    reports = evaluate_scenario(default_scenario(), (AncillaCase.RIS_BOB,))
    report = reports[AncillaCase.RIS_BOB]
    assert report.total_skr > 0.0
    rec = report.branches[0]
    assert rec.skr == pytest.approx(
        rec.i_ab_direct + rec.i_ab_ris - rec.holevo, rel=1e-12)


@pytest.mark.parametrize("overrides", [{"v_e": 1e6}, {"d_ab": 1e4}, {"d_ab": 1e-3}])
def test_totals_are_plain_floats(overrides):
    for report in evaluate_scenario(default_scenario(**overrides)).values():
        assert type(report.total_skr) is float
        assert type(report.total_holevo) is float


def test_path_loss_underflow_gives_zero_branches():
    # at 10 km every singular value falls below the rank cutoff
    for report in evaluate_scenario(default_scenario(d_ab=1e4)).values():
        assert report.branches == ()
        assert report.total_skr == 0.0
        assert report.total_holevo == 0.0
        assert report.warnings.total == 0


def test_all_transmissivities_clamped():
    # at 1 mm all three channel gains exceed 1: one lossless branch
    reports = evaluate_scenario(default_scenario(d_ab=1e-3))
    for report in reports.values():
        assert len(report.branches) == 1
        assert report.warnings.beta_clamped == 3
    rates = {report.total_skr for report in reports.values()}
    assert len(rates) == 1
    assert math.isfinite(rates.pop())


def test_baseline_reflected_path_carries_nothing():
    base = default_scenario()
    result = no_ris_baseline(base, distances=(5.0, 10.0))
    for row in result.rows:
        report = row.reports[AncillaCase.DIRECT]
        for rec in report.branches:
            assert rec.i_ab_ris == 0.0


def test_baseline_matches_closed_tap_equivalence():
    # forcing the reflected hop shut inside the full pipeline reproduces it
    from ris_cvqkd.channel import build_channels
    from ris_cvqkd.decomposition import branch_params, decompose, make_branch
    from ris_cvqkd.qkd import total_skr

    base = default_scenario()
    scenario = scenario_at_distance(base, 10.0)
    bundles = decompose(build_channels(scenario))
    branches, _ = branch_params(bundles, scenario.ris)
    forced = [make_branch(b.beta_d, b.beta_g, 0.0, b.phi) for b in branches]
    expected = total_skr(AncillaCase.DIRECT, forced, noise_model(scenario)).total_skr
    result = no_ris_baseline(base, distances=(10.0,))
    assert result.rows[0].reports[AncillaCase.DIRECT].total_skr == expected


def test_baseline_never_beats_assisted_link():
    base = default_scenario()
    grid = (2.0, 5.0, 10.0, 20.0, 40.0)
    assisted = run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB,
                                   grid=grid, base=base))
    baseline = no_ris_baseline(base, distances=grid)
    for row_b, row_a in zip(baseline.rows, assisted.rows):
        floor = row_b.reports[AncillaCase.DIRECT].total_skr
        for case in AncillaCase:
            assert floor <= row_a.reports[case].total_skr + 1e-15


def _count_decompositions(monkeypatch):
    """The matrices of each stack the drivers decompose: a scenario's one
    decomposition is one stack of one core per channel."""
    calls = []
    original = experiments.singular_values

    def counted(stack):
        calls.append(len(stack))
        return original(stack)

    monkeypatch.setattr(experiments, "singular_values", counted)
    return calls


def test_channel_factors_built_once_per_distance_driver(monkeypatch):
    calls = []
    original = experiments.channel_factors

    def counted(scenario):
        calls.append(scenario)
        return original(scenario)

    monkeypatch.setattr(experiments, "channel_factors", counted)
    base = default_scenario(eve_variance_snu=2.0)
    run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(2.0, 5.0, 9.0), base=base))
    assert calls == [base]
    no_ris_baseline(base, distances=(2.0, 5.0))
    assert calls == [base, base]
    max_secure_distance(base, AncillaCase.DIRECT)
    assert calls == [base] * 3


def test_one_decomposition_per_phase_search_and_evaluation(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    base = default_scenario(d_ab=20.0)
    optimal_phase(base, AncillaCase.RIS_BOB)
    assert calls == [1] * 3
    evaluate_scenario(base)
    assert calls == [1] * 6


def test_failing_phase_decomposition_is_kept(monkeypatch):
    # the base's channels fail: they are built once, and every block, and
    # every point a failing block is rated again by, raises the kept error
    calls = []
    original = experiments.cores_at

    def counted(factors, scales):
        calls.append(len(scales))
        return original(factors, scales)

    monkeypatch.setattr(experiments, "cores_at", counted)
    base = default_scenario(d_ab=1e308)
    with pytest.raises(ValueError, match="path phase overflows"):
        optimal_phase(base, AncillaCase.RIS_BOB)
    assert calls == [1]
    rows = run_sweep(SweepSpec(variable=SweepVariable.RIS_PHASE, grid=(0.0, 1.0, 2.0),
                               base=base)).rows
    assert calls == [1, 1]
    assert {row.error for row in rows} == {"path phase overflows at delay 3.33564e+299 s"}


@pytest.mark.parametrize("overrides", [RICH, {**RICH, **LEGS}], ids=["32-path", "legs"])
def test_distance_blocks_equal_rebuilt_scenarios(overrides):
    # longer than one block of the rich scenario (8 points): an error row, a
    # zero-branch row and ordinary rows in the first block, which is rated
    # again point by point, and ordinary rows in the second
    base = default_scenario(**overrides)
    grid = (1e308, 1e4, 120.0, 60.0, 33.0, 15.0, 9.7, 4.0, 2.0, 1.3, 0.7, -1.0)
    assert experiments._grid(base, SweepVariable.DISTANCE_AB)[0] == 8 < len(grid)
    result = run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=grid, base=base))
    for d, row in zip(grid, result.rows):
        try:
            rebuilt = evaluate_scenario(scenario_at_distance(base, d))
        except (ValueError, ArithmeticError) as exc:
            assert row.reports is None and row.error == str(exc)
            continue
        assert row.error is None
        for case in AncillaCase:
            got, want = row.reports[case], rebuilt[case]
            assert got.total_skr == want.total_skr
            assert got.total_holevo == want.total_holevo
            assert got.warnings == want.warnings
            assert np.array_equal(got.rates.skr, want.rates.skr)
    assert "phase overflows" in result.rows[0].error
    assert result.rows[1].reports[AncillaCase.DIRECT].branches == ()
    assert result.rows[-1].error == "distance must be > 0"


def _count_rated_branches(monkeypatch):
    """The branch count of every ``total_skr`` call the drivers make."""
    calls = []
    original = experiments.total_skr

    def counted(case, branches, *args, **kwargs):
        calls.append(len(branches))
        return original(case, branches, *args, **kwargs)

    monkeypatch.setattr(experiments, "total_skr", counted)
    return calls


def test_blocks_are_sized_by_cores(monkeypatch):
    # 32 x 32 cores of the rich scenario give 8 points a block; the 1 x 1
    # cores of line of sight put the whole 64-point reach scan in one call,
    # and each bisection call rates the midpoints of the next levels
    assert experiments._grid(default_scenario(**RICH), SweepVariable.DISTANCE_AB)[0] == 8
    calls = _count_rated_branches(monkeypatch)
    max_secure_distance(default_scenario(), AncillaCase.RIS_BOB)
    assert calls[0] == 64 and len(calls) <= 3
    assert max(calls[1:]) <= 2 ** experiments._BISECTION_STEPS - 1


def test_phase_search_rates_its_grid_within_the_budget(monkeypatch):
    calls = _count_rated_branches(monkeypatch)
    optimal_phase(default_scenario(), AncillaCase.DIRECT)
    assert calls[0] == 257 and len(calls) <= 12  # the default grid: one call
    base = default_scenario(d_ab=20.0, **RICH)
    want = optimal_phase(base, AncillaCase.RIS_BOB, resolution=math.pi / 64)
    calls.clear()
    monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 100)
    assert optimal_phase(base, AncillaCase.RIS_BOB, resolution=math.pi / 64) == want
    assert max(calls) <= 100 < sum(calls)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(t_e=st.floats(1e-300, 1e300), v_s=st.floats(1e-300, 1e300),
       v_e=st.floats(1.0, 1e300), f_c=st.floats(1e-290, 1e300))
def test_extreme_noise_gives_floats_or_an_error(t_e, v_s, v_e, f_c):
    # no numpy warning either: the suite turns a RuntimeWarning into an error
    scenario = default_scenario(t_e=t_e, v_s=v_s, v_e=v_e, f_c=f_c)
    try:
        reports = evaluate_scenario(scenario)
    except (ValueError, ArithmeticError):
        return
    assert all(type(r.total_skr) is float and math.isfinite(r.total_skr)
               for r in reports.values())


def test_phase_sweep_decomposes_once(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    base = default_scenario(d_ab=20.0, **RICH)
    # folded phases outside [0, 2*pi), two blocks, and a phase with no value:
    # 320 entries hold 10 phases of at most 32 branches
    monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 320)
    grid = tuple(-7.0 + 0.9 * i for i in range(17)) + (math.inf,)
    result = run_sweep(SweepSpec(variable=SweepVariable.RIS_PHASE, grid=grid, base=base))
    assert calls == [1] * 3
    for phi, row in zip(grid[:-1], result.rows):
        want = evaluate_scenario(dataclasses.replace(
            base, ris=dataclasses.replace(base.ris, common_phase=phi)))
        for case in AncillaCase:
            assert row.reports[case].total_skr == want[case].total_skr
            assert row.reports[case].total_holevo == want[case].total_holevo
            assert row.reports[case].warnings == want[case].warnings
    assert result.rows[-1].error == "common_phase must be finite"
    nan_row, = run_sweep(SweepSpec(variable=SweepVariable.RIS_PHASE, grid=(math.nan,),
                                   base=base)).rows
    assert nan_row.error == "common_phase must be finite"


def test_phase_blocks_hold_the_branch_budget(monkeypatch):
    # 32 paths per channel bound a phase to 32 branches: the 50 phases fit
    # one block of 1,600 branches, one total_skr call per case
    base = default_scenario(d_ab=20.0, **RICH)
    calls = _count_rated_branches(monkeypatch)
    grid = tuple(2.0 * math.pi * i / 49 for i in range(50))
    result = run_sweep(SweepSpec(variable=SweepVariable.RIS_PHASE, grid=grid, base=base))
    assert calls == [50 * 32] * 3 and max(calls) <= experiments._BLOCK_ENTRIES
    for phi, row in zip(grid, result.rows):
        want = evaluate_scenario(dataclasses.replace(
            base, ris=dataclasses.replace(base.ris, common_phase=phi)))
        for case in AncillaCase:
            got = row.reports[case]
            assert got.total_skr == want[case].total_skr
            assert got.total_holevo == want[case].total_holevo
            assert got.warnings == want[case].warnings
            assert np.array_equal(got.rates.skr, want[case].rates.skr)


def test_fractional_counts_are_error_rows():
    from ris_cvqkd.experiments import scenario_with_antennas

    base = default_scenario()
    with pytest.raises(ValueError, match="antenna count 1.5 is not a whole number"):
        scenario_with_antennas(base, 1.5)
    with pytest.raises(ValueError, match="RIS element count 100.5 is not a whole number"):
        scenario_with_ris_elements(base, 100.5)
    assert scenario_with_antennas(base, 4.0).tx.element_count == 4
    rows = run_sweep(SweepSpec(variable=SweepVariable.ANTENNA_COUNT, grid=(1.5, 2.0, 2.5),
                               base=base)).rows
    assert [row.error is None for row in rows] == [False, True, False]
    rows = run_sweep(SweepSpec(variable=SweepVariable.RIS_ELEMENTS, grid=(100.0, 100.5),
                               base=base)).rows
    assert rows[0].error is None
    assert rows[1].error == "RIS element count 100.5 is not a whole number"


def test_sweep_spec_rejects_empty_and_repeated_cases():
    base = default_scenario()
    with pytest.raises(ValueError, match="cases must be non-empty and distinct"):
        SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(1.0,), base=base, cases=())
    with pytest.raises(ValueError, match="cases must be non-empty and distinct"):
        SweepSpec(variable=SweepVariable.DISTANCE_AB, grid=(1.0,), base=base,
                  cases=(AncillaCase.DIRECT, AncillaCase.RIS_BOB, AncillaCase.DIRECT))
