"""The phase and reach searches against plain sequential references.

``optimal_phase`` and ``max_secure_distance`` are steps of one bracket
search that rates ahead: a step with an unrated point rates every point the
next steps can ask for in one pass.  The references below are the textbook
golden-section and bisection loops that search must reproduce, one point at
a time through the public single-scenario rating, so any difference in a
rated point, a comparison or a stop shows as a different result.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_cvqkd import experiments
from ris_cvqkd.channel import fold_phase
from ris_cvqkd.config import default_scenario
from ris_cvqkd.experiments import (PhaseOptimum, evaluate_scenario, max_secure_distance,
                                   optimal_phase)
from ris_cvqkd.oracle import scenario_at_distance
from ris_cvqkd.qkd import AncillaCase

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCENARIOS = {
    "line of sight": {},
    "rich": dict(extra_paths_d=31, extra_paths_g=31, extra_paths_f=31,
                 extra_path_angle_spread_rad=1.0, extra_path_excess_length=1.001),
    "eve2": dict(eve_variance_snu=2.0),
}


def _rate_at_phase(base, case, phi: float) -> float:
    ris = dataclasses.replace(base.ris, common_phase=phi)
    return evaluate_scenario(dataclasses.replace(base, ris=ris), (case,))[case].total_skr


def _rate_at_distance(base, case, d: float) -> float:
    return evaluate_scenario(scenario_at_distance(base, d), (case,))[case].total_skr


def reference_phase(base, case, resolution: float, visited=None) -> PhaseOptimum:
    """Grid scan and golden-section ascent, one phase per rating."""

    def rate(phi):
        if visited is not None:
            visited.append(phi)
        return _rate_at_phase(base, case, phi)

    points = max(2, int(math.ceil(math.pi / resolution)) + 1)
    grid = [math.pi * i / (points - 1) for i in range(points)]
    values = [rate(phi) for phi in grid]
    best = max(range(points), key=lambda i: (values[i], i))
    a, b = grid[max(0, best - 1)], grid[min(points - 1, best + 1)]
    tol = 1e-9
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = rate(c), rate(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = rate(d)
    phi_star = 0.5 * (a + b)
    skr_star = rate(phi_star)
    if values[best] > skr_star:
        phi_star, skr_star = grid[best], values[best]
    return PhaseOptimum(phi_star=phi_star, skr_star=skr_star)


def reference_reach(base, case, tolerance: float, d_max: float, grid_points: int,
                    visited=None) -> float:
    """Grid scan and bisection of the last crossing, one distance per rating."""

    def rate(d):
        if visited is not None:
            visited.append(d)
        return _rate_at_distance(base, case, d)

    d_min = 0.5
    grid = [d_min + (d_max - d_min) * i / (grid_points - 1) for i in range(grid_points)]
    values = [rate(d) for d in grid]
    if all(v <= 0.0 for v in values):
        return 0.0
    if values[-1] > 0.0:
        return grid[-1]
    crossings = [i for i in range(len(grid) - 1) if values[i] > 0.0 >= values[i + 1]]
    if not crossings:
        return grid[0]
    lo, hi = grid[crossings[-1]], grid[crossings[-1] + 1]
    while (hi - lo) > tolerance:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(scenario=st.sampled_from(sorted(SCENARIOS)), case=st.sampled_from(AncillaCase),
       d_ab=st.floats(2.0, 120.0), resolution=st.sampled_from([math.pi / 8, math.pi / 40]))
@example(scenario="rich", case=AncillaCase.RIS_BOB, d_ab=20.0, resolution=math.pi / 40)
@example(scenario="eve2", case=AncillaCase.DIRECT, d_ab=50.0, resolution=math.pi / 8)
def test_phase_search_equals_sequential_reference(scenario, case, d_ab, resolution):
    base = default_scenario(d_ab=d_ab, **SCENARIOS[scenario])
    assert optimal_phase(base, case, resolution) == reference_phase(base, case, resolution)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(scenario=st.sampled_from(sorted(SCENARIOS)), case=st.sampled_from(AncillaCase),
       tolerance=st.sampled_from([0.5, 0.01, 1e-300]), d_max=st.floats(20.0, 200.0),
       grid_points=st.integers(2, 40))
# a tolerance below the float spacing: the bisection ends at adjacent floats
@example(scenario="line of sight", case=AncillaCase.RIS_BOB, tolerance=1e-300,
         d_max=200.0, grid_points=64)
@example(scenario="rich", case=AncillaCase.ALICE_RIS, tolerance=0.01, d_max=175.0,
         grid_points=64)
@example(scenario="eve2", case=AncillaCase.RIS_BOB, tolerance=0.01, d_max=175.0,
         grid_points=64)
def test_reach_search_equals_sequential_reference(scenario, case, tolerance, d_max,
                                                  grid_points):
    base = default_scenario(**SCENARIOS[scenario])
    got = max_secure_distance(base, case, tolerance=tolerance, d_max=d_max,
                              grid_points=grid_points)
    assert got == reference_reach(base, case, tolerance, d_max, grid_points)


SEARCHES = {
    # the search, its reference, the pipeline seam every rated block passes,
    # the points of one call there, and a reference point as the seam sees it
    "phase": (lambda base, case: optimal_phase(base, case),
              lambda base, case, visited: reference_phase(base, case, math.pi / 256, visited),
              "branch_set", lambda betas, phis: list(dict.fromkeys(np.ravel(phis).tolist())),
              lambda base, phi: fold_phase(phi), dict(d_ab=50.0)),
    "reach": (lambda base, case: max_secure_distance(base, case, d_max=175.0),
              lambda base, case, visited: reference_reach(base, case, 0.01, 175.0, 64, visited),
              "cores_at", lambda factors, scales: list(scales),
              lambda base, d: d / base.d_alice_bob, dict(eve_variance_snu=2.0)),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_only_points_the_loop_reads_raise(monkeypatch, search):
    run, reference, seam, points_of, seen_as, overrides = SEARCHES[search]
    base, case = default_scenario(**overrides), AncillaCase.RIS_BOB
    visited = []
    want = reference(base, case, visited)
    visited = [seen_as(base, x) for x in visited]
    original, rated = getattr(experiments, seam), []

    def recorded(*args):
        rated.extend(points_of(*args))
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, seam, recorded)
        assert run(base, case) == want
    unvisited = [x for x in rated if x not in visited]
    assert unvisited  # the lookahead rates points the loop never reads
    for bad in (unvisited[0], visited[-1]):

        def failing(*args, bad=bad):
            if bad in points_of(*args):
                raise ValueError("probe fails")
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(experiments, seam, failing)
            if bad in visited:  # raised as by a search of one point per step
                with pytest.raises(ValueError, match="probe fails"):
                    run(base, case)
            else:
                assert run(base, case) == want
