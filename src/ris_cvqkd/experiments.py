"""Parameter sweeps and searches over the full channel-to-key-rate pipeline.

Covers key rate versus distance / RIS size / RIS phase / carrier frequency /
antenna count, the optimal-common-phase search, the maximum secure distance,
and the no-RIS baseline.  Every driver turns a scenario into branches through
one step (channels -> decomposition -> paired branches) and rates them in one
batched pass per case over the branches of many phases or distances stacked
in one set.  Distance and phase grids are rated in blocks of points.  Every
grid point is a pure function of the scenario, so results are deterministic.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import (ChannelFactors, PathSpec, Scenario, build_channels, channel_factors,
                      cores_at)
from .config import GEOMETRY_RATIOS
from .decomposition import BranchSet, branch_params, branch_set, decompose, singular_values
from .qkd import (AncillaCase, BranchRecord, NoiseModel, PairCov, SkrReport, Warnings,
                  ordered_totals, total_skr)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# core entries of one channel's stack per block: 8 points of 32 x 32 cores;
# 100-point blocks raised a rich sweep's peak memory by 14%
_BLOCK_ENTRIES = 8_192
_UNIT = [(1.0, 1.0, 1.0)]  # the scale triple of a scenario's own channels


class SweepVariable(enum.Enum):
    DISTANCE_AB = "distance"
    RIS_ELEMENTS = "ris-elements"
    RIS_PHASE = "phase"
    CARRIER_FREQUENCY = "frequency"
    ANTENNA_COUNT = "antennas"


@dataclass(frozen=True)
class SweepSpec:
    variable: SweepVariable
    grid: tuple[float, ...]
    base: Scenario
    cases: tuple[AncillaCase, ...] = tuple(AncillaCase)

    def __post_init__(self):
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must be non-empty")
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("grid must be strictly monotone")
        object.__setattr__(self, "grid", grid)
        cases = tuple(self.cases)
        if not cases or len(set(cases)) != len(cases):
            raise ValueError("cases must be non-empty and distinct")
        object.__setattr__(self, "cases", cases)


@dataclass(frozen=True)
class SweepRow:
    value: float
    reports: dict[AncillaCase, SkrReport] | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    variable: SweepVariable
    cases: tuple[AncillaCase, ...]
    rows: tuple[SweepRow, ...]
    scenario_digest: str


def noise_model(scenario: Scenario) -> NoiseModel:
    return NoiseModel.from_link(scenario.carrier_frequency, scenario.temperature,
                                scenario.modulation_variance, scenario.eve_variance)


def _points(factors: ChannelFactors, scales):
    """The paired branches of the factors' channels at each scale triple,
    joined in order, with each point's branch count and clamp count and the
    noise model.  Each channel's singular values come from its path-space
    cores, one stack per channel and block."""
    ris = factors.scenario.ris
    sets = [branch_params(b, ris) for b in zip(*map(singular_values, cores_at(factors, scales)))]
    return (BranchSet.of([b for b, _ in sets]), [len(b) for b, _ in sets],
            [clamped for _, clamped in sets], noise_model(factors.scenario))


def _tiled(branches: BranchSet, phis) -> BranchSet:
    """The branches repeated phase by phase, in branch order within a phase."""
    return branch_set(np.tile(branches.betas, (len(phis), 1)),
                      np.repeat(phis, len(branches)), np.tile(branches.branch_index, len(phis)))


def evaluate_scenario(scenario: Scenario,
                      cases=tuple(AncillaCase)) -> dict[AncillaCase, SkrReport]:
    """Full pipeline: channels -> branch decomposition -> per-case key rate."""
    branches, _, (clamped,), noise = _points(channel_factors(scenario), _UNIT)
    return {case: total_skr(case, branches, noise, clamped) for case in cases}


def _scaled_paths(paths: tuple[PathSpec, ...], factor: float) -> tuple[PathSpec, ...]:
    """Rescale path lengths (and delays proportionally) by a common factor."""
    out = []
    for p in paths:
        out.append(dataclasses.replace(
            p, path_length=p.path_length * factor, delay=p.delay * factor))
    return tuple(out)


def _distance_scales(base: Scenario, d_ab: float) -> tuple[float, float, float]:
    """Path scales of the direct, transmitter-to-RIS and RIS-to-receiver
    channels when the endpoints move to ``d_ab`` at the fixed leg ratios."""
    if not d_ab > 0:
        raise ValueError("distance must be > 0")
    d_ar, d_rb = GEOMETRY_RATIOS[0] * d_ab, GEOMETRY_RATIOS[1] * d_ab
    return d_ab / base.d_alice_bob, d_ar / base.d_alice_ris, d_rb / base.d_ris_bob


def scenario_at_distance(base: Scenario, d_ab: float) -> Scenario:
    """Move the endpoints apart, keeping the fixed leg ratios and rescaling
    every path proportionally to its channel's leg."""
    s_d, s_g, s_f = _distance_scales(base, d_ab)
    return dataclasses.replace(
        base,
        d_alice_bob=d_ab, d_alice_ris=GEOMETRY_RATIOS[0] * d_ab,
        d_ris_bob=GEOMETRY_RATIOS[1] * d_ab,
        multipaths_d=_scaled_paths(base.multipaths_d, s_d),
        multipaths_g=_scaled_paths(base.multipaths_g, s_g),
        multipaths_f=_scaled_paths(base.multipaths_f, s_f))


def _whole(value, what: str) -> int:
    n = int(value)
    if n != value:
        raise ValueError(f"{what} {value!r} is not a whole number")
    return n


def scenario_with_ris_elements(base: Scenario, k: int) -> Scenario:
    """Square RIS layout; the element count must be a perfect square."""
    k = _whole(k, "RIS element count")
    side = math.isqrt(k)
    if side * side != k or k < 1:
        raise ValueError(f"RIS element count {k} is not a perfect square")
    return dataclasses.replace(
        base, ris=dataclasses.replace(base.ris, k_x=side, k_y=side))


def scenario_with_antennas(base: Scenario, n: int) -> Scenario:
    n = _whole(n, "antenna count")
    return dataclasses.replace(
        base,
        tx=dataclasses.replace(base.tx, element_count=n),
        rx=dataclasses.replace(base.rx, element_count=n))


def scenario_with_frequency(base: Scenario, f_c: float) -> Scenario:
    """Change the carrier, preserving all spacings as fractions of the
    wavelength (half-wavelength arrays stay half-wavelength)."""
    if not 0 < f_c < math.inf:
        raise ValueError("carrier frequency must be finite and > 0")
    scale = base.carrier_frequency / f_c  # new wavelength / old wavelength
    return dataclasses.replace(
        base,
        carrier_frequency=f_c,
        tx=dataclasses.replace(base.tx, element_spacing=base.tx.element_spacing * scale),
        rx=dataclasses.replace(base.rx, element_spacing=base.rx.element_spacing * scale),
        ris=dataclasses.replace(base.ris,
                                spacing_x=base.ris.spacing_x * scale,
                                spacing_y=base.ris.spacing_y * scale))


_SCENARIO_TRANSFORMS = {
    SweepVariable.RIS_ELEMENTS: scenario_with_ris_elements,
    SweepVariable.CARRIER_FREQUENCY: scenario_with_frequency,
    SweepVariable.ANTENNA_COUNT: scenario_with_antennas,
}


def scenario_digest(scenario: Scenario) -> str:
    """Stable hash of the full scenario value."""
    return hashlib.sha256(repr(scenario).encode()).hexdigest()[:16]


def _block_points(factors: ChannelFactors) -> int:
    """Grid points per block: the stack of the largest min(n, L) x min(m, L)
    core stays within ``_BLOCK_ENTRIES`` entries, with one point at least."""
    largest = max(len(r_arrival) * len(r_departure)
                  for *_, r_arrival, r_departure in factors.channels)
    return max(1, _BLOCK_ENTRIES // max(1, largest))


def _split(report: SkrReport, counts, clamps) -> list[SkrReport]:
    """The reports of consecutive runs of ``counts`` branches of a joined report,
    each summed in branch order and warned of its own clamps and negativity."""
    stops = [0, *itertools.accumulate(counts)]
    negative = [0, *itertools.accumulate(report.rates.negativity_count.tolist())]
    rates, cond = report.rates, report.conditioned
    return [SkrReport(report.ancilla_case,
                      BranchRecord(*(getattr(rates, f.name)[lo:hi] for f in fields(rates))),
                      PairCov(*(tuple(x[lo:hi] if np.ndim(x) else x for x in pair)
                                for pair in (cond.a, cond.b, cond.c))),
                      total, Warnings(clamped, negative[hi] - negative[lo]))
            for lo, hi, total, clamped
            in zip(stops, stops[1:], ordered_totals(rates.skr, counts), clamps)]


def _rate_blocks(values, size: int, points, cases, ris_tap_closed: bool = False) -> list:
    """Per-point reports of a grid, ``size`` points at a time: ``points(block)``
    gives the block's joined branches, their counts and clamp counts per point
    and the noise model, and each case is rated once over the block (with
    beta_f = 0 if ``ris_tap_closed``).  A block that raises is rated again
    point by point; a failing point gives its exception for its reports."""
    out = []
    for start in range(0, len(values), size):
        block = values[start:start + size]
        try:
            branches, counts, clamps, noise = points(block)
            if ris_tap_closed:
                branches = branch_set(np.where([True, True, False], branches.betas, 0.0),
                                      branches.phi, branches.branch_index)
            reports = [_split(total_skr(case, branches, noise), counts, clamps)
                       for case in cases]
            out += [dict(zip(cases, row)) for row in zip(*reports)]
        except (ValueError, ArithmeticError) as exc:
            out += [exc] if len(block) == 1 else _rate_blocks(block, 1, points, cases,
                                                              ris_tap_closed)
    return out


def _sweep(spec: SweepSpec, ris_tap_closed: bool = False) -> SweepResult:
    """Evaluate the pipeline on every grid point, in grid order; with
    ``ris_tap_closed`` every branch has beta_f = 0 (the no-RIS equivalent).

    Distance and phase grids go in blocks of ``_block_points`` points with no
    ``Scenario`` per point, decomposed through their path-space cores (the
    phase leaves the channels alone, so they are decomposed once); other
    variables rebuild the scenario and its dense channels at every point.
    A failing point's error is recorded on its row.
    """
    base = spec.base
    if spec.variable is SweepVariable.DISTANCE_AB:
        factors = channel_factors(base)
        size = _block_points(factors)

        def points(distances):
            return _points(factors, [_distance_scales(base, d) for d in distances])
    elif spec.variable is SweepVariable.RIS_PHASE:
        # a failure is not cached: every row then carries the base's own error
        factors = channel_factors(base)
        size = _block_points(factors)
        decomposed = functools.cache(lambda: _points(factors, _UNIT))

        def points(phis):  # each phase folded as RisGeometry folds it
            folded = [dataclasses.replace(base.ris, common_phase=phi).common_phase
                      for phi in phis]
            branches, (count,), (clamped,), noise = decomposed()
            return _tiled(branches, folded), [count] * len(phis), [clamped] * len(phis), noise
    else:
        size, transform = 1, _SCENARIO_TRANSFORMS[spec.variable]

        def points(values):
            # the one dense decomposition left: these variables change the
            # steering, so every point has new factors; cores would serve them
            # once the benchmark bounds the outputs it keeps (ROADMAP item 1)
            scenario = transform(base, values[0])
            branches, clamped = branch_params(decompose(build_channels(scenario)), scenario.ris)
            return branches, [len(branches)], [clamped], noise_model(scenario)
    rows = _rate_blocks(spec.grid, size, points, spec.cases, ris_tap_closed)
    return SweepResult(variable=spec.variable, cases=spec.cases, rows=tuple(
        SweepRow(value, None, str(r)) if isinstance(r, Exception) else SweepRow(value, r)
        for value, r in zip(spec.grid, rows)), scenario_digest=scenario_digest(base))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the pipeline on every grid point of the spec, in grid order."""
    return _sweep(spec)


@dataclass(frozen=True)
class PhaseOptimum:
    phi_star: float
    skr_star: float


def optimal_phase(base: Scenario, case: AncillaCase,
                  resolution: float = math.pi / 256) -> PhaseOptimum:
    """Common phase maximizing the key rate, searched over [0, pi].

    The rate is even and 2*pi-periodic in the phase, so [0, pi] suffices.
    A grid scan at the requested resolution, rated in passes of at most
    ``_BLOCK_ENTRIES`` branches, brackets the maximizer; a golden-section
    refinement follows.  The channel matrices do not depend on the common
    phase, so one decomposition serves every evaluation.
    """
    if not resolution > 0:
        raise ValueError("resolution must be > 0")
    branches, _, _, noise = _points(channel_factors(base), _UNIT)

    def report(phis) -> SkrReport:
        """The branches repeated phase by phase, rated in one pass."""
        return total_skr(case, _tiled(branches, phis), noise)

    def rate(phi: float) -> float:
        return report([phi]).total_skr

    points = max(2, int(math.ceil(math.pi / resolution)) + 1)
    grid = [math.pi * i / (points - 1) for i in range(points)]
    values, step = [], max(1, _BLOCK_ENTRIES // max(1, len(branches)))
    for start in range(0, points, step):
        phis = grid[start:start + step]
        values += ordered_totals(report(phis).rates.skr, [len(branches)] * len(phis))
    # rightmost maximizer: the rate can plateau exactly (clamped Holevo), and
    # the plateau edge next to the falling branch is the meaningful optimum
    best = max(range(points), key=lambda i: (values[i], i))
    lo = grid[max(0, best - 1)]
    hi = grid[min(points - 1, best + 1)]

    # golden-section ascent on the bracketing interval
    tol = 1e-9
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rate(c), rate(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = rate(d)
    phi_star = 0.5 * (a + b)
    skr_star = rate(phi_star)
    if values[best] > skr_star:
        phi_star, skr_star = grid[best], values[best]
    return PhaseOptimum(phi_star=phi_star, skr_star=skr_star)


def _last_crossing(rates, grid, tolerance: float) -> float:
    """Largest point with a positive rate: the grid is rated in one
    ``rates(points)`` call, then the last positive-to-nonpositive crossing is
    bisected to ``tolerance``.  Returns the last grid point if the rate is
    positive there, 0 if it is nowhere positive."""
    values = rates(grid)
    if all(v <= 0.0 for v in values):
        return 0.0
    if values[-1] > 0.0:
        return grid[-1]
    crossings = [i for i in range(len(grid) - 1) if values[i] > 0.0 >= values[i + 1]]
    if not crossings:  # only with a NaN rate on the grid
        return grid[0]
    lo, hi = grid[crossings[-1]], grid[crossings[-1] + 1]
    while (hi - lo) > tolerance:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: no finer split exists
            break
        if rates([mid])[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def max_secure_distance(base: Scenario, case: AncillaCase,
                        tolerance: float = 0.01,
                        d_min: float = 0.5, d_max: float = 200.0,
                        grid_points: int = 64) -> float:
    """Largest distance in [d_min, d_max] with a positive key rate, by a
    ``grid_points`` scan plus bisection; the leg-ratio geometry is applied
    at every probe by rescaling the paths of the base scenario's factors."""
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    if not 0.0 < d_min < d_max < math.inf:
        raise ValueError(f"need 0 < d_min < d_max < inf, got d_min={d_min}, d_max={d_max}")
    if not grid_points >= 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    factors = channel_factors(base)

    def points(distances):
        return _points(factors, [_distance_scales(base, d) for d in distances])

    def rates(distances) -> list[float]:
        rows = _rate_blocks(distances, _block_points(factors), points, (case,))
        for row in rows:
            if isinstance(row, Exception):
                raise row
        return [row[case].total_skr for row in rows]

    grid = [d_min + (d_max - d_min) * i / (grid_points - 1)
            for i in range(grid_points)]
    return _last_crossing(rates, grid, tolerance)


def no_ris_baseline(base: Scenario, distances=None) -> SweepResult:
    """Key rate with the reflected path removed; only the direct-hop storage
    case is meaningful without a RIS."""
    spec = SweepSpec(variable=SweepVariable.DISTANCE_AB,
                     grid=(base.d_alice_bob,) if distances is None else distances,
                     base=base, cases=(AncillaCase.DIRECT,))
    return _sweep(spec, ris_tap_closed=True)
