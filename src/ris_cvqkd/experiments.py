"""Parameter sweeps and searches over the full channel-to-key-rate pipeline.

Covers key rate versus distance / RIS size / RIS phase / carrier frequency /
antenna count, the optimal-common-phase search, the maximum secure distance,
and the no-RIS baseline.  Every driver takes its grid's block size and points
from ``_grid``, which turns a scenario into branches through one step
(channels -> decomposition -> paired branches), and rates them in one batched
pass per case over the branches of a block of points stacked in one set.  The
phase and reach searches are steps of one bracket search, which rates every
point its next steps can ask for in one pass.  Every grid point is a pure
function of the scenario, so results are deterministic.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelFactors, Scenario, build_channels, channel_factors, cores_at,
                      fold_phase)
from .decomposition import branch_params, branch_set, decompose, pair_points, singular_values
from .qkd import AncillaCase, NoiseModel, SkrReport, total_skr

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# core entries of one channel's stack per block: 8 points of 32 x 32 cores;
# 100-point blocks raised a rich sweep's peak memory by 14%
_BLOCK_ENTRIES = 8_192
# levels of brackets a search rates ahead per pass (``_bracket_search``),
# measured on the default line-of-sight scenario: 4 golden-section levels,
# 15 new phases; 5 bisection levels, 31 distances (a 9-level, 511-point
# bisection was slower than 5 levels)
_GOLDEN_STEPS = 4
_BISECTION_STEPS = 5
_UNIT = [1.0]  # the scale of a scenario's own geometry
_FINEST_RESOLUTION = math.pi / 2**16  # 65537 scan phases; the golden ascent ends at 1e-9 rad


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
    """The paired branches of the factors' channels at each scale,
    joined in order, with each point's branch count and clamp count and the
    noise model.  Each channel's singular values come from its path-space
    cores, one stack per channel and block, and the block is paired at once."""
    return (*pair_points([singular_values(stack) for stack in cores_at(factors, scales)],
                         factors.scenario.ris.common_phase),
            noise_model(factors.scenario))


def evaluate_scenario(scenario: Scenario,
                      cases=tuple(AncillaCase)) -> dict[AncillaCase, SkrReport]:
    """Full pipeline: channels -> branch decomposition -> per-case key rate."""
    return _block_reports(functools.partial(_points, channel_factors(scenario)), cases, _UNIT)[0]


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


def _rate_blocks(values, size: int, rate) -> list:
    """Per-point results of a grid, ``size`` points at a time, where
    ``rate(block)`` gives a block's results in order.  A block that raises
    is rated again point by point; a failing point gives its exception."""
    out = []
    for start in range(0, len(values), size):
        block = values[start:start + size]
        try:
            out += rate(block)
        except (ValueError, ArithmeticError) as exc:
            out += [exc] if len(block) == 1 else _rate_blocks(block, 1, rate)
    return out


def _block_reports(points, cases, block) -> list:
    """Each point's report per case: ``points(block)`` gives the block's
    joined branches, their counts and clamp counts per point and the noise
    model, and each case is rated once over the block."""
    branches, counts, clamps, noise = points(block)
    reports = {case: total_skr(case, branches, noise).split(counts, clamps) for case in cases}
    return [{case: reports[case][i] for case in cases} for i in range(len(counts))]


def _case_totals(case: AncillaCase, size: int, points):
    """``totals(values)``: per-point totals of one case over values of a
    ``_grid``'s ``(size, points)``, by ``SkrReport.totals`` of each block as
    the sweeps rate it; a failing point gives its exception."""
    def rate(block):
        branches, counts, _, noise = points(block)
        return total_skr(case, branches, noise).totals(counts)

    return lambda values: _rate_blocks(values, size, rate)


def _checked(outcomes: list) -> list:
    """The outcomes of a grid, or the first failing point's exception raised."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _grid(base: Scenario, variable: SweepVariable):
    """``(size, points)`` of a grid over ``variable``, the one definition of
    both: every driver rates ``size`` values at a time, and ``points(block)``
    gives the ``_points`` of a block.  A distance d scales every path of the
    base's factors by d / d_ab, and a block keeps the stack of the largest
    core within ``_BLOCK_ENTRIES`` entries.  The phase leaves the channels
    alone: the base is rated once, and every block repeats its branches per
    folded phase (or raises its failure); a block holds at most
    ``_BLOCK_ENTRIES`` branches, per phase the smallest core dimension of the
    three channels.  Other variables rebuild the scenario per point."""
    if variable is SweepVariable.DISTANCE_AB:
        factors = channel_factors(base)

        def distance_points(distances):
            if not all(d > 0 for d in distances):
                raise ValueError("distance must be > 0")
            return _points(factors, [d / base.d_alice_bob for d in distances])
        largest = max(len(r_arrival) * len(r_departure)
                      for *_, r_arrival, r_departure in factors.channels)
        return max(1, _BLOCK_ENTRIES // max(1, largest)), distance_points
    if variable is SweepVariable.RIS_PHASE:
        factors = channel_factors(base)
        decomposed = _rate_blocks(_UNIT, 1, lambda unit: [_points(factors, unit)])[0]
        origin = getattr(decomposed, "__traceback__", None)  # kept from growing per raise

        def phase_points(phis):
            if isinstance(decomposed, Exception):
                raise decomposed.with_traceback(origin)
            branches, (count,), (clamped,), noise = decomposed
            phis = [fold_phase(phi) for phi in phis]
            return (branch_set(np.tile(branches.betas, (len(phis), 1)),
                               np.repeat(phis, len(branches))),
                    [count] * len(phis), [clamped] * len(phis), noise)
        per_phase = min(min(len(r_arrival), len(r_departure))
                        for *_, r_arrival, r_departure in factors.channels)
        return max(1, _BLOCK_ENTRIES // max(1, per_phase)), phase_points
    transform = _SCENARIO_TRANSFORMS[variable]

    def points(values):
        # the one dense decomposition left: these variables change the
        # steering, so every point has new factors; cores would serve them
        # once the benchmark bounds the outputs it keeps (ROADMAP item 1)
        scenario = transform(base, values[0])
        branches, clamped = branch_params(decompose(build_channels(scenario)), scenario.ris)
        return branches, [len(branches)], [clamped], noise_model(scenario)
    return 1, points


def _sweep(spec: SweepSpec, size: int, points) -> SweepResult:
    """Rate every grid point of the spec through ``(size, points)`` of a
    ``_grid``, in grid order; a failing point's error is recorded on its row."""
    rows = _rate_blocks(spec.grid, size, functools.partial(_block_reports, points, spec.cases))
    return SweepResult(variable=spec.variable, cases=spec.cases, rows=tuple(
        SweepRow(value, None, str(r)) if isinstance(r, Exception) else SweepRow(value, r)
        for value, r in zip(spec.grid, rows)), scenario_digest=scenario_digest(spec.base))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the pipeline on every grid point of the spec, in grid order."""
    return _sweep(spec, *_grid(spec.base, spec.variable))


@dataclass(frozen=True)
class PhaseOptimum:
    phi_star: float
    skr_star: float


def optimal_phase(base: Scenario, case: AncillaCase,
                  resolution: float = math.pi / 256) -> PhaseOptimum:
    """Common phase maximizing the key rate, searched over [0, pi].

    The rate is even and 2*pi-periodic in the phase, so [0, pi] suffices.
    A grid scan at the requested resolution brackets the maximizer, and a
    golden-section ascent (``_golden_ascent``) refines it.  Every pass holds
    at most ``_BLOCK_ENTRIES`` branches.  The channel matrices do not depend
    on the common phase, so one decomposition serves every evaluation.
    """
    if not resolution > 0:
        raise ValueError("resolution must be > 0")
    if resolution < _FINEST_RESOLUTION:
        raise ValueError(f"resolution must be >= pi / 2**16 = {_FINEST_RESOLUTION:.6g} "
                         f"(at most 65537 scan phases), got {resolution!r}")
    totals = _case_totals(case, *_grid(base, SweepVariable.RIS_PHASE))
    points = max(2, int(math.ceil(math.pi / resolution)) + 1)
    grid = [math.pi * i / (points - 1) for i in range(points)]
    values = _checked(totals(grid))
    # rightmost maximizer: the rate can plateau exactly (clamped Holevo), and
    # the plateau edge next to the falling branch is the meaningful optimum
    best = max(range(points), key=lambda i: (values[i], i))
    phi_star, skr_star = _golden_ascent(totals, grid[max(0, best - 1)],
                                        grid[min(points - 1, best + 1)])
    if values[best] > skr_star:
        phi_star, skr_star = grid[best], values[best]
    return PhaseOptimum(phi_star=phi_star, skr_star=skr_star)


def _bracket_search(outcomes_of, bracket, step, above, steps: int):
    """The bracket where ``step`` stops, searched from ``bracket``, and the
    values its last step read.  ``step(bracket)`` gives the points a step
    reads and the bracket after each outcome, "above" first, or None where
    the search stops; ``above(values)`` picks one.  A step with an unrated
    point rates every point of the brackets of the next ``steps`` levels,
    under both outcomes, in one ``outcomes_of(points)`` call, and keeps each
    outcome, a value or the point's exception; an exception is raised only
    when its point is read, in the order a step reads its points."""
    outcomes = {}
    while True:
        points, children = step(bracket)
        if any(x not in outcomes for x in points):
            ahead, level = [], [bracket]
            for _ in range(steps):
                stepped = [step(b) for b in level]
                ahead += [x for reads, _ in stepped for x in reads]
                level = [child for _, after in stepped for child in after or ()]
            fresh = [x for x in dict.fromkeys(ahead) if x not in outcomes]
            outcomes.update(zip(fresh, outcomes_of(fresh)))
        values = _checked([outcomes[x] for x in points])
        if children is None:
            return bracket, values
        bracket = children[0 if above(values) else 1]


def _golden_step(bracket):
    """A golden-section step on [a, b] with interior points c < d: it reads
    c and d and keeps [a, d] if c rates above d, else [c, b], each with its
    one new interior point.  At width 1e-9 it also reads the midpoint and
    stops."""
    a, b, c, d = bracket
    if not (b - a) > 1e-9:
        return [c, d, 0.5 * (a + b)], None
    return [c, d], ((a, d, d - _GOLDEN * (d - a), c), (c, b, d, c + _GOLDEN * (b - c)))


def _golden_ascent(outcomes, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section ascent on [lo, hi]: the closing midpoint and its rate,
    with ``outcomes(points)`` giving each point's rate or its exception."""
    (a, b, _, _), (*_, rate) = _bracket_search(
        outcomes, (lo, hi, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)),
        _golden_step, lambda values: values[0] > values[1], _GOLDEN_STEPS)
    return 0.5 * (a + b), rate


def _bisection_step(tolerance: float, bracket):
    """A bisection step on [lo, hi]: it reads the midpoint and keeps the
    upper half if the rate there is positive, else the lower.  It stops
    within ``tolerance``, or at adjacent floats, where no finer split
    exists."""
    lo, hi = bracket
    mid = 0.5 * (lo + hi)
    if not ((hi - lo) > tolerance and lo < mid < hi):
        return [], None
    return [mid], ((mid, hi), (lo, mid))


def _last_crossing(outcomes, grid, tolerance: float) -> float:
    """Largest point with a positive rate: ``outcomes(points)`` gives each
    point's rate, or its exception.  The grid is rated in one call (a failing
    point raises), then the last positive-to-nonpositive crossing is bisected
    to ``tolerance``.  Returns the last grid point if the rate is positive
    there, 0 if it is nowhere positive."""
    values = _checked(outcomes(grid))
    if all(v <= 0.0 for v in values):
        return 0.0
    if values[-1] > 0.0:
        return grid[-1]
    crossings = [i for i in range(len(grid) - 1) if values[i] > 0.0 >= values[i + 1]]
    if not crossings:  # only with a NaN rate on the grid
        return grid[0]
    (lo, hi), _ = _bracket_search(
        outcomes, (grid[crossings[-1]], grid[crossings[-1] + 1]),
        functools.partial(_bisection_step, tolerance), lambda values: values[0] > 0.0,
        _BISECTION_STEPS)
    return 0.5 * (lo + hi)


def max_secure_distance(base: Scenario, case: AncillaCase,
                        tolerance: float = 0.01,
                        d_min: float = 0.5, d_max: float = 200.0,
                        grid_points: int = 64) -> float:
    """Largest distance in [d_min, d_max] with a positive key rate, by a
    ``grid_points`` scan plus bisection; every probe rescales the paths of
    the base scenario's factors, so each leg keeps its ratio to the distance."""
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    if not 0.0 < d_min < d_max < math.inf:
        raise ValueError(f"need 0 < d_min < d_max < inf, got d_min={d_min}, d_max={d_max}")
    if not 2 <= grid_points < math.inf:
        raise ValueError(f"grid_points must be finite and >= 2, got {grid_points}")
    grid_points = _whole(grid_points, "grid_points")
    grid = [d_min + (d_max - d_min) * i / (grid_points - 1)
            for i in range(grid_points)]
    return _last_crossing(_case_totals(case, *_grid(base, SweepVariable.DISTANCE_AB)), grid,
                          tolerance)


def no_ris_baseline(base: Scenario, distances=None) -> SweepResult:
    """Key rate with the reflected path removed: the distance grid's points
    with beta_f = 0 (the RIS-to-receiver tap closed).  Only the direct-hop
    storage case is meaningful without a RIS."""
    spec = SweepSpec(variable=SweepVariable.DISTANCE_AB,
                     grid=(base.d_alice_bob,) if distances is None else distances,
                     base=base, cases=(AncillaCase.DIRECT,))
    size, points = _grid(base, spec.variable)

    def tap_closed(distances):
        branches, *rest = points(distances)
        return (branch_set(branches.betas * [1.0, 1.0, 0.0], branches.phi), *rest)

    return _sweep(spec, size, tap_closed)
