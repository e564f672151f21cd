"""Parameter sweeps and searches over the full channel-to-key-rate pipeline.

Covers key rate versus distance / RIS size / RIS phase / carrier frequency /
antenna count, the optimal-common-phase search, the maximum secure distance,
and the no-RIS baseline, all through one evaluator that decomposes a scenario
once and rates its branches, optionally at another common phase or with the
RIS-to-receiver tap closed.  Every grid point is a pure function of the
scenario, so results are deterministic.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from dataclasses import dataclass

from .channel import PathSpec, Scenario, build_channels
from .config import GEOMETRY_RATIOS
from .decomposition import branch_params, decompose, make_branch
from .qkd import AncillaCase, NoiseModel, SkrReport, total_skr

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        object.__setattr__(self, "cases", tuple(self.cases))


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


def _evaluator(scenario: Scenario):
    """Run channels -> decomposition -> branches -> noise once for a scenario.

    Returns ``reports(cases, phi=None, ris_tap_closed=False)``, the per-case
    key-rate reports.  ``phi`` replaces the common phase and
    ``ris_tap_closed`` sets beta_f = 0 (the no-RIS equivalent), either by
    rebuilding every branch.  The channels do not depend on the phase, so one
    evaluator serves a whole phase search.
    """
    bundles = decompose(build_channels(scenario))
    branches, clamped = branch_params(bundles, scenario.ris)
    noise = noise_model(scenario)

    def reports(cases, phi: float | None = None,
                ris_tap_closed: bool = False) -> dict[AncillaCase, SkrReport]:
        evaluated = branches
        if phi is not None or ris_tap_closed:
            evaluated = [make_branch(b.beta_d, b.beta_g,
                                     0.0 if ris_tap_closed else b.beta_f,
                                     b.phi if phi is None else phi, b.branch_index)
                         for b in branches]
        return {case: total_skr(case, evaluated, noise, beta_clamp_count=clamped)
                for case in cases}

    return reports


def evaluate_scenario(scenario: Scenario,
                      cases=tuple(AncillaCase)) -> dict[AncillaCase, SkrReport]:
    """Full pipeline: channels -> branch decomposition -> per-case key rate."""
    return _evaluator(scenario)(cases)


def _scaled_paths(paths: tuple[PathSpec, ...], factor: float) -> tuple[PathSpec, ...]:
    """Rescale path lengths (and delays proportionally) by a common factor."""
    out = []
    for p in paths:
        out.append(dataclasses.replace(
            p, path_length=p.path_length * factor, delay=p.delay * factor))
    return tuple(out)


def scenario_at_distance(base: Scenario, d_ab: float) -> Scenario:
    """Move the endpoints apart, keeping the fixed leg ratios and rescaling
    every path proportionally to its channel's leg."""
    if not d_ab > 0:
        raise ValueError("distance must be > 0")
    d_ar, d_rb = GEOMETRY_RATIOS[0] * d_ab, GEOMETRY_RATIOS[1] * d_ab
    return dataclasses.replace(
        base,
        d_alice_bob=d_ab, d_alice_ris=d_ar, d_ris_bob=d_rb,
        multipaths_d=_scaled_paths(base.multipaths_d, d_ab / base.d_alice_bob),
        multipaths_g=_scaled_paths(base.multipaths_g, d_ar / base.d_alice_ris),
        multipaths_f=_scaled_paths(base.multipaths_f, d_rb / base.d_ris_bob))


def scenario_with_phase(base: Scenario, phi: float) -> Scenario:
    return dataclasses.replace(
        base, ris=dataclasses.replace(base.ris, common_phase=phi))


def scenario_with_ris_elements(base: Scenario, k: int) -> Scenario:
    """Square RIS layout; the element count must be a perfect square."""
    k = int(k)
    side = math.isqrt(k)
    if side * side != k or k < 1:
        raise ValueError(f"RIS element count {k} is not a perfect square")
    return dataclasses.replace(
        base, ris=dataclasses.replace(base.ris, k_x=side, k_y=side))


def scenario_with_antennas(base: Scenario, n: int) -> Scenario:
    n = int(n)
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
    SweepVariable.DISTANCE_AB: scenario_at_distance,
    SweepVariable.RIS_PHASE: scenario_with_phase,
    SweepVariable.RIS_ELEMENTS: scenario_with_ris_elements,
    SweepVariable.CARRIER_FREQUENCY: scenario_with_frequency,
    SweepVariable.ANTENNA_COUNT: scenario_with_antennas,
}


def scenario_digest(scenario: Scenario) -> str:
    """Stable hash of the full scenario value."""
    return hashlib.sha256(repr(scenario).encode()).hexdigest()[:16]


def _sweep(base: Scenario, variable: SweepVariable, grid, cases,
           ris_tap_closed: bool = False) -> SweepResult:
    """Evaluate the pipeline on every grid point, in grid order.

    Numeric failures at a point are recorded on its row instead of aborting
    the sweep.
    """
    transform = _SCENARIO_TRANSFORMS[variable]
    rows: list[SweepRow] = []
    for value in map(float, grid):
        try:
            reports = _evaluator(transform(base, value))(
                cases, ris_tap_closed=ris_tap_closed)
            rows.append(SweepRow(value=value, reports=reports))
        except (ValueError, ArithmeticError) as exc:
            rows.append(SweepRow(value=value, reports=None, error=str(exc)))
    return SweepResult(variable=variable, cases=tuple(cases), rows=tuple(rows),
                       scenario_digest=scenario_digest(base))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the pipeline on every grid point of the spec, in grid order."""
    return _sweep(spec.base, spec.variable, spec.grid, spec.cases)


@dataclass(frozen=True)
class PhaseOptimum:
    phi_star: float
    skr_star: float


def optimal_phase(base: Scenario, case: AncillaCase,
                  resolution: float = math.pi / 256) -> PhaseOptimum:
    """Common phase maximizing the key rate, searched over [0, pi].

    The rate is even and 2*pi-periodic in the phase, so [0, pi] suffices.
    A grid scan at the requested resolution brackets the maximizer; a
    golden-section refinement follows.  The channel matrices do not depend
    on the common phase, so the decomposition is reused across evaluations.
    """
    if not resolution > 0:
        raise ValueError("resolution must be > 0")
    reports = _evaluator(base)

    def rate(phi: float) -> float:
        return reports((case,), phi)[case].total_skr

    points = max(2, int(math.ceil(math.pi / resolution)) + 1)
    grid = [math.pi * i / (points - 1) for i in range(points)]
    values = [rate(phi) for phi in grid]
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


def max_secure_distance(base: Scenario, case: AncillaCase,
                        tolerance: float = 0.01,
                        d_min: float = 0.5, d_max: float = 200.0,
                        grid_points: int = 64, skr_fn=None) -> float:
    """Largest distance with a positive key rate, by scan plus bisection.

    The leg-ratio geometry is applied at every probe.  If the rate is still
    positive at ``d_max`` the upper bound is returned; if it is nowhere
    positive, 0 is returned.  When the rate is non-monotone the last
    positive-to-nonpositive grid crossing is refined.  ``skr_fn(d)`` replaces
    the pipeline when given (test hook).
    """
    if skr_fn is None:
        def skr_fn(d: float) -> float:
            scenario = scenario_at_distance(base, d)
            return evaluate_scenario(scenario, (case,))[case].total_skr

    grid = [d_min + (d_max - d_min) * i / (grid_points - 1)
            for i in range(grid_points)]
    values = [skr_fn(d) for d in grid]
    if all(v <= 0.0 for v in values):
        return 0.0
    if values[-1] > 0.0:
        return d_max
    crossing = None
    for i in range(grid_points - 1):
        if values[i] > 0.0 >= values[i + 1]:
            crossing = i
    if crossing is None:  # positive only at the first point edge case
        return grid[0]
    lo, hi = grid[crossing], grid[crossing + 1]
    while (hi - lo) > tolerance:
        mid = 0.5 * (lo + hi)
        if skr_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def no_ris_baseline(base: Scenario, distances=None) -> SweepResult:
    """Key rate with the reflected path removed; only the direct-hop storage
    case is meaningful without a RIS."""
    if distances is None:
        distances = (base.d_alice_bob,)
    return _sweep(base, SweepVariable.DISTANCE_AB, distances,
                  (AncillaCase.DIRECT,), ris_tap_closed=True)
