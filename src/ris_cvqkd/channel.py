"""THz MIMO channel construction for a RIS-assisted link with a direct path.

Builds the three complex channel matrices (direct, transmitter-to-RIS,
RIS-to-receiver) from array geometry, per-path specifications and a
free-space-plus-absorption link budget.  All functions are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array at one end of the link."""

    element_count: int
    element_spacing: float  # meters
    gain_per_element_dbi: float

    def __post_init__(self):
        if not _is_size(self.element_count):
            raise ValueError("element_count must be a whole number >= 1")
        if not 0 < self.element_spacing < math.inf:
            raise ValueError("element_spacing must be finite and > 0")
        if not 0 < self.gain_linear < math.inf:
            raise ValueError("gain_per_element_dbi must give a linear gain that is finite and > 0")

    @property
    def gain_linear(self) -> float:
        return linear_gain(self.gain_per_element_dbi)


def _is_size(n) -> bool:
    """Whether ``n`` is a whole number of elements, at least 1."""
    return isinstance(n, numbers.Integral) and n >= 1


def linear_gain(dbi: float) -> float:
    """10 ** (dBi / 10); infinite where Python's ** overflows."""
    try:
        return 10.0 ** (0.1 * dbi)
    except OverflowError:
        return math.inf


def fold_phase(phi: float) -> float:
    """A finite common phase folded into [0, 2*pi)."""
    if not math.isfinite(phi):
        raise ValueError("common_phase must be finite")
    return phi % (2.0 * math.pi)


@dataclass(frozen=True)
class RisGeometry:
    """Rectangular grid of passive reflecting elements with one shared phase."""

    k_x: int
    k_y: int
    spacing_x: float  # meters
    spacing_y: float  # meters
    common_phase: float  # radians, folded into [0, 2*pi)

    def __post_init__(self):
        if not (_is_size(self.k_x) and _is_size(self.k_y)):
            raise ValueError("RIS grid dimensions must be whole numbers >= 1")
        if not (0 < self.spacing_x < math.inf and 0 < self.spacing_y < math.inf):
            raise ValueError("RIS element spacings must be finite and > 0")
        object.__setattr__(self, "common_phase", fold_phase(self.common_phase))

    @property
    def element_count(self) -> int:
        return self.k_x * self.k_y


@dataclass(frozen=True)
class PathSpec:
    """One propagation path of a channel.

    ``aod``/``aoa`` are the departure/arrival angles seen by whichever
    arrays terminate the channel (the RIS acts as the arrival side of the
    transmitter-to-RIS hop and as the departure side of the RIS-to-receiver
    hop).  ``elevation`` is the RIS elevation angle used by its response
    vector; it is ignored by channels that do not touch the RIS.
    """

    path_length: float  # meters
    aod: float  # radians
    aoa: float  # radians
    elevation: float = 0.0  # radians
    delay: float | None = None  # seconds; defaults to path_length / c
    fresnel_coeff: float = 0.5  # dimensionless, in [0, 1]
    is_los: bool = False

    def __post_init__(self):
        if not 0 < self.path_length < math.inf:
            raise ValueError("path_length must be finite and > 0")
        if not 0.0 <= self.fresnel_coeff <= 1.0:
            raise ValueError("fresnel_coeff must lie in [0, 1]")
        for name in ("aod", "aoa", "elevation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.delay is None:
            object.__setattr__(self, "delay", self.path_length / SPEED_OF_LIGHT)


def line_of_sight_path(length: float, aod: float = 0.0, aoa: float = 0.0,
                       elevation: float = 0.0) -> PathSpec:
    """Boresight-by-default LoS path with free-space delay."""
    return PathSpec(path_length=length, aod=aod, aoa=aoa, elevation=elevation,
                    is_los=True)


@dataclass(frozen=True)
class Scenario:
    """Full physical configuration of the link."""

    tx: ArrayGeometry
    rx: ArrayGeometry
    ris: RisGeometry
    carrier_frequency: float  # Hz
    absorption_db_per_km: float
    roughness: float  # Rayleigh roughness factor for non-LoS paths
    temperature: float  # kelvin
    modulation_variance: float  # shot-noise units
    eve_variance: float  # shot-noise units
    d_alice_bob: float = field(init=False)  # meters; a leg is its channel's first path
    d_alice_ris: float = field(init=False)
    d_ris_bob: float = field(init=False)
    multipaths_d: tuple[PathSpec, ...]
    multipaths_g: tuple[PathSpec, ...]
    multipaths_f: tuple[PathSpec, ...]

    def __post_init__(self):
        for name in ("carrier_frequency", "temperature", "modulation_variance"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 1.0 <= self.eve_variance < math.inf:
            raise ValueError("eve_variance must be finite and >= 1 (shot-noise units)")
        for name in ("roughness", "absorption_db_per_km"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for leg, name in zip(("d_alice_bob", "d_alice_ris", "d_ris_bob"), "dgf"):
            paths = tuple(getattr(self, f"multipaths_{name}"))
            if not paths:
                raise ValueError(f"multipaths_{name} must contain at least one path")
            object.__setattr__(self, f"multipaths_{name}", paths)
            object.__setattr__(self, leg, paths[0].path_length)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency


@dataclass(frozen=True)
class ChannelTriple:
    """The three complex channel matrices of the link."""

    h_d: np.ndarray  # N_RX x N_TX
    h_g: np.ndarray  # K x N_TX
    h_f: np.ndarray  # N_RX x K

    def __post_init__(self):
        for name in ("h_d", "h_g", "h_f"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, m)


def array_response(n: int, theta, spacing: float, wavelength: float) -> np.ndarray:
    """Unit-norm ULA response vectors, one row per angle.

    Entry p (0-based) is exp(j * 2*pi * spacing * p * sin(theta) / wavelength)
    scaled by 1/sqrt(n).  A scalar ``theta`` gives the (n,) vector; a
    sequence of L angles gives an (L, n) array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not wavelength > 0:
        raise ValueError("wavelength must be > 0")
    if not (np.isfinite(theta).all() and math.isfinite(spacing)):
        raise ValueError("theta and spacing must be finite")
    phase_step = 2.0 * math.pi * spacing * np.sin(theta) / wavelength
    phases = np.multiply.outer(phase_step, np.arange(n))
    return np.exp(1j * phases) / math.sqrt(n)


def ris_response(ris: RisGeometry, elevation, theta,
                 wavelength: float) -> np.ndarray:
    """Unit-norm response vectors of the RIS grid, flattened row-major.

    The element at grid index (p, q) carries phase
    (2*pi/wavelength) * (p * v_x + q * v_y) with
    v_x = spacing_x * cos(elevation) * sin(theta) and
    v_y = spacing_y * sin(elevation) * sin(theta); indices start at (0, 0).
    Scalar angles give the (K,) vector, sequences of L angles an (L, K) array.
    """
    if not wavelength > 0:
        raise ValueError("wavelength must be > 0")
    if not (np.isfinite(theta).all() and np.isfinite(elevation).all()):
        raise ValueError("angles must be finite")
    v_x = (ris.spacing_x * np.cos(elevation) * np.sin(theta))[..., None, None]
    v_y = (ris.spacing_y * np.sin(elevation) * np.sin(theta))[..., None, None]
    scale = 2.0 * math.pi / wavelength
    p = np.arange(ris.k_x)[:, None]
    q = np.arange(ris.k_y)[None, :]
    phases = scale * (p * v_x + q * v_y)
    k = ris.element_count
    return (np.exp(1j * phases) / math.sqrt(k)).reshape(phases.shape[:-2] + (k,))


def _path_losses(paths: tuple[PathSpec, ...], scenario: Scenario,
                 endpoint_gains: tuple[float, float], lengths: np.ndarray) -> np.ndarray:
    """Power path losses of ``paths`` at the (L, P) ``lengths``, one row per
    path: the link budget of ``oracle.path_loss``, its products in its order,
    with ``np.float_power`` for Python's ``**`` (both call libm ``pow``;
    ``np.power`` rounds differently)."""
    g_tx, g_rx = endpoint_gains
    nlos = [1.0 if p.is_los else scenario.roughness * p.fresnel_coeff for p in paths]
    # d below about 1.8e-160 m at 10 THz overflows (NaN at a zero factor): reported by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        spreading = np.float_power(scenario.wavelength / (4.0 * math.pi * lengths), 2.0)
        absorption = np.float_power(10.0, -0.1 * scenario.absorption_db_per_km
                                    * (lengths / 1000.0))
        return spreading * g_tx * g_rx * absorption * np.array(nlos)[:, None]


@dataclass(frozen=True)
class ChannelFactors:
    """What a distance change leaves alone: for the direct, transmitter-to-RIS
    and RIS-to-receiver channel in turn, its base paths, its endpoint gains,
    its arrival rows and its conjugated departure rows (one row per path),
    and the R factors of reduced QRs of the transposes of those rows;
    ``scenario`` supplies the link budget."""

    scenario: Scenario
    channels: tuple[tuple[tuple[PathSpec, ...], tuple[float, float], np.ndarray,
                          np.ndarray, np.ndarray, np.ndarray], ...]


def channel_factors(scenario: Scenario) -> ChannelFactors:
    """The steering rows of every path, one ``np.exp`` over paths x elements
    per array side, and their R factors.  The RIS side's endpoint gain is its
    element count."""
    lam = scenario.wavelength
    tx, rx, ris = scenario.tx, scenario.rx, scenario.ris
    n_tx, n_rx = tx.element_count, rx.element_count
    g_tx, g_rx, k = n_tx * tx.gain_linear, n_rx * rx.gain_linear, float(ris.element_count)
    d, g, f = scenario.multipaths_d, scenario.multipaths_g, scenario.multipaths_f
    rows = (
        (d, (g_tx, g_rx), array_response(n_rx, [p.aoa for p in d], rx.element_spacing, lam),
         array_response(n_tx, [p.aod for p in d], tx.element_spacing, lam).conj()),
        (g, (g_tx, k), ris_response(ris, [p.elevation for p in g], [p.aoa for p in g], lam),
         array_response(n_tx, [p.aod for p in g], tx.element_spacing, lam).conj()),
        (f, (k, g_rx), array_response(n_rx, [p.aoa for p in f], rx.element_spacing, lam),
         ris_response(ris, [p.elevation for p in f], [p.aod for p in f], lam).conj()),
    )
    return ChannelFactors(scenario, tuple(
        (paths, gains, arrival, departure, np.linalg.qr(arrival.T, mode="r"),
         np.linalg.qr(departure.T, mode="r")) for paths, gains, arrival, departure in rows))


def _path_gains(factors: ChannelFactors, scales) -> list[np.ndarray]:
    """Each channel's (L, P) complex path gains sqrt(path loss) *
    exp(j*2*pi*f_c*delay) at the P scales in ``scales``; at scale j, every
    path length and delay of every channel is scaled by ``scales[j]``.
    Every length, phase and amplitude is checked before a gain is formed."""
    scenario = factors.scenario
    turn = 2.0 * math.pi * scenario.carrier_frequency
    channel_paths = [paths for paths, *_ in factors.channels]
    with np.errstate(over="ignore"):  # reported by the checks below
        # (L, P) per channel: the same products as point by point
        lengths = [np.multiply.outer([p.path_length for p in ps], scales) for ps in channel_paths]
        delays = [np.multiply.outer([p.delay for p in ps], scales) for ps in channel_paths]
        phases = [turn * delay for delay in delays]
    for length in lengths:
        if not ((length > 0) & (length < math.inf)).all():
            raise ValueError("path_length must be finite and > 0")
    for delay, phase in zip(delays, phases):
        if not np.isfinite(phase).all():
            raise ValueError(f"path phase overflows at delay {delay[~np.isfinite(phase)][0]:g} s")
    amplitudes = [np.sqrt(_path_losses(paths, scenario, gains, length))
                  for (paths, gains, *_), length in zip(factors.channels, lengths)]
    for name, amplitude in zip("dgf", amplitudes):
        if not np.isfinite(amplitude).all():  # an overflowing path loss
            raise ValueError(f"h_{name} contains non-finite entries")
    return [amplitude * np.exp(1j * phase) for amplitude, phase in zip(amplitudes, phases)]


def cores_at(factors: ChannelFactors, scales) -> list[np.ndarray]:
    """The path-space cores of the direct, transmitter-to-RIS and
    RIS-to-receiver channels at the P scales in ``scales`` (as for
    ``_path_gains``), each a (P, min(n, L), min(m, L)) stack.

    With arrival rows A, conjugated departure rows B and path gains c, a
    channel is H = A^T diag(c) B.  The reduced QRs A^T = Q_a R_a and
    B^T = Q_b R_b have orthonormal columns, so H has the nonzero singular
    values of its core R_a diag(c) R_b^T.
    """
    cores = []
    for name, c, (*_, r_arrival, r_departure) in zip("dgf", _path_gains(factors, scales),
                                                       factors.channels):
        core = (r_arrival * c.T[:, None, :]) @ r_departure.T
        if not np.isfinite(core).all():
            raise ValueError(f"h_{name} contains non-finite entries")
        cores.append(core)
    return cores


def _summed(gains, arrival: np.ndarray, departure: np.ndarray) -> np.ndarray:
    h = np.zeros((arrival.shape[1], departure.shape[1]), dtype=complex)
    term = np.empty_like(h)  # freed on return, before the next channel's matrix
    for c_l, a_l, b_l in zip(gains, arrival[:, :, None], departure):
        h += np.multiply(c_l, a_l * b_l, out=term)
    return h


def build_channels(scenario: Scenario) -> ChannelTriple:
    """Assemble the three channel matrices as sums over their paths: each
    path adds its gain times the outer product of its arrival row and
    conjugated departure row, in path order (a single matmul over paths
    would round differently)."""
    factors = channel_factors(scenario)
    gains = _path_gains(factors, [1.0])
    return ChannelTriple(*(_summed(c[:, 0], arrival, departure)
                           for c, (_, _, arrival, departure, *_) in zip(gains, factors.channels)))
