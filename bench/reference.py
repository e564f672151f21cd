"""Computations made apart from the simulator, used to check its outputs.

The channel matrices are rebuilt from the documented sum over paths, the
line-of-sight transmissivity from the link budget, Bob's variances and the
bosonic entropy from their textbook formulas.  The simulator is used only
for its independent verification path (``oracle.joint_cov``,
``oracle.conditional_cov_oracle`` and ``oracle.numeric_symplectic_eigs``)
and for its plain record types.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ris_cvqkd import oracle
from ris_cvqkd.decomposition import BranchParams
from ris_cvqkd.qkd import AncillaCase, NoiseModel

SPEED_OF_LIGHT = 299_792_458.0
PLANCK = 6.62607015e-34
BOLTZMANN = 1.380649e-23
RANK_CUTOFF = 1e-12  # documented rank rule: sigma > 1e-12 * sigma_max
LEG_RATIOS = (1.0, 0.4, 0.7)  # d, g, f legs as fractions of d_ab

# One evaluation of u*log2(u) - w*log2(w) at u, w near v_a/2 ~ 500 rounds by
# at most 2**-40 absolute (ulp of the ~4.5e3 terms).  A branch rate has four
# entropy terms; the simulator and this reference each carry that error.
ENTROPY_ROUNDING = 2.0 ** -40
BRANCH_ABS_TOL = 2 * 4 * ENTROPY_ROUNDING
CSV_REL_TOL = 5e-12  # half a unit in the 12th significant digit


def noise(scenario) -> NoiseModel:
    """Shot-noise-unit variances from the Planck occupation."""
    x = PLANCK * scenario.carrier_frequency / (BOLTZMANN * scenario.temperature)
    n_bar = 0.0 if x > 700.0 else 1.0 / math.expm1(x)
    return NoiseModel(n_bar=n_bar, v_o=2.0 * n_bar + 1.0,
                      v_s=scenario.modulation_variance,
                      v_e=scenario.eve_variance)


def endpoint_gains(scenario) -> dict[str, tuple[float, float]]:
    """Array gains at both ends of each channel; the RIS counts its
    element count as gain."""
    g_a = 10.0 ** (0.1 * scenario.tx.gain_per_element_dbi)
    g_tx = scenario.tx.element_count * g_a
    g_rx = scenario.rx.element_count * g_a
    k = float(scenario.ris.element_count)
    return {"d": (g_tx, g_rx), "g": (g_tx, k), "f": (k, g_rx)}


def link_budget(scenario, channel: str, length: float) -> float:
    """(lambda / 4 pi d)^2 * G_tx * G_rx * 10^(-rho d / 1e4)."""
    lam = SPEED_OF_LIGHT / scenario.carrier_frequency
    g_tx, g_rx = endpoint_gains(scenario)[channel]
    return ((lam / (4.0 * math.pi * length)) ** 2 * g_tx * g_rx
            * 10.0 ** (-scenario.absorption_db_per_km * length / 1e4))


def los_betas(scenario, d_ab: float) -> tuple[float, float, float]:
    """Transmissivities of the single branch of a line-of-sight-only link."""
    return tuple(link_budget(scenario, ch, ratio * d_ab)
                 for ch, ratio in zip("dgf", LEG_RATIOS))


def _ula(n: int, spacing: float, lam: float, theta: np.ndarray) -> np.ndarray:
    """Columns: unit-norm ULA responses for each angle in ``theta``."""
    p = np.arange(n)[:, None]
    return np.exp(2j * np.pi * spacing * p * np.sin(theta)[None, :] / lam) / math.sqrt(n)


def _ris(ris, lam: float, elevation: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Columns: unit-norm RIS responses, grid flattened row-major."""
    p = np.repeat(np.arange(ris.k_x), ris.k_y)[:, None]
    q = np.tile(np.arange(ris.k_y), ris.k_x)[:, None]
    v_x = ris.spacing_x * np.cos(elevation) * np.sin(theta)
    v_y = ris.spacing_y * np.sin(elevation) * np.sin(theta)
    phases = 2.0 * np.pi / lam * (p * v_x[None, :] + q * v_y[None, :])
    return np.exp(1j * phases) / math.sqrt(ris.element_count)


def channel_matrices(base, d_ab: float) -> dict[str, np.ndarray]:
    """H = A_rx diag(g) A_tx^H for each channel of ``base`` moved to d_ab.

    Every path length (and its delay) scales with its channel's leg; a path
    gain is the square root of its link budget, times roughness and Fresnel
    coefficient off line of sight, times exp(j 2 pi f_c delay).
    """
    lam = SPEED_OF_LIGHT / base.carrier_frequency
    legs = {"d": base.d_alice_bob, "g": base.d_alice_ris, "f": base.d_ris_bob}
    paths = {"d": base.multipaths_d, "g": base.multipaths_g, "f": base.multipaths_f}
    out = {}
    for ch, ratio in zip("dgf", LEG_RATIOS):
        scale = ratio * d_ab / legs[ch]
        ps = paths[ch]
        length = np.array([p.path_length for p in ps]) * scale
        delay = np.array([p.delay for p in ps]) * scale
        aod = np.array([p.aod for p in ps])
        aoa = np.array([p.aoa for p in ps])
        elev = np.array([p.elevation for p in ps])
        power = np.array([link_budget(base, ch, float(x)) for x in length])
        off_los = np.array([not p.is_los for p in ps])
        fresnel = np.array([p.fresnel_coeff for p in ps])
        power = np.where(off_los, power * base.roughness * fresnel, power)
        gain = np.sqrt(power) * np.exp(2j * np.pi * base.carrier_frequency * delay)
        if ch == "d":
            rx = _ula(base.rx.element_count, base.rx.element_spacing, lam, aoa)
            tx = _ula(base.tx.element_count, base.tx.element_spacing, lam, aod)
        elif ch == "g":
            rx = _ris(base.ris, lam, elev, aoa)
            tx = _ula(base.tx.element_count, base.tx.element_spacing, lam, aod)
        else:
            rx = _ula(base.rx.element_count, base.rx.element_spacing, lam, aoa)
            tx = _ris(base.ris, lam, elev, aod)
        out[ch] = (rx * gain[None, :]) @ tx.conj().T
    return out


def paired_betas(matrices: dict[str, np.ndarray]) -> list[tuple[float, float, float]]:
    """Squared singular values paired by rank order, clamped at 1."""
    per_channel = []
    for ch in "dgf":
        sv = np.linalg.svd(matrices[ch], compute_uv=False)
        rank = int(np.count_nonzero(sv > RANK_CUTOFF * sv[0])) if sv[0] > 0 else 0
        per_channel.append(np.minimum(sv[:rank] ** 2, 1.0))
    r = min(len(b) for b in per_channel)
    return [tuple(float(b[i]) for b in per_channel) for i in range(r)]


def branch(beta_d: float, beta_g: float, beta_f: float, phi: float) -> BranchParams:
    """Branch record with the paper's reflected-path coefficients."""
    rot = cmath.exp(1j * phi)
    return BranchParams(
        beta_d=beta_d, beta_g=beta_g, beta_f=beta_f, phi=phi,
        alpha=math.sqrt(beta_g * beta_f) * rot,
        gamma=math.sqrt(1.0 - beta_f) + math.sqrt(beta_f * (1.0 - beta_g)) * rot,
        beta_f_tilde=math.sqrt(beta_f) - math.sqrt((1.0 - beta_g) * (1.0 - beta_f)) * rot)


def entropy(lam: float) -> float:
    """Bosonic entropy of one symplectic eigenvalue; vacuum or below is 0."""
    if lam <= 1.0:
        return 0.0
    u, w = 0.5 * (lam + 1.0), 0.5 * (lam - 1.0)
    return u * math.log2(u) - w * math.log2(w)


def mutual_info(b: BranchParams, n: NoiseModel) -> tuple[float, float]:
    """I_AB of the direct and the reflected path from Bob's homodyne
    variances, unconditioned over conditioned on the sent quadrature."""
    a2, g2 = abs(b.alpha) ** 2, abs(b.gamma) ** 2
    direct = ((b.beta_d * n.v_a + (1.0 - b.beta_d) * n.v_e)
              / (b.beta_d * n.v_o + (1.0 - b.beta_d) * n.v_e))
    ris = (a2 * n.v_a + g2 * n.v_e) / (a2 * n.v_o + g2 * n.v_e)
    return 0.5 * math.log2(direct), 0.5 * math.log2(ris)


def holevo(case: AncillaCase, b: BranchParams, n: NoiseModel) -> float:
    """S(stored pair) - S(stored pair | Bob's quadrature), oracle covariances."""
    stored = oracle.joint_cov(case, b, n)[2:, 2:]
    conditioned = oracle.conditional_cov_oracle(case, b, n)
    l1, l2 = oracle.numeric_symplectic_eigs(stored)
    l3, l4 = oracle.numeric_symplectic_eigs(conditioned)
    return entropy(l1) + entropy(l2) - entropy(l3) - entropy(l4)


def rate(case: AncillaCase, branches, n: NoiseModel) -> tuple[float, float]:
    """(key rate, Holevo total) summed over branches in order."""
    skr = chi = 0.0
    for b in branches:
        h = holevo(case, b, n)
        skr += sum(mutual_info(b, n)) - h
        chi += h
    return skr, chi


def agrees(value: float, ref: float, branches: int, rel: float = 0.0) -> bool:
    """Equal up to ``rel`` relative rounding plus the entropy rounding of
    both sides on every branch."""
    return abs(value - ref) <= rel * abs(ref) + branches * BRANCH_ABS_TOL
