"""Gaussian-state statistics and secret key rate of the parallel branches.

Per branch, the eavesdropper mixes one half of an EPR pair into each of the
three wireless hops via beamsplitters and keeps the output of exactly one hop
together with the other EPR half (restricted quantum memory).  This module
evaluates homodyne variances, the covariance of the kept pair (``PairCov``),
its symplectic eigenvalues before and after Bob's x-quadrature homodyne, which
rewrites only the x entries of the pair (Weedbrook et al., Rev. Mod. Phys. 84,
621 (2012)), and the resulting reverse-reconciliation key rate.

Two attack models are available, selected by the ``model`` keyword:

- ``AttackModel.PAPER`` (default) is the source paper's model: one probe mode
  enters every beamsplitter of the branch.  On the reflected path the same
  probe feeds the transmitter-to-RIS and the RIS-to-receiver beamsplitters, so
  Bob's reflected mode does not commute with Eve's stored output (for the
  transmitter-to-RIS case |[B, e_g^dagger]| = sqrt(beta_g (1 - beta_f))).  The
  RIS-side maps are then not symplectic and their conditional covariances
  can have symplectic eigenvalues below the vacuum value 1: the g and f rates
  are not security bounds.
- ``AttackModel.INDEPENDENT`` gives each hop its own EPR pair.  Every path is
  then a genuine beamsplitter network, all stored pairs are quantum states and
  every symplectic eigenvalue is at least 1 (up to rounding).  The RIS common
  phase becomes a local frame rotation and drops out of every statistic.

Both models coincide on the direct hop.  ``holevo_h`` treats sub-vacuum
eigenvalues as vacuum (zero entropy); per-branch records count them.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import BranchParams

PLANCK = 6.62607015e-34  # J s
BOLTZMANN = 1.380649e-23  # J/K

NEGATIVITY_TOL = 1e-9  # eigenvalues below 1 - this count as model negativity


class NumericDomainError(ArithmeticError):
    """A radicand or conditioning variance left its valid numeric domain."""


class AncillaCase(enum.Enum):
    """Which hop's output the eavesdropper stores alongside her EPR half."""

    DIRECT = "d"
    ALICE_RIS = "g"
    RIS_BOB = "f"


class AttackModel(enum.Enum):
    """How the eavesdropper's probes enter the three hops of a branch."""

    PAPER = "paper"  # one probe mode shared by all hops
    INDEPENDENT = "independent"  # one EPR pair per hop


class Path(enum.Enum):
    """Receiver-side signal path used for a mutual-information term."""

    DIRECT = "direct"
    RIS = "ris"


def thermal_occupation(f_c: float, t_e: float) -> float:
    """Mean thermal photon number 1/(exp(h f / k T) - 1), overflow-safe."""
    if not (f_c > 0 and t_e > 0):
        raise ValueError("frequency and temperature must be > 0")
    x = PLANCK * f_c / (BOLTZMANN * t_e)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class NoiseModel:
    """Quadrature variances of the link, in shot-noise units."""

    n_bar: float
    v_o: float  # thermal/vacuum variance, 2*n_bar + 1
    v_s: float  # modulation variance
    v_e: float  # EPR probe variance

    def __post_init__(self):
        if self.v_o < 1.0:
            raise ValueError("v_o must be >= 1")
        if self.v_e < 1.0:
            raise ValueError("v_e must be >= 1")
        if not self.v_s > 0:
            raise ValueError("v_s must be > 0")

    @property
    def v_a(self) -> float:
        """Total variance of the transmitted mode."""
        return self.v_s + self.v_o

    @classmethod
    def from_link(cls, f_c: float, t_e: float, v_s: float, v_e: float) -> "NoiseModel":
        n_bar = thermal_occupation(f_c, t_e)
        return cls(n_bar=n_bar, v_o=2.0 * n_bar + 1.0, v_s=v_s, v_e=v_e)


@dataclass(frozen=True)
class BobVariances:
    v_b_d: float
    v_b_ris: float
    v_b_d_cond: float
    v_b_ris_cond: float


def bob_variances(b: BranchParams, n: NoiseModel,
                  model: AttackModel = AttackModel.PAPER) -> BobVariances:
    """Receiver variances on both paths, and conditioned on the sent quadrature.

    With independent probes the two reflected-path probes add incoherently,
    so the phase-sensitive interference term of the shared probe is absent.
    """
    if model is AttackModel.INDEPENDENT:
        alpha2 = b.beta_g * b.beta_f
        gamma2 = 1.0 - alpha2
    else:
        alpha2 = abs(b.alpha) ** 2
        gamma2 = abs(b.gamma) ** 2
    return BobVariances(
        v_b_d=b.beta_d * n.v_a + (1.0 - b.beta_d) * n.v_e,
        v_b_ris=alpha2 * n.v_a + gamma2 * n.v_e,
        v_b_d_cond=b.beta_d * n.v_o + (1.0 - b.beta_d) * n.v_e,
        v_b_ris_cond=alpha2 * n.v_o + gamma2 * n.v_e,
    )


def _cross_coupling(b: BranchParams) -> float:
    """sqrt(beta_f (1-beta_f) (1-beta_g)), the phase-sensitive cross term."""
    return math.sqrt(b.beta_f * (1.0 - b.beta_f) * (1.0 - b.beta_g))


def eve_output_variance(case: AncillaCase, b: BranchParams, n: NoiseModel,
                        model: AttackModel = AttackModel.PAPER) -> float:
    """Variance of the stored beamsplitter output for the given case."""
    if case is AncillaCase.DIRECT:
        return (1.0 - b.beta_d) * n.v_a + b.beta_d * n.v_e
    if case is AncillaCase.ALICE_RIS:
        return (1.0 - b.beta_g) * n.v_a + b.beta_g * n.v_e
    probe_coeff = (1.0 - b.beta_g) + b.beta_g * b.beta_f
    if model is AttackModel.PAPER:
        probe_coeff -= 2.0 * _cross_coupling(b) * math.cos(b.phi)
    return (1.0 - b.beta_f) * b.beta_g * n.v_a + probe_coeff * n.v_e


@dataclass(frozen=True)
class PairCov:
    """Covariance of the stored {output, kept EPR half} pair in sector form.

    All three 2x2 blocks are diagonal: ``a`` holds the output block, ``b``
    the EPR-half block and ``c`` the cross block, each as (x entry, p
    entry).  Bob's x-quadrature homodyne rewrites only the x entries.
    """

    a: tuple[float, float]
    b: tuple[float, float]
    c: tuple[complex, complex]

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = np.diag(self.a)
        m[2:, 2:] = np.diag(self.b)
        m[:2, 2:] = np.diag(self.c)
        m[2:, :2] = np.diag(np.conj(self.c))
        return m


def eve_cov(case: AncillaCase, b: BranchParams, n: NoiseModel,
            model: AttackModel = AttackModel.PAPER) -> PairCov:
    """Covariance of the stored {output, kept EPR half} pair."""
    t = n.v_e ** 2 - 1.0
    if case is AncillaCase.DIRECT:
        v_corr: complex = math.sqrt(b.beta_d * t)
    elif case is AncillaCase.ALICE_RIS:
        v_corr = math.sqrt(b.beta_g * t)
    elif model is AttackModel.INDEPENDENT:
        v_corr = math.sqrt(b.beta_f * t)
    else:
        v_corr = b.beta_f_tilde * math.sqrt(t)
    v_out = eve_output_variance(case, b, n, model)
    return PairCov(a=(v_out, v_out), b=(n.v_e, n.v_e), c=(v_corr, -v_corr))


def _nonneg(value: float, scale: float) -> float:
    """Clamp a tiny negative radicand to 0; reject real negativity."""
    if value >= 0.0:
        return value
    if value >= -1e-9 * max(scale, 1.0):
        return 0.0
    raise NumericDomainError(f"radicand {value} negative beyond tolerance")


def _two_mode_eigs(cov: PairCov) -> tuple[float, float]:
    """Symplectic eigenvalues of the stored pair [[a*I, c*Z], [conj(c)*Z, b*I]].

    Uses the factored discriminant (a-b)^2 * ((a+b)^2 - 4*|c|^2) and recovers
    the small eigenvalue from the determinant to stay accurate when the two
    eigenvalues are far apart.
    """
    a, b_, c = cov.a[0], cov.b[0], cov.c[0]
    c2 = c.real ** 2 + c.imag ** 2
    nabla = a * a + b_ * b_ - 2.0 * c2
    s = a * b_ - c2  # sqrt of the determinant, signed
    f_plus = (a + b_) ** 2 - 4.0 * c2
    disc = _nonneg(f_plus, (a + b_) ** 2) * (a - b_) ** 2
    lam1_sq = 0.5 * (nabla + math.sqrt(disc))
    lam1 = math.sqrt(_nonneg(lam1_sq, abs(nabla)))
    lam2 = abs(s) / lam1 if lam1 > 0.0 else 0.0
    return lam1, lam2


def symplectic_eigs_unconditional(case: AncillaCase, b: BranchParams,
                                  n: NoiseModel,
                                  model: AttackModel = AttackModel.PAPER,
                                  ) -> tuple[float, float]:
    """Symplectic eigenvalues of the stored pair before conditioning."""
    return _two_mode_eigs(eve_cov(case, b, n, model))


def _conditioned(case: AncillaCase, b: BranchParams, n: NoiseModel,
                 model: AttackModel, bv: BobVariances, stored: PairCov) -> PairCov:
    """The stored pair after Bob's homodyne: new x entries, stored p entries."""
    v_a, v_e = n.v_a, n.v_e
    v_b = bv.v_b_d if case is AncillaCase.DIRECT else bv.v_b_ris
    if v_b <= 0.0:
        raise NumericDomainError("conditioning variance is zero")
    corr = stored.c[0]  # the EPR correlation of the stored hop
    prod = b.beta_g * b.beta_f
    if case is AncillaCase.DIRECT:
        a0 = v_a * v_e / v_b
        b0 = (1.0 - b.beta_d + b.beta_d * v_a * v_e) / v_b
        c0: complex = v_a * corr / v_b
    elif model is AttackModel.INDEPENDENT:
        # every term is a non-negative product: no cancellation
        if case is AncillaCase.ALICE_RIS:
            a0 = ((1.0 - b.beta_g + prod) * v_a * v_e
                  + b.beta_g * (1.0 - b.beta_f) * v_e ** 2) / v_b
            b0 = (prod * v_a * v_e + (1.0 - b.beta_f) * v_e ** 2
                  + b.beta_f * (1.0 - b.beta_g)) / v_b
            c0 = corr * (b.beta_f * v_a + (1.0 - b.beta_f) * v_e) / v_b
        else:
            a0 = (b.beta_g * v_a * v_e + (1.0 - b.beta_g) * v_e ** 2) / v_b
            b0 = (prod * v_a * v_e + b.beta_f * (1.0 - b.beta_g) * v_e ** 2
                  + 1.0 - b.beta_f) / v_b
            c0 = corr * (b.beta_g * v_a + (1.0 - b.beta_g) * v_e) / v_b
    else:
        b0 = (abs(b.gamma) ** 2 + prod * v_a * v_e) / v_b
        if case is AncillaCase.ALICE_RIS:
            x = _cross_coupling(b)
            a0 = (1.0 - b.beta_g + prod + 2.0 * x * math.cos(b.phi)) * v_a * v_e / v_b
            c0 = (b.beta_f + x * cmath.exp(-1j * b.phi)) * corr * v_a / v_b
        else:
            a0 = b.beta_g * v_a * v_e / v_b
            c0 = b.beta_g * v_a * math.sqrt(b.beta_f * (v_e ** 2 - 1.0)) / v_b
    return PairCov(a=(a0, stored.a[1]), b=(b0, stored.b[1]), c=(c0, stored.c[1]))


def conditional_cov(case: AncillaCase, b: BranchParams, n: NoiseModel,
                    model: AttackModel = AttackModel.PAPER) -> PairCov:
    """Closed-form stored-pair covariance conditioned on Bob's quadrature.

    Conditioning is on the direct-path quadrature for the direct case and on
    the reflected-path quadrature for the two RIS cases.  Under independent
    probes Bob's homodyne is referenced to the phase of the signal he
    receives, and Eve references her RIS-to-receiver output the same way
    (counter-rotating her kept EPR half); in these frames every block is real
    and the RIS phase drops out.
    """
    return _conditioned(case, b, n, model, bob_variances(b, n, model),
                        eve_cov(case, b, n, model))


def _conditional_eigs(cov: PairCov) -> tuple[float, float]:
    """Symplectic eigenvalues of a conditioned pair from its sector invariants."""
    (a0, a1), (b0, b1), (c0, c1) = cov.a, cov.b, cov.c
    nabla = a0 * a1 + b0 * b1 + 2.0 * (c0 * c1).real
    det = (_nonneg(a0 * b0 - abs(c0) ** 2, a0 * b0)
           * _nonneg(a1 * b1 - abs(c1) ** 2, a1 * b1))
    disc = _nonneg(nabla * nabla - 4.0 * det, nabla * nabla)
    lam3_sq = 0.5 * (nabla + math.sqrt(disc))
    lam3 = math.sqrt(_nonneg(lam3_sq, abs(nabla)))
    lam4 = math.sqrt(det) / lam3 if lam3 > 0.0 else 0.0
    return lam3, lam4


def symplectic_eigs_conditional(case: AncillaCase, b: BranchParams,
                                n: NoiseModel,
                                model: AttackModel = AttackModel.PAPER,
                                ) -> tuple[float, float]:
    """Symplectic eigenvalues of the conditional stored-pair covariance."""
    return _conditional_eigs(conditional_cov(case, b, n, model))


_LN2 = math.log(2.0)


def holevo_h(lam: float) -> float:
    """Bosonic entropy of one symplectic eigenvalue, in bits.

    Continuous at 1 with value 0; eigenvalues at or below 1 contribute
    nothing.  Under ``AttackModel.PAPER`` the RIS-side cases produce genuinely
    sub-vacuum eigenvalues (the shared probe makes their maps
    non-symplectic); they are treated as vacuum here and counted in
    ``BranchRecord.negativity_count``.  Under ``AttackModel.INDEPENDENT``
    every eigenvalue is at least 1 up to rounding.
    """
    if not math.isfinite(lam):
        raise ValueError("eigenvalue must be finite")
    if lam <= 1.0:
        return 0.0
    eps = lam - 1.0
    if eps < 1e-8:
        return 0.5 * eps * (math.log2(2.0 / eps) + 1.0 / _LN2)
    u, w = 0.5 * (lam + 1.0), 0.5 * (lam - 1.0)
    return u * math.log2(u) - w * math.log2(w)


def _mutual_info(path: Path, bv: BobVariances) -> float:
    if path is Path.DIRECT:
        num, den = bv.v_b_d, bv.v_b_d_cond
    else:
        num, den = bv.v_b_ris, bv.v_b_ris_cond
    if den <= 0.0:
        raise NumericDomainError("conditional variance is zero")
    return 0.5 * math.log2(num / den)


def mutual_info_ab(path: Path, b: BranchParams, n: NoiseModel,
                   model: AttackModel = AttackModel.PAPER) -> float:
    """Classical mutual information of one received path, in bits."""
    return _mutual_info(path, bob_variances(b, n, model))


@dataclass(frozen=True)
class BranchRecord:
    """All per-branch intermediates of the key-rate evaluation."""

    index: int
    i_ab_direct: float
    i_ab_ris: float
    holevo: float
    lambda_1: float
    lambda_2: float
    lambda_3: float
    lambda_4: float
    skr: float
    negativity_count: int


def branch_skr(case: AncillaCase, b: BranchParams, n: NoiseModel,
               model: AttackModel = AttackModel.PAPER) -> BranchRecord:
    """Reverse-reconciliation key rate of one branch.

    The Holevo term belongs to the stored hop's path: the direct path for the
    direct case, the reflected path otherwise; the other path leaks nothing.
    Bob's variances and the stored pair are built once and feed every term.
    Negative rates are valid outputs (insecure regime).
    """
    bv = bob_variances(b, n, model)
    stored = eve_cov(case, b, n, model)
    i_d = _mutual_info(Path.DIRECT, bv)
    i_r = _mutual_info(Path.RIS, bv)
    lam1, lam2 = _two_mode_eigs(stored)
    lam3, lam4 = _conditional_eigs(_conditioned(case, b, n, model, bv, stored))
    holevo = (holevo_h(lam1) + holevo_h(lam2)
              - holevo_h(lam3) - holevo_h(lam4))
    negativity = sum(1 for lam in (lam1, lam2, lam3, lam4)
                     if lam < 1.0 - NEGATIVITY_TOL)
    return BranchRecord(index=b.branch_index, i_ab_direct=i_d, i_ab_ris=i_r,
                        holevo=holevo, lambda_1=lam1, lambda_2=lam2,
                        lambda_3=lam3, lambda_4=lam4,
                        skr=i_d + i_r - holevo, negativity_count=negativity)


@dataclass(frozen=True)
class Warnings:
    beta_clamped: int = 0
    eigen_negativity: int = 0

    @property
    def total(self) -> int:
        return self.beta_clamped + self.eigen_negativity


@dataclass(frozen=True)
class SkrReport:
    """Total key rate over all branches with per-branch intermediates."""

    ancilla_case: AncillaCase
    branches: tuple[BranchRecord, ...] = field(default_factory=tuple)
    total_skr: float = 0.0
    warnings: Warnings = field(default_factory=Warnings)

    @property
    def total_holevo(self) -> float:
        return sum((rec.holevo for rec in self.branches), 0.0)


def total_skr(case: AncillaCase, branches, n: NoiseModel,
              beta_clamp_count: int = 0,
              model: AttackModel = AttackModel.PAPER) -> SkrReport:
    """Sum the branch rates in branch order (deterministic reduction)."""
    records = tuple(branch_skr(case, b, n, model) for b in branches)
    total = 0.0
    for rec in records:
        total += rec.skr
    negativity = sum(rec.negativity_count for rec in records)
    return SkrReport(ancilla_case=case, branches=records, total_skr=total,
                     warnings=Warnings(beta_clamped=beta_clamp_count,
                                       eigen_negativity=negativity))
