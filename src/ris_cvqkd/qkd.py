"""Gaussian-state statistics and secret key rate of the parallel branches.

Per branch, the eavesdropper mixes one half of an EPR pair into each of the
three wireless hops via beamsplitters and keeps the output of exactly one hop
together with the other EPR half (restricted quantum memory).  This module
evaluates homodyne variances, the two-mode covariance of the kept pair, its
symplectic eigenvalues before and after conditioning on Bob's measured
quadrature, and the resulting reverse-reconciliation key rate.

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

_PAULI_Z = np.diag([1.0, -1.0])


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
class TwoModeCov:
    """Two-mode covariance of the stored pair in scalar block form.

    Diagonal blocks are v_out*I and v_e*I; the off-diagonal block couples the
    quadratures through the Pauli-z structure of the EPR correlations with
    (possibly complex) strength v_corr.
    """

    v_out: float
    v_e: float
    v_corr: complex

    def as_matrix(self) -> np.ndarray:
        k = np.zeros((4, 4), dtype=complex)
        k[:2, :2] = self.v_out * np.eye(2)
        k[2:, 2:] = self.v_e * np.eye(2)
        k[:2, 2:] = self.v_corr * _PAULI_Z
        k[2:, :2] = np.conj(self.v_corr) * _PAULI_Z
        return k


def eve_cov(case: AncillaCase, b: BranchParams, n: NoiseModel,
            model: AttackModel = AttackModel.PAPER) -> TwoModeCov:
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
    return TwoModeCov(v_out=eve_output_variance(case, b, n, model), v_e=n.v_e,
                      v_corr=v_corr)


def _nonneg(value: float, scale: float) -> float:
    """Clamp a tiny negative radicand to 0; reject real negativity."""
    if value >= 0.0:
        return value
    if value >= -1e-9 * max(scale, 1.0):
        return 0.0
    raise NumericDomainError(f"radicand {value} negative beyond tolerance")


def _two_mode_eigs(a: float, b_: float, c: complex) -> tuple[float, float]:
    """Symplectic eigenvalues of [[a*I, c*Z], [conj(c)*Z, b*I]].

    Uses the factored discriminant (a-b)^2 * ((a+b)^2 - 4*|c|^2) and recovers
    the small eigenvalue from the determinant to stay accurate when the two
    eigenvalues are far apart.
    """
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
    cov = eve_cov(case, b, n, model)
    return _two_mode_eigs(cov.v_out, cov.v_e, cov.v_corr)


@dataclass(frozen=True)
class ConditionalCov:
    """Stored-pair covariance conditioned on Bob's measured quadrature.

    All three 2x2 blocks are diagonal; entry 0 is the measured-quadrature
    sector, entry 1 the orthogonal one.
    """

    a_block: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray
    nabla_tilde: float
    det_value: float
    conditioning_variance: float

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = self.a_block
        m[2:, 2:] = self.b_block
        m[:2, 2:] = self.c_block
        m[2:, :2] = self.c_block.conj().T
        return m


def conditional_cov(case: AncillaCase, b: BranchParams, n: NoiseModel,
                    model: AttackModel = AttackModel.PAPER) -> ConditionalCov:
    """Closed-form conditional covariance blocks for each storage case.

    Conditioning is on the direct-path quadrature for the direct case and on
    the reflected-path quadrature for the two RIS cases.  Under independent
    probes Bob's homodyne is referenced to the phase of the signal he
    receives, and Eve references her RIS-to-receiver output the same way
    (counter-rotating her kept EPR half); in these frames every block is real
    and the RIS phase drops out.
    """
    v_a, v_e = n.v_a, n.v_e
    t = v_e ** 2 - 1.0
    cos_phi = math.cos(b.phi)
    x = _cross_coupling(b)
    bv = bob_variances(b, n, model)
    if case is AncillaCase.DIRECT:
        v_b = bv.v_b_d
        if v_b <= 0.0:
            raise NumericDomainError("conditioning variance is zero")
        corr = math.sqrt(b.beta_d * t)
        a0 = v_a * v_e / v_b
        a1 = (1.0 - b.beta_d) * v_a + b.beta_d * v_e
        b0 = (1.0 - b.beta_d + b.beta_d * v_a * v_e) / v_b
        c0: complex = v_a * corr / v_b
        c1: complex = -corr
    else:
        v_b = bv.v_b_ris
        if v_b <= 0.0:
            raise NumericDomainError("conditioning variance is zero")
        prod = b.beta_g * b.beta_f
        if model is AttackModel.INDEPENDENT:
            # every term is a non-negative product: no cancellation
            if case is AncillaCase.ALICE_RIS:
                corr = math.sqrt(b.beta_g * t)
                a0 = ((1.0 - b.beta_g + prod) * v_a * v_e
                      + b.beta_g * (1.0 - b.beta_f) * v_e ** 2) / v_b
                b0 = (prod * v_a * v_e + (1.0 - b.beta_f) * v_e ** 2
                      + b.beta_f * (1.0 - b.beta_g)) / v_b
                c0 = corr * (b.beta_f * v_a + (1.0 - b.beta_f) * v_e) / v_b
            else:
                corr = math.sqrt(b.beta_f * t)
                a0 = (b.beta_g * v_a * v_e + (1.0 - b.beta_g) * v_e ** 2) / v_b
                b0 = (prod * v_a * v_e + b.beta_f * (1.0 - b.beta_g) * v_e ** 2
                      + 1.0 - b.beta_f) / v_b
                c0 = corr * (b.beta_g * v_a + (1.0 - b.beta_g) * v_e) / v_b
            a1 = eve_output_variance(case, b, n, model)
            c1 = -corr
        else:
            b0 = (abs(b.gamma) ** 2 + prod * v_a * v_e) / v_b
            if case is AncillaCase.ALICE_RIS:
                corr = math.sqrt(b.beta_g * t)
                a0 = (1.0 - b.beta_g + prod + 2.0 * x * cos_phi) * v_a * v_e / v_b
                a1 = (1.0 - b.beta_g) * v_a + b.beta_g * v_e
                c0 = (b.beta_f + x * cmath.exp(-1j * b.phi)) * corr * v_a / v_b
                c1 = -corr
            else:
                a0 = b.beta_g * v_a * v_e / v_b
                a1 = eve_output_variance(case, b, n)
                c0 = b.beta_g * v_a * math.sqrt(b.beta_f * t) / v_b
                c1 = -b.beta_f_tilde * math.sqrt(t)
    a_block = np.diag([complex(a0), complex(a1)])
    b_block = np.diag([complex(b0), complex(v_e)])
    c_block = np.diag([c0, c1])
    nabla = a0 * a1 + b0 * v_e + 2.0 * (c0 * c1).real
    d0 = _nonneg(a0 * b0 - abs(c0) ** 2, a0 * b0)
    d1 = _nonneg(a1 * v_e - abs(c1) ** 2, a1 * v_e)
    return ConditionalCov(a_block=a_block, b_block=b_block, c_block=c_block,
                          nabla_tilde=nabla, det_value=d0 * d1,
                          conditioning_variance=v_b)


def symplectic_eigs_conditional(case: AncillaCase, b: BranchParams,
                                n: NoiseModel,
                                model: AttackModel = AttackModel.PAPER,
                                ) -> tuple[float, float]:
    """Symplectic eigenvalues of the conditional stored-pair covariance."""
    cov = conditional_cov(case, b, n, model)
    nabla, det = cov.nabla_tilde, cov.det_value
    disc = _nonneg(nabla * nabla - 4.0 * det, nabla * nabla)
    lam3_sq = 0.5 * (nabla + math.sqrt(disc))
    lam3 = math.sqrt(_nonneg(lam3_sq, abs(nabla)))
    lam4 = math.sqrt(det) / lam3 if lam3 > 0.0 else 0.0
    return lam3, lam4


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


def mutual_info_ab(path: Path, b: BranchParams, n: NoiseModel,
                   model: AttackModel = AttackModel.PAPER) -> float:
    """Classical mutual information of one received path, in bits."""
    bv = bob_variances(b, n, model)
    if path is Path.DIRECT:
        num, den = bv.v_b_d, bv.v_b_d_cond
    else:
        num, den = bv.v_b_ris, bv.v_b_ris_cond
    if den <= 0.0:
        raise NumericDomainError("conditional variance is zero")
    return 0.5 * math.log2(num / den)


def holevo_info(case: AncillaCase, b: BranchParams, n: NoiseModel,
                model: AttackModel = AttackModel.PAPER) -> float:
    """Holevo bound on the stored pair's information about Bob's outcome."""
    lam1, lam2 = symplectic_eigs_unconditional(case, b, n, model)
    lam3, lam4 = symplectic_eigs_conditional(case, b, n, model)
    return holevo_h(lam1) + holevo_h(lam2) - holevo_h(lam3) - holevo_h(lam4)


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
    Negative rates are valid outputs (insecure regime).
    """
    i_d = mutual_info_ab(Path.DIRECT, b, n, model)
    i_r = mutual_info_ab(Path.RIS, b, n, model)
    lam1, lam2 = symplectic_eigs_unconditional(case, b, n, model)
    lam3, lam4 = symplectic_eigs_conditional(case, b, n, model)
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
        return sum(rec.holevo for rec in self.branches)


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
