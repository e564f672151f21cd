"""Gaussian-state statistics and secret key rate of the parallel branches.

Per branch, the eavesdropper mixes one half of an EPR pair into each of the
three wireless hops via beamsplitters and keeps the output of exactly one hop
together with the other EPR half (restricted quantum memory).  This module
evaluates homodyne variances, the covariance of the kept pair (``PairCov``),
its symplectic eigenvalues before and after Bob's x-quadrature homodyne, which
rewrites only the x entries of the pair (Weedbrook et al., Rev. Mod. Phys. 84,
621 (2012)), and the resulting reverse-reconciliation key rate.

Every closed form has one implementation, over numpy arrays of branches
(``BranchSet``), and one entry point, ``total_skr``, which rates a whole set
in one pass.  Each entry agrees bit for bit with Python's float and complex
arithmetic on that branch alone (see ``_sq``, ``_abs``, ``_log2`` and
``_conditioned``).

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

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .decomposition import BranchSet, _complex

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


def thermal_occupation(f_c: float, t_e: float) -> float:
    """Mean thermal photon number 1/(exp(h f / k T) - 1), overflow-safe."""
    if not (0 < f_c < math.inf and 0 < t_e < math.inf):
        raise ValueError("frequency and temperature must be finite and > 0")
    kt = BOLTZMANN * t_e
    if kt == 0.0:  # k T underflows: exp(h f / k T) is infinite
        return 0.0
    x = PLANCK * f_c / kt
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class NoiseModel:
    """Quadrature variances of the link, in shot-noise units: floats, or
    arrays with one value per branch."""

    n_bar: float
    v_o: float  # thermal/vacuum variance, 2*n_bar + 1
    v_s: float  # modulation variance
    v_e: float  # EPR probe variance

    def __post_init__(self):
        if not np.all(np.asarray(self.v_o) >= 1.0):
            raise ValueError("v_o must be >= 1")
        if not np.all(np.asarray(self.v_e) >= 1.0):
            raise ValueError("v_e must be >= 1")
        if not np.all(np.asarray(self.v_s) > 0):
            raise ValueError("v_s must be > 0")

    @property
    def v_a(self) -> float:
        """Total variance of the transmitted mode."""
        return self.v_s + self.v_o

    @classmethod
    def from_link(cls, f_c: float, t_e: float, v_s: float, v_e: float) -> "NoiseModel":
        n_bar = thermal_occupation(f_c, t_e)
        return cls(n_bar=n_bar, v_o=2.0 * n_bar + 1.0, v_s=v_s, v_e=v_e)


# numpy's x * x, np.square, np.abs and np.log2 round differently from
# Python's x ** 2 (libm pow), abs() (hypot) and math.log2 on some inputs
def _sq(x):
    return np.float_power(x, 2.0)


def _abs(z):
    return np.hypot(np.real(z), np.imag(z))


def _log2(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class BobVariances:
    v_b_d: float
    v_b_ris: float
    v_b_d_cond: float
    v_b_ris_cond: float


def _bob_variances(b: BranchSet, n: NoiseModel, model: AttackModel) -> BobVariances:
    """Receiver variances on both paths, and conditioned on the sent quadrature.

    With independent probes the two reflected-path probes add incoherently,
    so the phase-sensitive interference term of the shared probe is absent.
    """
    if model is AttackModel.INDEPENDENT:
        alpha2 = b.beta_g * b.beta_f
        gamma2 = 1.0 - alpha2
    else:
        alpha2 = _sq(_abs(b.alpha))
        gamma2 = _sq(_abs(b.gamma))
    return BobVariances(
        v_b_d=b.beta_d * n.v_a + (1.0 - b.beta_d) * n.v_e,
        v_b_ris=alpha2 * n.v_a + gamma2 * n.v_e,
        v_b_d_cond=b.beta_d * n.v_o + (1.0 - b.beta_d) * n.v_e,
        v_b_ris_cond=alpha2 * n.v_o + gamma2 * n.v_e,
    )


def _cross_coupling(b: BranchSet):
    """sqrt(beta_f (1-beta_f) (1-beta_g)), the phase-sensitive cross term."""
    return np.sqrt(b.beta_f * (1.0 - b.beta_f) * (1.0 - b.beta_g))


@dataclass(frozen=True, eq=False)
class PairCov:
    """Covariance of the stored {output, kept EPR half} pair in sector form.

    All three 2x2 blocks are diagonal: ``a`` holds the output block, ``b``
    the EPR-half block and ``c`` the cross block, each as (x entry, p
    entry).  Bob's x-quadrature homodyne rewrites only the x entries.  The
    entries are scalars or arrays over branches.
    """

    a: tuple
    b: tuple
    c: tuple

    def as_matrix(self) -> np.ndarray:
        """The 4x4 matrix, or a (..., 4, 4) stack for array entries."""
        shape = np.broadcast(*self.a, *self.b, *self.c).shape
        m = np.zeros(shape + (4, 4), dtype=complex)
        m[..., 0, 0], m[..., 1, 1] = self.a
        m[..., 2, 2], m[..., 3, 3] = self.b
        m[..., 0, 2], m[..., 1, 3] = self.c
        m[..., 2, 0], m[..., 3, 1] = np.conj(self.c[0]), np.conj(self.c[1])
        return m


def _eve_cov(case: AncillaCase, b: BranchSet, n: NoiseModel,
             model: AttackModel) -> PairCov:
    """Covariance of the stored {output, kept EPR half} pair."""
    tap = {AncillaCase.DIRECT: b.beta_d, AncillaCase.ALICE_RIS: b.beta_g,
           AncillaCase.RIS_BOB: b.beta_f}[case]
    if case is AncillaCase.RIS_BOB:
        probe_coeff = (1.0 - b.beta_g) + b.beta_g * b.beta_f
        if model is AttackModel.PAPER:
            probe_coeff = probe_coeff - 2.0 * _cross_coupling(b) * np.cos(b.phi)
        v_out = (1.0 - b.beta_f) * b.beta_g * n.v_a + probe_coeff * n.v_e
    else:
        v_out = (1.0 - tap) * n.v_a + tap * n.v_e
    t = _sq(n.v_e) - 1.0
    if case is AncillaCase.RIS_BOB and model is AttackModel.PAPER:
        # beta_f_tilde * sqrt(t), part by part
        v_corr = _complex(b.beta_f_tilde.real * np.sqrt(t), b.beta_f_tilde.imag * np.sqrt(t))
    else:
        v_corr = _complex(np.sqrt(tap * t), 0.0)
    return PairCov(a=(v_out, v_out), b=(n.v_e, n.v_e), c=(v_corr, -v_corr))


def _nonneg(value, scale):
    """Clamp tiny negative radicands to 0; reject real negativity."""
    if (value >= 0.0).all():
        return value
    ok = (value >= 0.0) | (value >= -1e-9 * np.maximum(scale, 1.0))
    if not ok.all():
        bad = np.broadcast_to(value, ok.shape)[~ok][0]
        raise NumericDomainError(f"radicand {bad} negative beyond tolerance")
    return np.where(value >= 0.0, value, 0.0)


def _ratio(num, den):
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den > 0.0)


def _two_mode_eigs(cov: PairCov):
    """Symplectic eigenvalues of the stored pair [[a*I, c*Z], [conj(c)*Z, b*I]].

    Uses the factored discriminant (a-b)^2 * ((a+b)^2 - 4*|c|^2) and recovers
    the small eigenvalue from the determinant to stay accurate when the two
    eigenvalues are far apart.
    """
    a, b_, c = cov.a[0], cov.b[0], cov.c[0]
    c2 = _sq(c.real) + _sq(c.imag)
    nabla = a * a + b_ * b_ - 2.0 * c2
    s = a * b_ - c2  # sqrt of the determinant, signed
    f_plus = _sq(a + b_) - 4.0 * c2
    disc = _nonneg(f_plus, _sq(a + b_)) * _sq(a - b_)
    lam1_sq = 0.5 * (nabla + np.sqrt(disc))
    lam1 = np.sqrt(_nonneg(lam1_sq, np.abs(nabla)))
    return lam1, _ratio(np.abs(s), lam1)


def _conditioned(case: AncillaCase, b: BranchSet, n: NoiseModel,
                 model: AttackModel, bv: BobVariances, stored: PairCov) -> PairCov:
    """The stored pair after Bob's homodyne: new x entries, stored p entries.

    Conditioning is on the direct-path quadrature for the direct case and on
    the reflected-path quadrature for the two RIS cases.  Under independent
    probes Bob's homodyne is referenced to the phase of the signal he
    receives, and Eve references her RIS-to-receiver output the same way
    (counter-rotating her kept EPR half); in these frames every block is real
    and the RIS phase drops out.  Complex products are written out part by
    part, as Python rounds them; numpy's complex multiply may fuse them.
    """
    v_a, v_e = n.v_a, n.v_e
    # at least the conditional variance, which _mutual_info checks is > 0
    v_b = bv.v_b_d if case is AncillaCase.DIRECT else bv.v_b_ris
    corr = stored.c[0]  # the EPR correlation of the stored hop
    prod = b.beta_g * b.beta_f
    if case is AncillaCase.DIRECT:
        a0 = v_a * v_e / v_b
        b0 = (1.0 - b.beta_d + b.beta_d * v_a * v_e) / v_b
        c0 = (v_a * corr.real / v_b, v_a * corr.imag / v_b)
    elif model is AttackModel.INDEPENDENT:
        # every term is a non-negative product: no cancellation
        if case is AncillaCase.ALICE_RIS:
            a0 = ((1.0 - b.beta_g + prod) * v_a * v_e
                  + b.beta_g * (1.0 - b.beta_f) * _sq(v_e)) / v_b
            b0 = (prod * v_a * v_e + (1.0 - b.beta_f) * _sq(v_e)
                  + b.beta_f * (1.0 - b.beta_g)) / v_b
            gain = b.beta_f * v_a + (1.0 - b.beta_f) * v_e
        else:
            a0 = (b.beta_g * v_a * v_e + (1.0 - b.beta_g) * _sq(v_e)) / v_b
            b0 = (prod * v_a * v_e + b.beta_f * (1.0 - b.beta_g) * _sq(v_e)
                  + 1.0 - b.beta_f) / v_b
            gain = b.beta_g * v_a + (1.0 - b.beta_g) * v_e
        c0 = (corr.real * gain / v_b, corr.imag * gain / v_b)
    else:
        b0 = (_sq(_abs(b.gamma)) + prod * v_a * v_e) / v_b
        if case is AncillaCase.ALICE_RIS:
            x = _cross_coupling(b)
            a0 = (1.0 - b.beta_g + prod + 2.0 * x * np.cos(b.phi)) * v_a * v_e / v_b
            # (beta_f + x * exp(-1j phi)) * corr * v_a / v_b; corr is real here
            w_re = b.beta_f + x * np.cos(-b.phi)
            w_im = x * np.sin(-b.phi)
            c0 = (w_re * corr.real * v_a / v_b, w_im * corr.real * v_a / v_b)
        else:
            a0 = b.beta_g * v_a * v_e / v_b
            c0 = (b.beta_g * v_a * np.sqrt(b.beta_f * (_sq(v_e) - 1.0)) / v_b, 0.0)
    return PairCov(a=(a0, stored.a[1]), b=(b0, stored.b[1]),
                   c=(_complex(*c0), stored.c[1]))


def _conditional_eigs(cov: PairCov):
    """Symplectic eigenvalues of a conditioned pair from its sector invariants."""
    (a0, a1), (b0, b1), (c0, c1) = cov.a, cov.b, cov.c
    nabla = a0 * a1 + b0 * b1 + 2.0 * (c0.real * c1.real - c0.imag * c1.imag)
    det = (_nonneg(a0 * b0 - _sq(_abs(c0)), a0 * b0)
           * _nonneg(a1 * b1 - _sq(_abs(c1)), a1 * b1))
    disc = _nonneg(nabla * nabla - 4.0 * det, nabla * nabla)
    lam3_sq = 0.5 * (nabla + np.sqrt(disc))
    lam3 = np.sqrt(_nonneg(lam3_sq, np.abs(nabla)))
    return lam3, _ratio(np.sqrt(det), lam3)


_LN2 = math.log(2.0)


def holevo_h(lam):
    """Bosonic entropy of symplectic eigenvalues, in bits: a float for a
    float, an array for an array.

    Continuous at 1 with value 0; eigenvalues at or below 1 contribute
    nothing.  Under ``AttackModel.PAPER`` the RIS-side cases produce genuinely
    sub-vacuum eigenvalues (the shared probe makes their maps
    non-symplectic); they are treated as vacuum here and counted in
    ``BranchRecord.negativity_count``.  Under ``AttackModel.INDEPENDENT``
    every eigenvalue is at least 1 up to rounding.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if not np.isfinite(lam_arr).all():
        raise ValueError("eigenvalue must be finite")
    eps = lam_arr - 1.0
    far = eps >= 1e-8
    out = np.zeros(lam_arr.shape)
    u, w = 0.5 * (lam_arr[far] + 1.0), 0.5 * (lam_arr[far] - 1.0)
    out[far] = u * _log2(u) - w * _log2(w)
    near = (lam_arr > 1.0) & ~far
    if near.any():
        e = eps[near]
        out[near] = 0.5 * e * (_log2(2.0 / e) + 1.0 / _LN2)
    return out if out.ndim else float(out)


def _mutual_info(num, den) -> np.ndarray:
    """I_AB on one path from Bob's variance and its conditional variance."""
    if (den <= 0.0).any():
        raise NumericDomainError("conditional variance is zero")
    return 0.5 * _log2(num / den)


@dataclass(frozen=True)
class BranchRecord:
    """All per-branch intermediates of the key-rate evaluation."""

    i_ab_direct: float
    i_ab_ris: float
    holevo: float
    lambda_1: float
    lambda_2: float
    lambda_3: float
    lambda_4: float
    skr: float
    negativity_count: int


@dataclass(frozen=True)
class Warnings:
    beta_clamped: int = 0
    eigen_negativity: int = 0

    @property
    def total(self) -> int:
        return self.beta_clamped + self.eigen_negativity


@dataclass(frozen=True, eq=False)
class SkrReport:
    """Key rates of a span of branches of a rated block, where branch i is
    record i.  ``_rated`` holds the block's ``BranchRecord`` fields as arrays
    and its conditioned stored pairs; the span's rates, pairs and records are
    sliced from it when first read, and its totals added as ``totals`` adds."""

    warnings: Warnings
    _rated: tuple[BranchRecord, PairCov]
    _span: slice

    def totals(self, counts) -> list[float]:
        """Sums of consecutive runs of ``counts`` branch rates of the span, each
        added left to right in Python floats, as ``total_holevo`` adds: a
        pairwise ``np.sum`` or a compensated ``sum`` would break criterion 8
        (duplicated branches add exactly) and criterion 10 (stable bytes)."""
        it = iter(self._rated[0].skr[self._span].tolist())
        return [functools.reduce(operator.add, itertools.islice(it, count), 0.0)
                for count in counts]

    def split(self, counts, clamps) -> list[SkrReport]:
        """Reports of consecutive runs of ``counts`` branches of this span, each
        warned of its own ``clamps`` and negativity: the one place clamped
        transmissivities are attached."""
        stops = list(itertools.accumulate(counts, initial=self._span.start))
        negative = list(itertools.accumulate(self._rated[0].negativity_count.tolist(), initial=0))
        return [SkrReport(Warnings(clamped, negative[hi] - negative[lo]), self._rated,
                          slice(lo, hi))
                for lo, hi, clamped in zip(stops, stops[1:], clamps)]

    @functools.cached_property
    def total_skr(self) -> float:
        return self.totals([self._span.stop - self._span.start])[0]

    @property
    def total_holevo(self) -> float:
        return functools.reduce(operator.add, self._rated[0].holevo[self._span].tolist(), 0.0)

    @functools.cached_property
    def rates(self) -> BranchRecord:
        return BranchRecord(*(getattr(self._rated[0], f.name)[self._span]
                              for f in fields(BranchRecord)))

    @functools.cached_property
    def conditioned(self) -> PairCov:
        cov = self._rated[1]
        return PairCov(*(tuple(x[self._span] if np.ndim(x) else x for x in pair)
                         for pair in (cov.a, cov.b, cov.c)))

    @functools.cached_property
    def branches(self) -> tuple[BranchRecord, ...]:
        columns = [getattr(self.rates, f.name).tolist() for f in fields(BranchRecord)]
        return tuple(BranchRecord(*row) for row in zip(*columns))


@np.errstate(over="raise", invalid="raise")  # FloatingPointError, not a warning
def total_skr(case: AncillaCase, branches, n: NoiseModel, *,
              model: AttackModel = AttackModel.PAPER) -> SkrReport:
    """Reverse-reconciliation key rate of every branch in one pass, as the
    report of the whole set.

    ``branches`` is a ``BranchSet`` of one branch or many, or a sequence of
    them; the noise variances are scalars or one value per branch.  The
    Holevo term belongs to the stored hop's path: the direct path for the
    direct case, the reflected path otherwise; the other path leaks nothing.
    Negative rates are valid outputs (insecure regime).
    """
    b = BranchSet.of(branches)
    bv = _bob_variances(b, n, model)
    i_d = _mutual_info(bv.v_b_d, bv.v_b_d_cond)
    i_r = _mutual_info(bv.v_b_ris, bv.v_b_ris_cond)
    stored = _eve_cov(case, b, n, model)
    lam1, lam2 = _two_mode_eigs(stored)
    cond = _conditioned(case, b, n, model, bv, stored)
    lams = np.array([lam1, lam2, *_conditional_eigs(cond)])
    h1, h2, h3, h4 = holevo_h(lams)
    holevo = h1 + h2 - h3 - h4
    rates = BranchRecord(i_d, i_r, holevo, *lams, i_d + i_r - holevo,
                         (lams < 1.0 - NEGATIVITY_TOL).sum(axis=0))
    return SkrReport(Warnings(eigen_negativity=int(rates.negativity_count.sum())),
                     (rates, cond), slice(0, len(b)))
