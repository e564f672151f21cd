"""Brute-force verification path for the closed-form eigenvalue machinery.

Everything here is rebuilt from first principles: the joint covariance of
(Bob's conditioning mode, stored output, kept EPR half) is assembled directly
from the linear input-output relations, conditioning is a generic Schur
complement on the measured quadrature, and symplectic eigenvalues come from a
numeric eigensolver.  ``run_verification`` works on stacks: for each block of
draws it builds every covariance into one array and runs the eigensolver once
per block.  Tests and the ``verify`` command are the only consumers.

The independent-probe attack model is built here as an explicit real
symplectic matrix over the register (A, E_d, E'_d, E_g, E'_g, E_f, E'_f):
the transmitted mode and one EPR pair per hop.  Tests check that the matrix
is symplectic, that the output covariance is a quantum state, and that the
``qkd`` closed forms for that model reproduce it.

``scenario_at_distance`` is the rebuilt-scenario reference for the distance
rescale: it builds a scenario whose every path is scaled by d over the base's
Alice-Bob distance, where the sweeps and searches apply that one scale to the
paths of one scenario's factors.  ``path_loss`` is the one-path reference of
the link budget, which the channels evaluate as arrays.  Nothing here is
imported from ``experiments`` or ``cli``, so no reference computes its answer
with the code it checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import PathSpec, Scenario
from .decomposition import BranchSet, _complex, branch_set
from .qkd import AncillaCase, NoiseModel, NumericDomainError, _abs, _sq, total_skr

PAIR_TOL = 1e-7  # relative tolerance for the +/- eigenvalue pairing
REGISTER_MODES = 7  # A, E_d, E'_d, E_g, E'_g, E_f, E'_f
VERIFY_BLOCK = 64  # draws per stacked eigensolve in run_verification; bounds its memory
_U, _SPLIT = 2.0 ** -53, 2.0 ** 27 + 1.0  # binary64 unit roundoff; Veltkamp's splitter


def symplectic_form(modes: int) -> np.ndarray:
    """Omega = diag(J, ..., J), J = [[0, 1], [-1, 0]], quadratures (x, p) per mode."""
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


_Z = np.diag([1.0, -1.0])
_J_OMEGA4 = 1j * symplectic_form(2)
_MEASURE_X = np.diag([1.0, 0.0]).astype(complex)


def _mode_coefficients(case: AncillaCase, b: BranchSet) -> tuple:
    """(signal, probe) coefficients of Bob's conditioning mode and of the
    stored output mode, as complex arrays over branches."""
    if case is AncillaCase.DIRECT:
        t, r = np.sqrt(b.beta_d) + 0j, np.sqrt(1.0 - b.beta_d) + 0j
        return t, r, -r, t
    if case is AncillaCase.ALICE_RIS:
        return b.alpha, b.gamma, -np.sqrt(1.0 - b.beta_g) + 0j, np.sqrt(b.beta_g) + 0j
    c_oa = _cmul(-np.sqrt((1.0 - b.beta_f) * b.beta_g) + 0j,
                 _complex(np.cos(b.phi), np.sin(b.phi)))  # times exp(1j phi)
    return b.alpha, b.gamma, c_oa, b.beta_f_tilde


def _cmul(x, y) -> np.ndarray:
    """x * y, each part rounded as Python rounds a complex product (numpy's
    complex multiply may fuse them); a real y is promoted to complex."""
    xr, xi, yr, yi = np.real(x), np.imag(x), np.real(y), np.imag(y)
    return _complex(xr * yr - xi * yi, xr * yi + xi * yr)


def joint_cov(case: AncillaCase, b: BranchSet, n: NoiseModel) -> np.ndarray:
    """6x6 Hermitian covariance over (conditioning mode, output, EPR half)."""
    return _joint_stack(_joint_entries(case, BranchSet.of(b), n))[0]


def _joint_entries(case: AncillaCase, b: BranchSet, n: NoiseModel) -> np.ndarray:
    """The six distinct entries of the joint covariance, an (r, 6) array,
    from the raw mode coefficients: the three mode variances, the
    signal-borne cross term of Bob's mode and the output, and the EPR cross
    terms of the kept half with Bob's mode and with the output."""
    c_ba, c_be, c_oa, c_oe = _mode_coefficients(case, b)
    v_a, v_e = n.v_a, n.v_e
    epr = np.sqrt(_sq(v_e) - 1.0)
    out = np.empty((len(b), 6), dtype=complex)
    out[:, 0] = _sq(_abs(c_ba)) * v_a + _sq(_abs(c_be)) * v_e
    out[:, 1] = _sq(_abs(c_oa)) * v_a + _sq(_abs(c_oe)) * v_e
    out[:, 2] = v_e
    out[:, 3] = (_cmul(_cmul(c_oa, np.conj(c_ba)), v_a)
                 + _cmul(_cmul(c_oe, np.conj(c_be)), v_e))
    out[:, 4] = _cmul(np.conj(c_be), epr)
    out[:, 5] = _cmul(c_oe, epr)
    return out


def _joint_stack(entries: np.ndarray) -> np.ndarray:
    """Joint covariances, shape (..., 6, 6), from (..., 6) arrays of
    ``_joint_entries``.

    Signal-borne correlations carry the identity quadrature structure; the
    EPR cross terms carry the Pauli-z structure.
    """
    j = np.zeros(entries.shape[:-1] + (6, 6), dtype=complex)

    def put(r, c, value, pauli_z=False):
        """value * (I or Z) into block (r, c), and its adjoint into (c, r)."""
        j[..., 2 * r, 2 * c] = value
        j[..., 2 * r + 1, 2 * c + 1] = -value if pauli_z else value
        if r != c:
            j[..., 2 * c, 2 * r] = np.conj(value)
            j[..., 2 * c + 1, 2 * r + 1] = -np.conj(value) if pauli_z else np.conj(value)

    v_b, v_out, v_e, cross, epr_b, epr_out = np.moveaxis(entries, -1, 0)
    put(0, 0, v_b.real)
    put(1, 1, v_out.real)
    put(2, 2, v_e.real)
    put(1, 0, cross)
    put(2, 0, epr_b, pauli_z=True)
    put(1, 2, epr_out, pauli_z=True)
    return j


def conditional_cov_oracle(case: AncillaCase, b: BranchSet,
                           n: NoiseModel) -> np.ndarray:
    """Condition the stored pair on the measured quadrature of Bob's mode.

    Extracts the cross-covariance block verbatim from the joint matrix and
    subtracts the rank-one update selecting the measured quadrature.
    """
    return _homodyne_x(joint_cov(case, b, n))


def _homodyne_x(j: np.ndarray) -> np.ndarray:
    """Schur complement of joint covariances over (measured mode, rest) on
    the measured mode's x quadrature; ``j`` may be a (..., 2m, 2m) stack."""
    v_b = j[..., 0, 0].real
    if np.any(v_b <= 0.0):
        raise NumericDomainError("conditioning variance is zero")
    w = j[..., 2:, :2]
    update = w @ _MEASURE_X @ w.conj().swapaxes(-1, -2)
    return j[..., 2:, 2:] - update / v_b[..., None, None]


def _paired(mags: np.ndarray) -> np.ndarray:
    """(lam1, lam2) per row of (m, 4) spectrum magnitudes, which must come
    in equal pairs."""
    mags = np.sort(mags, axis=-1)[:, ::-1]
    bad = ((np.abs(mags[:, 0] - mags[:, 1]) > PAIR_TOL * np.maximum(mags[:, 0], 1.0))
           | (np.abs(mags[:, 2] - mags[:, 3]) > PAIR_TOL * np.maximum(mags[:, 2], 1.0)))
    if bad.any():
        raise NumericDomainError(
            f"eigenvalues do not pair within tolerance: {mags[np.argmax(bad)]}")
    return 0.5 * (mags[:, 0::2] + mags[:, 1::2])


def numeric_symplectic_eigs(k: np.ndarray):
    """Symplectic eigenvalues (lam1, lam2) of 4x4 Hermitian covariances.

    Computed as the eigenvalues of K^(1/2) (j Omega) K^(1/2), which shares
    the spectrum of j*Omega*K but is Hermitian, so a stable solver applies.
    One matrix gives a tuple of two floats; a (..., 4, 4) stack gives a
    (..., 2) array, with each solver run once over the whole stack.  The
    small eigenvalue is refined through an exact determinant when it is
    tiny relative to the large one.
    """
    k = np.asarray(k, dtype=complex)
    if k.shape[-2:] != (4, 4):
        raise ValueError("covariance must be 4x4")
    stack = k.reshape(-1, 4, 4)
    if not np.isfinite(stack).all():
        raise ValueError("covariance must be finite")
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    skew = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if not np.all(skew <= 1e-10 * scale):
        raise ValueError("covariance must be Hermitian")
    try:
        vals, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError(f"eigensolver failed: {exc}") from exc
    root = (vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    herm = root @ _J_OMEGA4 @ root
    herm = 0.5 * (herm + herm.conj().swapaxes(1, 2))
    lam = _paired(np.abs(np.linalg.eigvalsh(herm)))
    refine = np.flatnonzero((lam[:, 0] > 0.0) & (lam[:, 1] < 1e-2 * lam[:, 0]))
    rows = refine[_sectors_decouple(stack[refine])]
    lam[rows, 1], certified = _small_eigs_certified(stack[rows], lam[rows, 0])
    for i in np.setdiff1d(refine, rows[certified]):
        lam[i, 1] = _small_eig_exact(stack[i], lam[i, 0])
    if k.ndim == 2:
        return float(lam[0, 0]), float(lam[0, 1])
    return lam.reshape(k.shape[:-2] + (2,))


def numeric_symplectic_eigs_direct(k: np.ndarray) -> tuple[float, float]:
    """Same spectrum through the non-Hermitian route |eig(j*Omega*K)|."""
    k = np.asarray(k, dtype=complex)
    try:
        lam = np.abs(np.linalg.eigvals(_J_OMEGA4 @ k))
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError(f"eigensolver failed: {exc}") from exc
    lam1, lam2 = _paired(lam[None])[0]
    return float(lam1), float(lam2)


def _sectors_decouple(stack: np.ndarray) -> np.ndarray:
    """Per matrix of an (m, 4, 4) stack: is it exactly the direct sum of a
    Hermitian x-sector (x1, x2) and p-sector (p1, p2) with a real diagonal?"""
    diagonal = np.diagonal(stack, axis1=1, axis2=2)
    return (~stack[:, 0::2, 1::2].any(axis=(1, 2))
            & ~stack[:, 1::2, 0::2].any(axis=(1, 2))
            & ~diagonal.imag.any(axis=1)
            & (stack[:, 2, 0] == stack[:, 0, 2].conj())
            & (stack[:, 3, 1] == stack[:, 1, 3].conj()))


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker, with
    Veltkamp's split: numpy has no fused multiply-add), barring underflow
    and overflow."""
    ah, bh = (x * _SPLIT - (x * _SPLIT - x) for x in (a, b))
    p, al, bl = a * b, a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _small_eigs_certified(k: np.ndarray, lam1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_small_eig_exact`` over an (m, 4, 4) stack of decoupled matrices
    (``_sectors_decouple``) in double-double arithmetic, and a mask of the
    rows whose rounding of det K a bound proves; the caller takes the others
    exactly.

    A sector determinant a*b - Re(c)^2 - Im(c)^2 is three exact products
    summed to h + l within gamma_4 * S, S the summed magnitudes of the five
    low-order terms.  With u = 2^-53, the sectors' double-double product
    v + r, v a float, is within 5u((|hx| + 5u Sx) Sy + Sx |hy| + 3u |hx hy|)
    of det K (slack over 4u(1 + 5u) and 9u^2 covers the bound's rounding).
    A row is kept where |r| plus that bound is strictly inside half the
    gap below |v|, and every entry and sector determinant is 0 or of binary
    exponent within +-480, so that no product underflows.
    """
    c = k[:, [0, 1], [2, 3]]
    left = np.stack([k[:, [0, 1], [0, 1]].real, c.real, c.imag])  # (3, m, sector)
    right = np.stack([k[:, [2, 3], [2, 3]].real, c.real, c.imag])
    with np.errstate(over="ignore", invalid="ignore"):
        p, e = _two_product(left, right)
        s, q1 = _two_sum(p[0], -p[1])
        s, q2 = _two_sum(s, -p[2])
        tail = np.stack([q1, q2, e[0], -e[1], -e[2]])
        high, low = _two_sum(s, tail.sum(axis=0))
        (hx, hy), (lx, ly), (sx, sy) = high.T, low.T, np.abs(tail).sum(axis=0).T
        ph, pe = _two_product(hx, hy)
        v, r = _two_sum(ph, pe + (hx * ly + lx * hy))
        bound = 5 * _U * ((abs(hx) + 5 * _U * sx) * sy + sx * abs(hy) + 3 * _U * abs(ph))
        safe = [abs(np.frexp(x)[1]) <= 480 for x in (left, high)]  # zero has exponent 0
        certified = (safe[0].all(axis=(0, 2)) & safe[1].all(axis=1)
                     & (abs(r) + bound < 0.5 * (abs(v) - np.nextafter(abs(v), 0.0))))
        return np.sqrt(abs(v)) / lam1, certified


def _gauss_det(rows: list) -> tuple[int, int]:
    """Determinant of a square matrix of Gaussian integers, each an (re, im)
    pair of ints, by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    re = im = 0
    for j, (a, b) in enumerate(rows[0]):
        if a or b:
            c, d = _gauss_det([row[:j] + row[j + 1:] for row in rows[1:]])
            re, im = re + (-1) ** j * (a * c - b * d), im + (-1) ** j * (a * d + b * c)
    return re, im


def _small_eig_exact(k: np.ndarray, lam1: float) -> float:
    """Small symplectic eigenvalue sqrt|det K| / lam1 from the exact det K.

    One power of two 2^e turns all 32 parts of K into Gaussian integers, whose
    determinant 2^4e det K is exact in Python ints.  |det K| is the hypot of
    its two correctly rounded parts: one rounding if K is exactly Hermitian.
    Beyond the float range it is scaled by 4^-n before, and 2^n after the root.
    """
    ratios = [x.as_integer_ratio() for x in np.stack([k.real, k.imag], axis=-1).ravel().tolist()]
    e = max(d.bit_length() for _, d in ratios) - 1  # every d is a power of two
    parts = iter([n << (e + 1 - d.bit_length()) for n, d in ratios])
    det = _gauss_det([[(next(parts), next(parts)) for _ in range(4)] for _ in range(4)])
    bits = max(map(abs, det)).bit_length() - 4 * e - 1
    shift = bits // 2 if abs(bits) > 1000 else 0
    p = 4 * e + 2 * shift
    re, im = (x / (1 << p) if p >= 0 else float(x << -p) for x in det)
    return math.ldexp(math.sqrt(math.hypot(re, im)) / lam1, shift)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    draws: int


# uniform ranges of beta_d, beta_g, beta_f, phi, v_s and v_e, in draw order
_DRAW_RANGES = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 2.0 * math.pi),
                (1.0, 2000.0), (1.0, 20.0))
_LINK = (1e13, 300.0)  # carrier frequency (Hz) and temperature (K) of every draw


def random_branch(rng: np.random.Generator) -> tuple[BranchSet, NoiseModel]:
    """One parameter draw of the standard verification grid: ``random_block``
    of one, in Python scalars."""
    branches, n = random_block(rng, 1)
    return branches[0], replace(n, v_s=n.v_s.item(), v_e=n.v_e.item())


def random_block(rng: np.random.Generator, m: int) -> tuple[BranchSet, NoiseModel]:
    """m successive draws as one branch set with per-branch noise, scaled as
    ``Generator.uniform`` scales (low + (high - low) * u)."""
    low, high = np.array(_DRAW_RANGES).T
    x = low + (high - low) * rng.random((m, len(_DRAW_RANGES)))
    noise = NoiseModel.from_link(*_LINK, v_s=x[:, 4], v_e=x[:, 5])
    return branch_set(x[:, :3], x[:, 3]), noise


def run_verification(draws: int, seed: int = 42) -> list[CheckResult]:
    """Closed forms versus the numeric oracle over a seeded random grid.

    Three checks per storage case: unconditional eigenvalues against the
    covariance eigensolver, conditional eigenvalues against the
    Schur-complement pipeline, and the conditional block matrix itself.

    Draws are taken in blocks of ``VERIFY_BLOCK``, each as one branch set.
    The closed forms run once per block and case through ``qkd.total_skr``,
    the code that production runs; the oracle side (joint covariances,
    stored pairs, Schur complements and one eigensolve) runs on stacks.
    """
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    tol = 1e-8
    rng = np.random.default_rng(seed)
    cases = tuple(AncillaCase)
    kinds = ("eigs_unconditional", "eigs_conditional", "cond_blocks")
    worst = np.zeros((len(cases), len(kinds)))
    for start in range(0, draws, VERIFY_BLOCK):
        m = min(VERIFY_BLOCK, draws - start)
        branches, noise = random_block(rng, m)
        reports = [total_skr(case, branches, noise) for case in cases]
        closed = np.array([[r.rates.lambda_1, r.rates.lambda_2, r.rates.lambda_3,
                            r.rates.lambda_4] for r in reports]).transpose(2, 0, 1)
        blocks = np.stack([r.conditioned.as_matrix() for r in reports], axis=1)
        joint = _joint_stack(np.stack([_joint_entries(case, branches, noise)
                                       for case in cases], axis=1))
        cond = _homodyne_x(joint)
        oracle = numeric_symplectic_eigs(np.stack([joint[..., 2:, 2:], cond], axis=2))
        oracle = oracle.reshape(m, len(cases), 4)
        dev = np.abs(closed - oracle) / np.maximum(np.abs(oracle), 1e-300)
        dev_b = (np.abs(blocks - cond).max(axis=(-2, -1))
                 / np.maximum(1.0, np.abs(cond).max(axis=(-2, -1))))
        block_worst = np.stack([dev[..., :2].max(axis=-1), dev[..., 2:].max(axis=-1),
                                dev_b], axis=-1).max(axis=0)
        worst = np.maximum(worst, block_worst)
    return [CheckResult(name=f"{kind}[{case.value}]",
                        max_deviation=float(worst[c, k]), tolerance=tol,
                        passed=bool(draws == 0 or worst[c, k] < tol), draws=draws)
            for c, case in enumerate(cases) for k, kind in enumerate(kinds)]


def _complex_block(c: complex) -> np.ndarray:
    """Real 2x2 action on (x, p) of multiplying a mode by the complex c."""
    c = complex(c)
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


def paper_mode_map(case: AncillaCase, b: BranchSet) -> np.ndarray:
    """Real 6x6 map of the paper's model from (A, E, E') to (Bob's
    conditioning mode, stored output, kept EPR half).

    The one probe mode E enters every beamsplitter, so on the reflected path
    this map is not symplectic: Bob's mode and the stored output fail to
    commute.
    """
    c_ba, c_be, c_oa, c_oe = (c[0] for c in _mode_coefficients(case, BranchSet.of(b)))
    return _mode_map(3, {(0, 0): _complex_block(c_ba), (0, 1): _complex_block(c_be),
                         (1, 0): _complex_block(c_oa), (1, 1): _complex_block(c_oe)})


def _mode_map(modes: int, ops: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """Map on ``modes`` modes acting as the identity except on the given
    (output mode, input mode) 2x2 blocks."""
    s = np.eye(2 * modes)
    for (r, c), block in ops.items():
        s[2 * r: 2 * r + 2, 2 * c: 2 * c + 2] = block
    return s


def _beamsplitter(beta: float, i: int, j: int) -> np.ndarray:
    """Slot i -> sqrt(beta) i + sqrt(1-beta) j, slot j -> -sqrt(1-beta) i + sqrt(beta) j."""
    t, r = math.sqrt(beta) * np.eye(2), math.sqrt(1.0 - beta) * np.eye(2)
    return _mode_map(REGISTER_MODES, {(i, i): t, (i, j): r, (j, i): -r, (j, j): t})


def _phase_shift(theta: float, i: int) -> np.ndarray:
    return _mode_map(REGISTER_MODES, {(i, i): _complex_block(cmath.exp(1j * theta))})


def independent_symplectic(case: AncillaCase, b: BranchSet) -> np.ndarray:
    """14x14 real symplectic map, one EPR pair per hop, of the receiver path
    of ``case``'s stored hop: direct for the direct case, else reflected.

    After the map, slot A holds Bob's mode on that path, slot E_x the
    eavesdropper's output of hop x, and slot E'_x her kept half of that
    hop's pair.  The direct path is one beamsplitter on (A, E_d).  The
    reflected path is a beamsplitter beta_g on (A, E_g), the RIS phase on A
    and a beamsplitter beta_f on (A, E_f), followed by the reference frames:
    Bob's homodyne is locked to the phase of the signal he receives
    (rotation -phi on A), and Eve references her RIS-to-receiver output the
    same way (-phi on E_f) while counter-rotating her kept half (+phi on
    E'_f).  Local rotations of the stored modes change no entropy.
    """
    if case is AncillaCase.DIRECT:
        return _beamsplitter(b.beta_d, 0, 1)
    network = (_beamsplitter(b.beta_f, 0, 5) @ _phase_shift(b.phi, 0)
               @ _beamsplitter(b.beta_g, 0, 3))
    frames = (_phase_shift(-b.phi, 0) @ _phase_shift(-b.phi, 5)
              @ _phase_shift(b.phi, 6))
    return frames @ network


def independent_input_cov(n: NoiseModel) -> np.ndarray:
    """Register covariance before the network: the transmitted mode (v_a)
    and one two-mode squeezed EPR pair of variance v_e per hop."""
    v = np.zeros((2 * REGISTER_MODES, 2 * REGISTER_MODES))
    v[:2, :2] = n.v_a * np.eye(2)
    epr = math.sqrt(n.v_e ** 2 - 1.0) * _Z
    for probe in (1, 3, 5):
        k = 2 * probe
        v[k: k + 4, k: k + 4] = np.block([[n.v_e * np.eye(2), epr],
                                          [epr, n.v_e * np.eye(2)]])
    return v


def independent_output_cov(case: AncillaCase, b: BranchSet, n: NoiseModel) -> np.ndarray:
    """Register covariance after the network of ``case``'s path, S V S^T."""
    s = independent_symplectic(case, b)
    return s @ independent_input_cov(n) @ s.T


def _independent_joint(case: AncillaCase, b: BranchSet, n: NoiseModel) -> np.ndarray:
    """6x6 covariance over (Bob's conditioning mode, stored output, kept half)."""
    out = {AncillaCase.DIRECT: 1, AncillaCase.ALICE_RIS: 3, AncillaCase.RIS_BOB: 5}[case]
    idx = [0, 1, 2 * out, 2 * out + 1, 2 * out + 2, 2 * out + 3]
    return independent_output_cov(case, b, n)[np.ix_(idx, idx)]


def independent_stored_cov(case: AncillaCase, b: BranchSet,
                           n: NoiseModel) -> np.ndarray:
    """Real 4x4 covariance of the stored pair under independent probes."""
    return _independent_joint(case, b, n)[2:, 2:]


def independent_conditional_cov(case: AncillaCase, b: BranchSet,
                                n: NoiseModel) -> np.ndarray:
    """Stored pair conditioned on Bob's measured x quadrature, independent probes."""
    return _homodyne_x(_independent_joint(case, b, n)).real


def bona_fide_margin(v: np.ndarray) -> float:
    """Smallest eigenvalue of V + i Omega.

    Non-negative (up to rounding) exactly when V is the covariance of a
    quantum state (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).
    """
    omega = symplectic_form(v.shape[0] // 2)
    return float(np.linalg.eigvalsh(v + 1j * omega).min())


def _scaled_paths(paths: tuple[PathSpec, ...], factor: float) -> tuple[PathSpec, ...]:
    """Rescale path lengths (and delays proportionally) by a common factor."""
    return tuple(replace(p, path_length=p.path_length * factor, delay=p.delay * factor)
                 for p in paths)


def scenario_at_distance(base: Scenario, d_ab: float) -> Scenario:
    """Move the endpoints to ``d_ab`` apart: every path of all three channels
    is rescaled by d_ab over the base's Alice-Bob distance, so each leg keeps
    its ratio to it, and the legs follow from the paths."""
    if not d_ab > 0:
        raise ValueError("distance must be > 0")
    factor = d_ab / base.d_alice_bob
    return replace(base, **{name: _scaled_paths(getattr(base, name), factor)
                            for name in ("multipaths_d", "multipaths_g", "multipaths_f")})


def path_loss(path: PathSpec, scenario: Scenario,
              endpoint_gains: tuple[float, float], length: float | None = None) -> float:
    """Power path loss of one path from a free-space link budget, in Python
    floats: the reference of ``channel._path_losses``.

    The spreading term uses the path length in meters; the absorption
    exponent uses it in kilometers since the absorption coefficient is
    quoted in dB/km.  Non-LoS paths are additionally attenuated by the
    roughness factor and the path's Fresnel reflection coefficient.
    ``length`` replaces the path's own length (a path rescaled by a
    distance change).
    """
    g_tx, g_rx = endpoint_gains
    if not (g_tx > 0 and g_rx > 0):
        raise ValueError("endpoint gains must be > 0")
    lam = scenario.wavelength
    d = path.path_length if length is None else length
    try:
        spreading = (lam / (4.0 * math.pi * d)) ** 2
    except OverflowError:  # d below about 1.8e-160 m at 10 THz: reported as non-finite
        spreading = math.inf
    absorption = 10.0 ** (-0.1 * scenario.absorption_db_per_km * (d / 1000.0))
    delta = spreading * g_tx * g_rx * absorption
    if not path.is_los:
        delta *= scenario.roughness * path.fresnel_coeff
    return delta
