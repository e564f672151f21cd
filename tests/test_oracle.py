import ast
import cmath
import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_cvqkd import oracle, qkd
from ris_cvqkd.decomposition import BranchSet, make_branch
from ris_cvqkd.oracle import (REGISTER_MODES, bona_fide_margin,
                              conditional_cov_oracle,
                              independent_conditional_cov,
                              independent_output_cov, independent_stored_cov,
                              independent_symplectic, joint_cov,
                              numeric_symplectic_eigs,
                              numeric_symplectic_eigs_direct, paper_mode_map,
                              random_branch, run_verification,
                              symplectic_form)
from ris_cvqkd.qkd import AncillaCase, AttackModel, NoiseModel, PairCov, total_skr

PAPER = AttackModel.PAPER


def noise(v_s=1000.0, v_e=1.0, v_o=1.506):
    return NoiseModel(n_bar=(v_o - 1.0) / 2.0, v_o=v_o, v_s=v_s, v_e=v_e)


def stored_matrix(case, b, n, model=PAPER):
    """The closed-form stored pair of one branch as a 4x4 matrix."""
    return qkd._eve_cov(case, BranchSet.of([b]), n, model).as_matrix()[0]


def closed_forms(case, b, n, model=PAPER):
    """One branch rated by ``total_skr``: its record and its conditioned
    pair as a 4x4 matrix."""
    report = total_skr(case, [b], n, model=model)
    return report.branches[0], report.conditioned.as_matrix()[0]


def test_identity_covariance():
    lam = numeric_symplectic_eigs(np.eye(4, dtype=complex))
    assert lam == pytest.approx((1.0, 1.0), abs=1e-12)


def test_two_mode_squeezed_vacuum_is_pure():
    r = 0.8
    v, corr = math.cosh(2 * r), math.sinh(2 * r)
    cov = PairCov(a=(v, v), b=(v, v), c=(corr, -corr))
    lam = numeric_symplectic_eigs(cov.as_matrix())
    assert lam == pytest.approx((1.0, 1.0), abs=1e-10)


def test_eigen_routines_agree():
    rng = np.random.default_rng(83)
    for _ in range(100):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for case in AncillaCase:
            k = stored_matrix(case, b, n)
            a = numeric_symplectic_eigs(k)
            d = numeric_symplectic_eigs_direct(k)
            assert a == pytest.approx(d, rel=1e-7, abs=1e-9)


def test_plus_minus_pairing_of_raw_spectrum():
    rng = np.random.default_rng(89)
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for _ in range(50):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 100), v_e=1.0 + rng.uniform(0, 5))
        k = stored_matrix(AncillaCase.RIS_BOB, b, n)
        raw = np.sort(np.abs(np.linalg.eigvals(1j * omega @ k)))
        assert raw[0] == pytest.approx(raw[1], rel=1e-7, abs=1e-9)
        assert raw[2] == pytest.approx(raw[3], rel=1e-7, abs=1e-9)


def test_rejects_bad_covariance():
    with pytest.raises(ValueError):
        numeric_symplectic_eigs(np.eye(3, dtype=complex))
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 5.0
    with pytest.raises(ValueError):
        numeric_symplectic_eigs(skew)


def test_joint_cov_is_hermitian_and_psd():
    rng = np.random.default_rng(97)
    for _ in range(50):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for case in AncillaCase:
            j = joint_cov(case, b, n)
            np.testing.assert_allclose(j, j.conj().T, atol=1e-12)
            eigs = np.linalg.eigvalsh(j)
            assert eigs.min() > -1e-9 * max(1.0, eigs.max())


def test_joint_cov_diagonal_matches_scalar_statistics():
    n = noise(v_e=3.5)
    b = make_branch(0.3, 0.7, 0.2, 0.9)
    for case in AncillaCase:
        j = joint_cov(case, b, n)
        bv = qkd._bob_variances(BranchSet.of([b]), n, PAPER)
        expected_vb = bv.v_b_d if case is AncillaCase.DIRECT else bv.v_b_ris
        assert j[0, 0].real == pytest.approx(expected_vb, rel=1e-12)
        assert j[2, 2].real == pytest.approx(
            stored_matrix(case, b, n)[0, 0].real, rel=1e-12)
        assert j[4, 4].real == pytest.approx(n.v_e)


def test_conditioning_with_closed_tap_returns_unconditioned():
    # direct-path conditioning decouples when Bob's mode carries no probe
    # and no signal overlap with the stored pair
    n = noise(v_e=2.0)
    b = make_branch(1.0, 0.4, 0.6, 0.5)
    sigma = conditional_cov_oracle(AncillaCase.DIRECT, b, n)
    unconditioned = stored_matrix(AncillaCase.DIRECT, b, n)
    np.testing.assert_allclose(sigma, unconditioned, atol=1e-12)


def test_conditional_oracle_matches_closed_blocks():
    rng = np.random.default_rng(101)
    for _ in range(200):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for case in AncillaCase:
            oracle_matrix = conditional_cov_oracle(case, b, n)
            closed = closed_forms(case, b, n)[1]
            scale = max(1.0, float(np.abs(oracle_matrix).max()))
            assert np.abs(oracle_matrix - closed).max() / scale < 1e-8


def test_closed_form_eigenvalues_match_oracle():
    rng = np.random.default_rng(103)
    for _ in range(200):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for case in AncillaCase:
            rec, _ = closed_forms(case, b, n)
            closed_u = (rec.lambda_1, rec.lambda_2)
            oracle_u = numeric_symplectic_eigs(stored_matrix(case, b, n))
            assert closed_u == pytest.approx(oracle_u, rel=1e-8)
            closed_c = (rec.lambda_3, rec.lambda_4)
            oracle_c = numeric_symplectic_eigs(conditional_cov_oracle(case, b, n))
            assert closed_c == pytest.approx(oracle_c, rel=1e-8)


def test_run_verification_zero_draws():
    results = run_verification(0)
    assert all(check.passed for check in results)
    assert all(check.draws == 0 for check in results)


def test_run_verification_passes_on_seeded_grid():
    results = run_verification(200, seed=42)
    assert all(check.passed for check in results)
    assert all(check.max_deviation < 1e-8 for check in results)


def test_run_verification_detects_corrupted_closed_form(monkeypatch):
    # flip the sign of the first closed-form eigenvalue of case g
    def flip_sign(case, branches, noise):
        report = qkd.total_skr(case, branches, noise)
        if case is not AncillaCase.ALICE_RIS:
            return report
        rates, cond = report._rated
        rates = dataclasses.replace(rates, lambda_1=-rates.lambda_1)
        return dataclasses.replace(report, _rated=(rates, cond))

    monkeypatch.setattr(oracle, "total_skr", flip_sign)
    results = run_verification(50, seed=42)
    by_name = {check.name: check for check in results}
    assert not by_name["eigs_unconditional[g]"].passed
    assert by_name["eigs_unconditional[d]"].passed


@pytest.mark.parametrize("draws", [0, 1, 200, 513])
def test_blocks_and_chunks_change_no_bit(monkeypatch, draws):
    # 200 and 513 end in a partial chunk and a partial block at every size
    default = run_verification(draws, seed=42)
    for block, chunk in ((7, 3), (1, 1)):
        monkeypatch.setattr(oracle, "VERIFY_BLOCK", block)
        monkeypatch.setattr(oracle, "VERIFY_CHUNK", chunk)
        assert run_verification(draws, seed=42) == default


def test_verification_memory_does_not_grow_with_the_draws():
    run_verification(oracle.VERIFY_BLOCK)  # warm-up: first-use imports and caches
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            run_verification(blocks * oracle.VERIFY_BLOCK)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_verification_does_not_import_numpy_ma():
    # a fresh process: another test may already have imported numpy.ma here
    src = str(pathlib.Path(oracle.__file__).resolve().parents[1])
    code = ("import sys\nfrom ris_cvqkd.oracle import run_verification\n"
            "run_verification(64)\nprint('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]


# --- stacked eigensolver and exact sector determinant -------------------------

def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(oracle, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_stacked_eigs_match_per_matrix_calls_bit_for_bit():
    rng = np.random.default_rng(127)
    stack = np.empty((60, 3, 2, 4, 4), dtype=complex)
    for i in range(60):
        b, n = random_branch(rng)
        for c, case in enumerate(AncillaCase):
            stack[i, c, 0] = joint_cov(case, b, n)[2:, 2:]
            stack[i, c, 1] = conditional_cov_oracle(case, b, n)
    lam = numeric_symplectic_eigs(stack)
    assert lam.shape == (60, 3, 2, 2)
    # the grid must reach the refinement of the small eigenvalue
    assert np.any(lam[..., 1] < 1e-2 * lam[..., 0])
    for index in np.ndindex(stack.shape[:3]):
        single = numeric_symplectic_eigs(stack[index])
        assert all(type(x) is float for x in single)
        assert single == tuple(lam[index])


def _exact_det(k):
    """det K of a decoupled 4x4 covariance, exactly."""
    f = Fraction
    return math.prod(f(s[0, 0].real) * f(s[1, 1].real) - f(s[0, 1].real) ** 2
                     - f(s[0, 1].imag) ** 2 for s in (k[0::2, 0::2], k[1::2, 1::2]))


def _reference_small_eig(k, lam1):
    """sqrt|det K| / lam1 of a decoupled covariance, from a 50-digit square
    root of its exact determinant."""
    det = abs(_exact_det(k))
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.mpf(det.numerator) / det.denominator)) / lam1


def test_exact_sector_small_eig_matches_extended_precision():
    r = 4.0  # near-pure two-mode squeezed state: det K cancels to about 1
    v, corr = math.cosh(2 * r), math.sinh(2 * r)
    k = PairCov(a=(v, v), b=(v, v), c=(corr, -corr)).as_matrix()
    assert oracle._sectors_decouple(k[None])[0]
    lam1, _ = numeric_symplectic_eigs(k)
    exact = oracle._small_eig_exact(k, lam1)
    reference = _reference_small_eig(k, lam1)
    assert abs(exact - reference) <= 1e-15 * reference


def _routes(monkeypatch):
    """Counts of the small-eigenvalue refinement routes, read as (rows
    through the batched pass, calls of the exact route)."""
    batched = _count_calls(monkeypatch, "_small_eigs_certified")
    exact = _count_calls(monkeypatch, "_small_eig_exact")
    return lambda: (sum(len(args[0]) for args in batched), len(exact))


@pytest.mark.parametrize("s", [1.0, 1e100, 1e-100])
def test_exact_sector_small_eig_holds_beyond_float_range(s):
    # det K is about 0.04 s^4: beyond the float range at 1e100 and 1e-100
    k = PairCov(a=(100.0 * s, 100.0 * s), b=(s, s), c=(9.99 * s, -9.99 * s)).as_matrix()
    lam1, lam2 = numeric_symplectic_eigs(k)
    exact = oracle._small_eig_exact(k, lam1)
    reference = _reference_small_eig(k, lam1)
    assert abs(exact - reference) <= 1e-15 * reference
    assert lam2 == exact
    assert lam2 == pytest.approx(2.019e-3 * s, rel=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_covariance_is_rejected_by_name(bad):
    stack = np.stack([np.eye(4, dtype=complex)] * 2)
    stack[1, 0, 2] = stack[1, 2, 0] = bad
    with pytest.raises(ValueError, match="covariance must be finite"):
        numeric_symplectic_eigs(stack)


def _rotate_mode_1(k, theta=0.3):
    """k with mode 1 rotated by theta: a local rotation keeps the symplectic
    spectrum but mixes mode 1's x and p quadratures."""
    rot = np.eye(4)
    rot[:2, :2] = [[math.cos(theta), -math.sin(theta)],
                   [math.sin(theta), math.cos(theta)]]
    return rot @ k @ rot.T


def test_cross_quadrature_terms_take_extended_precision_fallback(monkeypatch):
    # a sub-vacuum pair (lam2 / lam1 ~ 2e-5) whose rotation mixes x1 with p2
    k = PairCov(a=(100.0, 100.0), b=(1.0, 1.0), c=(9.99, -9.99)).as_matrix()
    mixed = _rotate_mode_1(k)
    assert mixed[0, 3] != 0.0
    routes = _routes(monkeypatch)
    lam = numeric_symplectic_eigs(mixed)
    assert routes() == (0, 1)
    assert lam[1] < 1e-2 * lam[0]
    assert lam == pytest.approx(numeric_symplectic_eigs_direct(mixed), rel=1e-7)
    assert lam == pytest.approx(numeric_symplectic_eigs(k), rel=1e-9)
    assert routes() == (1, 1)


@pytest.mark.parametrize("spectrum, lam2", [
    ((2.0 ** 600, 2.0 ** 601, 2.0 ** -10, 2.0 ** -11), 2.0 ** -10.5),
    ((1.0, 2.0, 2.0 ** -600, 2.0 ** -601), 2.0 ** -600.5),
])
def test_spread_entries_that_do_not_decouple_keep_the_small_eigenvalue(spectrum, lam2):
    # a product state, sqrt(x p) per mode, whose rotation of mode 1 puts
    # x-p terms in its block; an LU with a relative pivot threshold reads
    # its determinant as 0
    k = _rotate_mode_1(np.diag(spectrum).astype(complex))
    assert not oracle._sectors_decouple(k[None])[0]
    assert abs(numeric_symplectic_eigs(k)[1] - lam2) <= 1e-15 * lam2


def test_refinement_runs_without_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)
    k = PairCov(a=(100.0, 100.0), b=(1.0, 1.0), c=(9.99, -9.99)).as_matrix()
    lam = numeric_symplectic_eigs(np.stack([_rotate_mode_1(k), k]))
    assert lam[0] == pytest.approx(lam[1], rel=1e-9)
    assert all(check.passed for check in run_verification(64))


def test_run_verification_never_takes_extended_precision(monkeypatch):
    routes = _routes(monkeypatch)
    results = run_verification(200, seed=42)
    assert all(check.passed for check in results)
    batched, exact = routes()
    assert batched > 0
    assert exact == 0


def test_batched_refinement_equals_exact_route_on_verification_grid(monkeypatch):
    seen = []
    batched = oracle._small_eigs_certified

    def recorded(k, lam1):
        small, certified = batched(k, lam1)
        seen.append((k, lam1, small, certified))
        return small, certified

    monkeypatch.setattr(oracle, "_small_eigs_certified", recorded)
    run_verification(2000, seed=42)
    assert sum(len(k) for k, *_ in seen) > 1000
    for k, lam1, small, certified in seen:
        assert certified.all()
        exact = [oracle._small_eig_exact(m, l) for m, l in zip(k, lam1)]
        assert small.tolist() == exact


def _decoupled(x, p):
    """4x4 covariance from an x-sector and a p-sector, each (a, b, c) for
    [[a, c], [conj(c), b]] over (mode 1, mode 2)."""
    k = np.zeros((4, 4), dtype=complex)
    for q, (a, b, c) in enumerate((x, p)):
        k[q, q], k[q + 2, q + 2], k[q, q + 2], k[q + 2, q] = a, b, c, np.conj(c)
    return k


_WIDE = (2.0 ** 10, 2.0 ** -10, 0.0)  # a p-sector with det 1 and lam1 of 2^10
FALLBACK_ROWS = {
    # det K = (1 + 2^-27)(1 + 2^-26) lies exactly halfway between two floats
    "midpoint": ((2.0 ** 10 * (1 + 2.0 ** -27), 2.0 ** -10, 0.0),
                 (2.0 ** 10 * (1 + 2.0 ** -26), 2.0 ** -10, 0.0)),
    # det K = 1 - 2^-54 + 2^-74 rounds up to 1, 2^-74 past the midpoint of the
    # half-width gap below 1
    "below-power-of-two": (tuple(math.ldexp(n, -37) for n in (
        4503599627370839, 4231242091113175, 4365297273492796)), _WIDE),
    "zero-det": ((2.0 ** 10, 2.0 ** -10, 1.0), _WIDE),
    # det K = 1 exactly, but the entries lie beyond the pass's +-480 exponents
    "spread-entries": ((2.0 ** 600, 2.0 ** -600, 0.0), (2.0 ** 600, 2.0 ** -600, 0.0)),
    "huge-det": ((2.0 ** 600, 2.0 ** -10, 0.0), (2.0 ** 600, 2.0 ** -10, 0.0)),
    "tiny-det": ((1.0, 2.0 ** -600, 0.0), (1.0, 2.0 ** -600, 0.0)),
}


def test_unproven_roundings_take_the_exact_route(monkeypatch):
    stack = np.stack([_decoupled(*row) for row in FALLBACK_ROWS.values()])
    det = dict(zip(FALLBACK_ROWS, map(_exact_det, stack)))
    assert det["midpoint"] - Fraction(1 + 3 * 2.0 ** -27) == Fraction(2.0 ** -53)
    assert math.ulp(1 + 3 * 2.0 ** -27) == 2.0 ** -52
    assert 1 - Fraction(2.0 ** -54) < det["below-power-of-two"] < 1
    assert (det["zero-det"], det["spread-entries"], det["huge-det"], det["tiny-det"]) == (
        0, 1, Fraction(2) ** 1180, Fraction(2) ** -1200)
    _, certified = oracle._small_eigs_certified(stack, np.ones(len(stack)))
    assert not certified.any()
    routes = _routes(monkeypatch)
    lam = numeric_symplectic_eigs(stack)
    assert routes() == (len(stack), len(stack))
    for k, (lam1, lam2) in zip(stack, lam):
        reference = _reference_small_eig(k, lam1)
        assert abs(lam2 - reference) <= 1e-15 * reference


def _sector(a, b, closeness, angle):
    """(a, b, c) with |c| = (1 - closeness) sqrt(ab): a closeness near 0
    cancels the sector determinant a*b - |c|^2."""
    return a, b, (1.0 - closeness) * math.sqrt(a) * math.sqrt(b) * cmath.exp(1j * angle)


# the wide range crosses the batched pass's entry bounds; the narrow one stays inside
_MAGNITUDES = st.floats(2.0 ** -600, 2.0 ** 600) | st.floats(2.0 ** -20, 2.0 ** 20)
_SECTORS = st.builds(_sector, _MAGNITUDES, _MAGNITUDES,
                     st.integers(0, 70).map(lambda n: 2.0 ** -n), st.floats(0.0, 2.0 * math.pi))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_SECTORS, _SECTORS)
def test_certified_rows_round_det_k_as_the_exact_route(x, p):
    k = _decoupled(x, p)
    small, certified = oracle._small_eigs_certified(k[None], np.array([1.0]))
    if certified[0]:
        assert small[0] == oracle._small_eig_exact(k, 1.0)


# --- independent-probe attack model ------------------------------------------

def test_independent_model_is_symplectic_and_bona_fide():
    omega = symplectic_form(REGISTER_MODES)
    rng = np.random.default_rng(107)
    for _ in range(200):
        b, n = random_branch(rng)
        for case in (AncillaCase.DIRECT, AncillaCase.RIS_BOB):  # one case per path
            s = independent_symplectic(case, b)
            assert np.abs(s @ omega @ s.T - omega).max() <= 1e-12
            v = independent_output_cov(case, b, n)
            assert bona_fide_margin(v) >= -1e-12 * np.abs(v).max()
        for case in AncillaCase:
            cond = independent_conditional_cov(case, b, n)
            assert bona_fide_margin(cond) >= -1e-12 * np.abs(cond).max()


def test_independent_closed_forms_match_symplectic_oracle():
    model = AttackModel.INDEPENDENT
    rng = np.random.default_rng(109)
    for _ in range(200):
        b, n = random_branch(rng)
        for case in AncillaCase:
            stored = independent_stored_cov(case, b, n)
            cond = independent_conditional_cov(case, b, n)
            rec, conditioned = closed_forms(case, b, n, model)
            for closed, reference in ((stored_matrix(case, b, n, model), stored),
                                      (conditioned, cond)):
                scale = max(1.0, float(np.abs(reference).max()))
                assert np.abs(closed - reference).max() / scale < 1e-8
            assert (rec.lambda_1, rec.lambda_2) == \
                pytest.approx(numeric_symplectic_eigs(stored), rel=1e-8)
            assert (rec.lambda_3, rec.lambda_4) == \
                pytest.approx(numeric_symplectic_eigs(cond), rel=1e-8)


def test_paper_reflected_map_is_not_symplectic():
    # the shared probe leaves Bob's reflected mode and the stored output with
    # a nonzero commutator; the (Bob, output) block of M Omega M^T is J times
    # that commutator, so its spectral norm is the commutator's modulus
    omega = symplectic_form(3)
    rng = np.random.default_rng(113)
    for _ in range(100):
        b, _ = random_branch(rng)
        rot = cmath.exp(1j * b.phi)
        commutator = {
            AncillaCase.DIRECT: 0.0,
            AncillaCase.ALICE_RIS: math.sqrt(b.beta_g * (1.0 - b.beta_f)),
            AncillaCase.RIS_BOB: abs(math.sqrt(1.0 - b.beta_g)
                                     * (b.beta_f * rot - (1.0 - b.beta_f) / rot)),
        }
        for case in AncillaCase:
            m = paper_mode_map(case, b)
            defect = m @ omega @ m.T - omega
            assert np.linalg.norm(defect[:2, 2:4], 2) == \
                pytest.approx(commutator[case], abs=1e-12)
            if case is AncillaCase.DIRECT:
                assert np.abs(defect).max() <= 1e-12
            else:
                assert np.abs(defect).max() > 1e-12


PACKAGE = pathlib.Path(oracle.__file__).parent


def _names(tree: ast.AST) -> set[str]:
    """Every identifier ``tree`` reads, defines or imports, with the last
    component of every module it imports from."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.ImportFrom):
            out.add((node.module or "").rsplit(".", 1)[-1])
    return out


def test_references_are_independent_of_the_code_they_check():
    # the oracle checks the sweeps and searches, so it computes nothing with them, and
    # the default leg ratios are a config default that no rescale reads
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    imported = set()
    for node in ast.walk(trees["oracle.py"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= _names(node)
    assert not imported & {"experiments", "cli"}
    assert [name for name, tree in sorted(trees.items())
            if "GEOMETRY_RATIOS" in _names(tree)] == ["config.py"]
