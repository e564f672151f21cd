import inspect
import math

import numpy as np
import pytest

import ris_cvqkd
from ris_cvqkd import qkd
from ris_cvqkd.decomposition import BranchSet, make_branch
from ris_cvqkd.qkd import (AncillaCase, AttackModel, NoiseModel,
                           NumericDomainError, PairCov, holevo_h,
                           thermal_occupation, total_skr)

PLANCK = 6.62607015e-34
BOLTZMANN = 1.380649e-23
PAPER = AttackModel.PAPER


def noise(v_s=1000.0, v_e=1.0, v_o=1.506):
    return NoiseModel(n_bar=(v_o - 1.0) / 2.0, v_o=v_o, v_s=v_s, v_e=v_e)


def rate(case, b, n, model=PAPER):
    """The record of one branch, rated by ``total_skr``."""
    return total_skr(case, [b], n, model=model).branches[0]


def _scalars(pair: PairCov) -> PairCov:
    """A pair of a one-branch set with scalar entries."""
    return PairCov(*(tuple(np.ravel(x)[0] for x in part) for part in (pair.a, pair.b, pair.c)))


def stored_pair(case, b, n, model=PAPER) -> PairCov:
    return _scalars(qkd._eve_cov(case, BranchSet.of([b]), n, model))


def conditioned_pair(case, b, n, model=PAPER) -> PairCov:
    return _scalars(total_skr(case, [b], n, model=model).conditioned)


def bob_variances(b, n, model=PAPER):
    return qkd._bob_variances(BranchSet.of([b]), n, model)


# --- thermal occupation -----------------------------------------------------

def test_thermal_occupation_reference_point():
    # frozen from a 40-digit Planck-law evaluation at 10 THz / 300 K
    n_bar = thermal_occupation(1e13, 300.0)
    assert n_bar == pytest.approx(0.2530503391370289, rel=1e-12)
    assert 2.0 * n_bar + 1.0 == pytest.approx(1.5061006782740579, rel=1e-12)


def test_thermal_occupation_classical_limit():
    # k T / (h f) = 100: within 1% of the equipartition value
    f_c = 1e12
    t_e = 100.0 * PLANCK * f_c / BOLTZMANN
    n_bar = thermal_occupation(f_c, t_e)
    assert n_bar == pytest.approx(100.0, rel=0.01)


def test_thermal_occupation_exact_half_quantum():
    # h f / k T = ln 2 makes the occupation exactly one
    f_c = 1e13
    t_e = PLANCK * f_c / (BOLTZMANN * math.log(2.0))
    assert thermal_occupation(f_c, t_e) == pytest.approx(1.0, rel=1e-12)


def test_thermal_occupation_overflow_guard():
    assert thermal_occupation(1e25, 1e-3) == 0.0
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, 300.0)


def test_thermal_occupation_underflowing_temperature():
    # k T underflows to 0: the occupation is exp(-inf) = 0, not a division error
    assert thermal_occupation(1e13, 1e-320) == 0.0


def test_thermal_occupation_rejects_infinite_temperature():
    with pytest.raises(ValueError, match="finite"):
        thermal_occupation(1e13, math.inf)


def test_noise_model_accounting():
    n = NoiseModel.from_link(1e13, 300.0, v_s=1000.0, v_e=1.0)
    assert n.v_a == pytest.approx(n.v_s + n.v_o)
    with pytest.raises(ValueError):
        NoiseModel(n_bar=0.0, v_o=1.0, v_s=1.0, v_e=0.5)


@pytest.mark.parametrize("field", ["v_o", "v_e"])
def test_noise_model_rejects_nan_variance(field):
    variances = {"v_o": 1.0, "v_e": 1.0, field: math.nan}
    with pytest.raises(ValueError, match=field):
        NoiseModel(n_bar=0.0, v_s=1.0, **variances)


# --- receiver variances and mutual information -------------------------------

def test_bob_variances_direct_limits():
    n = noise()
    b = make_branch(1.0, 0.7, 0.3, 0.2)
    bv = bob_variances(b, n)
    assert bv.v_b_d == pytest.approx(n.v_a)
    assert bv.v_b_d_cond == pytest.approx(n.v_o)


def test_bob_variances_lossless_ris():
    n = noise()
    b = make_branch(0.4, 1.0, 1.0, 0.9)
    bv = bob_variances(b, n)
    assert bv.v_b_ris == pytest.approx(n.v_a)
    assert bv.v_b_ris_cond == pytest.approx(n.v_o)


def test_bob_variance_reference_value():
    n = noise()  # v_a = 1001.506
    b = make_branch(0.5, 0.2, 0.2, 0.0)
    assert bob_variances(b, n).v_b_d == pytest.approx(501.253, rel=1e-12)


def test_mutual_info_vanishes_without_coupling():
    n = noise(v_e=1.0)
    b = make_branch(0.0, 0.5, 0.5, 0.1)
    assert rate(AncillaCase.DIRECT, b, n).i_ab_direct == pytest.approx(0.0, abs=1e-15)


def test_mutual_info_transparent_channel():
    n = noise()
    b = make_branch(1.0, 0.5, 0.5, 0.1)
    expected = 0.5 * math.log2(n.v_a / n.v_o)
    assert rate(AncillaCase.DIRECT, b, n).i_ab_direct == pytest.approx(expected, rel=1e-14)


def test_mutual_info_reference_value():
    # frozen: 0.5 * log2(501.253 / 1.253) at 40 digits
    n = noise()
    b = make_branch(0.5, 0.2, 0.2, 0.0)
    assert rate(AncillaCase.DIRECT, b, n).i_ab_direct == pytest.approx(
        4.322004370620228, rel=1e-13)


# --- eavesdropper statistics --------------------------------------------------

def test_eve_output_variance_limits():
    n = noise()
    assert stored_pair(AncillaCase.DIRECT,
                       make_branch(1.0, 0.5, 0.5, 0.0), n).a[0] \
        == pytest.approx(n.v_e)
    assert stored_pair(AncillaCase.ALICE_RIS,
                       make_branch(0.5, 0.0, 0.5, 0.0), n).a[0] \
        == pytest.approx(n.v_a)


def test_eve_output_variance_reference_value():
    # frozen 40-digit evaluation for the reflected-tap case
    n = NoiseModel(n_bar=0.253, v_o=1.506, v_s=1000.0, v_e=1.0)
    b = make_branch(0.36, 0.49, 0.25, math.pi / 4)
    assert stored_pair(AncillaCase.RIS_BOB, b, n).a[0] == pytest.approx(
        368.2486336078866, rel=1e-13)


def test_eve_output_variance_matches_tap_magnitude():
    # the probe coefficient of the stored output equals |beta_f_tilde|^2
    rng = np.random.default_rng(47)
    for _ in range(100):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_e=1.0 + rng.uniform(0, 10))
        direct_part = (1.0 - b.beta_f) * b.beta_g * n.v_a
        v = stored_pair(AncillaCase.RIS_BOB, b, n).a[0]
        assert v == pytest.approx(
            direct_part + abs(b.beta_f_tilde) ** 2 * n.v_e, rel=1e-10)


def test_eve_cov_product_state_at_unit_probe():
    n = noise(v_e=1.0)
    cov = stored_pair(AncillaCase.DIRECT, make_branch(0.7, 0.5, 0.5, 0.3), n)
    assert cov.c[0] == 0.0


def test_eve_cov_direct_reference():
    n = noise(v_e=3.0)
    cov = stored_pair(AncillaCase.DIRECT, make_branch(1.0, 0.5, 0.5, 0.3), n)
    assert cov.c[0] == pytest.approx(math.sqrt(8.0), rel=1e-14)


def test_eve_cov_reflected_tap_reference():
    # frozen: beta_f_tilde * sqrt(3) for (0.49, 0.25, pi/4)
    n = noise(v_e=2.0)
    cov = stored_pair(AncillaCase.RIS_BOB, make_branch(0.36, 0.49, 0.25, math.pi / 4), n)
    assert cov.c[0] == pytest.approx(
        0.1085625334072828 - 0.7574628703771558j, abs=1e-13)


def test_eve_cov_matrix_is_hermitian():
    n = noise(v_e=4.0)
    cov = stored_pair(AncillaCase.RIS_BOB, make_branch(0.2, 0.6, 0.4, 1.1), n)
    m = cov.as_matrix()
    np.testing.assert_allclose(m, m.conj().T)
    assert m[0, 0] == pytest.approx(cov.a[0])


# --- entropy function ---------------------------------------------------------

def test_holevo_h_exact_points():
    assert holevo_h(1.0) == 0.0
    assert holevo_h(3.0) == pytest.approx(2.0, abs=1e-14)


def test_holevo_h_continuity_guard():
    value = holevo_h(1.0 + 1e-12)
    assert 0.0 <= value < 1e-9
    assert not math.isnan(value)


def test_holevo_h_subunity_is_vacuum():
    assert holevo_h(0.3) == 0.0
    assert holevo_h(0.999999) == 0.0
    with pytest.raises(ValueError):
        holevo_h(math.inf)


def _holevo_reference(lam: float) -> float:
    """holevo_h of one eigenvalue in Python floats, branch by branch."""
    eps = lam - 1.0
    if eps >= 1e-8:
        u, w = 0.5 * (lam + 1.0), 0.5 * (lam - 1.0)
        return u * math.log2(u) - w * math.log2(w)
    if lam > 1.0:
        return 0.5 * eps * (math.log2(2.0 / eps) + 1.0 / math.log(2.0))
    return 0.0


@pytest.mark.parametrize("values", [
    [[1.0, 1.0 + 1e-8, 1.0 - 1e-8, 1.0 + 1e-12], [1e3, 2.5, 0.3, 1.0 + 2e-8]],
    [1.0, 1.0 + 1e-12, 1.0 - 1e-8, 0.5],  # no far entry
    np.linspace(1.0, 1e3, 257).tolist(),
])
def test_holevo_h_arrays_equal_scalar_reference(values):
    got = holevo_h(np.array(values))
    want = np.reshape([_holevo_reference(lam) for lam in np.ravel(values).tolist()],
                      np.shape(values))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for lam in np.ravel(values).tolist():
        value = holevo_h(lam)  # a 0-d input gives a float
        assert type(value) is float and value == _holevo_reference(lam)
        assert type(holevo_h(np.float64(lam))) is float


# --- symplectic eigenvalues ----------------------------------------------------

def test_unconditional_eigs_transparent_direct():
    n = noise(v_e=2.0)
    rec = rate(AncillaCase.DIRECT, make_branch(1.0, 0.5, 0.5, 0.0), n)
    lam = (rec.lambda_1, rec.lambda_2)
    assert lam == pytest.approx((1.0, 1.0), abs=1e-12)


def test_unconditional_eigs_unit_probe_product_state():
    n = noise(v_e=1.0)
    b = make_branch(0.3, 0.5, 0.5, 0.0)
    v_out = stored_pair(AncillaCase.DIRECT, b, n).a[0]
    rec = rate(AncillaCase.DIRECT, b, n)
    lam = (rec.lambda_1, rec.lambda_2)
    assert lam[0] == pytest.approx(v_out, rel=1e-12)
    assert lam[1] == pytest.approx(1.0, abs=1e-10)


def _expansion_eigs_single_tap(beta, v_a, v_e):
    """Fully expanded unconditional eigenvalues for a single real tap."""
    radicand = ((1 - beta) * v_a + (1 + beta) * v_e) ** 2 \
        - 4.0 * beta * (v_e ** 2 - 1.0)
    core = (1 - beta) ** 2 * (v_a ** 2 + v_e ** 2) \
        + 2.0 * beta * (1.0 + (1 - beta) * v_a * v_e)
    swing = (1 - beta) * (v_a - v_e) * math.sqrt(radicand)
    return (math.sqrt(0.5 * (core + swing)), math.sqrt(0.5 * (core - swing)))


def test_unconditional_eigs_match_expanded_form():
    rng = np.random.default_rng(53)
    for _ in range(200):
        beta = rng.uniform(0, 1)
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for case, branch in (
                (AncillaCase.DIRECT, make_branch(beta, 0.5, 0.5, 0.0)),
                (AncillaCase.ALICE_RIS, make_branch(0.5, beta, 0.5, 0.0))):
            rec = rate(case, branch, n)
            lam = (rec.lambda_1, rec.lambda_2)
            ref = _expansion_eigs_single_tap(beta, n.v_a, n.v_e)
            assert lam[0] == pytest.approx(ref[0], rel=1e-10)
            assert lam[1] == pytest.approx(ref[1], rel=1e-8, abs=1e-10)


def test_conditional_cov_transparent_direct_reduces_to_unconditional():
    n = noise(v_e=2.5)
    b = make_branch(1.0, 0.5, 0.5, 0.0)
    cov = conditioned_pair(AncillaCase.DIRECT, b, n)
    np.testing.assert_allclose(cov.a, [n.v_e, n.v_e], rtol=1e-14)
    np.testing.assert_allclose(cov.b, [n.v_e, n.v_e], rtol=1e-14)
    corr = math.sqrt(n.v_e ** 2 - 1.0)
    np.testing.assert_allclose(cov.c, [corr, -corr], rtol=1e-14)


def test_conditional_cov_unit_probe_has_no_epr_coupling():
    n = noise(v_e=1.0)
    cov = conditioned_pair(AncillaCase.DIRECT, make_branch(0.4, 0.5, 0.5, 0.0), n)
    assert cov.c[1] == 0.0
    m = cov.as_matrix()
    np.testing.assert_allclose(m, m.conj().T)


def test_conditioning_keeps_the_p_entries():
    # Bob's x-quadrature homodyne rewrites only the x sector of the stored pair
    rng = np.random.default_rng(71)
    for _ in range(200):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for model in AttackModel:
            for case in AncillaCase:
                stored = stored_pair(case, b, n, model)
                cond = conditioned_pair(case, b, n, model)
                assert (cond.a[1], cond.b[1], cond.c[1]) \
                    == (stored.a[1], stored.b[1], stored.c[1])


def test_conditional_eigs_direct_two_code_paths():
    # generic pipeline versus the expanded single-tap closed form
    rng = np.random.default_rng(59)
    for _ in range(300):
        beta = rng.uniform(0, 1)
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        b = make_branch(beta, 0.3, 0.3, 0.2)
        rec = rate(AncillaCase.DIRECT, b, n)
        lam = (rec.lambda_3, rec.lambda_4)
        v_b = beta * n.v_a + (1 - beta) * n.v_e
        core = (1 - beta) * (n.v_a ** 2 + 1.0) * n.v_e + 2.0 * beta * n.v_a
        swing = (1 - beta) * n.v_e * (n.v_a ** 2 - 1.0)
        ref = (math.sqrt(0.5 * (core + swing) / v_b),
               math.sqrt(0.5 * (core - swing) / v_b))
        assert lam[0] == pytest.approx(ref[0], rel=1e-10)
        assert lam[1] == pytest.approx(ref[1], rel=1e-10)


def test_conditional_eigs_direct_small_one_is_unit():
    # the direct case conditions its own output: the small eigenvalue is 1
    rng = np.random.default_rng(61)
    for _ in range(50):
        b = make_branch(rng.uniform(0, 1), 0.5, 0.5, 0.0)
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        rec = rate(AncillaCase.DIRECT, b, n)
        lam = (rec.lambda_3, rec.lambda_4)
        assert lam[1] == pytest.approx(1.0, rel=1e-12)


def test_conditional_transparent_direct_eigs_are_unit():
    n = noise(v_e=3.0)
    b = make_branch(1.0, 0.5, 0.5, 0.0)
    rec = rate(AncillaCase.DIRECT, b, n)
    assert (rec.lambda_3, rec.lambda_4) \
        == pytest.approx((1.0, 1.0), abs=1e-12)


def test_conditional_rejects_zero_conditioning_variance():
    # both reflected-path coefficients vanish at beta_f = 1/2, beta_g = 0,
    # phase pi (exact zeros forced; the trig construction leaves ~1e-16)
    from ris_cvqkd.decomposition import BranchParams

    n = noise()
    ref = make_branch(0.5, 0.0, 0.5, math.pi)
    b = BranchParams(beta_d=0.5, beta_g=0.0, beta_f=0.5, phi=math.pi,
                     alpha=0j, gamma=0j, beta_f_tilde=ref.beta_f_tilde)
    with pytest.raises(NumericDomainError):
        total_skr(AncillaCase.ALICE_RIS, [b], n)


# --- Holevo information ---------------------------------------------------------

def test_holevo_info_zero_leakage_direct():
    n = noise(v_e=5.0)
    b = make_branch(1.0, 0.3, 0.8, 0.7)
    assert abs(rate(AncillaCase.DIRECT, b, n).holevo) < 1e-12


def test_holevo_info_zero_leakage_alice_ris():
    n = noise(v_e=5.0)
    b = make_branch(0.5, 1.0, 0.8, 0.7)
    assert abs(rate(AncillaCase.ALICE_RIS, b, n).holevo) < 1e-12


def test_holevo_info_nonnegative_on_grid():
    rng = np.random.default_rng(67)
    for _ in range(300):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for case in AncillaCase:
            assert rate(case, b, n).holevo >= -1e-9


# --- branch and total key rate ---------------------------------------------------

def _skr_single_expression(case, b, n):
    """Literal one-expression recomposition of the branch rate."""
    x = math.sqrt(b.beta_f * (1 - b.beta_f) * (1 - b.beta_g))
    bracket = 1.0 - b.beta_f * b.beta_g + 2.0 * x * math.cos(b.phi)
    num = (b.beta_d * n.v_a + (1 - b.beta_d) * n.v_e) \
        * (b.beta_g * b.beta_f * n.v_a + bracket * n.v_e)
    den = (b.beta_d * n.v_o + (1 - b.beta_d) * n.v_e) \
        * (b.beta_g * b.beta_f * n.v_o + bracket * n.v_e)
    return 0.5 * math.log2(num / den) - rate(case, b, n).holevo


def test_branch_skr_transparent_link():
    n = noise(v_e=2.0)
    b = make_branch(1.0, 1.0, 1.0, 0.0)
    for case in AncillaCase:
        rec = rate(case, b, n)
        assert rec.skr == pytest.approx(math.log2(n.v_a / n.v_o), rel=1e-12)


def test_branch_skr_dead_link():
    n = noise(v_e=1.0)
    rec = rate(AncillaCase.DIRECT, make_branch(0.0, 0.0, 0.0, 0.0), n)
    assert rec.skr == pytest.approx(0.0, abs=1e-12)


def test_branch_skr_matches_single_expression():
    rng = np.random.default_rng(71)
    for _ in range(300):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = noise(v_s=rng.uniform(1, 2000), v_e=1.0 + rng.uniform(0, 19))
        for case in AncillaCase:
            rec = rate(case, b, n)
            assert rec.skr == pytest.approx(
                _skr_single_expression(case, b, n), abs=1e-10)


def test_branch_record_carries_intermediates():
    n = noise(v_e=2.0)
    b = make_branch(0.4, 0.6, 0.3, 0.8)
    rec = rate(AncillaCase.ALICE_RIS, b, n)
    assert rec.skr == pytest.approx(
        rec.i_ab_direct + rec.i_ab_ris - rec.holevo, rel=1e-14)
    assert rec.lambda_1 >= rec.lambda_2
    assert rec.lambda_3 >= rec.lambda_4


def test_total_skr_single_branch_equals_branch():
    n = noise()
    b = make_branch(0.5, 0.5, 0.5, 0.3)
    report = total_skr(AncillaCase.RIS_BOB, [b], n)
    assert report.total_skr == rate(AncillaCase.RIS_BOB, b, n).skr


def test_total_skr_duplicate_branches_exactly_additive():
    n = noise()
    b = make_branch(0.37, 0.21, 0.55, 1.2)
    single = total_skr(AncillaCase.RIS_BOB, [b], n).total_skr
    double = total_skr(AncillaCase.RIS_BOB, [b, b], n).total_skr
    assert double == 2.0 * single  # exact float equality


def test_total_skr_report_counters():
    n = noise(v_e=1.0)
    # reflected tap dips below vacuum here: negativity is counted, not fatal
    b = make_branch(0.5, 1e-6, 0.5, 0.0)
    report, = total_skr(AncillaCase.RIS_BOB, [b], n).split([1], [2])
    assert report.warnings.beta_clamped == 2
    assert report.warnings.eigen_negativity >= 1
    assert report.warnings.total >= 3


def test_independent_model_rates():
    # one EPR pair per hop: the reflected probes add incoherently, the RIS
    # phase drops out, the direct hop is the paper's, and no eigenvalue
    # goes sub-vacuum where the paper model's does
    model = AttackModel.INDEPENDENT
    n = noise(v_e=2.0)
    b = make_branch(0.3, 0.6, 0.45, 1.1)
    prod = 0.6 * 0.45
    bv = bob_variances(b, n, model)
    assert bv.v_b_ris == pytest.approx(prod * n.v_a + (1 - prod) * n.v_e, rel=1e-14)
    assert bv.v_b_ris_cond == pytest.approx(prod * n.v_o + (1 - prod) * n.v_e,
                                            rel=1e-14)
    assert bv.v_b_d == bob_variances(b, n).v_b_d
    for case in AncillaCase:
        rec = rate(case, b, n, model)
        rotated = rate(case, make_branch(0.3, 0.6, 0.45, 2.9), n, model)
        assert rec.skr == pytest.approx(rotated.skr, rel=1e-12)
        assert rec.skr == pytest.approx(
            rec.i_ab_direct + rec.i_ab_ris - rec.holevo, rel=1e-14)
        assert total_skr(case, [b, b], n, model=model).total_skr == 2.0 * rec.skr
    assert rate(AncillaCase.DIRECT, b, n, model).holevo == \
        rate(AncillaCase.DIRECT, b, n).holevo
    tap = make_branch(0.5, 1e-6, 0.5, 0.0)
    report = total_skr(AncillaCase.RIS_BOB, [tap], noise(v_e=1.0), model=model)
    assert report.warnings.eigen_negativity == 0


# --- phase symmetries ------------------------------------------------------------

def test_eigenvalues_even_and_periodic_in_phase():
    rng = np.random.default_rng(73)
    for _ in range(100):
        betas = rng.uniform(0, 1, size=3)
        phi = rng.uniform(0, 2 * math.pi)
        n = noise(v_s=rng.uniform(1, 500), v_e=1.0 + rng.uniform(0, 9))
        for case in AncillaCase:
            plus = make_branch(*betas, phi)
            minus = make_branch(*betas, -phi)
            wrapped = make_branch(*betas, phi + 2 * math.pi)
            a, bb, cc = ((rec.lambda_1, rec.lambda_2, rec.lambda_3, rec.lambda_4)
                         for rec in (rate(case, br, n) for br in (plus, minus, wrapped)))
            assert a == pytest.approx(bb, rel=1e-9, abs=1e-12)
            assert a == pytest.approx(cc, rel=1e-9, abs=1e-12)


def test_skr_even_and_periodic_in_phase():
    rng = np.random.default_rng(79)
    n = noise()
    for _ in range(50):
        betas = rng.uniform(0, 1, size=3)
        phi = rng.uniform(0, 2 * math.pi)
        for case in AncillaCase:
            ref = rate(case, make_branch(*betas, phi), n).skr
            neg = rate(case, make_branch(*betas, -phi), n).skr
            per = rate(case, make_branch(*betas, phi + 2 * math.pi), n).skr
            assert ref == pytest.approx(neg, rel=1e-9, abs=1e-12)
            assert ref == pytest.approx(per, rel=1e-9, abs=1e-12)


# --- rating surface ----------------------------------------------------------------

def test_total_skr_is_the_only_rating_entry_point():
    public = {name for name, obj in vars(qkd).items()
              if inspect.isfunction(obj) and obj.__module__ == qkd.__name__
              and not name.startswith("_")}
    assert public == {"thermal_occupation", "holevo_h", "total_skr"}
    retired = {"branch_skr", "bob_variances", "eve_output_variance", "eve_cov",
               "conditional_cov", "symplectic_eigs_unconditional",
               "symplectic_eigs_conditional", "mutual_info_ab"}
    assert retired.isdisjoint(ris_cvqkd.__all__)
