import cmath
import math

import numpy as np
import pytest

from ris_cvqkd.channel import ChannelTriple, RisGeometry
from ris_cvqkd.decomposition import branch_params, decompose, make_branch


def _ris(phase=0.0):
    return RisGeometry(k_x=2, k_y=2, spacing_x=1e-5, spacing_y=1e-5,
                       common_phase=phase)


def _random_triple(rng, n_rx=4, n_tx=4, k=4, scale=0.3):
    def mat(rows, cols):
        return scale * (rng.normal(size=(rows, cols))
                        + 1j * rng.normal(size=(rows, cols)))
    return ChannelTriple(h_d=mat(n_rx, n_tx), h_g=mat(k, n_tx), h_f=mat(n_rx, k))


def test_identity_channel_betas():
    eye = np.eye(2, dtype=complex)
    t = ChannelTriple(h_d=eye, h_g=eye, h_f=eye)
    bundles = decompose(t)
    for bundle in bundles:
        assert len(bundle.betas) == 2
        np.testing.assert_allclose(bundle.betas, [1.0, 1.0], atol=1e-14)


def test_rank_one_channel():
    u = np.array([[1.0], [2.0]], dtype=complex)
    v = np.array([[0.5, -1.0]], dtype=complex)
    t = ChannelTriple(h_d=u @ v, h_g=u @ v, h_f=u @ v)
    bundle = decompose(t)[0]
    assert len(bundle.betas) == 1
    assert bundle.betas[0] == pytest.approx((np.linalg.norm(u) * np.linalg.norm(v)) ** 2)


def test_betas_are_the_ranked_full_svd_values():
    # rank 2 in a 4x6 matrix: only the ranked values are kept, and they equal
    # the full SVD's bit for bit
    rng = np.random.default_rng(31)
    h = 0.2 * (rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))) @ (
        rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6)))
    bundle = decompose(ChannelTriple(h_d=h, h_g=h, h_f=h))[0]
    sv = np.linalg.svd(h, full_matrices=True, compute_uv=True)[1]
    assert len(bundle.betas) == 2
    assert bundle.betas.tolist() == np.square(sv[:2]).tolist()


def test_beta_spectrum_idempotent():
    rng = np.random.default_rng(29)
    t = _random_triple(rng)
    first = decompose(t)

    def rebuilt(h):
        u, sv, vh = np.linalg.svd(h)
        return u[:, :sv.size] @ np.diag(sv) @ vh[:sv.size]

    second = decompose(ChannelTriple(h_d=rebuilt(t.h_d), h_g=rebuilt(t.h_g),
                                     h_f=rebuilt(t.h_f)))
    for a, b in zip(first, second):
        np.testing.assert_allclose(a.betas, b.betas, rtol=1e-10, atol=1e-14)


def test_branch_lossless_cascade():
    b = make_branch(1.0, 1.0, 1.0, 0.0)
    assert b.alpha == pytest.approx(1.0)
    assert b.gamma == pytest.approx(0.0)
    assert b.beta_f_tilde == pytest.approx(1.0)


def test_branch_blocked_ris_hop():
    phi = 0.9
    b = make_branch(0.5, 0.3, 0.0, phi)
    assert b.alpha == pytest.approx(0.0)
    assert abs(b.gamma) == pytest.approx(1.0)
    expected = -math.sqrt(1.0 - 0.3) * cmath.exp(1j * phi)
    assert b.beta_f_tilde == pytest.approx(expected)


def test_branch_reference_values():
    # frozen from a 40-digit evaluation of the coefficient definitions
    b = make_branch(0.36, 0.49, 0.25, math.pi / 4)
    assert b.alpha == pytest.approx(
        0.2474873734152916 + 0.2474873734152916j, abs=1e-14)
    assert b.gamma == pytest.approx(
        1.1185130272434906 + 0.2524876234590519j, abs=1e-14)
    assert b.beta_f_tilde == pytest.approx(
        0.0626786078866025 - 0.4373213921133975j, abs=1e-14)


def test_branch_coefficient_identities():
    rng = np.random.default_rng(37)
    for _ in range(300):
        beta_d, beta_g, beta_f = rng.uniform(0.0, 1.0, size=3)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        b = make_branch(beta_d, beta_g, beta_f, phi)
        x = math.sqrt(beta_f * (1.0 - beta_f) * (1.0 - beta_g))
        cos_phi = math.cos(phi)
        assert abs(b.alpha) ** 2 == pytest.approx(beta_g * beta_f, abs=1e-13)
        assert abs(b.gamma) ** 2 == pytest.approx(
            1.0 - beta_f * beta_g + 2.0 * x * cos_phi, abs=1e-12)
        # the tap coefficient magnitude, in both algebraic arrangements
        bt2 = abs(b.beta_f_tilde) ** 2
        assert bt2 == pytest.approx(
            beta_f + (1.0 - beta_g) * (1.0 - beta_f) - 2.0 * x * cos_phi,
            abs=1e-12)
        assert bt2 == pytest.approx(
            (1.0 - beta_g) + beta_g * beta_f - 2.0 * x * cos_phi, abs=1e-12)
        # energy-style sum rules
        assert bt2 + (1.0 - beta_f) * beta_g == pytest.approx(
            1.0 - 2.0 * x * cos_phi, abs=1e-12)
        assert abs(b.alpha) ** 2 + abs(b.gamma) ** 2 == pytest.approx(
            1.0 + 2.0 * x * cos_phi, abs=1e-12)


def test_branch_pairing_descending_order():
    rng = np.random.default_rng(41)
    t = _random_triple(rng, n_rx=5, n_tx=5, k=6, scale=0.05)
    branches, clamped = branch_params(decompose(t), _ris(0.4))
    assert clamped == 0
    for key in ("beta_d", "beta_g", "beta_f"):
        values = [getattr(b, key) for b in branches]
        assert values == sorted(values, reverse=True)
    assert [b.branch_index for b in branches] == list(range(1, len(branches) + 1))
    assert all(b.phi == pytest.approx(0.4) for b in branches)


def test_branch_count_is_min_rank():
    rng = np.random.default_rng(43)
    u = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    v = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
    t = ChannelTriple(h_d=0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))),
                      h_g=0.1 * u @ v, h_f=0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
    branches, _ = branch_params(decompose(t), _ris())
    assert len(branches) == 1


def test_branch_params_clamps_and_counts():
    big = 1.2 * np.eye(2, dtype=complex)
    # beta_g in (1, 1 + 1e-12]: clamped to 1 but not counted
    near = math.sqrt(1.0 + 5e-13) * np.eye(2, dtype=complex)
    t = ChannelTriple(h_d=big, h_g=near, h_f=np.eye(2, dtype=complex))
    bundles = decompose(t)
    assert all(1.0 < beta <= 1.0 + 1e-12 for beta in bundles[1].betas)
    branches, clamped = branch_params(bundles, _ris())
    assert clamped == 2
    assert all(b.beta_d == 1.0 and b.beta_g == 1.0 for b in branches)


def test_make_branch_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_branch(1.5, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        make_branch(0.5, -0.1, 0.5, 0.0)
