import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_cvqkd.channel import (ChannelTriple, RisGeometry, build_channels, channel_factors,
                               cores_at)
from ris_cvqkd.config import default_scenario
from ris_cvqkd import oracle
from ris_cvqkd.decomposition import (BranchParams, BranchSet, branch_params, branch_set,
                                     decompose, make_branch, singular_values)
from ris_cvqkd.qkd import AncillaCase, NoiseModel, total_skr


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
    with pytest.raises(ValueError, match="beta_g=1.2 outside"):
        branch_set(np.array([[0.2, 0.3, 0.4], [0.1, 1.2, 0.3]]), 0.0)


UNDERFLOW = 1e3  # a path 1000x longer: 4 km at least, 10**-400 of absorption


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 8), side=st.integers(1, 4),
       offsets=st.tuples(*[st.integers(-3, 3)] * 3),
       scale=st.sampled_from([1.0, 0.25, 3.0, UNDERFLOW]))
@example(n=6, side=3, offsets=(-3, -3, -3), scale=1.0)  # L < n, K
@example(n=6, side=3, offsets=(0, 0, 0), scale=0.25)  # L = min(n, K)
@example(n=6, side=3, offsets=(3, 3, 3), scale=3.0)  # L > min(n, K)
@example(n=4, side=2, offsets=(1, 0, -1), scale=UNDERFLOW)
def test_core_singular_values_match_dense_matrix(n, side, offsets, scale):
    # L paths per channel around min(n, K); the transmitter-to-RIS channel has
    # the RIS on its arrival side, the RIS-to-receiver one on its departure side
    k = side * side
    counts = [max(1, n + offsets[0]), max(1, min(n, k) + offsets[1]),
              max(1, min(n, k) + offsets[2])]
    base = default_scenario(tx_antennas=n, rx_antennas=n, ris_elements_x=side,
                            ris_elements_y=side, extra_paths_d=counts[0] - 1,
                            extra_paths_g=counts[1] - 1, extra_paths_f=counts[2] - 1)
    names = ("multipaths_d", "multipaths_g", "multipaths_f")
    scaled = dataclasses.replace(base, **{name: tuple(
        dataclasses.replace(p, path_length=p.path_length * scale, delay=p.delay * scale)
        for p in getattr(base, name)) for name in names})
    dense = decompose(build_channels(scaled))
    cores = [values[0, :ranks[0]] for values, ranks in
             map(singular_values, cores_at(channel_factors(base), [scale]))]
    for want, got in zip(dense, cores):
        # the same rank; every singular value within 1e-13 of the largest
        # (about 450 ulp; 1000 seeded draws of this test deviated by 6.7 ulp at most)
        assert len(got) == len(want.betas)
        if scale == UNDERFLOW:  # every path loss is 0: no branch
            assert len(got) == 0
            continue
        sv_want, sv_got = np.sqrt(want.betas), np.sqrt(got)
        assert np.all(np.abs(sv_got - sv_want) <= 1e-13 * sv_want[0])


def _array_set():
    rng = np.random.default_rng(47)
    return branch_set(rng.random((5, 3)), rng.random(5) * 2.0 * math.pi)


def test_one_branch_sets_hold_python_scalars():
    branches = _array_set()
    kinds = (float,) * 4 + (complex,) * 3
    for i, b in enumerate(branches):
        assert [type(getattr(b, f.name)) for f in dataclasses.fields(b)] == list(kinds)
        assert b.beta_g == branches.beta_g[i] and b.alpha == branches.alpha[i]
    assert len(list(branches)) == len(branches) == 5


def test_of_rebuilds_the_array_set_bit_for_bit():
    branches = _array_set()
    rebuilt = BranchSet.of(list(branches))
    for f in dataclasses.fields(BranchSet):
        want, got = getattr(branches, f.name), getattr(rebuilt, f.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rebuilt.betas.tobytes() == branches.betas.tobytes()
    empty = BranchSet.of([])
    assert len(empty) == 0 and empty.betas.shape == (0, 3)
    assert [getattr(empty, f.name).dtype for f in dataclasses.fields(BranchSet)] \
        == [np.dtype(float)] * 4 + [np.dtype(complex)] * 3


def test_of_passes_a_lone_array_set_through():
    branches = _array_set()
    assert BranchSet.of(branches) is branches
    assert BranchSet.of([branches]) is branches
    assert BranchParams is BranchSet


def test_keyword_record_rates_alone_in_a_list_and_joined():
    # built field by field with cmath, as an independent reference builds it
    beta_d, beta_g, beta_f, phi = 0.3, 0.6, 0.4, 1.1
    rot = cmath.exp(1j * phi)
    record = BranchParams(
        beta_d=beta_d, beta_g=beta_g, beta_f=beta_f, phi=phi,
        alpha=math.sqrt(beta_g * beta_f) * rot,
        gamma=math.sqrt(1.0 - beta_f) + math.sqrt(beta_f * (1.0 - beta_g)) * rot,
        beta_f_tilde=math.sqrt(beta_f) - math.sqrt((1.0 - beta_g) * (1.0 - beta_f)) * rot)
    branches = _array_set()
    noise = NoiseModel.from_link(1e13, 300.0, v_s=1000.0, v_e=2.0)
    for case in AncillaCase:
        alone = total_skr(case, record, noise)
        assert total_skr(case, [record], noise).branches == alone.branches
        joined = total_skr(case, [branches, record], noise)
        assert joined.branches == total_skr(case, branches, noise).branches + alone.branches
        joint = oracle.joint_cov(case, record, noise)
        stacked = oracle._joint_stack(oracle._joint_entries(
            case, BranchSet.of([branches, record]), noise))
        assert joint.tobytes() == stacked[-1].tobytes()
        rec = alone.branches[0]
        assert oracle.numeric_symplectic_eigs(joint[2:, 2:]) \
            == pytest.approx((rec.lambda_1, rec.lambda_2), rel=1e-8)
