import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_cvqkd import channel
from ris_cvqkd.channel import (ArrayGeometry, ChannelTriple, PathSpec,
                               RisGeometry, array_response, build_channels,
                               channel_factors, cores_at, fold_phase,
                               line_of_sight_path, ris_response)
from ris_cvqkd.config import default_scenario
from ris_cvqkd.oracle import path_loss

WAVELENGTH = 299_792_458.0 / 1e13  # 10 THz carrier


def test_array_response_single_element():
    v = array_response(1, 0.7, 1e-5, WAVELENGTH)
    assert v.shape == (1,)
    assert v[0] == pytest.approx(1.0)


def test_array_response_two_elements_boresight():
    v = array_response(2, 0.0, 1e-5, WAVELENGTH)
    np.testing.assert_allclose(v, np.full(2, 1.0 / math.sqrt(2)), atol=1e-15)


def test_array_response_quarter_turn_phases():
    # spacing lambda/2 at 30 degrees: phase step pi/2 per element
    v = array_response(4, math.pi / 6, WAVELENGTH / 2, WAVELENGTH)
    expected = 0.5 * np.array([1.0, 1.0j, -1.0, -1.0j])
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_array_response_matches_elementwise_oracle():
    # independent high-precision evaluation of the element formula
    import mpmath as mp

    rng = np.random.default_rng(7)
    with mp.workdps(40):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            theta = float(rng.uniform(-math.pi, math.pi))
            spacing = float(rng.uniform(0.1, 2.0)) * WAVELENGTH
            v = array_response(n, theta, spacing, WAVELENGTH)
            for p in range(n):
                ref = mp.e ** (1j * 2 * mp.pi * mp.mpf(spacing) * p
                               * mp.sin(mp.mpf(theta)) / mp.mpf(WAVELENGTH))
                ref /= mp.sqrt(n)
                assert abs(v[p] - complex(ref)) < 1e-14


def test_array_response_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 64))
        v = array_response(n, float(rng.uniform(-2, 2)),
                           float(rng.uniform(0.01, 3)) * WAVELENGTH, WAVELENGTH)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_array_response_rejects_invalid():
    with pytest.raises(ValueError):
        array_response(4, math.nan, 1e-5, WAVELENGTH)
    with pytest.raises(ValueError):
        array_response(0, 0.0, 1e-5, WAVELENGTH)
    with pytest.raises(ValueError):
        array_response(4, 0.0, 1e-5, 0.0)


def _ris(k_x=10, k_y=10, phase=math.pi / 4, spacing=WAVELENGTH / 2):
    return RisGeometry(k_x=k_x, k_y=k_y, spacing_x=spacing, spacing_y=spacing,
                       common_phase=phase)


def test_ris_response_single_element():
    v = ris_response(_ris(1, 1), 0.3, 0.9, WAVELENGTH)
    assert v.shape == (1,)
    assert v[0] == pytest.approx(1.0)


def test_ris_response_boresight_uniform():
    v = ris_response(_ris(4, 3), 0.5, 0.0, WAVELENGTH)
    np.testing.assert_allclose(v, np.full(12, 1.0 / math.sqrt(12)), atol=1e-15)


def test_ris_response_2x2_grid_values():
    # frozen from a 40-digit evaluation of the grid-phase formula
    v = ris_response(_ris(2, 2), math.pi / 4, math.pi / 3, WAVELENGTH)
    expected = np.array([
        0.5 + 0.0j,
        -0.17287052217438971328 + 0.4691649843745309116j,
        -0.17287052217438971328 + 0.4691649843745309116j,
        -0.38046313025261533775 - 0.32441918333905819719j,
    ])
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_ris_response_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ris = _ris(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        v = ris_response(ris, float(rng.uniform(-1.5, 1.5)),
                         float(rng.uniform(-2, 2)), WAVELENGTH)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_responses_of_angle_arrays_are_the_scalar_rows():
    # one row per angle, bit for bit equal to the scalar call
    rng = np.random.default_rng(11)
    thetas = rng.uniform(-math.pi, math.pi, size=7)
    elevations = rng.uniform(-1.5, 1.5, size=7)
    ris = _ris(3, 4)
    rows = array_response(5, thetas, 0.7 * WAVELENGTH, WAVELENGTH)
    grid = ris_response(ris, elevations, thetas, WAVELENGTH)
    assert rows.shape == (7, 5) and grid.shape == (7, 12)
    for i, (theta, elev) in enumerate(zip(thetas.tolist(), elevations.tolist())):
        assert rows[i].tolist() == array_response(
            5, theta, 0.7 * WAVELENGTH, WAVELENGTH).tolist()
        assert grid[i].tolist() == ris_response(ris, elev, theta, WAVELENGTH).tolist()


def test_responses_reject_one_nonfinite_angle():
    angles = np.array([0.1, -0.4, math.inf, 0.3])
    with pytest.raises(ValueError, match="finite"):
        array_response(4, angles, 1e-5, WAVELENGTH)
    with pytest.raises(ValueError, match="finite"):
        ris_response(_ris(2, 2), np.zeros(4), angles, WAVELENGTH)
    with pytest.raises(ValueError, match="finite"):
        ris_response(_ris(2, 2), angles, np.zeros(4), WAVELENGTH)


def _scenario(**overrides):
    return default_scenario(**overrides)


def test_path_spec_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        PathSpec(path_length=0.0, aod=0.0, aoa=0.0)
    with pytest.raises(ValueError):
        PathSpec(path_length=-1.0, aod=0.0, aoa=0.0)


def test_geometry_rejects_infinite_lengths():
    with pytest.raises(ValueError, match="path_length must be finite"):
        PathSpec(path_length=math.inf, aod=0.0, aoa=0.0)
    with pytest.raises(ValueError, match="element_spacing must be finite"):
        ArrayGeometry(element_count=4, element_spacing=math.inf,
                      gain_per_element_dbi=30.0)
    for spacing in ((math.inf, 1e-5), (1e-5, math.inf)):
        with pytest.raises(ValueError, match="spacings must be finite"):
            RisGeometry(k_x=2, k_y=2, spacing_x=spacing[0], spacing_y=spacing[1],
                        common_phase=0.0)


def test_path_loss_free_space_identity():
    # unit endpoint gains, no absorption, one free-space "natural" distance
    scenario = _scenario(absorption_db_per_km=0.0)
    d = scenario.wavelength / (4.0 * math.pi)
    path = line_of_sight_path(d)
    assert path_loss(path, scenario, (1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_path_loss_reference_link_budget():
    # frozen from an independent dB-domain budget: 10 THz, 10 m, 1000 dB/km,
    # 30 dBi per element, 32 antennas each side
    scenario = _scenario()
    path = line_of_sight_path(10.0)
    gains = (32 * 1000.0, 32 * 1000.0)
    assert path_loss(path, scenario, gains) == pytest.approx(
        5.828028064914893e-06, rel=1e-12)


def test_path_loss_monotone_in_distance():
    scenario = _scenario()
    gains = (1000.0, 1000.0)
    losses = [path_loss(line_of_sight_path(d), scenario, gains)
              for d in np.linspace(0.5, 80.0, 40)]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_path_loss_nlos_scaling():
    scenario = _scenario(roughness=0.8, fresnel_coeff=0.25)
    los = line_of_sight_path(7.0)
    nlos = PathSpec(path_length=7.0, aod=0.0, aoa=0.0, fresnel_coeff=0.25)
    ratio = path_loss(nlos, scenario, (1.0, 1.0)) / path_loss(los, scenario, (1.0, 1.0))
    assert ratio == pytest.approx(0.8 * 0.25, rel=1e-12)


def test_path_loss_rejects_nonpositive_gains():
    scenario = _scenario()
    with pytest.raises(ValueError):
        path_loss(line_of_sight_path(1.0), scenario, (0.0, 1.0))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(paths=st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)), min_size=1, max_size=4),
       points=st.integers(16, 128), seed=st.integers(0, 2**32 - 1),
       absorption=st.sampled_from([0.0, 1.0, 1000.0, 4.7e4]), roughness=st.floats(0.0, 3.0),
       frequency=st.floats(1e11, 1e14),
       gains=st.tuples(st.floats(1e-3, 1e9), st.floats(1e-3, 1e9)))
@example(paths=[(True, 0.5), (False, 0.0)], points=1, seed=0, absorption=1000.0,
         roughness=1.0, frequency=1e13, gains=(1.0, 1.0))
def test_array_link_budget_equals_scalar_reference(paths, points, seed, absorption,
                                                   roughness, frequency, gains):
    # every loss bit for bit as the one-path reference, from spreading that
    # overflows to inf (below about 1e-160 m; NaN on a zero NLoS factor) to
    # losses that underflow to 0; half the lengths lie where the absorption
    # term is neither 1 nor 0
    scenario = dataclasses.replace(_scenario(), absorption_db_per_km=absorption,
                                   roughness=roughness, carrier_frequency=frequency)
    specs = tuple(PathSpec(path_length=1.0, aod=0.0, aoa=0.0, fresnel_coeff=fresnel,
                           is_los=los) for los, fresnel in paths)
    rng = np.random.default_rng(seed)
    exponents = np.where(rng.random((len(specs), points)) < 0.5,
                         rng.uniform(-165.0, 6.0, (len(specs), points)),
                         rng.uniform(-3.0, 3.5, (len(specs), points)))
    lengths = 10.0 ** exponents
    lengths[:, 0] = 1e-161  # the spreading term overflows
    want = [[path_loss(spec, scenario, gains, d) for d in row]
            for spec, row in zip(specs, lengths.tolist())]
    assert _bits(channel._path_losses(specs, scenario, gains, lengths)) == _bits(want)


def test_build_channels_single_antenna_magnitude():
    scenario = _scenario(tx_antennas=1, rx_antennas=1, ris_elements_x=1,
                         ris_elements_y=1)
    t = build_channels(scenario)
    delta = path_loss(scenario.multipaths_d[0], scenario,
                      (scenario.tx.gain_linear, scenario.rx.gain_linear))
    assert abs(t.h_d[0, 0]) == pytest.approx(math.sqrt(delta), rel=1e-12)


def test_build_channels_destructive_interference():
    scenario = _scenario(tx_antennas=2, rx_antennas=2)
    f_c = scenario.carrier_frequency
    base = scenario.multipaths_d[0]
    first = PathSpec(path_length=base.path_length, aod=base.aod,
                     aoa=base.aoa, delay=0.0, is_los=True)
    mirrored = PathSpec(path_length=base.path_length, aod=base.aod,
                        aoa=base.aoa, delay=1.0 / (2.0 * f_c), is_los=True)
    import dataclasses
    doubled = dataclasses.replace(scenario, multipaths_d=(first, mirrored))
    t = build_channels(doubled)
    np.testing.assert_allclose(t.h_d, 0.0, atol=1e-18)


def test_build_channels_matches_per_entry_oracle():
    # explicit per-entry summation with cmath, no vector helpers
    scenario = _scenario(tx_antennas=3, rx_antennas=4, ris_elements_x=2,
                         ris_elements_y=3, extra_paths_d=2, extra_paths_g=1,
                         extra_paths_f=2, los_aoa_rad=0.2, los_aod_rad=-0.1)
    t = build_channels(scenario)
    lam = scenario.wavelength
    f_c = scenario.carrier_frequency

    def ula(n, spacing, theta, p):
        return cmath.exp(2j * math.pi * spacing * p * math.sin(theta) / lam) \
            / math.sqrt(n)

    def ris_elem(elev, theta, p, q):
        vx = scenario.ris.spacing_x * math.cos(elev) * math.sin(theta)
        vy = scenario.ris.spacing_y * math.sin(elev) * math.sin(theta)
        k = scenario.ris.element_count
        return cmath.exp(2j * math.pi * (p * vx + q * vy) / lam) / math.sqrt(k)

    n_tx, n_rx = 3, 4
    g_tx = n_tx * scenario.tx.gain_linear
    g_rx = n_rx * scenario.rx.gain_linear
    k = scenario.ris.element_count
    expected = np.zeros((k, n_tx), dtype=complex)
    for path in scenario.multipaths_g:
        amp = math.sqrt(path_loss(path, scenario, (g_tx, float(k))))
        rot = cmath.exp(2j * math.pi * f_c * path.delay)
        for row in range(k):
            p, q = divmod(row, scenario.ris.k_y)
            for col in range(n_tx):
                expected[row, col] += (
                    amp * rot * ris_elem(path.elevation, path.aoa, p, q)
                    * ula(n_tx, scenario.tx.element_spacing, path.aod, col).conjugate())
    np.testing.assert_allclose(t.h_g, expected, rtol=1e-12, atol=1e-30)


def test_build_channels_path_linearity():
    scenario = _scenario(extra_paths_d=2)
    t_full = build_channels(scenario)
    import dataclasses
    reduced = dataclasses.replace(scenario,
                                  multipaths_d=scenario.multipaths_d[:-1])
    single = dataclasses.replace(scenario,
                                 multipaths_d=scenario.multipaths_d[-1:])
    t_reduced = build_channels(reduced)
    t_single = build_channels(single)
    np.testing.assert_allclose(t_full.h_d, t_reduced.h_d + t_single.h_d,
                               rtol=0, atol=1e-18)


def test_cores_at_rescales_each_channel():
    # stretching the transmitter-to-RIS paths 3x equals rebuilding them 3x
    # longer, with the other two channels untouched
    import dataclasses
    scenario = _scenario(extra_paths_g=2, los_aod_rad=-0.1)
    stretched = dataclasses.replace(scenario, multipaths_g=tuple(
        dataclasses.replace(p, path_length=p.path_length * 3.0, delay=p.delay * 3.0)
        for p in scenario.multipaths_g))
    # one stack per channel over the block of triples; the unit triple
    # gives the scenario's own cores
    got = cores_at(channel_factors(scenario), [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0)])
    own = cores_at(channel_factors(scenario), [(1.0, 1.0, 1.0)])
    rebuilt = cores_at(channel_factors(stretched), [(1.0, 1.0, 1.0)])
    assert [stack.shape for stack in got] == [(2, 1, 1), (2, 3, 3), (2, 1, 1)]
    for stack, want_own, want_rebuilt in zip(got, own, rebuilt):
        assert np.array_equal(stack[0], want_own[0])
        assert np.array_equal(stack[1], want_rebuilt[0])
    with pytest.raises(ValueError, match="path_length must be finite"):
        cores_at(channel_factors(scenario), [(1.0, 1.0, 1.0), (1.0, 0.0, 1.0)])


def test_build_channels_requires_paths():
    import dataclasses
    scenario = dataclasses.replace(_scenario(), multipaths_d=())
    with pytest.raises(ValueError):
        build_channels(scenario)


def test_scenario_validation():
    with pytest.raises(ValueError):
        default_scenario(eve_variance_snu=0.5)
    with pytest.raises(ValueError):
        ArrayGeometry(element_count=0, element_spacing=1e-5,
                      gain_per_element_dbi=30.0)
    with pytest.raises(ValueError):
        RisGeometry(k_x=1, k_y=1, spacing_x=0.0, spacing_y=1e-5,
                    common_phase=0.0)


def test_channel_triple_accepts_strided_views():
    h = np.arange(6, dtype=complex).reshape(2, 3) * (1 + 1j)
    t = ChannelTriple(h_d=h, h_g=h.T, h_f=h[:, ::2])
    np.testing.assert_array_equal(t.h_g, h.T)
    bad = h.copy()
    bad[1, 2] = complex(0.0, math.nan)
    with pytest.raises(ValueError, match="non-finite"):
        ChannelTriple(h_d=h, h_g=bad.T, h_f=h)


def test_ris_phase_folded():
    ris = RisGeometry(k_x=1, k_y=1, spacing_x=1e-5, spacing_y=1e-5,
                      common_phase=2.0 * math.pi + 0.25)
    assert ris.common_phase == pytest.approx(0.25)


@pytest.mark.parametrize("phi", [-0.0, 2.0 * math.pi, -7.0, 7.0 * math.pi, 1e300])
def test_fold_phase_is_the_ris_fold(phi):
    # the phase drivers fold each phase without building a RisGeometry
    ris = RisGeometry(k_x=1, k_y=1, spacing_x=1e-5, spacing_y=1e-5, common_phase=phi)
    folded = fold_phase(phi)
    assert 0.0 <= folded < 2.0 * math.pi
    assert math.copysign(1.0, folded) == 1.0
    assert folded.hex() == ris.common_phase.hex() == (phi % (2.0 * math.pi)).hex()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_fold_phase_rejects_a_phase_with_no_value(phi):
    with pytest.raises(ValueError, match="^common_phase must be finite$"):
        fold_phase(phi)
    with pytest.raises(ValueError, match="^common_phase must be finite$"):
        RisGeometry(k_x=1, k_y=1, spacing_x=1e-5, spacing_y=1e-5, common_phase=phi)


@pytest.mark.parametrize("dbi", [5000.0, -5000.0, math.inf, math.nan])
def test_array_gain_must_be_finite_and_positive(dbi):
    # 10 ** 500 overflows Python's ** and 10 ** -500 rounds to 0
    with pytest.raises(ValueError, match="gain_per_element_dbi must give a linear gain"):
        ArrayGeometry(element_count=4, element_spacing=1e-5, gain_per_element_dbi=dbi)
