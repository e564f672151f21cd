import math
import re

import numpy as np
import pytest

from ris_cvqkd.cli import main
from ris_cvqkd.config import (ConfigError, apply_overrides, default_scenario,
                              load_scenario, make_scenario, parse_config_text,
                              serialize_params)


def test_empty_file_yields_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    scenario, params = load_scenario(str(path))
    assert scenario.carrier_frequency == 1e13
    assert scenario.tx.element_count == 32
    assert scenario.ris.element_count == 100
    assert scenario.temperature == 300.0
    assert scenario.modulation_variance == 1000.0
    assert scenario.eve_variance == 1.0
    assert scenario.ris.common_phase == pytest.approx(math.pi / 4)
    assert scenario.d_alice_ris == pytest.approx(4.0)
    assert scenario.d_ris_bob == pytest.approx(7.0)
    # half-wavelength spacing at the default carrier
    assert scenario.tx.element_spacing == pytest.approx(scenario.wavelength / 2)


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header\n\ndistance_alice_bob_m = 20.0  # trailing\n")
    scenario, _ = load_scenario(str(path))
    assert scenario.d_alice_bob == 20.0
    assert scenario.d_alice_ris == pytest.approx(8.0)


def test_alias_override_carrier():
    scenario = make_scenario(apply_overrides({}, ["f_c=1e13"]))
    assert scenario.carrier_frequency == 1e13
    scenario = make_scenario(apply_overrides({}, ["f_c=5e12"]))
    assert scenario.carrier_frequency == 5e12


def test_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError) as err:
        parse_config_text("not_a_key = 3\n")
    assert "valid keys" in str(err.value)
    assert "carrier_frequency_hz" in str(err.value)


def test_unit_suffix_mismatch_message():
    with pytest.raises(ConfigError) as err:
        parse_config_text("temperature_c = 20\n")
    assert "unit suffix mismatch" in str(err.value)
    assert "temperature_k" in str(err.value)


def test_bad_value_and_bad_line():
    with pytest.raises(ConfigError):
        parse_config_text("temperature_k = warm\n")
    with pytest.raises(ConfigError):
        parse_config_text("temperature_k 300\n")
    with pytest.raises(ConfigError):
        parse_config_text("tx_antennas = 31.5\n")
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no_equals_sign"])


def test_round_trip_is_identity(tmp_path):
    text = "\n".join([
        "carrier_frequency_hz = 5e12",
        "tx_antennas = 16",
        "rx_antennas = 16",
        "ris_elements_x = 20",
        "ris_elements_y = 20",
        "ris_phase_rad = 0.7853981633974483",
        "distance_alice_bob_m = 30.0",
        "extra_paths_d = 2",
        "eve_variance_snu = 1.5",
    ])
    path = tmp_path / "fig.cfg"
    path.write_text(text)
    scenario_a, params_a = load_scenario(str(path))
    dumped = tmp_path / "dump.cfg"
    dumped.write_text(serialize_params(params_a))
    scenario_b, params_b = load_scenario(str(dumped))
    assert params_a == params_b
    assert scenario_a == scenario_b


def test_generated_extra_paths_raise_rank():
    flat = default_scenario()
    rich = default_scenario(extra_paths_d=3, extra_paths_g=3, extra_paths_f=3)
    assert len(flat.multipaths_d) == 1
    assert len(rich.multipaths_d) == 4
    assert all(not p.is_los for p in rich.multipaths_d[1:])
    from ris_cvqkd.channel import build_channels

    sv = np.linalg.svd(build_channels(rich).h_d, compute_uv=False)
    assert (sv > 1e-12 * sv[0]).sum() == 4


def test_extra_paths_are_longer_and_off_axis():
    rich = default_scenario(extra_paths_g=2)
    los = rich.multipaths_g[0]
    for p in rich.multipaths_g[1:]:
        assert p.path_length > los.path_length
        assert p.aoa != los.aoa


def test_default_scenario_rejects_unknown_keyword():
    with pytest.raises(ConfigError):
        default_scenario(bogus_key=1.0)


@pytest.mark.parametrize("key, value", [("temperature_k", "inf"), ("temperature_k", "nan"),
                                        ("eve_variance_snu", "inf"), ("eve_variance_snu", "nan"),
                                        ("modulation_variance_snu", "inf")])
def test_nonfinite_noise_key_rejected_by_name(capsys, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        default_scenario(**{key: float(value)})
    assert main(["skr", "--set", f"{key}={value}"]) == 1
    assert f"config error: {key} must be finite" in capsys.readouterr().err


_GAIN = "antenna_gain_dbi must give a linear gain that is finite and > 0"
_EXCESS = "extra_path_excess_length must keep every scattered path length finite and > 0"


@pytest.mark.parametrize("overrides, message", [
    (["g_a=5000"], _GAIN), (["g_a=-5000"], _GAIN), (["g_a=nan"], _GAIN), (["g_a=inf"], _GAIN),
    (["extra_paths_d=3", "extra_path_excess_length=1e200"], _EXCESS),
    (["extra_paths_g=2", "extra_path_excess_length=1e154"], _EXCESS),
    (["extra_paths_f=2", "extra_path_excess_length=1e-200"], _EXCESS),
])
def test_overflowing_key_rejected_by_name(capsys, overrides, message):
    # Python's ** raises OverflowError or rounds to 0 or inf at these values
    argv = ["skr"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("paths", [0, 2])
@pytest.mark.parametrize("key, value, message", [
    ("fresnel_coeff", "2", "fresnel_coeff must lie in [0, 1]"),
    ("fresnel_coeff", "-1", "fresnel_coeff must lie in [0, 1]"),
    ("fresnel_coeff", "nan", "fresnel_coeff must lie in [0, 1]"),
    ("extra_path_angle_spread_rad", "inf", "extra_path_angle_spread_rad must be finite"),
    ("extra_path_angle_spread_rad", "nan", "extra_path_angle_spread_rad must be finite"),
])
def test_path_key_checked_without_paths(capsys, paths, key, value, message):
    # rejected by name whether or not a scattered path reads the value
    with pytest.raises(ConfigError, match=re.escape(message)):
        default_scenario(**{key: float(value), "extra_paths_d": paths})
    assert main(["skr", "--set", f"extra_paths_d={paths}", "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("key, value, message", [
    ("tx_antennas", "0", "tx_antennas must be >= 1"),
    ("rx_antennas", "-3", "rx_antennas must be >= 1"),
    ("ris_elements_x", "0", "ris_elements_x must be >= 1"),
    ("ris_elements_y", "0", "ris_elements_y must be >= 1"),
    ("d_ab", "0", "distance_alice_bob_m must be finite and > 0"),
    ("distance_alice_ris_m", "inf", "distance_alice_ris_m must be finite and > 0"),
    ("distance_ris_bob_m", "-1", "distance_ris_bob_m must be finite and > 0"),
    ("los_aod_rad", "inf", "los_aod_rad must be finite"),
    ("los_aoa_rad", "nan", "los_aoa_rad must be finite"),
    ("ris_elevation_rad", "nan", "ris_elevation_rad must be finite"),
    ("phi", "inf", "ris_phase_rad must be finite"),
    ("tx_antennas", "inf", "cannot parse value 'inf' for key 'tx_antennas'"),
])
def test_geometry_key_rejected_by_name(capsys, key, value, message):
    # these used to fail downstream with a message naming a derived value
    assert main(["skr", "--set", f"{key}={value}"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
