import math
import re
from pathlib import Path

import numpy as np
import pytest

from ris_cvqkd.cli import main
from ris_cvqkd.config import (SCHEMA, ConfigError, apply_overrides, default_scenario,
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


@pytest.mark.parametrize("text, key", [
    ("d_ab = 5\n# the same key again\ndistance_alice_bob_m = 20\n", "distance_alice_bob_m"),
    ("tx_antennas = 16\n\ntx_antennas = 64\n", "tx_antennas"),
], ids=["alias", "same-name"])
def test_a_key_set_twice_in_a_file_is_rejected(tmp_path, text, key):
    # the last line won silently: the first file rated at 20 m
    path = tmp_path / "twice.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^line 3: key '{key}' is already set on line 1$"):
        load_scenario(str(path))


def test_repeated_override_keeps_the_last(tmp_path):
    path = tmp_path / "d.cfg"
    path.write_text("d_ab = 5\n")
    scenario, params = load_scenario(str(path), ["d_ab=7", "distance_alice_bob_m=20"])
    assert scenario.d_alice_bob == params["distance_alice_bob_m"] == 20.0


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


@pytest.mark.parametrize("key", list(SCHEMA))
def test_every_key_rejects_a_value_outside_its_domain(tmp_path, capsys, key):
    # the same message from a file, an override and a keyword
    _, _, (valid, message) = SCHEMA[key]
    bad = next(value for value in (-1, math.nan) if not valid(value))
    message = f"{key} {message}"
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {bad}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_scenario(str(path))
    assert main(["skr", "--set", f"{key}={bad}"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        default_scenario(**{key: bad})


@pytest.mark.parametrize("key, value, name", [
    ("tx_antennas", 32.5, "tx_antennas"), ("ris_elements_x", 10.5, "ris_elements_x"),
    ("extra_paths_d", 1.5, "extra_paths_d"), ("d_ab", "x", "distance_alice_bob_m"),
])
def test_keyword_value_takes_the_key_type(key, value, name):
    # a keyword goes through the type rule of a file or override value
    with pytest.raises(ConfigError, match=f"^cannot parse value {value!r} for key {name!r}$"):
        default_scenario(**{key: value})


def test_keyword_value_is_coerced_to_the_key_type():
    scenario = default_scenario(tx_antennas=16.0, d_ab="20")
    assert type(scenario.tx.element_count) is int and scenario.tx.element_count == 16
    assert scenario == default_scenario(tx_antennas=16, d_ab=20.0)


def _valid_values(key: str) -> str:
    """The README's valid-values cell of a key, from its schema row."""
    kind, _, (_, message) = SCHEMA[key]
    return ("whole number, " if kind is int else "") + re.sub(r"^must (be |lie )?", "", message)


def test_readme_schema_table_lists_every_key_and_its_domain():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in section.splitlines():
        if line.startswith("| `"):
            keys_cell, _, valid_cell = (cell.strip() for cell in line.split("|")[1:4])
            keys = re.findall(r"`(\w+)`", keys_cell)
            assert {_valid_values(key) for key in keys} == {valid_cell}, line
            listed += keys
    assert sorted(listed) == sorted(SCHEMA)
