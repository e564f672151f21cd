import math

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
