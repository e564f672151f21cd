"""Flat key-value scenario configuration.

The schema is a fixed set of unit-suffixed keys; unknown keys are rejected
with the full list of valid ones, and a key whose stem matches a known key
with a different unit suffix gets a targeted message.  A key's schema row
holds its type, default and domain, and every entry point (file, override,
keyword) reaches ``make_scenario``, which applies all three.  Values omitted
take the documented defaults.  Extra non-line-of-sight paths are
generated deterministically from count/spread/excess parameters so configs
stay flat and diff-friendly.
"""

from __future__ import annotations

import math

from .channel import (ArrayGeometry, PathSpec, RisGeometry, Scenario,
                      line_of_sight_path, linear_gain)

GEOMETRY_RATIOS = (0.4, 0.7)  # (alice-ris, ris-bob) legs as fractions of d_ab

# domains: (valid, message); a rejected value's error is "<key> <message>"
_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and > 0")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and >= 0")
_FINITE = (math.isfinite, "must be finite")
_SIZE = (lambda v: v >= 1, "must be >= 1")
_COUNT = (lambda v: v >= 0, "must be >= 0")

# canonical key -> (type, default, domain); None defaults are derived after parsing
SCHEMA: dict[str, tuple[type, object, tuple]] = {
    "carrier_frequency_hz": (float, 1e13, _POSITIVE),
    "temperature_k": (float, 300.0, _POSITIVE),
    "absorption_db_per_km": (float, 1000.0, _NONNEGATIVE),
    "roughness": (float, 1.0, _NONNEGATIVE),
    # checked whether or not a scattered path uses it, as is the spread
    "fresnel_coeff": (float, 0.5, (lambda v: 0 <= v <= 1, "must lie in [0, 1]")),
    "modulation_variance_snu": (float, 1000.0, _POSITIVE),
    "eve_variance_snu": (float, 1.0, (lambda v: 1 <= v < math.inf, "must be finite and >= 1")),
    "tx_antennas": (int, 32, _SIZE),
    "rx_antennas": (int, 32, _SIZE),
    "antenna_gain_dbi": (float, 30.0, (lambda v: 0 < linear_gain(v) < math.inf,
                                       "must give a linear gain that is finite and > 0")),
    "antenna_spacing_wavelengths": (float, 0.5, _POSITIVE),
    "ris_elements_x": (int, 10, _SIZE),
    "ris_elements_y": (int, 10, _SIZE),
    "ris_spacing_x_wavelengths": (float, 0.5, _POSITIVE),
    "ris_spacing_y_wavelengths": (float, 0.5, _POSITIVE),
    "ris_phase_rad": (float, math.pi / 4, _FINITE),
    "ris_elevation_rad": (float, 0.0, _FINITE),
    "distance_alice_bob_m": (float, 10.0, _POSITIVE),
    "distance_alice_ris_m": (float, None, _POSITIVE),  # default: GEOMETRY_RATIOS[0] * d_ab
    "distance_ris_bob_m": (float, None, _POSITIVE),  # default: GEOMETRY_RATIOS[1] * d_ab
    "los_aod_rad": (float, 0.0, _FINITE),
    "los_aoa_rad": (float, 0.0, _FINITE),
    "extra_paths_d": (int, 0, _COUNT),
    "extra_paths_g": (int, 0, _COUNT),
    "extra_paths_f": (int, 0, _COUNT),
    "extra_path_angle_spread_rad": (float, 0.5, _FINITE),
    "extra_path_excess_length": (float, 1.05, _POSITIVE),
}

ALIASES = {
    "f_c": "carrier_frequency_hz",
    "t_e": "temperature_k",
    "rho": "absorption_db_per_km",
    "v_s": "modulation_variance_snu",
    "v_e": "eve_variance_snu",
    "g_a": "antenna_gain_dbi",
    "phi": "ris_phase_rad",
    "d_ab": "distance_alice_bob_m",
}


class ConfigError(ValueError):
    """Malformed configuration file or override."""


def _resolve_key(key: str) -> str:
    if key in SCHEMA:
        return key
    if key in ALIASES:
        return ALIASES[key]
    stem = key.rsplit("_", 1)[0]
    for known in SCHEMA:
        if known.rsplit("_", 1)[0] == stem and known != key:
            raise ConfigError(
                f"unit suffix mismatch for {key!r}: the schema key is {known!r}")
    valid = ", ".join(sorted(SCHEMA))
    raise ConfigError(f"unknown key {key!r}; valid keys: {valid}")


def _parse_value(key: str, raw):
    """``raw``, a string or a number, as a value of the key's type."""
    kind = SCHEMA[key][0]
    try:
        value = float(raw)
        if kind is int and value != int(value):
            raise ValueError
        return kind(value)
    except (ValueError, OverflowError, TypeError):  # int() of nan, inf; float() of None
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment.  A key may be set
    once, under its schema name or an alias."""
    params, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = _resolve_key(key)
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        params[key] = _parse_value(key, raw)
    return params


def apply_overrides(params: dict, overrides) -> dict:
    """Apply repeatable ``key=value`` strings on top of parsed parameters."""
    out = dict(params)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        key = _resolve_key(key)
        out[key] = _parse_value(key, raw)
    return out


def resolve_params(params: dict) -> dict:
    """Fill defaults and the distance-derived values."""
    full = {key: default for key, (_, default, _) in SCHEMA.items()}
    full.update(params)
    d_ab = full["distance_alice_bob_m"]
    if full["distance_alice_ris_m"] is None:
        full["distance_alice_ris_m"] = GEOMETRY_RATIOS[0] * d_ab
    if full["distance_ris_bob_m"] is None:
        full["distance_ris_bob_m"] = GEOMETRY_RATIOS[1] * d_ab
    return full


_R2_A = 0.7548776662466927  # 1/x with x^3 = x + 1; plastic-number lattice
_R2_B = 0.5698402909980532  # 1/x^2


def _extra_paths(count: int, base_length: float, spread: float, excess: float,
                 elevation: float, fresnel: float) -> list[PathSpec]:
    """Deterministic non-LoS paths; lengths grow geometrically with the
    excess factor.

    Departure/arrival angles and elevation offsets follow a low-discrepancy
    lattice over [-spread, spread] x [-spread/2, spread/2] so scattered
    paths excite both axes of the RIS grid and stay well separated for any
    count.
    """
    paths = []
    for j in range(1, count + 1):
        u = (j * _R2_A) % 1.0
        v = (j * _R2_B) % 1.0
        angle = spread * (2.0 * u - 1.0)
        elev = elevation + 0.5 * spread * (2.0 * v - 1.0)
        try:
            length = base_length * excess ** j
        except OverflowError:
            length = math.inf
        if not 0 < length < math.inf:
            raise ConfigError("extra_path_excess_length must keep every scattered path "
                              "length finite and > 0")
        paths.append(PathSpec(path_length=length, aod=angle, aoa=angle,
                              elevation=elev, fresnel_coeff=fresnel,
                              is_los=False))
    return paths


def make_scenario(params: dict) -> Scenario:
    """Build the scenario value from parameters on schema keys or aliases: each
    value, a string or a number, is coerced to its key's type, and every
    resolved value is checked against its key's domain, so an error names
    the key and not a derived value."""
    params = {_resolve_key(key): value for key, value in params.items()}
    p = resolve_params({key: _parse_value(key, value) for key, value in params.items()})
    for key, (_, _, (valid, message)) in SCHEMA.items():
        if not valid(p[key]):
            raise ConfigError(f"{key} {message}")
    wavelength = 299_792_458.0 / p["carrier_frequency_hz"]
    tx = ArrayGeometry(element_count=p["tx_antennas"],
                       element_spacing=p["antenna_spacing_wavelengths"] * wavelength,
                       gain_per_element_dbi=p["antenna_gain_dbi"])
    rx = ArrayGeometry(element_count=p["rx_antennas"],
                       element_spacing=p["antenna_spacing_wavelengths"] * wavelength,
                       gain_per_element_dbi=p["antenna_gain_dbi"])
    ris = RisGeometry(k_x=p["ris_elements_x"], k_y=p["ris_elements_y"],
                      spacing_x=p["ris_spacing_x_wavelengths"] * wavelength,
                      spacing_y=p["ris_spacing_y_wavelengths"] * wavelength,
                      common_phase=p["ris_phase_rad"])
    aod, aoa = p["los_aod_rad"], p["los_aoa_rad"]
    elev = p["ris_elevation_rad"]
    spread = p["extra_path_angle_spread_rad"]
    excess = p["extra_path_excess_length"]
    fresnel = p["fresnel_coeff"]

    def channel_paths(count_key: str, leg: float) -> tuple[PathSpec, ...]:
        paths = [line_of_sight_path(leg, aod=aod, aoa=aoa, elevation=elev)]
        paths += _extra_paths(p[count_key], leg, spread, excess, elev, fresnel)
        return tuple(paths)

    return Scenario(
        tx=tx, rx=rx, ris=ris,
        carrier_frequency=p["carrier_frequency_hz"],
        absorption_db_per_km=p["absorption_db_per_km"],
        roughness=p["roughness"],
        temperature=p["temperature_k"],
        modulation_variance=p["modulation_variance_snu"],
        eve_variance=p["eve_variance_snu"],
        multipaths_d=channel_paths("extra_paths_d", p["distance_alice_bob_m"]),
        multipaths_g=channel_paths("extra_paths_g", p["distance_alice_ris_m"]),
        multipaths_f=channel_paths("extra_paths_f", p["distance_ris_bob_m"]),
    )


def serialize_params(params: dict) -> str:
    """Canonical text form of resolved parameters (sorted keys, repr values)."""
    p = resolve_params(params)
    lines = []
    for key in sorted(p):
        value = p[key]
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def load_scenario(path: str, overrides=None) -> tuple[Scenario, dict]:
    """Scenario plus its resolved parameter dict from a config file.

    An empty file yields the pure-default scenario.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    params = apply_overrides(parse_config_text(text), overrides)
    return make_scenario(params), resolve_params(params)


def default_scenario(**overrides) -> Scenario:
    """Reference configuration with optional keyword overrides on schema keys."""
    return make_scenario(overrides)
