"""Bit-exact pin of the channel matrices, steering phases included.

The line-of-sight rows of the golden sweep have every angle at 0, where
sin(theta) = 0 and every steering phase vanishes.  ``tests/data/channels.txt``
holds every entry of ``h_d``, ``h_g`` and ``h_f`` for one small scenario with
nonzero departure, arrival and elevation angles and scattered paths on all
three channels.  Floats are stored as ``float.hex``, so any change of the
last bit fails.  Regenerate the file only when a change of the channel model
is intended:

    PYTHONPATH=src python tests/test_channel_fixture.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ris_cvqkd.channel import build_channels
from ris_cvqkd.config import default_scenario

FIXTURE = Path(__file__).parent / "data" / "channels.txt"
HEADER = "# channel row col real imag"
SCENARIO = dict(tx_antennas=3, rx_antennas=4, ris_elements_x=2, ris_elements_y=3,
                extra_paths_d=2, extra_paths_g=1, extra_paths_f=2,
                los_aoa_rad=0.2, los_aod_rad=-0.1, ris_elevation_rad=0.3)


def entries() -> list[str]:
    """One line per matrix entry: channel, row, column, real and imaginary part."""
    t = build_channels(default_scenario(**SCENARIO))
    lines = [HEADER]
    for name in ("h_d", "h_g", "h_f"):
        m = getattr(t, name)
        for row, col in np.ndindex(m.shape):
            z = complex(m[row, col])
            lines.append(f"{name} {row} {col} {z.real.hex()} {z.imag.hex()}")
    return lines


def test_channels_match_fixture_bit_for_bit():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    actual = entries()
    assert expected[0] == actual[0] == HEADER
    assert len(actual) == len(expected)
    for want, got in zip(expected[1:], actual[1:]):
        if want != got:
            name, row, col = want.split()[:3]
            raise AssertionError(f"{name}[{row}, {col}] is {' '.join(got.split()[3:])}, "
                                 f"fixture {' '.join(want.split()[3:])}")


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(entries()) + "\n", encoding="utf-8")
