"""Bit-exact pin of the seeded verification run.

``tests/data/verification.txt`` holds, for ``run_verification(2000,
seed=42)``, every check's name and its largest deviation as ``float.hex``.
The deviations compare the closed forms with the numeric oracle draw by
draw, so a change of either side, of the draws or of their order moves a
last bit here.  Regenerate the file only when such a change is intended:

    PYTHONPATH=src python tests/test_verification_fixture.py
"""

from __future__ import annotations

from pathlib import Path

from ris_cvqkd.oracle import run_verification

FIXTURE = Path(__file__).parent / "data" / "verification.txt"
DRAWS = 2000
SEED = 42


def records() -> list[str]:
    return [f"{check.name} {check.max_deviation.hex()}"
            for check in run_verification(DRAWS, seed=SEED)]


def test_verification_matches_fixture_bit_for_bit():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    actual = records()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        if want != got:
            raise AssertionError(f"check {want.split()[0]}: max deviation "
                                 f"{got.split()[-1]}, fixture {want.split()[-1]}")


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(records()) + "\n", encoding="utf-8")
