"""Bit-exact pin of the per-branch closed forms.

``tests/data/closed_forms.txt`` holds every ``BranchRecord`` field of a
one-branch ``total_skr`` for 32 seeded draws of the verification grid and for 27 edge
draws with each of beta_d, beta_g and beta_f at 0, 1 and 1 - 1e-12, under
both attack models and all three storage cases.  Floats are stored as
``float.hex``, so any change of the last bit fails.  Regenerate the file
only when a change of the closed forms is intended:

    PYTHONPATH=src python tests/test_closed_forms.py
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import numpy as np

from ris_cvqkd.decomposition import make_branch
from ris_cvqkd.oracle import random_branch
from ris_cvqkd.qkd import AncillaCase, AttackModel, BranchRecord, total_skr

FIXTURE = Path(__file__).parent / "data" / "closed_forms.txt"
SEED = 2012
RANDOM_DRAWS = 32
EDGE_BETAS = (0.0, 1.0, 1.0 - 1e-12)
FIELDS = tuple(f.name for f in dataclasses.fields(BranchRecord))
HEADER = "# draw model case " + " ".join(FIELDS)


def _draws():
    rng = np.random.default_rng(SEED)
    draws = [random_branch(rng) for _ in range(RANDOM_DRAWS)]
    for betas in itertools.product(EDGE_BETAS, repeat=3):
        b, n = random_branch(rng)
        draws.append((make_branch(*betas, b.phi), n))
    return draws


def _token(value) -> str:
    return value.hex() if isinstance(value, float) else str(value)


def records() -> list[str]:
    """One line per draw, model and case: the key, then every field."""
    lines = [HEADER]
    for i, (b, n) in enumerate(_draws()):
        for model in AttackModel:
            for case in AncillaCase:
                rec = total_skr(case, [b], n, model=model).branches[0]
                values = (_token(getattr(rec, name)) for name in FIELDS)
                lines.append(f"{i} {model.value} {case.value} " + " ".join(values))
    return lines


def test_closed_forms_match_fixture_bit_for_bit():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    actual = records()
    assert expected[0] == actual[0] == HEADER
    assert len(actual) == len(expected)
    names = HEADER.split()[1:]
    for want, got in zip(expected[1:], actual[1:]):
        if want != got:
            pairs = zip(names, want.split(), got.split())
            name, w, g = next(p for p in pairs if p[1] != p[2])
            key = " ".join(want.split()[:3])
            raise AssertionError(f"record {key}: field {name} is {g}, fixture {w}")


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(records()) + "\n", encoding="utf-8")
