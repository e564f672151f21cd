"""The batched closed forms against one-branch calls, on seeded random branch sets.

``total_skr`` rates a whole ``BranchSet`` in one pass; given a one-element
list it runs the same code on one branch.  Every record field must agree
bit for bit, the totals must be the branch-order sums as plain floats, and
the rate must be even and 2*pi-periodic in the common phase.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_cvqkd.decomposition import branch_set
from ris_cvqkd.qkd import AncillaCase, AttackModel, NoiseModel, total_skr

# entropy rounding of one branch rate: four terms of up to ~1e4, each
# rounded to about 2**-40 (the tolerance of bench/reference.py)
BRANCH_ABS_TOL = 8 * 2.0 ** -40

unit = st.floats(0.0, 1.0)
row = st.tuples(unit, unit, unit, st.floats(0.0, 2.0 * math.pi),
                st.floats(1.0, 2000.0), st.floats(1.0, 20.0))
# the size first, so that long branch sets are drawn as often as short ones
rows = st.integers(1, 40).flatmap(lambda k: st.lists(row, min_size=k, max_size=k))
cases = st.sampled_from(AncillaCase)
models = st.sampled_from(AttackModel)
seeded = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def _noise(v_s, v_e) -> NoiseModel:
    return NoiseModel.from_link(1e13, 300.0, v_s=v_s, v_e=v_e)


def _split(draws):
    x = np.array(draws, dtype=float)
    return x[:, :3], x[:, 3], x[:, 4], x[:, 5]


@seeded
@given(rows, cases, models)
def test_batched_records_equal_one_branch_calls(draws, case, model):
    betas, phi, v_s, v_e = _split(draws)
    branches = branch_set(betas, phi)
    report = total_skr(case, branches, _noise(v_s, v_e), model=model)
    singles = [total_skr(case, [b], _noise(float(s), float(e)), model=model).branches[0]
               for b, s, e in zip(branches, v_s, v_e)]
    assert report.branches == tuple(singles)
    total = holevo = 0.0
    for rec in singles:
        total += rec.skr
        holevo += rec.holevo
    assert type(report.total_skr) is float and report.total_skr == total
    assert type(report.total_holevo) is float and report.total_holevo == holevo


@seeded
@given(rows, cases, models)
def test_batched_rate_is_even_and_periodic_in_phase(draws, case, model):
    betas, phi, v_s, v_e = _split(draws)
    noise = _noise(v_s, v_e)

    def rates(phases):
        return total_skr(case, branch_set(betas, phases), noise, model=model).rates.skr

    reference = rates(phi)
    for moved in (-phi, phi + 2.0 * math.pi):
        assert np.all(np.abs(rates(moved) - reference) <= BRANCH_ABS_TOL)
