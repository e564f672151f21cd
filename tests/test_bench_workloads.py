"""The benchmark's own output checks, run on two rounds of three workloads.

``bench/workloads.py`` checks each workload's outputs against independent
reference numbers once its timed loop ends.  Running those checks here
makes a change that breaks a benchmarked output fail in the test suite.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["rich-sweep", "phase-and-reach", "verify"])
def test_workload_checks_pass(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    workload = workloads.WORKLOADS[name](1, tmp_path)
    for _ in range(2):
        workload.record(workload.round())
    failed, notes = workload.check()
    assert failed == 0, notes
