"""The benchmark's span tracer against the pipeline's result types.

``bench/spans.py`` lives outside the package and reads sizes from results:
``vars`` of each decomposition bundle, its ``betas``, the branch list that
``branch_params`` returns and the branches of a ``total_skr`` report.  This
test keeps a refactor of those results from breaking it unnoticed.
"""

import math
from pathlib import Path

import pytest

from ris_cvqkd import experiments
from ris_cvqkd.config import default_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_reads_pipeline_sizes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        experiments.evaluate_scenario(default_scenario())
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    # 32x32 direct, 100x32 and 32x100 RIS channels, each of rank 1
    assert metrics["channel.entries"] == 32 * 32 + 2 * 100 * 32
    assert metrics["decomposition.factor_mb"] == pytest.approx(3 * 8 / 1e6)
    assert metrics["decomposition.sv_used_ratio"] == pytest.approx(1 / 3)
    assert metrics["qkd.branch_evals"] == 3
    assert all(math.isfinite(value) for value in metrics.values())
