"""Spans around the simulator's public functions, recorded from outside.

``Tracer.install`` wraps every public module-level function of the seven
layer modules under every name it is looked up by: its own module, the
modules that import it by name and the package namespace.  Each call records
one span (function, parent span, call id, start, end, and up to two sizes
taken from the result).  Spans stay in memory until ``save``; ``layer_metrics``
turns them into per-operation figures.  Private functions are not wrapped.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("config", "channel", "decomposition", "qkd", "experiments", "oracle", "cli")
FIELDS = ("function", "parent", "call", "start_ns", "end_ns", "size_a", "size_b")
WIDTH = len(FIELDS)


def _channel_sizes(result):
    """Complex entries assembled."""
    return result.h_d.size + result.h_g.size + result.h_f.size, 0


def _decompose_sizes(result):
    """(bytes of every array in the bundles, singular values computed)."""
    nbytes = sum(value.nbytes for bundle in result for value in vars(bundle).values()
                 if isinstance(value, np.ndarray))
    # a bundle without the diagonal factor carries only its ranked betas
    values = sum(min(bundle.d.shape) if hasattr(bundle, "d") else len(bundle.betas)
                 for bundle in result)
    return nbytes, values


SIZES = {
    "channel.build_channels": _channel_sizes,
    "decomposition.decompose": _decompose_sizes,
    "decomposition.branch_params": lambda result: (len(result[0]), 0),
    "qkd.total_skr": lambda result: (len(result.branches), 0),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.calls = 0
        self.extended_precision_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        sizes = SIZES.get(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans) // WIDTH
            if stack:
                parent, call = stack[-1], spans[stack[-1] * WIDTH + 2]
            else:
                parent, call = -1, self.calls
                self.calls += 1
            spans.extend((fid, parent, call, clock(), 0, 0, 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * WIDTH + 4] = clock()
                stack.pop()
            if sizes is not None:
                spans[idx * WIDTH + 5], spans[idx * WIDTH + 6] = sizes(result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("ris_cvqkd")
        modules = {layer: importlib.import_module(f"ris_cvqkd.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._undo.append((namespace, name, obj))
                    setattr(namespace, name, wrappers[obj])
        import mpmath

        det = mpmath.det

        def counted_det(*args, **kwargs):
            self.extended_precision_calls += 1
            return det(*args, **kwargs)

        self._undo.append((mpmath, "det", det))
        mpmath.det = counted_det

    def uninstall(self) -> None:
        for namespace, name, obj in reversed(self._undo):
            setattr(namespace, name, obj)
        self._undo.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, WIDTH)

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.table(), fields=np.array(FIELDS),
                            functions=np.array(self.names))

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures per operation; self time is a span's duration
        minus the durations of its direct children."""
        t = self.table()
        fn, parent = t[:, 0], t[:, 1]
        dur = (t[:, 4] - t[:, 3]) * 1e-9
        children = np.zeros(len(t))
        np.add.at(children, parent[parent >= 0], dur[parent >= 0])
        own = dur - children
        layer = np.array([LAYERS.index(n.split(".")[0]) for n in self.names],
                         dtype=np.int64)[fn]
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        qkd, oracle = LAYERS.index("qkd"), LAYERS.index("oracle")

        def total(values, mask):
            return float(values[mask].sum())

        def named(name):
            return fn == (self.names.index(name) if name in self.names else -1)

        m = {f"{lay}.busy_s": total(own, layer == i) / ops for i, lay in enumerate(LAYERS)}
        build, dec, pair, skr = (named("channel.build_channels"),
                                 named("decomposition.decompose"),
                                 named("decomposition.branch_params"),
                                 named("qkd.total_skr"))
        svs = total(t[:, 6], dec)
        evals = total(t[:, 5], skr)
        m.update({
            "channel.entries": total(t[:, 5], build) / ops,
            "decomposition.factor_mb": total(t[:, 5], dec) / 1e6 / ops,
            "decomposition.sv_used_ratio": total(t[:, 5], pair) / svs if svs else 0.0,
            "decomposition.pairing_s": total(own, pair) / ops,
            "qkd.calls": float(np.count_nonzero((layer == qkd) & (parent_layer != qkd))) / ops,
            "qkd.branch_evals": evals / ops,
            "qkd.us_per_branch_eval": total(dur, skr) / evals * 1e6 if evals else 0.0,
            "qkd.closed_form_s": total(dur, (layer == qkd) & (parent_layer == oracle)) / ops,
            "oracle.eigs_s": total(dur, named("oracle.numeric_symplectic_eigs")) / ops,
            "oracle.eigs_calls": float(np.count_nonzero(named("oracle.numeric_symplectic_eigs"))) / ops,
            "oracle.extended_precision_calls": self.extended_precision_calls / ops,
            "oracle.cond_cov_s": total(dur, named("oracle.conditional_cov_oracle")) / ops,
            "cli.emit_csv_s": total(own, named("cli.emit_csv")) / ops,
        })
        return m
