"""Traced in-process pass: per-layer time and counts, timed from outside.

The pass runs the same commands as a CLI pass by calling
``slamaudit.cli.main`` in this process. Before a traced pass, wrappers are
installed on the names the package looks up at call time (the public
functions ``slamaudit.cli`` imports, plus a few inner names such as
``slamaudit.gbdt.scan_splits`` and ``slamaudit.multitask.grad``). Nothing
under ``src/`` is edited.

A wrapper either records a span (name, start, end, parent) or, for functions
called once per row or per tree node, adds its call count and time to one
aggregate record per (name, parent span). Both are kept in memory and
written out when the pass ends. A span's self time is its duration minus the
time its child spans and aggregates cover; children of one span run one
after another on one thread, so that cover is their summed duration.

A wrapped name that no longer exists is skipped, and every metric that needs
it reads as absent instead of failing the run; so do the counts of a wrapper
whose arguments or result no longer have the shape its observer reads.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.aggregates: dict[tuple[str, int | None], list] = {}  # -> [calls, seconds]
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()  # span names with at least one wrapper
        self.broken: set[str] = set()  # span names whose observer no longer fits
        self._stack: list[int | None] = [None]
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, module_name: str, attr: str, name: str, *, leaf=False, observe=None):
        """Replace ``module.attr`` with a timing wrapper; skipped if absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        fn = getattr(module, attr, None)
        if not callable(fn):
            return
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            if leaf:
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec = tracer.aggregates.setdefault((name, parent), [0, 0.0])
                    rec[0] += 1
                    rec[1] += time.perf_counter() - t0
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if observe is not None and name not in tracer.broken:
                try:
                    observe(tracer.counters, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    tracer.broken.add(name)  # its counts read absent from here on
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))
        self.installed.add(name)

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) and self seconds."""
        covered: dict[int, float] = defaultdict(float)
        for sid, _name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (_name, parent), (_calls, seconds) in self.aggregates.items():
            if parent is not None:
                covered[parent] += seconds
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for sid, name, start, end, _parent in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total"] += end - start
            rec["self"] += end - start - covered[sid]
        for (name, _parent), (calls, seconds) in self.aggregates.items():
            rec = out[name]
            rec["calls"] += calls
            rec["total"] += seconds
            rec["self"] += seconds
        return dict(out)

    def dump(self, path: Path) -> None:
        payload = {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans
            ],
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls, "seconds": seconds}
                for (name, parent), (calls, seconds) in self.aggregates.items()
            ],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = [len(t.spans), self.name, 0.0, 0.0, t._stack[-1]]
        t.spans.append(self.rec)
        t._stack.append(self.rec[0])
        self.rec[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


# -- observers: counts taken at the layer boundary, after the timed call ------


def _rows(counters, args, kwargs, result):
    counters["slam_format.rows"] += len(result.instances)


def _vocab_dims(counters, args, kwargs, result):
    counters["features.total_dims"] = max(counters["features.total_dims"], result.total_dims)


def _nnz(counters, args, kwargs, result):
    counters["features.encoded_rows"] += 1
    counters["features.nnz"] += len(result.indices) + sum(
        1 for _dim, value in result.numeric if value != 0.0
    )


def _dense(counters, args, kwargs, result):
    counters["features.dense_mb"] = max(counters["features.dense_mb"], result.nbytes / MB)
    counters["features.total_dims"] = max(counters["features.total_dims"], result.shape[1])


def _trees(counters, args, kwargs, result):
    counters["gbdt.trees"] += len(result.trees)
    counters["gbdt.nodes"] += sum(len(tree.feature) for tree in result.trees)


def _scan(counters, args, kwargs, result):
    vals = args[0]
    counters["gbdt.scan_cells"] += vals.shape[0] * vals.shape[1]


def _epochs(counters, args, kwargs, result):
    counters["multitask.epochs"] += result.config.epochs


def _file_kb(key):
    def observe(counters, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        counters[key] = max(counters[key], os.path.getsize(path) / 1024.0)

    return observe


def _loaded_kb(key):
    def observe(counters, args, kwargs, result):
        counters[key] = max(counters[key], os.path.getsize(args[0]) / 1024.0)

    return observe


def _roc_points(counters, args, kwargs, result):
    counters["metrics.roc_points"] += len(result.points)


def _report(counters, args, kwargs, result):
    counters["fairness.pairs"] += len(result.results)
    counters["grouping.groups_kept"] += len(
        {g for r in result.results for g in (r.group_a, r.group_b)}
    )
    counters["grouping.groups_skipped"] += len(result.skipped)


def _svg(counters, args, kwargs, result):
    counters["svgplot.svg_kb"] += len(result.encode("utf-8")) / 1024.0


def _hashed(counters, args, kwargs, result):
    counters["manifest.hashed_mb"] += os.path.getsize(args[0]) / MB


# (module, attribute, span name, leaf, observer)
WRAPS = [
    ("slamaudit.cli", "read_dataset", "slam_format.read_dataset", False, _rows),
    ("slamaudit.cli", "read_label_key", "slam_format.read_label_key", False, None),
    ("slamaudit.cli", "join_labels", "slam_format.join_labels", False, None),
    ("slamaudit.cli", "build_vocab", "features.build_vocab", False, _vocab_dims),
    ("slamaudit.gbdt", "encode", "features.encode", True, _nnz),
    ("slamaudit.multitask", "encode", "features.encode", True, _nnz),
    ("slamaudit.gbdt", "to_dense", "features.to_dense", False, _dense),
    ("slamaudit.cli", "train_gbdt", "gbdt.train", False, _trees),
    ("slamaudit.gbdt", "scan_splits", "gbdt.scan_splits", True, _scan),
    ("slamaudit.cli", "predict_scores", "gbdt.predict_scores", False, None),
    ("slamaudit.cli", "save_model", "gbdt.save_model", False, _file_kb("gbdt.model_kb")),
    ("slamaudit.cli", "load_model", "gbdt.load_model", False, _loaded_kb("gbdt.model_kb")),
    ("slamaudit.cli", "train_multitask", "multitask.train", False, _epochs),
    ("slamaudit.multitask", "grad", "multitask.grad", True, None),
    ("slamaudit.cli", "predict_mt_scores", "multitask.predict", False, None),
    ("slamaudit.cli", "save_mt_model", "multitask.save_model", False,
     _file_kb("multitask.model_kb")),
    ("slamaudit.cli", "load_mt_model", "multitask.load_model", False,
     _loaded_kb("multitask.model_kb")),
    ("slamaudit.cli", "roc_curve", "metrics.roc_curve", False, _roc_points),
    ("slamaudit.fairness", "roc_curve", "metrics.roc_curve", False, _roc_points),
    ("slamaudit.cli", "auc_trapezoid", "metrics.auc_trapezoid", True, None),
    ("slamaudit.fairness", "auc_trapezoid", "metrics.auc_trapezoid", True, None),
    ("slamaudit.metrics", "auc_rank", "metrics.auc_rank", False, None),
    ("slamaudit.cli", "f1_at_threshold", "metrics.f1_at_threshold", False, None),
    ("slamaudit.cli", "tag_instance", "grouping.tag_instance", True, None),
    ("slamaudit.cli", "slice_predictions", "grouping.slice_predictions", False, None),
    ("slamaudit.fairness", "slice_predictions", "grouping.slice_predictions", False, None),
    ("slamaudit.cli", "group_audit", "fairness.group_audit", False, _report),
    ("slamaudit.fairness", "abroca", "fairness.abroca", False, None),
    ("slamaudit.cli", "report_to_dict", "fairness.report_to_dict", False, None),
    ("slamaudit.cli", "report_to_csv", "fairness.report_to_csv", False, None),
    ("slamaudit.cli", "render_roc_plot", "svgplot.render_roc_plot", False, _svg),
    ("slamaudit.cli", "build_manifest", "manifest.build_manifest", False, None),
    ("slamaudit.manifest", "sha256_file", "manifest.sha256_file", True, _hashed),
]


def install(tracer: Tracer) -> None:
    for module_name, attr, name, leaf, observe in WRAPS:
        tracer.wrap(module_name, attr, name, leaf=leaf, observe=observe)


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None marks an absent metric.

    A ``_s`` metric is the layer's self time summed over its calls, except
    ``gbdt.train_s``, ``multitask.train_s`` and ``manifest.build_s``, which
    take whole calls, so that ``scan_share``, ``s_per_tree`` and
    ``s_per_epoch`` are shares of an entire training call.
    """
    stats = tracer.by_name()
    c = tracer.counters

    def have(*names):
        return all(n in tracer.installed for n in names)

    def self_s(*names):
        if not have(*names):
            return None
        return sum(stats.get(n, {}).get("self", 0.0) for n in names)

    def total_s(name):
        return stats.get(name, {}).get("total", 0.0) if have(name) else None

    def calls(name):
        return stats.get(name, {}).get("calls", 0) if have(name) else None

    def count(key, *names):
        counted = have(*names) and not tracer.broken.intersection(names)
        return c.get(key, 0.0) if counted else None

    def ratio(a, b):
        if a is None or b is None:
            return None
        return a / b if b else 0.0

    m: dict[str, float | None] = {}
    m["slam_format.read_dataset_s"] = self_s("slam_format.read_dataset")
    m["slam_format.rows_per_s"] = ratio(
        count("slam_format.rows", "slam_format.read_dataset"), m["slam_format.read_dataset_s"]
    )
    m["slam_format.read_label_key_s"] = self_s("slam_format.read_label_key")
    m["slam_format.join_labels_s"] = self_s("slam_format.join_labels")

    m["features.build_vocab_s"] = self_s("features.build_vocab")
    m["features.encode_s"] = self_s("features.encode")
    m["features.to_dense_s"] = self_s("features.to_dense")
    m["features.total_dims"] = count("features.total_dims", "features.build_vocab")
    m["features.nnz_per_row"] = ratio(
        count("features.nnz", "features.encode"),
        count("features.encoded_rows", "features.encode"),
    )
    m["features.dense_mb"] = count("features.dense_mb", "features.to_dense")

    m["gbdt.train_s"] = total_s("gbdt.train")
    m["gbdt.s_per_tree"] = ratio(m["gbdt.train_s"], count("gbdt.trees", "gbdt.train"))
    m["gbdt.nodes"] = count("gbdt.nodes", "gbdt.train")
    m["gbdt.scan_calls"] = calls("gbdt.scan_splits")
    m["gbdt.scan_cells"] = count("gbdt.scan_cells", "gbdt.scan_splits")
    m["gbdt.scan_s"] = total_s("gbdt.scan_splits")
    m["gbdt.scan_share"] = ratio(m["gbdt.scan_s"], m["gbdt.train_s"])
    m["gbdt.predict_s"] = self_s("gbdt.predict_scores")
    m["gbdt.save_s"] = self_s("gbdt.save_model")
    m["gbdt.load_s"] = self_s("gbdt.load_model")
    m["gbdt.model_kb"] = count("gbdt.model_kb", "gbdt.save_model", "gbdt.load_model")

    m["multitask.train_s"] = total_s("multitask.train")
    m["multitask.s_per_epoch"] = ratio(
        m["multitask.train_s"], count("multitask.epochs", "multitask.train")
    )
    m["multitask.grad_calls"] = calls("multitask.grad")
    m["multitask.grad_s"] = total_s("multitask.grad")
    m["multitask.predict_s"] = self_s("multitask.predict")
    m["multitask.load_s"] = self_s("multitask.load_model")
    m["multitask.model_kb"] = count(
        "multitask.model_kb", "multitask.save_model", "multitask.load_model"
    )

    m["metrics.roc_curve_s"] = self_s("metrics.roc_curve")
    m["metrics.auc_trapezoid_s"] = self_s("metrics.auc_trapezoid")
    m["metrics.auc_rank_s"] = self_s("metrics.auc_rank")
    m["metrics.f1_s"] = self_s("metrics.f1_at_threshold")
    m["metrics.roc_points"] = count("metrics.roc_points", "metrics.roc_curve")

    m["grouping.tag_instance_s"] = self_s("grouping.tag_instance")
    m["grouping.slice_predictions_s"] = self_s("grouping.slice_predictions")
    m["grouping.groups_kept"] = count("grouping.groups_kept", "fairness.group_audit")
    m["grouping.groups_skipped"] = count("grouping.groups_skipped", "fairness.group_audit")

    m["fairness.group_audit_s"] = self_s("fairness.group_audit")
    m["fairness.abroca_s"] = self_s("fairness.abroca")
    m["fairness.report_s"] = self_s("fairness.report_to_dict", "fairness.report_to_csv")
    m["fairness.pairs"] = count("fairness.pairs", "fairness.group_audit")

    m["svgplot.render_s"] = self_s("svgplot.render_roc_plot")
    m["svgplot.svg_kb"] = count("svgplot.svg_kb", "svgplot.render_roc_plot")

    m["manifest.build_s"] = total_s("manifest.build_manifest")
    m["manifest.hashed_mb"] = count("manifest.hashed_mb", "manifest.sha256_file")
    return m


def top_self(tracer: Tracer, n: int = 8) -> list[tuple[str, float, int]]:
    """The n span names with the most self time: (name, seconds, calls)."""
    stats = tracer.by_name()
    ranked = sorted(stats.items(), key=lambda kv: kv[1]["self"], reverse=True)
    return [(name, rec["self"], rec["calls"]) for name, rec in ranked[:n]]
