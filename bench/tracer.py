"""Span tracing of the library's layers, installed from outside the library.

The tracer replaces public functions of ``neurodecode`` with timing
wrappers by assigning module and class attributes.  The library calls
its own layers through module globals (``ops.make``, ``core.check_finite``,
``training.evaluate``, ``pipeline.bandpass``, ...), so a wrapper on the
attribute also sees the library's internal calls.  Nothing under ``src/``
knows about tracing.

Each wrapper records one span: name, start, end and the index of the
enclosing span.  Spans are kept in flat arrays while the workload runs,
written out once it ends, and reduced to per-layer metrics after the
original functions are restored.  Span indices are assigned when a span
opens, so a parent always has a smaller index than its children.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from verify import report_passed

TRAIN = "training.train"
STEP_PHASES = ("models.Model.loss", "core.Tensor.backward", "training.sgd_step")

# Primitive ops: forward timed by the wrapper, backward by wrapping the
# ``_backward`` closure of the tensor the op returns.
PRIMITIVE_OPS = (
    "add", "sub", "mul", "scale", "powc", "relu", "elu", "sigmoid", "tanh",
    "reshape", "transpose", "narrow", "stack", "mean_axis", "sum_axis",
    "matmul", "dense", "softmax", "conv_temporal", "conv_spatial_depthwise",
    "depthwise_conv_time", "pointwise_conv", "avg_pool_time", "batch_norm",
    "layer_norm", "dropout", "cross_entropy",
)
# Ops composed from primitives; their self time is the Python glue.
COMPOSITE_OPS = ("lstm_layer", "multi_head_attention", "chebyshev_graph_conv")

REPORTED_OPS = (
    "conv_temporal", "conv_spatial_depthwise", "depthwise_conv_time",
    "pointwise_conv", "avg_pool_time", "batch_norm", "layer_norm", "dense",
    "matmul", "softmax", "narrow", "stack", "sigmoid", "tanh", "elu",
    "dropout", "cross_entropy",
)
TRAINED_CELLS = (
    "eegnet-small", "conformer-small", "lstm-small", "lstm-medium",
    "transformer-small", "dgcnn-small",
)
CHECKED_CELLS = ("eegnet-small", "lstm-small", "conformer-small")

# (module name, attribute path) -> span name, for plain timed wrappers
PLAIN = {
    ("training", "evaluate"): "training.evaluate",
    ("training", "sgd_step"): "training.sgd_step",
    ("training", "write_run_dir"): "training.write_run_dir",
    ("training", "check_finite"): "core.check_finite",
    ("core", "check_finite"): "core.check_finite",
    ("core", "Tensor.backward"): "core.Tensor.backward",
    ("core", "Tensor.accumulate"): "core.Tensor.accumulate",
    ("ops", "make"): "ops.make",
    ("models", "Model.loss"): "models.Model.loss",
    ("models", "Model.predict"): "models.Model.predict",
    ("data", "generate_synthetic"): "data.generate_synthetic",
    ("data", "generate_raw"): "data.generate_raw",
    ("data", "split"): "data.split",
    ("data", "save_raw"): "data.save_raw",
    ("data", "load_raw"): "data.load_raw",
    ("data", "save_epochs"): "data.save_epochs",
    ("data", "load_epochs"): "data.load_epochs",
    ("pipeline", "rereference"): "pipeline.rereference",
    ("pipeline", "bandpass"): "pipeline.bandpass",
    ("pipeline", "downsample"): "pipeline.downsample",
    ("pipeline", "extract_epochs"): "pipeline.extract_epochs",
    ("pipeline", "baseline_correct"): "pipeline.baseline_correct",
    ("pipeline", "crop_and_zscore"): "pipeline.crop_and_zscore",
    ("baseline", "fit_csp"): "baseline.fit_csp",
    ("baseline", "fit_lda"): "baseline.fit_lda",
    ("baseline", "csp_features"): "baseline.csp_features",
    ("baseline", "fit_csp_lda"): "baseline.fit_csp_lda",
    ("baseline", "CspLdaPipeline.predict"): "baseline.CspLdaPipeline.predict",
    ("checks", "check_op_gradients"): "checks.check_op_gradients",
}

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("training.forward_ms", "ms", "lower"),
    ("training.backward_ms", "ms", "lower"),
    ("training.sgd_step_ms", "ms", "lower"),
    ("training.evaluate_ms", "ms", "lower"),
    ("models.predict_ms", "ms", "lower"),
    ("training.write_run_dir_ms", "ms", "lower"),
    ("eegb.save_checkpoint_ms", "ms", "lower"),
    *[(f"models.{cell}.step_ms", "ms", "lower") for cell in TRAINED_CELLS],
    ("core.nodes_per_step", "count", "lower"),
    ("core.check_finite_ms", "ms", "lower"),
    ("core.check_finite.calls", "count", "lower"),
    ("core.accumulate_ms", "ms", "lower"),
    ("core.accumulate.calls", "count", "lower"),
    ("core.backward_self_ms", "ms", "lower"),
    *[(f"ops.{op}.{phase}_ms", "ms", "lower") for op in REPORTED_OPS for phase in ("fwd", "bwd")],
    *[(f"ops.{op}.self_ms", "ms", "lower") for op in COMPOSITE_OPS],
    ("data.generate_synthetic_ms", "ms", "lower"),
    ("data.generate_raw_ms", "ms", "lower"),
    ("data.split_ms", "ms", "lower"),
    ("eegb.write_tensor_file_ms", "ms", "lower"),
    ("eegb.read_tensor_file_ms", "ms", "lower"),
    ("eegb.bytes_written", "bytes", "lower"),
    ("eegb.bytes_read", "bytes", "lower"),
    ("pipeline.rereference_ms", "ms", "lower"),
    ("pipeline.bandpass_ms", "ms", "lower"),
    ("pipeline.downsample_ms", "ms", "lower"),
    ("pipeline.extract_epochs_ms", "ms", "lower"),
    ("pipeline.baseline_correct_ms", "ms", "lower"),
    ("pipeline.crop_and_zscore_ms", "ms", "lower"),
    ("pipeline.skipped", "count", "lower"),
    ("baseline.fit_csp_ms", "ms", "lower"),
    ("baseline.fit_lda_ms", "ms", "lower"),
    ("baseline.csp_features_ms", "ms", "lower"),
    ("checks.op_gradients_ms", "ms", "lower"),
    *[(f"checks.model_gradients_ms.{cell}", "ms", "lower") for cell in CHECKED_CELLS],
    ("gradcheck.loss_evals", "count", "lower"),
    ("gradcheck.loss_eval_ms", "ms", "lower"),
    ("gradcheck.pass_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Records nested spans of wrapped calls and undoes its own patches."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def timed(self, fn, name: str, tag=None):
        """``fn`` wrapped in a span; ``tag(args, kwargs)`` labels the span."""
        name_id = self.intern(name)

        def wrapper(*args, **kwargs):
            i = self.open(name_id)
            if tag is not None:
                self.tags[i] = tag(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return functools.update_wrapper(wrapper, fn)

    def _timed_backward(self, fn, name_id: int):
        def backward(g):
            i = self.open(name_id)
            try:
                return fn(g)
            finally:
                self.close(i)

        backward.traced = True
        return backward

    def timed_op(self, fn, name: str):
        """Forward span around the op, backward span around its closure."""
        fwd_id = self.intern(f"ops.{name}.fwd")
        bwd_id = self.intern(f"ops.{name}.bwd")

        def wrapper(*args, **kwargs):
            i = self.open(fwd_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            closure = out._backward
            # dropout in eval mode and composite ops hand back a tensor
            # whose closure another wrapper already timed
            if closure is not None and not getattr(closure, "traced", False):
                out._backward = self._timed_backward(closure, bwd_id)
            return out

        return functools.update_wrapper(wrapper, fn)

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, nd) -> None:
        """Wrap the layers of the imported ``neurodecode`` package ``nd``."""
        modules = {
            "training": nd.training, "core": nd.autodiff.core, "ops": nd.autodiff.ops,
            "models": nd.models, "data": nd.data, "pipeline": nd.pipeline,
            "baseline": nd.baseline, "checks": nd.checks, "eegb": nd.eegb,
        }
        for (mod, path), name in PLAIN.items():
            owner = modules[mod]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            self.patch(owner, attr, self.timed(getattr(owner, attr), name))
        ops = nd.autodiff.ops
        for op in PRIMITIVE_OPS + COMPOSITE_OPS:
            self.patch(ops, op, self.timed_op(getattr(ops, op), op))

        def cell(arch, size):
            return f"{arch}-{size}"

        self.patch(nd.training, "train", self.timed(
            nd.training.train, TRAIN, tag=lambda a, k: cell(a[0].arch, a[0].size)))
        self.patch(nd.checks, "check_model_gradients", self.timed(
            nd.checks.check_model_gradients, "checks.check_model_gradients",
            tag=lambda a, k: cell(*a[:2])))
        self._patch_counting(nd)

    def _patch_counting(self, nd) -> None:
        eegb, checks, pipeline = nd.eegb, nd.checks, nd.pipeline
        counters = self.counters

        def size_of(*paths) -> int:
            return sum(os.path.getsize(p) for p in paths if os.path.exists(p))

        write = self.timed(eegb.write_tensor_file, "eegb.write_tensor_file")
        read = self.timed(eegb.read_tensor_file, "eegb.read_tensor_file")
        save = self.timed(eegb.save_checkpoint, "eegb.save_checkpoint")
        run_pipeline = self.timed(pipeline.run_pipeline, "pipeline.run_pipeline")
        grad_check = self.timed(checks.grad_check, "gradcheck.grad_check")
        loss_eval_id = self.intern("gradcheck.loss_eval")

        def write_tensor_file(path, *args, **kwargs):
            write(path, *args, **kwargs)
            counters["eegb.bytes_written"] += size_of(path, eegb.sidecar_path(path))

        def read_tensor_file(path):
            out = read(path)
            counters["eegb.bytes_read"] += size_of(path, eegb.sidecar_path(path))
            return out

        def save_checkpoint(path, *args, **kwargs):
            save(path, *args, **kwargs)
            counters["eegb.bytes_written"] += size_of(path)

        def traced_run_pipeline(*args, **kwargs):
            out = run_pipeline(*args, **kwargs)
            counters["pipeline.skipped"] += len(out[2])
            return out

        def traced_grad_check(loss_fn, *args, **kwargs):
            def loss_eval():
                i = self.open(loss_eval_id)
                try:
                    return loss_fn()
                finally:
                    self.close(i)

            report = grad_check(loss_eval, *args, **kwargs)
            counters["gradcheck.reports"] += 1
            counters["gradcheck.passed"] += report_passed(report)
            return report

        self.patch(eegb, "write_tensor_file", write_tensor_file)
        self.patch(eegb, "read_tensor_file", read_tensor_file)
        self.patch(eegb, "save_checkpoint", save_checkpoint)
        self.patch(pipeline, "run_pipeline", traced_run_pipeline)
        self.patch(checks, "grad_check", traced_grad_check)

    # -- output -----------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            tags=dict(self.tags),
            counters=dict(self.counters),
            run_id=self.run_id,
        )


class SpanTable:
    """Finished spans as columns, with the derivations the metrics need."""

    def __init__(self, names, name, parent, start, end, tags, counters, run_id):
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.tags = tags
        self.counters = counters
        self.run_id = run_id

    def __len__(self) -> int:
        return len(self.name)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.duration
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def ids(self, *names: str) -> np.ndarray:
        """Boolean mask of spans carrying any of ``names``."""
        wanted = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, wanted)

    def enclosing_train(self) -> tuple[np.ndarray, np.ndarray]:
        """(index of the enclosing train span or -1, inside a training step)."""
        names = self.names
        train_id = names.index(TRAIN) if TRAIN in names else -2
        phase_ids = {names.index(n) for n in STEP_PHASES if n in names}
        parent = self.parent.tolist()
        name = self.name.tolist()
        train = [-1] * len(name)
        step = [False] * len(name)
        for i, (p, n) in enumerate(zip(parent, name)):
            if n == train_id:
                train[i] = i
            elif p >= 0:
                train[i] = train[p]
                step[i] = step[p] or (n in phase_ids and train[p] >= 0)
        return np.array(train, dtype=np.int64), np.array(step, dtype=bool)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, name=self.name, parent=self.parent, start=self.start, end=self.end,
            meta=np.array(json.dumps({
                "run_id": self.run_id, "names": self.names,
                "tags": {str(k): v for k, v in self.tags.items()}, "counters": self.counters,
            })),
        )


def _mean_ms(dur: np.ndarray, mask: np.ndarray) -> float:
    return float(dur[mask].mean() * 1e3) if mask.any() else 0.0


def derive(spans: SpanTable) -> dict[str, float]:
    """Per-layer metrics: milliseconds per call, or per training step
    for the training and tape rows, plus exact counts."""
    dur = spans.duration
    own = spans.self_time()
    train, step = spans.enclosing_train()
    in_train = train >= 0
    sgd = spans.ids("training.sgd_step") & in_train
    n_steps = int(sgd.sum())
    m: dict[str, float] = {}

    def per_step(mask, values=dur, scale=1e3):
        return float(values[mask].sum() * scale / n_steps) if n_steps else 0.0

    m["training.forward_ms"] = _mean_ms(dur, spans.ids("models.Model.loss") & in_train)
    m["training.backward_ms"] = _mean_ms(dur, spans.ids("core.Tensor.backward") & in_train)
    m["training.sgd_step_ms"] = _mean_ms(dur, sgd)
    m["training.evaluate_ms"] = _mean_ms(dur, spans.ids("training.evaluate"))
    m["models.predict_ms"] = _mean_ms(dur, spans.ids("models.Model.predict"))
    m["training.write_run_dir_ms"] = _mean_ms(dur, spans.ids("training.write_run_dir"))
    m["eegb.save_checkpoint_ms"] = _mean_ms(dur, spans.ids("eegb.save_checkpoint"))

    phases = spans.ids(*STEP_PHASES) & in_train
    for cell in TRAINED_CELLS:
        runs = [i for i, t in spans.tags.items() if t == cell and spans.names[spans.name[i]] == TRAIN]
        of_cell = np.isin(train, runs)
        steps = int((sgd & of_cell).sum())
        m[f"models.{cell}.step_ms"] = float(dur[phases & of_cell].sum() * 1e3 / steps) if steps else 0.0

    finite = spans.ids("core.check_finite") & step
    accumulate = spans.ids("core.Tensor.accumulate") & step
    m["core.nodes_per_step"] = per_step(spans.ids("ops.make") & step, np.ones_like(dur), 1.0)
    m["core.check_finite_ms"] = per_step(finite)
    m["core.check_finite.calls"] = per_step(finite, np.ones_like(dur), 1.0)
    m["core.accumulate_ms"] = per_step(accumulate)
    m["core.accumulate.calls"] = per_step(accumulate, np.ones_like(dur), 1.0)
    m["core.backward_self_ms"] = per_step(spans.ids("core.Tensor.backward") & in_train, own)

    for op in REPORTED_OPS:
        for phase in ("fwd", "bwd"):
            m[f"ops.{op}.{phase}_ms"] = _mean_ms(dur, spans.ids(f"ops.{op}.{phase}"))
    for op in COMPOSITE_OPS:
        m[f"ops.{op}.self_ms"] = _mean_ms(own, spans.ids(f"ops.{op}.fwd"))

    for name in ("data.generate_synthetic", "data.generate_raw", "data.split",
                 "eegb.write_tensor_file", "eegb.read_tensor_file"):
        m[f"{name}_ms"] = _mean_ms(dur, spans.ids(name))
    m["eegb.bytes_written"] = spans.counters.get("eegb.bytes_written", 0.0)
    m["eegb.bytes_read"] = spans.counters.get("eegb.bytes_read", 0.0)
    for stage in ("rereference", "bandpass", "downsample", "extract_epochs",
                  "baseline_correct", "crop_and_zscore"):
        m[f"pipeline.{stage}_ms"] = _mean_ms(dur, spans.ids(f"pipeline.{stage}"))
    m["pipeline.skipped"] = spans.counters.get("pipeline.skipped", 0.0)
    for name in ("fit_csp", "fit_lda", "csp_features"):
        m[f"baseline.{name}_ms"] = _mean_ms(dur, spans.ids(f"baseline.{name}"))

    m["checks.op_gradients_ms"] = _mean_ms(dur, spans.ids("checks.check_op_gradients"))
    cell_checks = spans.ids("checks.check_model_gradients")
    for cell in CHECKED_CELLS:
        tagged = np.zeros(len(spans), dtype=bool)
        tagged[[i for i, t in spans.tags.items() if t == cell]] = True
        m[f"checks.model_gradients_ms.{cell}"] = _mean_ms(dur, cell_checks & tagged)
    loss_evals = spans.ids("gradcheck.loss_eval")
    m["gradcheck.loss_evals"] = float(loss_evals.sum())
    m["gradcheck.loss_eval_ms"] = _mean_ms(dur, loss_evals)
    reports = spans.counters.get("gradcheck.reports", 0.0)
    m["gradcheck.pass_ratio"] = spans.counters.get("gradcheck.passed", 0.0) / reports if reports else 0.0
    m["trace.spans"] = float(len(spans))
    return m
