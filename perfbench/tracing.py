"""Spans around the calls into each flowgate module, recorded from outside.

`install` replaces each traced public function with a wrapper at every name
the program looks it up by: the defining module and every module that
imported it by name (`read_dataset` in both `flowgate.dataset` and
`flowgate.pipeline`, for example). Methods are wrapped on their class. Each
span holds a name, a start, an end, its parent span and the counts taken from
the call; spans stay in memory until `write` saves them. Checkpoint loads are
counted in bytes actually read: the name `open` in `flowgate.checkpoint` is
bound to a wrapper that tallies what each `read` returns.

A layer's self time is the duration of its spans minus the time their child
spans cover, so the layer times of a run add up to the time the spans cover.
"""
from __future__ import annotations

import builtins
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional

Counter = Optional[Callable[[tuple, dict, object], dict]]


def _trained(prefix: str, rows: Callable[[tuple], int]) -> Counter:
    def count(args, kwargs, ckpt) -> dict:
        epochs = int(ckpt.meta["epochs_run"])
        return {f"{prefix}.epochs": epochs, f"{prefix}.samples": rows(args) * epochs}
    return count


def _saved_mb(args, kwargs, out) -> dict:
    return {"checkpoint.saves": 1, "checkpoint.save_mb": os.path.getsize(args[0]) / 1e6}


class _ReadTally:
    """Bytes returned by reads on the files `flowgate.checkpoint` opens."""

    def __init__(self) -> None:
        self.bytes = 0

    def take(self, args, kwargs, out) -> dict:
        """Counter of a `load_checkpoint` span: the bytes read since the last one."""
        taken, self.bytes = self.bytes, 0
        return {"checkpoint.loads": 1, "checkpoint.load_mb": taken / 1e6}


_READS = _ReadTally()


class _CountedFile:
    """A file object whose `read` and `readinto` add to the tally while tracing."""

    def __init__(self, fh, tracer: "Tracer") -> None:
        self._fh = fh
        self._tracer = tracer

    def __enter__(self) -> "_CountedFile":
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def read(self, *args):
        data = self._fh.read(*args)
        if self._tracer.on:
            _READS.bytes += len(data)
        return data

    def readinto(self, buffer):
        n = self._fh.readinto(buffer)
        if self._tracer.on:
            _READS.bytes += n or 0
        return n

    def __getattr__(self, name):
        return getattr(self._fh, name)


# (module, attribute, time metric, counter). Counters run after the span ends.
TRACED: tuple[tuple[str, str, str, Counter], ...] = (
    ("flowgate.pcap", "parse_capture", "pcap.parse_s", None),
    ("flowgate.packets", "process_capture", "packets.encode_s",
     lambda a, k, out: {"packets.frames": out[1].seen, "packets.kept": out[1].kept}),
    ("flowgate.dataset", "read_dataset", "dataset.read_s",
     lambda a, k, out: {"dataset.read_rows": len(out)}),
    ("flowgate.dataset", "read_latents", "dataset.read_s",
     lambda a, k, out: {"dataset.read_rows": out[0].shape[0]}),
    ("flowgate.dataset", "write_dataset", "dataset.write_s",
     lambda a, k, out: {"dataset.write_rows": out}),
    ("flowgate.dataset", "write_latents", "dataset.write_s",
     lambda a, k, out: {"dataset.write_rows": out}),
    ("flowgate.dataset", "values_matrix", "dataset.stack_s",
     lambda a, k, out: {"dataset.stack_rows": out.shape[0]}),
    ("flowgate.nn", "backward", "nn.backward_s",
     lambda a, k, out: {"nn.backward_calls": 1, "nn.tape_records": len(a[0])}),
    ("flowgate.nn", "adam_step", "nn.adam_s", lambda a, k, out: {"nn.adam_calls": 1}),
    ("flowgate.nn", "MLP.eval_np", "nn.eval_s",
     lambda a, k, out: {"nn.eval_rows": a[1].shape[0]}),
    ("flowgate.extractor", "train_extractor", "extractor.train_s",
     _trained("extractor", lambda a: len(a[0]))),
    ("flowgate.extractor", "FeatureExtractor.encode", "extractor.encode_s", None),
    ("flowgate.extractor", "extractor_from_checkpoint", "extractor.build_s", None),
    ("flowgate.extractor", "encoder_from_checkpoint", "extractor.build_s", None),
    ("flowgate.flow", "train_flow", "flow.train_s",
     _trained("flow", lambda a: len(a[1]))),
    ("flowgate.flow", "flow_from_checkpoint", "flow.build_s", None),
    ("flowgate.synthesis", "synthesize", "synthesis.s",
     lambda a, k, out: {"synthesis.rows": out.shape[0]}),
    ("flowgate.classifier", "train_classifier", "classifier.train_s",
     _trained("classifier", lambda a: len(a[0]) + len(a[1]))),
    ("flowgate.classifier", "ClassifierModel.score", "classifier.score_s", None),
    ("flowgate.classifier", "classifier_from_checkpoint", "classifier.build_s", None),
    ("flowgate.checkpoint", "save_checkpoint", "checkpoint.save_s", _saved_mb),
    ("flowgate.checkpoint", "load_checkpoint", "checkpoint.load_s", _READS.take),
    ("flowgate.pipeline", "run_pipeline", "pipeline.orchestrate_s", None),
    ("flowgate.pipeline", "_cached_checkpoint", "pipeline.orchestrate_s",
     lambda a, k, out: {"pipeline.cache_lookups": 1,
                        "pipeline.cache_hits": int(out is not None)}),
    ("flowgate.pipeline", "InferenceEngine.from_checkpoint_files",
     "pipeline.engine_load_s", lambda a, k, out: {"pipeline.engine_loads": 1}),
    ("flowgate.pipeline", "infer", "pipeline.infer_s", None),
    ("flowgate.pipeline", "InferenceEngine.score_packets", "pipeline.infer_s", None),
    ("flowgate.metrics", "evaluate", "metrics.evaluate_s",
     lambda a, k, out: {"metrics.evaluated": len(a[0])}),
    ("flowgate.metrics", "tied_ranks", "metrics.tied_ranks_s", None),
    ("flowgate.metrics", "write_scores", "metrics.write_scores_s", None),
)

# Every per-layer metric and its unit, in report order. Derived entries
# (ratios and the trace.* accounting) are filled in by `layer_metrics`.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("pcap.records", "count"), ("pcap.parse_s", "s"),
    ("packets.frames", "count"), ("packets.kept", "count"),
    ("packets.keep_ratio", "ratio"), ("packets.encode_s", "s"),
    ("dataset.read_rows", "rows"), ("dataset.read_s", "s"),
    ("dataset.write_rows", "rows"), ("dataset.write_s", "s"),
    ("dataset.stack_rows", "rows"), ("dataset.stack_s", "s"),
    ("nn.backward_calls", "count"), ("nn.tape_records", "count"),
    ("nn.backward_s", "s"), ("nn.adam_calls", "count"), ("nn.adam_s", "s"),
    ("nn.eval_rows", "rows"), ("nn.eval_s", "s"),
    ("extractor.epochs", "count"), ("extractor.samples", "rows"),
    ("extractor.train_s", "s"), ("extractor.encode_s", "s"),
    ("extractor.build_s", "s"),
    ("flow.epochs", "count"), ("flow.samples", "rows"), ("flow.train_s", "s"),
    ("flow.build_s", "s"),
    ("synthesis.rows", "rows"), ("synthesis.s", "s"),
    ("classifier.epochs", "count"), ("classifier.samples", "rows"),
    ("classifier.train_s", "s"), ("classifier.score_s", "s"),
    ("classifier.build_s", "s"),
    ("checkpoint.saves", "count"), ("checkpoint.save_mb", "MB"),
    ("checkpoint.save_s", "s"), ("checkpoint.loads", "count"),
    ("checkpoint.load_mb", "MB"), ("checkpoint.load_s", "s"),
    ("pipeline.cache_lookups", "count"), ("pipeline.cache_hits", "count"),
    ("pipeline.cache_hit_ratio", "ratio"), ("pipeline.engine_loads", "count"),
    ("pipeline.engine_load_s", "s"), ("pipeline.infer_s", "s"),
    ("pipeline.orchestrate_s", "s"),
    ("metrics.evaluated", "count"), ("metrics.evaluate_s", "s"),
    ("metrics.tied_ranks_s", "s"), ("metrics.write_scores_s", "s"),
    ("trace.window_s", "s"), ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


_END = object()


class Tracer:
    """Span store. Spans are recorded only while `on` is true."""

    def __init__(self) -> None:
        # [time metric, start, end, parent index, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.on = False

    def _open(self, metric: str) -> list:
        span = [metric, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, metric: str, counter: Counter) -> Callable:
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = self._open(metric)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out
        return traced

    def wrap_generator(self, fn: Callable, metric: str, count_key: str) -> Callable:
        """Each step of the generator is its own span, counted as one record."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not self.on:
                    item = next(it, _END)
                else:
                    span = self._open(metric)
                    try:
                        item = next(it, _END)
                    finally:
                        self._close(span)
                    if item is not _END:
                        span[4] = {count_key: 1}
                if item is _END:
                    return
                yield item
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function at every flowgate name bound to it, and count
    the bytes the checkpoint module reads through `open`."""
    module = sys.modules["flowgate.checkpoint"]
    module.open = lambda *args, **kwargs: _CountedFile(builtins.open(*args, **kwargs),
                                                       tracer)
    for module_name, attr, metric, counter in TRACED:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, metric, counter)))
            else:
                setattr(cls, meth, tracer.wrap(raw, metric, counter))
            continue
        original = getattr(module, attr)
        if attr == "parse_capture":
            rebind(original, tracer.wrap_generator(original, metric, "pcap.records"))
        else:
            rebind(original, tracer.wrap(original, metric, counter))


def rebind(original: Callable, replacement: Callable) -> None:
    """Point every flowgate module-level name bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "flowgate" or name.startswith("flowgate."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a wrapped no-op."""
    def noop():
        return None
    probe = Tracer()
    traced = probe.wrap(noop, "probe", None)
    probe.on = True
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    mid = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, ((mid - start) - (time.perf_counter() - mid)) / calls)


def layer_metrics(tracer: Tracer, window_s: float, wall_s: float) -> dict[str, float]:
    """Self times and counts per metric; `window_s` is the time tracing was on."""
    totals = {name: 0.0 for name, _ in LAYER_METRICS}
    child = [0.0] * len(tracer.spans)
    root_s = 0.0
    for metric, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            root_s += end - start
    for i, (metric, start, end, _, counts) in enumerate(tracer.spans):
        totals[metric] += end - start - child[i]
        for key, value in (counts or {}).items():
            totals[key] += value
    frames = totals["packets.frames"]
    totals["packets.keep_ratio"] = totals["packets.kept"] / frames if frames else 0.0
    lookups = totals["pipeline.cache_lookups"]
    totals["pipeline.cache_hit_ratio"] = \
        totals["pipeline.cache_hits"] / lookups if lookups else 0.0
    totals["trace.window_s"] = window_s
    totals["trace.wall_s"] = wall_s
    totals["trace.unattributed_s"] = window_s - root_s
    totals["trace.spans"] = len(tracer.spans)
    totals["trace.overhead_s"] = len(tracer.spans) * span_cost()
    for name, unit in LAYER_METRICS:
        if unit in ("count", "rows"):
            totals[name] = int(round(totals[name]))
    return totals


def write(tracer: Tracer, path: Path) -> None:
    """Spans as JSON lines: name, start, end, parent index, counts."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")

