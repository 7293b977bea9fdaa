"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps spinsq's public functions from outside, in the module
namespaces their callers look them up in at call time, so nothing under
``src/`` changes.  Each span records its name, start, end, parent span,
thread and op; spans are kept in per-thread buffers and reduced to the
per-layer metrics (and optionally written out as CSV) when the run ends.

A layer is a module of the package; its spans are named
``<layer>.<function>``.  ``_kernels`` is reported as ``kernels`` because
metric names must start with a letter or digit.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

SCHEMES = ("ts", "ap1", "ap2", "rp1", "rp2")
LAYERS = ("states", "schemes", "variance", "hypothesis", "montecarlo", "kernels", "cli")
KERNELS = ("total_spin", "pairs", "split", "rand_pairs", "rand_split")
COLLECTORS = ("total_spin", "all_pairs", "split_single", "random_pairs", "random_split")
KINDS = ("total_spin", "pairs", "split", "random_pairs", "random_split")
# states sampler -> the schemes whose collectors call it
SAMPLERS = {"pair": ("ap1", "ap2", "rp1", "rp2"), "single": ("ap2", "rp2"), "total_spin": ("ts",)}

# (module, attribute, span name): the module is the namespace in which the
# caller resolves the name, which is where the wrapper has to sit.
PATCHES = (
    *(("spinsq._kernels", f"{k}_reduce", f"kernels.{k}_reduce") for k in KERNELS),
    ("spinsq.montecarlo", "run_trials", "montecarlo.run_trials"),
    ("spinsq.montecarlo", "child_generator", "montecarlo.child_generator"),
    ("spinsq.montecarlo", "histogram", "montecarlo.histogram"),
    ("spinsq.montecarlo", "parameter_value", "variance.parameter_value"),
    ("spinsq.montecarlo", "compose_parameter", "schemes.compose_parameter"),
    *(("spinsq.cli", f"collect_{c}", f"schemes.collect_{c}") for c in COLLECTORS),
    ("spinsq.cli", "write_dataset", "schemes.write_dataset"),
    ("spinsq.cli", "read_dataset", "schemes.read_dataset"),
    ("spinsq.cli", "estimate_parameter", "schemes.estimate_parameter"),
    ("spinsq.cli", "var_parameter", "variance.var_parameter"),
    ("spinsq.cli", "p_value_bound", "hypothesis.p_value_bound"),
    ("spinsq.schemes", "sample_pair", "states.sample_pair"),
    ("spinsq.schemes", "sample_single", "states.sample_single"),
    ("spinsq.schemes", "sample_total_spin", "states.sample_total_spin"),
    ("spinsq.hypothesis", "required_budget", "hypothesis.required_budget"),
    ("spinsq.hypothesis", "cantelli_bound", "hypothesis.cantelli_bound"),
    ("spinsq.hypothesis", "block_variance", "variance.block_variance"),
    ("spinsq.variance", "block_variance", "variance.block_variance"),
    ("spinsq.hypothesis", "moment_table", "states.moment_table"),
    ("spinsq.variance", "moment_table", "states.moment_table"),
)

# spans whose self time (see _self_time) is reported
SELF_TIMED = ("montecarlo.run_trials", "hypothesis.required_budget", "cli.sample", "cli.estimate")

_DATASET_KINDS = {
    "TotalSpinDataset": "total_spin",
    "PairDataset": "pairs",
    "SplitSingleDataset": "split",
    "RandomPairDataset": "random_pairs",
    "RandomSplitDataset": "random_split",
}


def _count_uniforms(tracer, args, result, name):
    # the rand_* kernels take the slot-index and outcome uniforms separately
    n_arrays = 2 if name.startswith("kernels.rand_") else 1
    tracer.count("uniforms", sum(a.size for a in args[:n_arrays]))
    return name


def _written(tracer, args, result, name):
    kind = _DATASET_KINDS[type(args[0]).__name__]
    tracer.count(f"bytes.{kind}", os.path.getsize(args[1]))
    return f"{name}.{kind}"


def _read(tracer, args, result, name):
    return f"{name}.{_DATASET_KINDS[type(result).__name__]}"


# what a wrapper records after a successful call; returns the span name
_AFTER = {
    **{f"kernels.{k}_reduce": _count_uniforms for k in KERNELS},
    "schemes.write_dataset": _written,
    "schemes.read_dataset": _read,
}


class _Buffer:
    """One thread's spans: names, (id, parent, op) triples, (start, end) pairs."""

    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.names = []
        self.ids = array("q")
        self.times = array("d")
        self.counts = defaultdict(float)  # (key, op) -> amount

    def spans(self):
        ids, times = iter(self.ids), iter(self.times)
        for name, sid, parent, op, start, end in zip(self.names, ids, ids, ids, times, times):
            yield name, sid, parent, op, self.tid, start, end


class Tracer:
    """Spans and counts of one traced run; the creating thread is the client."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._client = self._buffer()
        self._saved = []
        self.op = 0
        self.ops = {}  # op id -> (scheme, weight)

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
        return buf

    def begin_op(self, scheme, weight=1):
        """Start the next op; spans and counts until the next call belong to it."""
        self.op += 1
        self.ops[self.op] = (scheme, weight)

    def count(self, key, amount=1):
        self._buffer().counts[key, self.op] += amount

    def _open(self):
        buf = self._buffer()
        # a span opened on a worker thread with nothing open there belongs to
        # the client's innermost span, which is waiting for the workers
        if buf.stack:
            parent = buf.stack[-1]
        else:
            parent = self._client.stack[-1] if self._client.stack else 0
        sid = next(self._ids)
        buf.stack.append(sid)
        return buf, sid, parent

    def _close(self, buf, name, sid, parent, start, end):
        buf.stack.pop()
        buf.names.append(name)
        buf.ids.extend((sid, parent, self.op))
        buf.times.extend((start, end))

    @contextmanager
    def span(self, name):
        """Record the enclosed block as a span; an exception counts as a layer error."""
        buf, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.fail(name.partition(".")[0])
            raise
        finally:
            self._close(buf, name, sid, parent, start, time.perf_counter())

    def fail(self, layer):
        self.count(f"{layer}.errors")

    def _wrap(self, fn, name):
        after = _AFTER.get(name)
        layer = name.partition(".")[0]

        def traced(*args, **kwargs):
            buf, sid, parent = self._open()
            label = name
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if after is not None:
                    label = after(self, args, result, name)
                return result
            except Exception:
                end = time.perf_counter()
                self.fail(layer)
                raise
            finally:
                self._close(buf, label, sid, parent, start, end)

        return traced

    def install(self):
        """Wrap every patch point the program has; absent ones are skipped."""
        for module_name, attr, name in PATCHES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def spans(self):
        """Every span as ``(name, id, parent, op, thread, start, end)``."""
        for buf in self._buffers:
            yield from buf.spans()

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "span", "parent", "op", "thread", "start_s", "end_s"])
            writer.writerows(sorted(self.spans(), key=lambda s: s[1]))

    def totals(self):
        """Per span name: calls, total seconds and (for SELF_TIMED) self seconds."""
        calls = defaultdict(int)
        total = defaultdict(float)
        timed = {}
        for name, sid, _, _, tid, start, end in self.spans():
            calls[name] += 1
            total[name] += end - start
            if name in SELF_TIMED:
                timed[sid] = (name, start, end, tid, [])
        for _, _, parent, _, tid, start, end in self.spans():
            if parent in timed:
                timed[parent][4].append((start, end, tid))
        self_time = defaultdict(float)
        for name, *span in timed.values():
            self_time[name] += _self_time(*span)
        return calls, total, self_time

    def counts(self):
        """Per count key and scheme: the summed amount."""
        out = defaultdict(float)
        for buf in self._buffers:
            for (key, op), amount in buf.counts.items():
                out[key, self.ops.get(op, (None,))[0]] += amount
        return out


def _self_time(start, end, tid, children):
    """Thread-seconds a span spent outside its children.

    On the span's own thread that is its duration minus its children and
    minus the time it waited for children on worker threads.  On each worker
    thread it is the stretch from the first child's start to the last child's
    end, minus those children: the caller's own work run there.
    """
    own = [(lo, hi) for lo, hi, t in children if t == tid]
    workers = defaultdict(list)
    for lo, hi, t in children:
        if t != tid:
            workers[t].append((lo, hi))
    envelopes = [(min(lo for lo, _ in iv), max(hi for _, hi in iv)) for iv in workers.values()]
    busy = end - start - _covered(start, end, own + envelopes)
    for (lo, hi), intervals in zip(envelopes, workers.values()):
        busy += hi - lo - _covered(lo, hi, intervals)
    return busy


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(tracer, parallel_efficiency=None, overhead_frac=0.0):
    """The per-layer metrics of a traced run, as ``name -> (value, unit)``.

    Each value is per call of the traced function (``per_call``) or per op
    averaged over every op of the run (``per_op``; an op is one trial in
    mc-reference, one planner call or one sample+estimate round trip);
    ``<sampler>.calls.<scheme>`` is per op of that scheme and errors are
    totals.  A layer the workload never enters reads 0.
    """
    calls, total, self_time = tracer.totals()
    counts = tracer.counts()
    op_weight = sum(w for _, w in tracer.ops.values()) or 1
    trials = defaultdict(int)
    ops = defaultdict(int)
    for scheme, weight in tracer.ops.values():
        trials[scheme] += weight
        ops[scheme] += 1
    scheme_calls = defaultdict(int)
    for name, _, _, op, *_ in tracer.spans():
        if name.startswith("states.sample_"):
            scheme_calls[name, tracer.ops.get(op, (None,))[0]] += 1
    efficiency = parallel_efficiency or {}

    def per_call(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def per_op(name, scale, seconds=total):
        return seconds[name] / op_weight * scale

    def count_total(key):
        return sum(v for (k, _), v in counts.items() if k == key)

    m = {}
    for k in KERNELS:
        m[f"kernels.{k}_reduce.us"] = (per_call(f"kernels.{k}_reduce", 1e6), "us")
    for s in SCHEMES:
        value = counts["uniforms", s] / trials[s] if trials[s] else 0.0
        m[f"kernels.uniforms_per_trial.{s}"] = (value, "count")
    m["montecarlo.run_trials.self_ms"] = (per_op("montecarlo.run_trials", 1e3, self_time), "ms")
    m["montecarlo.child_generator.us"] = (per_op("montecarlo.child_generator", 1e6), "us")
    m["montecarlo.histogram.ms"] = (per_call("montecarlo.histogram", 1e3), "ms")
    m["variance.parameter_value.ms"] = (per_call("variance.parameter_value", 1e3), "ms")
    for s in SCHEMES:
        m[f"montecarlo.parallel_efficiency.{s}"] = (efficiency.get(s, 0.0), "ratio")
    m["schemes.compose_parameter.us"] = (per_op("schemes.compose_parameter", 1e6), "us")
    for c in COLLECTORS:
        m[f"schemes.collect_{c}.ms"] = (per_call(f"schemes.collect_{c}", 1e3), "ms")
    for fn, schemes in SAMPLERS.items():
        for s in schemes:
            value = scheme_calls[f"states.sample_{fn}", s] / ops[s] if ops[s] else 0.0
            m[f"states.sample_{fn}.calls.{s}"] = (value, "count")
    m["states.sample_pair.us"] = (per_call("states.sample_pair", 1e6), "us")
    for kind in KINDS:
        m[f"schemes.write_dataset.ms.{kind}"] = (per_call(f"schemes.write_dataset.{kind}", 1e3), "ms")
        written = calls[f"schemes.write_dataset.{kind}"]
        value = count_total(f"bytes.{kind}") / written if written else 0.0
        m[f"schemes.write_dataset.bytes.{kind}"] = (value, "bytes")
        m[f"schemes.read_dataset.ms.{kind}"] = (per_call(f"schemes.read_dataset.{kind}", 1e3), "ms")
    m["schemes.estimate_parameter.ms"] = (per_call("schemes.estimate_parameter", 1e3), "ms")
    m["variance.var_parameter.ms"] = (per_call("variance.var_parameter", 1e3), "ms")
    m["hypothesis.p_value_bound.us"] = (per_call("hypothesis.p_value_bound", 1e6), "us")
    m["cli.sample.self_ms"] = (per_op("cli.sample", 1e3, self_time), "ms")
    m["cli.estimate.self_ms"] = (per_op("cli.estimate", 1e3, self_time), "ms")
    m["variance.block_variance.calls"] = (calls["variance.block_variance"] / op_weight, "count")
    m["variance.block_variance.us"] = (per_call("variance.block_variance", 1e6), "us")
    m["hypothesis.cantelli_bound.calls"] = (calls["hypothesis.cantelli_bound"] / op_weight, "count")
    m["hypothesis.required_budget.self_ms"] = (
        per_op("hypothesis.required_budget", 1e3, self_time), "ms")
    m["states.moment_table.ms"] = (per_op("states.moment_table", 1e3), "ms")
    m["states.moment_table.calls"] = (calls["states.moment_table"] / op_weight, "count")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (count_total(f"{layer}.errors"), "count")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
