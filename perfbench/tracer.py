"""Span tracer that instruments the ``repro`` package from outside.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
the public functions and methods at each layer boundary with thin
wrappers that record a span (name, start, end, self time, depth) and then
call the original.  Self time is a span's duration minus the durations of
the spans directly nested in it, so over any window that starts and ends
between top-level spans, the self times of the spans inside it plus the
uncovered remainder add up to the window exactly.

The server process keeps every span it records on its main thread, so
the caller can cut the warm round loop out of the timeline.  Traced
remote agents and forked pool workers ("endpoints") only keep per-name totals
and rewrite them to ``<flush_dir>/endpoint-<pid>.json`` each time a
top-level span ends; those processes can exit without running ``atexit``
hooks, so an end-of-run flush would be lost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

__all__ = ["Tracer", "install", "layer_of", "read_endpoints"]

_perf = time.perf_counter


class Tracer:
    """Records spans on one thread of one process; see the module doc."""

    def __init__(self, flush_dir: "str | None" = None) -> None:
        self.flush_dir = flush_dir
        #: ``(name, start, end, self_seconds, depth)`` per server-process span.
        self.spans: list[tuple[str, float, float, float, int]] = []
        #: name -> [self_seconds, inclusive_seconds, calls] (endpoints, and
        #: spans recorded on threads other than the traced one).
        self.totals: dict[str, list] = {}
        self.off_thread: dict[str, list] = {}
        #: name -> running sum, for quantities a span cannot carry (bytes).
        self.counters: dict[str, float] = {}
        self.endpoint = False
        self._thread = threading.get_ident()
        self._stack: list[list[float]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def become_endpoint(self) -> None:
        """Aggregate instead of listing, and flush after each top-level span."""
        self.endpoint = True
        self.spans = []
        self.totals = {}
        self.off_thread = {}
        self.counters = {}
        self._stack = []
        self._thread = threading.get_ident()

    def _after_fork(self) -> None:
        self.become_endpoint()

    def call(self, name: str, fn, args, kwargs):
        if threading.get_ident() != self._thread:
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                _add(self.off_thread, name, _perf() - start, _perf() - start)
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            if self.endpoint:
                _add(self.totals, name, duration - frame[0], duration)
                if not stack:
                    self.flush()
            else:
                self.spans.append((name, start, end, duration - frame[0], len(stack)))

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def flush(self) -> None:
        if self.flush_dir is None:
            return
        path = os.path.join(self.flush_dir, f"endpoint-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {"totals": self.totals, "off_thread": self.off_thread,
                 "counters": self.counters},
                handle,
            )
        os.replace(tmp, path)


def _add(table: dict, name: str, self_seconds: float, inclusive: float) -> None:
    entry = table.get(name)
    if entry is None:
        table[name] = [self_seconds, inclusive, 1]
    else:
        entry[0] += self_seconds
        entry[1] += inclusive
        entry[2] += 1


def read_endpoints(flush_dir: str) -> tuple[dict[str, list], dict[str, float]]:
    """Sum every endpoint file in ``flush_dir``: name -> [self, incl, calls],
    and the counters."""
    merged: dict[str, list] = {}
    counters: dict[str, float] = {}
    for entry in sorted(os.listdir(flush_dir)):
        if not (entry.startswith("endpoint-") and entry.endswith(".json")):
            continue
        with open(os.path.join(flush_dir, entry), encoding="utf-8") as handle:
            data = json.load(handle)
        for table in (data["totals"], data["off_thread"]):
            for name, (self_s, incl, calls) in table.items():
                total = merged.setdefault(name, [0.0, 0.0, 0])
                total[0] += self_s
                total[1] += incl
                total[2] += calls
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    return merged, counters


def layer_of(name: str) -> str:
    """``"nn:Conv2d.forward"`` -> ``"nn"``."""
    return name.split(":", 1)[0]


# -- what gets wrapped --------------------------------------------------------


def _subclasses(base: type) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, done: set) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None or (cls, attr) in done:
        return
    if isinstance(raw, (staticmethod, classmethod, property)) or not callable(raw):
        return
    done.add((cls, attr))

    @functools.wraps(raw)
    def traced(*args, **kwargs):
        return tracer.call(name, raw, args, kwargs)

    setattr(cls, attr, traced)


def _wrap_function(tracer: Tracer, module, attr: str, name: str) -> None:
    """Wrap a module-level function everywhere it was imported by name."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            loaded.__dict__.get(attr) is original
        ):
            setattr(loaded, attr, traced)


def _wrap_encode(tracer: Tracer, cls: type, done: set, depth: list) -> None:
    """Trace ``cls.encode`` and count the state bytes in and payload bytes
    out, for the codec's compression ratio.  ``depth`` is shared by every
    codec class: filters wrap an inner codec, and only the outer call counts."""
    raw = cls.__dict__.get("encode")
    if raw is None or (cls, "encode") in done:
        return
    done.add((cls, "encode"))
    name = f"codec:{cls.__name__}.encode"

    @functools.wraps(raw)
    def traced(self, state, *args, **kwargs):
        depth[0] += 1
        try:
            payload = tracer.call(name, raw, (self, state) + args, kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            tracer.count("codec.dense_bytes", sum(v.nbytes for v in state.values()))
            tracer.count(
                "codec.payload_bytes",
                sum(v.nbytes for v in payload.tensors.values()) + len(payload.blob or b""),
            )
        return payload

    setattr(cls, "encode", traced)


def _class_methods(tracer, base, attrs, layer, done) -> None:
    for cls in _subclasses(base):
        if cls.__module__.startswith("repro."):
            for attr in attrs:
                _wrap_method(tracer, cls, attr, f"{layer}:{cls.__name__}.{attr}", done)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Imports the whole package first so that subclass discovery and
    by-name function imports see their final bindings.  Modules are
    looked up by name because some packages re-export a function under
    its module's name (``repro.style.adain``, ``repro.clustering.finch``).
    """

    def module(name: str):
        return importlib.import_module(f"repro.{name}")

    for name in ("baselines", "eval.protocols", "fl.server", "fl.net.agent"):
        module(name)  # load every strategy class and by-name import
    done: set = set()
    registry = module("data.registry")
    for fn in registry.__all__:
        if fn.startswith("synthetic_"):
            _wrap_function(tracer, registry, fn, f"data:{fn}")
    _wrap_function(tracer, module("data.partition"), "partition_clients", "data:partition_clients")

    # repro.nn: every module's forward/backward, loss terms, optimizers.
    nn_module, ensemble, objective = module("nn.module"), module("nn.ensemble"), module("nn.objective")
    _class_methods(tracer, nn_module.Module, ("forward", "backward"), "nn", done)
    for owner in (module("nn.losses"), ensemble):
        for _, cls in inspect.getmembers(owner, inspect.isclass):
            if cls.__module__ == owner.__name__ and cls.__name__.endswith("Loss"):
                for attr in ("forward", "backward"):
                    _wrap_method(tracer, cls, attr, f"nn:{cls.__name__}.{attr}", done)
    for fn in ("ensemble_cross_entropy", "load_state_broadcast", "ensemble_state_dicts"):
        _wrap_function(tracer, ensemble, fn, f"nn:{fn}")
    _class_methods(tracer, objective.ObjectiveTerm, ("apply", "apply_ensemble"), "nn", done)
    for fn in ("run_objective_epochs", "run_objective_ensemble"):
        _wrap_function(tracer, objective, fn, f"nn:{fn}")
    optim = module("nn.optim")
    for cls in (optim.SGD, optim.Adam):
        _wrap_method(tracer, cls, "step", f"nn:{cls.__name__}.step", done)
    for fn in ("encode_payload", "decode_payload"):
        _wrap_function(tracer, module("nn.serialize"), fn, f"serialize:{fn}")

    # repro.core, with the style machinery and clustering it drives.
    for owner, fns in (
        ("core.contrastive", ("pardon_batch_step", "pardon_ensemble_step")),
        ("core.interpolation", ("cluster_client_styles", "extract_interpolation_style")),
        ("core.local_style", ("cluster_styles_of_features", "compute_client_style")),
        ("style.adain", ("adain", "apply_style_to_images")),
        ("clustering.finch", ("finch",)),
    ):
        for fn in fns:
            _wrap_function(tracer, module(owner), fn, f"core:{fn}")
    encoder = module("style.encoder")
    for cls in (encoder.InvertibleEncoder, encoder.FrozenConvEncoder):
        for attr in ("encode", "decode", "pooled"):
            _wrap_method(tracer, cls, attr, f"core:{cls.__name__}.{attr}", done)

    # Strategy hooks: prepare is the one-time set-up, aggregate the server
    # reduction.
    strategy = module("fl.strategy").Strategy
    _class_methods(tracer, strategy, ("aggregate", "begin_stream", "fuse_payloads"), "aggregate", done)
    _class_methods(
        tracer, strategy,
        ("prepare", "local_update", "ensemble_update", "train_client", "train_group",
         "local_views", "objective_context"),
        "strategy", done,
    )

    compute = module("fl.compute")
    _class_methods(tracer, compute.ComputeBackend, ("run_group",), "compute", done)
    _wrap_function(tracer, compute, "timed_local_update", "compute:timed_local_update")

    # Engines, and the training endpoint's half of the wire protocol.
    executor = module("fl.executor")
    _class_methods(tracer, executor.Executor, ("run_round",), "executor", done)
    for attr in ("register", "broadcast", "ensure_round_state", "run_task"):
        _wrap_method(tracer, executor.WorkerRuntime, attr, f"worker:WorkerRuntime.{attr}", done)

    codec = module("fl.codec").Codec
    _class_methods(tracer, codec, ("decode", "roundtrip"), "codec", done)
    encode_depth = [0]
    for cls in _subclasses(codec):
        _wrap_encode(tracer, cls, done, encode_depth)
    _class_methods(
        tracer, module("fl.transport").Transport,
        ("publish", "fetch", "end_round", "send_upload", "recv_upload"),
        "transport", done,
    )

    # repro.fl.net: message codec, framing, and the agent join.
    for fn in ("encode_message", "decode_message"):
        _wrap_function(tracer, module("fl.net.protocol"), fn, f"net:{fn}")
    for attr in ("send", "next_frame"):
        _wrap_method(tracer, module("fl.net.frames").FrameStream, attr, f"net:FrameStream.{attr}", done)
    _wrap_method(
        tracer, module("fl.net.executor").RemoteExecutor, "_ensure_agents",
        "net:RemoteExecutor.agent_join", done,
    )

    aggregate = module("fl.aggregate")
    _class_methods(tracer, aggregate.AggregationStream, ("fold", "finalize"), "aggregate", done)
    _class_methods(tracer, aggregate.Aggregator, ("aggregate", "begin_stream"), "aggregate", done)

    _wrap_function(tracer, module("fl.evaluation"), "evaluate_accuracy", "evaluation:evaluate_accuracy")
    _class_methods(tracer, module("fl.population").ClientPopulation, ("sample", "release"), "server", done)
