"""Metric definitions and the arithmetic that turns cold runs into them.

Pure standard library, so the self-test can exercise it without running
an experiment.  A "rep" is the result dict one ``workload.py`` process
printed, plus ``launched_at``: the parent's ``perf_counter()`` just
before it started that process.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import layer_of

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "TAIL_LADDER",
    "tail_percentile",
    "tail_band_limit",
    "percentile",
    "end_to_end_metrics",
    "window_breakdown",
    "per_layer_metrics",
]

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which a metric may worsen before a change is a regression.
#: The timing bounds sit at the 25% cap: on the 2-vCPU host this was
#: built on, the medians of ten 50 s runs spread (quartile distance over
#: median) by 0.05-0.26 as the host's speed drifted over minutes; peak
#: RSS, which depends on the input, by up to 0.045 over six inputs a run.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "total_s": ("s", "lower", 0.25),
    "round_s_p50": ("s", "lower", 0.25),
    "round_s_tail": ("s", "lower", 0.25),
    "samples_per_s": ("samples/s", "higher", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.15),
}

#: Classes and functions of repro.nn that run on every workload (the scalar
#: ones in evaluation, the Ensemble ones in training).
NN_TIMED = (
    ("EnsembleConv2d", ("forward", "backward")),
    ("EnsembleLinear", ("forward", "backward")),
    ("ReLU", ("forward", "backward")),
    ("Conv2d", ("forward",)),
    ("Linear", ("forward",)),
)

#: name -> (unit, better).  Times are whole-run totals of one cold run,
#: summed over every process, unless the name says otherwise.
PER_LAYER: dict[str, tuple[str, str]] = {
    "data.synth_s": ("s", "lower"),
    "data.partition_s": ("s", "lower"),
    "strategy.prepare_s": ("s", "lower"),
    **{
        f"nn.{cls}.{method}_s": ("s", "lower")
        for cls, methods in NN_TIMED
        for method in methods
    },
    **{f"nn.{cls}.calls": ("count", "lower") for cls, _ in NN_TIMED},
    "nn.SGD.step_s": ("s", "lower"),
    "nn.SGD.calls": ("count", "lower"),
    "nn.ensemble_cross_entropy_s": ("s", "lower"),
    "nn.run_objective_ensemble.self_s": ("s", "lower"),
    "compute.run_group_s": ("s", "lower"),
    "compute.train_s": ("s", "lower"),
    "compute.group_size": ("clients", "higher"),
    "executor.first_round_s": ("s", "lower"),
    "executor.run_round_self_s": ("s", "lower"),
    "executor.busy_ratio": ("ratio", "higher"),
    "codec.total_s": ("s", "lower"),
    "codec.ratio": ("ratio", "higher"),
    "wire.up_mib": ("MiB", "lower"),
    "wire.down_mib": ("MiB", "lower"),
    "wire.unique_down_mib": ("MiB", "lower"),
    "wire.mib_per_round": ("MiB", "lower"),
    "net.messages": ("count", "lower"),
    "aggregate.fold_s": ("s", "lower"),
    "aggregate.folds": ("count", "lower"),
    "aggregate.finalize_s": ("s", "lower"),
    "eval.s": ("s", "lower"),
    "eval.calls": ("count", "lower"),
    "server.sample_s": ("s", "lower"),
    "server.unattributed_s": ("s", "lower"),
    "server.round_loop_s": ("s", "lower"),
    "faults.dropped": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples above it."""
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if count * (1.0 - p / 100.0) >= 10.0:
            chosen = p
    return chosen


def tail_band_limit(count: int) -> int:
    """The most pooled samples that keep ``tail_percentile(count)``."""
    p = tail_percentile(count)
    higher = [q for q in TAIL_LADDER if q > p]
    if not higher:
        return 10**9
    return math.ceil(10.0 / (1.0 - higher[0] / 100.0)) - 1


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def warm_round_seconds(rep: dict) -> list[float]:
    ends = rep["round_ends"]
    return [b - a for a, b in zip(ends, ends[1:])]


def end_to_end_metrics(reps: list[dict]) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics over untraced reps, plus how they were taken."""
    rounds = [s for rep in reps for s in warm_round_seconds(rep)]
    samples = sum(r["samples"] for rep in reps for r in rep["rounds"][1:])
    p_tail = tail_percentile(len(rounds))
    values = {
        "setup_s": statistics.median(r["round_ends"][0] - r["launched_at"] for r in reps),
        "total_s": statistics.median(r["round_ends"][-1] - r["launched_at"] for r in reps),
        "round_s_p50": percentile(rounds, 50.0),
        "round_s_tail": percentile(rounds, p_tail),
        "samples_per_s": samples / sum(rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }
    selected = sum(r["selected"] for rep in reps for r in rep["rounds"])
    wire = [rep["wire"] for rep in reps]
    how = {
        "reps": len(reps),
        "round_samples": len(rounds),
        "tail_percentile": p_tail,
        "wire_mib_per_round": statistics.median(
            (w["bytes_up"] + w["bytes_down"]) / 2**20 / len(rep["rounds"])
            for w, rep in zip(wire, reps)
        ),
        "test_acc": statistics.median(r["test_acc"] for r in reps),
        "train_acc": statistics.median(r["train_acc"] for r in reps),
        "chance": 1.0 / reps[0]["num_classes"],
        "selected": selected,
        "dropped": sum(r["dropped"] for rep in reps for r in rep["rounds"]),
    }
    return values, how


def _totals(spans: list) -> dict[str, list]:
    """name -> [self_s, incl_s, calls] of server-process spans."""
    totals: dict[str, list] = {}
    for name, s, e, self_s, _ in spans:
        entry = totals.setdefault(name, [0.0, 0.0, 0])
        entry[0] += self_s
        entry[1] += e - s
        entry[2] += 1
    return totals


def window_breakdown(spans: list, start: float, end: float) -> dict:
    """Per-layer self time of the server-process spans inside ``[start, end]``.

    Returns ``{"layers": {layer: self_s}, "names": {name: [self_s, incl_s,
    calls]}, "unattributed": s, "window": s}``; the layer self times plus
    ``unattributed`` equal ``window`` by construction.
    """
    inside = [span for span in spans if span[1] >= start and span[2] <= end]
    layers: dict[str, float] = defaultdict(float)
    for name, _, _, self_s, _ in inside:
        layers[layer_of(name)] += self_s
    covered = sum(e - s for _, s, e, _, depth in inside if depth == 0)
    return {
        "layers": dict(layers),
        "names": _totals(inside),
        "unattributed": (end - start) - covered,
        "window": end - start,
    }


def _all_totals(rep: dict, spans: list) -> dict[str, list]:
    """name -> [self_s, incl_s, calls] over the whole run, every process."""
    totals = _totals(spans)
    for table in (rep["off_thread"], rep["endpoints"]):
        for name, (self_s, incl, calls) in table.items():
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += incl
            entry[2] += calls
    return totals


def _union(spans: list, match) -> tuple[float, int]:
    """Covered seconds and count of the server-process spans ``match`` accepts
    (nested matches are counted once)."""
    covered, calls, reach = 0.0, 0, float("-inf")
    for name, s, e, _, _ in sorted(spans, key=lambda span: span[1]):
        if not match(name):
            continue
        calls += 1
        if s >= reach:
            covered += e - s
            reach = e
        elif e > reach:
            covered += e - reach
            reach = e
    return covered, calls


def _sum(totals: dict, match, column: int) -> float:
    return sum(v[column] for name, v in totals.items() if match(name))


def per_layer_one(rep: dict, workers: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced rep, and its window breakdown."""
    ends = rep["round_ends"]
    # Up to the final eval; the output check's own evaluation comes later.
    spans = [span for span in rep["spans"] if span[2] <= ends[-1]]
    window = window_breakdown(spans, ends[0], ends[-1])
    totals = _all_totals(rep, spans)

    def method(cls: str, attr: str):
        key = f"nn:{cls}.{attr}"
        return lambda name: name == key

    values: dict[str, float] = {}
    values["data.synth_s"] = _union(spans, lambda n: n.startswith("data:synthetic_"))[0]
    values["data.partition_s"] = _union(spans, lambda n: n == "data:partition_clients")[0]
    values["strategy.prepare_s"] = _union(
        spans, lambda n: n.startswith("strategy:") and n.endswith(".prepare")
    )[0]
    for cls, methods in NN_TIMED:
        for attr in methods:
            values[f"nn.{cls}.{attr}_s"] = _sum(totals, method(cls, attr), 0)
        values[f"nn.{cls}.calls"] = _sum(totals, method(cls, "forward"), 2)
    values["nn.SGD.step_s"] = _sum(totals, method("SGD", "step"), 0)
    values["nn.SGD.calls"] = _sum(totals, method("SGD", "step"), 2)
    values["nn.ensemble_cross_entropy_s"] = _sum(
        totals, lambda n: n == "nn:ensemble_cross_entropy", 0
    )
    values["nn.run_objective_ensemble.self_s"] = _sum(
        totals, lambda n: n == "nn:run_objective_ensemble", 0
    )

    def run_group(n: str) -> bool:
        return n.startswith("compute:") and n.endswith(".run_group")

    values["compute.run_group_s"] = _sum(totals, run_group, 1)
    updates = sum(r["updates"] for r in rep["rounds"])
    values["compute.train_s"] = sum(r["train_s"] for r in rep["rounds"])
    values["compute.group_size"] = updates / max(1.0, _sum(totals, run_group, 2))

    round_spans = [s for s in spans if s[0].startswith("executor:") and s[4] == 0]
    values["executor.first_round_s"] = round_spans[0][2] - round_spans[0][1]
    values["executor.run_round_self_s"] = window["layers"].get("executor", 0.0)
    warm_train = sum(r["train_s"] for r in rep["rounds"][1:])
    values["executor.busy_ratio"] = warm_train / (workers * window["window"])

    values["codec.total_s"] = _sum(totals, lambda n: layer_of(n) == "codec", 0)
    wire = rep["wire"]
    counters = {
        name: rep["counters"].get(name, 0.0) + rep["endpoint_counters"].get(name, 0.0)
        for name in ("codec.dense_bytes", "codec.payload_bytes")
    }
    values["codec.ratio"] = (  # 1.0: nothing was encoded, so nothing shrank
        counters["codec.dense_bytes"] / counters["codec.payload_bytes"]
        if counters["codec.payload_bytes"]
        else 1.0
    )
    values["wire.up_mib"] = wire["bytes_up"] / 2**20
    values["wire.down_mib"] = wire["bytes_down"] / 2**20
    values["wire.unique_down_mib"] = wire["unique_bytes_down"] / 2**20
    values["wire.mib_per_round"] = (
        (wire["bytes_up"] + wire["bytes_down"]) / 2**20 / len(rep["rounds"])
    )
    values["net.messages"] = float(
        sum(1 for s in spans if s[0] in ("net:encode_message", "net:decode_message"))
    )

    def fold(n: str) -> bool:
        return n.startswith("aggregate:") and n.endswith(".fold")

    values["aggregate.fold_s"] = _sum(totals, fold, 0)
    values["aggregate.folds"] = _sum(totals, fold, 2)
    values["aggregate.finalize_s"] = _sum(
        totals, lambda n: n.startswith("aggregate:") and n.endswith(".finalize"), 0
    )
    values["eval.s"], calls = _union(spans, lambda n: layer_of(n) == "evaluation")
    values["eval.calls"] = float(calls)
    values["server.sample_s"] = sum(
        v[1] for n, v in window["names"].items() if n.startswith("server:") and n.endswith(".sample")
    )
    values["server.unattributed_s"] = window["unattributed"]
    values["server.round_loop_s"] = window["window"]
    values["faults.dropped"] = float(wire["dropped"])

    # Layers only the remote workload reaches: printed in the breakdown,
    # not registered as per-layer metrics (they read 0 on the serial one).
    def self_of(layer: str, suffix: str = ""):
        return lambda n: layer_of(n) == layer and n.endswith(suffix)

    values["codec.encode_s"] = _sum(totals, self_of("codec", ".encode"), 0)
    values["codec.decode_s"] = _sum(totals, self_of("codec", ".decode"), 0)
    values["worker.decode_s"] = sum(r["decode_s"] for r in rep["rounds"])
    values["transport.publish_s"] = _sum(totals, self_of("transport", ".publish"), 0)
    values["transport.fetch_s"] = _sum(totals, self_of("transport", ".fetch"), 0)
    values["serialize.s"] = _sum(totals, self_of("serialize"), 0)
    server = window["names"]
    values["net.encode_s"] = _sum(server, lambda n: n == "net:encode_message", 0)
    values["net.decode_s"] = _sum(server, lambda n: n == "net:decode_message", 0)
    values["net.frame_io_s"] = _sum(server, lambda n: n.startswith("net:FrameStream."), 0)
    values["net.overlap_s"] = wire["overlap_s"]
    joins = [s for s in spans if s[0] == "net:RemoteExecutor.agent_join"]
    values["net.agent_join_s"] = joins[0][2] - joins[0][1] if joins else 0.0
    return values, window


def per_layer_metrics(traced: list[dict], timed: list[dict], workers: int) -> tuple[dict, list]:
    """Mean of each per-layer metric over the traced reps (means keep the
    breakdown additive), with the tracing overhead against ``timed``.
    Holds ``PER_LAYER`` and the printed-only wire-side metrics."""
    per_rep = [per_layer_one(rep, workers) for rep in traced]
    values = {name: statistics.fmean(v[name] for v, _ in per_rep) for name in per_rep[0][0]}
    traced_total = statistics.median(r["round_ends"][-1] - r["launched_at"] for r in traced)
    timed_total = statistics.median(r["round_ends"][-1] - r["launched_at"] for r in timed)
    values["trace.overhead_ratio"] = traced_total / timed_total
    return values, [window for _, window in per_rep]
