"""Fast self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Checks that the metric tables match ``BENCHMARK.json`` and carry units,
that the tail percentile follows the ten-samples-beyond rule for every
workload's repetition range, that a traced breakdown adds up with
``server.unattributed_s >= 0`` (on a synthetic call tree and on one real
traced run), that the seed changes the generated inputs, and that the
shared-memory prefix the cleanup looks for is the program's.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_failures: list[str] = []
_passed = 0


def check(condition: bool, message: str) -> None:
    global _passed
    if condition:
        _passed += 1
    else:
        _failures.append(message)


def test_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]}
    check(e2e == metrics.END_TO_END, f"end_to_end differs from metrics.END_TO_END: {e2e}")
    layer = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    check(layer == metrics.PER_LAYER, "per_layer differs from metrics.PER_LAYER")
    check(
        [w["name"] for w in manifest["workloads"]] == list(WORKLOADS),
        "workload names differ from workloads.WORKLOADS",
    )
    check(
        all(w["why"] == WORKLOADS[w["name"]].why for w in manifest["workloads"]),
        "a workload's why differs from workloads.WORKLOADS",
    )
    for name, unit in [(n, u) for n, (u, _) in layer.items()] + [
        (n, u) for n, (u, _, _) in e2e.items()
    ]:
        check(bool(UNIT.match(unit)), f"{name} has no valid unit: {unit!r}")
    check(e2e.get("setup_s", (None,))[0] == "s", "setup_s must be in seconds")
    check(manifest["run_seconds"] == run.DEFAULT_SECONDS, "run.py's --seconds default differs")
    check(
        max(bound for _, _, bound in e2e.values()) == e2e["setup_s"][2],
        "setup_s must carry the largest bound",
    )


def test_tail_rule() -> None:
    for count in range(20, 400):
        p = metrics.tail_percentile(count)
        check(count * (1 - p / 100) >= 10, f"p{p} leaves <10 of {count} samples beyond")
        higher = [q for q in metrics.TAIL_LADDER if q > p]
        if higher:
            check(
                count * (1 - higher[0] / 100) < 10,
                f"p{higher[0]} also leaves 10 of {count} beyond; p{p} is not the highest",
            )
    check(metrics.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5, "percentile interpolation")
    for spec in WORKLOADS.values():
        low = spec.min_reps * spec.warm_rounds
        high = metrics.tail_band_limit(low) // spec.warm_rounds * spec.warm_rounds
        check(
            low <= high and metrics.tail_percentile(low) == metrics.tail_percentile(high),
            f"{spec.name}: tail percentile varies between {low} and {high} warm rounds",
        )
        check(
            metrics.tail_percentile(high + spec.warm_rounds) > metrics.tail_percentile(high),
            f"{spec.name}: the repetition cap is lower than it needs to be",
        )


def test_breakdown_synthetic() -> None:
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        tracer.call("b:leaf", leaf, (), {})
        tracer.call("b:leaf", leaf, (), {})

    def outer():
        time.sleep(0.001)
        tracer.call("a:inner", inner, (), {})

    start = time.perf_counter()
    tracer.call("a:outer", outer, (), {})
    time.sleep(0.001)
    tracer.call("b:leaf", leaf, (), {})
    end = time.perf_counter()
    window = metrics.window_breakdown(tracer.spans, start, end)
    total = sum(window["layers"].values()) + window["unattributed"]
    check(abs(total - window["window"]) < 1e-9, "synthetic breakdown does not add up")
    check(window["unattributed"] >= 0.0, "synthetic unattributed time is negative")
    check(window["names"]["b:leaf"][2] == 3, "nested spans were not all recorded")
    check(window["layers"]["b"] >= 0.006, "leaf self time lost")


def test_traced_run() -> None:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
    try:
        rep, problems = run.launch(
            "pacs-pardon-serial", 0, "traced", os.path.join(work, "rep"), 120.0
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(run.WORK_DIR)
        except OSError:  # another run is using it
            pass
    check(rep is not None and not problems, f"traced run failed: {problems}")
    if rep is None:
        return
    values, window = metrics.per_layer_one(rep, workers=1)
    check(window["unattributed"] >= 0.0, "server.unattributed_s is negative")
    total = sum(window["layers"].values()) + window["unattributed"]
    check(abs(total - window["window"]) < 1e-6, "traced breakdown does not add up")
    expected = set(metrics.PER_LAYER) - {"trace.overhead_ratio"}
    check(expected <= set(values), f"per-layer metrics missing: {expected - set(values)}")


def test_seed_changes_inputs() -> None:
    from repro.data.registry import synthetic_pacs

    def digest(suite) -> str:
        h = hashlib.sha256()
        for dataset in suite.datasets:
            h.update(dataset.images.tobytes())
            h.update(dataset.labels.tobytes())
        return h.hexdigest()

    spec = next(iter(WORKLOADS.values()))
    seeds = [spec.input_seed(seed, rep) for seed, rep in ((0, 0), (0, 0), (1, 0), (0, 1))]
    pacs = [digest(synthetic_pacs(seed=s, samples_per_class=4)) for s in seeds]
    check(pacs[0] == pacs[1], "the same seed generated different inputs")
    check(pacs[0] != pacs[2], "another --seed generated the same inputs")
    check(pacs[0] != pacs[3], "the runs of one measurement share one input")


def test_shm_prefix() -> None:
    from repro.fl.transport import SHM_SEGMENT_PREFIX

    check(run.SHM_PREFIX == SHM_SEGMENT_PREFIX, "shared-memory prefix out of date")


def main() -> int:
    for test in (
        test_manifest,
        test_tail_rule,
        test_breakdown_synthetic,
        test_seed_changes_inputs,
        test_shm_prefix,
        test_traced_run,
    ):
        test()
    for failure in _failures:
        print(f"FAIL: {failure}")
    print(f"selftest: {_passed} checks passed, {len(_failures)} failed")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
