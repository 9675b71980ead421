"""Benchmark of the PARDON reproduction: three FedDG workloads, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload, both modes

Each measurement runs the workload's experiment again and again, each
time in a fresh ``python3 perfbench/workload.py`` process (cold start to
final eval), for ``--seconds`` seconds, within the workload's minimum and
maximum repetition count.  The experiment's data, partition and model
come from ``--seed``.

``--trace 0`` times untraced runs and prints the end-to-end metrics.
``--trace 1`` alternates traced and untraced runs and prints the
per-layer metrics and the additive breakdown of the warm round loop.
Either way the outputs are checked: every run of one seed must produce
the same trace digest, the remote workload must match an in-process
serial run of the same experiment (run once per input, outside the
timing), and the final model must clear chance by ``CHANCE_MARGIN`` on
the domains it trained on.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every check passed and no client update failed.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    end_to_end_metrics,
    per_layer_metrics,
    tail_band_limit,
)
from workload import RESULT_TAG  # noqa: E402
from workloads import CHANCE_MARGIN, WORKLOADS  # noqa: E402

#: ``repro.fl.transport.SHM_SEGMENT_PREFIX`` (checked by selftest.py); a
#: run that leaves a ``/dev/shm/<prefix>-<its pid>-*`` segment behind leaked it.
SHM_PREFIX = "repro-wire"
#: One run of the benchmark must end well inside 180 s.
HARD_LIMIT_S = 165.0
REP_TIMEOUT_S = 90.0
WORK_DIR = os.path.join(ROOT, ".perfbench")
#: ``run_seconds`` in BENCHMARK.json (checked by selftest.py).
DEFAULT_SECONDS = 50.0


def _group_alive(pgid: int) -> bool:
    """Whether a process group still has a live (non-zombie) member.  An
    orphaned helper that already exited stays a zombie until init reaps
    it, which can take seconds; it no longer runs, so it does not count."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _stop_group(pgid: int, grace: float = 5.0) -> bool:
    """Give a run's process group ``grace`` seconds to drain (helpers such
    as multiprocessing's resource tracker exit just after their parent),
    then kill what is left and wait until it is gone; returns whether
    anything had to be killed."""
    deadline = time.monotonic() + grace
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    else:
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return True


def _unlink_leaked_segments(pid: int) -> int:
    leaked = glob.glob(f"/dev/shm/{SHM_PREFIX}-{pid}-*")
    for path in leaked:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    return len(leaked)


def launch(name: str, seed: int, mode: str, rep_dir: str, timeout: float):
    """One cold run; returns ``(result or None, problems)``."""
    os.makedirs(rep_dir)
    request = {"workload": name, "seed": seed, "mode": mode, "work_dir": rep_dir}
    command = [sys.executable, os.path.join(HERE, "workload.py"), json.dumps(request)]
    problems: list[str] = []
    launched_at = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _stop_group(process.pid, grace=0.0)
        stdout, stderr = process.communicate()
        problems.append(f"{mode} run timed out after {timeout:.0f}s and was killed")
    except BaseException:  # interrupted: stop the run, clean up, re-raise
        _stop_group(process.pid, grace=0.0)
        process.wait()
        _unlink_leaked_segments(process.pid)
        raise
    if _stop_group(process.pid):
        problems.append(f"{mode} run left processes behind; killed them")
    leaked = _unlink_leaked_segments(process.pid)
    if leaked:
        problems.append(f"{mode} run leaked {leaked} shared-memory segment(s)")
    result = None
    lines = [line for line in stdout.splitlines() if line.startswith(RESULT_TAG + " ")]
    if process.returncode == 0 and lines:
        result = json.loads(lines[-1][len(RESULT_TAG) + 1:])
        result["launched_at"] = launched_at
        result["wall_s"] = time.perf_counter() - launched_at
        problems += result["problems"]
    elif not problems:
        problems.append(f"{mode} run exited with code {process.returncode}")
    if result is None:
        sys.stderr.write(stderr[-4000:])
    return result, problems


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """Run one workload for ``seconds`` and check its outputs.

    Cold run ``k`` uses input seed ``spec.input_seed(seed, k)`` (traced
    and untraced runs pair up on one input), so the medians of one
    measurement cover several generated inputs, not one draw.
    """
    spec = WORKLOADS[name]
    started = time.perf_counter()
    max_reps = tail_band_limit(spec.min_reps * spec.warm_rounds) // spec.warm_rounds
    min_reps = 2 * max(2, spec.min_reps // 2) if trace else spec.min_reps
    runs: list[tuple[str, int, dict | None]] = []
    problems: list[str] = []
    walls: list[float] = []
    reference_reserve = 0.0 if spec.engine == "serial" else 12.0 * spec.inputs
    for index in itertools.count():
        elapsed = time.perf_counter() - started
        estimate = statistics.median(walls) if walls else 0.0
        budget = HARD_LIMIT_S - reference_reserve - elapsed
        if index >= max_reps or budget <= 0 or (
            index >= min_reps and (elapsed + estimate > seconds or budget < 1.5 * estimate)
        ):
            break
        mode = ("traced", "timed")[index % 2] if trace else "timed"
        input_seed = spec.input_seed(seed, index // 2 if trace else index)
        rep, rep_problems = launch(
            name, input_seed, mode, os.path.join(work_dir, f"rep{index}"),
            min(REP_TIMEOUT_S, budget),
        )
        runs.append((mode, input_seed, rep))
        problems += rep_problems
        if rep is not None:
            walls.append(rep["wall_s"])
    references: dict[int, dict | None] = {}
    if spec.engine != "serial":
        for input_seed in sorted({input_seed for _, input_seed, _ in runs}):
            budget = HARD_LIMIT_S - (time.perf_counter() - started)
            references[input_seed], ref_problems = launch(
                name, input_seed, "reference",
                os.path.join(work_dir, f"reference{input_seed}"), budget,
            )
            problems += ref_problems
    return check(spec, runs, references, problems, trace)


def check(spec, runs, references: dict, problems: list[str], trace: bool) -> dict:
    """Output checks, failure accounting and the metrics of one measurement."""
    ok = [(mode, input_seed, rep) for mode, input_seed, rep in runs if rep is not None]
    attempted = failed = 0
    for _, _, rep in runs:
        if rep is None:
            attempted += spec.per_round * spec.rounds
            failed += spec.per_round * spec.rounds
        else:
            attempted += sum(r["selected"] for r in rep["rounds"])
            failed += sum(r["dropped"] for r in rep["rounds"])
    for input_seed in sorted({input_seed for _, input_seed, _ in ok}):
        digests = {rep["trace_digest"] for _, s, rep in ok if s == input_seed}
        if len(digests) > 1:
            problems.append(f"runs on input seed {input_seed} disagree: {len(digests)} digests")
        reference = references.get(input_seed)
        if spec.engine != "serial" and (
            reference is None or digests != {reference["trace_digest"]}
        ):
            problems.append(
                f"{spec.engine} engine does not match the in-process serial run of the "
                f"same experiment on input seed {input_seed}"
            )
    for _, input_seed, rep in ok:
        floor = CHANCE_MARGIN / rep["num_classes"]
        if rep["train_acc"] < floor:
            problems.append(
                f"seen-domain accuracy {rep['train_acc']:.3f} on input seed {input_seed} "
                f"is below {CHANCE_MARGIN:g} x chance ({floor:.3f})"
            )
    timed = [rep for mode, _, rep in ok if mode == "timed"]
    traced = [rep for mode, _, rep in ok if mode == "traced"]
    out = {"spec": spec, "timed": timed, "traced": traced}
    if timed:
        out["end_to_end"], out["how"] = end_to_end_metrics(timed)
    if trace and timed and traced:
        out["per_layer"], out["windows"] = per_layer_metrics(traced, timed, spec.workers)
        for window in out["windows"]:
            total = sum(window["layers"].values()) + window["unattributed"]
            if window["unattributed"] < 0 or abs(total - window["window"]) > 1e-6:
                problems.append("traced breakdown does not add up to the round-loop wall")
                break
    if not timed or (trace and not traced):
        problems.append("no successful run to measure")
    out["correct"] = not problems
    out["problems"] = problems
    out["attempted"] = max(1, attempted)
    # A failed check voids every update it covered.
    out["failed"] = failed if out["correct"] else out["attempted"]
    return out


# -- printing ----------------------------------------------------------------


def _print_environment(out: dict) -> None:
    spec = out["spec"]
    rep = (out["timed"] or out["traced"] or [None])[0]
    if rep is None:
        return
    env = rep["env"]
    blas = env["blas"]
    print(
        f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={blas['name']} {blas['version']} threads={blas['threads']} (not pinned)"
    )
    auto = rep["auto"]
    print(
        f"engine: {spec.engine} workers={spec.workers} codec={spec.codec} "
        f"compute=auto; auto would pick executor={auto['executor']} "
        f"transport={auto['transport']} compute={auto['compute']} "
        f"(pool start method {auto['pool_start_method']})"
    )


def print_end_to_end(out: dict) -> None:
    values, how = out["end_to_end"], out["how"]
    print(
        f"end to end, untraced: {how['reps']} cold runs, {how['round_samples']} warm rounds, "
        f"tail = p{how['tail_percentile']:g}"
    )
    for name, (unit, better, bound) in END_TO_END.items():
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<10} ({better} is better, bound {bound:.0%})")
    selected = how["selected"]
    print(
        f"  {'test_acc':<16} {100 * how['test_acc']:>12.4f} %          (unseen domain; "
        f"chance {100 * how['chance']:.1f}%, seen domains {100 * how['train_acc']:.1f}%)"
        f"\n  {'wire_mib_per_round':<16} {how['wire_mib_per_round']:>12.4f} MiB"
        f"\n  {'fail_ratio':<16} {out['failed'] / out['attempted']:>12.4f} "
        f"({out['failed']} of {out['attempted']} selected client updates; "
        f"{how['dropped']} dropped of {selected} in timed runs)"
    )


def _print_top(tables, count: int = 12) -> None:
    """The spans with the most self time, averaged over name -> [self_s,
    incl_s, calls] tables."""
    tables = list(tables)
    mean: dict[str, list] = {}
    for table in tables:
        for name, (self_s, _, calls) in table.items():
            entry = mean.setdefault(name, [0.0, 0.0])
            entry[0] += self_s / len(tables)
            entry[1] += calls / len(tables)
    for name, (self_s, calls) in sorted(mean.items(), key=lambda kv: -kv[1][0])[:count]:
        print(f"    {name:<46} {self_s:>9.4f} s {calls:>8.0f} calls")


def print_breakdown(out: dict) -> None:
    windows = out["windows"]
    layers = {layer for w in windows for layer in w["layers"]}
    mean = {
        layer: statistics.fmean(w["layers"].get(layer, 0.0) for w in windows)
        for layer in layers
    }
    wall = statistics.fmean(w["window"] for w in windows)
    unattributed = statistics.fmean(w["unattributed"] for w in windows)
    print(
        f"warm round loop, traced (self time, mean of {len(windows)} runs; server "
        f"process, main thread):"
    )
    for layer in sorted(layers, key=lambda item: -mean[item]):
        print(f"  {layer:<12} {mean[layer]:>10.4f} s  {mean[layer] / wall:>6.1%}")
    print(f"  {'unattributed':<12} {unattributed:>10.4f} s  {unattributed / wall:>6.1%}")
    print(
        f"  {'sum':<12} {sum(mean.values()) + unattributed:>10.4f} s  = round-loop wall "
        f"{wall:.4f} s"
    )
    print("  top spans by self time:")
    _print_top(w["names"] for w in windows)
    if any(rep["endpoints"] for rep in out["traced"]):
        print("  endpoint processes, whole run (overlaps the server):")
        _print_top(rep["endpoints"] for rep in out["traced"])
    print("per-layer metrics:")
    for name, (unit, _) in PER_LAYER.items():
        print(f"  {name:<36} {out['per_layer'][name]:>12.4f} {unit}")
    print("wire side (printed only; 0 on workloads without a wire):")
    for name, value in out["per_layer"].items():
        if name not in PER_LAYER:
            print(f"  {name:<36} {value:>12.6f} s")


def report(out: dict, trace: bool) -> dict:
    print(f"== {out['spec'].name} ({'traced' if trace else 'untraced'})")
    _print_environment(out)
    if "end_to_end" in out:
        print_end_to_end(out)
    if trace and "per_layer" in out:
        print_breakdown(out)
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'passed' if out['correct'] else 'FAILED'}")
    table = out.get("per_layer" if trace else "end_to_end", {})
    units = {name: spec[0] for name, spec in (PER_LAYER if trace else END_TO_END).items()}
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": table[name], "unit": unit} for name, unit in units.items() if name in table
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {os.path.join(ROOT, 'src')}; nothing to benchmark",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running experiment is stopped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    work_dir = os.path.join(WORK_DIR, f"{os.getpid()}-{time.time_ns()}")
    results = []
    try:
        for name in names:
            for trace in modes:
                out = measure(name, args.seed, args.seconds, trace, work_dir + f"/{name}-{int(trace)}")
                results.append(report(out, trace))
                sys.stdout.flush()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
