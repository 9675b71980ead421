"""One cold run of one workload; ``run.py`` starts it in a fresh process.

    python3 perfbench/workload.py '{"workload": ..., "seed": ..., "mode": ..., "work_dir": ...}'

``mode`` is ``timed`` (only the round boundaries are observed),
``traced`` (every layer boundary is wrapped, see ``tracer.py``) or
``reference`` (the same experiment on the in-process serial engine, for
the output check).  The last line of standard output is
``PERFBENCH_RESULT <json>``; every timestamp in it is a
``time.perf_counter()`` reading, which on Linux is the system-wide
monotonic clock, so the parent subtracts its own pre-launch reading to
get times from the cold process start.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from tracer import Tracer, install, read_endpoints  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

RESULT_TAG = "PERFBENCH_RESULT"
#: Seconds the agents get to exit after the server's goodbye.
AGENT_EXIT_TIMEOUT = 15.0


def _spawn_agents(spec: Workload, address, traced: bool, work_dir: str) -> list:
    host, port = address
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    agents = []
    for index in range(spec.workers):
        if traced:
            command = [sys.executable, os.path.join(HERE, "agent.py"), work_dir]
        else:
            command = [sys.executable, "-m", "repro.fl.net.agent"]
        command += ["--connect", f"{host}:{port}", "--name", f"agent{index}"]
        log = open(os.path.join(work_dir, f"agent{index}.log"), "wb")
        agents.append(
            (subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT), log)
        )
    return agents


def _reap_agents(agents: list) -> list[str]:
    """Wait for every agent; kill the ones that outlive the timeout."""
    problems = []
    deadline = time.monotonic() + AGENT_EXIT_TIMEOUT
    for process, log in agents:
        try:
            code = process.wait(timeout=max(0.1, deadline - time.monotonic()))
            if code != 0:
                with open(log.name, "rb") as handle:
                    tail = handle.read()[-2000:].decode(errors="replace")
                problems.append(f"agent pid {process.pid} exited with {code}: {tail}")
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            problems.append(f"agent pid {process.pid} hung and was killed")
        log.close()
    return problems


def _auto_choices(spec: Workload, model, local_epochs: int) -> dict:
    """What ``auto`` would have resolved to for this experiment, here."""
    from repro.fl.compute import resolve_compute
    from repro.fl.executor import ParallelExecutor, resolve_executor
    from repro.fl.transport import resolve_transport

    pool = ParallelExecutor()  # starts no process until its first round
    pool.close()
    return {
        "executor": resolve_executor("auto", spec.per_round, local_epochs),
        "transport": resolve_transport("auto"),
        "compute": resolve_compute("auto", model),
        "pool_start_method": pool.start_method,
    }


def run(request: dict) -> dict:
    spec = WORKLOADS[request["workload"]]
    seed = int(request["seed"])
    mode = request["mode"]
    work_dir = request["work_dir"]

    tracer = None
    if mode == "traced":
        tracer = Tracer(flush_dir=work_dir)
        install(tracer)

    import repro.data.registry as registry
    from repro.core import PardonStrategy
    from repro.eval.protocols import ExperimentSetting, make_clients
    from repro.fl.executor import SerialExecutor
    from repro.fl.history import RunHistory
    from repro.fl.net.executor import RemoteExecutor
    from repro.fl.net.serve import trace_dict
    from repro.fl.server import FederatedConfig, FederatedServer
    from repro.utils.rng import SeedTree

    # Round boundaries, in every mode: one timestamp per round.
    round_ends: list[float] = []
    original_add = RunHistory.add

    def add(self, record):
        original_add(self, record)
        round_ends.append(time.perf_counter())

    RunHistory.add = add

    suite = registry.synthetic_pacs(seed=seed, samples_per_class=40)
    train = [suite.domain_index(name) for name in spec.train]
    test = [suite.domain_index(name) for name in spec.test]
    engine = "serial" if mode == "reference" else spec.engine
    setting = ExperimentSetting(
        num_clients=spec.clients,
        clients_per_round=spec.per_round,
        heterogeneity=0.1,
        num_rounds=spec.rounds,
        eval_every=spec.rounds,
        seed=seed,
        codec=spec.codec,
    )
    clients = make_clients(suite, train, setting, seed_label=tuple(train))
    strategy = PardonStrategy()
    model = setting.model_factory(suite)(
        SeedTree(seed).child(suite.name, "model").generator("init")
    )
    local_epochs = strategy.local_config.local_epochs

    agents: list = []
    if engine == "serial":
        executor = SerialExecutor(codec=spec.codec)
    else:
        executor = RemoteExecutor(num_agents=spec.workers, pipelined=True, codec=spec.codec)
        agents = _spawn_agents(spec, executor.address, tracer is not None, work_dir)

    # What each round's engine handed back: the counters the program
    # already reports on every ClientUpdate.
    rounds: list[dict] = []
    engine_run_round = executor.run_round

    def run_round(*args, **kwargs):
        updates = engine_run_round(*args, **kwargs)
        rounds.append({
            "updates": len(updates),
            "samples": sum(u.num_samples for u in updates) * local_epochs,
            "train_s": sum(u.train_seconds for u in updates),
            "decode_s": sum(u.decode_seconds for u in updates),
        })
        return updates

    executor.run_round = run_round
    server = FederatedServer(
        strategy=strategy,
        clients=clients,
        model=model,
        eval_sets={"test": suite.merged(test)},
        config=FederatedConfig(
            num_rounds=spec.rounds,
            clients_per_round=spec.per_round,
            eval_every=spec.rounds,
            seed=seed,
            codec=spec.codec,
        ),
        executor=executor,
    )
    problems: list[str] = []
    try:
        result = server.run()
    finally:
        executor.close()
        problems += _reap_agents(agents)
    # Seen-domain accuracy, for the output check (after the timed part).
    from repro.fl.evaluation import evaluate_accuracy

    train_acc = evaluate_accuracy(model, suite.merged(train))
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    for record, observed in zip(result.history.records, rounds):
        observed["selected"] = len(record.participants)
        observed["dropped"] = len(record.dropped)
    timing = result.timing
    out = {
        "workload": spec.name,
        "seed": seed,
        "mode": mode,
        "round_ends": round_ends,
        "rounds": rounds,
        "test_acc": result.final_accuracy["test"],
        "train_acc": train_acc,
        "num_classes": suite.num_classes,
        "trace_digest": _digest(trace_dict(result)),
        "peak_rss_mib": max(usage_self, usage_children) / 1024.0,
        "wire": {
            "bytes_up": timing.bytes_up,
            "bytes_down": timing.bytes_down,
            "unique_bytes_down": timing.unique_bytes_down,
            "overlap_s": timing.pipeline_overlap_seconds,
            "dropped": timing.dropped_clients,
        },
        "problems": problems,
        "auto": _auto_choices(spec, model, local_epochs),
        "env": _environment(),
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["off_thread"] = tracer.off_thread
        out["counters"] = tracer.counters
        out["endpoints"], out["endpoint_counters"] = read_endpoints(work_dir)
    return out


def _digest(trace: dict) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()


def _blas() -> dict:
    """The BLAS numpy loaded and the thread count it will actually use."""
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = config.get("name"), config.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        if not path.endswith(".so") and ".so." not in path:
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def _environment() -> dict:
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    result = run(request)
    sys.stdout.write(f"{RESULT_TAG} {json.dumps(result)}\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
