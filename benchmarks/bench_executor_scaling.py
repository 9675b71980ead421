"""Executor scaling — wall-clock and wire traffic vs. worker count.

Complements Fig. 5 (accuracy vs. client count) with the systems half of the
scalability story: the same round loop, same seeds, and same trace, executed
serially and on process pools of 2 and 4 workers.  Reported per row: the
summed per-client compute time, the elapsed wall clock of the local phase,
their ratio (the achieved speedup), and the measured bytes the engine moved
across the process boundary.  Shape to check: wall clock drops as workers
increase, bounded by the machine's core count.  The compute column is
per-worker wall time, so it inflates when workers outnumber free cores
(contention) — the speedup column is the honest headline number.

The second table isolates the wire protocol on the PARDON strategy (the
dataset-scale scratch cache is the worst case): per-round task payload under
the pool-resident delta protocol vs. what PR 1's ship-everything-per-task
protocol would have moved.  Shape to check: task bytes shrink by orders of
magnitude (the dataset ships once at registration), and the upload collapses
after round 0 because the style-transfer cache travels as a delta exactly
once.

The third table measures the codec stack (``repro.fl.codec``): warm
per-round bytes on the 2-worker engine per codec, in the from-scratch
training regime *and* the fine-tuning regime (tiny updates).  Shape to
check: ``delta`` sits near the lossless entropy bound (~1.3x) from scratch
and clears 2x fine-tuning; ``fp16``/``qint8`` cut weight bytes by 4x/8x in
both regimes (lossy).

The fourth table measures the wire transports (``repro.fl.transport``):
per-round downlink vs. the fan-out-deduplicated unique floor, and the
broadcast encode + dispatch + overlapped-decode wall clock, per transport
and worker count.  Shape to check: pipe's down bytes scale with workers
while shm's sit on the unique floor (the blob is written once per round),
and shm's broadcast wall clock is at or below pipe's at 4 workers (the
per-worker pickle+pipe copies are what shm deletes).  The second/third
tables pin ``transport="pipe"`` so their per-worker byte stories stay
comparable across releases.

The fifth table measures the fault-tolerance layer (``repro.fl.faults``):
per-round wall clock with faults off vs. under 25% injected stragglers,
per engine, plus the dropped/straggler/rebuilt counters.  Shape to check:
the parallel engines absorb the straggler sleeps across workers (smaller
wall-clock hit than serial), and the faulty trace still matches the
serial faulty trace bit-for-bit.

The sixth table measures the compute backends (``repro.fl.compute``) in
the regime the ensemble backend targets: many small co-resident clients
(the CSAC-style separated per-source populations of PAPERS.md), swept at
K=1/4/16 clients per group on the serial engine, loop vs. ensemble.
Shape to check: per-round wall clock crosses over around K=4 and reaches
>= 3x at K=16, with the final aggregated state bit-identical — the
speedup is pure dispatch fusion, not a numerics change.  The sweep is
also written as ``BENCH_compute.json`` for machine consumers.

The seventh table measures the robust-aggregation layer
(``repro.fl.aggregate``): final accuracy per rule (mean, median,
trimmed-mean, krum), fault-free vs. under 20% Byzantine clients sending
100x-scaled updates, plus the rejected-upload count and the per-round
aggregation cost.  Shape to check: the mean collapses under attack while
the robust rules hold near their own clean accuracy at millisecond
aggregation cost.  The sweep is also written as ``BENCH_robust.json``.

The eighth table measures the objective-driven strategies
(``repro.nn.objective``): final accuracy and local-compute overhead per
method (fedavg, fedsr, fpl, fedalign, fedccrl) on the same serial
session.  Shape to check: each method's extra terms/views/payload sweeps
cost a small constant factor over FedAvg, not a blowup.  The sweep is
also written as ``BENCH_strategies.json``.

Run directly for the full table, or with ``--smoke`` for the CI-scale
variant (fast data scale, workers {1, 2}); either way, legs whose wire
transport is unavailable on the host (shm on shm-less runners) are
skipped with an explicit message instead of erroring.  ``--codec SPEC``
runs the scaling table under that wire codec — the CI codec matrix uses
it to check serial/parallel trace identity per codec — ``--transport
SPEC`` runs it under that wire transport (the CI shm leg), ``--compute
SPEC`` runs it under that compute backend (the CI compute legs pin
loop-vs-ensemble trace identity), ``--faults SPEC`` (with an optional
``--deadline``) runs it under that fault plan — the CI chaos legs use it
to check that a faulty trace stays engine-invariant end to end — and
``--aggregator SPEC`` runs it under that aggregation rule (the CI
byzantine legs pair it with a Byzantine fault plan), and ``--strategy
NAME`` runs it under that training strategy (the CI strategy legs pin
the sibling FedDG methods' serial/parallel trace identity per
transport).
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from common import bench_rounds, emit, emit_json, is_fast_mode, samples_per_class

from repro.baselines import (
    FedAlignStrategy,
    FedAvgStrategy,
    FedCCRLStrategy,
    FedSRStrategy,
    FPLStrategy,
)
from repro.core import PardonStrategy
from repro.data import synthetic_pacs, partition_clients
from repro.data.synthetic import LabeledDataset
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LazyPopulation,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    shm_supported,
)
from repro.fl.net import RemoteExecutor
from repro.nn.models import build_cnn_model
from repro.utils.rng import SeedTree
from repro.utils.tables import format_table

CLIENTS_PER_ROUND = 8
NUM_CLIENTS = 16
WORKER_GRID = [1, 2, 4]
CODEC_GRID = ["identity", "delta", "fp16", "qint8", "qint8+deflate"]
#: The fault-table plan: a quarter of the (client, round) cells are slow.
STRAGGLER_PLAN = "straggler=0.25:0.05,seed=3"
#: The robust-table attack: a fifth of the cells upload a 100x-scaled
#: update — the Byzantine mode that visibly drags a weighted mean.
BYZANTINE_PLAN = "byzantine=0.2:scale,seed=7"
#: The strategy-matrix legs and the per-strategy table draw from these
#: objective-driven methods (the loop-level strategies have their own
#: wire table above).
STRATEGY_FACTORIES = {
    "fedavg": lambda: FedAvgStrategy(LocalTrainingConfig(batch_size=32)),
    "fedsr": lambda: FedSRStrategy(
        local_config=LocalTrainingConfig(batch_size=32)
    ),
    "fpl": lambda: FPLStrategy(
        local_config=LocalTrainingConfig(batch_size=32)
    ),
    "fedalign": lambda: FedAlignStrategy(
        local_config=LocalTrainingConfig(batch_size=32)
    ),
    "fedccrl": lambda: FedCCRLStrategy(
        local_config=LocalTrainingConfig(batch_size=32)
    ),
}


def _make_clients(suite):
    partition = partition_clients(
        suite, [0, 1], NUM_CLIENTS, 0.1, np.random.default_rng(0)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _run_with_workers(
    suite, rounds: int, workers: int, strategy=None, codec="identity",
    transport="auto", faults=None, deadline=None, compute="auto",
    aggregator="mean",
):
    clients = _make_clients(suite)
    model = build_cnn_model(
        suite.image_shape, suite.num_classes, rng=np.random.default_rng(0)
    )
    executor = make_executor(
        "serial" if workers == 1 else "parallel",
        workers=None if workers == 1 else workers,
        codec=codec,
        transport=transport,
        faults=faults,
        deadline=deadline,
        compute=compute,
    )
    server = FederatedServer(
        strategy=strategy or FedAvgStrategy(LocalTrainingConfig(batch_size=32)),
        clients=clients,
        model=model,
        eval_sets={"test": suite.datasets[3]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=CLIENTS_PER_ROUND, seed=0,
            codec=codec, transport=transport, faults=faults, deadline=deadline,
            compute=compute, aggregator=aggregator,
        ),
        executor=executor,
    )
    try:
        return server.run(), executor, clients
    finally:
        executor.close()


def _trace_of(result):
    """The full per-round trace — including the fault layer's drop map —
    plus the final accuracies: what must be engine-invariant."""
    return (
        [
            (r.round_index, r.mean_local_loss, tuple(r.participants),
             tuple(sorted(r.dropped.items())),
             tuple(sorted(r.eval_accuracy.items())))
            for r in result.history.records
        ],
        tuple(sorted(result.final_accuracy.items())),
    )


def _run(
    suite, worker_grid, codec="identity", transport="auto", faults=None,
    deadline=None, compute="auto", aggregator="mean", strategy="fedavg",
) -> str:
    rounds = bench_rounds(4)
    rows = []
    baseline_trace = None
    for workers in worker_grid:
        result, _, _ = _run_with_workers(
            suite, rounds, workers, codec=codec, transport=transport,
            faults=faults, deadline=deadline, compute=compute,
            aggregator=aggregator, strategy=STRATEGY_FACTORIES[strategy](),
        )
        timing = result.timing
        trace = _trace_of(result)
        if baseline_trace is None:
            baseline_trace = trace
        rows.append(
            [
                "serial" if workers == 1 else f"parallel x{workers}",
                f"{timing.local_train_seconds_total:.2f}",
                f"{timing.local_train_wall_seconds_total:.2f}",
                f"{timing.local_train_speedup:.2f}",
                f"{timing.bytes_up / 1024:.0f}",
                f"{timing.bytes_down / 1024:.0f}",
                "yes" if trace == baseline_trace else "NO",
            ]
        )
    return format_table(
        [
            "Executor",
            "compute (s, all clients)",
            "local wall clock (s)",
            "speedup",
            "wire up (KiB)",
            "wire down (KiB)",
            "trace == serial",
        ],
        rows,
        title=(
            f"Executor scaling — {rounds} rounds, "
            f"{CLIENTS_PER_ROUND}/{NUM_CLIENTS} clients per round, "
            f"codec={codec}, transport={transport}, compute={compute}"
            + (f", faults={faults}" if faults else "")
            + (f", aggregator={aggregator}" if aggregator != "mean" else "")
            + (f", strategy={strategy}" if strategy != "fedavg" else "")
        ),
    )


def _legacy_round_bytes(result, clients) -> tuple[float, float]:
    """What PR 1's protocol would move per round: every task tuple re-ships
    ``(strategy_blob, global_state, client)`` down and the full scratch dict
    plus state back up.  Measured over the run's *actual* participant
    sequence, on the post-run clients whose scratch holds the warm PARDON
    cache — exactly the payload the old protocol paid every round."""
    from repro.nn.serialize import encode_payload

    strategy_blob = encode_payload(PardonStrategy())
    state = dict(result.final_state)
    by_id = {client.client_id: client for client in clients}
    down = up = 0
    for record in result.history.records:
        for client_id in record.participants:
            client = by_id[client_id]
            down += len(
                pickle.dumps(
                    (strategy_blob, state, client, record.round_index, 0),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            up += len(
                pickle.dumps(
                    (state, dict(client.scratch)),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
    rounds = len(result.history.records)
    return down / rounds, up / rounds


def _run_wire(suite) -> str:
    rounds = max(3, bench_rounds(4))
    result, executor, clients = _run_with_workers(
        suite, rounds, 2, strategy=PardonStrategy(), transport="pipe"
    )
    wire = executor.wire_stats()
    legacy_down, legacy_up = _legacy_round_bytes(result, clients)
    resident_task = wire.task_bytes / rounds
    resident_down = (wire.broadcast_bytes + wire.task_bytes) / rounds
    rows = [
        [
            "PR 1 (ship client per task)",
            f"{legacy_down / 1024:.0f}",
            f"{legacy_down / 1024:.0f}",
            f"{legacy_up / 1024:.0f}",
            "0",
        ],
        [
            "pool-resident + deltas",
            f"{resident_task / 1024:.2f}",
            f"{resident_down / 1024:.0f}",
            f"{wire.upload_bytes / rounds / 1024:.0f}",
            f"{wire.registration_bytes / 1024:.0f}",
        ],
        [
            "reduction",
            f"x{legacy_down / max(resident_task, 1):.0f}",
            f"x{legacy_down / max(resident_down, 1):.1f}",
            f"x{legacy_up / max(wire.upload_bytes / rounds, 1):.1f}",
            "-",
        ],
    ]
    return format_table(
        [
            "Wire protocol (PARDON)",
            "task KiB/round",
            "down KiB/round",
            "up KiB/round",
            "one-time KiB",
        ],
        rows,
        title=(
            f"Per-round task payload — resident+delta protocol vs. PR 1 "
            f"({rounds} rounds, {CLIENTS_PER_ROUND}/{NUM_CLIENTS} clients, "
            f"2 workers)"
        ),
    )


def _codec_round_bytes(suite, codec: str, local_config, rounds: int):
    """Measured (bytes_up + bytes_down) per round, hop-by-hop on the
    2-worker engine, with the scaling table's participant count.  Round 0
    includes registration; the warm average over later rounds is what a
    long session pays."""
    clients = _make_clients(suite)[:CLIENTS_PER_ROUND]
    model = build_cnn_model(
        suite.image_shape, suite.num_classes, rng=np.random.default_rng(0)
    )
    strategy = FedAvgStrategy(local_config)
    state = model.state_dict()
    tree = SeedTree(0).child("server", "codec-bench")
    totals = []
    with ParallelExecutor(num_workers=2, codec=codec, transport="pipe") as executor:
        for round_index in range(rounds):
            before = executor.wire_stats()
            seeds = [
                tree.seed("client", client.client_id, "round", round_index)
                for client in clients
            ]
            updates = executor.run_round(
                strategy, model, state, clients, round_index, seeds
            )
            after = executor.wire_stats()
            totals.append(
                (after.bytes_up - before.bytes_up)
                + (after.bytes_down - before.bytes_down)
            )
            state = strategy.aggregate(state, updates, round_index)
    return totals


def _run_codecs(suite) -> str:
    """Bytes-per-round per codec, from-scratch vs. fine-tune regimes."""
    rounds = max(3, bench_rounds(4))
    train = LocalTrainingConfig(batch_size=32)
    fine_tune = LocalTrainingConfig(batch_size=32, learning_rate=1e-8)
    warm = {}
    for codec in CODEC_GRID:
        warm[codec] = tuple(
            sum(_codec_round_bytes(suite, codec, config, rounds)[1:]) / (rounds - 1)
            for config in (train, fine_tune)
        )
    base_train, base_tune = warm["identity"]
    rows = []
    for codec in CODEC_GRID:
        codec_train, codec_tune = warm[codec]
        lossless = codec in ("identity", "delta")
        rows.append(
            [
                codec,
                f"{codec_train / 1024:.0f}",
                f"x{base_train / codec_train:.2f}",
                f"{codec_tune / 1024:.0f}",
                f"x{base_tune / codec_tune:.2f}",
                "bit-exact" if lossless else "lossy",
            ]
        )
    return format_table(
        [
            "Codec",
            "train KiB/round",
            "vs identity",
            "fine-tune KiB/round",
            "vs identity",
            "trace",
        ],
        rows,
        title=(
            f"Wire codecs — warm bytes/round on 2 workers "
            f"({CLIENTS_PER_ROUND} participants; fine-tune = tiny updates, "
            f"where delta's lossless compression pays)"
        ),
    )


def _transport_rounds(
    suite, transport: str, workers: int, model, init_state, rounds: int
):
    """Run ``rounds`` FedAvg rounds on one engine configuration and return
    (final aggregated state, executor) for the transport sweep.

    ``init_state`` is snapshotted by the caller: the serial engine trains
    on ``model`` in place, so the model's own weights are not a stable
    starting point across configurations."""
    clients = _make_clients(suite)[:CLIENTS_PER_ROUND]
    strategy = FedAvgStrategy(LocalTrainingConfig(batch_size=32))
    state = {key: value.copy() for key, value in init_state.items()}
    tree = SeedTree(0).child("server", "transport-bench")
    executor = make_executor(
        "serial" if workers == 1 else "parallel",
        workers=None if workers == 1 else workers,
        transport=transport if workers > 1 else "auto",
    )
    with executor:
        for round_index in range(rounds):
            seeds = [
                tree.seed("client", client.client_id, "round", round_index)
                for client in clients
            ]
            updates = executor.run_round(
                strategy, model, state, clients, round_index, seeds
            )
            state = strategy.aggregate(state, updates, round_index)
    return state, executor


def _run_transports(suite, worker_grid) -> str:
    """Per-transport downlink bytes and broadcast wall clock.

    "down" is what the workers actually received per round (pipe copies
    the blob per worker); "unique down" is the fan-out-deduplicated floor
    (one blob per round) both transports share.  "bcast floor" is the
    fastest *warm* round's broadcast path — server-side encode+publish,
    dispatch latency to the slowest worker's handler entry, and the
    workers' overlapped lazy decode.  The minimum (not the mean) is
    reported because on an oversubscribed box the dispatch latency is
    dominated by OS scheduling noise; the floor is where the transports'
    structural difference — N pickled pipe copies vs. one shm publish —
    shows through.  A production-scale state (a few MiB) is used for the
    same reason: at bench-model sizes the copies vanish under the noise.
    Round 0 (pool spin-up, cold caches) is excluded, as are registration
    bytes from both byte columns.
    """
    from repro.fl import shm_supported

    rounds = max(3, bench_rounds(6))
    transports = ["pipe"] + (["shm"] if shm_supported() else [])
    grid = [workers for workers in worker_grid if workers > 1] or [2]
    model = build_cnn_model(
        suite.image_shape, suite.num_classes, rng=np.random.default_rng(0),
        widths=(48, 96), embed_dim=256,
    )
    init_state = {
        key: value.copy() for key, value in model.state_dict().items()
    }
    state_kib = sum(v.nbytes for v in init_state.values()) / 1024
    serial_state, _ = _transport_rounds(suite, "auto", 1, model, init_state, rounds)
    rows = []
    for transport in transports:
        for workers in grid:
            final_state, executor = _transport_rounds(
                suite, transport, workers, model, init_state, rounds
            )
            wire = executor.wire_stats()
            floor_ms = 1e3 * (
                min(executor.broadcast_encode_rounds[1:])
                + min(executor.broadcast_dispatch_rounds[1:])
                + min(executor.broadcast_decode_rounds[1:])
            )
            decode_ms = 1e3 * min(executor.broadcast_decode_rounds[1:])
            identical = all(
                np.array_equal(final_state[key], serial_state[key])
                for key in serial_state
            )
            rows.append(
                [
                    f"{transport} x{workers}",
                    f"{(wire.broadcast_bytes + wire.task_bytes) / rounds / 1024:.0f}",
                    f"{(wire.unique_broadcast_bytes + wire.task_bytes) / rounds / 1024:.0f}",
                    f"{floor_ms:.1f}",
                    f"{decode_ms:.2f}",
                    "yes" if identical else "NO",
                ]
            )
    return format_table(
        [
            "Transport",
            "down KiB/round",
            "unique down KiB/round",
            "bcast floor (ms/round)",
            "of which decode (ms)",
            "state == serial",
        ],
        rows,
        title=(
            f"Wire transports — broadcast fan-out cost per round "
            f"({rounds} rounds, {CLIENTS_PER_ROUND} participants, "
            f"{state_kib:.0f} KiB state; shm publishes one copy per round, "
            f"pipe one per worker)"
        ),
    )


def _run_faults_table(suite, worker_grid) -> str:
    """Round time with faults off vs. under 25% injected stragglers.

    Each straggler sleeps its injected delay inside the local phase, so
    the serial engine pays every sleep back to back while the parallel
    engines overlap them across workers — the wall-clock column is the
    robustness half of the scalability story.  The faulty runs also pin
    the chaos invariance: every engine's faulty trace must equal the
    serial faulty trace (the plan, not the engine, decides who survives).
    """
    rounds = max(3, bench_rounds(4))
    grid = [1] + [workers for workers in worker_grid if workers > 1]
    rows = []
    for faults in (None, STRAGGLER_PLAN):
        baseline_trace = None
        for workers in grid:
            result, _, _ = _run_with_workers(
                suite, rounds, workers, faults=faults,
                deadline=30.0 if faults else None,
            )
            timing = result.timing
            trace = _trace_of(result)
            if baseline_trace is None:
                baseline_trace = trace
            rows.append(
                [
                    "serial" if workers == 1 else f"parallel x{workers}",
                    "off" if faults is None else "25% stragglers",
                    f"{timing.local_train_wall_seconds_total / rounds:.2f}",
                    f"{timing.dropped_clients}",
                    f"{timing.straggler_seconds:.2f}",
                    f"{timing.rebuilt_workers}",
                    "yes" if trace == baseline_trace else "NO",
                ]
            )
    return format_table(
        [
            "Executor",
            "faults",
            "local wall (s/round)",
            "dropped",
            "straggler (s)",
            "rebuilt",
            "trace == serial",
        ],
        rows,
        title=(
            f"Fault tolerance — round time under injected stragglers "
            f"({rounds} rounds, {CLIENTS_PER_ROUND}/{NUM_CLIENTS} clients, "
            f"plan '{STRAGGLER_PLAN}')"
        ),
    )


def _compute_rounds(spec: str, clients, model, init_state, rounds: int):
    """Run ``rounds`` all-clients FedAvg rounds on the serial engine under
    one compute backend; return (final state, per-round wall seconds).

    Two local epochs, as a federated round actually runs them: the fixed
    per-round costs both backends share (state load, update extraction)
    amortize over the epoch loop, so the table measures the training path
    rather than the bookkeeping."""
    strategy = FedAvgStrategy(LocalTrainingConfig(batch_size=8, local_epochs=2))
    state = {key: value.copy() for key, value in init_state.items()}
    tree = SeedTree(0).child("server", "compute-bench")
    timings = []
    with SerialExecutor(compute=spec) as executor:
        for round_index in range(rounds):
            seeds = [
                tree.seed("client", client.client_id, "round", round_index)
                for client in clients
            ]
            begin = time.perf_counter()
            updates = executor.run_round(
                strategy, model, state, clients, round_index, seeds
            )
            timings.append(time.perf_counter() - begin)
            state = strategy.aggregate(state, updates, round_index)
    return state, timings


def _run_compute(worker_grid) -> str:
    """Loop-vs-ensemble round time at K co-resident clients per group.

    Runs in the ensemble backend's motivating regime — many small clients
    sharing one process, where the loop backend's cost is per-client Python
    and layer dispatch rather than BLAS time: a compute-shaped small CNN
    (8x8 inputs, widths (6, 12)) over clients holding a handful of samples
    each, every client participating every round, on the serial engine so
    the grouping is a single K-stack.  At paper scale (16x16 inputs,
    ~35-sample clients) both backends are memory-bandwidth-bound and the
    table would flatline near x1 — the sweep deliberately measures the
    dispatch-bound end, which is also where `auto`'s crossover with the
    process pool moves (see AUTO_CROSSOVER_TASKS).  The warm minimum over
    rounds 1+ is reported: round 0 pays one-time ensemble clone
    construction and numpy warm-up, and the minimum is the schedule-noise-
    free floor on an oversubscribed box.  ``worker_grid`` is unused (the
    sweep is serial by construction) but kept for signature symmetry with
    the other table builders.
    """
    del worker_grid
    rounds = max(3, bench_rounds(6))
    small = synthetic_pacs(
        seed=0, samples_per_class=samples_per_class(8), image_size=8
    )
    rows = []
    payload = {"rounds": rounds, "unit": "ms_per_round_warm_min", "sweep": []}
    for num_clients in (1, 4, 16):
        partition = partition_clients(
            small, [0, 1], num_clients, 0.1, np.random.default_rng(0)
        )
        clients = [
            Client(i, d) for i, d in enumerate(partition.client_datasets)
        ]
        model = build_cnn_model(
            small.image_shape, small.num_classes,
            rng=np.random.default_rng(0), widths=(6, 12), embed_dim=32,
        )
        init_state = {
            key: value.copy() for key, value in model.state_dict().items()
        }
        loop_state, loop_times = _compute_rounds(
            "loop", clients, model, init_state, rounds
        )
        ens_state, ens_times = _compute_rounds(
            "ensemble", clients, model, init_state, rounds
        )
        loop_ms = 1e3 * min(loop_times[1:])
        ens_ms = 1e3 * min(ens_times[1:])
        identical = set(loop_state) == set(ens_state) and all(
            np.array_equal(loop_state[key], ens_state[key])
            for key in loop_state
        )
        rows.append(
            [
                f"{num_clients}",
                f"{sum(c.num_samples for c in clients) // num_clients}",
                f"{loop_ms:.2f}",
                f"{ens_ms:.2f}",
                f"x{loop_ms / ens_ms:.2f}",
                "yes" if identical else "NO",
            ]
        )
        payload["sweep"].append(
            {
                "clients": num_clients,
                "loop_ms": round(loop_ms, 3),
                "ensemble_ms": round(ens_ms, 3),
                "speedup": round(loop_ms / ens_ms, 3),
                "bitwise_identical": bool(identical),
            }
        )
    emit_json("compute", payload)
    return format_table(
        [
            "K (clients/group)",
            "samples/client",
            "loop (ms/round)",
            "ensemble (ms/round)",
            "speedup",
            "state bit-identical",
        ],
        rows,
        title=(
            f"Compute backends — serial round time, loop vs. ensemble "
            f"({rounds} rounds, 8x8 CNN, all K clients stacked per round; "
            f"warm minimum)"
        ),
    )


def _run_robust(suite) -> str:
    """Accuracy and aggregation cost per robust rule, clean vs. attacked.

    Each rule runs the same serial FedAvg session twice: fault-free, and
    with 20% of the (client, round) cells Byzantine (the ``scale`` mode —
    the update blown up 100x, the attack that actually moves a mean).
    Shape to check: the mean collapses under attack while the robust rules
    hold near their own clean accuracy, at an aggregation cost that stays
    in the milliseconds.  The "rejected" column counts uploads the rule
    excluded outright (krum's non-selected peers) — the mean and median
    reject nobody; they differ in how much a bad upload *weighs*.  The
    sweep is also written as ``BENCH_robust.json`` for machine consumers.
    """
    rounds = max(3, bench_rounds(4))
    rules = ["mean", "median", "trimmed_mean(1)", "krum"]
    rows = []
    payload = {
        "rounds": rounds,
        "attack": BYZANTINE_PLAN,
        "unit": "test_accuracy",
        "sweep": [],
    }
    for rule in rules:
        cells = {}
        for faults in (None, BYZANTINE_PLAN):
            result, _, _ = _run_with_workers(
                suite, rounds, 1, faults=faults, aggregator=rule,
            )
            cells["attacked" if faults else "clean"] = result
        clean = cells["clean"].final_accuracy["test"]
        attacked = cells["attacked"].final_accuracy["test"]
        timing = cells["attacked"].timing
        rows.append(
            [
                rule,
                f"{clean:.3f}",
                f"{attacked:.3f}",
                f"{attacked - clean:+.3f}",
                f"{timing.rejected_uploads}",
                f"{1e3 * timing.aggregation_seconds_mean:.2f}",
            ]
        )
        payload["sweep"].append(
            {
                "rule": rule,
                "clean_accuracy": round(clean, 4),
                "attacked_accuracy": round(attacked, 4),
                "rejected_uploads": timing.rejected_uploads,
                "aggregation_ms_per_round": round(
                    1e3 * timing.aggregation_seconds_mean, 3
                ),
            }
        )
    emit_json("robust", payload)
    return format_table(
        [
            "Aggregator",
            "clean acc",
            "attacked acc",
            "delta",
            "rejected",
            "aggregation (ms/round)",
        ],
        rows,
        title=(
            f"Robust aggregation — final accuracy under Byzantine clients "
            f"({rounds} rounds, {CLIENTS_PER_ROUND}/{NUM_CLIENTS} clients, "
            f"attack '{BYZANTINE_PLAN}')"
        ),
    )


def _run_strategies(suite) -> str:
    """Accuracy and local-compute overhead per objective-driven strategy.

    Each strategy runs the same serial session as the scaling table's
    baseline; reported per row: final unseen-domain accuracy, its delta
    against FedAvg, the local-training wall clock per round, and the
    overhead factor over FedAvg — what each method's extra objective
    terms, second views, and payload sweeps actually cost.  Shape to
    check: the sibling methods land within a small constant factor of
    FedAvg (their terms are vectorized batch math, not per-sample
    Python), and no method collapses below FedAvg at this scale.  The
    sweep is also written as ``BENCH_strategies.json``.
    """
    rounds = max(3, bench_rounds(4))
    rows = []
    payload = {
        "rounds": rounds,
        "baseline": "fedavg",
        "unit": "test_accuracy",
        "sweep": [],
    }
    baseline_acc = baseline_wall = None
    for name in STRATEGY_FACTORIES:
        result, _, _ = _run_with_workers(
            suite, rounds, 1, strategy=STRATEGY_FACTORIES[name]()
        )
        accuracy = result.final_accuracy["test"]
        wall = result.timing.local_train_wall_seconds_total / rounds
        if baseline_acc is None:
            baseline_acc, baseline_wall = accuracy, wall
        rows.append(
            [
                name,
                f"{accuracy:.3f}",
                f"{accuracy - baseline_acc:+.3f}",
                f"{wall:.2f}",
                f"x{wall / baseline_wall:.2f}",
            ]
        )
        payload["sweep"].append(
            {
                "strategy": name,
                "test_accuracy": round(accuracy, 4),
                "accuracy_vs_fedavg": round(accuracy - baseline_acc, 4),
                "local_wall_s_per_round": round(wall, 4),
                "overhead_vs_fedavg": round(wall / baseline_wall, 3),
            }
        )
    emit_json("strategies", payload)
    return format_table(
        [
            "Strategy",
            "test acc",
            "vs fedavg",
            "local wall (s/round)",
            "overhead",
        ],
        rows,
        title=(
            f"Strategies — accuracy and local-compute overhead vs FedAvg "
            f"({rounds} rounds, {CLIENTS_PER_ROUND}/{NUM_CLIENTS} clients, "
            f"serial)"
        ),
    )


def _net_transport_rounds(suite, transport: str, codec: str, rounds: int):
    """Run one 2-worker engine configuration for the networking sweep;
    returns (wire stats, per-round wall seconds)."""
    clients = _make_clients(suite)[:CLIENTS_PER_ROUND]
    model = build_cnn_model(
        suite.image_shape, suite.num_classes, rng=np.random.default_rng(0)
    )
    strategy = FedAvgStrategy(LocalTrainingConfig(batch_size=32))
    state = {key: value.copy() for key, value in model.state_dict().items()}
    tree = SeedTree(0).child("server", "net-bench")
    walls = []
    with ParallelExecutor(
        num_workers=2, codec=codec, transport=transport
    ) as executor:
        for round_index in range(rounds):
            seeds = [
                tree.seed("client", client.client_id, "round", round_index)
                for client in clients
            ]
            begin = time.perf_counter()
            updates = executor.run_round(
                strategy, model, state, clients, round_index, seeds
            )
            walls.append(time.perf_counter() - begin)
            state = strategy.aggregate(state, updates, round_index)
        wire = executor.wire_stats()
    return wire, walls


#: The remote leg's local recipe: small batches and several epochs, so
#: each agent's training phase is long enough for the pipelined overlap
#: to be measurable above the loopback transfer cost even at smoke scale.
NET_LOCAL = LocalTrainingConfig(batch_size=4, local_epochs=8)


def _net_session(suite, executor, rounds: int):
    """One remote-leg session (serial reference or RemoteExecutor) on a
    compute-shaped small model: the wire and the server-side upload
    ingest stay in the milliseconds, so the measured overlap isolates
    the agents' concurrent *training* — the thing pipelining hides."""
    model = build_cnn_model(
        suite.image_shape, suite.num_classes, rng=np.random.default_rng(0),
        widths=(8, 16), embed_dim=32,
    )
    server = FederatedServer(
        strategy=FedAvgStrategy(NET_LOCAL),
        clients=_make_clients(suite),
        model=model,
        eval_sets={"test": suite.datasets[3]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=CLIENTS_PER_ROUND, seed=0,
        ),
        executor=executor,
    )
    begin = time.perf_counter()
    try:
        return server.run(), time.perf_counter() - begin
    finally:
        executor.close()


def _net_remote_leg(suite, pipelined: bool, rounds: int):
    """One RemoteExecutor session against two *subprocess* agents (real
    processes, so training genuinely overlaps across endpoints); returns
    (run result, elapsed wall seconds)."""
    executor = RemoteExecutor(num_agents=2, pipelined=pipelined)
    host, port = executor.address
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    agents = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.fl.net.agent",
                "--connect", f"{host}:{port}", "--name", f"bench-{index}",
            ],
            env=env,
        )
        for index in range(2)
    ]
    try:
        return _net_session(suite, executor, rounds)
    finally:
        for agent in agents:
            try:
                agent.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                agent.kill()


def _run_net(suite) -> str:
    """The cross-machine networking sweep (``repro.fl.net``), two halves.

    First: warm per-round wire bytes and round wall clock for the
    loopback ``tcp`` transport vs. ``shm`` (or ``pipe`` on shm-less
    hosts), per codec, on the 2-worker pool — what moving the broadcast
    fan-out onto sockets costs, and how much of it each codec claws back.
    Second: the :class:`RemoteExecutor` against two subprocess agents,
    pipelined vs. unpipelined — same trace by construction, so the
    interesting columns are round latency and the measured cross-host
    overlap, which must be > 0 only when pipelining is on.  Both halves
    land in ``BENCH_net.json``.
    """
    rounds = max(3, bench_rounds(4))
    reference = "shm" if shm_supported() else "pipe"
    transport_rows = []
    transport_sweep = []
    for codec in CODEC_GRID:
        for transport in ("tcp", reference):
            wire, walls = _net_transport_rounds(suite, transport, codec, rounds)
            down_kib = (wire.broadcast_bytes + wire.task_bytes) / rounds / 1024
            up_kib = wire.upload_bytes / rounds / 1024
            wall = sum(walls) / rounds
            transport_rows.append(
                [
                    f"{transport} x2",
                    codec,
                    f"{down_kib:.0f}",
                    f"{up_kib:.0f}",
                    f"{wall:.3f}",
                ]
            )
            transport_sweep.append(
                {
                    "transport": transport,
                    "codec": codec,
                    "down_kib_per_round": round(down_kib, 2),
                    "up_kib_per_round": round(up_kib, 2),
                    "wall_s_per_round": round(wall, 4),
                }
            )
    transport_table = format_table(
        [
            "Transport",
            "codec",
            "down KiB/round",
            "up KiB/round",
            "wall (s/round)",
        ],
        transport_rows,
        title=(
            f"Networking — loopback tcp vs {reference}, bytes x wall clock "
            f"per codec ({rounds} rounds, {CLIENTS_PER_ROUND} participants, "
            f"2 workers)"
        ),
    )

    serial_result, _ = _net_session(suite, SerialExecutor(), rounds)
    serial_trace = _trace_of(serial_result)
    remote_rows = []
    remote_json = {"agents": 2, "rounds": rounds}
    for pipelined in (True, False):
        result, elapsed = _net_remote_leg(suite, pipelined, rounds)
        overlap = result.timing.pipeline_overlap_seconds / rounds
        matches = _trace_of(result) == serial_trace
        label = "pipelined" if pipelined else "unpipelined"
        remote_rows.append(
            [
                label,
                f"{elapsed / rounds:.3f}",
                f"{overlap:.3f}",
                "yes" if matches else "NO",
            ]
        )
        remote_json[label] = {
            "wall_s_per_round": round(elapsed / rounds, 4),
            "overlap_s_per_round": round(overlap, 4),
            "trace_matches_serial": bool(matches),
        }
    remote_table = format_table(
        [
            "Remote round loop",
            "wall (s/round)",
            "overlap (s/round)",
            "trace == serial",
        ],
        remote_rows,
        title=(
            f"Networking — RemoteExecutor over 2 subprocess agents, "
            f"pipelined vs unpipelined ({rounds} rounds, "
            f"{CLIENTS_PER_ROUND}/{NUM_CLIENTS} clients)"
        ),
    )
    emit_json(
        "net",
        {
            "rounds": rounds,
            "reference_transport": reference,
            "transports": transport_sweep,
            "remote": remote_json,
        },
    )
    return transport_table + "\n\n" + remote_table


def _scale_factory(image_shape=(3, 8, 8), num_classes=7, samples=6):
    """A deterministic lazy client factory: each id regenerates the same
    small synthetic shard, so a 100k-client population costs nothing until
    a client is actually sampled."""

    def factory(client_id: int) -> Client:
        rng = np.random.default_rng(90_000 + client_id)
        dataset = LabeledDataset(
            images=rng.normal(size=(samples,) + tuple(image_shape)),
            labels=rng.integers(0, num_classes, size=samples),
            domain_ids=np.zeros(samples, dtype=np.int64),
        )
        return Client(client_id, dataset)

    return factory


def _scale_session(population_size, participants, rounds, aggregator="mean",
                   workers=None):
    factory = _scale_factory()
    model = build_cnn_model((3, 8, 8), 7, rng=np.random.default_rng(0))
    executor = make_executor(
        "serial" if workers is None else "parallel", workers=workers
    )
    server = FederatedServer(
        strategy=FedAvgStrategy(LocalTrainingConfig(batch_size=32)),
        clients=LazyPopulation(population_size, factory),
        model=model,
        eval_sets={"test": factory(0).dataset},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=participants, seed=0,
            aggregator=aggregator,
        ),
        executor=executor,
    )
    try:
        return server.run()
    finally:
        executor.close()


def _run_scale() -> str:
    """Population scaling — server peak memory must track the participant
    count, not the population size.

    Two lazy populations (1k and 100k clients) run the same serial FedAvg
    session at a fixed participant count under ``tracemalloc``; the 100k
    peak must stay within 2x of the 1k peak, or the server is still
    holding per-population state somewhere.  A second check replays a
    small lazy session with the two-tier ``edge(4)+mean`` aggregator on both
    engines and demands the trace and final model stay bit-identical to
    flat FedAvg.  The sweep is also written as ``BENCH_scale.json``.
    """
    participants = 64 if is_fast_mode() else 128
    rounds = 2 if is_fast_mode() else 3
    sizes = (1_000, 100_000)
    rows = []
    sweep = []
    peaks = {}
    for size in sizes:
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = _scale_session(size, participants, rounds)
            elapsed = time.perf_counter() - start
            peak = result.timing.peak_memory_bytes
            if not peak:
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[size] = peak
        sweep.append(
            {
                "population": size,
                "peak_bytes": peak,
                "seconds": round(elapsed, 3),
            }
        )
    ratio = peaks[sizes[-1]] / peaks[sizes[0]]
    within_2x = ratio < 2.0
    for size in sizes:
        rows.append(
            [
                f"{size:,}",
                f"{peaks[size] / (1024 * 1024):.1f}",
                f"{peaks[size] / peaks[sizes[0]]:.2f}x",
            ]
        )

    edge_identical = {}
    for label, workers in (("serial", None), ("parallel", 2)):
        flat = _scale_session(1_000, 16, 2, workers=workers)
        edged = _scale_session(1_000, 16, 2, aggregator="edge(4)+mean",
                               workers=workers)
        edge_identical[label] = bool(
            _trace_of(flat) == _trace_of(edged)
            and sorted(flat.final_state) == sorted(edged.final_state)
            and all(
                np.array_equal(flat.final_state[key], edged.final_state[key])
                for key in flat.final_state
            )
        )

    emit_json(
        "scale",
        {
            "participants": participants,
            "rounds": rounds,
            "samples_per_client": 6,
            "engine": "serial",
            "sweep": sweep,
            "peak_ratio_large_vs_small": round(ratio, 3),
            "within_2x": within_2x,
            "edge_topology": {
                "spec": "edge(4)+mean",
                "flat_identical": edge_identical,
            },
        },
    )
    table = format_table(
        ["Population", "server peak (MiB)", "vs 1k"],
        rows,
        title=(
            f"Population scaling — lazy clients, streaming aggregation "
            f"({participants} participants/round, {rounds} rounds, serial; "
            f"within 2x: {'yes' if within_2x else 'NO'})"
        ),
    )
    edge_line = ", ".join(
        f"{label} {'yes' if ok else 'NO'}"
        for label, ok in edge_identical.items()
    )
    return table + f"\nedge(4)+mean trace == flat mean: {edge_line}"


def _tables(suite, worker_grid, codec="identity", transport="auto",
            faults=None, deadline=None, compute="auto", aggregator="mean",
            strategy="fedavg", extra_tables=True) -> str:
    """``extra_tables=False`` keeps non-default CI matrix legs to the
    scaling table alone — the wire, codec, transport, fault, robust, and
    strategy sweeps are independent of the matrix axis and would only
    duplicate the default leg's output."""
    parts = [
        _run(
            suite, worker_grid, codec=codec, transport=transport,
            faults=faults, deadline=deadline, compute=compute,
            aggregator=aggregator, strategy=strategy,
        )
    ]
    if extra_tables:
        parts.append(_run_wire(suite))
        parts.append(_run_codecs(suite))
        parts.append(_run_transports(suite, worker_grid))
        parts.append(_run_faults_table(suite, worker_grid))
        parts.append(_run_compute(worker_grid))
        parts.append(_run_robust(suite))
        parts.append(_run_strategies(suite))
        parts.append(_run_net(suite))
        parts.append(_run_scale())
    return "\n\n".join(parts)


def test_executor_scaling(benchmark):
    suite = synthetic_pacs(seed=0, samples_per_class=samples_per_class(40))
    table = benchmark.pedantic(
        lambda: _tables(suite, WORKER_GRID), rounds=1, iterations=1
    )
    emit("executor_scaling", table)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI scale: fast data, workers {1, 2}",
    )
    parser.add_argument(
        "--codec", default="identity",
        help="wire codec for the scaling table (CI runs a matrix of these)",
    )
    parser.add_argument(
        "--transport", default="auto",
        help="wire transport for the scaling table (CI runs pipe and shm legs)",
    )
    parser.add_argument(
        "--compute", default="auto",
        help="compute backend for the scaling table (the CI compute legs "
        "use it to pin loop-vs-ensemble trace identity end to end)",
    )
    parser.add_argument(
        "--faults", default=None,
        help="fault-plan spec for the scaling table (the CI chaos legs use "
        "it to check that a faulty trace stays engine-invariant)",
    )
    parser.add_argument(
        "--aggregator", default="mean",
        help="aggregation rule for the scaling table (the CI byzantine "
        "legs run the robust rules under an attack plan)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-round wall-clock budget in seconds for the scaling table",
    )
    parser.add_argument(
        "--strategy", default="fedavg", choices=sorted(STRATEGY_FACTORIES),
        help="strategy for the scaling table (the CI strategy legs pin the "
        "sibling methods' serial/parallel trace identity per transport)",
    )
    args = parser.parse_args()
    if args.transport == "shm" and not shm_supported():
        # A CI matrix leg may land on a host without the shared-memory
        # transport (no /dev/shm, restricted sandboxes); that makes the leg
        # vacuous, not broken.
        print(f"SKIP: transport {args.transport!r} unavailable on this host")
        raise SystemExit(0)
    if args.smoke:
        os.environ.setdefault("REPRO_BENCH_SCALE", "fast")
    grid = [1, 2] if args.smoke else WORKER_GRID
    suite = synthetic_pacs(seed=0, samples_per_class=samples_per_class(40))
    name = "executor_scaling"
    if args.codec != "identity":
        name += f"_{args.codec.replace('+', '_')}"
    if args.transport != "auto":
        name += f"_{args.transport}"
    if args.compute != "auto":
        name += f"_{args.compute}"
    if args.faults is not None:
        name += "_faults"
    if args.aggregator != "mean":
        name += f"_{args.aggregator.replace('(', '_').replace(')', '').replace('+', '_').replace(', ', '_')}"
    if args.strategy != "fedavg":
        name += f"_{args.strategy}"
    emit(
        name,
        _tables(
            suite, grid, codec=args.codec, transport=args.transport,
            faults=args.faults, deadline=args.deadline, compute=args.compute,
            aggregator=args.aggregator, strategy=args.strategy,
            # The sweep tables are leg-independent (the transport sweep runs
            # both transports itself, the compute sweep both backends, the
            # fault sweep both fault settings, the robust sweep all rules,
            # the strategy sweep all methods); run them on the local default
            # (auto) and on exactly one CI matrix leg (identity + pipe +
            # auto, no chaos, fedavg).
            extra_tables=args.codec == "identity"
            and args.transport in ("auto", "pipe")
            and args.compute == "auto"
            and args.faults is None
            and args.aggregator == "mean"
            and args.strategy == "fedavg",
        ),
    )
