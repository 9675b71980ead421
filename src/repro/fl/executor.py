"""Client-execution engines: how one round's local updates actually run.

The round loop in :mod:`repro.fl.server` is *what* federated learning does
(sample, broadcast, locally train, aggregate); this module is *how* the
local-training fan-out executes.  Two engines share one contract:

* :class:`SerialExecutor` — trains every participant in order on the
  server's workspace model.  Bit-identical to the historical behaviour and
  the default everywhere.
* :class:`ParallelExecutor` — fans participants out to a pool of worker
  processes with *pool-resident clients*: each client has a sticky home
  worker (``client_id % num_workers``), its dataset ships there once per
  pool lifetime, and afterwards only deltas travel (see the wire protocol
  below).  Wall-clock scales with workers instead of with the participant
  count (paper §IV-B-3's scalability axis).

Both return the same :class:`ClientUpdate` records in sampling order, so
aggregation — and therefore the whole run trace — is independent of the
engine.  Determinism holds because per-(client, round) RNG seeds are derived
from the :class:`repro.utils.rng.SeedTree` *before* dispatch and travel with
the task.

Wire protocol (parallel engine)
-------------------------------
Mirrors the per-round-traffic argument PARDON makes against cross-sharing
methods (§IV-B-3, Fig. 4b): clients keep their data, only deltas travel.

1. **Registration** (once per client per pool lifetime): the full
   :class:`Client` — dataset and scratch included — ships to its home
   worker, then both sides mark the scratch clean.  The codec (below) is
   negotiated here: its spec travels with the worker init, so both
   endpoints build the same pipeline before any state crosses.
2. **Broadcast** (once per participating worker per round): the strategy
   blob and the codec-encoded global weights; workers cache the strategy
   decode keyed on the blob bytes.
3. **Task** (per co-resident group per round):
   ``(client_ids, round_index, seeds, scratch_syncs, fault)`` — each
   scratch sync is ``None`` unless server-side code touched that client's
   scratch between rounds.  Under the ``loop`` compute backend every task
   is a singleton group; a batched backend (``ensemble``) packs a home
   worker's fault-free participants into one task, while faulted clients
   always ride alone.
4. **Delta upload** (per group per round): the list of
   :class:`ClientUpdate` records in group order, each ``state``
   codec-encoded and each ``scratch_delta`` carrying only the scratch keys
   the local update wrote or removed — PARDON's style-transfer cache
   crosses the wire once, not every round.

Weight payloads in both directions additionally pass through a pluggable
**codec** (:mod:`repro.fl.codec`): ``identity`` ships raw state dicts
(the historical wire), ``delta`` ships lossless compressed diffs against
reference states both endpoints hold (workers keep the previous broadcast;
the server keeps each client's last acknowledged upload), and ``fp16`` /
``qint8`` quantize.  The server's halves of those references, and which
clients live on which worker, are kept by a
:class:`repro.fl.residency.EndpointLedger`.  References reset with their
endpoint: a pool rebuild clears all of them, a lost slot only its own
(upload references survive it), and re-registering a client clears that
client's upload chain on both sides.

*How* the encoded broadcast blob reaches the workers is a pluggable
**transport** (:mod:`repro.fl.transport`), negotiated at pool build like
the codec: ``pipe`` pickles one full copy into each participating worker's
pipe, ``shm`` writes the blob once into a shared-memory segment and ships
workers only a tiny handle.  Broadcast decode is *overlapped* on every
transport: the worker's broadcast handler just records the handle, and the
decode runs lazily at the round's first tensor touch — inside the local
phase, concurrent with other workers' training and the server's dispatch —
with its wall clock stamped on the first task's
:attr:`ClientUpdate.decode_seconds` so :class:`repro.fl.timing.PhaseTimer`
can report the overlap window.

*How the clients that landed in one place actually train* is a pluggable
**compute backend** (:mod:`repro.fl.compute`), negotiated at pool build
like the codec and the transport: ``loop`` runs the historical per-client
loop, ``ensemble`` stacks each co-resident group along a leading axis and
trains it as fused batched matmuls (:mod:`repro.nn.ensemble`), and
``auto`` (the default) resolves to ``ensemble`` whenever every module of
the model converts.  Per-client results are bitwise independent of the
grouping, so the trace stays engine- and backend-invariant.

Both engines also host the **fault-tolerance layer**
(:mod:`repro.fl.faults`): a deterministic, seeded fault plan injects
client dropouts, worker crashes, stragglers, and corrupted uploads; a
round ``deadline`` lets the parallel engine close a round with whatever
updates arrived (survivors aggregate, stragglers are absorbed into the
next round, crashed pool slots are rebuilt in place), and the engines
publish each round's casualties in a
:class:`repro.fl.faults.RoundFaultReport` so the server can record them.
Who a round dispatches, keeps and drops is decided by one
:class:`repro.fl.rounds.RoundController` per round; the engines only
dispatch work and feed it arrivals.

Every hop is byte-counted *post-codec* in :class:`WireStats` — both as the
bytes each endpoint actually saw (``bytes_down``) and deduplicated across
the fan-out (``unique_bytes_down``: the broadcast blob counts once per
round, not once per worker); the server folds the counters into
:class:`repro.fl.timing.TimingReport` so benches can print measured
traffic next to the analytic :mod:`repro.fl.communication` model.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor as _ProcessPool,
    TimeoutError as _FuturesTimeout,
    wait as _futures_wait,
)
from concurrent.futures.process import BrokenProcessPool as _BrokenPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import multiprocessing

from repro.fl.client import Client, ScratchDelta
from repro.fl.codec import Codec, Payload, make_codec
from repro.fl.compute import ComputeBackend, make_compute, resolve_compute
from repro.fl.faults import (
    AdaptiveDeadline,
    FaultEvent,
    FaultPlan,
    FixedDeadline,
    RoundFaultReport,
    byzantine_state,
    make_deadline_policy,
    make_fault_plan,
    poison_state,
    state_is_corrupt,
)
from repro.fl.residency import EndpointLedger
from repro.fl.rounds import RoundController, TaskRow
from repro.fl.transport import Transport, make_transport, resolve_transport
from repro.nn.serialize import StateDict, decode_payload, encode_payload
from repro.spec import Registry
from repro.utils.blas import limit_blas_threads

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.aggregate import AggregationStream
    from repro.fl.strategy import Strategy
    from repro.nn.models import FeatureClassifierModel

__all__ = [
    "ClientUpdate",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "WorkerRuntime",
    "WireStats",
    "make_executor",
    "resolve_executor",
    "EXECUTOR_KINDS",
    "AUTO_CROSSOVER_TASKS",
]

#: ``executor="auto"`` crossover: per-round local-update tasks
#: (participants x local epochs) at or above which the process pool's
#: dispatch overhead amortizes and the parallel engine wins wall-clock.
#: Below it (the ROADMAP's "tiny local epochs at bench scale"), serial is
#: faster because pool spin-up and per-round broadcasts dominate.
#:
#: Re-derived after the serial engine's ``auto`` compute started resolving
#: to the ensemble backend.  Methodology: the break-even point solves
#: ``N * t_serial = N * t_serial / W + overhead(N)``, so it scales
#: linearly with serial per-task throughput while the pool's per-round
#: overhead (broadcast fan-out, per-task pickling) is backend-independent.
#: Warm serial rounds on the bench workload (16x16 synthetic-PACS CNN,
#: batch 32 — ``benchmarks/bench_executor_scaling.py``) measure ensemble
#: at x1.2 over loop across 16-64 participants (the batched path saves
#: per-client dispatch, but this regime is BLAS-bound; the x3+ wins of
#: ``BENCH_compute.json`` live at tiny per-client shards the pool does
#: not serve anyway).  The old loop-derived crossover of 16 therefore
#: moves to 16 x 1.2 ~= 20.  Single-core hosts short-circuit to serial
#: before this constant is consulted.
AUTO_CROSSOVER_TASKS = 20


@dataclass
class ClientUpdate:
    """Everything one client sends back after a local update.

    This is the upload half of the federated wire protocol: it must stay
    serializable (checked by the parallel engine on every hop), and it is the
    *only* channel through which a local update may influence the server.
    Strategies therefore put method-specific uploads — FPL's class
    prototypes, for instance — into ``payload`` instead of mutating strategy
    state from inside :meth:`repro.fl.strategy.Strategy.local_update`.

    ``scratch_delta`` is the client's scratch changes made *by this update*
    (filled in by the executor, not by strategies): a snapshot taken at
    upload time, never an alias of the live scratch dict, under every
    engine.  Applying it to any scratch copy that was in sync before the
    update reproduces additions, overwrites, and deletions alike.
    ``train_seconds`` is the worker-measured wall clock of the update, so
    the timing report stays fair when updates overlap.  ``decode_seconds``
    is the worker-measured wall clock of the lazy broadcast decode, nonzero
    only on the task that performed it (the worker's first task of the
    round) — under the parallel engine this work overlaps other workers'
    training, and :class:`repro.fl.timing.PhaseTimer` accumulates it as the
    round's overlap window.  ``straggler_seconds`` is the injected
    fault-plan slowdown this update really slept through (zero outside
    chaos runs — see :mod:`repro.fl.faults`), kept out of
    ``train_seconds`` so per-update compute stays honest.  It is a
    per-update *diagnostic* only: the run-level
    ``TimingReport.straggler_seconds`` is derived from the plan instead,
    so cooperatively skipped stragglers (which never produce an update)
    count too.

    On the parallel engine's upload hop, ``state`` transiently holds the
    codec :class:`repro.fl.codec.Payload` instead of a state dict; the
    server decodes it before anything else sees the update.
    ``__wire_oob__`` opts the record into the serializer's protocol-5
    out-of-band framing, so every array it carries — wire tensors, FPL's
    prototype payload, scratch-delta values — decodes as a zero-copy view.
    """

    __wire_oob__ = True

    client_id: int
    num_samples: int
    state: StateDict
    loss: float
    payload: dict[str, object] = field(default_factory=dict)
    scratch_delta: ScratchDelta = field(default_factory=ScratchDelta)
    train_seconds: float = 0.0
    decode_seconds: float = 0.0
    straggler_seconds: float = 0.0

    @classmethod
    def from_client(
        cls,
        client: Client,
        state: StateDict,
        loss: float,
        payload: dict[str, object] | None = None,
    ) -> "ClientUpdate":
        """The standard way a strategy wraps its local-update result."""
        return cls(
            client_id=client.client_id,
            num_samples=client.num_samples,
            state=state,
            loss=float(loss),
            payload=payload or {},
        )


@dataclass
class WireStats:
    """Cumulative bytes an engine moved across the process boundary.

    ``registration_bytes`` also counts the per-worker model template — the
    whole one-time cost of making a pool resident.  Serial execution has no
    wire, so its stats stay zero.

    The ``unique_*`` counters deduplicate the fan-out: each distinct
    payload counts once regardless of how many workers received it — the
    model template once (not once per worker), each round's strategy blob
    and each distinct encoded broadcast blob once (not once per
    participating worker).  ``bytes_down`` is what the endpoints actually
    saw and therefore transport-dependent (the pipe transport really does
    copy the broadcast per worker); ``unique_bytes_down`` is the
    information-content floor both transports share, and the gap between
    the two is exactly what the shm transport's single-copy broadcast
    eliminates.
    """

    registration_bytes: int = 0
    broadcast_bytes: int = 0
    task_bytes: int = 0
    upload_bytes: int = 0
    unique_registration_bytes: int = 0
    unique_broadcast_bytes: int = 0

    @property
    def bytes_down(self) -> int:
        """Server → worker traffic (registration + broadcast + tasks)."""
        return self.registration_bytes + self.broadcast_bytes + self.task_bytes

    @property
    def unique_bytes_down(self) -> int:
        """Downlink traffic with fan-out duplicates counted once (each
        distinct broadcast blob once per round, the model template once)."""
        return (
            self.unique_registration_bytes
            + self.unique_broadcast_bytes
            + self.task_bytes
        )

    @property
    def bytes_up(self) -> int:
        """Worker → server traffic (delta uploads)."""
        return self.upload_bytes


class Executor:
    """Engine contract: run one round's sampled clients, in sampling order.

    ``participants`` and ``seeds`` are aligned; ``model`` is the server's
    architecture template (serial engines train on it directly, parallel
    engines clone it per worker).  Implementations must return one
    :class:`ClientUpdate` per participant, in the same order, with decoded
    (post-codec) states.

    ``codec`` is the wire codec for weight payloads (a spec string or a
    built :class:`repro.fl.codec.Codec`).  Engines must keep the round
    trace *codec-invariant for lossless codecs* and *engine-invariant for
    every codec*: an in-process engine reproduces a lossy wire by
    round-tripping states through the codec, exactly as a worker would see
    them.

    ``faults`` injects a deterministic chaos schedule
    (:class:`repro.fl.faults.FaultPlan`, or its spec string) and
    ``deadline`` bounds each round's wall clock; both default to off.  An
    engine with faults or a deadline may return *fewer* updates than
    participants — the survivors, still in sampling order — and must
    publish what it dropped (and why) in :attr:`last_fault_report` so the
    server can reweight aggregation over the survivors and record the
    round's casualties.  The fault layer's observable effect (who survives
    each round) must stay engine-invariant: the chaos tests compare
    serial and parallel traces bit-for-bit under one plan.

    ``compute`` selects the compute backend (:mod:`repro.fl.compute`) that
    trains each co-resident client group — ``"auto"`` (default) resolves
    against the model at pool build, ``"loop"``/``"ensemble"``/``"strict"``
    force a backend.  Per-client numerics are bitwise independent of the
    backend and the grouping, so the choice is pure throughput.
    """

    #: The wire transport, for engines that have a wire (the serial engine
    #: keeps the ``None`` default — there is no process boundary to cross).
    transport: "Transport | None" = None

    #: Broadcast/train/upload overlap the most recent round achieved, in
    #: seconds: endpoint busy-time that ran concurrently with other remote
    #: work instead of serializing behind it.  Only pipelined multi-host
    #: engines (:class:`repro.fl.net.executor.RemoteExecutor`) report a
    #: nonzero value; the server folds it into the timing report.
    last_overlap_seconds: float = 0.0

    def __init__(
        self,
        codec: "str | Codec" = "identity",
        faults: "str | FaultPlan | None" = None,
        deadline: "float | str | FixedDeadline | AdaptiveDeadline | None" = None,
        compute: str = "auto",
        quorum: int | None = None,
    ) -> None:
        self.codec = make_codec(codec)
        #: The configured compute spec; ``auto`` until a model resolves it.
        self.compute = resolve_compute(compute)
        self.fault_plan = make_fault_plan(faults)
        #: The round-deadline policy (:mod:`repro.fl.faults`): ``None`` for
        #: no deadline, :class:`FixedDeadline` for the historical constant
        #: budget, :class:`AdaptiveDeadline` for percentile-of-recent-rounds.
        self.deadline_policy = make_deadline_policy(deadline)
        if quorum is not None and int(quorum) < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        #: Early-close floor: the round closes at the first ``quorum``
        #: accepted uploads (``None`` = wait for everyone).
        self.quorum = None if quorum is None else int(quorum)
        #: The most recent round's fault outcome (who dropped and why,
        #: injected straggler seconds, rebuilt worker slots).  Always
        #: refreshed by run_round, even for fault-free rounds.
        self.last_fault_report: RoundFaultReport | None = None
        self._backend: ComputeBackend | None = None
        # Measured durations of recent completed rounds, feeding adaptive
        # deadline policies.  Bounded: no policy window reaches past this.
        self._round_durations: "deque[float]" = deque(maxlen=32)
        # round_index -> (accepted client ids, recorded drop map): when set,
        # run_round replays exactly that membership instead of running its
        # own round control.  See set_replay.
        self._replay: (
            "dict[int, tuple[tuple[int, ...], dict[int, str]]] | None"
        ) = None

    @property
    def deadline(self) -> float | None:
        """Back-compat view of :attr:`deadline_policy`: the fixed per-round
        seconds, or ``None`` (adaptive policies resolve per round)."""
        if isinstance(self.deadline_policy, FixedDeadline):
            return self.deadline_policy.seconds
        return None

    @property
    def records_accepted(self) -> bool:
        """Whether round membership depends on wall clock (quorum races,
        adaptive deadlines) or on a pinned replay — exactly the cases where
        the server must record ``RoundRecord.accepted`` for exact replay."""
        return (
            self.quorum is not None
            or self._replay is not None
            or (self.deadline_policy is not None and self.deadline_policy.adaptive)
        )

    def set_replay(self, history: object) -> None:
        """Pin future rounds to a recorded accepted-set per round.

        ``history`` is a :class:`repro.fl.history.RunHistory` (or any
        iterable of :class:`repro.fl.history.RoundRecord`) whose records
        carry :attr:`~repro.fl.history.RoundRecord.accepted` — i.e. they
        came from a quorum / adaptive-deadline run.  A replayed round
        dispatches exactly the recorded accepted clients (in sampling
        order), copies the recorded drop map verbatim, and applies no
        deadline or quorum logic of its own, so the trace is bit-identical
        to the recorded run on *any* engine — even though the original
        membership was decided by a wall-clock race.
        """
        records = getattr(history, "records", history)
        replay: "dict[int, tuple[tuple[int, ...], dict[int, str]]]" = {}
        for record in records:
            if record.accepted is None:
                raise ValueError(
                    f"round {record.round_index} has no recorded accepted "
                    f"set; only quorum/adaptive-deadline runs record one"
                )
            replay[record.round_index] = (
                tuple(record.accepted),
                dict(record.dropped),
            )
        self._replay = replay

    def clear_replay(self) -> None:
        """Return to live round control after :meth:`set_replay`."""
        self._replay = None

    def _current_deadline(self) -> float | None:
        """This round's wall-clock budget under the configured policy."""
        if self.deadline_policy is None:
            return None
        return self.deadline_policy.resolve(tuple(self._round_durations))

    def _observe_round_duration(self, seconds: float) -> None:
        """Feed a completed round's duration to adaptive deadline policies
        (fixed policies ignore history, so don't bother recording)."""
        if self.deadline_policy is not None and self.deadline_policy.adaptive:
            self._round_durations.append(float(seconds))

    def _round_controller(
        self,
        participants: Sequence[Client],
        seeds: Sequence[int],
        round_index: int,
        stream: "AggregationStream | None",
        preemptive: bool = True,
        kills_workers: bool = False,
    ) -> RoundController:
        """This round's :class:`repro.fl.rounds.RoundController`, built
        from the engine's fault plan, resolved deadline, quorum and (when
        :meth:`set_replay` pinned one) replay entry."""
        replay = None
        if self._replay is not None:
            replay = self._replay.get(round_index)
            if replay is None:
                raise ValueError(
                    f"replay is set but has no entry for round {round_index}"
                )
        return RoundController(
            round_index, participants, seeds,
            fault_plan=self.fault_plan,
            deadline=self._current_deadline(),
            quorum=self.quorum,
            replay=replay,
            stream=stream,
            preemptive=preemptive,
            kills_workers=kills_workers,
            observe=self._observe_round_duration,
        )

    def run_round(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        global_state: StateDict,
        participants: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
        stream: "AggregationStream | None" = None,
    ) -> list[ClientUpdate]:
        """Run one round's local updates; with ``stream`` the engine folds
        each *accepted* upload into the online aggregation accumulator as
        membership resolves and frees its ``state`` — the returned updates
        then carry ``state=None`` and the caller finalizes the stream
        instead of re-reducing the batch.  ``stream.count`` always equals
        the number of returned updates, which is how
        :meth:`repro.fl.strategy.Strategy.aggregate` cross-checks that the
        engine and the stream saw the same round."""
        raise NotImplementedError

    def _compute_backend(self, model: "FeatureClassifierModel") -> ComputeBackend:
        """The round's compute backend, with ``auto`` resolved late against
        the actual model (mirrors how codec/transport negotiate at build).

        The built backend is kept across rounds so its internal caches (the
        ensemble backend memoizes stacked module clones per group size)
        survive the round loop — backends are stateless with respect to
        results, so reuse can never change a trace."""
        spec = resolve_compute(self.compute, model)
        if self._backend is None or self._backend.spec != spec:
            self._backend = make_compute(spec)
        return self._backend

    def wire_stats(self) -> WireStats:
        """Snapshot of the engine's cumulative wire traffic (zero when the
        engine moves nothing across a process boundary)."""
        return WireStats()

    def close(self) -> None:
        """Release any worker resources.  Idempotent; engines may be reused
        after closing (pools are rebuilt lazily)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Train participants one after another on the server's workspace model.

    The workspace pattern means zero copies: the global weights are loaded
    into ``model`` before each participant, so state never leaks between
    clients through the model object.

    There is no wire, so lossless codecs (identity, delta) are a strict
    no-op — states decode bit-exactly, and skipping the round-trip is what
    keeps this engine zero-copy.  Lossy codecs *are* round-tripped (one
    broadcast round-trip per round, one upload round-trip per update) so a
    quantized run traces identically here and on the parallel engine.

    Faults inject in-process: dropped-before-dispatch clients are simply
    skipped, survivor stragglers really sleep their injected delay, crash
    victims are skipped at the point the parallel engine's worker would
    die, and corrupted uploads are poisoned then rejected by the same
    validation the parallel server runs — so a faulty run's trace matches
    the parallel engines bit-for-bit.  A round ``deadline`` on this engine
    is *cooperative* (no preemption in-process): it only decides which
    injected stragglers/hangs are dropped up front — and, as on every
    engine, a round those drops leave empty or below its quorum raises
    :class:`repro.fl.faults.RoundTimeoutError`.
    """

    def run_round(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        global_state: StateDict,
        participants: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
        stream: "AggregationStream | None" = None,
    ) -> list[ClientUpdate]:
        round_ = self._round_controller(
            participants, seeds, round_index, stream, preemptive=False
        )
        # What a worker would train from: identical to global_state for
        # lossless codecs, the dequantized broadcast for lossy ones.
        wire_state = self.codec.roundtrip(global_state)
        # One singleton row per survivor, then one backend call over all of
        # them: the whole round is a single co-resident group in-process,
        # which the ensemble backend trains as one (or a few) fused stacks.
        # Slice independence keeps each client's numerics identical to the
        # per-client loop, so this grouping is invisible in the trace.
        rows = round_.task_rows()
        for row in rows:
            if row.fault is not None and row.fault.kind in ("straggler", "hang"):
                time.sleep(row.fault.delay_seconds)
        backend = self._compute_backend(model)
        group_updates = backend.run_group(
            strategy,
            model,
            wire_state,
            [row.clients[0] for row in rows],
            round_index,
            [row.seeds[0] for row in rows],
        )
        norm_screen = (
            self.fault_plan.norm_screen if self.fault_plan is not None else None
        )
        # Uploads "arrive" in sampling order, so a quorum deterministically
        # keeps the first accepted ones — the canonical accepted set a
        # wall-clock engine replays.
        for row, update in zip(rows, group_updates):
            if round_.closed:
                break
            round_.arrive(row)
            fault = row.fault
            if fault is not None:
                if fault.kind in ("straggler", "hang"):
                    update.straggler_seconds = fault.delay_seconds
                elif fault.kind == "corrupt":
                    update.state = poison_state(update.state)
                elif fault.kind == "byzantine":
                    # Same hook point as the worker: the attack replaces
                    # the honest upload before it hits the wire codec, and
                    # is computed against the decoded broadcast the client
                    # trained from.
                    update.state = byzantine_state(
                        update.state, wire_state, fault
                    )
            if not self.codec.lossless:
                # Mirror the upload hop: the server-side aggregation must
                # consume exactly what a decoded wire upload would hold.
                update.state = self.codec.roundtrip(update.state)
            if self.fault_plan is not None and state_is_corrupt(
                update.state, ref=global_state, norm_screen=norm_screen
            ):
                # Same acceptance check the parallel server runs on every
                # decoded upload: the weights are distrusted, the scratch
                # is not (in-process it was already applied in place).
                round_.reject(update.client_id)
                continue
            round_.accept(row.positions[0], update)
        self.last_fault_report = round_.report
        return round_.close()


def _ingest_group_upload(
    engine: "Executor",
    row: TaskRow,
    wire: object,
    global_state: StateDict,
    round_: RoundController,
) -> None:
    """Feed one arrived row's upload to ``round_``: decode each update,
    sync its scratch, and accept it or reject it as corrupt.

    Shared verbatim by every wire-crossing engine — the process pool
    (:class:`ParallelExecutor`) and the socket engine
    (:class:`repro.fl.net.executor.RemoteExecutor`) — so upload semantics
    (codec chains, scratch materialization, corruption screening) are
    literally one code path.  ``engine`` supplies ``wire``/``fault_plan``,
    the :class:`repro.fl.residency.EndpointLedger` (``ledger``) whose
    upload references decode each state, and, optionally, a
    ``transport`` whose ``recv_upload`` unwraps the wire bytes.

    The decode order is fixed per row and codec chains are per client, so
    any arrival order of rows advances them identically.
    """
    round_.arrive(row)
    blob = wire if engine.transport is None else engine.transport.recv_upload(wire)
    engine.wire.upload_bytes += len(blob)
    row_updates: list[ClientUpdate] = decode_payload(blob)
    norm_screen = (
        engine.fault_plan.norm_screen if engine.fault_plan is not None else None
    )
    for client, position, update in zip(row.clients, row.positions, row_updates):
        # Restore the codec-encoded state before anything
        # downstream (aggregation, benches) touches the update.
        update.state = engine.ledger.decode_upload(update.client_id, update.state)
        # The out-of-band decode hands back read-only views into
        # the upload blob.  That is fine for ``state`` (dropped
        # after aggregation), but scratch outlives the round:
        # materialize the delta so server-side scratch holds owned,
        # writable values instead of pinning every client's blob
        # for the session.
        if update.scratch_delta:
            update.scratch_delta = pickle.loads(
                pickle.dumps(
                    update.scratch_delta, pickle.HIGHEST_PROTOCOL
                )
            )
        # Sync the server-side copy; applying (rather than
        # recording) keeps its dirty set empty, so nothing bounces
        # back next round.
        client.scratch.apply_delta(update.scratch_delta)
        if engine.fault_plan is not None and state_is_corrupt(
            update.state, ref=global_state, norm_screen=norm_screen
        ):
            # Acceptance check on every decoded upload: distrust
            # the weights, keep the scratch (applied above — the
            # serial engine's in-process run mutates it the same
            # way), and leave both reference chains advanced so the
            # next delta still decodes bit-exactly.
            round_.reject(client.client_id)
            continue
        round_.accept(position, update)


# -- the training endpoint ----------------------------------------------------
#
# One single-process pool per worker slot gives deterministic task routing:
# submissions to a slot run FIFO in one long-lived process, so a client's
# home worker keeps its dataset, scratch, and the round's broadcast state
# without any cross-worker coordination.  All of that per-endpoint state
# lives in a WorkerRuntime: pool workers install one as a module-global
# singleton (process-wide, exactly like the historical module globals);
# remote agents (repro.fl.net.agent) build one per server connection, so
# in-process agent threads never share state.  Either way the training
# side of the wire protocol is the same object running the same code.


class WorkerRuntime:
    """The training endpoint's half of the wire protocol.

    Holds everything a worker keeps between messages: the decoded model
    template, the negotiated codec/transport/compute, resident clients,
    the current round's (lazily decoded) broadcast, and the stateful-codec
    reference states — the previous decoded broadcast and each resident
    client's last uploaded state, which advance in lockstep with the
    server-side chains because lossless decoding is bit-exact (that
    invariant is why stateful codecs must be lossless).

    Construction *is* negotiation: the four arguments are the pool
    initargs — and, verbatim, the meta a remote agent receives in its
    handshake welcome — so every endpoint builds the same pipeline from
    the same strings before any state crosses the wire.

    Construction also caps the process's BLAS at one thread: endpoints
    run side by side, one per core, and a per-process BLAS pool on top
    oversubscribes the cores (see :mod:`repro.utils.blas`).
    """

    def __init__(
        self,
        model_blob: bytes,
        codec_spec: str,
        transport_spec: str,
        compute_spec: str,
    ) -> None:
        limit_blas_threads(1)
        self.model: "FeatureClassifierModel" = decode_payload(model_blob)
        self.codec: Codec = make_codec(codec_spec)  # the negotiated wire codec
        self.transport: Transport = make_transport(transport_spec)  # ...and transport
        self.compute: ComputeBackend = make_compute(compute_spec)  # ...and compute
        self.clients: dict[int, Client] = {}
        self.strategy_blob: "bytes | None" = None
        self.strategy: "Strategy | None" = None
        self.state: StateDict | None = None
        self.round_index: "int | None" = None
        # The not-yet-decoded broadcast: (transport handle, round index).
        # The broadcast handler only records it; the decode runs lazily at
        # the round's first tensor touch (see ensure_round_state) so it
        # overlaps the server's dispatch and the other workers' training
        # instead of serializing behind a per-round barrier.
        self.pending: "tuple[object, int] | None" = None
        self.bcast_ref: StateDict | None = None
        self.upload_refs: dict[int, StateDict] = {}

    def register(self, clients_blob: bytes) -> int:
        """Make the shipped clients resident; replaces same-id residents.

        The blob also carries the ids the server's LRU evicted from this
        endpoint since the last registration — piggybacked here so
        worker-side copies (and their upload reference chains) are freed
        without a dedicated message.  Either half may be empty: a
        pure-eviction flush ships no clients, a pure registration no
        evictions.
        """
        clients: "list[Client]"
        evict_ids: "tuple[int, ...]"
        clients, evict_ids = decode_payload(clients_blob)
        for client_id in evict_ids:
            self.clients.pop(client_id, None)
            self.upload_refs.pop(client_id, None)
        for client in clients:
            client.scratch.mark_clean()  # registration is the sync point
            self.clients[client.client_id] = client
            # A fresh resident starts a fresh upload-reference chain; the
            # server drops its copy at the same point.
            self.upload_refs.pop(client.client_id, None)
        return len(clients)

    def set_strategy(self, strategy_blob: bytes) -> "Strategy":
        if strategy_blob != self.strategy_blob:
            self.strategy = decode_payload(strategy_blob)
            self.strategy_blob = strategy_blob
        return self.strategy

    def broadcast(
        self, strategy_blob: bytes, handle: object, round_index: int
    ) -> float:
        """Record one round's strategy + broadcast handle.

        Deliberately does *not* decode the weights — that happens lazily at
        the round's first tensor touch (:meth:`ensure_round_state`),
        overlapping the decode with the server's task dispatch and the
        other workers' training.  Returns the handler-entry
        ``perf_counter`` timestamp; on the platforms this library runs,
        ``perf_counter`` reads a system-wide monotonic clock, so a
        same-host server can subtract its submit timestamp to measure the
        transport's dispatch latency (pickling + pipe transfer for
        ``pipe``, a tiny handle for ``shm``).
        """
        entry = time.perf_counter()
        self.set_strategy(strategy_blob)
        self.pending = (handle, round_index)
        return entry

    def ensure_round_state(self, round_index: int) -> float:
        """Decode the pending broadcast if this task is the round's first
        tensor touch on this endpoint; returns the decode wall clock (0.0
        when the round state is already installed)."""
        decode_seconds = 0.0
        if self.pending is not None and self.pending[1] == round_index:
            handle, pending_round = self.pending
            start = time.perf_counter()
            # fetch() is a pipe no-op / a zero-copy shm view / a tcp pull;
            # decode_payload reads it out-of-band, so the codec decodes
            # straight from the transport's buffer without an intermediate
            # copy.
            payload: Payload = decode_payload(self.transport.fetch(handle))
            self.state = self.codec.decode(payload, self.bcast_ref)
            if self.codec.stateful:
                self.bcast_ref = self.state
            self.round_index = pending_round
            self.pending = None
            decode_seconds = time.perf_counter() - start
        if self.state is None or self.round_index != round_index:  # pragma: no cover
            raise RuntimeError(
                f"task for round {round_index} arrived without its broadcast "
                f"(endpoint is at round {self.round_index})"
            )
        return decode_seconds

    def run_task(
        self,
        task: "tuple[tuple[int, ...], int, tuple[int, ...], tuple[bytes | None, ...], FaultEvent | None]",
    ) -> bytes:
        """Train one co-resident client group and upload its updates.

        ``task`` carries the group's client ids, their per-client seeds and
        scratch-sync blobs, and at most one fault event.  Faulted clients
        always dispatch as singleton groups (the server enforces this), so
        a fault applies to ``client_ids[0]`` unambiguously; fault-free
        clients of one endpoint may share a group, which the compute
        backend trains as one fused stack.  The upload is always a *list*
        of updates, in group order.

        Crash faults are the *dispatcher's* problem, not this method's:
        the pool wrapper (:func:`_run_resident_task`) hard-exits the
        process before getting here, and the remote executor never
        dispatches a crash victim at all (a remote agent is not the
        server's process to kill).
        """
        client_ids, round_index, seeds, scratch_syncs, fault = task
        if self.strategy is None:  # pragma: no cover - protocol violation
            raise RuntimeError("endpoint received a task before init/broadcast")
        decode_seconds = self.ensure_round_state(round_index)
        clients: list[Client] = []
        for client_id, scratch_sync in zip(client_ids, scratch_syncs):
            client = self.clients.get(client_id)
            if client is None:  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"client {client_id} is not resident on this endpoint"
                )
            if scratch_sync is not None:
                client.scratch.apply_delta(decode_payload(scratch_sync))
            clients.append(client)
        straggler_seconds = 0.0
        if fault is not None and fault.kind in ("straggler", "hang"):
            # Injected slowness, slept before the update so train_seconds
            # keeps measuring genuine compute.  A "hang" sleeps past the
            # server's round deadline; the server drops it and absorbs the
            # eventual result as a zombie.
            time.sleep(fault.delay_seconds)
            straggler_seconds = fault.delay_seconds
        updates = self.compute.run_group(
            self.strategy, self.model, self.state, clients,
            round_index, list(seeds),
        )
        # The lazy broadcast decode ran inside this task; stamp it once, on
        # the group's first update, so PhaseTimer's overlap accounting
        # counts it exactly once per endpoint per round.
        if updates:
            updates[0].decode_seconds = decode_seconds
            updates[0].straggler_seconds = straggler_seconds
        if fault is not None and fault.kind == "corrupt":
            # Poison *before* the codec, like a corrupted upload on a real
            # wire; the server's acceptance check catches it after decode.
            updates[0].state = poison_state(updates[0].state)
        elif fault is not None and fault.kind == "byzantine":
            # The adversary trains honestly, then uploads an attack state
            # built against the broadcast it received — pre-codec, like any
            # real client-side tampering.  Byzantine clients dispatch as
            # singleton groups, so the attack targets updates[0].
            updates[0].state = byzantine_state(
                updates[0].state, self.state, fault
            )
        # Codec-encode each upload; ``update.state`` carries the Payload
        # across the wire and the server restores a decoded state before
        # anyone else sees the update.
        for update in updates:
            state = update.state
            update.state = self.codec.encode(
                state, self.upload_refs.get(update.client_id)
            )
            if self.codec.stateful:
                self.upload_refs[update.client_id] = state
        return self.transport.send_upload(encode_payload(updates))


# The pool worker's process-wide runtime, installed by _worker_init.
_WORKER_RUNTIME: "WorkerRuntime | None" = None


def _worker_init(
    model_blob: bytes, codec_spec: str, transport_spec: str, compute_spec: str
) -> None:
    # A fresh runtime replaces whatever fork inherited from a sibling pool's
    # module state, wholesale.
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = WorkerRuntime(
        model_blob, codec_spec, transport_spec, compute_spec
    )


def _worker_register(clients_blob: bytes) -> int:
    return _WORKER_RUNTIME.register(clients_blob)


def _worker_broadcast(
    strategy_blob: bytes, handle: object, round_index: int
) -> float:
    return _WORKER_RUNTIME.broadcast(strategy_blob, handle, round_index)


def _run_resident_task(
    task: "tuple[tuple[int, ...], int, tuple[int, ...], tuple[bytes | None, ...], FaultEvent | None]",
) -> bytes:
    fault = task[4]
    if fault is not None and fault.kind == "crash":
        # Simulate a hard worker crash: no cleanup, no exception back up
        # the pipe — the pool just loses this process, exactly like a
        # kill -9.  os._exit skips atexit/finalizers on purpose.
        os._exit(1)
    if _WORKER_RUNTIME is None:  # pragma: no cover - protocol violation
        raise RuntimeError("worker received a task before init")
    return _WORKER_RUNTIME.run_task(task)


def _default_workers() -> int:
    return max(2, min(4, os.cpu_count() or 2))


def _default_start_method() -> str:
    # fork is cheapest and inherits the import state, but it is only
    # reliably safe on Linux (macOS system frameworks may abort or deadlock
    # in forked children — the reason CPython switched that platform's
    # default to spawn).  Everywhere else, trust the platform default.
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


class ParallelExecutor(Executor):
    """Fan sampled clients out to sticky worker processes.

    Parameters
    ----------
    num_workers:
        Pool size.  Defaults to ``min(4, cpu_count)`` (at least 2 — a single
        worker is strictly worse than :class:`SerialExecutor`).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when the
        platform offers it.
    codec:
        Wire codec for weight payloads (spec string or built
        :class:`repro.fl.codec.Codec`).  The spec is shipped to workers at
        pool build, so both endpoints run the same pipeline.  A stateful
        codec (``delta``) keeps one reference state per worker (the last
        broadcast) and per client (the last acknowledged upload) on each
        side — O(model) memory per endpoint, the price of shipping diffs.
    transport:
        How encoded broadcast blobs reach the workers
        (:mod:`repro.fl.transport`): ``"pipe"`` copies the blob into each
        participating worker's pipe, ``"shm"`` publishes one shared-memory
        copy per round, and ``"auto"`` (default) prefers ``shm`` when the
        platform supports it.  Negotiated at pool build like the codec;
        purely mechanical — traces are transport-invariant.
    compute:
        The compute backend (:mod:`repro.fl.compute`) each worker trains
        its co-resident groups with; ``"auto"`` (default) resolves against
        the model at pool build.  Under a batched backend every home
        worker's fault-free participants arrive as one group task and
        train as a fused ``(K, ...)`` stack; per-client numerics are
        bitwise independent of the grouping, so traces stay
        backend-invariant.
    faults:
        Deterministic chaos schedule (:class:`repro.fl.faults.FaultPlan`
        or its spec string); injected faults travel inside the task
        tuples, so workers need no plan of their own.
    deadline:
        Wall-clock budget per round, in seconds, measured from the moment
        the round's tasks have all been dispatched (so time spent
        absorbing a previous round's straggler into registration does not
        eat the new round's budget).  When it expires the round *closes
        with whatever updates arrived*: outstanding clients are dropped
        (reason ``"deadline"``), their still-running tasks are absorbed —
        the slot keeps FIFO order, so the zombie result is drained and
        discarded next round and the client is re-registered before its
        next participation — and if *nothing* arrived the round raises
        :class:`repro.fl.faults.RoundTimeoutError` with the offending
        client ids instead of blocking forever on a hung worker.  Accepts
        a fixed number of seconds or an adaptive policy spec
        (``"percentile:p95"`` — see
        :func:`repro.fl.faults.make_deadline_policy`), which budgets each
        round from a sliding window of measured round durations.
    quorum:
        Early-close floor: with ``quorum=K`` the round closes at the
        first K *accepted* uploads (arrival order), dropping the
        outstanding rest (reason ``"quorum"``) with the same absorption
        contract as a deadline drop.  Wall clock decides who makes the
        cut, so the server records the accepted set per round
        (``RoundRecord.accepted``) and :meth:`Executor.set_replay` can
        reproduce the run exactly on any engine.  Under a deadline, a
        round that times out below the quorum raises
        :class:`repro.fl.faults.RoundTimeoutError` naming the quorum and
        the partial accepted set.

    Crashed pool slots are rebuilt in place: the slot's process is
    replaced, the round's broadcast is re-published to it (full-frame for
    stateful codecs — the dead worker's reference chain died with it),
    the clients whose tasks were lost re-register over the existing
    registration path from the server-side copies (which hold every
    previously synced scratch delta), and the lost tasks re-run with
    their original seeds.  Only a plan-designated crash victim — or a
    client whose task kills its worker twice — is dropped, so the
    surviving set matches the serial engine exactly.

    Each worker slot is one long-lived process (a single-worker
    :class:`~concurrent.futures.ProcessPoolExecutor`), and every client is
    pinned to slot ``client_id % num_workers``.  A client's dataset and
    scratch ship to its home worker **once**, at first participation; each
    round then sends one ``(strategy, weights)`` broadcast per participating
    worker and a constant-size task per participant, and each upload carries
    only the scratch keys the update changed (see the module docstring for
    the full wire protocol).  Results come back in sampling order and the
    uploaded deltas are applied to the server-side clients, so caches built
    inside a worker (e.g. PARDON's style-transferred images) survive across
    rounds exactly as they do serially.

    The pool is created lazily on the first round and rebuilt only when a
    different model *architecture* shows up, so one executor (and its warm
    pool + resident clients) serves consecutive runs — e.g. every split of a
    LODO sweep.  Residency is keyed on client *identity*: a run that builds
    fresh :class:`Client` objects (even with the same ids) re-registers
    them, so stale datasets or scratch can never leak between runs.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        start_method: str | None = None,
        codec: "str | Codec" = "identity",
        transport: "str | Transport" = "auto",
        faults: "str | FaultPlan | None" = None,
        deadline: "float | str | FixedDeadline | AdaptiveDeadline | None" = None,
        compute: str = "auto",
        quorum: int | None = None,
        max_resident: int | None = None,
    ) -> None:
        super().__init__(
            codec=codec, faults=faults, deadline=deadline, compute=compute,
            quorum=quorum,
        )
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_resident is not None and max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.max_resident = max_resident
        self.num_workers = num_workers or _default_workers()
        self.start_method = start_method or _default_start_method()
        self.transport = make_transport(transport)
        self.wire = WireStats()
        # Per-round broadcast timing, for the scaling bench: server-side
        # encode+publish seconds, and the dispatch latency from submit to
        # the slowest worker's handler entry (cross-process monotonic
        # clock — see _worker_broadcast).  Cumulative like the pool itself;
        # index 0 of a cold pool includes worker spin-up.
        self.broadcast_encode_rounds: list[float] = []
        self.broadcast_dispatch_rounds: list[float] = []
        self.broadcast_decode_rounds: list[float] = []
        self._pools: list[_ProcessPool] | None = None
        self._pool_architecture: tuple | None = None
        self._pool_initargs: tuple | None = None
        # The negotiated compute backend (``auto`` resolved against the
        # model at pool build; its spec ships in the worker initargs so
        # both endpoints agree before any task is dispatched).  The server
        # side only consults ``batched`` — to decide whether fault-free
        # co-resident clients share one group task per home worker.
        self._pool_compute: ComputeBackend | None = None
        self._mp_context = None
        # (home, future) pairs a round deadline left behind: the slot's
        # FIFO order means they finish before anything later touches
        # their worker; their results are drained and discarded (the
        # client was dropped, its scratch re-ships at re-registration).
        # The home is remembered so close() can kill — rather than join —
        # a slot whose zombie turns out to be genuinely wedged.
        self._zombie_futures: "list[tuple[int, Future]]" = []
        #: Which clients are resident on which worker slot, and the server
        #: halves of the stateful-codec reference chains.
        self.ledger = EndpointLedger(self.codec, self.wire, max_resident)

    @staticmethod
    def _architecture_of(model: "FeatureClassifierModel") -> tuple:
        """Structural signature deciding whether the worker template still
        fits.

        Covers everything ``load_state_dict`` validates — parameter *and*
        buffer names/shapes — plus each module's class and public scalar
        hyperparameters (stride, padding, ...), which change forward
        semantics without changing any tensor shape.  ``training`` and
        underscore-prefixed attributes are excluded: they vary at runtime
        and would only force needless pool rebuilds.
        """
        structure = tuple(
            (
                type(module).__name__,
                tuple(
                    sorted(
                        (key, value)
                        for key, value in vars(module).items()
                        if key != "training"
                        and not key.startswith("_")
                        and isinstance(value, (bool, int, float, str, tuple))
                    )
                ),
            )
            for module in model.modules()
        )
        return (
            structure,
            tuple((name, param.shape) for name, param in model.named_parameters()),
            tuple((name, buf.shape) for name, buf in model.named_buffers()),
        )

    def wire_stats(self) -> WireStats:
        return replace(self.wire)

    def _home(self, client_id: int) -> int:
        """Deterministic sticky affinity: a client always lands on the same
        worker slot, independent of sampling order or round."""
        return client_id % self.num_workers

    def _ensure_pools(self, model: "FeatureClassifierModel") -> list[_ProcessPool]:
        architecture = self._architecture_of(model)
        if self._pools is not None and self._pool_architecture != architecture:
            self.close()
        if self._pools is None:
            model_blob = encode_payload(model)
            self._mp_context = multiprocessing.get_context(self.start_method)
            compute_spec = resolve_compute(self.compute, model)
            self._pool_compute = make_compute(compute_spec)
            self._pool_initargs = (
                model_blob, self.codec.spec, self.transport.spec, compute_spec,
            )
            self._pools = [
                self._new_slot_pool() for _ in range(self.num_workers)
            ]
            self._pool_architecture = architecture
            self.wire.registration_bytes += len(model_blob) * self.num_workers
            self.wire.unique_registration_bytes += len(model_blob)
        return self._pools

    def _new_slot_pool(self) -> _ProcessPool:
        """One worker slot: a single-process pool built from the saved
        init recipe (also how a crashed slot is rebuilt mid-round)."""
        return _ProcessPool(
            max_workers=1,
            mp_context=self._mp_context,
            initializer=_worker_init,
            initargs=self._pool_initargs,
        )

    @staticmethod
    def _slot_is_dead(pool: _ProcessPool) -> bool:
        """Whether a slot's process is known-broken or silently gone (a
        fresh pool with no process spawned yet counts as healthy)."""
        if getattr(pool, "_broken", False):
            return True
        processes = getattr(pool, "_processes", None) or {}
        return any(not process.is_alive() for process in processes.values())

    def _replace_slot(
        self, pools: list[_ProcessPool], home: int, report: RoundFaultReport
    ) -> _ProcessPool:
        """Tear down one slot's dead pool and stand up a fresh process.

        Worker-resident state died with the process; the ledger forgets
        it (:meth:`repro.fl.residency.EndpointLedger.endpoint_lost`).
        """
        report.rebuilt_workers += 1
        pools[home].shutdown(wait=False)
        pools[home] = pool = self._new_slot_pool()
        if self._pool_initargs is not None:
            # The model template re-ships with the fresh process.
            self.wire.registration_bytes += len(self._pool_initargs[0])
        self.ledger.endpoint_lost(home)
        return pool

    @staticmethod
    def _submit_task(
        pools: list[_ProcessPool], home: int, task: tuple
    ) -> Future:
        """Submit one task, converting a dead pool into a failed future so
        collection's broken-slot recovery handles both cases uniformly (a
        crash can land between the health check and this submit)."""
        try:
            return pools[home].submit(_run_resident_task, task)
        except _BrokenPool as exc:
            failed: Future = Future()
            failed.set_exception(exc)
            return failed

    def _publish(
        self, homes: "list[int]", strategy_blob: bytes, global_state: StateDict
    ) -> "dict[int, object]":
        """Publish the round's broadcast to ``homes``: one transport
        publish per distinct encoded state (under shm the blob is written
        once per round no matter how many workers fan out), plus each
        slot's per-endpoint cost.  Returns each home's handle."""
        handle_of: "dict[int, object]" = {}
        for state_blob, group in self.ledger.broadcast(homes, global_state):
            handle = self.transport.publish(state_blob)
            per_home = len(strategy_blob) + self.transport.handle_wire_bytes(handle)
            self.wire.broadcast_bytes += (
                self.transport.publish_wire_bytes(state_blob)
                + per_home * len(group)
            )
            handle_of.update(dict.fromkeys(group, handle))
        return handle_of

    def run_round(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        global_state: StateDict,
        participants: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
        stream: "AggregationStream | None" = None,
    ) -> list[ClientUpdate]:
        pools = self._ensure_pools(model)
        self._drain_zombies()

        round_ = self._round_controller(
            participants, seeds, round_index, stream, kills_workers=True
        )
        dispatched = [slot.client for slot in round_.dispatched]
        for home in range(self.num_workers):
            # A worker that died outside any round (infrastructure
            # failure, an external kill) is indistinguishable from a warm
            # slot until something is submitted to it; replace it now so
            # this round re-registers its clients instead of feeding a
            # broken pool.
            if self._slot_is_dead(pools[home]):
                self._replace_slot(pools, home, round_.report)
        futures = [
            pools[home].submit(_worker_register, blob)
            for home, blob in self.ledger.registrations(
                range(self.num_workers), dispatched, self._home
            )
        ]
        for future in futures:
            future.result()  # surface registration errors before any task

        # One broadcast per participating worker, not per task.
        encode_start = time.perf_counter()
        strategy_blob = encode_payload(strategy)
        self.wire.unique_broadcast_bytes += len(strategy_blob)
        homes = sorted({self._home(client.client_id) for client in dispatched})
        handle_of = self._publish(homes, strategy_blob, global_state)
        encode_seconds = time.perf_counter() - encode_start

        try:
            # Dispatch the broadcasts but do NOT wait on them: each worker
            # slot is a FIFO single-process pool, so its broadcast is
            # guaranteed to run before its tasks, and the decode itself is
            # lazy inside the first task (ensure_round_state) — worker A
            # trains while worker B's blob is still in its pipe.
            dispatch_start = time.perf_counter()
            broadcast_futures = []
            for home in homes:
                try:
                    broadcast_futures.append(
                        (
                            home,
                            pools[home].submit(
                                _worker_broadcast, strategy_blob,
                                handle_of[home], round_index,
                            ),
                        )
                    )
                except _BrokenPool:
                    pass  # collection rebuilds the slot and re-broadcasts

            # Constant-size tasks; the scratch sync blob is None unless
            # server-side code touched the client's scratch since the last
            # sync.  A fault-plan event for this (client, round) rides in
            # the task tuple, so workers need no plan state of their own.
            batched = self._pool_compute is not None and self._pool_compute.batched
            for row in round_.task_rows(self._home, batched, self.wire):
                row.handle = self._submit_task(
                    pools, row.home, row.task(round_index)
                )
            round_.start()

            # With the tasks already queued behind them, resolving the
            # broadcast futures costs no overlap; it surfaces transport
            # errors with their original traceback and yields each
            # handler's entry timestamp for the dispatch-latency
            # measurement (max across workers = the barrier a blocking
            # broadcast would have imposed).  Under a deadline the wait is
            # bounded: a slot still stuck on an absorbed straggler gets
            # its handler entry skipped, and a slot that died is left for
            # task collection to rebuild.
            dispatch = 0.0
            for home, future in broadcast_futures:
                try:
                    dispatch = max(
                        dispatch,
                        future.result(timeout=round_.remaining()) - dispatch_start,
                    )
                except _FuturesTimeout:
                    self._zombie_futures.append((home, future))
                except _BrokenPool:
                    pass  # collection rebuilds the slot when it gets there

            self._collect(pools, round_, strategy_blob, global_state)
            updates = round_.close()
        finally:
            # Absorb the rows the round gave up on: the slot's FIFO order
            # lets each task finish harmlessly, its result is drained as a
            # zombie next round, and its clients re-register before their
            # next participation, because the worker-side copies diverge
            # the moment the absorbed update completes.
            self.ledger.abandon(round_.abandoned)
            for row in round_.abandoned:
                self._zombie_futures.append((row.home, row.handle))
            # Unlink this round's segments even when dispatch, a worker, or
            # an upload failed — callers that catch the error must not
            # retain blob-sized shared memory until the next successful
            # round or close().
            self.transport.end_round()
            self.last_fault_report = round_.report
        # The per-round timing lists advance in lockstep, and only for
        # rounds that completed (the bench indexes them together).
        self.broadcast_encode_rounds.append(encode_seconds)
        self.broadcast_dispatch_rounds.append(max(0.0, dispatch))
        self.broadcast_decode_rounds.append(
            sum(update.decode_seconds for update in updates)
        )
        self.ledger.evict_lru(participants)
        return updates

    def _collect(
        self,
        pools: list[_ProcessPool],
        round_: RoundController,
        strategy_blob: bytes,
        global_state: StateDict,
    ) -> None:
        """Feed the round's uploads to ``round_`` in arrival order until it
        closes (everything in, quorum met, or deadline expired).

        Rows are waited on with ``FIRST_COMPLETED`` and ingested as they
        arrive (in dispatch order within each arrival batch), so under a
        quorum which clients make the cut depends on wall clock — by
        design; the server records the accepted set and
        :meth:`Executor.set_replay` reproduces it.  Without a quorum the
        order is invisible: ingest is per client and the streaming fold is
        order-invariant.  A crashed slot rewrites its lost rows'
        futures (or drops them) mid-collection.
        """
        suspects: set[int] = set()
        while not round_.closed:
            rows = round_.outstanding
            done, _ = _futures_wait(
                {row.handle for row in rows},
                timeout=round_.remaining(),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                round_.expire()
                return
            for row in [row for row in rows if row.handle in done]:
                if round_.closed:
                    return
                try:
                    wire = row.handle.result()
                except _BrokenPool:
                    self._recover_broken_slot(
                        pools, row.home, round_, strategy_blob,
                        global_state, suspects,
                    )
                    break  # futures were rewritten; wait again
                _ingest_group_upload(self, row, wire, global_state, round_)

    def _recover_broken_slot(
        self,
        pools: list[_ProcessPool],
        home: int,
        round_: RoundController,
        strategy_blob: bytes,
        global_state: StateDict,
        suspects: set[int],
    ) -> None:
        """A slot's process died mid-round: rebuild it in place and re-run
        what the crash took with it.

        The plan's crash victim (and any group whose task has killed a
        worker twice — a deterministic poison pill would loop forever) is
        dropped; every other lost task re-registers its clients from the
        server-side copies and re-runs with its original seeds, so the
        surviving set — and the trace — matches the serial engine.
        (Plan-designated crash victims always dispatch as singleton
        groups, so a multi-client group can only be dropped by the
        twice-killed rule — an infrastructure failure, not plan chaos.)
        The fresh worker holds no codec reference state, so the
        re-broadcast is a full frame.
        """
        pool = self._replace_slot(pools, home, round_.report)
        rerun: "list[TaskRow]" = []
        head = True  # the slot runs FIFO, so the first lost row below is
        # the task that was executing when the process died — only it can
        # be the killer; rows queued behind it never got to run.
        for row in round_.outstanding:
            if row.home != home:
                continue
            if row.handle.done() and row.handle.exception() is None:
                continue  # its result outran the crash; keep it
            if row.fault is not None and row.fault.kind == "crash":
                round_.drop(row, "crash")  # the plan's victim
            elif head and all(
                client.client_id in suspects for client in row.clients
            ):
                # Executing for the second time when its worker died: a
                # deterministic poison pill, re-running it would rebuild
                # the slot forever.
                round_.drop(row, "crash")
            else:
                if head:
                    suspects.update(client.client_id for client in row.clients)
                rerun.append(row)
            head = False
        if not rerun:
            return
        blob = self.ledger.register(
            home, [client for row in rerun for client in row.clients]
        )
        pool.submit(_worker_register, blob).result()
        handle = self._publish([home], strategy_blob, global_state)[home]
        pool.submit(_worker_broadcast, strategy_blob, handle, round_.round_index)
        for row in rerun:
            # Registration just re-shipped the full scratch, so the task
            # needs no sync blobs.
            row.syncs = [None] * len(row.clients)
            self.wire.task_bytes += row.task_bytes(round_.round_index)
            row.handle = self._submit_task(
                pools, home, row.task(round_.round_index)
            )

    def _drain_zombies(self) -> None:
        """Absorb tasks past deadlines left running: discard any finished
        results/errors, keep waiting on the rest.  The dropped clients
        were evicted from residency when the deadline fired, so nothing a
        zombie computed can ever reach aggregation or scratch state."""
        still_running = []
        for home, future in self._zombie_futures:
            if not future.done():
                still_running.append((home, future))
                continue
            try:
                future.result()
            except Exception:
                pass  # the round that owned it already closed
        self._zombie_futures = still_running

    def close(self) -> None:
        if self._pools is not None:
            # A slot still chewing on an absorbed task may be slow — or
            # genuinely wedged, which is exactly the failure the deadline
            # existed to survive.  Its result can never be used (the
            # client was dropped and evicted), so kill the process rather
            # than hand the hang to shutdown's join.  But grant a short
            # grace first: a kill that lands mid-result-write wedges the
            # pool's manager thread on a half-read message forever (fork
            # siblings keep the result pipe's write end open, so the
            # partial recv never sees EOF) — and absorbed quorum
            # survivors are *actively finishing*, not wedged; they clear
            # the grace in milliseconds.
            if any(not future.done() for _, future in self._zombie_futures):
                _futures_wait(
                    {future for _, future in self._zombie_futures},
                    timeout=0.75,
                )
            stuck = {
                home
                for home, future in self._zombie_futures
                if not future.done()
            }
            for home in stuck:
                processes = getattr(self._pools[home], "_processes", None)
                for process in (processes or {}).values():
                    process.kill()
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._pools = None
            self._pool_architecture = None
            self._pool_compute = None  # re-negotiated at the next build
        self.transport.close()
        self._zombie_futures.clear()  # joined (or killed) above
        # Residents and reference chains die with their endpoints: a
        # rebuilt pool starts from full frames on both sides.
        self.ledger.clear()


def resolve_executor(
    kind: str,
    participants: int | None = None,
    local_epochs: int = 1,
    cpu_count: int | None = None,
) -> str:
    """Resolve ``"auto"`` to a concrete engine kind.

    The crossover heuristic weighs the per-round fan-out (population
    sampled per round x local-epoch cost) against the process pool's fixed
    overhead: parallel pays only when there are at least
    :data:`AUTO_CROSSOVER_TASKS` local-update task units per round *and*
    the machine has a second core to run them on.  With no participant
    information the safe answer is serial — it is bit-identical anyway.
    """
    if kind != "auto":
        _EXECUTORS[kind]  # unknown kinds raise here
        return kind
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if cpus < 2 or participants is None:
        return "serial"
    task_units = participants * max(1, local_epochs)
    return "parallel" if task_units >= AUTO_CROSSOVER_TASKS else "serial"


def make_executor(
    kind: str = "serial",
    workers: int | None = None,
    codec: "str | Codec" = "identity",
    participants: int | None = None,
    local_epochs: int = 1,
    transport: "str | Transport" = "auto",
    faults: "str | FaultPlan | None" = None,
    deadline: "float | str | None" = None,
    compute: str = "auto",
    quorum: int | None = None,
    max_resident: int | None = None,
) -> Executor:
    """Build an engine from the CLI/bench knobs (``--executor`` /
    ``--workers`` / ``--codec`` / ``--transport`` / ``--faults`` /
    ``--deadline`` / ``--compute`` / ``--quorum`` / ``--max-resident``).

    ``kind="auto"`` picks the engine via :func:`resolve_executor` from the
    optional ``participants``/``local_epochs`` hints; an explicit
    ``workers`` count under ``auto`` is read as intent and forces the
    parallel engine.  A ``workers`` count with ``kind="serial"`` is
    rejected rather than silently ignored — it almost always means the
    caller wanted parallel execution and forgot to say so.  ``transport``
    only applies to the parallel engine; the serial engine has no wire, so
    the spec is validated and then ignored — that keeps
    ``executor="auto"`` + an explicit transport resolvable to either
    engine.  ``faults`` and ``deadline`` configure the fault-tolerance
    layer (:mod:`repro.fl.faults`) on whichever engine results — both
    engines honour them, so a chaos run is valid under ``auto``.
    ``max_resident`` bounds the parallel engine's resident-client LRU
    (server-side copies + upload reference chains); like ``workers``, an
    explicit value under ``auto`` is read as intent for the parallel
    engine, and it is rejected with ``kind="serial"`` (the serial engine
    keeps no residents).
    """
    if isinstance(transport, str):
        resolve_transport(transport)  # reject typos for every engine kind
    if kind == "auto":
        kind = (
            "parallel"
            if workers is not None or max_resident is not None
            else resolve_executor(kind, participants, local_epochs)
        )
    return _EXECUTORS.make(
        kind, workers=workers, max_resident=max_resident, transport=transport,
        codec=codec, faults=faults, deadline=deadline, compute=compute,
        quorum=quorum,
    )


def _serial_engine(workers, max_resident, transport, **engine) -> Executor:
    if workers is not None:
        raise ValueError(
            "workers only applies to the parallel executor; "
            "pass kind='parallel' or drop the workers count"
        )
    if max_resident is not None:
        raise ValueError(
            "max_resident only applies to the parallel executor; "
            "pass kind='parallel' or drop the residency bound"
        )
    return SerialExecutor(**engine)


def _parallel_engine(workers, max_resident, transport, **engine) -> Executor:
    return ParallelExecutor(
        num_workers=workers, transport=transport, max_resident=max_resident,
        **engine,
    )


_EXECUTORS = Registry("executor kind", extra=("auto",))
_EXECUTORS.register("serial", _serial_engine)
_EXECUTORS.register("parallel", _parallel_engine)

#: Accepted ``--executor`` / setting values; ``auto`` resolves per run.
EXECUTOR_KINDS = _EXECUTORS.extra + _EXECUTORS.names()
