"""Sans-io round control: who a round dispatches, who it keeps, when it closes.

Every engine — serial, process pool, remote agents — runs the same four
decisions per round, and :class:`RoundController` is their one home:

1. **Membership triage** (at construction): a pinned replay entry, or
   the fault plan's :meth:`~repro.fl.faults.FaultPlan.actions_for_round`
   (dropouts and over-deadline stragglers skipped, the crash victim, the
   update-level faults to inject), plus the in-process engine's
   cooperative rule that drops a hang longer than the deadline.
2. **Task grouping** (:meth:`RoundController.task_rows`): one
   :class:`TaskRow` per co-resident group — one per home under a batched
   compute backend, faulted clients always alone — with each client's
   scratch sync point and its ``task_bytes`` wire accounting.
3. **Arrival bookkeeping**: a row arrives and each of its clients is
   accepted or rejected, a row is lost, the deadline expires, the quorum
   is met (:attr:`RoundController.closed`).
4. **Round close** (:meth:`RoundController.close`): the quorum cut,
   ``early_closed`` only when rows were actually cut, the one
   :class:`~repro.fl.faults.RoundTimeoutError` rule, the round-duration
   observation, and the survivors in sampling order.

Like :class:`repro.fl.net.frames.FrameDecoder`, the controller does no
I/O: events go in, decisions come out, and time is read only through the
injected ``clock``.  The engines are dispatch adapters around it — they
move bytes and wait on futures or sockets, feed what happened back in,
and absorb whatever rows the controller gave up on (:attr:`abandoned`).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple, Sequence

from repro.fl.faults import (
    FaultEvent,
    FaultPlan,
    RoundActions,
    RoundFaultReport,
    RoundTimeoutError,
)
from repro.nn.serialize import encode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.aggregate import AggregationStream
    from repro.fl.client import Client
    from repro.fl.executor import ClientUpdate, WireStats

__all__ = ["Dispatch", "RoundController", "TaskRow"]

#: Faults that shape what a dispatched client uploads (as opposed to
#: whether it is dispatched at all) — the only ones a replay re-injects.
_UPDATE_FAULTS = ("straggler", "hang", "corrupt", "byzantine")

#: Drop reasons that mean "the round ran out of time for these clients";
#: together with too few acceptances they make a round fail.
_TIMED_OUT = ("deadline", "disconnect")


class Dispatch(NamedTuple):
    """One client the round dispatches: its index in the round's sampling
    order, the client, its per-(client, round) seed, and the fault to
    inject into its update (``None`` for a clean run)."""

    position: int
    client: "Client"
    seed: int
    fault: "FaultEvent | None"


@dataclass(eq=False)
class TaskRow:
    """One task: a co-resident client group plus the engine's handle on it.

    ``syncs`` holds each client's encoded scratch sync (``None`` when the
    server did not touch that scratch, and always on an in-process
    engine).  ``home`` is where the row runs (a pool slot, a remote
    agent); ``handle`` is the engine's own (the pool's task future).
    Rows compare by identity.
    """

    home: Hashable
    positions: "list[int]"
    clients: "list[Client]"
    seeds: "list[int]"
    syncs: "list[bytes | None]"
    fault: "FaultEvent | None" = None
    handle: object = None

    def task(self, round_index: int) -> tuple:
        """The wire task tuple a :class:`repro.fl.executor.WorkerRuntime`
        runs."""
        return (
            tuple(client.client_id for client in self.clients),
            round_index,
            tuple(self.seeds),
            tuple(self.syncs),
            self.fault,
        )

    def task_bytes(self, round_index: int) -> int:
        """Downlink bytes charged for this task: each client's fixed task
        fields exactly, plus its sync blob (never re-pickled — it can be
        dataset-scale).  The group tuple's framing is charged to noise, so
        the accounting is invariant to grouping and worker count."""
        return sum(
            len(
                pickle.dumps(
                    (client.client_id, round_index, seed, None, self.fault),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            + (len(sync) if sync is not None else 0)
            for client, seed, sync in zip(self.clients, self.seeds, self.syncs)
        )


class RoundController:
    """One round's membership, arrivals and close, with no I/O.

    Parameters
    ----------
    round_index, participants, seeds:
        The round as the server sampled it (``seeds`` aligned with
        ``participants``).
    fault_plan, deadline, quorum:
        The engine's fault plan, this round's resolved deadline in seconds
        (``None`` = unbounded) and its quorum floor (``None`` = everyone).
    replay:
        A pinned ``(accepted ids, recorded drop map)`` entry (see
        :meth:`repro.fl.executor.Executor.set_replay`).  A replayed round
        dispatches exactly the recorded accepted clients with their
        update-level faults, copies the drop map verbatim, and applies no
        deadline or quorum logic.
    stream:
        The online aggregation accumulator each accepted update folds
        into (its ``state`` is then freed), or ``None``.
    preemptive:
        Whether the engine can abandon a running task at the deadline.
        An in-process engine cannot, so a hang longer than the deadline
        is dropped (``"deadline"``) before dispatch instead.
    kills_workers:
        Whether the engine dispatches the plan's crash victim to a worker
        process that really dies.  Otherwise the victim is dropped
        (``"crash"``) before dispatch, after the same scratch sync point.
    observe:
        Called with the round's duration when it closes successfully.
    clock:
        Monotonic seconds; the deadline and the round duration read it.
    """

    def __init__(
        self,
        round_index: int,
        participants: "Sequence[Client]",
        seeds: "Sequence[int]",
        *,
        fault_plan: "FaultPlan | None" = None,
        deadline: float | None = None,
        quorum: int | None = None,
        replay: "tuple[Sequence[int], dict[int, str]] | None" = None,
        stream: "AggregationStream | None" = None,
        preemptive: bool = True,
        kills_workers: bool = False,
        observe: "Callable[[float], None] | None" = None,
        clock: "Callable[[], float]" = time.perf_counter,
    ) -> None:
        self.round_index = round_index
        self.report = RoundFaultReport(round_index=round_index)
        self._replayed = replay is not None
        self.deadline = None if self._replayed else deadline
        self.quorum = None if self._replayed else quorum
        self._stream = stream
        self._observe = observe
        self._clock = clock
        self._started = clock()
        self._deadline_at: float | None = None
        self._expired = False
        self._results: "dict[int, ClientUpdate]" = {}
        self._outstanding: "list[TaskRow]" = []
        #: Rows cut while their tasks may still be running (deadline or
        #: quorum): the engine absorbs them — their late results must never
        #: reach aggregation, and their clients must re-sync before they
        #: next train.
        self.abandoned: "list[TaskRow]" = []
        #: The clients this round dispatches, in sampling order.
        self.dispatched: "list[Dispatch]" = []
        pairs = list(zip(participants, seeds))
        if replay is not None:
            self._triage_replay(pairs, replay, fault_plan)
        else:
            self._triage(pairs, fault_plan, preemptive, kills_workers)

    # -- membership triage ---------------------------------------------------

    def _triage_replay(
        self,
        pairs: "list[tuple[Client, int]]",
        replay: "tuple[Sequence[int], dict[int, str]]",
        fault_plan: "FaultPlan | None",
    ) -> None:
        # Membership faults (dropout, crash, deadline, quorum) are baked
        # into the recorded drop map; in particular the crash victim is not
        # re-picked, which would select a fresh one from the narrowed set.
        accepted_ids, recorded = replay
        self.report.dropped.update(recorded)
        accepted = set(accepted_ids)
        for position, (client, seed) in enumerate(pairs):
            if client.client_id not in accepted:
                continue
            fault = (
                fault_plan.fault_for(client.client_id, self.round_index)
                if fault_plan is not None
                else None
            )
            if fault is not None and fault.kind not in _UPDATE_FAULTS:
                fault = None
            if fault is not None and fault.kind in ("straggler", "hang"):
                self.report.straggler_seconds += fault.delay_seconds
            self.dispatched.append(Dispatch(position, client, seed, fault))

    def _triage(
        self,
        pairs: "list[tuple[Client, int]]",
        fault_plan: "FaultPlan | None",
        preemptive: bool,
        kills_workers: bool,
    ) -> None:
        actions = (
            fault_plan.actions_for_round(
                [client.client_id for client, _ in pairs],
                self.round_index,
                self.deadline,
            )
            if fault_plan is not None
            else RoundActions()
        )
        self.report.straggler_seconds = actions.straggler_seconds
        # Plan-skipped clients (dropouts, over-deadline stragglers) never
        # dispatch, exactly as an unreachable client would behave.
        self.report.dropped.update(actions.skipped)
        for position, (client, seed) in enumerate(pairs):
            if client.client_id in actions.skipped:
                continue
            fault = actions.injected.get(client.client_id)
            if fault is not None and fault.kind == "crash" and not kills_workers:
                # A dispatched victim dies on task receipt, after the
                # dispatch-time scratch sync; mirror that sync point so
                # dirty-tracking stays engine-invariant.
                client.scratch.collect_delta()
                self.report.dropped[client.client_id] = "crash"
                continue
            if (
                fault is not None
                and fault.kind == "hang"
                and not preemptive
                and self.deadline is not None
                and fault.delay_seconds >= self.deadline
            ):
                # Without preemption, approximate the wall-clock timeout
                # with the cooperative rule.
                self.report.dropped[client.client_id] = "deadline"
                continue
            self.dispatched.append(Dispatch(position, client, seed, fault))

    # -- task grouping -------------------------------------------------------

    def task_rows(
        self,
        home_of: "Callable[[int], Hashable] | None" = None,
        batched: bool = False,
        wire: "WireStats | None" = None,
    ) -> "list[TaskRow]":
        """Group the dispatched clients into task rows and make them the
        round's outstanding work.

        Under a ``batched`` compute backend, a home's fault-free clients
        share one row (trained as one fused stack); faulted clients always
        ride alone, so the per-task fault protocol stays unambiguous.
        Per-client numerics are bitwise independent of the grouping.

        Each client's scratch is synced here — any server-side edits since
        the last sync become its sync blob — so the upload delta carries
        only what the update itself writes, on every engine.  ``wire`` is
        the engine's byte counter; an in-process engine passes none, and
        nothing is encoded or charged.
        """
        rows: "list[TaskRow]" = []
        group_of: "dict[Hashable, TaskRow]" = {}
        for position, client, seed, fault in self.dispatched:
            delta = client.scratch.collect_delta()
            sync = encode_payload(delta) if delta and wire is not None else None
            home = home_of(client.client_id) if home_of is not None else None
            row = group_of.get(home) if batched and fault is None else None
            if row is None:
                row = TaskRow(home, [], [], [], [], fault)
                rows.append(row)
                if batched and fault is None:
                    group_of[home] = row
            row.positions.append(position)
            row.clients.append(client)
            row.seeds.append(seed)
            row.syncs.append(sync)
        if wire is not None:
            wire.task_bytes += sum(row.task_bytes(self.round_index) for row in rows)
        self._outstanding = list(rows)
        return rows

    # -- arrival bookkeeping -------------------------------------------------

    def start(self) -> None:
        """Start the deadline clock: the whole round is in flight, so from
        here collection is bounded no matter what the endpoints do."""
        if self.deadline is not None:
            self._deadline_at = self._clock() + self.deadline

    def remaining(self) -> float | None:
        """Seconds left before the deadline (``None`` = wait forever)."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())

    @property
    def outstanding(self) -> "list[TaskRow]":
        """Rows still awaited, in dispatch order."""
        return list(self._outstanding)

    @property
    def quorum_met(self) -> bool:
        return self.quorum is not None and len(self._results) >= self.quorum

    @property
    def closed(self) -> bool:
        """Whether to stop collecting: nothing outstanding, the deadline
        expired, or the quorum is met."""
        return self._expired or not self._outstanding or self.quorum_met

    def is_outstanding(self, row: TaskRow) -> bool:
        return row in self._outstanding

    def arrive(self, row: TaskRow) -> None:
        """``row``'s upload came in; accept or reject each of its clients
        next.  A row ingests whole, so a group crossing the quorum may
        overshoot it."""
        self._outstanding.remove(row)

    def accept(self, position: int, update: "ClientUpdate") -> None:
        """Keep ``update``; with a stream, fold it now and free its state —
        the server holds the accumulator, never the round's update set."""
        self._results[position] = update
        if self._stream is not None:
            self._stream.fold(update.state, float(update.num_samples), position)
            update.state = None

    def reject(self, client_id: int) -> None:
        """An arrived upload failed validation: its weights are corrupt."""
        self.report.dropped[client_id] = "corrupt"

    def drop(self, row: TaskRow, reason: str) -> None:
        """``row`` will never produce an upload (its worker crashed, its
        agent disconnected)."""
        self._outstanding.remove(row)
        for client in row.clients:
            self.report.dropped[client.client_id] = reason

    def expire(self) -> None:
        """The deadline passed: every outstanding row is abandoned."""
        self._expired = True
        self._abandon("deadline")

    def _abandon(self, reason: str) -> None:
        for row in self._outstanding:
            for client in row.clients:
                self.report.dropped[client.client_id] = reason
        self.abandoned.extend(self._outstanding)
        self._outstanding = []

    # -- round close ---------------------------------------------------------

    def close(self) -> "list[ClientUpdate]":
        """Close the round and return the survivors in sampling order —
        which keeps the aggregation's reduction order, and so the trace,
        engine-invariant.

        Rows still outstanding once the quorum is met are cut (``"quorum"``)
        and the round reports an early close, with its headroom against
        the deadline.  A round whose timed-out drops leave it with no
        update at all, or below its quorum, raises
        :class:`~repro.fl.faults.RoundTimeoutError` instead.
        """
        if self._outstanding:
            if not self.quorum_met:
                raise RuntimeError(
                    f"round {self.round_index} closed with rows outstanding"
                )
            self.report.early_closed = True
            remaining = self.remaining()
            if remaining is not None:
                self.report.early_close_seconds = remaining
            self._abandon("quorum")
        updates = [update for _, update in sorted(self._results.items())]
        timed_out = tuple(
            client_id
            for client_id, reason in self.report.dropped.items()
            if reason in _TIMED_OUT
        )
        below_quorum = self.quorum is not None and len(updates) < self.quorum
        if not self._replayed and timed_out and (not updates or below_quorum):
            # Nothing at all to aggregate, or fewer than the configured
            # floor: a failed round, not a gracefully partial one.
            raise RoundTimeoutError(
                self.round_index,
                timed_out,
                quorum=self.quorum,
                accepted=tuple(update.client_id for update in updates),
            )
        if self._observe is not None:
            self._observe(self._clock() - self._started)
        return updates
