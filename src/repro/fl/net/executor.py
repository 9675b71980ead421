"""Cross-machine execution: fan a round out to remote agent processes.

:class:`RemoteExecutor` is the server half of ``repro.fl.net`` — an
:class:`repro.fl.executor.Executor` whose training endpoints are
*other processes on other machines* (:mod:`repro.fl.net.agent`) reached
over length-prefixed TCP frames, instead of a local process pool.  It
speaks the wire protocol of :mod:`repro.fl.net.protocol`, but the blobs
inside every message are exactly the bytes the in-host engines put on
their pipes: ``encode_payload`` registration blobs, codec-encoded
broadcast states, pickled task tuples, ``encode_payload`` upload lists.
Both endpoints run :class:`repro.fl.executor.WorkerRuntime` /
:func:`repro.fl.executor._ingest_group_upload` — the same code the pool
runs — so traces are engine-invariant by construction, not by parallel
maintenance of two protocols.

Pipelined rounds
----------------
By default (``pipelined=True``) a round's registration, broadcast, and
task frames are written to **all** agents back-to-back before any upload
is awaited, and uploads are ingested in arrival order (a ``selectors``
loop).  Each agent therefore trains concurrently with the other agents'
transfers and training — the cross-host overlap the paper's scalability
axis is about.  The overlap actually achieved is measured per round
(endpoint busy-time minus the remote phase's wall clock, floored at
zero) and published as :attr:`last_overlap_seconds` /
:attr:`pipeline_overlap_rounds`; the server folds it into
``TimingReport.pipeline_overlap_seconds``.  ``pipelined=False`` degrades
to strict agent-at-a-time dispatch+collect — same trace, no overlap —
which is what the scaling bench compares against.

Fault semantics
---------------
Update-level faults (stragglers, hangs, corrupt and byzantine uploads)
ride inside task tuples exactly as on the pool.  A plan's *crash* victim
is never dispatched at all — a remote agent is not the server's process
to kill — and is dropped server-side (reason ``"crash"``, same trace as
every other engine).  Membership, deadlines and quorum early-close are
decided by the same :class:`repro.fl.rounds.RoundController` every
engine runs, residency and codec chains by the pool's
:class:`repro.fl.residency.EndpointLedger`; this module only moves frames.
A dropped task's eventual upload is discarded by task id (zombie
absorption), and the dropped client re-registers before its next
participation.  The one remote-only failure mode is a vanished agent:
socket EOF or a write error marks the agent dead, its outstanding
clients are dropped with reason ``"disconnect"``
(:data:`repro.fl.faults.DROP_REASONS`), the round closes gracefully over
the survivors, and every client re-registers under the new layout on
the next round.  Upload references survive the loss: the survivors'
in-flight uploads are deltas against them.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.fl.executor import (
    ClientUpdate,
    Executor,
    ParallelExecutor,
    WireStats,
    _ingest_group_upload,
)
from repro.fl.residency import EndpointLedger
from repro.fl.rounds import RoundController, TaskRow
from repro.fl.net.frames import FrameError, FrameStream
from repro.fl.net.protocol import (
    BROADCAST,
    BYE,
    HELLO,
    REGISTER,
    REJECT,
    TASK,
    UPLOAD,
    WELCOME,
    decode_message,
    encode_message,
    evaluate_hello,
    PROTOCOL_VERSION,
)
from repro.fl.net.transport import parse_endpoint
from repro.fl.compute import make_compute, resolve_compute
from repro.nn.serialize import StateDict, encode_payload
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.aggregate import AggregationStream
    from repro.fl.client import Client
    from repro.fl.strategy import Strategy
    from repro.nn.models import FeatureClassifierModel

__all__ = ["RemoteExecutor"]

_log = get_logger("fl.net.executor")

#: Seconds the server waits for each expected agent to connect and
#: complete its handshake before declaring the federation unformable.
_ACCEPT_TIMEOUT = 60.0


class _Agent:
    """One connected remote endpoint, as the server sees it."""

    __slots__ = ("sock", "stream", "name", "alive")

    def __init__(self, sock: socket.socket, stream: FrameStream, name: str) -> None:
        self.sock = sock
        self.stream = stream
        self.name = name
        self.alive = True


class RemoteExecutor(Executor):
    """Run rounds across ``num_agents`` remote agent processes.

    Parameters
    ----------
    listen:
        Bind endpoint for the agent listener — ``"host:port"``, a bare
        port, or ``None``/empty for loopback on an ephemeral port.  The
        socket binds immediately, so :attr:`address` is valid before any
        agent exists (tests and the daemon read it to point agents at).
    num_agents:
        How many agents must connect (and pass the handshake) before the
        first round runs.  Clients are homed ``live_agents[cid % n]``;
        when an agent dies the survivors re-home everything.
    pipelined:
        ``True`` (default) overlaps broadcast/train/upload across agents;
        ``False`` serializes agent-at-a-time (same trace, no overlap).
    codec, faults, deadline, compute, quorum:
        As on every engine (:class:`repro.fl.executor.Executor`).

    The listener accepts agents lazily at the first round — the
    handshake's welcome needs the model template, which only exists once
    a run starts (mirrors lazy pool build).  One executor serves
    consecutive runs over the same agents as long as the model
    architecture is unchanged.
    """

    def __init__(
        self,
        listen: "str | None" = None,
        num_agents: int = 1,
        pipelined: bool = True,
        codec: str = "identity",
        faults: "str | None" = None,
        deadline: "float | str | None" = None,
        compute: str = "auto",
        quorum: "int | None" = None,
    ) -> None:
        super().__init__(
            codec=codec, faults=faults, deadline=deadline, compute=compute,
            quorum=quorum,
        )
        if num_agents < 1:
            raise ValueError(f"num_agents must be >= 1, got {num_agents}")
        self.num_agents = num_agents
        self.pipelined = pipelined
        self.wire = WireStats()
        #: Which clients are resident on which agent, and the server halves
        #: of the stateful-codec reference chains.
        self.ledger = EndpointLedger(self.codec, self.wire)
        #: Per-completed-round cross-host overlap seconds (see the module
        #: docstring); the scaling bench reads this next to wall clock.
        self.pipeline_overlap_rounds: "list[float]" = []
        self.broadcast_encode_rounds: "list[float]" = []
        self._listen_sock = socket.create_server(
            parse_endpoint(listen), reuse_port=False
        )
        self._listen_sock.settimeout(_ACCEPT_TIMEOUT)
        self._agents: "list[_Agent] | None" = None
        self._architecture: "tuple | None" = None
        self._compute_batched = False
        self._next_task_id = 0

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` agents should connect to."""
        return self._listen_sock.getsockname()[:2]

    def wire_stats(self) -> WireStats:
        return replace(self.wire)

    # -- federation membership -----------------------------------------------

    def _ensure_agents(self, model: "FeatureClassifierModel") -> "list[_Agent]":
        architecture = ParallelExecutor._architecture_of(model)
        if self._agents is not None:
            if architecture != self._architecture:
                raise RuntimeError(
                    "model architecture changed mid-federation; remote agents "
                    "hold the old template — build a fresh RemoteExecutor"
                )
            live = [agent for agent in self._agents if agent.alive]
            if not live:
                raise RuntimeError("every remote agent has disconnected")
            return live
        model_blob = encode_payload(model)
        compute_spec = resolve_compute(self.compute, model)
        self._compute_batched = make_compute(compute_spec).batched
        welcome_meta = {
            "version": PROTOCOL_VERSION,
            "codec": self.codec.spec,
            "compute": compute_spec,
            # Agents fetch broadcasts from their own connection, so their
            # runtime's transport is the blob-is-the-handle pipe.
            "transport": "pipe",
        }
        agents: "list[_Agent]" = []
        while len(agents) < self.num_agents:
            try:
                sock, peer = self._listen_sock.accept()
            except socket.timeout:
                raise RuntimeError(
                    f"only {len(agents)}/{self.num_agents} agents connected "
                    f"within {_ACCEPT_TIMEOUT:.0f}s"
                ) from None
            stream = FrameStream(sock)
            try:
                frame = stream.next_frame()
                message = decode_message(frame) if frame is not None else None
            except (FrameError, ConnectionError, OSError):
                sock.close()
                continue
            if message is None or message.kind != HELLO:
                sock.close()
                continue
            reason = evaluate_hello(
                message.meta, codec_spec=self.codec.spec,
                compute_spec=compute_spec,
            )
            if reason is not None:
                _log.warning(
                    "rejecting agent %s:%d: %s", peer[0], peer[1], reason
                )
                try:
                    stream.send(encode_message(REJECT, {"reason": reason}))
                finally:
                    sock.close()
                continue
            stream.send(encode_message(WELCOME, welcome_meta, model_blob))
            self.wire.registration_bytes += len(model_blob)
            name = message.meta.get("name") or f"{peer[0]}:{peer[1]}"
            agents.append(_Agent(sock, stream, name))
            _log.info("agent %r joined (%d/%d)", name, len(agents), self.num_agents)
        self.wire.unique_registration_bytes += len(model_blob)
        self._agents = agents
        self._architecture = architecture
        return agents

    def _mark_dead(self, agent: _Agent) -> None:
        """An agent vanished: close its socket and re-home every client
        under the new ``cid % len(live)`` layout
        (:meth:`repro.fl.residency.EndpointLedger.membership_changed`)."""
        if not agent.alive:
            return
        agent.alive = False
        try:
            agent.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        _log.warning("agent %r disconnected", agent.name)
        self.ledger.membership_changed(agent)

    def _send(self, agent: _Agent, payload: bytes) -> bool:
        """Write one frame to an agent; a write failure is a disconnect."""
        try:
            agent.stream.send(payload)
            return True
        except OSError:
            self._mark_dead(agent)
            return False

    # -- the round ------------------------------------------------------------

    def run_round(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        global_state: StateDict,
        participants: "Sequence[Client]",
        round_index: int,
        seeds: "Sequence[int]",
        stream: "AggregationStream | None" = None,
    ) -> "list[ClientUpdate]":
        live = self._ensure_agents(model)
        # A crash victim is dropped at dispatch: a remote agent is not the
        # server's process to kill.
        round_ = self._round_controller(participants, seeds, round_index, stream)
        dispatched = [slot.client for slot in round_.dispatched]

        def home(client_id: int) -> _Agent:
            return live[client_id % len(live)]

        # Per-agent dispatch bundles: registration blob + broadcast frame +
        # task frames, built up front so the pipelined path can fire them
        # all back-to-back and the unpipelined path one agent at a time.
        encode_start = time.perf_counter()
        strategy_blob = encode_payload(strategy)
        self.wire.unique_broadcast_bytes += len(strategy_blob)
        homes = {home(client.client_id) for client in dispatched}
        agents_in_round = [agent for agent in live if agent in homes]
        bundles: "dict[_Agent, list[bytes]]" = {a: [] for a in agents_in_round}
        for agent, blob in self.ledger.registrations(
            agents_in_round, dispatched, home
        ):
            bundles[agent].append(encode_message(REGISTER, blob=blob))
        for state_blob, group in self.ledger.broadcast(
            agents_in_round, global_state
        ):
            message = encode_message(
                BROADCAST,
                {"round": round_index, "strategy_bytes": len(strategy_blob)},
                strategy_blob + state_blob,
            )
            for agent in group:
                # Every agent pulls its own full copy over its own socket —
                # honest per-endpoint cost, same shape as pipe.
                self.wire.broadcast_bytes += len(strategy_blob) + len(state_blob)
                bundles[agent].append(message)
        # task_id -> row; an upload whose row is no longer outstanding (a
        # previous round's zombie, or a task dropped at the deadline that
        # finished late) is discarded.
        by_task: "dict[int, TaskRow]" = {}
        for row in round_.task_rows(home, self._compute_batched, self.wire):
            task_id = self._next_task_id
            self._next_task_id += 1
            bundles[row.home].append(
                encode_message(
                    TASK,
                    {"task": task_id, "round": round_index},
                    pickle.dumps(
                        row.task(round_index), protocol=pickle.HIGHEST_PROTOCOL
                    ),
                )
            )
            by_task[task_id] = row
        encode_seconds = time.perf_counter() - encode_start

        remote_start = time.perf_counter()
        try:
            if self.pipelined:
                for agent in agents_in_round:
                    if not all(self._send(agent, f) for f in bundles[agent]):
                        self._drop_agent_rows(agent, round_)
                round_.start()
                self._collect(agents_in_round, round_, by_task, global_state)
            else:
                # Unpipelined reference mode: one agent's whole round trip
                # completes before the next agent receives a byte.  The
                # trace is identical (results key on dispatch position);
                # only the overlap differs.
                round_.start()
                for agent in agents_in_round:
                    if round_.closed:
                        self.ledger.unsent(agent)
                        continue
                    if not all(self._send(agent, f) for f in bundles[agent]):
                        self._drop_agent_rows(agent, round_)
                        continue
                    self._collect([agent], round_, by_task, global_state)
            updates = round_.close()
        finally:
            # The agent-side copy of an abandoned client diverges if its
            # task later completes as a zombie: force re-registration.
            self.ledger.abandon(round_.abandoned)
            self.last_fault_report = round_.report
        busy = sum(
            update.train_seconds + update.decode_seconds + update.straggler_seconds
            for update in updates
        )
        remote_wall = time.perf_counter() - remote_start
        overlap = max(0.0, busy - remote_wall) if self.pipelined else 0.0
        self.last_overlap_seconds = overlap
        self.pipeline_overlap_rounds.append(overlap)
        self.broadcast_encode_rounds.append(encode_seconds)
        return updates

    # -- collection -----------------------------------------------------------

    def _drop_agent_rows(self, agent: _Agent, round_: RoundController) -> None:
        for row in round_.outstanding:
            if row.home is agent:
                round_.drop(row, "disconnect")

    def _collect(
        self,
        agents: "list[_Agent]",
        round_: RoundController,
        by_task: "dict[int, TaskRow]",
        global_state: StateDict,
    ) -> None:
        """Feed ``agents``' uploads to ``round_`` in arrival order until
        their rows drain or the round closes (quorum met, deadline
        expired)."""

        def waiting() -> bool:
            return not round_.closed and any(
                row.home in agents for row in round_.outstanding
            )

        selector = selectors.DefaultSelector()
        watched = [agent for agent in agents if agent.alive]
        for agent in watched:
            selector.register(agent.sock, selectors.EVENT_READ, agent)
        try:
            while waiting():
                # Frames already decoded off the socket never re-trigger
                # the selector: drain them first.
                progressed = False
                for agent in watched:
                    while agent.alive and agent.stream.buffered and waiting():
                        self._pump(agent, round_, by_task, global_state, selector)
                        progressed = True
                if progressed:
                    continue
                events = selector.select(round_.remaining())
                if not events:
                    # Deadline expired: close over whatever arrived.  The
                    # still-running tasks finish as zombies.
                    round_.expire()
                    break
                for key, _ in events:
                    if waiting():
                        self._pump(key.data, round_, by_task, global_state, selector)
        finally:
            selector.close()

    def _pump(
        self,
        agent: _Agent,
        round_: RoundController,
        by_task: "dict[int, TaskRow]",
        global_state: StateDict,
        selector: selectors.DefaultSelector,
    ) -> None:
        """Process one frame from ``agent``.  EOF and read errors are a
        disconnect: the agent's outstanding rows drop with the typed reason
        and the round moves on — a mid-upload disconnect can never wedge
        round close."""
        try:
            frame = agent.stream.next_frame()
        except (FrameError, ConnectionError, OSError):
            frame = None
        if frame is None:
            try:
                selector.unregister(agent.sock)
            except (KeyError, ValueError):  # pragma: no cover - already gone
                pass
            self._mark_dead(agent)
            self._drop_agent_rows(agent, round_)
            return
        message = decode_message(frame)
        if message.kind != UPLOAD:  # pragma: no cover - protocol violation
            _log.warning("unexpected %r frame from agent %r", message.kind, agent.name)
            return
        row = by_task.pop(message.meta.get("task"), None)
        if row is None or not round_.is_outstanding(row):
            return  # zombie: its clients were already dropped
        _ingest_group_upload(self, row, message.blob, global_state, round_)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Send every live agent a clean shutdown and tear the sockets
        down.  Idempotent; the listener closes too, so a closed executor
        cannot be reused (build a fresh one — agents reconnect)."""
        for agent in self._agents or []:
            if agent.alive:
                try:
                    agent.stream.send(encode_message(BYE))
                except OSError:
                    pass
                agent.alive = False
                try:
                    agent.sock.close()
                except OSError:  # pragma: no cover
                    pass
        self._agents = None
        try:
            self._listen_sock.close()
        except OSError:  # pragma: no cover
            pass
        self.ledger.clear()
