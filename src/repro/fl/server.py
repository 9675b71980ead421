"""The federated simulation loop.

:class:`FederatedServer` wires together a strategy, a client population, a
sampler, an execution engine, and evaluation sets, and runs the round loop
the paper describes: sample k of N clients, broadcast the global weights,
run the strategy's local update on each participant (serially or fanned out
to worker processes — see :mod:`repro.fl.executor`), aggregate in
deterministic client order, and periodically evaluate on the held-out
(unseen-domain) sets.  All timing flows through
:class:`repro.fl.timing.PhaseTimer` so Fig. 4 can compare methods fairly
regardless of the engine.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import LabeledDataset
from repro.fl.aggregate import make_aggregator
from repro.fl.evaluation import evaluate_accuracy
from repro.fl.client import Client
from repro.fl.codec import make_codec
from repro.fl.compute import resolve_compute
from repro.fl.executor import Executor, SerialExecutor
from repro.fl.faults import make_deadline_policy, make_fault_plan
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.population import ClientPopulation, ListPopulation, as_population
from repro.fl.sampling import UniformClientSampler
from repro.fl.strategy import Strategy
from repro.fl.timing import PhaseTimer, TimingReport
from repro.fl.transport import resolve_transport
from repro.nn.models import FeatureClassifierModel
from repro.utils.logging import get_logger, kv
from repro.utils.rng import SeedTree

__all__ = [
    "FederatedConfig",
    "FederatedServer",
    "FederatedResult",
]

_LOG = get_logger("fl.server")


@dataclass(frozen=True)
class FederatedConfig:
    """Round-loop parameters (paper §IV-A defaults, scaled by the benches).

    ``clients_per_round`` follows the sampler's convention: an ``int`` is an
    absolute participant count (>= 1), a ``float`` is the participation
    fraction in (0, 1].

    ``codec`` names the wire codec for weight payloads (see
    :mod:`repro.fl.codec`): it configures the server-owned default engine,
    and a caller-supplied engine must already carry the same codec — the
    codec changes what clients train from (for lossy specs) and so belongs
    to the experiment definition, not just the transport.

    ``transport`` names the wire transport for broadcast blobs (see
    :mod:`repro.fl.transport`); engines built from this config (the
    protocol runners thread it into :func:`repro.fl.executor.make_executor`)
    carry it.  Unlike the codec it is *not* cross-checked against a
    caller-supplied engine: the transport moves byte-identical blobs and
    cannot change what clients train from, so mixing (say) a pipe-transport
    pool into an ``"auto"`` config is mechanically harmless.

    ``faults`` names a deterministic fault-injection plan
    (:mod:`repro.fl.faults` spec string, e.g.
    ``"dropout=0.1,straggler=0.25:0.05,crash=2,seed=7"``) and ``deadline``
    a per-round wall-clock budget — seconds, or an adaptive spec such as
    ``"percentile:p95"`` (see :func:`repro.fl.faults.make_deadline_policy`);
    both change *who survives a round* and therefore belong to the
    experiment definition, so — like the codec — a caller-supplied engine
    must agree with them (checked at server construction).  ``quorum``
    closes a round early once that many uploads arrived (remaining
    participants are dropped as ``"quorum"``); like the deadline it is
    cross-checked against a caller-supplied engine.

    ``aggregator`` names the server-side aggregation rule
    (:mod:`repro.fl.aggregate` spec string, e.g. ``"median"``,
    ``"clip(5)+krum"``).  The default ``"mean"`` is the historical
    weighted FedAvg reduction, bit for bit.  A non-default spec is
    installed onto the strategy at server construction; a strategy that
    already carries its own non-mean rule must agree with the config.

    ``compute`` names the compute backend (:mod:`repro.fl.compute`) that
    trains each co-resident client group: ``"auto"`` (default) resolves to
    the batched ``ensemble`` backend when the model supports it, and
    ``"loop"``/``"ensemble"``/``"strict"`` force one.  Per-client numerics
    are bitwise backend-invariant, so this is a throughput knob — but a
    pinned spec on the config must match a caller-supplied engine, like
    the codec, so experiment records say what actually ran.
    """

    num_rounds: int = 10
    clients_per_round: int | float = 0.2
    eval_every: int = 1
    seed: int = 0
    codec: str = "identity"
    transport: str = "auto"
    faults: str | None = None
    deadline: float | str | None = None
    compute: str = "auto"
    aggregator: str = "mean"
    quorum: int | None = None

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        # Deadline validation (seconds > 0, or a known adaptive spec) lives
        # with the policy maker.
        make_deadline_policy(self.deadline)
        if self.quorum is not None and self.quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {self.quorum}")
        # Aggregation-rule spec: fail at config time, not mid-run (an
        # ``edge(G)+`` prefix also checks here that its rule streams).
        make_aggregator(self.aggregator)
        # Participation validation lives with the sampler (the single source
        # of truth for the count-vs-fraction convention); constructing one
        # surfaces bad values at config time with the sampler's own errors.
        # An integer ``clients_per_round`` is an absolute participant count
        # however large the population is (it never re-enters the
        # float-fraction path), so a quorum above it can *never* be met —
        # reject it here, not mid-round.
        UniformClientSampler(self.clients_per_round)
        if (
            self.quorum is not None
            and not isinstance(self.clients_per_round, (float, np.floating))
            and self.quorum > int(self.clients_per_round)
        ):
            raise ValueError(
                f"quorum {self.quorum} exceeds clients_per_round "
                f"{int(self.clients_per_round)}; no round could ever close"
            )
        # Same pattern for the codec spec: fail at config time, not mid-run.
        make_codec(self.codec)
        # ...and the transport spec ("auto" resolves per platform)...
        resolve_transport(self.transport)
        # ...and the fault-plan spec...
        make_fault_plan(self.faults)
        # ...and the compute-backend spec ("auto" resolves per model).
        resolve_compute(self.compute)


@dataclass
class FederatedResult:
    """Everything a benchmark needs from one run."""

    history: RunHistory
    final_state: dict
    timing: TimingReport
    final_accuracy: dict[str, float] = field(default_factory=dict)


class FederatedServer:
    """Run one federated experiment for one strategy.

    Parameters
    ----------
    strategy:
        The FedDG method under test.
    clients:
        The full client population (the sampler draws from it each round).
    model:
        The global model instance.  The serial engine reuses it as the
        local-training workspace (weights are loaded per participant, so
        state never leaks between clients through the model object); the
        parallel engine treats it as the architecture template for the
        per-worker clones.
    eval_sets:
        Named held-out datasets (e.g. ``{"val": ..., "test": ...}``) that the
        server evaluates the *global* model on — unseen domains in the
        paper's protocols.
    config:
        Round-loop parameters.
    executor:
        Client-execution engine; defaults to a fresh
        :class:`repro.fl.executor.SerialExecutor` carrying
        ``config.codec``.  Engines created by the caller are left open
        after :meth:`run` (so one pool can serve many runs) but must agree
        with ``config.codec`` — a mismatch would silently change what
        clients train from, so it is rejected at construction.
    """

    def __init__(
        self,
        strategy: Strategy,
        clients: "list[Client] | ClientPopulation",
        model: FeatureClassifierModel,
        eval_sets: dict[str, LabeledDataset],
        config: FederatedConfig,
        executor: Executor | None = None,
    ) -> None:
        # ``clients`` may be the historical explicit list or any
        # ClientPopulation — a LazyPopulation keeps the server's footprint
        # at O(participants) however large the simulated population is.
        self.population = as_population(clients)
        if len(self.population) == 0:
            raise ValueError("need at least one client")
        self.strategy = strategy
        #: Materialized client list for strategy.prepare and legacy
        #: callers; empty for lazy populations (whose whole point is never
        #: materializing — strategies with a population-wide prepare step
        #: need a ListPopulation).
        self.clients = (
            self.population.clients
            if isinstance(self.population, ListPopulation)
            else []
        )
        self.model = model
        self.eval_sets = eval_sets
        self.config = config
        self._owns_executor = executor is None
        self.executor = executor or SerialExecutor(
            codec=config.codec, faults=config.faults,
            deadline=config.deadline, compute=config.compute,
            quorum=config.quorum,
        )
        # Each axis the config pins belongs to the experiment definition:
        # the engine must carry the same canonical value, or "what ran"
        # would silently diverge from what the config claims.  ``None``
        # (and ``auto`` compute) pins nothing — engine-level chaos under a
        # plain config is a deliberate testing pattern, and ``auto``
        # resolves at pool build.
        engine = self.executor
        pinned = (
            ("codec", "codec", make_codec(config.codec).spec, engine.codec.spec),
            ("fault plan", "faults", make_fault_plan(config.faults),
             engine.fault_plan),
            ("deadline", "deadline", make_deadline_policy(config.deadline),
             engine.deadline_policy),
            ("quorum", "quorum", config.quorum, engine.quorum),
            ("compute backend", "compute",
             None if config.compute == "auto" else config.compute,
             engine.compute),
        )
        for axis, kwarg, wanted, carried in pinned:
            if wanted is not None and wanted != carried:
                raise ValueError(
                    f"executor carries {axis} {carried!r} but the config "
                    f"asks for {wanted!r}; build the engine with the "
                    f"config's {axis} (make_executor(..., {kwarg}=...))"
                )
        # The aggregation rule belongs to the experiment definition; a
        # non-default config spec is installed onto a default-``mean``
        # strategy so CLI/protocol paths need no constructor plumbing, but
        # a strategy already carrying a different non-mean rule is a
        # conflict, not something to silently overwrite.
        if config.aggregator != "mean":
            wanted = make_aggregator(config.aggregator)
            if self.strategy.aggregator.spec == "mean":
                self.strategy.aggregator = wanted
            elif self.strategy.aggregator.spec != wanted.spec:
                raise ValueError(
                    f"strategy carries aggregator "
                    f"{self.strategy.aggregator.spec!r} but the config asks "
                    f"for {config.aggregator!r}; drop one of the two"
                )
        self.sampler = UniformClientSampler(config.clients_per_round)
        # With the population known, the per-round participant count is
        # resolved — an unreachable quorum (fractional participation, tiny
        # population) fails here instead of timing out mid-round.
        participants_per_round = self.sampler.round_size(len(self.population))
        if config.quorum is not None and config.quorum > participants_per_round:
            raise ValueError(
                f"quorum {config.quorum} exceeds the resolved per-round "
                f"participant count {participants_per_round} (population "
                f"{len(self.population)}); no round could ever close"
            )
        self._seed_tree = SeedTree(config.seed).child("server", strategy.name)

    def run(self, verbose: bool = False) -> FederatedResult:
        """Execute the configured number of rounds; return the full trace."""
        try:
            return self._run(verbose)
        finally:
            if self._owns_executor:
                self.executor.close()

    def _run(self, verbose: bool) -> FederatedResult:
        timer = PhaseTimer()
        history = RunHistory(strategy_name=self.strategy.name)
        global_state = self.model.state_dict()

        with timer.one_time():
            self.strategy.prepare(
                self.clients, self.model, self._seed_tree.generator("prepare")
            )
            # prepare() may have touched the workspace model; restore.
            self.model.load_state_dict(global_state)

        # Engine wire counters are cumulative across runs (a warm pool may
        # serve many); diff them per round so the report covers this run.
        wire_before = self.executor.wire_stats()

        for round_index in range(self.config.num_rounds):
            round_rng = self._seed_tree.generator("sample", round_index)
            participants = self.population.sample(self.sampler, round_rng)
            seeds = [
                self._seed_tree.seed(
                    "client", client.client_id, "round", round_index
                )
                for client in participants
            ]

            # Streaming aggregation (mean and its clip/edge compositions):
            # the engine folds each accepted upload into the stream as it
            # arrives and frees it, so aggregation overlaps collection and
            # the server never materializes the survivor list.  ``None``
            # (order statistics, strategies with their own aggregate)
            # keeps the batch path.
            stream = self.strategy.begin_stream(global_state)

            wall_start = time.perf_counter()
            updates = self.executor.run_round(
                self.strategy,
                self.model,
                global_state,
                participants,
                round_index,
                seeds,
                stream=stream,
            )
            timer.record_local_wall(time.perf_counter() - wall_start)
            for update in updates:
                timer.record_local_train(update.train_seconds)
                timer.record_broadcast_decode(update.decode_seconds)
            # Cross-host pipelining win (nonzero only for the remote
            # engine's pipelined rounds): remote busy time that overlapped
            # other hosts' broadcast/train/upload.
            timer.record_pipeline_overlap(self.executor.last_overlap_seconds)
            # What the fault layer did to the round: recorded on the round
            # history (who dropped, and why) and folded into the timing
            # report's robustness counters.  Aggregation below reweights
            # over the survivors automatically — ``updates`` only ever
            # holds the clients that responded in time with sane weights.
            fault_report = self.executor.last_fault_report
            dropped = dict(fault_report.dropped) if fault_report else {}
            if fault_report is not None:
                timer.record_faults(
                    dropped_clients=len(fault_report.dropped),
                    straggler_seconds=fault_report.straggler_seconds,
                    rebuilt_workers=fault_report.rebuilt_workers,
                )
                timer.record_robustness(
                    early_closed_rounds=1 if fault_report.early_closed else 0,
                    early_close_seconds=fault_report.early_close_seconds,
                )
            wire_now = self.executor.wire_stats()
            timer.record_bytes(
                wire_now.bytes_up - wire_before.bytes_up,
                wire_now.bytes_down - wire_before.bytes_down,
                wire_now.unique_bytes_down - wire_before.unique_bytes_down,
            )
            wire_before = wire_now

            with timer.aggregation():
                # The kwarg only exists on the base ``aggregate`` — and a
                # stream only exists when that base is what runs
                # (supports_streaming), so overriding strategies never see
                # it.
                if stream is not None:
                    global_state = self.strategy.aggregate(
                        global_state, updates, round_index, stream=stream
                    )
                else:
                    global_state = self.strategy.aggregate(
                        global_state, updates, round_index
                    )
            timer.record_robustness(
                rejected_uploads=len(self.strategy.aggregator.last_rejected)
            )
            if tracemalloc.is_tracing():
                # One peak sample per round (the CLI's --timing starts
                # tracing); the report keeps the maximum across rounds.
                timer.record_peak_memory(tracemalloc.get_traced_memory()[1])

            losses = [update.loss for update in updates]
            record = RoundRecord(
                round_index=round_index,
                mean_local_loss=float(np.mean(losses)) if losses else 0.0,
                participants=[c.client_id for c in participants],
                dropped=dropped,
                accepted=(
                    [update.client_id for update in updates]
                    if self.executor.records_accepted
                    else None
                ),
            )
            is_last = round_index == self.config.num_rounds - 1
            if is_last or (round_index + 1) % self.config.eval_every == 0:
                self.model.load_state_dict(global_state)
                for name, dataset in self.eval_sets.items():
                    record.eval_accuracy[name] = evaluate_accuracy(
                        self.model, dataset
                    )
            history.add(record)
            self.population.release(participants)
            if verbose:
                _LOG.info(
                    kv(
                        {
                            "strategy": self.strategy.name,
                            "round": round_index,
                            "loss": record.mean_local_loss,
                            **(
                                {"dropped": len(record.dropped)}
                                if record.dropped
                                else {}
                            ),
                            **record.eval_accuracy,
                        }
                    )
                )

        self.model.load_state_dict(global_state)
        # The last round always evaluates every eval set (is_last above), so
        # its record *is* the final accuracy — don't pay for the same forward
        # passes twice.
        last_record = history.records[-1]
        if set(last_record.eval_accuracy) == set(self.eval_sets):
            final_accuracy = dict(last_record.eval_accuracy)
        else:  # pragma: no cover - defensive, e.g. future cadence changes
            final_accuracy = {
                name: evaluate_accuracy(self.model, dataset)
                for name, dataset in self.eval_sets.items()
            }
        return FederatedResult(
            history=history,
            final_state=global_state,
            timing=timer.report(),
            final_accuracy=final_accuracy,
        )
