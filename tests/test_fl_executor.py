"""Tests for the client-execution engines (`repro.fl.executor`).

The acceptance bar: `SerialExecutor` and a >= 2-worker `ParallelExecutor`
must produce *identical* `RunHistory` traces and final accuracies — the
round loop's semantics may not depend on how the fan-out executes.
"""

import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy, FedDGGAStrategy, FPLStrategy
from repro.core import PardonStrategy
from repro.data import synthetic_pacs, partition_clients
from repro.fl import (
    Client,
    ClientUpdate,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_executor,
)
from repro.fl.executor import AUTO_CROSSOVER_TASKS
from repro.fl.timing import PhaseTimer
from repro.nn import build_mlp_model
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)


def make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def run_once(strategy, executor, rounds=3, clients_per_round=4):
    server = FederatedServer(
        strategy=strategy,
        clients=make_clients(),
        model=build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        ),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=clients_per_round, seed=0
        ),
        executor=executor,
    )
    return server.run()


def assert_identical_runs(serial, parallel):
    assert len(serial.history.records) == len(parallel.history.records)
    for a, b in zip(serial.history.records, parallel.history.records):
        assert a.round_index == b.round_index
        assert a.participants == b.participants
        assert a.mean_local_loss == b.mean_local_loss
        assert a.eval_accuracy == b.eval_accuracy
    assert serial.final_accuracy == parallel.final_accuracy
    for key in serial.final_state:
        np.testing.assert_array_equal(
            serial.final_state[key], parallel.final_state[key]
        )


class TestClientUpdate:
    def test_from_client_captures_identity(self):
        client = make_clients()[0]
        update = ClientUpdate.from_client(client, {"w": np.ones(2)}, 0.5)
        assert update.client_id == client.client_id
        assert update.num_samples == client.num_samples
        assert update.loss == 0.5
        assert update.payload == {}

    def test_is_picklable_with_payload(self):
        client = make_clients()[0]
        update = ClientUpdate.from_client(
            client, {"w": np.ones(2)}, 0.5, payload={"prototypes": {0: np.zeros(3)}}
        )
        clone = pickle.loads(pickle.dumps(update))
        assert clone.client_id == update.client_id
        np.testing.assert_array_equal(
            clone.payload["prototypes"][0], np.zeros(3)
        )


class TestMakeExecutor:
    def test_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        parallel = make_executor("parallel", workers=2)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.num_workers == 2
        parallel.close()

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_executor("quantum")

    def test_serial_with_workers_raises(self):
        """A worker count with the serial engine is a forgotten 'parallel'."""
        with pytest.raises(ValueError):
            make_executor("serial", workers=8)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(num_workers=0)


class TestAutoExecutor:
    """The executor="auto" crossover heuristic (ROADMAP open item): pick
    parallel only when the per-round fan-out amortizes the pool overhead."""

    def test_concrete_kinds_pass_through(self):
        assert resolve_executor("serial") == "serial"
        assert resolve_executor("parallel") == "parallel"

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            resolve_executor("quantum")

    def test_small_fan_out_resolves_serial(self):
        """Bench scale — few participants, one tiny local epoch — is where
        the profile showed pool overhead eating the speedup."""
        assert (
            resolve_executor("auto", participants=4, local_epochs=1, cpu_count=8)
            == "serial"
        )

    def test_large_fan_out_resolves_parallel(self):
        assert (
            resolve_executor(
                "auto", participants=AUTO_CROSSOVER_TASKS, cpu_count=8
            )
            == "parallel"
        )

    def test_local_epochs_multiply_the_workload(self):
        """Population size x local-epoch cost: 4 participants are below the
        crossover alone, but not when each trains 8 epochs."""
        assert (
            resolve_executor("auto", participants=4, local_epochs=8, cpu_count=8)
            == "parallel"
        )

    def test_single_core_always_serial(self):
        assert (
            resolve_executor("auto", participants=1000, cpu_count=1) == "serial"
        )

    def test_no_information_defaults_to_serial(self):
        assert resolve_executor("auto", cpu_count=8) == "serial"

    def test_make_executor_auto_without_hints_is_serial(self):
        assert isinstance(make_executor("auto"), SerialExecutor)

    def test_make_executor_auto_with_workers_forces_parallel(self):
        executor = make_executor("auto", workers=2)
        assert isinstance(executor, ParallelExecutor)
        assert executor.num_workers == 2
        executor.close()

    def test_setting_resolves_auto_from_its_own_fan_out(self):
        from repro.eval import ExperimentSetting

        small = ExperimentSetting(
            num_clients=20, clients_per_round=0.25, executor="auto"
        )
        assert small.round_participants() == 5
        assert isinstance(small.make_executor(), SerialExecutor)


class TestDeterminism:
    """Serial and parallel execution must be indistinguishable in the trace."""

    def test_fedavg_serial_equals_parallel(self):
        serial = run_once(FedAvgStrategy(FAST), SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_once(FedAvgStrategy(FAST), executor)
        assert_identical_runs(serial, parallel)

    def test_pardon_serial_equals_parallel(self):
        serial = run_once(PardonStrategy(local_config=FAST), SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_once(PardonStrategy(local_config=FAST), executor)
        assert_identical_runs(serial, parallel)

    def test_fpl_payload_survives_process_hop(self):
        """FPL's prototypes travel via ClientUpdate.payload, so the global
        prototypes must come out identical either way."""
        serial_strategy = FPLStrategy(local_config=FAST)
        serial = run_once(serial_strategy, SerialExecutor())
        parallel_strategy = FPLStrategy(local_config=FAST)
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_once(parallel_strategy, executor)
        assert_identical_runs(serial, parallel)
        assert set(serial_strategy.global_prototypes) == set(
            parallel_strategy.global_prototypes
        )
        for label, proto in serial_strategy.global_prototypes.items():
            np.testing.assert_array_equal(
                proto, parallel_strategy.global_prototypes[label]
            )


class ScratchCyclingStrategy(FedAvgStrategy):
    """Adds a scratch key on even rounds and deletes it on odd rounds —
    exercises both directions of scratch persistence."""

    name = "scratch_cycling"

    def local_update(self, client, model, round_index, rng):
        if round_index % 2 == 0:
            client.scratch["marker"] = round_index
        else:
            client.scratch.pop("marker", None)
        return super().local_update(client, model, round_index, rng)


class EchoStrategy(FedAvgStrategy):
    """Echoes a server-written scratch note back through the worker, so the
    task's server->worker scratch sync is observable."""

    name = "echo"

    def local_update(self, client, model, round_index, rng):
        client.scratch["echo"] = client.scratch.get("server_note")
        return super().local_update(client, model, round_index, rng)


class PidStampStrategy(FedAvgStrategy):
    """Stamps the worker's pid into scratch each round, one key per round so
    every stamp travels in that round's delta."""

    name = "pid_stamp"

    def local_update(self, client, model, round_index, rng):
        client.scratch[f"pid_{round_index}"] = os.getpid()
        return super().local_update(client, model, round_index, rng)


def _round_setup(clients, rounds=1):
    """Participants (all clients) + per-round seeds, mirroring the server."""
    tree = SeedTree(0).child("server", "test")
    return [
        [
            tree.seed("client", client.client_id, "round", round_index)
            for client in clients
        ]
        for round_index in range(rounds)
    ]


class TestWireProtocol:
    """Pool residency and the delta-based wire protocol."""

    def _model(self):
        return build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )

    def test_datasets_ship_once_per_pool_lifetime(self):
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients, rounds=2)
        with ParallelExecutor(num_workers=2) as executor:
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 0, seeds[0])
            registered = executor.wire_stats().registration_bytes
            assert registered > 0
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 1, seeds[1])
            assert executor.wire_stats().registration_bytes == registered

    def test_task_payload_excludes_dataset_and_state(self):
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients)[0]
        with ParallelExecutor(num_workers=2) as executor:
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 0, seeds)
            wire = executor.wire_stats()
        # Tasks are (client_id, round, seed, None): constant-size, far below
        # even a single client's pickled dataset.
        per_task = wire.task_bytes / len(clients)
        assert per_task < 256
        assert wire.task_bytes < len(pickle.dumps(clients[0]))

    def test_broadcast_is_per_worker_not_per_task(self):
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients)[0]
        state_bytes = len(pickle.dumps(state))
        with ParallelExecutor(num_workers=2) as executor:
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 0, seeds)
            wire = executor.wire_stats()
        # 8 participants on 2 workers: well under one state blob per task.
        assert wire.broadcast_bytes < state_bytes * 3

    def test_sticky_affinity_is_by_client_id_modulo_workers(self):
        clients = make_clients()
        with ParallelExecutor(num_workers=2) as executor:
            server = FederatedServer(
                strategy=PidStampStrategy(FAST),
                clients=clients,
                model=self._model(),
                eval_sets={},
                config=FederatedConfig(num_rounds=2, clients_per_round=8, seed=0),
                executor=executor,
            )
            server.run()
        pids = {
            client.client_id: (client.scratch["pid_0"], client.scratch["pid_1"])
            for client in clients
        }
        # Same worker across rounds...
        for first, second in pids.values():
            assert first == second
        # ...and the same worker for every client with the same home slot.
        for a, b in itertools.combinations(clients, 2):
            if a.client_id % 2 == b.client_id % 2:
                assert pids[a.client_id] == pids[b.client_id]
            else:
                assert pids[a.client_id] != pids[b.client_id]

    def test_scratch_cache_travels_once_not_every_round(self):
        """PARDON's transfer cache crosses the wire in the round that builds
        it; later uploads carry only the model state."""
        clients = make_clients()
        strategy = PardonStrategy(local_config=FAST)
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients, rounds=3)
        with ParallelExecutor(num_workers=2) as executor:
            strategy.prepare(clients, model, np.random.default_rng(1))
            model.load_state_dict(state)
            executor.run_round(strategy, model, state, clients, 0, seeds[0])
            first_round_up = executor.wire_stats().upload_bytes
            executor.run_round(strategy, model, state, clients, 1, seeds[1])
            second_round_up = executor.wire_stats().upload_bytes - first_round_up
            executor.run_round(strategy, model, state, clients, 2, seeds[2])
            third_round_up = (
                executor.wire_stats().upload_bytes - first_round_up - second_round_up
            )
        # Round 0's uploads carry the freshly-built cache on top of the
        # state dicts; the drop from round 0 to round 1 must account for
        # (most of) the cache, which then never travels again.
        cache_bytes = sum(
            len(pickle.dumps(dict(client.scratch))) for client in clients
        )
        assert cache_bytes > 0
        assert first_round_up - second_round_up > cache_bytes * 0.5
        # And uploads stay flat once warm (no cache churn round over round).
        assert abs(third_round_up - second_round_up) < second_round_up * 0.1

    def test_new_client_objects_are_reregistered(self):
        """Fresh Client objects with recycled ids (a new run on a warm pool)
        must not see the previous run's resident data."""
        executor = ParallelExecutor(num_workers=2)
        try:
            first = run_once(PardonStrategy(local_config=FAST), executor)
            second = run_once(PardonStrategy(local_config=FAST), executor)
            assert_identical_runs(first, second)
        finally:
            executor.close()

    def test_server_side_scratch_edits_reach_workers(self):
        """Out-of-band server-side scratch writes between rounds must be
        visible to the resident copy (shipped as a task sync delta)."""
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients, rounds=2)
        with ParallelExecutor(num_workers=2) as executor:
            executor.run_round(EchoStrategy(FAST), model, state, clients, 0, seeds[0])
            for client in clients:
                client.scratch["server_note"] = f"note-{client.client_id}"
            executor.run_round(EchoStrategy(FAST), model, state, clients, 1, seeds[1])
        for client in clients:
            assert client.scratch["echo"] == f"note-{client.client_id}"

    def test_wire_bytes_land_in_timing_report(self):
        with ParallelExecutor(num_workers=2) as executor:
            result = run_once(FedAvgStrategy(FAST), executor, rounds=2)
        assert result.timing.bytes_up > 0
        assert result.timing.bytes_down > 0
        assert result.timing.bytes_total == (
            result.timing.bytes_up + result.timing.bytes_down
        )

    def test_serial_engine_reports_zero_wire_bytes(self):
        result = run_once(FedAvgStrategy(FAST), SerialExecutor(), rounds=2)
        assert result.timing.bytes_up == 0
        assert result.timing.bytes_down == 0

    def test_report_covers_only_this_run_on_a_warm_pool(self):
        """Executor counters are cumulative across runs; each report must
        still count only its own run's traffic."""
        with ParallelExecutor(num_workers=2) as executor:
            first = run_once(FedAvgStrategy(FAST), executor, rounds=1)
            second = run_once(FedAvgStrategy(FAST), executor, rounds=1)
        # The second run re-registers its fresh clients, so its totals are
        # close to the first run's — not the cumulative sum.
        assert second.timing.bytes_down < first.timing.bytes_down * 1.5


class TestScratchDeltaContract:
    """Satellite regression: ClientUpdate carries a snapshot delta, never an
    alias of the live scratch dict — on every engine."""

    def _one_round(self, executor):
        clients = make_clients()
        model = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )
        seeds = _round_setup(clients)[0]
        updates = executor.run_round(
            ScratchCyclingStrategy(FAST), model, model.state_dict(), clients, 0, seeds
        )
        return clients, updates

    def test_serial_delta_is_a_snapshot_not_an_alias(self):
        clients, updates = self._one_round(SerialExecutor())
        update = updates[0]
        assert update.scratch_delta.updates == {"marker": 0}
        clients[0].scratch["marker"] = "mutated-after-upload"
        assert update.scratch_delta.updates == {"marker": 0}

    def test_parallel_delta_matches_serial(self):
        serial_clients, serial_updates = self._one_round(SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel_clients, parallel_updates = self._one_round(executor)
        for s, p in zip(serial_updates, parallel_updates):
            assert s.scratch_delta.updates == p.scratch_delta.updates
            assert s.scratch_delta.removed == p.scratch_delta.removed
        for s, p in zip(serial_clients, parallel_clients):
            assert dict(s.scratch) == dict(p.scratch)

    def test_server_side_writes_stay_out_of_the_upload_delta(self):
        """Engine invariance includes server-side scratch edits between
        rounds: they sync *down* before the update, so the upload delta
        contains only the update's own writes on either engine."""

        def one_round(executor):
            clients = make_clients()
            model = build_mlp_model(
                SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
            )
            rounds = _round_setup(clients, rounds=2)
            executor.run_round(
                EchoStrategy(FAST), model, model.state_dict(), clients, 0, rounds[0]
            )
            for client in clients:
                client.scratch["server_note"] = f"note-{client.client_id}"
            return executor.run_round(
                EchoStrategy(FAST), model, model.state_dict(), clients, 1, rounds[1]
            )

        serial_updates = one_round(SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel_updates = one_round(executor)
        for s, p in zip(serial_updates, parallel_updates):
            assert set(s.scratch_delta.updates) == {"echo"}
            assert s.scratch_delta.updates == p.scratch_delta.updates

    def test_deletion_travels_in_the_delta(self):
        clients = make_clients()
        model = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )
        rounds = _round_setup(clients, rounds=2)
        executor = SerialExecutor()
        executor.run_round(
            ScratchCyclingStrategy(FAST), model, model.state_dict(), clients, 0, rounds[0]
        )
        updates = executor.run_round(
            ScratchCyclingStrategy(FAST), model, model.state_dict(), clients, 1, rounds[1]
        )
        assert updates[0].scratch_delta.removed == ("marker",)


class TestParallelMechanics:
    def test_scratch_deletions_propagate(self):
        """Worker-side scratch removals must reach the server-side client,
        same as additions (replace semantics, not merge)."""
        clients = make_clients()
        with ParallelExecutor(num_workers=2) as executor:
            server = FederatedServer(
                strategy=ScratchCyclingStrategy(FAST),
                clients=clients,
                model=build_mlp_model(
                    SUITE.image_shape,
                    SUITE.num_classes,
                    rng=np.random.default_rng(0),
                ),
                eval_sets={},
                config=FederatedConfig(num_rounds=2, clients_per_round=8, seed=0),
                executor=executor,
            )
            result = server.run()
        # Round 1 (odd) ran last and deleted the marker everywhere.
        participated = set(result.history.records[-1].participants)
        for client in clients:
            if client.client_id in participated:
                assert "marker" not in client.scratch

    def test_scratch_merged_back_to_server_clients(self):
        """PARDON's style-transfer cache is built inside a worker but must
        land on the server-side client for reuse next round."""
        clients = make_clients()
        strategy = PardonStrategy(local_config=FAST)
        with ParallelExecutor(num_workers=2) as executor:
            server = FederatedServer(
                strategy=strategy,
                clients=clients,
                model=build_mlp_model(
                    SUITE.image_shape,
                    SUITE.num_classes,
                    rng=np.random.default_rng(0),
                ),
                eval_sets={},
                config=FederatedConfig(num_rounds=1, clients_per_round=8, seed=0),
                executor=executor,
            )
            result = server.run()
        participated = set(result.history.records[0].participants)
        for client in clients:
            if client.client_id in participated and client.num_samples:
                assert "pardon_transferred" in client.scratch

    def test_server_only_state_not_shipped_to_workers(self):
        strategy = FedDGGAStrategy(local_config=FAST)
        clients = make_clients(4)
        model = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )
        strategy.prepare(clients, model, np.random.default_rng(1))
        clone = pickle.loads(pickle.dumps(strategy))
        assert clone._model_ref is None
        assert clone._clients_by_id is None
        # ...and the wire blob stays small: no datasets, no model.
        assert len(pickle.dumps(strategy)) < len(pickle.dumps(model))

    def test_pool_reuse_across_runs(self):
        executor = ParallelExecutor(num_workers=2)
        try:
            first = run_once(FedAvgStrategy(FAST), executor, rounds=1)
            second = run_once(FedAvgStrategy(FAST), executor, rounds=1)
            assert_identical_runs(first, second)
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(num_workers=2)
        executor.close()
        executor.close()

    def test_architecture_signature_tracks_structure(self):
        same_a = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )
        same_b = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(7)
        )
        wider = build_mlp_model(
            SUITE.image_shape,
            SUITE.num_classes,
            rng=np.random.default_rng(0),
            hidden_dim=128,
        )
        sig = ParallelExecutor._architecture_of
        assert sig(same_a) == sig(same_b)  # weights don't matter
        assert sig(same_a) != sig(wider)
        # Mode flips must not force a pool rebuild.
        assert sig(same_a.eval()) == sig(same_b)


class TestTimingAccounting:
    def test_recorded_updates_count_as_invocations(self):
        timer = PhaseTimer()
        timer.record_local_train(0.25)
        timer.record_local_train(0.75)
        timer.record_local_wall(0.5)
        report = timer.report()
        assert report.local_train_invocations == 2
        assert report.local_train_seconds_total == 1.0
        assert report.local_train_wall_seconds_total == 0.5
        assert report.local_train_speedup == 2.0

    def test_context_manager_counts_toward_wall(self):
        timer = PhaseTimer()
        with timer.local_train():
            pass
        report = timer.report()
        assert report.local_train_wall_seconds_total == report.local_train_seconds_total

    def test_speedup_defaults_to_one(self):
        assert PhaseTimer().report().local_train_speedup == 1.0

    def test_speedup_with_zero_invocations_and_zero_wall(self):
        """Edge cases: an empty report and a compute-only report must not
        divide by zero."""
        empty = PhaseTimer().report()
        assert empty.local_train_invocations == 0
        assert empty.local_train_seconds_mean == 0.0
        assert empty.local_train_speedup == 1.0
        compute_only = PhaseTimer()
        compute_only.record_local_train(1.0)  # no wall recorded
        assert compute_only.report().local_train_speedup == 1.0

    def test_context_manager_and_record_paths_agree(self, monkeypatch):
        """The convenience context manager and the record_* pair must
        account the same serial workload identically."""
        ticks = iter(float(i) for i in range(1000))
        monkeypatch.setattr(
            "repro.fl.timing.time.perf_counter", lambda: next(ticks)
        )
        with_context = PhaseTimer()
        for _ in range(3):
            with with_context.local_train():
                pass  # each enter/exit consumes two ticks -> 1.0s elapsed
        with_records = PhaseTimer()
        for _ in range(3):
            with_records.record_local_train(1.0)
            with_records.record_local_wall(1.0)
        assert with_context.report() == with_records.report()

    def test_record_bytes_accumulates_into_report(self):
        timer = PhaseTimer()
        timer.record_bytes(100, 200)
        timer.record_bytes(1, 2)
        report = timer.report()
        assert report.bytes_up == 101
        assert report.bytes_down == 202
        assert report.bytes_total == 303

    def test_parallel_run_reports_worker_seconds(self):
        with ParallelExecutor(num_workers=2) as executor:
            result = run_once(FedAvgStrategy(FAST), executor, rounds=2)
        timing = result.timing
        assert timing.local_train_invocations == 8
        assert timing.local_train_seconds_total > 0.0
        assert timing.local_train_wall_seconds_total > 0.0


class TestWorkerBlasThreads:
    def test_worker_runtime_caps_blas_at_one_thread(self):
        """Pool workers and remote agents both build a WorkerRuntime; it
        must leave the process's OpenBLAS with one thread, so endpoints
        sharing a host do not oversubscribe its cores.  Runs in a fresh
        interpreter: the cap is process-wide."""
        from repro.utils.blas import blas_threads

        if blas_threads() is None:
            pytest.skip("no OpenBLAS loaded")
        repo = Path(__file__).resolve().parent.parent
        script = (
            "import numpy as np\n"
            "from repro.fl.executor import WorkerRuntime\n"
            "from repro.nn import build_mlp_model\n"
            "from repro.nn.serialize import encode_payload\n"
            "from repro.utils.blas import blas_threads, limit_blas_threads\n"
            "limit_blas_threads(2)  # a pool to cap, where the host has 2 cores\n"
            "model = build_mlp_model((3, 8, 8), 4, rng=np.random.default_rng(0))\n"
            "WorkerRuntime(encode_payload(model), 'identity', 'pipe', 'loop')\n"
            "print('THREADS', blas_threads())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=repo, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "THREADS 1" in proc.stdout, proc.stdout

    def test_without_openblas_the_cap_is_a_no_op(self, monkeypatch):
        from repro.utils import blas

        monkeypatch.setattr(blas, "_openblas_function", lambda *args: None)
        assert blas.limit_blas_threads(1) is False
        assert blas.blas_threads() is None


class TestFinalEvaluationReuse:
    def test_final_accuracy_is_last_round_record(self):
        result = run_once(FedAvgStrategy(FAST), SerialExecutor(), rounds=2)
        assert result.final_accuracy == result.history.records[-1].eval_accuracy
