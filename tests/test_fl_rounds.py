"""Tests for the sans-io round controller (`repro.fl.rounds`).

The controller decides every engine's round membership, so it is tested
here without any engine and without wall clock: clients are bare ids with
a scratch space, time is a fake clock the test advances, and hypothesis
drives the arrival and drop orders.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.client import ScratchSpace
from repro.fl.executor import ClientUpdate, WireStats
from repro.fl.faults import FaultEvent, FaultPlan, RoundTimeoutError
from repro.fl.rounds import RoundController


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _clients(n):
    return [SimpleNamespace(client_id=10 + i, scratch=ScratchSpace()) for i in range(n)]


def _controller(clients, clock=None, **kwargs):
    return RoundController(
        0, clients, [1000 + c.client_id for c in clients],
        clock=clock or FakeClock(), **kwargs,
    )


def _update(client_id):
    return ClientUpdate(client_id=client_id, num_samples=1, state={}, loss=0.0)


def _feed(round_, rows, order, verdicts):
    """Deliver ``rows`` in ``order`` until the round closes: each row is
    lost (``"crash"``) or arrives, and each arriving client is accepted or
    rejected (``"corrupt"``) per ``verdicts``."""
    for index in order:
        if round_.closed:
            break
        row = rows[index]
        if verdicts[index] == "lost":
            round_.drop(row, "crash")
            continue
        round_.arrive(row)
        for client, position in zip(row.clients, row.positions):
            if verdicts[index] == "corrupt" and client is row.clients[0]:
                round_.reject(client.client_id)
            else:
                round_.accept(position, _update(client.client_id))


@st.composite
def rounds(draw):
    n = draw(st.integers(1, 8))
    workers = draw(st.integers(1, 3))
    batched = draw(st.booleans())
    rows_hint = n if not batched else min(n, workers)
    order = draw(st.permutations(range(rows_hint)))
    verdicts = draw(
        st.lists(
            st.sampled_from(["ok", "ok", "corrupt", "lost"]),
            min_size=rows_hint, max_size=rows_hint,
        )
    )
    return n, workers, batched, list(order), verdicts


def _run(n, workers, batched, order, verdicts, **kwargs):
    clients = _clients(n)
    round_ = _controller(clients, **kwargs)
    rows = round_.task_rows(lambda cid: cid % workers, batched)
    assert len(rows) == len(order)
    _feed(round_, rows, order, verdicts)
    return clients, round_, rows


class TestArrivals:
    @settings(max_examples=60, deadline=None)
    @given(rounds())
    def test_every_dispatched_client_is_accepted_or_dropped_once(self, case):
        clients, round_, _ = _run(*case)
        updates = round_.close()
        accepted = [update.client_id for update in updates]
        dispatched = [client.client_id for client in clients]
        assert set(accepted) | set(round_.report.dropped) == set(dispatched)
        assert not set(accepted) & set(round_.report.dropped)
        # Survivors come back in sampling order, whatever the arrivals.
        assert accepted == [cid for cid in dispatched if cid in set(accepted)]

    @settings(max_examples=60, deadline=None)
    @given(rounds(), st.randoms(use_true_random=False))
    def test_without_quorum_or_deadline_arrival_order_is_invisible(
        self, case, rng
    ):
        n, workers, batched, order, verdicts = case
        shuffled = list(order)
        rng.shuffle(shuffled)
        _, first, _ = _run(n, workers, batched, order, verdicts)
        _, second, _ = _run(n, workers, batched, shuffled, verdicts)
        assert [u.client_id for u in first.close()] == [
            u.client_id for u in second.close()
        ]
        assert first.report.dropped == second.report.dropped

    @settings(max_examples=60, deadline=None)
    @given(rounds(), st.integers(1, 8))
    def test_early_closed_iff_rows_were_cut(self, case, quorum):
        _, round_, _ = _run(*case, quorum=quorum)
        # The feed only stops early once the quorum is met.
        cut = bool(round_.outstanding)
        round_.close()
        assert round_.report.early_closed == cut == bool(round_.abandoned)
        assert ("quorum" in round_.report.dropped.values()) == cut

    def test_group_rows_ingest_whole_and_may_overshoot_the_quorum(self):
        round_ = _controller(_clients(4), quorum=1)
        rows = round_.task_rows(lambda cid: 0, batched=True)
        assert len(rows) == 1
        _feed(round_, rows, [0], ["ok"])
        assert len(round_.close()) == 4
        assert not round_.report.early_closed


class TestDeadline:
    def test_expiry_with_nothing_accepted_names_the_outstanding(self):
        clock = FakeClock()
        round_ = _controller(_clients(3), clock=clock, deadline=2.0)
        round_.task_rows()
        round_.start()
        assert round_.remaining() == 2.0
        clock.now += 5.0
        assert round_.remaining() == 0.0
        round_.expire()
        assert round_.closed
        with pytest.raises(RoundTimeoutError) as excinfo:
            round_.close()
        assert excinfo.value.client_ids == (10, 11, 12)
        assert excinfo.value.quorum is None

    def test_expiry_below_the_quorum_raises_with_the_partial_set(self):
        round_ = _controller(_clients(4), deadline=1.0, quorum=3)
        rows = round_.task_rows()
        round_.start()
        _feed(round_, rows, [2, 0], ["ok", "ok", "ok", "ok"])
        round_.expire()
        with pytest.raises(RoundTimeoutError) as excinfo:
            round_.close()
        assert excinfo.value.quorum == 3
        assert excinfo.value.accepted == (10, 12)
        assert excinfo.value.client_ids == (11, 13)
        # The timed-out rows are the engine's to absorb.
        assert [row.clients[0].client_id for row in round_.abandoned] == [11, 13]

    def test_expiry_with_survivors_closes_partially(self):
        observed = []
        clock = FakeClock()
        round_ = _controller(
            _clients(3), clock=clock, deadline=1.0, observe=observed.append
        )
        rows = round_.task_rows()
        round_.start()
        _feed(round_, rows, [1], ["ok"] * 3)
        clock.now += 1.5
        round_.expire()
        assert [u.client_id for u in round_.close()] == [11]
        assert round_.report.dropped == {10: "deadline", 12: "deadline"}
        assert not round_.report.early_closed
        assert observed == [1.5]

    def test_early_close_reports_its_headroom(self):
        clock = FakeClock()
        round_ = _controller(_clients(3), clock=clock, deadline=4.0, quorum=1)
        rows = round_.task_rows()
        round_.start()
        clock.now += 1.0
        _feed(round_, rows, [0], ["ok"] * 3)
        round_.close()
        assert round_.report.early_closed
        assert round_.report.early_close_seconds == 3.0
        assert round_.report.dropped == {11: "quorum", 12: "quorum"}

    def test_no_deadline_means_no_timeout(self):
        round_ = _controller(_clients(2))
        round_.task_rows()
        round_.start()
        assert round_.remaining() is None

    def test_cooperative_rule_drops_long_hangs_before_dispatch(self):
        clients = _clients(3)
        plan = FaultPlan(events=(
            FaultEvent("hang", 0, 10, delay_seconds=0.6),
            FaultEvent("hang", 0, 11, delay_seconds=0.1),
        ))
        serial = _controller(clients, fault_plan=plan, deadline=0.3,
                             preemptive=False)
        assert [d.client.client_id for d in serial.dispatched] == [11, 12]
        assert serial.report.dropped == {10: "deadline"}
        preemptive = _controller(clients, fault_plan=plan, deadline=0.3)
        assert [d.client.client_id for d in preemptive.dispatched] == [10, 11, 12]


class TestTriage:
    def test_crash_victim_dispatches_only_where_workers_die(self):
        clients = _clients(3)
        plan = FaultPlan(events=(FaultEvent("crash", 0, 11),))
        clients[1].scratch["k"] = 1  # dirty: the victim's sync point runs
        dropped = _controller(clients, fault_plan=plan)
        assert [d.client.client_id for d in dropped.dispatched] == [10, 12]
        assert dropped.report.dropped == {11: "crash"}
        assert not clients[1].scratch.dirty_keys
        killed = _controller(clients, fault_plan=plan, kills_workers=True)
        assert killed.dispatched[1].fault.kind == "crash"
        assert killed.report.dropped == {}

    def test_plan_skips_never_dispatch(self):
        plan = FaultPlan(events=(FaultEvent("dropout", 0, 12),))
        round_ = _controller(_clients(3), fault_plan=plan)
        assert [d.client.client_id for d in round_.dispatched] == [10, 11]
        assert round_.report.dropped == {12: "dropout"}

    def test_replayed_round_applies_no_quorum_or_deadline(self):
        clients = _clients(4)
        plan = FaultPlan(events=(
            FaultEvent("hang", 0, 12, delay_seconds=9.0),
            FaultEvent("crash", 0, 13),
        ))
        recorded = {11: "deadline", 13: "quorum"}
        round_ = _controller(
            clients, fault_plan=plan, deadline=0.1, quorum=1,
            replay=((10, 12), recorded), preemptive=False,
        )
        # Exactly the recorded accepted set, with its update-level faults
        # (the hang is re-injected, never cooperatively dropped).
        assert [d.client.client_id for d in round_.dispatched] == [10, 12]
        assert round_.dispatched[1].fault.kind == "hang"
        assert round_.report.straggler_seconds == 9.0
        rows = round_.task_rows()
        round_.start()
        assert round_.remaining() is None
        _feed(round_, rows, [1, 0], ["ok", "ok"])
        assert [u.client_id for u in round_.close()] == [10, 12]
        assert round_.report.dropped == recorded
        assert not round_.report.early_closed

    def test_replayed_round_never_raises(self):
        recorded = {10: "deadline", 11: "deadline"}
        round_ = _controller(
            _clients(2), deadline=0.1, quorum=2, replay=((), recorded)
        )
        round_.task_rows()
        assert round_.close() == []


class TestTaskRows:
    def test_batched_groups_per_home_with_faulted_singletons(self):
        clients = _clients(5)
        plan = FaultPlan(events=(FaultEvent("corrupt", 0, 12),))
        round_ = _controller(clients, fault_plan=plan)
        rows = round_.task_rows(lambda cid: cid % 2, batched=True)
        assert [[c.client_id for c in row.clients] for row in rows] == [
            [10, 14], [11, 13], [12],
        ]
        assert rows[2].fault.kind == "corrupt"
        assert rows[0].task(0) == ((10, 14), 0, (1010, 1014), (None, None), None)

    def test_task_bytes_do_not_depend_on_grouping(self):
        charged = []
        for batched in (False, True):
            clients = _clients(4)
            clients[2].scratch["style"] = [1.0, 2.0]
            wire = WireStats()
            round_ = _controller(clients)
            rows = round_.task_rows(lambda cid: cid % 2, batched, wire)
            assert any(sync is not None for row in rows for sync in row.syncs)
            charged.append(wire.task_bytes)
        assert charged[0] == charged[1] > 0

    def test_in_process_rows_sync_scratch_without_encoding(self):
        clients = _clients(2)
        clients[0].scratch["k"] = 1
        round_ = _controller(clients)
        rows = round_.task_rows()
        assert [row.syncs for row in rows] == [[None], [None]]
        assert not clients[0].scratch.dirty_keys
