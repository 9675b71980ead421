"""Tests for the sans-io endpoint ledger (`repro.fl.residency`).

The ledger is driven here the way the process pool and the remote engine
drive it, against mirror endpoints that follow
:class:`repro.fl.executor.WorkerRuntime`'s rules for residents and
reference chains and run the real ``delta`` codec — no sockets, no
processes.  Whatever sequence of rounds and endpoint events hypothesis
draws, every broadcast and every upload must decode bit-exactly (a
missing reference raises), every task must find its client resident,
and the byte counters must match a count kept by hand.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import LabeledDataset
from repro.fl import Client
from repro.fl.codec import make_codec
from repro.fl.executor import WireStats
from repro.fl.residency import EndpointLedger
from repro.fl.rounds import TaskRow
from repro.nn.serialize import decode_payload, encode_payload


def _state(*seed):
    rng = np.random.default_rng(seed)
    return {
        "w": rng.standard_normal((3, 2)),
        "b": rng.standard_normal(4).astype(np.float32),
    }


def _assert_bit_exact(expected, actual):
    assert sorted(expected) == sorted(actual)
    for key, value in expected.items():
        assert actual[key].dtype == value.dtype
        assert actual[key].tobytes() == value.tobytes()


def _client(client_id):
    dataset = LabeledDataset(
        images=np.zeros((1, 1, 2, 2)), labels=[0], domain_ids=[0]
    )
    return Client(client_id, dataset)


class _Mirror:
    """One endpoint: residents plus both reference chains, under the
    rules :class:`repro.fl.executor.WorkerRuntime` follows."""

    def __init__(self, codec):
        self.codec = codec
        self.clients = {}
        self.bcast_ref = None
        self.upload_refs = {}

    def register(self, blob):
        clients, evict_ids = decode_payload(blob)
        for client_id in evict_ids:
            self.clients.pop(client_id, None)
            self.upload_refs.pop(client_id, None)
        for client in clients:
            self.clients[client.client_id] = client
            self.upload_refs.pop(client.client_id, None)

    def receive(self, state_blob):
        state = self.codec.decode(decode_payload(state_blob), self.bcast_ref)
        self.bcast_ref = state
        return state

    def upload(self, client_id, state):
        assert client_id in self.clients, "task reached a non-resident client"
        payload = self.codec.encode(state, self.upload_refs.get(client_id))
        self.upload_refs[client_id] = state
        return payload


class _Federation:
    """A ledger plus its mirror endpoints, driven like an engine.

    ``kind="pool"`` offers every slot a registration each round and loses
    slots in place (:meth:`EndpointLedger.endpoint_lost`);
    ``kind="remote"`` offers registrations to the round's agents only and
    loses agents for good (:meth:`EndpointLedger.membership_changed`), which
    re-homes every client.  The hand counts are kept alongside.
    """

    def __init__(self, kind, num_clients, num_endpoints, max_resident=None):
        self.kind = kind
        self.codec = make_codec("delta")
        self.wire = WireStats()
        self.ledger = EndpointLedger(self.codec, self.wire, max_resident)
        self.max_resident = max_resident
        self.clients = [_client(i) for i in range(num_clients)]
        self.live = list(range(num_endpoints))
        self.mirrors = {endpoint: _Mirror(self.codec) for endpoint in self.live}
        self.round_index = 0
        self.states = {}
        # Hand counts and models: bytes, the round whose broadcast each
        # endpoint's server-side reference should hold (None = full frame
        # next), the clients the server should hold an upload reference
        # for, and the LRU evictions each endpoint is owed.
        self.registration_bytes = 0
        self.unique_broadcast_bytes = 0
        self.ref_round = {}
        self.chains = set()
        self.lru_evicted = {}

    def home(self, client_id):
        return self.live[client_id % len(self.live)]

    def lose(self, endpoint):
        self.ref_round.pop(endpoint, None)
        self.lru_evicted.pop(endpoint, None)
        if self.kind == "pool":
            self.ledger.endpoint_lost(endpoint)
            self.mirrors[endpoint] = _Mirror(self.codec)  # a fresh process
        else:
            self.ledger.membership_changed(endpoint)
            self.live.remove(endpoint)
            del self.mirrors[endpoint]

    def _deliver_registration(self, endpoint, blob, skipped=None):
        self.registration_bytes += len(blob)
        newcomers, evict_ids = decode_payload(blob)
        self.chains -= {client.client_id for client in newcomers}
        assert self.lru_evicted.pop(endpoint, set()) <= set(evict_ids)
        if endpoint != skipped:
            self.mirrors[endpoint].register(blob)

    def _broadcast(self, endpoints, global_state, skipped=None):
        groups = self.ledger.broadcast(endpoints, global_state)
        expected = {}
        for endpoint in endpoints:
            expected.setdefault(self.ref_round.get(endpoint), []).append(endpoint)
        assert [group for _, group in groups] == list(expected.values())
        for (blob, group), ref_round in zip(groups, expected):
            ref = self.states.get(ref_round)
            self.unique_broadcast_bytes += len(
                encode_payload(self.codec.encode(global_state, ref))
            )
            for endpoint in group:
                if endpoint != skipped:
                    _assert_bit_exact(
                        global_state, self.mirrors[endpoint].receive(blob)
                    )
                self.ref_round[endpoint] = self.round_index

    def _upload(self, endpoint, client, discard=False):
        state = _state(self.round_index, client.client_id)
        payload = self.mirrors[endpoint].upload(client.client_id, state)
        if not discard:
            decoded = self.ledger.decode_upload(client.client_id, payload)
            _assert_bit_exact(state, decoded)
            self.chains.add(client.client_id)

    def run_round(
        self, participants, abandon=(), unsent=False, lost=None, outran=0
    ):
        """One round.  ``abandon``: participants whose rows the round gives
        up on (their tasks still run).  ``unsent``: the round closes before
        its last endpoint is sent anything.  ``lost``: index of an endpoint
        lost after the broadcast; on a pool its first ``outran`` uploads
        beat the crash and the rest re-run on the rebuilt slot."""
        dispatched = [self.clients[i] for i in participants]
        homes = {c.client_id: self.home(c.client_id) for c in dispatched}
        in_round = [e for e in self.live if e in homes.values()]
        skipped = in_round[-1] if unsent and len(in_round) > 1 else None
        for client in dispatched:
            client.scratch[("edit", self.round_index)] = self.round_index
        offered = self.live if self.kind == "pool" else in_round
        shipped = set()
        registrations = self.ledger.registrations(offered, dispatched, self.home)
        for endpoint, blob in registrations:
            newcomers, _ = decode_payload(blob)
            assert all(homes[c.client_id] == endpoint for c in newcomers)
            shipped.update(c.client_id for c in newcomers)
            self._deliver_registration(endpoint, blob, skipped)
        # Registration is the scratch sync point; everyone else still owes
        # the edit as a task sync blob.
        for client in dispatched:
            dirty = bool(client.scratch.dirty_keys)
            assert dirty == (client.client_id not in shipped)
        self.shipped = shipped
        global_state = self.states[self.round_index] = _state(self.round_index)
        self._broadcast(in_round, global_state, skipped)

        victim = None
        candidates = [e for e in in_round if e != skipped]
        if lost is not None and (self.kind == "pool" or len(self.live) > 1):
            victim = candidates[lost % len(candidates)]
        if victim is not None and self.kind == "remote":
            # The agent vanishes before any of the round's uploads land;
            # its rows drop, everyone else's deltas must still decode.
            self.lose(victim)
        abandoned = []
        rerun = []
        for client in dispatched:
            endpoint = homes[client.client_id]
            row = TaskRow(endpoint, [], [client], [], [])
            if endpoint == skipped:
                abandoned.append(row)  # its task never left the server
            elif endpoint == victim and self.kind == "remote":
                continue  # dropped as "disconnect"
            elif endpoint == victim and outran <= 0:
                rerun.append(client)  # lost with the crashed slot
            elif client.client_id in abandon:
                self._upload(endpoint, client, discard=True)
                abandoned.append(row)
            else:
                if endpoint == victim:
                    outran -= 1
                self._upload(endpoint, client)
        if victim is not None and self.kind == "pool":
            self.lose(victim)
            if rerun:
                self._deliver_registration(
                    victim, self.ledger.register(victim, rerun)
                )
                self._broadcast([victim], global_state)
                for client in rerun:
                    self._upload(victim, client)
        if skipped is not None:
            self.ledger.unsent(skipped)
            self.ref_round.pop(skipped, None)
        self.ledger.abandon(abandoned)
        before = self._residency()
        self.ledger.evict_lru(dispatched)
        after = self._residency()
        for client_id, endpoint in before.items():
            if client_id not in after:
                self.chains.discard(client_id)
                self.lru_evicted.setdefault(endpoint, set()).add(client_id)
        if self.max_resident is not None:
            # Participants are never evicted, so they may overshoot.
            assert self.ledger.num_resident <= max(
                self.max_resident, len(dispatched)
            )
        self.round_index += 1
        self.check()

    def _residency(self):
        return {
            client.client_id: endpoint
            for endpoint in self.live
            for client in self.clients
            if self.ledger.is_resident(endpoint, client)
        }

    def check(self):
        assert self.ledger.num_upload_refs == len(self.chains)
        assert self.wire.registration_bytes == self.registration_bytes
        assert self.wire.unique_registration_bytes == self.registration_bytes
        assert self.wire.unique_broadcast_bytes == self.unique_broadcast_bytes
        assert self.wire.broadcast_bytes == 0  # per-endpoint bytes are the engine's
        for endpoint in self.live:
            for client in self.clients:
                if self.ledger.is_resident(endpoint, client):
                    assert client.client_id in self.mirrors[endpoint].clients


@st.composite
def _scenarios(draw):
    kind = draw(st.sampled_from(["pool", "remote"]))
    num_clients = draw(st.integers(2, 8))
    num_endpoints = draw(st.integers(1, 4))
    max_resident = draw(st.none() | st.integers(1, num_clients))
    client_ids = st.integers(0, num_clients - 1)
    round_step = st.fixed_dictionaries(
        {
            "participants": st.lists(client_ids, min_size=1, unique=True),
            "abandon": st.sets(client_ids, max_size=2),
            "unsent": st.booleans(),
            "lost": st.none() | st.integers(0, 3),
            "outran": st.integers(0, 2),
        }
    ).map(lambda step: ("round", step))
    lose_step = st.integers(0, 3).map(lambda index: ("lose", index))
    steps = draw(
        st.lists(st.one_of(round_step, round_step, lose_step), min_size=1, max_size=8)
    )
    return kind, num_clients, num_endpoints, max_resident, steps


class TestLedgerProperties:
    @settings(max_examples=80, deadline=None)
    @given(_scenarios())
    def test_every_chain_decodes_and_bytes_match_a_hand_count(self, scenario):
        kind, num_clients, num_endpoints, max_resident, steps = scenario
        federation = _Federation(kind, num_clients, num_endpoints, max_resident)
        for step_kind, step in steps:
            if step_kind == "lose":
                if kind == "remote" and len(federation.live) == 1:
                    continue
                federation.lose(federation.live[step % len(federation.live)])
                federation.check()
            else:
                federation.run_round(**step)


class TestLedgerEvents:
    def test_losing_an_agent_mid_round_keeps_upload_references(self):
        """The remote sequence that used to crash a delta run: an agent
        vanishes mid-round and the survivor's uploads of that round are
        deltas against chains built the round before."""
        federation = _Federation("remote", num_clients=4, num_endpoints=2)
        federation.run_round([0, 1, 2, 3])
        assert federation.ledger.num_upload_refs == 4
        federation.run_round([0, 1, 2, 3], lost=0)  # endpoint 0 vanishes
        assert federation.live == [1]
        # Every upload reference survived the loss...
        assert federation.ledger.num_upload_refs == 4
        # ...and the next round re-homes everyone onto the survivor, even
        # the clients it already held.
        federation.run_round([0, 1, 2, 3])
        assert federation.shipped == {0, 1, 2, 3}
        assert all(
            federation.ledger.is_resident(1, client)
            for client in federation.clients
        )

    def test_slot_loss_forgets_only_that_slot(self):
        federation = _Federation("pool", num_clients=4, num_endpoints=2)
        federation.run_round([0, 1, 2, 3])
        federation.lose(0)
        clients = federation.clients
        assert not federation.ledger.is_resident(0, clients[0])
        assert federation.ledger.is_resident(1, clients[1])
        assert federation.ledger.num_upload_refs == 4
        # The rebuilt slot gets a full frame; the other keeps its delta.
        federation.run_round([0, 1])

    def test_mid_round_crash_reruns_on_the_rebuilt_slot(self):
        federation = _Federation("pool", num_clients=6, num_endpoints=2)
        federation.run_round([0, 1, 2, 3, 4, 5])
        federation.run_round([0, 1, 2, 3, 4, 5], lost=0, outran=1)
        federation.run_round([0, 2, 4])

    def test_unsent_endpoint_gets_a_full_frame_next(self):
        federation = _Federation("remote", num_clients=4, num_endpoints=2)
        federation.run_round([0, 1, 2, 3])
        federation.run_round([0, 1, 2, 3], unsent=True)
        assert 1 not in federation.ref_round
        federation.run_round([0, 1, 2, 3])

    def test_lru_bound_evicts_oldest_non_participants(self):
        federation = _Federation(
            "pool", num_clients=6, num_endpoints=2, max_resident=2
        )
        federation.run_round([0, 1, 2])
        assert federation.ledger.num_resident == 3  # participants are kept
        federation.run_round([3])
        assert federation.ledger.num_resident == 2
        assert federation.ledger.is_resident(1, federation.clients[3])
        # Evicted clients re-register with fresh upload chains.
        federation.run_round([0, 1, 2])
