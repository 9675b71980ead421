"""Sans-io endpoint ledger: which clients live where, and the codec chains.

Clients keep their data and only deltas travel (PARDON §IV-B-3, Fig. 4b).
On the server that rests on one record of every training endpoint — a
process-pool slot or a remote agent — and :class:`EndpointLedger` is its
only home, behind both wire-crossing engines:

* **Residents**: each endpoint's clients, by identity and in LRU order,
  plus its queued evictions; the registration blob and its sync point.
* **Broadcast references**, one per endpoint, and **upload references**,
  one per client, for stateful codecs.
* **Endpoint events**: a slot lost, a membership change, an endpoint the
  round never reached, abandoned rows, and the ``max_resident`` bound.

It charges the :class:`repro.fl.executor.WireStats` for registration
blobs and unique broadcast state blobs; what each endpoint receives
depends on the transport, so per-endpoint broadcast bytes (and the
strategy blob) stay with the engines.  Like
:class:`repro.fl.rounds.RoundController` it has no sockets, pools or
clocks: the engines move the blobs it returns and report what happened.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from repro.nn.serialize import StateDict, encode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.client import Client
    from repro.fl.codec import Codec, Payload
    from repro.fl.executor import WireStats
    from repro.fl.rounds import TaskRow

__all__ = ["EndpointLedger"]


class EndpointLedger:
    """The server's record of its training endpoints (any hashable handle:
    a slot index, an agent object), with no I/O.  ``max_resident`` bounds
    the resident set across all endpoints (``None`` = unbounded)."""

    def __init__(
        self,
        codec: "Codec",
        wire: "WireStats",
        max_resident: int | None = None,
    ) -> None:
        self.codec = codec
        self.wire = wire
        self.max_resident = max_resident
        # client_id -> (endpoint, the exact server-side object resident
        # there).  Strong references on purpose: identity decides
        # re-registration, and a dead object's id must not be recycled
        # into a false "already resident".  Insertion order is LRU recency.
        self._resident: "dict[int, tuple[Hashable, Client]]" = {}
        # Ids to free on each endpoint, piggybacked on its next registration.
        self._evictions: "dict[Hashable, list[int]]" = {}
        # The server halves of the stateful-codec reference chains.
        self._bcast_refs: "dict[Hashable, StateDict]" = {}
        self._upload_refs: "dict[int, StateDict]" = {}

    @property
    def num_resident(self) -> int:
        return len(self._resident)

    @property
    def num_upload_refs(self) -> int:
        return len(self._upload_refs)

    def is_resident(self, endpoint: Hashable, client: "Client") -> bool:
        """Whether this very ``client`` object is resident on ``endpoint``."""
        entry = self._resident.get(client.client_id)
        return entry is not None and entry[0] == endpoint and entry[1] is client

    # -- registration --------------------------------------------------------

    def register(
        self, endpoint: Hashable, clients: "Sequence[Client]"
    ) -> "bytes | None":
        """``endpoint``'s registration blob — those of ``clients`` not yet
        resident there plus its queued evictions — or ``None`` when there
        is nothing to ship.  Applies the sync point server-side, as
        :meth:`repro.fl.executor.WorkerRuntime.register` does on the far
        side: scratch marked clean, upload reference reset."""
        newcomers = [c for c in clients if not self.is_resident(endpoint, c)]
        evict_ids = tuple(self._evictions.pop(endpoint, ()))
        if not newcomers and not evict_ids:
            return None
        blob = encode_payload((newcomers, evict_ids))
        # Each client ships to one endpoint: the blob is fan-out-free.
        self.wire.registration_bytes += len(blob)
        self.wire.unique_registration_bytes += len(blob)
        for client in newcomers:
            client.scratch.mark_clean()
            self._resident[client.client_id] = (endpoint, client)
            self._upload_refs.pop(client.client_id, None)
        return blob

    def registrations(
        self,
        endpoints: "Iterable[Hashable]",
        clients: "Sequence[Client]",
        home_of: "Callable[[int], Hashable]",
    ) -> "list[tuple[Hashable, bytes]]":
        """A round's ``(endpoint, blob)`` registrations, for each of
        ``endpoints`` with newcomers among the dispatched ``clients`` or
        queued evictions (a pure-eviction flush, so LRU hygiene never
        waits on a resample).  ``clients`` then become the most recently
        used residents."""
        by_home: "dict[Hashable, list[Client]]" = {}
        for client in clients:
            by_home.setdefault(home_of(client.client_id), []).append(client)
        shipped = []
        for endpoint in endpoints:
            blob = self.register(endpoint, by_home.get(endpoint, ()))
            if blob is not None:
                shipped.append((endpoint, blob))
        for client in clients:
            entry = self._resident.pop(client.client_id, None)
            if entry is not None:
                self._resident[client.client_id] = entry
        return shipped

    # -- reference chains ----------------------------------------------------

    def broadcast(
        self, endpoints: "Sequence[Hashable]", global_state: StateDict
    ) -> "list[tuple[bytes, list[Hashable]]]":
        """Encode ``global_state`` once per distinct broadcast reference
        among ``endpoints``: ``(state blob, endpoints)`` groups in order of
        first appearance, each counted once toward the unique floor.
        Stateful codecs then advance every reference to ``global_state``."""
        groups: "dict[int, tuple[bytes, list[Hashable]]]" = {}
        for endpoint in endpoints:
            ref = self._bcast_refs.get(endpoint)
            group = groups.get(id(ref))
            if group is None:
                blob = encode_payload(self.codec.encode(global_state, ref))
                self.wire.unique_broadcast_bytes += len(blob)
                group = groups[id(ref)] = (blob, [])
            group[1].append(endpoint)
        if self.codec.stateful:
            for endpoint in endpoints:
                self._bcast_refs[endpoint] = global_state
        return list(groups.values())

    def decode_upload(self, client_id: int, payload: "Payload") -> StateDict:
        """Decode one uploaded state against its client's chain."""
        state = self.codec.decode(payload, self._upload_refs.get(client_id))
        if self.codec.stateful:
            self._upload_refs[client_id] = state
        return state

    # -- endpoint events -----------------------------------------------------

    def endpoint_lost(self, endpoint: Hashable) -> None:
        """``endpoint``'s process died: its residents re-register before
        their next task, its next broadcast is a full frame, its queued
        evictions are moot.  Upload references stay — uploads that outran
        the loss still decode against them, and re-registration resets
        both ends."""
        for client_id in [
            cid for cid, (home, _) in self._resident.items() if home == endpoint
        ]:
            del self._resident[client_id]
        self._evictions.pop(endpoint, None)
        self._bcast_refs.pop(endpoint, None)

    def membership_changed(self, lost: Hashable) -> None:
        """``lost`` left a federation whose homes depend on its size: every
        surviving resident is queued for eviction and re-registers under
        the new layout (a stale copy kept resident could pass the identity
        check after a second change).  Upload references stay, as above."""
        self.endpoint_lost(lost)
        for client_id, (endpoint, _) in self._resident.items():
            self._evictions.setdefault(endpoint, []).append(client_id)
        self._resident.clear()

    def unsent(self, endpoint: Hashable) -> None:
        """The round closed before ``endpoint`` received its broadcast."""
        self._bcast_refs.pop(endpoint, None)

    def abandon(self, rows: "Iterable[TaskRow]") -> None:
        """The round gave up on ``rows`` while their tasks may still run:
        the endpoint copies diverge when they finish, so re-register."""
        for row in rows:
            for client in row.clients:
                self._resident.pop(client.client_id, None)

    def evict_lru(self, participants: "Sequence[Client]") -> None:
        """Evict the longest-unsampled residents (never a participant —
        mid-round recovery reads them) down to ``max_resident``: the
        server copy and upload reference go now, the endpoint copy with
        its next registration."""
        if self.max_resident is None:
            return
        excess = len(self._resident) - self.max_resident
        if excess <= 0:
            return
        in_round = {client.client_id for client in participants}
        for client_id in [
            cid for cid in self._resident if cid not in in_round
        ][:excess]:
            endpoint, _ = self._resident.pop(client_id)
            self._upload_refs.pop(client_id, None)
            self._evictions.setdefault(endpoint, []).append(client_id)

    def clear(self) -> None:
        """Every endpoint is gone: chains restart from full frames."""
        self._resident.clear()
        self._evictions.clear()
        self._bcast_refs.clear()
        self._upload_refs.clear()
