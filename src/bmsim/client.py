"""Cluster client: bootstraps its membership view from the registry, enforces
the staleness bound, and accepts results only from matching signed quorums.

The control variant skips the registry entirely and trusts whatever
configuration it cached last, which is exactly the surface the long-range
attack exploits.
"""

from __future__ import annotations

import enum
import itertools

from bmsim.ledger import Ledger
from bmsim.membership import Configuration, NodeId, max_faults
from bmsim.metrics import RunMonitor
from bmsim.simcore import Envelope, SimulationCore


class ClientMode(enum.Enum):
    WITH_REGISTRY = "with_bms"
    NO_REGISTRY = "no_bms"


class ClusterClient:
    RETRY = 15.0

    def __init__(
        self,
        sim: SimulationCore,
        client_id: str,
        ledger: Ledger,
        mode: ClientMode,
        p_bound: float,
        monitor: RunMonitor,
    ):
        self.sim = sim
        self.id = client_id
        self.ledger = ledger
        self.mode = mode
        self.p_bound = p_bound
        self.monitor = monitor

        self.cached_config: Configuration | None = None
        self.cached_at: float | None = None
        self._request_ids = itertools.count(1)
        self._inflight: dict[int, dict[bytes, dict[NodeId, None]]] = {}

        sim.register_handler(client_id, self.handle_envelope)

    # -- view management ---------------------------------------------------------

    def bootstrap(self) -> Configuration:
        self.cached_config = self.ledger.confirmed_config()
        self.cached_at = self.sim.now
        return self.cached_config

    def _refresh_if_stale(self) -> None:
        if self.cached_config is None or self.sim.now - self.cached_at > self.p_bound:
            self.bootstrap()

    # -- requests ------------------------------------------------------------------

    def submit_request(self) -> int:
        if self.mode is ClientMode.WITH_REGISTRY:
            self._refresh_if_stale()
        elif self.cached_config is None:
            self.bootstrap()
        request_id = next(self._request_ids)
        self._inflight[request_id] = {}
        self._send(request_id)
        return request_id

    def _send(self, request_id: int) -> None:
        if request_id not in self._inflight:
            return
        for member in self.cached_config.members:
            self.sim.send(self.id, member, ("query", self.id, request_id))
        self.sim.schedule_in(
            self.RETRY, lambda: self._retry(request_id), label="client-retry"
        )

    def _retry(self, request_id: int) -> None:
        if request_id not in self._inflight:
            return
        if self.mode is ClientMode.WITH_REGISTRY:
            self._refresh_if_stale()
        self._send(request_id)

    # -- responses --------------------------------------------------------------------

    def handle_envelope(self, env: Envelope) -> None:
        if env.payload[0] != "query_response":
            return
        _, request_id, payload, responder, sig = env.payload
        buckets = self._inflight.get(request_id)
        if buckets is None:
            return
        if responder not in self.cached_config.members:
            return
        if not self.sim.auth.verify(responder, ("query_response", request_id, payload), sig):
            return
        bucket = buckets.setdefault(payload, {})
        bucket[responder] = None
        needed = max_faults(self.cached_config.size) + 1
        if len(bucket) >= needed:
            del self._inflight[request_id]
            self.monitor.client_accepted(
                request_id=request_id,
                at=self.sim.now,
                payload=payload,
                signers=tuple(sorted(bucket)),
                config_number=self.cached_config.number,
                view_age=self.sim.now - self.cached_at,
                max_view_age=(
                    self.p_bound + self.RETRY if self.mode is ClientMode.WITH_REGISTRY else None
                ),
            )
