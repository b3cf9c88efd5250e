"""Run monitor: metric collection plus always-on invariant checks.

The monitor observes every reconfiguration, ordering event and client
decision.  Violations of protocol invariants abort the run rather than
silently producing bad metrics.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from bmsim.errors import InvariantViolation
from bmsim.membership import Configuration, NodeId, overlap_ok, symmetric_difference
from bmsim.simcore import SimulationCore


@dataclass(slots=True)
class JoinRecord:
    node: NodeId
    size: int = 0
    t: int = 0
    started_at: float = 0.0
    tx_latency: float = 0.0
    confirm_done_at: float = 0.0
    request_sent_at: float = 0.0
    ordered_at: float = 0.0
    processed_at: float = 0.0
    admitted_at: float = 0.0

    @property
    def confirm_latency(self) -> float:
        return self.confirm_done_at - (self.started_at + self.tx_latency)

    @property
    def ordering_latency(self) -> float:
        return self.ordered_at - self.request_sent_at

    @property
    def checkpoint_latency(self) -> float:
        return self.processed_at - self.ordered_at


@dataclass(slots=True)
class VoteRecord:
    size: int
    config_number: int
    gas_used: int
    is_first_vote: bool
    is_update_vote: bool


@dataclass
class UpdateRecord:
    size: int
    joiners: int
    leavers: int
    total_gas: int
    number: int
    height: int
    time: float

    def gas_per_join(self) -> float | None:
        return self.total_gas / self.joiners if self.joiners else None


@dataclass
class ConfigRecord:
    number: int
    size: int
    height: int
    time: float
    members: tuple[NodeId, ...]


@dataclass
class ClientOutcome:
    request_id: int
    accepted_at: float
    payload: bytes
    signers: tuple[NodeId, ...]
    config_number: int
    forged: bool


class RunMonitor:
    """Collects metrics and enforces cross-node invariants during a run."""

    def __init__(self, sim: SimulationCore, checkpoint_interval: float = 20.0):
        self.sim = sim
        self.checkpoint_interval = checkpoint_interval

        self.byzantine: set[NodeId] = set()
        self.contract = None          # wired by the simulation
        self.bypass = False
        self.forged_payload: bytes | None = None  # adversary ground truth

        self.joins: dict[NodeId, JoinRecord] = {}
        self.completed_joins: list[JoinRecord] = []
        self.client_outcomes: list[ClientOutcome] = []

        self._config_table: dict[int, Configuration] = {}
        self._node_chain_pos: dict[NodeId, int] = {}

    # -- bookkeeping -----------------------------------------------------------

    def mark_byzantine(self, node: NodeId) -> None:
        self.byzantine.add(node)

    def note(self, message: str) -> None:
        self.sim.note(message)

    # -- join lifecycle -----------------------------------------------------------

    def join_started(self, node: NodeId, at: float, tx_latency: float) -> None:
        self.joins[node] = JoinRecord(node=node, started_at=at, tx_latency=tx_latency)

    def proof_complete(self, node: NodeId, at: float) -> None:
        if node in self.joins:
            self.joins[node].confirm_done_at = at

    def join_request_sent(self, node: NodeId, at: float) -> None:
        if node in self.joins and self.joins[node].request_sent_at == 0.0:
            self.joins[node].request_sent_at = at

    def request_ordered(self, key: tuple, at: float, by: NodeId) -> None:
        kind, node, _ = key
        if kind == "join" and node in self.joins and self.joins[node].ordered_at == 0.0:
            self.joins[node].ordered_at = at

    def join_admitted(self, node: NodeId, at: float) -> None:
        record = self.joins.get(node)
        if record is not None and record.admitted_at == 0.0:
            record.admitted_at = at
            self.completed_joins.append(record)

    # -- reconfiguration invariants ---------------------------------------------------

    def node_reconfigured(
        self, node: NodeId, config: Configuration, req_key: tuple, at: float, t: int
    ) -> None:
        self.note(f"{node} -> config {config.number} ({len(config.members)})")
        if node in self.byzantine:
            return
        seen = self._config_table.setdefault(config.number, config)
        if seen is not config:
            raise InvariantViolation(
                f"configuration agreement broken at number {config.number}: "
                f"{seen.members} vs {config.members} (node {node})"
            )
        pos = self._node_chain_pos.get(node, -1)
        if config.number <= pos:
            raise InvariantViolation(f"node {node} replayed configuration {config.number}")
        self._node_chain_pos[node] = config.number

        kind, req_node, _ = req_key
        if kind == "join" and req_node in self.joins:
            record = self.joins[req_node]
            if record.processed_at == 0.0:
                record.processed_at = at
                record.size = len(config.members)
                record.t = t
                if record.ordered_at and record.checkpoint_latency > self.checkpoint_interval + 1e-9:
                    raise InvariantViolation(
                        f"checkpoint latency {record.checkpoint_latency:.3f}s "
                        f"exceeds the interval for join {req_node}"
                    )

        if not self.bypass and self.contract is not None:
            published = self.contract.c_cur
            if not overlap_ok(published, config):
                raise InvariantViolation(
                    f"overlap violated: published {published.number} vs local "
                    f"{config.number} on {node} "
                    f"(diff {symmetric_difference(published, config)})"
                )

    def vote_submitted(self, node: NodeId, config: Configuration, at: float) -> None:
        self.note(f"{node} votes for {config.number}")

    # -- client -------------------------------------------------------------------------

    def client_accepted(
        self,
        request_id: int,
        at: float,
        payload: bytes,
        signers: tuple[NodeId, ...],
        config_number: int,
        view_age: float,
        max_view_age: float | None,
    ) -> None:
        """`view_age` is how long ago the client read its configuration from
        the registry; `max_view_age`, when given, is the staleness bound the
        client enforces: it re-reads a view older than its bound at each
        request and retry, so a view may age one retry interval past it."""
        forged = self.forged_payload is not None and payload == self.forged_payload
        self.client_outcomes.append(
            ClientOutcome(request_id, at, payload, signers, config_number, forged)
        )
        if max_view_age is not None and view_age > max_view_age:
            raise InvariantViolation(
                f"client accepted quorum from configuration {config_number} read "
                f"{view_age:.3f}s ago, beyond its staleness bound of {max_view_age:.3f}s"
            )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

JOINS_HEADER = ["size", "t", "tx_latency_s", "confirm_latency_s", "ordering_latency_s", "checkpoint_latency_s"]
VOTES_HEADER = ["size", "config_number", "gas_used", "is_first_vote", "is_update_vote"]
UPDATES_HEADER = ["size", "joiners", "total_gas", "gas_per_join", "usd_per_join"]
CONFIGS_HEADER = ["number", "size", "height", "time", "members"]
BLOCKS_HEADER = ["height", "time", "tx_kind", "gas_used", "accepted"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def rows_to_csv(header: list[str], rows: list[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if v is not None else "" for v in row])
    return buffer.getvalue()


def joins_csv(records: list[JoinRecord], confirm_latency: float | None = None) -> str:
    """`confirm_latency`, when given, replaces every realized confirmation
    latency with that constant."""
    rows = [
        (
            r.size,
            r.t,
            r.tx_latency,
            r.confirm_latency if confirm_latency is None else float(confirm_latency),
            r.ordering_latency,
            r.checkpoint_latency,
        )
        for r in records
    ]
    return rows_to_csv(JOINS_HEADER, rows)


def votes_csv(records: list[VoteRecord]) -> str:
    rows = [
        (r.size, r.config_number, r.gas_used, r.is_first_vote, r.is_update_vote)
        for r in records
    ]
    return rows_to_csv(VOTES_HEADER, rows)


def updates_csv(records: list[UpdateRecord], price) -> str:
    from bmsim.ledger import usd_cost

    rows = []
    for r in records:
        per_join = r.gas_per_join()
        usd = usd_cost(per_join, price) if per_join is not None else None
        rows.append((r.size, r.joiners, r.total_gas, per_join, usd))
    return rows_to_csv(UPDATES_HEADER, rows)


def configs_csv(records: list[ConfigRecord]) -> str:
    rows = [
        (r.number, r.size, r.height, r.time, ";".join(r.members))
        for r in records
    ]
    return rows_to_csv(CONFIGS_HEADER, rows)
