"""Reconfigurable replica: request ordering, checkpointed reconfiguration,
agreement on the observed registry state, and vote triggering.

Replicas are deterministic state machines driven by simulator events: message
delivery, total-order deliveries, checkpoint timers and the ledger's
confirmed-state change notifications.
All correct replicas process the same ordered log and therefore walk the same
configuration chain.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable

from bmsim.ledger import Ledger, LedgerTransaction
from bmsim.membership import (
    Configuration,
    NodeId,
    Policy,
    max_faults,
    policy_threshold,
    symmetric_difference,
)
from bmsim.simcore import Envelope, SimulationCore


class Behavior(enum.Enum):
    """Misbehaviors a corrupted node can adopt."""

    SILENT = "silent"
    WITHHOLD_VOTE = "withhold_vote"
    VOTE_BOGUS = "vote_bogus"
    DROP_MESSAGES = "drop_messages"  # also stops applying the ordered log
    STALE_QUORUM = "stale_quorum"


class TotalOrderBroadcast:
    """Idealized total-order broadcast with constant delivery latency.

    All subscribers see the same payloads in the same order; duplicates are
    suppressed by payload key.  Byzantine nodes may decline to broadcast but
    cannot reorder or fork the log.

    Every replica would apply a `tob_observed` entry (a member reporting a
    stored registry configuration) in the same way, so the log applies each
    one once, to the observation table it owns, and passes only the
    reconfiguration requests on to its subscribers.
    """

    def __init__(self, sim: SimulationCore, latency: float = 0.95):
        self.sim = sim
        self.latency = latency
        self.log: list[tuple] = []
        self._keys: set = set()
        self.delivered = 0         # the log position: entries delivered so far
        # stored configuration -> the members that reported seeing it, in the
        # order of first reports (a configuration's rank)
        self.observed: dict[Configuration, set[NodeId]] = {}
        self.observations = 0      # `tob_observed` entries applied
        # node_id -> (callback, first index it participates from)
        self._subscribers: dict[NodeId, tuple[Callable[[int, tuple], None], int]] = {}

    def broadcast(self, key, payload: tuple) -> bool:
        if key in self._keys:
            return False
        self._keys.add(key)
        index = len(self.log)
        self.log.append(payload)
        self.sim.schedule_in(self.latency, lambda: self._deliver(index), label="tob")
        return True

    def _deliver(self, index: int) -> None:
        payload = self.log[index]
        self.delivered = index + 1
        if payload[0] == "tob_observed":
            _, config, observer = payload
            self.observed.setdefault(config, set()).add(observer)
            self.observations += 1
            return
        for node_id in list(self._subscribers):
            callback, start = self._subscribers.get(node_id, (None, 0))
            if callback is not None and index >= start:
                callback(index, payload)

    def observed_at(self, position: int) -> dict[Configuration, set[NodeId]]:
        """The observation table as it stood after `position` deliveries."""
        if position == self.delivered:
            return self.observed
        table: dict[Configuration, set[NodeId]] = {}
        for payload in self.log[:position]:
            if payload[0] == "tob_observed":
                table.setdefault(payload[1], set()).add(payload[2])
        return table

    def subscribe(self, node_id: NodeId, callback: Callable[[int, tuple], None], start: int = 0) -> None:
        self._subscribers[node_id] = (callback, start)
        # replay already-delivered requests the newcomer has not applied yet
        for index in range(start, self.delivered):
            if self.log[index][0] != "tob_observed":
                callback(index, self.log[index])

    def unsubscribe(self, node_id: NodeId) -> None:
        self._subscribers.pop(node_id, None)


@dataclass
class ReconfigRequest:
    kind: str                      # "join" | "leave" | "evict"
    node: NodeId
    attempt: int
    proof: tuple = ()              # join: ((confirmer, sig), ...)
    signature: str = ""            # leave: the leaver's own signature
    pom: tuple = ()                # evict: opaque misbehavior certificate

    def key(self):
        return (self.kind, self.node, self.attempt)


@dataclass
class NodeParams:
    checkpoint_interval: float = 20.0
    policy: Policy = Policy.EVERY
    fixed_t: int | None = None
    revote_timeout: float = 1110.0
    leavers_vote: bool = True
    registration_fee: int = 100
    pom_validator: Callable[[NodeId, tuple], bool] = lambda node, pom: False


class BftNode:
    """One cluster replica plus its registry-observer side."""

    def __init__(
        self,
        sim: SimulationCore,
        node_id: NodeId,
        tob: TotalOrderBroadcast,
        ledger: Ledger,
        genesis: Configuration,
        params: NodeParams,
        monitor=None,
    ):
        self.sim = sim
        self.id = node_id
        self.tob = tob
        self.ledger = ledger
        self.params = params
        self.monitor = monitor

        self.c_cur = genesis
        self.c_last_voted = genesis
        self.pending: deque[ReconfigRequest] = deque()
        self.locally_observed: set[tuple] = set()
        self.app_state: bytes = b"app:0"
        self.active = False
        self.retired = False
        self.behaviors: set[Behavior] = set()
        self.adversary = None     # set when corrupted

        self._queued_keys: set = set()
        self._processed_keys: set = set()
        self._queued_nodes: set[NodeId] = set()
        self._announce_waiting: dict[NodeId, bool] = {}
        self._last_seen_stored_key: tuple = genesis.key()
        # the last answer of `latest_registry_config`, its rank in the log's
        # table (None: genesis) and the count of applied observations it was
        # computed at (None: recompute)
        self._agreed = genesis
        self._agreed_rank: int | None = None
        self._agreed_at: int | None = None
        # the log position a `drop_messages` replica stopped applying at
        self._frozen_at: int | None = None

        sim.register_handler(node_id, self.handle_envelope)
        ledger.add_observer(self.on_ledger_advance)
        # a node built mid-run syncs the chain confirmed so far
        self._observe_confirmed_config()

    # -- lifecycle -------------------------------------------------------------

    def activate(self, from_log_index: int = 0) -> None:
        self.active = True
        self.tob.subscribe(self.id, self.on_tob_deliver, start=from_log_index)

    def retire(self) -> None:
        self.active = False
        self.retired = True
        self.tob.unsubscribe(self.id)

    def corrupt(self, behaviors, adversary) -> None:
        """Adopt `behaviors`; a replica that starts dropping messages stops
        applying the ordered log where it stands."""
        if Behavior.DROP_MESSAGES in behaviors and self.active:
            self._frozen_at = self.tob.delivered
        self.behaviors.update(behaviors)
        self.adversary = adversary

    def adopt(
        self, app_state: bytes, config: Configuration, log_position: int, last_voted: tuple,
        agreed_rank: int | None,
    ) -> None:
        """Install state received in a final join response.

        The log position fixes the observation table the joiner shares with
        the responders, and the rank picks their last agreed configuration
        from it.  That and the last-voted configuration are replicated
        protocol state: replicas must share them or their vote triggers and
        checkpoint gates drift apart.
        """
        self.app_state = app_state
        self.c_cur = config
        self.c_last_voted = Configuration(last_voted[0], tuple(last_voted[1]))
        if agreed_rank is not None:
            self._agreed = list(self.tob.observed)[agreed_rank]
            self._agreed_rank = agreed_rank
        self._agreed_at = None
        if self._is_byz(Behavior.DROP_MESSAGES):
            self._frozen_at = log_position
        self.activate(from_log_index=log_position)

    # -- helpers -----------------------------------------------------------------

    def _t(self, config: Configuration | None = None) -> int:
        return policy_threshold(self.params.policy, config or self.c_cur, self.params.fixed_t)

    def _is_byz(self, behavior: Behavior) -> bool:
        return behavior in self.behaviors

    def _log_position(self) -> int:
        """Entries of the ordered log this replica has applied."""
        return self.tob.delivered if self._frozen_at is None else self._frozen_at

    def published(self) -> Configuration:
        """The stored configuration as of the ledger's confirmed height."""
        return self.ledger.confirmed_config()

    @property
    def _latest_cache(self) -> Configuration | None:
        """The last answer, while no observation has been applied since and
        neither `c_cur` nor the local view has changed."""
        return self._agreed if self._agreed_at == self.tob.observations else None

    def latest_registry_config(self) -> Configuration:
        """Highest-numbered stored configuration that enough current members
        (plus this node's own local observation) have reported seeing.

        Nothing at or below the last answer replaces it, and the last answer
        stands while no newer configuration has enough reports: it is genesis
        (public knowledge) or a configuration agreed on before, here or by the
        members whose final responses admitted this replica.
        """
        cached = self._latest_cache
        if cached is not None:
            return cached
        threshold = max_faults(self.c_cur) + 1
        members = set(self.c_cur.members)
        best, rank = self._agreed, self._agreed_rank
        for index, (config, observers) in enumerate(self.tob.observed_at(self._log_position()).items()):
            if config.number <= best.number:
                continue
            count = len(observers & members)
            if self.id in members and self.id not in observers and config.key() in self.locally_observed:
                count += 1
            if count >= threshold:
                best, rank = config, index
        self._agreed, self._agreed_rank = best, rank
        self._agreed_at = self.tob.observations
        return best

    # -- messaging ------------------------------------------------------------------

    def handle_envelope(self, env: Envelope) -> None:
        if self._is_byz(Behavior.SILENT) or self._is_byz(Behavior.DROP_MESSAGES):
            return
        kind = env.payload[0]
        if kind == "register_announce":
            self._on_register_announce(env.payload[1])
        elif kind == "join_request":
            self._on_join_request(env.payload)
        elif kind == "leave_request":
            self._on_leave_request(env.payload)
        elif kind == "evict_request":
            self._on_evict_request(env.payload)
        elif kind == "query":
            self._on_query(env.payload)

    def _serves_announce(self) -> bool:
        # listed members answer even after local retirement: a stale joiner
        # only knows the published membership
        if self.active:
            return True
        return self.retired and self.id in self.published().members

    def _on_register_announce(self, joiner: NodeId) -> None:
        if not self._serves_announce():
            return
        self._announce_waiting[joiner] = True
        self._maybe_confirm(joiner)

    def _maybe_confirm(self, joiner: NodeId) -> None:
        if not self._announce_waiting.get(joiner):
            return
        if self.ledger.registration_confirmed(joiner):
            sig = self.sim.auth.sign(self.id, ("register_confirm", joiner))
            self.sim.send(self.id, joiner, ("register_confirm", joiner, self.id, sig))
            self._announce_waiting[joiner] = False

    def _on_join_request(self, payload: tuple) -> None:
        if not self.active:
            return
        _, joiner, attempt, proof = payload
        self.tob.broadcast(("join", joiner, attempt), ("tob_join", joiner, attempt, proof))

    def _on_leave_request(self, payload: tuple) -> None:
        if not self.active:
            return
        _, node, attempt, sig = payload
        self.tob.broadcast(("leave", node, attempt), ("tob_leave", node, attempt, sig))

    def _on_evict_request(self, payload: tuple) -> None:
        if not self.active:
            return
        _, node, attempt, pom = payload
        self.tob.broadcast(("evict", node, attempt), ("tob_evict", node, attempt, pom))

    def _on_query(self, payload: tuple) -> None:
        _, client, request_id = payload
        if self._is_byz(Behavior.STALE_QUORUM) and self.adversary is not None:
            response = self.adversary.forged_payload
        elif self.active:
            response = self.app_state
        else:
            return  # correct retired nodes stay quiet toward clients
        sig = self.sim.auth.sign(self.id, ("query_response", request_id, response))
        self.sim.send(self.id, client, ("query_response", request_id, response, self.id, sig))

    # -- total order deliveries ---------------------------------------------------------

    def on_tob_deliver(self, index: int, payload: tuple) -> None:
        if self._is_byz(Behavior.DROP_MESSAGES):
            return
        kind = payload[0]
        if kind == "tob_join":
            _, joiner, attempt, proof = payload
            if joiner in self.c_cur.members:
                # a re-sent request from an already-admitted joiner whose
                # responses were lost: answer again instead of re-queueing
                if self.active:
                    self._send_final_response(joiner)
                return
            req = ReconfigRequest(kind="join", node=joiner, attempt=attempt, proof=proof)
            if self._valid_join(req):
                self._enqueue(req)
        elif kind == "tob_leave":
            _, node, attempt, sig = payload
            req = ReconfigRequest(kind="leave", node=node, attempt=attempt, signature=sig)
            if self._valid_leave(req):
                self._enqueue(req)
        elif kind == "tob_evict":
            _, node, attempt, pom = payload
            req = ReconfigRequest(kind="evict", node=node, attempt=attempt, pom=pom)
            if self.params.pom_validator(node, pom) and node in self.c_cur.members:
                self._enqueue(req)

    def _valid_join(self, req: ReconfigRequest) -> bool:
        if req.node in self.c_cur.members:
            return False
        needed = max_faults(self.c_cur) + 1
        members = set(self.c_cur.members)
        valid_confirmers = set()
        for confirmer, sig in req.proof:
            if confirmer not in members or confirmer == req.node:
                continue
            if self.sim.auth.verify(confirmer, ("register_confirm", req.node), sig):
                valid_confirmers.add(confirmer)
        return len(valid_confirmers) >= needed

    def _valid_leave(self, req: ReconfigRequest) -> bool:
        if req.node not in self.c_cur.members:
            return False
        return self.sim.auth.verify(req.node, ("leave_request", req.node), req.signature)

    def _enqueue(self, req: ReconfigRequest) -> None:
        if req.key() in self._queued_keys or req.key() in self._processed_keys:
            return
        if req.node in self._queued_nodes:
            return
        self._queued_keys.add(req.key())
        self._queued_nodes.add(req.node)
        self.pending.append(req)
        if self.monitor is not None:
            self.monitor.request_ordered(req.key(), self.sim.now, self.id)

    # -- ledger observation ---------------------------------------------------------------

    def on_ledger_advance(self) -> None:
        """Called at each block that confirms a stored configuration or an
        accepted registration."""
        self._observe_confirmed_config()
        for joiner, waiting in list(self._announce_waiting.items()):
            if waiting:
                self._maybe_confirm(joiner)

    def _observe_confirmed_config(self) -> None:
        stored = self.ledger.confirmed_config()
        key = stored.key()
        if key == self._last_seen_stored_key:
            return
        self._last_seen_stored_key = key
        self.locally_observed.add(key)
        self._agreed_at = None
        # a confirmed key never repeats, so each member reports it once
        if self.active and not self._is_byz(Behavior.SILENT):
            self.tob.broadcast(("observed", key, self.id), ("tob_observed", stored, self.id))

    # -- checkpointing ------------------------------------------------------------------------

    def on_checkpoint(self) -> None:
        if not self.active:
            return
        while self.pending:
            latest = self.latest_registry_config()
            if symmetric_difference(latest, self.c_cur) >= self._t():
                break
            req = self.pending.popleft()
            self._queued_nodes.discard(req.node)
            self._processed_keys.add(req.key())
            if not self._still_applicable(req):
                continue
            self._apply_request(req)
        self.maybe_vote()
        if self.retired:
            self.retire()

    def _still_applicable(self, req: ReconfigRequest) -> bool:
        if req.kind == "join":
            return req.node not in self.c_cur.members
        return req.node in self.c_cur.members

    def _apply_request(self, req: ReconfigRequest) -> None:
        self._agreed_at = None
        if req.kind == "join":
            self.c_cur = self.c_cur.with_member(req.node)
        else:
            self.c_cur = self.c_cur.without_member(req.node)
            if req.node == self.id:
                self.retired = True  # finalized after the checkpoint loop
        if self.monitor is not None:
            self.monitor.node_reconfigured(
                self.id, self.c_cur, req.key(), self.sim.now, self._t()
            )
        if req.kind == "join":
            self._send_final_response(req.node)

    def _send_final_response(self, joiner: NodeId) -> None:
        if self._is_byz(Behavior.SILENT):
            return
        body = (
            "final_response",
            joiner,
            self.app_state,
            self.c_cur.number,
            self.c_cur.members,
            self._log_position(),
            (self.c_last_voted.number, self.c_last_voted.members),
            self._agreed_rank,
        )
        sig = self.sim.auth.sign(self.id, body)
        self.sim.send(self.id, joiner, body + (self.id, sig))

    # -- voting -----------------------------------------------------------------------------------

    def maybe_vote(self) -> None:
        if symmetric_difference(self.c_last_voted, self.c_cur) < self._t():
            return
        published = self.published()
        if self.c_cur.number <= published.number:
            self.c_last_voted = self.c_cur
            return
        self.c_last_voted = self.c_cur
        if self.id not in published.members:
            return
        if self.id not in self.c_cur.members and not self.params.leavers_vote:
            return  # departing or departed, and departed nodes do not vote here
        if not self.active and not (self.retired and self.params.leavers_vote):
            return
        if self._is_byz(Behavior.WITHHOLD_VOTE) or self._is_byz(Behavior.SILENT):
            return
        # stagger responsibility: the first v members of the published
        # configuration vote immediately, later tiers only if the stored
        # configuration has not advanced by their turn
        rank = published.members.index(self.id)
        tier = rank // published.v
        target = self.c_cur
        delay = tier * self.params.revote_timeout
        if delay <= 0:
            self._submit_vote(target)
        else:
            self.sim.schedule_in(
                delay, lambda: self._backup_vote(target), label="backup-vote"
            )

    def _backup_vote(self, target: Configuration) -> None:
        if self.published().number >= target.number:
            return  # someone else's votes landed
        if self.c_cur.number != target.number:
            return  # superseded locally
        self._submit_vote(target)

    def _submit_vote(self, target: Configuration) -> None:
        if self._is_byz(Behavior.VOTE_BOGUS) and self.adversary is not None:
            target = self.adversary.bogus_config(self)
        tx = LedgerTransaction(
            kind="vote", submitter=self.id, submitted_at=self.sim.now, config=target
        )
        self.ledger.submit_tx(tx)
        if self.monitor is not None:
            self.monitor.vote_submitted(self.id, target, self.sim.now)


class JoinerAgent:
    """Drives one node through register, proof collection, request and
    admission."""

    ANNOUNCE_RETRY = 60.0
    REQUEST_RETRY = 300.0

    def __init__(self, node: BftNode, on_admitted: Callable[["JoinerAgent"], None] | None = None):
        self.node = node
        self.sim = node.sim
        self.ledger = node.ledger
        self.on_admitted = on_admitted

        self.started_at: float | None = None
        self.register_tx_id: int | None = None
        self.c_read: Configuration | None = None
        self.confirmations: dict[NodeId, str] = {}
        self.proof_done_at: float | None = None
        self.request_sent_at: float | None = None
        self.attempt = 0
        self.admitted = False
        self.admitted_at: float | None = None
        self.responses: dict[tuple, dict[NodeId, None]] = {}

    def start(self) -> None:
        self.started_at = self.sim.now
        node_id = self.node.id
        fee = self.node.params.registration_fee
        tx = LedgerTransaction(
            kind="register",
            submitter=node_id,
            submitted_at=self.sim.now,
            attached_funds=fee,
            node=node_id,
            fee=fee,
        )
        self.register_tx_id = self.ledger.submit_tx(tx)
        self.c_read = self.node.published()
        self.sim.register_handler(node_id, self.handle_envelope)
        self._announce()

    def _announce(self) -> None:
        if self.proof_done_at is not None:
            return
        for member in self.c_read.members:
            self.sim.send(self.node.id, member, ("register_announce", self.node.id))
        self.sim.schedule_in(self.ANNOUNCE_RETRY, self._announce, label="announce-retry")

    def handle_envelope(self, env: Envelope) -> None:
        kind = env.payload[0]
        if kind == "register_confirm":
            self._on_confirm(env.payload)
        elif kind == "final_response":
            self._on_final_response(env.payload)
        else:
            self.node.handle_envelope(env)

    def _on_confirm(self, payload: tuple) -> None:
        if self.admitted or self.proof_done_at is not None:
            self._record_confirm(payload)
            return
        if self._record_confirm(payload):
            needed = max_faults(self.c_read) + 1
            if len(self.confirmations) >= needed:
                self.proof_done_at = self.sim.now
                if self.node.monitor is not None:
                    self.node.monitor.proof_complete(self.node.id, self.sim.now)
                self._send_request()

    def _record_confirm(self, payload: tuple) -> bool:
        _, joiner, confirmer, sig = payload
        if joiner != self.node.id:
            return False
        if not self.sim.auth.verify(confirmer, ("register_confirm", joiner), sig):
            return False
        self.confirmations[confirmer] = sig
        return True

    def _send_request(self) -> None:
        if self.admitted:
            return
        self.attempt += 1
        self.request_sent_at = self.sim.now
        proof = tuple(sorted(self.confirmations.items()))
        payload = ("join_request", self.node.id, self.attempt, proof)
        for member in self.c_read.members:
            self.sim.send(self.node.id, member, payload)
        if self.node.monitor is not None:
            self.node.monitor.join_request_sent(self.node.id, self.sim.now)
        self.sim.schedule_in(self.REQUEST_RETRY, self._maybe_resend, label="request-retry")

    def _maybe_resend(self) -> None:
        if not self.admitted:
            self._send_request()

    def _on_final_response(self, payload: tuple) -> None:
        if self.admitted:
            return
        _, joiner, app_state, number, members, log_pos, last_voted, rank, responder, sig = payload
        body = ("final_response", joiner, app_state, number, members, log_pos, last_voted, rank)
        if not self.sim.auth.verify(responder, body, sig):
            return
        key = (app_state, number, members, log_pos, last_voted, rank)
        bucket = self.responses.setdefault(key, {})
        bucket[responder] = None
        config = Configuration(number, tuple(members))
        needed = max_faults(config) + 1
        if len(bucket) >= needed:
            self.admitted = True
            self.admitted_at = self.sim.now
            self.node.adopt(app_state, config, log_pos, last_voted, rank)
            self.sim.register_handler(self.node.id, self.node.handle_envelope)
            if self.node.monitor is not None:
                self.node.monitor.join_admitted(self.node.id, self.sim.now)
            if self.on_admitted is not None:
                self.on_admitted(self)


class LeaverAgent:
    """Sends the signed departure request for a current member."""

    def __init__(self, node: BftNode):
        self.node = node
        self.sim = node.sim
        self.attempt = 0

    def start(self) -> None:
        self.attempt += 1
        sig = self.sim.auth.sign(self.node.id, ("leave_request", self.node.id))
        payload = ("leave_request", self.node.id, self.attempt, sig)
        for member in self.node.c_cur.members:
            if member != self.node.id:
                self.sim.send(self.node.id, member, payload)
