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
from itertools import islice
from typing import Callable

from bmsim.errors import InvariantViolation
from bmsim.ledger import Ledger, LedgerTransaction
from bmsim.membership import (
    Configuration,
    NodeId,
    Policy,
    max_faults,
    policy_threshold,
    symmetric_difference,
)
from bmsim.metrics import RunMonitor
from bmsim.simcore import Envelope, SimulationCore


class Behavior(enum.Enum):
    """Misbehaviors a corrupted node can adopt."""

    SILENT = "silent"
    WITHHOLD_VOTE = "withhold_vote"
    VOTE_BOGUS = "vote_bogus"
    DROP_MESSAGES = "drop_messages"  # also stops applying the ordered log
    STALE_QUORUM = "stale_quorum"


@dataclass(slots=True, eq=False)
class Answer:
    """`BftNode.latest_registry_config`'s answer, its rank in the observation
    table (None: genesis) and the observation count it was computed at."""
    config: Configuration
    rank: int | None = None
    at: int | None = None


class TotalOrderBroadcast:
    """Idealized total-order broadcast with constant delivery latency.

    All subscribers see the same payloads in the same order; duplicate
    requests are suppressed by key.  Byzantine nodes may decline to broadcast
    but cannot reorder or fork the log.

    Every replica would apply a `tob_observed` entry (a member reporting a
    stored registry configuration) in the same way, so the log applies each
    one once, to the observation table it owns, and passes only the
    reconfiguration requests on to its subscribers.  Signatures verify the
    same at every replica too, so the log checks a request's signatures once,
    on append, and replicas only test membership.
    """

    def __init__(self, sim: SimulationCore, latency: float = 0.95):
        self.sim = sim
        self.latency = latency
        self.log: list[tuple] = []
        self._keys: set = set()    # the keys of the requests in the log
        self.delivered = 0         # the log position: entries delivered so far
        # stored configuration -> the members that reported seeing it, in the
        # order of first reports (a configuration's rank)
        self.observed: dict[Configuration, set[NodeId]] = {}
        self.observations = 0      # `tob_observed` entries applied
        # (configuration held, frozen log position or None) -> the registry
        # answer of every replica with those inputs
        self.answers: dict[tuple, Answer] = {}
        self._subscribers: dict[NodeId, Callable[[int, tuple], None]] = {}

    def broadcast(self, key, payload: tuple) -> bool:
        """Append `payload` unless a request with `key` is in the log already.
        A report of a stored configuration passes no key (None): a member
        reports each stored number once, and `_deliver` checks that."""
        if key is not None:
            if key in self._keys:
                return False
            self._keys.add(key)
        index = len(self.log)
        self.log.append(self._checked(payload))
        self.sim.schedule_in(self.latency, lambda: self._deliver(index), label="tob")
        return True

    def _checked(self, payload: tuple) -> tuple:
        """A join's proof becomes the confirmers (the joiner left out) whose
        tags verify; a leave's tag becomes whether it verifies."""
        kind, auth = payload[0], self.sim.auth
        if kind == "tob_join":
            _, joiner, attempt, proof = payload
            signers = frozenset(
                c for c, sig in proof if c != joiner and auth.verify(c, ("register_confirm", joiner), sig)
            )
            return (kind, joiner, attempt, signers)
        if kind == "tob_leave":
            _, node, attempt, sig = payload
            return (kind, node, attempt, auth.verify(node, ("leave_request", node), sig))
        return payload

    def _deliver(self, index: int) -> None:
        payload = self.log[index]
        self.delivered = index + 1
        if payload[0] == "tob_observed":
            _, config, observer = payload
            observers = self.observed.setdefault(config, set())
            if observer in observers:
                raise InvariantViolation(f"{observer} reported configuration #{config.number} twice")
            observers.add(observer)
            self.observations += 1
            return
        # no delivery subscribes or unsubscribes, and every subscriber
        # started at or below this index
        for callback in self._subscribers.values():
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

    def answer(self, config: Configuration, frozen_at: int | None, floor: Answer) -> Answer:
        """The registry answer of the replicas holding `config` at log position
        `frozen_at` (None: the end).  Those inputs fix it: while a replica holds
        `config`, when it asks does not change its answer, and `on_checkpoint`
        asks before each apply.  A new one starts from `floor`, the answer its
        first holder held."""
        answer = self.answers.get((config, frozen_at))
        if answer is None:
            answer = self.answers[config, frozen_at] = Answer(floor.config, floor.rank)
        return answer

    def subscribe(self, node_id: NodeId, callback: Callable[[int, tuple], None], start: int = 0) -> None:
        self._subscribers[node_id] = callback
        # replay already-delivered requests the newcomer has not applied yet
        for index in range(start, self.delivered):
            if self.log[index][0] != "tob_observed":
                callback(index, self.log[index])

    def unsubscribe(self, node_id: NodeId) -> None:
        self._subscribers.pop(node_id, None)


@dataclass(slots=True)
class ReconfigRequest:
    kind: str                      # "join" | "leave" | "evict"
    node: NodeId
    attempt: int

    def key(self):
        return (self.kind, self.node, self.attempt)


@dataclass
class NodeParams:
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
        monitor: RunMonitor,
        on_due: Callable[[], None] = lambda: None,
    ):
        self.sim = sim
        self.id = node_id
        self.tob = tob
        self.ledger = ledger
        self.params = params
        self.monitor = monitor
        self.on_due = on_due

        self.c_cur = genesis
        self.c_last_voted = genesis
        self.pending: deque[ReconfigRequest] = deque()
        self.app_state: bytes = b"app:0"
        self.active = False
        self.retired = False
        self.behaviors: set[Behavior] = set()
        self.adversary = None     # set when corrupted

        self._queued_nodes: set[NodeId] = set()
        # joiners announced here and not yet confirmed: a dict, not a set, so
        # confirmations go out in arrival order whatever the hash seed
        self._announce_waiting: dict[NodeId, None] = {}
        # stored numbers only increase, so a number names a stored configuration
        self._last_seen_stored_key: int = genesis.number
        # the registry answer, private until `activate` takes the log's entry
        self._answer = Answer(genesis)
        # the log position a `drop_messages` replica stopped applying at
        self._frozen_at: int | None = None

        sim.register_handler(node_id, self.handle_envelope)
        ledger.add_observer(self.on_ledger_advance)
        # a node built mid-run syncs the chain confirmed so far
        self._observe_confirmed_config()

    # -- lifecycle -------------------------------------------------------------

    def activate(self, from_log_index: int = 0) -> None:
        self.active = True
        self._answer = self.tob.answer(self.c_cur, self._frozen_at, self._answer)
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
            self._answer = self.tob.answer(self.c_cur, self._frozen_at, self._answer)
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
        self.c_last_voted = Configuration(*last_voted)
        if agreed_rank is not None:
            self._answer = Answer(list(self.tob.observed)[agreed_rank], agreed_rank)
        self.on_due()
        if self._is_byz(Behavior.DROP_MESSAGES):
            self._frozen_at = log_position
        self.activate(from_log_index=log_position)

    # -- helpers -----------------------------------------------------------------

    def _t(self, config: Configuration | None = None) -> int:
        return policy_threshold(self.params.policy, (config or self.c_cur).size, self.params.fixed_t)

    def _is_byz(self, behavior: Behavior) -> bool:
        # a correct replica's empty set answers without hashing the enum
        return bool(self.behaviors) and behavior in self.behaviors

    def _log_position(self) -> int:
        """Entries of the ordered log this replica has applied."""
        return self.tob.delivered if self._frozen_at is None else self._frozen_at

    def published(self) -> Configuration:
        """The stored configuration as of the ledger's confirmed height."""
        return self.ledger.confirmed_config()

    def due(self) -> bool:
        """Whether a checkpoint would change anything: a request is pending, or
        `c_cur` is `_t()` or more from `c_last_voted`, which `maybe_vote` moves."""
        return bool(self.pending) or symmetric_difference(self.c_last_voted, self.c_cur) >= self._t()

    @property
    def _latest_cache(self) -> Configuration | None:
        """The answer, while no observation has been applied since it was computed."""
        answer = self._answer
        return answer.config if answer.at == self.tob.observations else None

    def latest_registry_config(self) -> Configuration:
        """Highest-numbered stored configuration that f+1 current members have
        reported seeing on the ordered log.

        Nothing at or below the last answer replaces it, and the last answer
        stands while no newer configuration has enough reports: it is genesis
        (public knowledge) or a configuration agreed on before, here or by the
        members whose final responses admitted this replica.

        The scan starts after the last answer's rank, and that is exact.  A
        configuration's rank is the order of its first report, members report
        a stored configuration when the ledger confirms it, and the numbers
        the ledger stores only increase; so every entry at or below that rank
        has a number at or below the last answer's and could not replace it.
        """
        answer, observations = self._answer, self.tob.observations
        if answer.at == observations:
            return answer.config
        threshold = max_faults(self.c_cur.size) + 1
        members = self.c_cur.member_set
        best, rank = answer.config, answer.rank
        start = 0 if rank is None else rank + 1
        entries = islice(self.tob.observed_at(self._log_position()).items(), start, None)
        for index, (config, observers) in enumerate(entries, start):
            if config.number > best.number and len(observers & members) >= threshold:
                best, rank = config, index
        answer.config, answer.rank, answer.at = best, rank, observations
        return best

    # -- messaging ------------------------------------------------------------------

    def handle_envelope(self, env: Envelope) -> None:
        behaviors = self.behaviors
        if behaviors and (Behavior.SILENT in behaviors or Behavior.DROP_MESSAGES in behaviors):
            return
        kind = env.payload[0]
        if kind == "register_announce":
            self._on_register_announce(env.payload[1])
        elif kind in ("join_request", "leave_request", "evict_request"):
            self._on_request(env.payload)
        elif kind == "query":
            self._on_query(env.payload)

    def _serves_announce(self) -> bool:
        # listed members answer even after local retirement: a stale joiner
        # only knows the published membership
        if self.active:
            return True
        return self.retired and self.id in self.published().members

    def _on_register_announce(self, joiner: NodeId) -> None:
        # A waiting joiner's registration is unconfirmed: the block that
        # confirms a registration calls `on_ledger_advance` on every replica,
        # which confirms and drops every joiner waiting there.  So a repeat
        # announce would confirm nothing, and the joiner keeps its place.
        if joiner in self._announce_waiting or not self._serves_announce():
            return
        self._announce_waiting[joiner] = None
        self._maybe_confirm(joiner)

    def _maybe_confirm(self, joiner: NodeId) -> None:
        if self.ledger.registration_confirmed(joiner):
            sig = self.sim.auth.sign(self.id, ("register_confirm", joiner))
            self.sim.send(self.id, joiner, ("register_confirm", joiner, self.id, sig))
            del self._announce_waiting[joiner]

    def _on_request(self, payload: tuple) -> None:
        if not self.active:
            return
        request, node, attempt, evidence = payload
        kind = request.removesuffix("_request")
        self.tob.broadcast((kind, node, attempt), ("tob_" + kind, node, attempt, evidence))

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
        """Apply an ordered request whose signatures the log has checked."""
        if self._is_byz(Behavior.DROP_MESSAGES):
            return
        kind, node, attempt, evidence = payload
        members = self.c_cur.member_set
        if kind == "tob_join":
            if node in members:
                # a re-sent request from an already-admitted joiner whose
                # responses were lost: answer again instead of re-queueing
                if self.active:
                    self._send_final_response(node)
                return
            valid = len(evidence & members) > max_faults(self.c_cur.size)
        elif kind == "tob_leave":
            valid = evidence and node in members
        else:
            valid = self.params.pom_validator(node, evidence) and node in members
        if valid:
            self._enqueue(ReconfigRequest(kind.removeprefix("tob_"), node, attempt))

    def _enqueue(self, req: ReconfigRequest) -> None:
        # the log orders each key once; a joiner may re-send under a new one
        if req.node in self._queued_nodes:
            return
        self._queued_nodes.add(req.node)
        self.pending.append(req)
        self.on_due()
        self.monitor.request_ordered(req.key(), self.sim.now, self.id)

    # -- ledger observation ---------------------------------------------------------------

    def on_ledger_advance(self) -> None:
        """Called at each block that confirms a stored configuration or an
        accepted registration."""
        self._observe_confirmed_config()
        if self._announce_waiting:
            for joiner in list(self._announce_waiting):
                self._maybe_confirm(joiner)

    def _observe_confirmed_config(self) -> None:
        stored = self.ledger.confirmed_config()
        number = stored.number
        if number == self._last_seen_stored_key:
            return
        self._last_seen_stored_key = number
        # stored numbers only increase and a scenario never reuses a node id
        # (`ScenarioConfig.validate` rejects a rejoin), so each member reports
        # a number once and the report needs no key
        if self.active and not self._is_byz(Behavior.SILENT):
            self.tob.broadcast(None, ("tob_observed", stored, self.id))

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
            if not self._still_applicable(req):
                continue
            self._apply_request(req)
        self.maybe_vote()
        if self.retired:
            self.retire()

    def _still_applicable(self, req: ReconfigRequest) -> bool:
        if req.kind == "join":
            return req.node not in self.c_cur.member_set
        return req.node in self.c_cur.member_set

    def _apply_request(self, req: ReconfigRequest) -> None:
        if req.kind == "join":
            self.c_cur = self.c_cur.with_member(req.node)
        else:
            self.c_cur = self.c_cur.without_member(req.node)
            if req.node == self.id:
                self.retired = True  # finalized after the checkpoint loop
        self._answer = self.tob.answer(self.c_cur, self._frozen_at, self._answer)
        self.monitor.node_reconfigured(self.id, self.c_cur, req.key(), self.sim.now, self._t())
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
            self._answer.rank,
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
        if self.id not in published.member_set:
            return
        if self.id not in self.c_cur.member_set and not self.params.leavers_vote:
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
        self.monitor.vote_submitted(self.id, target, self.sim.now)


class JoinerAgent:
    """Drives one node through register, proof collection, request and
    admission, and calls `on_admitted` (if given) once admitted."""

    ANNOUNCE_RETRY = 60.0
    REQUEST_RETRY = 300.0

    def __init__(self, node: BftNode, on_admitted: Callable[[], None] | None = None):
        self.node = node
        self.on_admitted = on_admitted
        self.sim = node.sim
        self.ledger = node.ledger

        self.register_tx_id: int | None = None
        self.c_read: Configuration | None = None
        self.confirmations: dict[NodeId, str] = {}
        self.proof_done_at: float | None = None
        self.attempt = 0
        self.admitted = False
        self.responses: dict[tuple, dict[NodeId, None]] = {}

    def start(self) -> None:
        node_id = self.node.id
        fee = self.node.params.registration_fee
        tx = LedgerTransaction(
            kind="register",
            submitter=node_id,
            submitted_at=self.sim.now,
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
        sim, node_id = self.sim, self.node.id
        payload = ("register_announce", node_id)
        for member in self.c_read.members:
            sim.send(node_id, member, payload)
        sim.schedule_in(self.ANNOUNCE_RETRY, self._announce, label="announce-retry")

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
            needed = max_faults(self.c_read.size) + 1
            if len(self.confirmations) >= needed:
                self.proof_done_at = self.sim.now
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
        sim, node_id = self.sim, self.node.id
        proof = tuple(sorted(self.confirmations.items()))
        payload = ("join_request", node_id, self.attempt, proof)
        for member in self.c_read.members:
            sim.send(node_id, member, payload)
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
        if len(bucket) > max_faults(len(members)):
            self.admitted = True
            # the responders' own object, from the interning table
            self.node.adopt(app_state, Configuration(number, members), log_pos, last_voted, rank)
            self.sim.register_handler(self.node.id, self.node.handle_envelope)
            self.node.monitor.join_admitted(self.node.id, self.sim.now)
            if self.on_admitted is not None:
                self.on_admitted()


class LeaverAgent:
    """Sends the signed departure request for a current member."""

    def __init__(self, node: BftNode):
        self.node = node
        self.sim = node.sim
        self.attempt = 0

    def start(self) -> None:
        self.attempt += 1
        sim, node_id = self.sim, self.node.id
        sig = sim.auth.sign(node_id, ("leave_request", node_id))
        payload = ("leave_request", node_id, self.attempt, sig)
        for member in self.node.c_cur.members:
            if member != node_id:
                sim.send(node_id, member, payload)
