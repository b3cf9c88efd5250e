"""Replica behavior: request validation on the ordered log, request queueing,
observation quorums, checkpoint gating and vote staggering."""

import pytest

from bmsim.contract import RegistryContract
from bmsim.errors import InvariantViolation
from bmsim.ledger import Ledger, LedgerTransaction
from bmsim.membership import Configuration, Policy
from bmsim.metrics import RunMonitor
from bmsim.node import (
    Behavior,
    BftNode,
    JoinerAgent,
    NodeParams,
    TotalOrderBroadcast,
)
from bmsim.scenario import growth_scenario
from bmsim.simcore import SimulationCore
from bmsim.simulation import SimulationRun


def genesis(n=4):
    return Configuration(0, tuple(f"n{i}" for i in range(n)))


class Harness:
    def __init__(self, n=4, seed=1, policy=Policy.EVERY, fixed_t=None, pom_ok=()):
        self.sim = SimulationCore(seed=seed)
        self.genesis = genesis(n)
        self.contract = RegistryContract(self.genesis, cost=100)
        self.ledger = Ledger(self.sim, self.contract)
        self.tob = TotalOrderBroadcast(self.sim)
        self.monitor = RunMonitor(self.sim)
        self.monitor.contract = self.contract
        params = NodeParams(policy=policy, fixed_t=fixed_t,
                            pom_validator=lambda node, pom: node in pom_ok)
        self.nodes = {}
        for member in self.genesis.members:
            node = BftNode(self.sim, member, self.tob, self.ledger, self.genesis, params, self.monitor)
            node.activate(0)
            self.nodes[member] = node

    def observe(self, config, observer):
        """Order and deliver `observer`'s report that `config` is stored."""
        self.tob.broadcast(None, ("tob_observed", config, observer))
        self.sim.run(until=self.sim.now + self.tob.latency)

    def order(self, kind, node, evidence, attempt=1):
        """Order a `kind` request for `node` carrying `evidence` (a join's
        proof, a leave's signature, an evict's certificate) and deliver it."""
        self.tob.broadcast((kind, node, attempt), ("tob_" + kind, node, attempt, evidence))
        self.sim.run(until=self.sim.now + self.tob.latency)

    def order_join(self, joiner):
        """Order `joiner`'s request on the log and run every member's checkpoint."""
        self.order("join", joiner, self.confirm_proof(joiner, list(self.nodes)))
        for node in self.nodes.values():
            node.on_checkpoint()

    def confirm_proof(self, joiner, confirmers):
        self.sim.auth.register(joiner)
        return tuple(
            (c, self.sim.auth.sign(c, ("register_confirm", joiner))) for c in confirmers
        )


def test_join_proof_threshold_boundary():
    h = Harness()
    node = h.nodes["n0"]
    h.order("join", "j1", h.confirm_proof("j1", ["n0"]))
    assert not node.pending  # one confirmation, below f+1 = 2
    h.order("join", "j1", h.confirm_proof("j1", ["n0", "n1"]), attempt=2)
    assert [req.key() for req in node.pending] == [("join", "j1", 2)]


def test_join_proof_superset_still_valid():
    h = Harness()
    node = h.nodes["n0"]
    h.order("join", "j1", h.confirm_proof("j1", ["n0", "n1", "n2", "n3"]))
    assert len(node.pending) == 1


def test_join_proof_rejects_non_member_confirmers():
    h = Harness()
    h.sim.auth.register("x1")
    h.sim.auth.register("x2")
    node = h.nodes["n0"]
    h.order("join", "j1", h.confirm_proof("j1", ["x1", "x2"]))
    assert not node.pending


def test_join_proof_forged_confirmation_does_not_count():
    h = Harness()
    node = h.nodes["n0"]
    tags = dict(h.confirm_proof("j1", ["n0", "n2"]))
    # n1's entry carries n2's tag, so only n0's confirmation verifies
    h.order("join", "j1", (("n0", tags["n0"]), ("n1", tags["n2"])))
    assert h.tob.log[-1][3] == frozenset({"n0"})
    assert not node.pending


def test_leave_requires_own_signature():
    h = Harness()
    node = h.nodes["n0"]
    h.order("leave", "n1", h.sim.auth.sign("n2", ("leave_request", "n1")))
    assert not node.pending  # forged
    h.order("leave", "n1", h.sim.auth.sign("n1", ("leave_request", "n1")), attempt=2)
    assert [req.key() for req in node.pending] == [("leave", "n1", 2)]


def test_evict_needs_valid_pom():
    h = Harness(pom_ok=("n2",))
    node = h.nodes["n0"]
    h.order("evict", "n2", ("pom", "n2"))
    assert len(node.pending) == 1
    h.order("evict", "n3", ("pom", "n3"))
    assert len(node.pending) == 1  # no proof available for n3


def test_duplicate_tob_requests_suppressed():
    # a joiner that re-sends its request is ordered twice, under two keys,
    # but queued once
    h = Harness()
    node = h.nodes["n0"]
    proof = h.confirm_proof("j1", ["n0", "n1"])
    h.order("join", "j1", proof)
    h.order("join", "j1", proof, attempt=2)
    assert len(node.pending) == 1


def test_tob_key_dedup_single_delivery():
    sim = SimulationCore(seed=1)
    tob = TotalOrderBroadcast(sim)
    seen = []
    tob.subscribe("watcher", lambda i, p: seen.append(p))
    tob.broadcast(("k", 1), ("payload", 1))
    tob.broadcast(("k", 1), ("payload", 1))
    sim.run()
    assert len(seen) == 1


def test_observation_quorum_examples():
    h = Harness()
    node = h.nodes["n0"]
    c1 = Configuration(1, genesis().members + ("j1",))
    # a single observer (below f+1 = 2) does not establish the configuration
    h.observe(c1, "n1")
    assert node.latest_registry_config().number == 0
    h.observe(c1, "n2")
    assert node.latest_registry_config().number == 1


def test_repeated_observation_report_is_a_violation():
    # reports carry no key: a member reports each stored number once, and
    # the log checks that as it applies the report
    h = Harness()
    c1 = Configuration(1, genesis().members + ("j1",))
    h.observe(c1, "n1")
    with pytest.raises(InvariantViolation, match="n1 reported configuration #1 twice"):
        h.observe(c1, "n1")


def test_higher_number_without_quorum_not_latest():
    h = Harness()
    node = h.nodes["n0"]
    c1 = Configuration(1, genesis().members + ("j1",))
    c2 = Configuration(2, genesis().members + ("j1", "j2"))
    for observer in ("n1", "n2"):
        h.observe(c1, observer)
    h.observe(c2, "n3")
    assert node.latest_registry_config().number == 1


def test_fake_config_from_byzantine_never_latest():
    h = Harness()
    node = h.nodes["n0"]
    fake = Configuration(9, ("evil0", "evil1", "evil2", "evil3"))
    h.observe(fake, "n3")
    assert node.latest_registry_config().number == 0


def test_agreed_config_outlives_its_quorum_and_late_old_reports():
    h = Harness(policy=Policy.FIXED, fixed_t=3)
    node = h.nodes["n0"]
    c1 = Configuration(1, genesis().members + ("j1",))
    for observer in ("n1", "n2"):
        h.observe(c1, observer)
    assert node.latest_registry_config() == c1
    # growing to 7 members raises f+1 to 3, above c1's two reports
    for joiner in ("j1", "j2", "j3"):
        h.order_join(joiner)
    assert node.c_cur.size == 7
    assert node.latest_registry_config() == c1
    # a late report of an older configuration must not bring it back
    h.observe(h.genesis, "n3")
    assert node.latest_registry_config() == c1
    # a joiner admitted now takes the members' agreed answer from its
    # final responses, though c1 has too few reports under its view
    late = BftNode(h.sim, "j4", h.tob, h.ledger, h.genesis, node.params, h.monitor)
    agent = JoinerAgent(late)
    h.sim.register_handler("j4", agent.handle_envelope)
    h.order_join("j4")
    h.sim.run(until=h.sim.now + 10.0)
    assert agent.admitted and late.c_cur == node.c_cur
    assert late.latest_registry_config() == c1


def test_dropping_replica_stops_applying_the_log():
    h = Harness()
    node = h.nodes["n0"]
    h.order("join", "j1", h.confirm_proof("j1", ["n0", "n1"]))
    node.corrupt({Behavior.DROP_MESSAGES}, adversary=None)
    c1 = Configuration(1, genesis().members + ("j9",))
    for observer in ("n1", "n2"):
        h.observe(c1, observer)
    assert h.nodes["n1"].latest_registry_config() == c1
    assert node.latest_registry_config() == h.genesis
    # the join ordered before it began dropping is still applied, and the
    # final response carries the log position it stopped at
    responses = []
    h.sim.register_handler("j1", lambda env: responses.append(env.payload))
    node.on_checkpoint()
    h.sim.run(until=h.sim.now + 10.0)
    assert h.tob.delivered == 3
    assert [r[5] for r in responses] == [1]


def test_checkpoint_gate_defers_when_registry_behind():
    h = Harness()
    node = h.nodes["n0"]
    h.order("join", "j1", h.confirm_proof("j1", ["n0", "n1"]))
    # registry is seen at genesis; after one local reconfig the difference
    # reaches t=1 and the next request must wait
    h.order("join", "j2", h.confirm_proof("j2", ["n0", "n1"]))
    node.on_checkpoint()
    assert node.c_cur.number == 1
    assert len(node.pending) == 1  # j2 deferred until the registry catches up


def test_checkpoint_processes_batch_under_fixed_threshold():
    h = Harness(policy=Policy.FIXED, fixed_t=2)
    node = h.nodes["n0"]
    for joiner in ("j1", "j2"):
        h.order("join", joiner, h.confirm_proof(joiner, ["n0", "n1"]))
    node.on_checkpoint()
    assert node.c_cur.number == 2
    assert node.c_cur.size == 6


def test_vote_trigger_respects_threshold():
    h = Harness(policy=Policy.FIXED, fixed_t=2)
    node = h.nodes["n0"]
    submitted = []
    node._submit_vote = lambda target: submitted.append(target.number)
    h.order("join", "j1", h.confirm_proof("j1", ["n0", "n1"]))
    node.on_checkpoint()
    assert submitted == []  # diff 1 < t=2
    h.order("join", "j2", h.confirm_proof("j2", ["n0", "n1"]))
    node.on_checkpoint()
    assert submitted == [2]  # diff reached 2


def test_only_threshold_many_members_vote_immediately():
    h = Harness()
    h.order("join", "j1", h.confirm_proof("j1", [f"n{i}" for i in range(4)]))
    for node in h.nodes.values():
        node.on_checkpoint()
    h.sim.run(until=1.0)
    pending_votes = [r for r in h.ledger.records.values() if r.tx.kind == "vote"]
    # v = f(4)+1 = 2 responsible voters; the other two hold back as backups
    assert len(pending_votes) == 2
    assert {r.tx.submitter for r in pending_votes} == {"n0", "n1"}


def test_backup_tier_votes_when_responsible_withhold():
    h = Harness()
    h.nodes["n0"].behaviors.add(Behavior.WITHHOLD_VOTE)
    h.nodes["n1"].behaviors.add(Behavior.WITHHOLD_VOTE)
    h.order("join", "j1", h.confirm_proof("j1", [f"n{i}" for i in range(4)]))
    for node in h.nodes.values():
        node.on_checkpoint()
    h.sim.run(until=h.nodes["n2"].params.revote_timeout + 5.0)
    votes = [r for r in h.ledger.records.values() if r.tx.kind == "vote"]
    assert {r.tx.submitter for r in votes} == {"n2", "n3"}


def test_backup_cancelled_after_publication_observed():
    h = Harness()
    node = h.nodes["n2"]  # rank 2, tier 1 backup
    h.order("join", "j1", h.confirm_proof("j1", [f"n{i}" for i in range(4)]))
    node.on_checkpoint()
    # the responsible voters' votes land and are confirmed before the backup
    # fires (inclusion plus 37 confirmations of about 15 s)
    target = node.c_cur
    for voter in ("n0", "n1"):
        h.ledger.submit_tx(
            LedgerTransaction(kind="vote", submitter=voter, submitted_at=0.0, config=target)
        )
    h.ledger.start()
    h.sim.run(until=node.params.revote_timeout + 5.0)
    assert node.published() is target
    votes = [r for r in h.ledger.records.values() if r.tx.kind == "vote"]
    assert node.id not in {r.tx.submitter for r in votes}


@pytest.mark.parametrize("leavers_vote,expect_votes", [(True, 1), (False, 0)])
def test_departing_member_vote_follows_leaver_policy(leavers_vote, expect_votes):
    h = Harness()
    node = h.nodes["n0"]  # rank 0: responsible voter if eligible
    node.params = NodeParams(leavers_vote=leavers_vote)
    submitted = []
    node._submit_vote = lambda target: submitted.append(target.number)
    h.order("leave", "n0", h.sim.auth.sign("n0", ("leave_request", "n0")))
    node.on_checkpoint()
    assert not node.active and node.retired
    assert len(submitted) == expect_votes


def test_silent_behavior_drops_everything():
    h = Harness()
    node = h.nodes["n0"]
    node.behaviors.add(Behavior.SILENT)
    submitted = []
    node._submit_vote = lambda target: submitted.append(target)
    h.order("join", "j1", h.confirm_proof("j1", ["n1", "n2"]))
    node.on_checkpoint()
    assert submitted == []


def test_repeat_announce_waits_until_the_registration_confirms(monkeypatch):
    h = Harness()
    node = h.nodes["n0"]
    confirms = []
    send = h.sim.send

    def recording_send(sender, receiver, payload):
        if payload[0] == "register_confirm":
            confirms.append((sender, receiver))
        send(sender, receiver, payload)

    monkeypatch.setattr(h.sim, "send", recording_send)
    for joiner in ("j1", "j2"):
        h.ledger.submit_tx(
            LedgerTransaction(kind="register", submitter=joiner, submitted_at=0.0, node=joiner, fee=100)
        )
    h.ledger.start()
    node._on_register_announce("j1")
    node._on_register_announce("j2")
    # before the registration confirms, a repeat changes nothing
    state = h.sim.rng.getstate()
    node._on_register_announce("j1")
    assert list(node._announce_waiting) == ["j1", "j2"]
    assert confirms == [] and h.sim.rng.getstate() == state
    # the confirming block confirms each waiting joiner once
    while not all(h.ledger.registration_confirmed(j) for j in ("j1", "j2")):
        h.sim.run(until=h.sim.now + 15.0)
    assert sorted(confirms) == [("n0", "j1"), ("n0", "j2")]
    assert not node._announce_waiting
    # a repeat after that is answered again, once
    confirms.clear()
    node._on_register_announce("j1")
    assert confirms == [("n0", "j1")]
    assert not node._announce_waiting


def test_adopted_replica_checks_its_vote_at_first_checkpoint(monkeypatch):
    # the founders' first checkpoint would change nothing, so the first tick
    # visits none; the responders last voted at genesis and the joiner's
    # configuration is t = 1 away from it: the tick must visit the joiner
    # though nothing is pending, or its vote gate drifts from the responders'
    visited = []
    checkpoint = BftNode.on_checkpoint

    def counted(node):
        visited.append(node.id)
        checkpoint(node)

    monkeypatch.setattr(BftNode, "on_checkpoint", counted)
    run = SimulationRun(growth_scenario(Policy.EVERY, 4, 5, seed=1))
    run._checkpoint_tick()
    assert visited == []
    joiner = run._make_node("j1")
    config = run.genesis.with_member("j1")
    joiner.adopt(b"app:0", config, 0, run.genesis.key(), None)
    assert not joiner.pending and joiner.c_last_voted == run.genesis
    visited.clear()
    run._checkpoint_tick()
    assert visited == ["j1"]
    assert joiner.c_last_voted == config


def test_node_built_mid_run_starts_from_confirmed_config():
    h = Harness()
    target = Configuration(1, h.genesis.members + ("j1",))
    for voter in ("n0", "n1"):
        h.ledger.submit_tx(
            LedgerTransaction(kind="vote", submitter=voter, submitted_at=0.0, config=target)
        )
    h.ledger.start()
    h.sim.run(until=1500.0)  # inclusion plus 37 confirmations of about 15 s
    assert h.ledger.confirmed_config() == target
    late = BftNode(h.sim, "j1", h.tob, h.ledger, h.genesis, NodeParams(), h.monitor)
    assert late.latest_registry_config() == target
    assert late._last_seen_stored_key == target.number


def test_replicas_answer_alike_from_the_ordered_log(monkeypatch):
    """f = 1, so a configuration needs two reports from current members.  The
    answer is a function of the ordered log: a member that saw the
    configuration confirmed but has no report in the table counts nothing
    for it, so n0, the one reporter n1 and a joiner built after the
    confirmation answer alike, and the founders share one answer."""
    h = Harness()
    target = Configuration(1, h.genesis.members + ("j1",))
    for voter in ("n0", "n1"):
        h.ledger.submit_tx(
            LedgerTransaction(kind="vote", submitter=voter, submitted_at=0.0, config=target)
        )
    monkeypatch.setattr(h.tob, "broadcast", lambda key, payload: False)   # no report is ordered
    h.ledger.start()
    h.sim.run(until=1500.0)
    monkeypatch.undo()
    assert h.ledger.confirmed_config() is target
    late = BftNode(h.sim, "j1", h.tob, h.ledger, h.genesis, NodeParams(), h.monitor)
    late.adopt(b"app:0", target, h.tob.delivered, target.key(), None)
    replicas = (h.nodes["n0"], h.nodes["n1"], late)
    h.observe(target, "n1")
    assert [node.latest_registry_config() for node in replicas] == [h.genesis] * 3
    assert h.nodes["n0"]._answer is h.nodes["n1"]._answer is not late._answer
    h.observe(target, "n2")
    assert [node.latest_registry_config() for node in replicas] == [target] * 3


def test_when_a_replica_is_asked_does_not_change_its_answer(monkeypatch):
    """While `c_cur` stays, the threshold and the members stay and observer
    sets only grow, so a replica asked after every observation ends with the
    answer and rank of one asked only at the end.  f = 2, so a configuration
    needs three reports; the asked replica n0 saw configuration 1 confirmed,
    which counts nothing beyond its report.  Reports come in the order of
    their numbers, as confirmations do."""
    c1 = Configuration(1, genesis(7).members + ("j1",))
    c2 = Configuration(2, c1.members + ("j2",))
    c3 = Configuration(3, c2.members + ("j3",))
    reports = [
        (c1, "n0"), (c2, "n2"), (c1, "n2"),
        (c1, "n3"),    # three reports, n0's among them
        (c2, "n3"),    # two reports
        (c3, "n4"), (c1, "n4"),
    ]

    def replay(ask_each):
        h = Harness(n=7)
        for voter in ("n0", "n1", "n2"):
            h.ledger.submit_tx(
                LedgerTransaction(kind="vote", submitter=voter, submitted_at=0.0, config=c1)
            )
        with monkeypatch.context() as patched:
            patched.setattr(h.tob, "broadcast", lambda key, payload: False)   # no report is ordered
            h.ledger.start()
            h.sim.run(until=1500.0)
        node = h.nodes["n0"]
        assert node._last_seen_stored_key == 1 and node.c_cur is h.genesis
        answers = []
        for config, observer in reports:
            h.observe(config, observer)
            if ask_each:
                answers.append(node.latest_registry_config())
        return answers, node.latest_registry_config(), node._answer.rank

    answers, eager, eager_rank = replay(ask_each=True)
    assert answers == [genesis(7)] * 3 + [c1] * 4
    _, lazy, lazy_rank = replay(ask_each=False)
    assert (eager, eager_rank) == (lazy, lazy_rank) == (c1, 0)


def test_monitor_rejects_checkpoint_latency_beyond_interval():
    monitor = RunMonitor(SimulationCore(seed=1), checkpoint_interval=20.0)
    monitor.join_started("j1", 0.0, 1.0)
    monitor.request_ordered(("join", "j1", 1), 10.0, "n0")
    # exactly one interval between ordering and processing is allowed
    monitor.node_reconfigured("n0", Configuration(1, ("n0", "n1", "n2", "j1")), ("join", "j1", 1), 30.0, 1)
    monitor.join_started("j2", 0.0, 1.0)
    monitor.request_ordered(("join", "j2", 1), 40.0, "n0")
    with pytest.raises(InvariantViolation, match="checkpoint latency 20.500s"):
        monitor.node_reconfigured(
            "n0", Configuration(2, ("n0", "n1", "n2", "j1", "j2")), ("join", "j2", 1), 60.5, 1
        )
