"""Replica behavior: proof validation, request queueing, observation quorums,
checkpoint gating and vote staggering."""

import pytest

from bmsim.contract import RegistryContract
from bmsim.errors import InvariantViolation
from bmsim.ledger import Ledger, LedgerTransaction
from bmsim.membership import Configuration, Policy
from bmsim.metrics import RunMonitor
from bmsim.node import (
    Behavior,
    BftNode,
    NodeParams,
    ReconfigRequest,
    TotalOrderBroadcast,
)
from bmsim.simcore import SimulationCore


def genesis(n=4):
    return Configuration(0, tuple(f"n{i}" for i in range(n)))


class Harness:
    def __init__(self, n=4, seed=1, policy=Policy.EVERY, fixed_t=None, pom_ok=()):
        self.sim = SimulationCore(seed=seed)
        self.genesis = genesis(n)
        self.contract = RegistryContract(self.genesis, cost=100)
        self.ledger = Ledger(self.sim, self.contract)
        self.tob = TotalOrderBroadcast(self.sim)
        self.monitor = RunMonitor()
        self.monitor.contract = self.contract
        params = NodeParams(policy=policy, fixed_t=fixed_t,
                            pom_validator=lambda node, pom: node in pom_ok)
        self.nodes = {}
        for member in self.genesis.members:
            node = BftNode(self.sim, member, self.tob, self.ledger, self.genesis, params, self.monitor)
            node.activate(0)
            self.nodes[member] = node

    def confirm_proof(self, joiner, confirmers):
        self.sim.auth.register(joiner)
        return tuple(
            (c, self.sim.auth.sign(c, ("register_confirm", joiner))) for c in confirmers
        )


def test_join_proof_threshold_boundary():
    h = Harness()
    node = h.nodes["n0"]
    good = ReconfigRequest("join", "j1", 1, proof=h.confirm_proof("j1", ["n0", "n1"]))
    assert node._valid_join(good)
    short = ReconfigRequest("join", "j1", 1, proof=h.confirm_proof("j1", ["n0"]))
    assert not node._valid_join(short)


def test_join_proof_superset_still_valid():
    h = Harness()
    node = h.nodes["n0"]
    full = ReconfigRequest("join", "j1", 1, proof=h.confirm_proof("j1", ["n0", "n1", "n2", "n3"]))
    assert node._valid_join(full)


def test_join_proof_rejects_non_member_confirmers():
    h = Harness()
    h.sim.auth.register("x1")
    h.sim.auth.register("x2")
    node = h.nodes["n0"]
    outsiders = ReconfigRequest("join", "j1", 1, proof=h.confirm_proof("j1", ["x1", "x2"]))
    assert not node._valid_join(outsiders)


def test_leave_requires_own_signature():
    h = Harness()
    node = h.nodes["n0"]
    own = ReconfigRequest(
        "leave", "n1", 1, signature=h.sim.auth.sign("n1", ("leave_request", "n1"))
    )
    assert node._valid_leave(own)
    forged = ReconfigRequest(
        "leave", "n1", 1, signature=h.sim.auth.sign("n2", ("leave_request", "n1"))
    )
    assert not node._valid_leave(forged)


def test_evict_needs_valid_pom():
    h = Harness(pom_ok=("n2",))
    node = h.nodes["n0"]
    node.on_tob_deliver(0, ("tob_evict", "n2", 1, ("pom", "n2")))
    assert len(node.pending) == 1
    node.on_tob_deliver(1, ("tob_evict", "n3", 1, ("pom", "n3")))
    assert len(node.pending) == 1  # no proof available for n3


def test_duplicate_tob_requests_suppressed():
    h = Harness()
    node = h.nodes["n0"]
    proof = h.confirm_proof("j1", ["n0", "n1"])
    node.on_tob_deliver(0, ("tob_join", "j1", 1, proof))
    node.on_tob_deliver(1, ("tob_join", "j1", 1, proof))
    assert len(node.pending) == 1


def test_tob_key_dedup_single_delivery():
    h = Harness()
    seen = []
    h.tob.subscribe("watcher", lambda i, p: seen.append(p))
    h.tob.broadcast(("k", 1), ("payload", 1))
    h.tob.broadcast(("k", 1), ("payload", 1))
    h.sim.run()
    assert len(seen) == 1


def test_observation_quorum_examples():
    h = Harness()
    node = h.nodes["n0"]
    c1 = Configuration(1, genesis().members + ("j1",))
    # a single observer (below f+1 = 2) does not establish the configuration
    node.on_tob_deliver(0, ("tob_observed", c1.number, c1.members, "n1"))
    assert node.latest_registry_config().number == 0
    node.on_tob_deliver(1, ("tob_observed", c1.number, c1.members, "n2"))
    assert node.latest_registry_config().number == 1


def test_higher_number_without_quorum_not_latest():
    h = Harness()
    node = h.nodes["n0"]
    c1 = Configuration(1, genesis().members + ("j1",))
    c2 = Configuration(2, genesis().members + ("j1", "j2"))
    for observer in ("n1", "n2"):
        node.on_tob_deliver(len(node.observed), ("tob_observed", c1.number, c1.members, observer))
    node.on_tob_deliver(5, ("tob_observed", c2.number, c2.members, "n3"))
    assert node.latest_registry_config().number == 1


def test_fake_config_from_byzantine_never_latest():
    h = Harness()
    node = h.nodes["n0"]
    fake = Configuration(9, ("evil0", "evil1", "evil2", "evil3"))
    node.on_tob_deliver(0, ("tob_observed", fake.number, fake.members, "n3"))
    assert node.latest_registry_config().number == 0


def test_checkpoint_gate_defers_when_registry_behind():
    h = Harness()
    node = h.nodes["n0"]
    proof = h.confirm_proof("j1", ["n0", "n1"])
    node.on_tob_deliver(0, ("tob_join", "j1", 1, proof))
    # registry is seen at genesis; after one local reconfig the difference
    # reaches t=1 and the next request must wait
    proof2 = h.confirm_proof("j2", ["n0", "n1"])
    node.on_tob_deliver(1, ("tob_join", "j2", 1, proof2))
    node.on_checkpoint()
    assert node.c_cur.number == 1
    assert len(node.pending) == 1  # j2 deferred until the registry catches up


def test_checkpoint_processes_batch_under_fixed_threshold():
    h = Harness(policy=Policy.FIXED, fixed_t=2)
    node = h.nodes["n0"]
    for i, joiner in enumerate(("j1", "j2")):
        proof = h.confirm_proof(joiner, ["n0", "n1"])
        node.on_tob_deliver(i, ("tob_join", joiner, 1, proof))
    node.on_checkpoint()
    assert node.c_cur.number == 2
    assert node.c_cur.size == 6


def test_vote_trigger_respects_threshold():
    h = Harness(policy=Policy.FIXED, fixed_t=2)
    node = h.nodes["n0"]
    submitted = []
    node._submit_vote = lambda target: submitted.append(target.number)
    proof = h.confirm_proof("j1", ["n0", "n1"])
    node.on_tob_deliver(0, ("tob_join", "j1", 1, proof))
    node.on_checkpoint()
    assert submitted == []  # diff 1 < t=2
    proof2 = h.confirm_proof("j2", ["n0", "n1"])
    node.on_tob_deliver(1, ("tob_join", "j2", 1, proof2))
    node.on_checkpoint()
    assert submitted == [2]  # diff reached 2


def test_only_threshold_many_members_vote_immediately():
    h = Harness()
    proof = h.confirm_proof("j1", [f"n{i}" for i in range(4)])
    for node in h.nodes.values():
        node.on_tob_deliver(0, ("tob_join", "j1", 1, proof))
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
    proof = h.confirm_proof("j1", [f"n{i}" for i in range(4)])
    for node in h.nodes.values():
        node.on_tob_deliver(0, ("tob_join", "j1", 1, proof))
        node.on_checkpoint()
    h.sim.run(until=h.nodes["n2"].params.revote_timeout + 5.0)
    votes = [r for r in h.ledger.records.values() if r.tx.kind == "vote"]
    assert {r.tx.submitter for r in votes} == {"n2", "n3"}


def test_backup_cancelled_after_publication_observed():
    h = Harness()
    node = h.nodes["n2"]  # rank 2, tier 1 backup
    proof = h.confirm_proof("j1", [f"n{i}" for i in range(4)])
    node.on_tob_deliver(0, ("tob_join", "j1", 1, proof))
    node.on_checkpoint()
    # simulate the update landing and being observed before the backup fires
    target = node.c_cur
    h.contract.apply_vote(target, "n0")
    h.contract.apply_vote(target, "n1")
    h.ledger.config_log.append((0, h.contract.c_cur))
    h.ledger._config_heights.append(0)
    h.sim.run(until=node.params.revote_timeout + 5.0)
    votes = [r for r in h.ledger.records.values() if r.tx.kind == "vote"]
    assert node.id not in {r.tx.submitter for r in votes}


@pytest.mark.parametrize("leavers_vote,expect_votes", [(True, 1), (False, 0)])
def test_departing_member_vote_follows_leaver_policy(leavers_vote, expect_votes):
    h = Harness()
    node = h.nodes["n0"]  # rank 0: responsible voter if eligible
    node.params = NodeParams(leavers_vote=leavers_vote)
    submitted = []
    node._submit_vote = lambda target: submitted.append(target.number)
    sig = h.sim.auth.sign("n0", ("leave_request", "n0"))
    node.on_tob_deliver(0, ("tob_leave", "n0", 1, sig))
    node.on_checkpoint()
    assert not node.active and node.retired
    assert len(submitted) == expect_votes


def test_silent_behavior_drops_everything():
    h = Harness()
    node = h.nodes["n0"]
    node.behaviors.add(Behavior.SILENT)
    submitted = []
    node._submit_vote = lambda target: submitted.append(target)
    proof = h.confirm_proof("j1", ["n1", "n2"])
    node.on_tob_deliver(0, ("tob_join", "j1", 1, proof))
    node.on_checkpoint()
    assert submitted == []


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
    assert late.locally_observed == {h.genesis.key(), target.key()}
    assert late.observed_configs[target.key()] == target
    assert late._last_seen_stored_key == target.key()


def test_monitor_rejects_checkpoint_latency_beyond_interval():
    monitor = RunMonitor(checkpoint_interval=20.0)
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
