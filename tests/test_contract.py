"""Registry contract semantics, plus randomized equivalence against the
reference interpreter."""

import random

from bmsim.contract import RegistryContract
from bmsim.membership import Configuration

from reference_contract import ReferenceRegistry


def genesis(n=4, number=0):
    return Configuration(number, tuple(f"n{i}" for i in range(n)))


def grown(base, *new, number=None):
    number = base.number + 1 if number is None else number
    return Configuration(number, base.members + tuple(new))


# -- register -----------------------------------------------------------------


def test_register_boundary_fee():
    c = RegistryContract(genesis(), cost=100)
    assert c.apply_register("j1", 100).accepted
    assert c.balance == 100


def test_register_below_cost_rejected():
    c = RegistryContract(genesis(), cost=100)
    assert not c.apply_register("j1", 99).accepted
    assert c.balance == 0


def test_register_duplicate_while_unconsumed_rejected():
    c = RegistryContract(genesis(), cost=100)
    assert c.apply_register("j1", 100).accepted
    assert not c.apply_register("j1", 150).accepted
    assert c.balance == 100


# -- vote ----------------------------------------------------------------------


def test_two_votes_trigger_update():
    c = RegistryContract(genesis(), cost=100)
    c.apply_register("j1", 100)
    target = grown(genesis(), "j1")
    r1 = c.apply_vote(target, "n0")
    assert r1.accepted and r1.first_vote and not r1.triggered_update
    r2 = c.apply_vote(target, "n1")
    assert r2.accepted and not r2.first_vote and r2.triggered_update
    assert c.c_cur.key() == target.key()


def test_non_member_vote_ignored():
    c = RegistryContract(genesis(), cost=100)
    report = c.apply_vote(grown(genesis(), "j1"), "outsider")
    assert not report.accepted
    assert c.votes_for(grown(genesis(), "j1")) == set()


def test_stale_number_vote_ignored():
    c = RegistryContract(genesis(), cost=100)
    same_number = Configuration(0, ("n0", "n1", "n2"))
    assert not c.apply_vote(same_number, "n0").accepted


def test_revote_is_noop():
    c = RegistryContract(genesis(), cost=100)
    target = grown(genesis(), "j1")
    c.apply_vote(target, "n0")
    report = c.apply_vote(target, "n0")
    assert report.accepted and report.duplicate_vote and not report.triggered_update
    assert c.votes_for(target) == {"n0"}


def test_votes_may_skip_numbers():
    # batching publishes only the last of a run of local configurations
    c = RegistryContract(genesis(), cost=100)
    target = Configuration(5, genesis().members + ("j1", "j2"))
    c.apply_vote(target, "n0")
    c.apply_vote(target, "n1")
    assert c.c_cur.number == 5


# -- rewards --------------------------------------------------------------------


def test_reward_single_join_two_voters():
    c = RegistryContract(genesis(), cost=100)
    c.apply_register("j1", 100)
    target = grown(genesis(), "j1")
    c.apply_vote(target, "n0")
    c.apply_vote(target, "n1")
    assert c.rewards == {"n0": 25, "n1": 25}
    assert c.balance == 50


def test_reward_join_plus_leave_two_voters():
    base = genesis()
    c = RegistryContract(base, cost=100)
    c.apply_register("j1", 100)
    c.apply_register("j2", 100)
    # j2 joins first and pays its joining half
    step1 = grown(base, "j2")
    c.apply_vote(step1, "n0")
    c.apply_vote(step1, "n1")
    assert c.rewards == {"n0": 25, "n1": 25}
    # one new join plus j2 leaving: reward is 50 + 50 split over two voters
    step2 = Configuration(2, base.members + ("j1",))
    c.apply_vote(step2, "n0")
    c.apply_vote(step2, "n1")
    assert c.rewards == {"n0": 75, "n1": 75}
    reg_j2 = [r for r in c.registrations if r.id == "j2"][0]
    assert reg_j2.consumed


def test_no_qualifying_config_leaves_state_unchanged():
    c = RegistryContract(genesis(), cost=100)
    before = c.snapshot()
    c.apply_vote(grown(genesis(), "j1"), "n0")
    after = c.snapshot()
    assert after["config"] == before["config"]


def test_update_safety_voters_are_prior_members():
    c = RegistryContract(genesis(), cost=100)
    target = grown(genesis(), "j1")
    c.apply_vote(target, "n0")
    event = c.apply_vote(target, "n1").updates[-1]
    assert set(event.voters) <= set(event.old.members)
    assert len(event.voters) >= event.old.v


# -- vote map garbage collection ---------------------------------------------------


def test_vote_gc_on_update():
    c = RegistryContract(genesis(), cost=100)
    stale_target = grown(genesis(), "jx")     # number 1
    c.apply_vote(stale_target, "n2")
    winner = Configuration(2, genesis().members + ("j1",))
    c.apply_vote(winner, "n0")
    c.apply_vote(winner, "n1")
    assert c.votes_for(stale_target) == set()
    assert c.c_cur.number == 2


# -- randomized equivalence against the reference interpreter ----------------------


def random_sequence_equivalent(seed: int, n_txs: int = 30) -> None:
    rng = random.Random(seed)
    size = rng.randint(1, 7)
    members = tuple(f"n{i}" for i in range(size))
    pool = list(members) + [f"x{i}" for i in range(6)]

    contract = RegistryContract(Configuration(0, members), cost=100)
    reference = ReferenceRegistry(0, members, cost=100)

    for _ in range(n_txs):
        if rng.random() < 0.4:
            node = rng.choice(pool)
            fee = rng.choice([50, 99, 100, 101, 150, 201])
            contract.apply_register(node, fee)
            reference.register(node, fee)
        else:
            number = rng.randint(0, 4)
            k = rng.randint(1, min(7, len(pool)))
            proposal = tuple(sorted(rng.sample(pool, k)))
            voter = rng.choice(pool)
            contract.apply_vote(Configuration(number, proposal), voter)
            reference.vote(number, proposal, voter)
        contract.check_conservation()

    assert contract.snapshot() == reference.snapshot(), f"seed {seed}"


def test_contract_matches_reference_on_random_sequences():
    for seed in range(200):
        random_sequence_equivalent(seed)
