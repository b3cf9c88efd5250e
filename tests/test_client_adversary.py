"""Client quorum rules, staleness handling, and corruption-schedule checks."""

import pytest

from bmsim.adversary import AdversaryController, CorruptionEntry
from bmsim.contract import RegistryContract
from bmsim.errors import InvariantViolation, ScenarioValidationError
from bmsim.ledger import Ledger, LedgerTransaction
from bmsim.membership import Configuration
from bmsim.metrics import RunMonitor
from bmsim.node import Behavior
from bmsim.scenario import ChurnOp, ScenarioConfig, long_range_scenario
from bmsim.simcore import SimulationCore
from bmsim.simulation import SimulationRun, run_scenario


def entry(node, at_time=None, retired=False):
    return CorruptionEntry(
        node=node,
        behaviors=(Behavior.STALE_QUORUM,),
        at_time=at_time,
        after_retirement=retired,
    )


def scheduled(entries, churn=(), bypass=False):
    """A four-node scenario with the given corruption schedule and churn."""
    return ScenarioConfig(
        initial_size=4, churn=list(churn), corruption=entries, bypass_validation=bypass
    )


# -- schedule validation ---------------------------------------------------------


def test_two_of_four_current_members_rejected():
    sc = scheduled([entry("n0", at_time=5.0), entry("n1", at_time=5.0)])
    with pytest.raises(ScenarioValidationError) as err:
        sc.validate()
    assert "f=1" in str(err.value)


def test_one_of_four_accepted():
    scheduled([entry("n0", at_time=5.0)]).validate()


def test_full_old_config_after_retirement_accepted():
    # each original member is replaced in turn, then all of them are corrupted
    churn = []
    for i in range(4):
        churn += [ChurnOp("join", f"m{i}"), ChurnOp("leave", f"n{i}")]
    entries = [entry(f"n{i}", retired=True) for i in range(4)]
    scheduled(entries, churn).validate()


def test_bypass_disables_validation():
    scheduled([entry("n0", at_time=1.0), entry("n1", at_time=1.0)], bypass=True).validate()


def test_budget_counts_timed_joiners_and_leavers_per_configuration():
    # n0 leaves and m1 joins, both timed-corrupted: only configuration #2,
    # after m1 joined and before n0 left, holds both of them among 6 members
    entries = [entry("n0", at_time=5.0), entry("m1", at_time=5.0)]
    churn = [ChurnOp("join", "m0"), ChurnOp("join", "m1"), ChurnOp("leave", "n0"), ChurnOp("join", "m2")]
    with pytest.raises(ScenarioValidationError) as err:
        scheduled(entries, churn).validate()
    assert err.value.field == "corruption"
    assert str(err.value) == (
        "corruption: configuration #2 (6 members) would have 2 > f=1 "
        "corruptible members: n0@t=5.0, m1@t=5.0"
    )
    # n0 leaves before m1 joins: no configuration holds both
    scheduled(entries, [churn[0], churn[2], churn[1], churn[3]]).validate()


def stored_chain():
    """A ledger that stores #1 = (g0, g1, n0, n1) over genesis (g0..g3), then
    #2 = (g0..g3) again, so n0 and n1 are members of #1 only.  Returns the
    engine, the ledger and the times #1 and #2 were stored."""
    sim = SimulationCore(seed=1)
    genesis = Configuration(0, ("g0", "g1", "g2", "g3"))
    ledger = Ledger(sim, RegistryContract(genesis))
    ledger.start()
    for config in (Configuration(1, ("g0", "g1", "n0", "n1")), Configuration(2, genesis.members)):
        for voter in ("g0", "g1"):
            ledger.submit_tx(LedgerTransaction("vote", voter, sim.now, config=config))
        while ledger.config_log[-1][1] is not config:
            sim.run(until=sim.now + 1.0)
    t1, t2 = (ledger.block_times[height] for height, _ in ledger.config_log[1:])
    return sim, ledger, t1, t2


def corrupt_n0_n1(sim, ledger, grace_p, at):
    """Activate n0 and n1 at time `at` under the grace period `grace_p`."""
    controller = AdversaryController(sim, RunMonitor(sim), grace_p=grace_p)
    controller.setup([entry("n0", at_time=at), entry("n1", at_time=at)], {}, ledger)
    sim.run(until=at + 1.0)
    return controller


def test_runtime_budget_counts_configurations_stored_within_the_grace_period():
    sim, ledger, t1, t2 = stored_chain()
    with pytest.raises(ScenarioValidationError) as err:
        corrupt_n0_n1(sim, ledger, grace_p=t2 - t1 + 10.0, at=t2 + 1.0)
    assert err.value.field == "corruption"
    assert "configuration #1 " in str(err.value)


def test_runtime_budget_skips_retired_configurations_past_the_grace_period():
    sim, ledger, t1, t2 = stored_chain()
    controller = corrupt_n0_n1(sim, ledger, grace_p=(t2 - t1) / 2, at=t2 + 1.0)
    assert controller.all_activated_at == t2 + 1.0


# -- long-range scenario generation -------------------------------------------------


def test_generator_refuses_unpublishable_turnover():
    with pytest.raises(ScenarioValidationError) as err:
        long_range_scenario(leaves_per_publish=2)
    assert "unpublishable" in str(err.value)


def test_generator_produces_full_turnover():
    sc = long_range_scenario(mode="with_bms", seed=1)
    ops = [(op.op, op.node) for op in sc.churn]
    assert ops[:4] == [("join", f"m{i}") for i in range(4)]
    assert ops[4:] == [("leave", f"n{i}") for i in range(4)]
    assert len(sc.corruption) == 4


# -- end-to-end attack behavior -------------------------------------------------------


def test_with_registry_client_rejects_forged_quorum():
    result = run_scenario(long_range_scenario(mode="with_bms", seed=11))
    assert result.completed
    assert result.forged_accepted == 0
    assert result.honest_accepted >= 1
    # final configuration is fully disjoint from genesis
    final = result.configs[-1]
    assert set(final.members) == {"m0", "m1", "m2", "m3"}


def test_control_client_accepts_forged_quorum():
    result = run_scenario(long_range_scenario(mode="no_bms", seed=11))
    assert result.completed
    assert result.forged_accepted == 1
    outcome = result.client_outcomes[0]
    assert set(outcome.signers) <= {"n0", "n1", "n2", "n3"}


def test_partial_turnover_below_quorum_still_safe():
    # only one original member retires and is corrupted: a stale client still
    # finds an honest quorum in its cached configuration
    sc = long_range_scenario(mode="no_bms", seed=7)
    sc.churn = sc.churn[:1] + [op for op in sc.churn if op.op == "leave"][:1]
    sc.corruption = sc.corruption[:1]
    sc.validate()
    result = run_scenario(sc)
    assert result.completed
    assert result.forged_accepted == 0
    assert result.honest_accepted == 1


def test_with_registry_client_never_accepts_beyond_its_staleness_bound():
    # without the refresh the client keeps its genesis view through the full
    # turnover and accepts the retired members' forged quorum
    run = SimulationRun(long_range_scenario(mode="with_bms", seed=1))
    run.client._refresh_if_stale = lambda: None
    with pytest.raises(InvariantViolation, match="beyond its staleness bound"):
        run.run()
