"""Client quorum rules, staleness handling, and corruption-schedule checks."""

import pytest

from bmsim.adversary import CorruptionEntry
from bmsim.errors import ScenarioValidationError
from bmsim.node import Behavior
from bmsim.scenario import ChurnOp, ScenarioConfig, long_range_scenario
from bmsim.simulation import run_scenario


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
