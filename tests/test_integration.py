"""End-to-end scenario behaviors beyond the default sweep: eventual synchrony,
evictions, departures with refunds, forged state toward clients, and what the
ordered log passes to replicas."""

from bmsim.membership import Policy
from bmsim.node import BftNode
from bmsim.scenario import growth_scenario, long_range_scenario, scenario_from_dict
from bmsim.simulation import run_scenario


def test_join_completes_despite_pre_gst_drops():
    sc = scenario_from_dict(
        {
            "name": "gst",
            "seed": 13,
            "initial_size": 4,
            "churn": [{"op": "join", "node": "m0"}],
            "network": {"gst": 1500.0, "delta": 0.05,
                        "pre_gst_drop_probability": 0.6, "pre_gst_max_delay": 30.0},
        }
    )
    result = run_scenario(sc)
    assert result.completed
    assert len(result.joins) == 1
    assert result.configs[-1].size == 5


def test_eviction_with_valid_proof_removes_member():
    sc = scenario_from_dict(
        {
            "name": "evict",
            "seed": 4,
            "initial_size": 5,
            "churn": [{"op": "evict", "node": "n4", "by": "n0"}],
            "valid_poms": ["n4"],
        }
    )
    result = run_scenario(sc)
    assert result.completed
    assert result.configs[-1].size == 4
    assert "n4" not in result.configs[-1].members


def test_leave_update_applies_storage_refund():
    sc = long_range_scenario(mode="with_bms", seed=21)
    result = run_scenario(sc)
    gas = sc.gas
    shrinking = [u for u in result.updates if u.leavers == 1 and u.joiners == 0]
    assert shrinking
    for update in shrinking:
        update_votes = [
            v for v in result.votes if v.is_update_vote and v.config_key[0] == update.number
        ]
        assert len(update_votes) == 1
        scanned = update.size + 1  # membership check ran against the pre-update set
        expected = (
            gas.g_base
            + gas.g_vote_store
            + gas.g_vote_per_member * scanned
            + gas.g_update_fixed
            - gas.refund_per_freed_member
        )
        assert update_votes[0].gas_used == expected


def test_updates_csv_blank_per_join_for_pure_leaves(tmp_path):
    from bmsim.harness import write_result_csvs

    result = run_scenario(long_range_scenario(mode="with_bms", seed=22))
    paths = write_result_csvs(result, tmp_path)
    rows = paths["updates.csv"].read_text().splitlines()[1:]
    leave_rows = [r for r in rows if r.split(",")[1] == "0"]
    assert leave_rows
    for row in leave_rows:
        parts = row.split(",")
        assert parts[3] == "" and parts[4] == ""


def test_forged_config_response_ignored_by_registry_reader():
    # corrupted retirees answer queries with forged state, but the protected
    # client derives its view from the ledger, never from nodes
    result = run_scenario(long_range_scenario(mode="with_bms", seed=23))
    assert result.forged_accepted == 0
    final = result.configs[-1]
    outcome = result.client_outcomes[0]
    assert set(outcome.signers) <= set(final.members)


def test_agreement_and_overlap_hold_through_turnover():
    # monitor raises on any divergence; completing is the assertion
    result = run_scenario(long_range_scenario(mode="with_bms", seed=24))
    assert result.completed
    numbers = [c.number for c in result.configs]
    assert numbers == sorted(numbers)
    sizes = [c.size for c in result.configs]
    assert sizes == [4, 5, 6, 7, 8, 7, 6, 5, 4]


def test_halff_equals_every_while_small():
    every = run_scenario(growth_scenario(Policy.EVERY, 4, 10, seed=6))
    halff = run_scenario(growth_scenario(Policy.HALF_F, 4, 10, seed=6))
    assert [(u.size, u.joiners) for u in every.updates] == [
        (u.size, u.joiners) for u in halff.updates
    ]


def test_replicas_receive_only_reconfiguration_entries(monkeypatch):
    # the log applies members' observation reports to its own table, so a
    # replica is called once per join entry, not once per report of it
    kinds = []
    deliver = BftNode.on_tob_deliver

    def counted(node, index, payload):
        kinds.append(payload[0])
        deliver(node, index, payload)

    monkeypatch.setattr(BftNode, "on_tob_deliver", counted)
    result = run_scenario(growth_scenario(Policy.EVERY, 4, 30, seed=1))
    assert result.completed
    assert set(kinds) == {"tob_join"}
    assert len(kinds) == sum(range(4, 30)) == 429  # n members per join at size n
