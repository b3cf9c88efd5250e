"""End-to-end scenario behaviors beyond the default sweep: eventual synchrony,
evictions, departures with refunds, forged state toward clients, what the
ordered log passes to replicas, and the recent events a violation reports."""

import gc

import pytest

from bmsim import membership, simcore
from bmsim.contract import RegistryContract
from bmsim.errors import InvariantViolation
from bmsim.membership import Configuration, Policy
from bmsim.node import BftNode, TotalOrderBroadcast
from bmsim.scenario import growth_scenario, long_range_scenario, scenario_from_dict
from bmsim.simcore import AuthRegistry
from bmsim.simulation import SimulationRun, run_scenario


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
            v for v in result.votes if v.is_update_vote and v.config_number == update.number
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


def test_log_checks_request_signatures_once(monkeypatch):
    # the log verifies a join proof when it appends the request, so the
    # replicas applying the entry verify nothing
    calls = []
    verify = AuthRegistry.verify

    def counted(auth, node_id, payload, tag):
        calls.append(payload[0])
        return verify(auth, node_id, payload, tag)

    monkeypatch.setattr(AuthRegistry, "verify", counted)
    result = run_scenario(growth_scenario(Policy.EVERY, 4, 30, seed=1))
    assert result.completed
    assert len(calls) == 741


def test_checkpoints_visit_replicas_with_work_and_payloads_encode_once(monkeypatch):
    # a checkpoint calls a replica only with a request pending or a vote
    # check due, and the registry encodes each distinct signed payload once
    checkpoints, encoded = [], []
    checkpoint, encode = BftNode.on_checkpoint, simcore.encode

    def counted_checkpoint(node):
        checkpoints.append(node.id)
        checkpoint(node)

    def counted_encode(payload):
        encoded.append(payload[0])
        return encode(payload)

    monkeypatch.setattr(BftNode, "on_checkpoint", counted_checkpoint)
    monkeypatch.setattr(simcore, "encode", counted_encode)
    result = run_scenario(growth_scenario(Policy.EVERY, 4, 30, seed=1))
    assert result.completed
    # each member applies each join once (429); the 26 joiners have a vote
    # check due at their first checkpoint, and the founders have none
    assert len(checkpoints) == 429 + 26 == 455
    # one `register_confirm` and one final response body per join
    assert len(encoded) == 2 * 26 == 52


def test_correct_replicas_share_configuration_objects(monkeypatch):
    # each configuration of the chain is built once, not once per replica
    # and per final response, and every replica holds that one object
    built = []
    post_init = Configuration.__post_init__

    def counted(config):
        built.append(config.number)
        post_init(config)

    monkeypatch.setattr(Configuration, "__post_init__", counted)
    run = SimulationRun(growth_scenario(Policy.EVERY, 4, 30, seed=1))
    assert run.run().completed
    assert len(built) <= 100
    replicas = run.correct_active_nodes()
    assert len(replicas) == 30
    assert all(node.c_cur is replicas[0].c_cur for node in replicas)


def test_run_keeps_only_state_it_reads():
    # the log keys requests only, the ledger keeps transaction ids only for
    # blocks that executed some, and per-transaction records have no
    # instance dict
    run = SimulationRun(growth_scenario(Policy.EVERY, 4, 30, seed=1))
    result = run.run()
    assert result.completed
    tob, ledger = run.tob, run.ledger
    requests = {(p[0].removeprefix("tob_"), p[1], p[2]) for p in tob.log if p[0] != "tob_observed"}
    assert requests and tob._keys == requests
    executed = {r.included_height for r in ledger.records.values() if r.receipt is not None}
    assert set(ledger.block_tx_ids) == executed
    head = ledger.confirmed_height + ledger.confirmation_depth
    assert len(ledger.block_times) == head + 1
    records = [obj for r in ledger.records.values() for obj in (r, r.tx, r.report)]
    records += result.votes + result.joins
    assert records and not any(hasattr(obj, "__dict__") for obj in records)


def test_events_per_join_over_n_do_not_rise_with_size():
    # per-join work linear in n, as a count that does not vary between runs:
    # events scheduled per join, divided by n, on the `t1` growth from 4
    # (seed 1 gives 14.74, 11.10 and 9.34)
    ratios = []
    for n in (25, 50, 100):
        run = SimulationRun(growth_scenario(Policy.EVERY, 4, n, seed=1))
        assert run.run().completed
        ratios.append(run.sim._seq / (n - 4) / n)
    assert ratios == sorted(ratios, reverse=True), ratios


def test_registry_scans_per_join_do_not_grow_with_size(monkeypatch):
    # the replicas holding one configuration share one registry answer, so
    # the observation table is scanned about once per join whatever n
    # (seed 1 gives 1.29, 1.22 and 1.28 on the `t1` growth from 4; 15.4,
    # 27.8 and 52.8 when each replica scanned for itself)
    scans = []
    observed_at = TotalOrderBroadcast.observed_at

    def counted(tob, position):
        scans.append(position)
        return observed_at(tob, position)

    monkeypatch.setattr(TotalOrderBroadcast, "observed_at", counted)
    per_join = []
    for n in (25, 50, 100):
        scans.clear()
        assert run_scenario(growth_scenario(Policy.EVERY, 4, n, seed=1)).completed
        per_join.append(round(len(scans) / (n - 4), 2))
    assert max(per_join) <= 2, per_join


def test_dropped_runs_leave_no_configuration_alive():
    # no memo holds a configuration past its run: once a growth run and a
    # batch of attack runs are dropped and collected, the interning table
    # is empty (no other test keeps a configuration alive either)
    gc.collect()
    run_scenario(growth_scenario(Policy.EVERY, 4, 20, seed=1))
    for seed in (1, 2, 3):
        for mode in ("with_bms", "no_bms"):
            run_scenario(long_range_scenario(mode, seed=seed))
    gc.collect()
    assert not membership._interned


def test_contract_violation_reports_recent_events(monkeypatch):
    original = RegistryContract.apply_register

    def apply_register(contract, node, fee):
        report = original(contract, node, fee)
        if report.accepted:
            contract.total_collected -= fee   # credit the balance only
        return report

    monkeypatch.setattr(RegistryContract, "apply_register", apply_register)
    run = SimulationRun(growth_scenario(Policy.EVERY, 4, 6, seed=1))
    with pytest.raises(InvariantViolation, match="^fee conservation broken") as err:
        run.run()
    events = str(err.value).split("\nrecent events, oldest first:\n", 1)[1].splitlines()
    assert events == [f"  {at:.6f} {label}" for at, label in run.sim.trace]
    assert events[-1].endswith(" block")   # the block that executed the registration
    assert any(" deliver:" in line for line in events)


def test_monitor_violation_carries_the_trace_once():
    run = SimulationRun(growth_scenario(Policy.EVERY, 4, 5, seed=1))
    run.monitor.checkpoint_interval = -1.0   # every processed join is now late
    with pytest.raises(InvariantViolation, match="^checkpoint latency") as err:
        run.run()
    message = str(err.value)
    assert message.count("recent events") == 1
    last_at, last_label = run.sim.trace[-1]
    assert message.endswith(f"  {last_at:.6f} {last_label}")
