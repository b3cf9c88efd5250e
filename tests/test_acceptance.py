"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (visible with
`pytest -s` or `-rA`); a failing criterion fails the test outright.
"""

import hashlib
import json
import statistics
import time
from pathlib import Path

import pytest

from bmsim.harness import (
    COST_ANCHORS,
    DEFAULT_ANCHOR_SIZES,
    attack_demo,
    calibrate_gas,
    sweep_summary_csv,
    write_result_csvs,
)
from bmsim.ledger import PriceModel, usd_cost
from bmsim.membership import Policy, max_batch_threshold
from bmsim.scenario import growth_scenario, scenario_from_dict
from bmsim.simulation import run_scenario

from test_membership import brute_force_batch_threshold
from test_contract import random_sequence_equivalent
from test_harness import REPO_ROOT, run_cli

# sha256 of every CSV of the seed-1 benchmark workloads, pinned by the benchmark
GOLDEN_DIGESTS = json.loads((REPO_ROOT / "perfbench" / "digests.json").read_text())


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def t1_sweep():
    result = run_scenario(growth_scenario(Policy.EVERY, 4, 100, seed=1))
    assert result.completed
    assert len(result.joins) == 96  # one record per join from 4 to 100 nodes
    return result


@pytest.fixture(scope="module")
def halff_sweep():
    result = run_scenario(growth_scenario(Policy.HALF_F, 4, 100, seed=1))
    assert result.completed
    return result


# ---------------------------------------------------------------------------
# 1. Attack prevention
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def attack_batch():
    started = time.monotonic()
    protected = attack_demo("with_bms", seeds=100, write=False)
    control = attack_demo("no_bms", seeds=100, write=False)
    return protected, control, time.monotonic() - started


def test_acceptance_1_attack_prevention(attack_batch):
    protected, control, elapsed = attack_batch
    assert protected.forged_total == 0
    assert protected.runs_with_forgery == 0
    assert control.runs_with_forgery == len(control.runs) == 100
    assert elapsed < 60.0, f"attack batch took {elapsed:.1f}s"
    report(
        1,
        f"0/100 forged acceptances with the registry, 100/100 in control mode "
        f"({elapsed:.1f}s wall)",
    )


# ---------------------------------------------------------------------------
# 2-5. Latency phases on the default growth sweep
# ---------------------------------------------------------------------------


def test_acceptance_2_confirmation_latency(t1_sweep):
    values = [j.confirm_latency for j in t1_sweep.joins]
    mean = statistics.mean(values)
    assert len(values) >= 90
    assert abs(mean - 555.0) <= 0.05 * 555.0
    report(2, f"mean confirmation latency {mean:.1f}s within 555s +/- 5%")


def test_acceptance_3_checkpoint_latency(t1_sweep):
    values = [j.checkpoint_latency for j in t1_sweep.joins]
    mean = statistics.mean(values)
    assert len(values) >= 90
    assert all(0.0 <= v <= 20.0 for v in values)
    assert abs(mean - 10.0) <= 1.5
    report(3, f"checkpoint latency in [0, 20]s with mean {mean:.2f}s")


def test_acceptance_4_ordering_latency(t1_sweep):
    values = [j.ordering_latency for j in t1_sweep.joins]
    sizes = [j.size for j in t1_sweep.joins]
    mean = statistics.mean(values)
    assert abs(mean - 0.95) <= 0.05
    slope = statistics.linear_regression(sizes, values).slope
    assert abs(slope) < 1e-3, f"ordering latency drifts with size: {slope}"
    report(4, f"ordering latency {mean:.3f}s, constant across sizes (slope {slope:.2e})")


def test_acceptance_5_transaction_latency(t1_sweep):
    values = [j.tx_latency for j in t1_sweep.joins]
    mean = statistics.mean(values)
    assert len(values) >= 90
    assert abs(mean - 27.7) <= 2.5
    report(5, f"mean transaction latency {mean:.2f}s within 27.7s +/- 2.5s")


# ---------------------------------------------------------------------------
# 6-7. Gas shapes
# ---------------------------------------------------------------------------


def test_acceptance_6_gas_shape_every(t1_sweep):
    per_join = [(u.size, u.total_gas / u.joiners) for u in t1_sweep.updates if u.joiners]
    sizes = [p[0] for p in per_join]
    gas = [p[1] for p in per_join]
    slope, intercept = statistics.linear_regression(sizes, gas)
    mean = statistics.mean(gas)
    ss_res = sum((g - (slope * s + intercept)) ** 2 for s, g in zip(sizes, gas))
    r2 = 1.0 - ss_res / sum((g - mean) ** 2 for g in gas)
    assert slope > 0
    assert r2 >= 0.9

    votes_by_size = {}
    for vote in t1_sweep.votes:
        votes_by_size.setdefault(vote.size, []).append(vote.gas_used)
    avg5 = statistics.mean(votes_by_size[5])
    avg100 = statistics.mean(votes_by_size[100])
    assert avg100 < avg5
    report(
        6,
        f"per-join gas rises linearly (slope {slope:.0f}, R2 {r2:.3f}); "
        f"avg vote gas {avg100:.0f} at size 100 < {avg5:.0f} at size 5",
    )


def _per_join_by_size(result):
    return {u.size: u.total_gas / u.joiners for u in result.updates if u.joiners}


def test_acceptance_7_gas_shape_halff(t1_sweep, halff_sweep):
    single = [u.size for u in halff_sweep.updates if u.joiners == 1]
    multi = [u.size for u in halff_sweep.updates if u.joiners >= 2]
    assert max(single) == 12
    assert min(multi) == 14
    assert all(v.size != 13 for v in halff_sweep.votes)

    update_gas = {
        u.size: next(
            v.gas_used
            for v in halff_sweep.votes
            if v.is_update_vote and v.config_number == u.number
        )
        for u in halff_sweep.updates
    }
    assert update_gas[14] > update_gas[12]

    per_join = _per_join_by_size(halff_sweep)
    anchor_size = min(per_join, key=lambda s: abs(s - 25))
    anchor = per_join[anchor_size]
    in_band = {s: g for s, g in per_join.items() if 25 <= s <= 100}
    for size, gas in in_band.items():
        assert 0.8 * anchor <= gas <= 1.3 * anchor, (size, gas, anchor)

    t1_per_join = _per_join_by_size(t1_sweep)
    t1_anchor = t1_per_join[min(t1_per_join, key=lambda s: abs(s - 25))]
    assert t1_per_join[100] >= 2.0 * t1_anchor
    # batching announces once per several reconfigurations, so vote records
    # come out sparser than under the per-update policy
    assert len(halff_sweep.votes) < len(t1_sweep.votes)
    report(
        7,
        f"announcement batching steps at size 13 (last single-join update at "
        f"{max(single)}, first batch at {min(multi)}); per-join gas stays in "
        f"[0.8, 1.3] x size-25 value while the per-update policy grows "
        f"{t1_per_join[100] / t1_anchor:.1f}x",
    )


# ---------------------------------------------------------------------------
# 8. Gas calibration against published anchors
# ---------------------------------------------------------------------------


def test_acceptance_8_gas_calibration():
    calibration = calibrate_gas()
    assert not calibration.degenerate
    result = run_scenario(
        growth_scenario(Policy.HALF_F, 4, 100, seed=1, gas=calibration.schedule)
    )
    assert result.completed
    per_join = _per_join_by_size(result)
    price = PriceModel()
    lines = []
    for size in DEFAULT_ANCHOR_SIZES:
        gas_target, usd_target = COST_ANCHORS[size]
        realized_size = min(per_join, key=lambda s: abs(s - size))
        realized = per_join[realized_size]
        gas_dev = (realized - gas_target) / gas_target
        usd_dev = (usd_cost(realized, price) - usd_target) / usd_target
        assert abs(gas_dev) <= 0.10, (size, realized, gas_target)
        assert abs(usd_dev) <= 0.10, (size, usd_cost(realized, price), usd_target)
        lines.append(f"{size}:{gas_dev:+.1%}/{usd_dev:+.1%}")
    report(8, "calibrated per-join gas and USD within 10% at anchors " + ", ".join(lines))


# ---------------------------------------------------------------------------
# 9. Contract oracle equivalence
# ---------------------------------------------------------------------------


def test_acceptance_9_contract_oracle_equivalence():
    for seed in range(1000):
        random_sequence_equivalent(seed)
    report(9, "1000 random transaction sequences match the reference interpreter "
              "with conservation checked after every transaction")


# ---------------------------------------------------------------------------
# 10. Batching math oracle
# ---------------------------------------------------------------------------


def test_acceptance_10_batching_oracle():
    for n in range(4, 17):
        assert max_batch_threshold(n) == brute_force_batch_threshold(n), n
    for n in range(17, 101):
        f = (n - 1) // 3
        assert max_batch_threshold(n) == (3 * f) // 2 + 1 + ((n - 1) % 3), n
        if n == 3 * f + 1:
            assert max_batch_threshold(n) == -(-n // 2)
    report(10, "batching threshold matches the brute-force oracle (4-16) and the "
               "closed form up to 100, with ceil(n/2) at optimal sizes")


# ---------------------------------------------------------------------------
# 11. Publishability liveness and stall
# ---------------------------------------------------------------------------


def _bounded_scenario(churn, corruption):
    return scenario_from_dict(
        {
            "name": "publishability",
            "seed": 2,
            "initial_size": 4,
            "policy": "fixed",
            "fixed_t": 3,
            "bypass_validation": True,
            "leavers_vote": False,
            "churn": churn,
            "corruption": corruption,
        }
    )


def test_acceptance_11_publishability_liveness_and_stall():
    confirmation_time = 37 * 15.0

    # within the bound: one correct departure, one withholding member
    live = _bounded_scenario(
        churn=[
            {"op": "leave", "node": "n0"},
            {"op": "join", "node": "m0"},
            {"op": "join", "node": "m1"},
        ],
        corruption=[{"node": "n1", "at_time": 0.0, "behaviors": ["withhold_vote"]}],
    )
    live_result = run_scenario(live, max_time=100 * confirmation_time)
    assert live_result.completed
    assert len(live_result.updates) == 1
    assert live_result.updates[0].size == 5

    # beyond the bound: two correct departures leave only one correct voter
    stall = _bounded_scenario(
        churn=[
            {"op": "leave", "node": "n0"},
            {"op": "leave", "node": "n1"},
            {"op": "join", "node": "m0"},
        ],
        corruption=[{"node": "n2", "at_time": 0.0, "behaviors": ["withhold_vote"]}],
    )
    stall_result = run_scenario(stall, max_time=100 * confirmation_time)
    assert not stall_result.completed
    assert stall_result.updates == []
    assert stall_result.end_time >= 100 * confirmation_time
    report(11, "departures within the bound publish; exceeding it stalls publication "
               f"for {100 * confirmation_time:.0f}s of simulated time")


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------


def test_acceptance_12_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    first = write_result_csvs(
        run_scenario(growth_scenario(Policy.EVERY, 4, 10, seed=77)), out_a, block_trace=True
    )
    second = write_result_csvs(
        run_scenario(growth_scenario(Policy.EVERY, 4, 10, seed=77)), out_b, block_trace=True
    )
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name
    report(12, "identical scenario and seed produce byte-identical CSVs "
               f"({', '.join(sorted(first))})")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep_digests(result, out_dir: Path) -> dict[str, str]:
    paths = write_result_csvs(result, out_dir)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    digests["summary.csv"] = _sha256(sweep_summary_csv(result))
    return digests


def test_golden_csv_digests(t1_sweep, halff_sweep, attack_batch, tmp_path):
    protected, control, _ = attack_batch
    assert _sweep_digests(t1_sweep, tmp_path / "t1") == GOLDEN_DIGESTS["growth_t1"]
    assert _sweep_digests(halff_sweep, tmp_path / "halff") == GOLDEN_DIGESTS["growth_halff"]
    assert {
        f"attack_{r.mode}.csv": _sha256(r.to_csv()) for r in (protected, control)
    } == GOLDEN_DIGESTS["attack"]


def test_output_independent_of_hash_seed(tmp_path):
    outputs = {}
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {"PYTHONHASHSEED": hash_seed}
        for args in (("sweep", "--policy", "t1", "--to", "20"),
                     ("attack-demo", "--mode", "bms", "--seeds", "3")):
            proc = run_cli(*args, "--out", str(out), env=env)
            assert proc.returncode == 0, proc.stderr
        outputs[hash_seed] = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert sorted(outputs["0"]) == [
        "attack_with_bms.csv", "configs.csv", "joins.csv", "summary.csv", "updates.csv", "votes.csv"
    ]
    assert outputs["0"] == outputs["1"]
