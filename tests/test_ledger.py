"""Ledger behavior: inclusion, block cadence, confirmation, gas, observer
notifications."""

import pytest

from bmsim.contract import RegistryContract
from bmsim.ledger import (
    GasSchedule,
    Ledger,
    LedgerTransaction,
    PriceModel,
    usd_cost,
)
from bmsim.membership import Configuration
from bmsim.simcore import SimulationCore


def genesis(n=4):
    return Configuration(0, tuple(f"n{i}" for i in range(n)))


def make_ledger(seed=1, depth=37):
    sim = SimulationCore(seed=seed)
    contract = RegistryContract(genesis(), cost=100)
    ledger = Ledger(sim, contract, confirmation_depth=depth)
    ledger.start()
    return sim, ledger


def register_tx(node, fee, at=0.0):
    return LedgerTransaction(
        kind="register", submitter=node, submitted_at=at, node=node, fee=fee
    )


def vote_tx(config, voter, at=0.0):
    return LedgerTransaction(kind="vote", submitter=voter, submitted_at=at, config=config)


def run_until_blocks(sim, ledger, n, step=10_000.0):
    while len(ledger.block_times) <= n:
        sim.run(until=sim.now + step)


def head_height(ledger):
    return len(ledger.block_times) - 1


def tx_ids(ledger, height):
    """The ids of the transactions block `height` executed, in order."""
    return ledger.block_tx_ids.get(height, [])


def executed_ids(ledger):
    """The ids of the executed transactions, in block order."""
    return [t for height in range(len(ledger.block_times)) for t in tx_ids(ledger, height)]


def test_tx_included_in_first_block_after_ready():
    sim, ledger = make_ledger(seed=5)
    tx_id = ledger.submit_tx(register_tx("j1", 100))
    record = ledger.records[tx_id]
    run_until_blocks(sim, ledger, 20)
    assert record.included_height is not None
    assert ledger.block_times[record.included_height] >= record.ready_at
    assert ledger.block_times[record.included_height - 1] < record.ready_at


def test_inclusion_delay_mean_matches_target():
    sim, ledger = make_ledger(seed=9)
    draws = [ledger.inclusion_delay.draw(sim.rng) for _ in range(1000)]
    assert abs(sum(draws) / len(draws) - 27.7) <= 2.5
    assert min(draws) >= 0.0


def test_block_interval_mean_matches_target():
    sim, ledger = make_ledger(seed=11)
    run_until_blocks(sim, ledger, 1000)
    times = ledger.block_times[:1001]
    intervals = [b - a for a, b in zip(times, times[1:])]
    assert abs(sum(intervals) / len(intervals) - 15.0) <= 1.0
    assert min(intervals) >= 1.0


def test_blocks_produced_even_when_empty():
    sim, ledger = make_ledger(seed=2)
    run_until_blocks(sim, ledger, 3)
    assert all(tx_ids(ledger, height) == [] for height in range(1, 4))


def test_txs_execute_in_submission_order():
    sim, ledger = make_ledger(seed=3)
    first = ledger.submit_tx(register_tx("a", 100))
    second = ledger.submit_tx(register_tx("a", 100))
    run_until_blocks(sim, ledger, 30)
    rec1, rec2 = ledger.records[first], ledger.records[second]
    # both eventually included; only whichever executed first is accepted
    order = executed_ids(ledger)
    assert order.index(first) < order.index(second) or rec1.included_height > rec2.included_height
    accepted = [r for r in (rec1, rec2) if r.report.accepted]
    assert len(accepted) == 1


def test_is_confirmed_boundary():
    sim, ledger = make_ledger(seed=4, depth=37)
    tx_id = ledger.submit_tx(register_tx("j1", 100))
    # block intervals are at least 1s, so sub-second steps land exactly
    run_until_blocks(sim, ledger, 5, step=0.9)
    record = ledger.records[tx_id]
    assert record.included_height is not None
    run_until_blocks(sim, ledger, record.included_height + 36, step=0.9)
    assert head_height(ledger) == record.included_height + 36
    assert not ledger.registration_confirmed("j1")
    run_until_blocks(sim, ledger, record.included_height + 37, step=0.9)
    assert ledger.registration_confirmed("j1")


def test_expected_confirmation_time():
    assert 37 * 15.0 == 555.0  # depth x mean interval, 9.25 minutes


def test_usd_cost_identities():
    assert usd_cost(0, PriceModel()) == 0.0
    assert usd_cost(1_000_000_000, PriceModel(gas_price_gwei=1.0, eth_usd=1.0)) == pytest.approx(1.0)


def test_usd_cost_reference_rate_discrepancy_within_tolerance():
    # published USD figures do not exactly match gas x 93.1 Gwei x 386.10;
    # the conversion must stay within 10% of them
    ours = usd_cost(113_314, PriceModel())
    assert ours == pytest.approx(4.0733, abs=0.001)
    assert abs(ours - 3.88) / 3.88 < 0.10


def test_gas_deterministic_and_rejected_txs_pay_base():
    sim, ledger = make_ledger(seed=6)
    ledger.submit_tx(register_tx("j1", 100))
    ledger.submit_tx(register_tx("poor", 50))
    run_until_blocks(sim, ledger, 40)
    by_node = {r.tx.node: r for r in ledger.records.values()}
    assert by_node["j1"].receipt.gas_used == ledger.gas.g_register
    assert by_node["poor"].receipt.gas_used == ledger.gas.g_base
    assert all(r.receipt.gas_used > 0 for r in ledger.records.values() if r.receipt)


def test_vote_gas_components():
    gas = GasSchedule()
    sim = SimulationCore(seed=8)
    contract = RegistryContract(genesis(), cost=100)
    ledger = Ledger(sim, contract, gas=gas)
    ledger.start()
    target = Configuration(1, genesis().members + ("j1",))
    ledger.submit_tx(vote_tx(target, "n0"))
    ledger.submit_tx(vote_tx(target, "n1"))
    ledger.submit_tx(vote_tx(target, "outsider"))
    run_until_blocks(sim, ledger, 40)
    votes = ledger.vote_records()
    plain = gas.g_base + gas.g_vote_store + gas.g_vote_per_member * 4
    first = [r for r in votes if r.report.first_vote]
    update = [r for r in votes if r.report.triggered_update]
    rejected = [r for r in votes if not r.report.accepted]
    assert len(first) == len(update) == len(rejected) == 1
    assert first[0].receipt.gas_used == plain + gas.g_first_vote_init
    assert (
        update[0].receipt.gas_used
        == plain + gas.g_update_fixed + gas.g_update_per_member * 1
    )
    assert rejected[0].tx.submitter == "outsider"
    assert rejected[0].receipt.gas_used == gas.g_base


def test_observer_confirmed_state_lags_head():
    sim, ledger = make_ledger(seed=7, depth=5)
    target = Configuration(1, genesis().members + ("j1",))
    ledger.submit_tx(register_tx("j1", 100))
    ledger.submit_tx(vote_tx(target, "n0"))
    ledger.submit_tx(vote_tx(target, "n1"))
    # block intervals are at least 1s, so sub-second steps add one block at a time
    while ledger.contract.c_cur.number == 0:
        run_until_blocks(sim, ledger, head_height(ledger) + 1, step=0.9)
    update_height = ledger.config_log[-1][0]
    assert head_height(ledger) == update_height
    # before depth blocks on top, the confirmed state still reports genesis
    lagging_blocks = 0
    while head_height(ledger) < update_height + 5:
        assert ledger.confirmed_height == max(0, head_height(ledger) - 5)
        assert ledger.confirmed_config().number == 0
        lagging_blocks += 1
        run_until_blocks(sim, ledger, head_height(ledger) + 1, step=0.9)
    assert lagging_blocks == 5
    assert ledger.confirmed_config() == target


def test_registration_notifies_observers_once_at_confirmation():
    depth = 5
    sim, ledger = make_ledger(seed=4, depth=depth)
    calls = []
    ledger.add_observer(lambda: calls.append((head_height(ledger), ledger.registration_confirmed("j1"))))
    tx_id = ledger.submit_tx(register_tx("j1", 100))
    ledger.submit_tx(register_tx("poor", 50))  # rejected: below the registration cost
    record = ledger.records[tx_id]
    while record.included_height is None:
        run_until_blocks(sim, ledger, head_height(ledger) + 1, step=0.9)
    included = record.included_height
    run_until_blocks(sim, ledger, included + depth + 10, step=0.9)
    assert calls == [(included + depth, True)]
    assert not ledger.registration_confirmed("poor")


def test_publication_hook_fires_once_per_storing_block():
    sim, ledger = make_ledger(seed=7, depth=5)
    published = []
    ledger.add_publication_hook(lambda config, at: published.append((config, at)))
    first = Configuration(1, genesis().members + ("j1",))
    second = Configuration(2, first.members + ("j2",))
    for voter in ("n0", "n1"):
        ledger.submit_tx(vote_tx(first, voter))
    while ledger.contract.c_cur.number == 0:
        run_until_blocks(sim, ledger, head_height(ledger) + 1, step=0.9)
    for voter in first.members:
        ledger.submit_tx(vote_tx(second, voter, at=sim.now))
    run_until_blocks(sim, ledger, head_height(ledger) + 30)
    assert ledger.contract.c_cur == second
    assert published == [
        (config, ledger.block_times[height]) for height, config in ledger.config_log[1:]
    ]
    assert [config for config, _ in published] == [first, second]


def test_replayed_state_equals_incremental():
    for seed in (21, 22, 23):
        sim, ledger = make_ledger(seed=seed, depth=3)
        rng_pool = ["n0", "n1", "n2", "n3", "j1", "j2"]
        for i, node in enumerate(rng_pool):
            ledger.submit_tx(register_tx(node, 100 + i))
        target = Configuration(2, genesis().members + ("j1",))
        for voter in ("n0", "n3", "j2"):
            ledger.submit_tx(vote_tx(target, voter))
        run_until_blocks(sim, ledger, 60)

        replay = RegistryContract(genesis(), cost=100)
        # executed transactions in block order
        for tx in [ledger.records[t].tx for t in executed_ids(ledger)]:
            if tx.kind == "register":
                replay.apply_register(tx.node, tx.fee)
            else:
                replay.apply_vote(tx.config, tx.submitter)
        assert replay.snapshot() == ledger.contract.snapshot()

