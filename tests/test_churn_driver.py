"""The parked churn driver against a 5 s poller.

`ChurnDriver` parks while an op waits for an admission, the execution of the
last pending vote or a confirmation, and is woken onto its 5 s grid (see its
docstring).  `PollingDriver` below is the driver without parking: it checks
every 5 s from the op's start, with the quiescence check that walks every
pending transaction and builds the list of correct replicas.  Both run the
same generated small scenarios, which vary what could move an event onto the
other side of a woken check: checkpoint intervals under and over the 5 s
grid, short and long revote timeouts, zero and long TOB latency, every churn
op, every corruption behaviour and pre-GST drops.  Every CSV (the block trace
included), the end time and the completion flag must be equal, and the
parked driver must check less often, always on its grid.

The same scenarios, and the golden matrix, also check the shared
configuration objects at every checkpoint tick: each replica's registry scan
against a scan of the whole observation table, and the cached member-set
arithmetic against plain sets.  They check the per-pair membership memo
against fresh set arithmetic over every pair of configurations a run builds,
and the flagged checkpoint tick against `VisitingRun`, whose tick looks at
every replica.
"""

import gc
import itertools
import random

import pytest

from bmsim import membership
from bmsim.errors import ScenarioValidationError
from bmsim.harness import write_result_csvs
from bmsim.membership import Configuration, max_faults, overlap_ok, symmetric_difference
from bmsim.node import BftNode
from bmsim.scenario import long_range_scenario, scenario_from_dict
from bmsim.simulation import ChurnDriver, SimulationRun
from test_golden_matrix import MATRIX

BEHAVIORS = ("silent", "withhold_vote", "vote_bogus", "drop_messages", "stale_quorum")
CHECKPOINT_INTERVALS = (1.0, 2.5, 5.0, 20.0)
REVOTE_TIMEOUTS = (2.0, 200.0)
TOB_LATENCIES = (0.0, 5.0)


class PollingDriver(ChurnDriver):
    """Checks every 5 s until the op settles and never parks."""

    def _poll(self) -> None:
        if self._settled():
            self._current_agent = None
            self._next_op()
        else:
            self.run.sim.schedule_in(self.POLL, self._poll, label="driver-poll")

    def _settled(self) -> bool:
        op = self._current_op
        if op.op == "join":
            if not self._current_agent.admitted:
                return False
        elif not self.run.nodes[op.node].retired:
            return False
        return polled_quiescent(self.run)

    def wake(self) -> None:
        pass


def polled_quiescent(run) -> bool:
    """Quiescence as a walk over every transaction and a list of the correct
    active replicas, the stored-configuration check at the first of them."""
    if any(r.tx.kind == "vote" and r.receipt is None for r in run.ledger.records.values()):
        return False
    stored_key = run.contract.c_cur.key()
    for index, node in enumerate(run.correct_active_nodes()):
        if node.pending:
            return False
        if index == 0 and node.published().key() != stored_key:
            return False
        if symmetric_difference(node.latest_registry_config(), node.c_cur) >= node._t():
            return False
    return True


def _candidate(rng: random.Random, index: int, settings: tuple) -> dict:
    interval, revote, latency = settings
    size = rng.randint(4, 7)
    members = [f"n{i}" for i in range(size)]
    churn, poms, joiners = [], [], 0
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("join", "join", "leave", "evict")) if churn else "join"
        if kind == "join" or len(members) <= 4:
            node = f"m{joiners}"
            joiners += 1
            members.append(node)
            churn.append({"op": "join", "node": node})
            continue
        node = rng.choice(members)
        members.remove(node)
        op = {"op": kind, "node": node}
        if kind == "evict":
            poms.append(node)
            if rng.random() < 0.5:
                op["by"] = rng.choice(members)
        churn.append(op)
    declared = [f"n{i}" for i in range(size)] + [f"m{i}" for i in range(joiners)]
    behavior = BEHAVIORS[index % len(BEHAVIORS)]
    data = {
        "name": f"driver-{index}",
        "seed": 100 + index,
        "initial_size": size,
        "churn": churn,
        "valid_poms": poms,
        "checkpoint_interval": interval,
        "revote_timeout": revote,
        "tob_latency": latency,
        "confirmation_depth": rng.randint(0, 10),
        "corruption": [{"node": rng.choice(declared), "at_time": round(rng.uniform(0.0, 1500.0), 1),
                        "behaviors": [behavior]}],
        "max_sim_time": 12_000.0,
    }
    if index % 3 == 0:
        data["network"] = {"gst": rng.uniform(200.0, 1500.0),
                           "pre_gst_drop_probability": rng.uniform(0.2, 0.6),
                           "pre_gst_max_delay": 30.0}
    if behavior == "stale_quorum" or index % 4 == 1:
        data["client"] = {"mode": "with_bms"}
    return data


def generated_scenarios(per_setting: int = 6) -> list[dict]:
    """`per_setting` valid scenarios for each combination of checkpoint
    interval, revote timeout and TOB latency, corruption behaviours taken in
    turn."""
    rng = random.Random(13)
    out = []
    combos = itertools.product(CHECKPOINT_INTERVALS, REVOTE_TIMEOUTS, TOB_LATENCIES)
    for index, settings in enumerate(itertools.chain.from_iterable(
        itertools.repeat(combo, per_setting) for combo in combos
    )):
        while True:
            data = _candidate(rng, index, settings)
            try:
                scenario_from_dict(data).validate()
            except ScenarioValidationError:
                continue
            out.append(data)
            break
    return out


SCENARIOS = generated_scenarios()


class VisitingRun(SimulationRun):
    """A run whose checkpoint tick looks at every replica at every tick."""

    def _checkpoint_tick(self) -> None:
        for node in self.nodes.values():
            if node.active and (node.pending or node.vote_check_due):
                node.on_checkpoint()
        self.sim.schedule_in(
            self.scenario.checkpoint_interval, self._checkpoint_tick, label="checkpoint"
        )


def run_with(scenario, driver_cls, out_dir, drains=None, run_cls=SimulationRun):
    """The run's result, its CSVs and, for each check of the driver, its
    time, the count of votes then pending and whether the driver parked.
    The times of blocks that execute the last pending vote go to `drains`."""
    run = run_cls(scenario)
    if driver_cls is not None:
        run.driver = driver_cls(run)
    driver = run.driver
    polls = []
    poll = driver._poll

    def counted_poll():
        at, pending = run.sim.now, run.ledger.pending_votes
        poll()
        polls.append((at, pending, driver._parked_at == at))

    # `_next_op` and `wake` schedule `self._poll`, found on the instance first
    driver._poll = counted_poll
    if drains is not None:
        run.ledger.add_drain_hook(lambda: drains.append(run.sim.now))
    result = run.run()
    paths = write_result_csvs(result, out_dir, block_trace=True)
    return result, {name: path.read_bytes() for name, path in paths.items()}, polls


def test_generated_scenarios_cover_the_settings():
    ops = {op["op"] for data in SCENARIOS for op in data["churn"]}
    assert ops == {"join", "leave", "evict"}
    assert {data["corruption"][0]["behaviors"][0] for data in SCENARIOS} == set(BEHAVIORS)
    assert any("network" in data for data in SCENARIOS)
    assert {(d["checkpoint_interval"], d["revote_timeout"], d["tob_latency"]) for d in SCENARIOS} == set(
        itertools.product(CHECKPOINT_INTERVALS, REVOTE_TIMEOUTS, TOB_LATENCIES)
    )


@pytest.mark.parametrize("data", SCENARIOS, ids=[d["name"] for d in SCENARIOS])
def test_parked_driver_matches_polling_driver(data, tmp_path):
    parked, parked_csvs, parked_polls = run_with(
        scenario_from_dict(data), None, tmp_path / "parked"
    )
    polled, polled_csvs, polled_polls = run_with(
        scenario_from_dict(data), PollingDriver, tmp_path / "polled"
    )
    assert (parked.completed, parked.end_time) == (polled.completed, polled.end_time)
    assert parked_csvs == polled_csvs
    assert 0 < len(parked_polls) < len(polled_polls)
    assert all(at % ChurnDriver.POLL == 0 for at, _, _ in parked_polls)


@pytest.mark.parametrize("mode", ("with_bms", "no_bms"))
def test_driver_sleeps_while_votes_pending(mode, tmp_path):
    """The attack workload's turnover, where a 5 s poller finds a vote
    pending at many of its checks.  The parked driver sleeps through them,
    finding votes pending at most once per op, and checks again at the first
    grid point after the block that executes the last pending vote."""
    drains = []
    parked, parked_csvs, parked_polls = run_with(
        long_range_scenario(mode, seed=1), None, tmp_path / "parked", drains
    )
    polled, polled_csvs, polled_polls = run_with(
        long_range_scenario(mode, seed=1), PollingDriver, tmp_path / "polled"
    )
    assert parked.completed and parked.end_time == polled.end_time
    assert parked_csvs == polled_csvs
    assert all(at % ChurnDriver.POLL == 0 for at, _, _ in parked_polls)
    ops = len(long_range_scenario(mode).churn)
    assert 0 < sum(1 for _, pending, _ in parked_polls if pending) <= ops
    assert sum(1 for _, pending, _ in polled_polls if pending) > 5 * ops
    woken = 0
    for drained_at in drains:
        before = [(pending, parked) for at, pending, parked in parked_polls if at < drained_at]
        if before and before[-1][0] and before[-1][1]:   # parked on a pending vote
            woken += 1
            assert any(drained_at <= at < drained_at + ChurnDriver.POLL for at, _, _ in parked_polls)
    assert woken > 0


def test_some_generated_scenarios_complete(tmp_path):
    completed = sum(
        run_with(scenario_from_dict(data), None, tmp_path / data["name"])[0].completed
        for data in SCENARIOS[:8]
    )
    assert completed >= 4


def full_scan_latest(node):
    """`BftNode.latest_registry_config` over the whole observation table:
    its answer and that answer's rank, without moving the replica's cache."""
    threshold = max_faults(node.c_cur.size) + 1
    members = set(node.c_cur.members)
    best, rank = node._agreed, node._agreed_rank
    for index, (config, observers) in enumerate(node.tob.observed_at(node._log_position()).items()):
        if config.number <= best.number:
            continue
        count = len(observers & members)
        if node.id in members and node.id not in observers and config.number in node.locally_observed:
            count += 1
        if count >= threshold:
            best, rank = config, index
    return best, rank


def check_shared_facts(run, answers):
    for node in run.nodes.values():
        if not node.active:
            continue
        expected = full_scan_latest(node)
        latest = node.latest_registry_config()
        assert (latest, node._agreed_rank) == expected, f"t={run.sim.now}: {node.id}"
        answers.add(latest.number)
        for a, b in ((latest, node.c_cur), (node.c_last_voted, node.c_cur), (node.published(), latest)):
            sa, sb = set(a.members), set(b.members)
            assert symmetric_difference(a, b) == len(sa ^ sb)
            assert overlap_ok(a, b) == (len(sa & sb) >= max_faults(len(sa)) + max_faults(len(sb)) + 1)


DIFFERENTIAL = [dict(data, name=name) for name, (data, _, _) in MATRIX.items()] + SCENARIOS


@pytest.mark.parametrize("data", DIFFERENTIAL, ids=[d["name"] for d in DIFFERENTIAL])
def test_registry_scan_matches_full_scan(data, monkeypatch):
    """Asking every active replica at every tick moves their caches, so this
    run's bytes are not compared with anything.  In every matrix scenario
    some replica answers a configuration other than genesis."""
    answers = set()
    tick = SimulationRun._checkpoint_tick

    def checked_tick(run):
        check_shared_facts(run, answers)
        tick(run)

    monkeypatch.setattr(SimulationRun, "_checkpoint_tick", checked_tick)
    SimulationRun(scenario_from_dict(data)).run()
    assert max(answers) > 0 or data["name"] not in MATRIX


def recorded_checkpoints(monkeypatch) -> list:
    """From now on, each `on_checkpoint` call's time, replica and count of
    requests it left pending."""
    calls = []
    on_checkpoint = BftNode.on_checkpoint

    def recorded(node):
        on_checkpoint(node)
        calls.append((node.sim.now, node.id, len(node.pending)))

    monkeypatch.setattr(BftNode, "on_checkpoint", recorded)
    return calls


@pytest.mark.parametrize("data", SCENARIOS, ids=[d["name"] for d in SCENARIOS])
def test_flagged_tick_matches_visiting_tick(data, tmp_path, monkeypatch):
    """The same replicas checkpoint at the same times, in the same order, as
    with a tick that looks at every replica, and the bytes are equal.  At
    every tick the flagged run skips, no replica is due."""
    calls = recorded_checkpoints(monkeypatch)
    skipped = []
    tick = SimulationRun._checkpoint_tick

    def checked_tick(run):
        if not run._checkpoint_due:
            skipped.append(run.sim.now)
            assert not any(
                n.active and (n.pending or n.vote_check_due) for n in run.nodes.values()
            ), f"t={run.sim.now}"
        tick(run)

    monkeypatch.setattr(SimulationRun, "_checkpoint_tick", checked_tick)
    flagged, flagged_csvs, _ = run_with(scenario_from_dict(data), None, tmp_path / "flagged")
    flagged_calls, calls[:] = list(calls), []
    visited, visited_csvs, _ = run_with(
        scenario_from_dict(data), None, tmp_path / "visited", run_cls=VisitingRun
    )
    assert (flagged.completed, flagged.end_time) == (visited.completed, visited.end_time)
    assert flagged_csvs == visited_csvs
    assert flagged_calls == calls and calls
    assert skipped


def check_pair_arithmetic(keys):
    configs = [Configuration(*key) for key in keys]
    for a, b in itertools.product(configs, repeat=2):
        sa, sb = frozenset(a.members), frozenset(b.members)
        assert symmetric_difference(a, b) == len(sa ^ sb), (a.key(), b.key())
        fresh = len(sa & sb) >= max_faults(len(sa)) + max_faults(len(sb)) + 1
        assert overlap_ok(a, b) == fresh, (a.key(), b.key())


@pytest.mark.parametrize("data", DIFFERENTIAL, ids=[d["name"] for d in DIFFERENTIAL])
def test_pair_memo_matches_set_arithmetic(data, monkeypatch):
    """Every pair of configurations the run reached (those it built and
    those alive at its end), in both orders: once with the run's objects and
    the memo the run filled, and once more after they were dropped,
    collected and rebuilt from their keys in reverse order, so that new
    objects may take the ids of old ones with other members."""
    keys = {}
    post_init = Configuration.__post_init__

    def recorded(config):
        post_init(config)
        keys[config.key()] = None

    monkeypatch.setattr(Configuration, "__post_init__", recorded)
    run = SimulationRun(scenario_from_dict(data))
    run.run()
    keys.update(dict.fromkeys(membership._interned.keys()))
    assert len(keys) > 1
    check_pair_arithmetic(keys)
    del run
    gc.collect()
    check_pair_arithmetic(list(keys)[::-1])


def test_flagged_tick_keeps_blocked_requests_due(tmp_path, monkeypatch):
    """Three departures ordered at once, two of them outside the driver's
    pacing: each waits at every replica until the registry stores the one
    before, so replicas stay due across ticks with a request still pending.
    The flagged tick must still visit them as the visiting tick does."""
    calls = recorded_checkpoints(monkeypatch)
    data = {"name": "blocked", "seed": 3, "initial_size": 7, "churn": [{"op": "leave", "node": "n4"}]}
    outcomes = []
    for run_cls in (SimulationRun, VisitingRun):
        run = run_cls(scenario_from_dict(data))

        def leave_twice(run=run):
            for node in ("n5", "n6"):
                sig = run.sim.auth.sign(node, ("leave_request", node))
                run.tob.broadcast(("leave", node, 1), ("tob_leave", node, 1, sig))

        run.sim.schedule(1.0, leave_twice)
        result = run.run()
        paths = write_result_csvs(result, tmp_path / run_cls.__name__, block_trace=True)
        outcomes.append((result.end_time, {n: p.read_bytes() for n, p in paths.items()}, list(calls)))
        calls.clear()
    assert outcomes[0] == outcomes[1]
    assert len({at for at, _, pending in outcomes[0][2] if pending}) > 1
