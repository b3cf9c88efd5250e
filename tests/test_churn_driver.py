"""Each generated scenario and each golden-matrix scenario runs twice: as the
real run, with read-only shadows attached, and as a `ReferenceRun`, whose
`PollingDriver` checks every 5 s from an op's start and never parks and whose
checkpoint tick visits every due replica.  The generated scenarios vary what
could move an event across a woken check or a skipped tick: checkpoint
intervals under and over the 5 s grid, revote timeouts, TOB latency, every
churn op, every corruption behaviour and pre-GST drops.  Outputs and
checkpoint sequences must be equal, and the real driver must check less often.
Each reference replica keeps a private registry answer, so the comparison also
tests the answer the real replicas share through the log.

The shadows change nothing the run reads later: `RecordedRun` wraps each
replica's `on_checkpoint` around the original, keeping its own record;
`ShadowedRun` only reads, apart from asking each replica's
`latest_registry_config`, whose answer entry it restores.  Around every tick
it checks agreement, no due replica at a skipped tick and each registry
answer against a full scan; after the run, every pair of configurations it
built or left alive is checked against plain sets, then again when rebuilt in
reverse order after a collection, so that new objects may take old ids.  A
failing check raises out of the run, and `oracle` hands the two runs of a
scenario to every test of it here and in `test_golden_matrix.py`.
"""

import functools
import gc
import itertools
import random
from types import SimpleNamespace
from unittest import mock

import pytest

from bmsim import membership
from bmsim.errors import ScenarioValidationError
from bmsim.harness import result_csv_texts
from bmsim.membership import Configuration, max_faults, overlap_ok, symmetric_difference
from bmsim.node import Answer
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
        done = self._current_agent.admitted if op.op == "join" else self.run.nodes[op.node].retired
        return done and polled_quiescent(self.run)

    def wake(self) -> None:
        pass


def polled_quiescent(run) -> bool:
    """Quiescence as a walk over every transaction and a list of the correct
    active replicas, the stored-configuration check at the first of them."""
    if any(r.tx.kind == "vote" and r.receipt is None for r in run.ledger.records.values()):
        return False
    stored_key = run.contract.c_cur.key()
    for index, node in enumerate(run.correct_active_nodes()):
        if node.pending or (index == 0 and node.published().key() != stored_key):
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
    """`per_setting` valid scenarios per checkpoint interval, revote timeout
    and TOB latency, corruption behaviours taken in turn."""
    rng = random.Random(13)
    out = []
    combos = itertools.product(CHECKPOINT_INTERVALS, REVOTE_TIMEOUTS, TOB_LATENCIES)
    for index, settings in enumerate(combo for combo in combos for _ in range(per_setting)):
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


class RecordedRun(SimulationRun):
    """A run that records each replica's checkpoints, with the time and the
    count of requests left pending."""

    def __init__(self, scenario):
        self.checkpoints = []
        super().__init__(scenario)

    def _make_node(self, node_id):
        node = super()._make_node(node_id)
        on_checkpoint = node.on_checkpoint

        def checkpointed():
            on_checkpoint()
            self.checkpoints.append((self.sim.now, node_id, len(node.pending)))

        node.on_checkpoint = checkpointed
        return node


def answer(config, frozen_at, floor):
    """A fresh entry at every call: each replica keeps its own answer."""
    return Answer(floor.config, floor.rank)


class ReferenceRun(RecordedRun):
    """A run that polls instead of parking, visits every due replica at every
    tick and gives each replica a private registry answer."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.driver = PollingDriver(self)

    def _make_node(self, node_id):
        self.tob.answer = answer   # before the first replica activates
        return super()._make_node(node_id)

    def _checkpoint_tick(self) -> None:
        for node in self.nodes.values():
            if node.active and node.due():
                node.on_checkpoint()
        self.sim.schedule_in(self.scenario.checkpoint_interval, self._checkpoint_tick, label="checkpoint")


class ShadowedRun(RecordedRun):
    """The real run, checked before and after each checkpoint tick."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.ticks = self.skipped = 0
        self.admitted = set()   # replicas admitted since the last tick
        self.asked = {}         # inputs of a registry answer -> the answer
        self.pairs = set()      # configuration pairs checked
        join_admitted = self.monitor.join_admitted

        def admitted(node_id, at):
            self.admitted.add(node_id)
            join_admitted(node_id, at)

        self.monitor.join_admitted = admitted

    def _checkpoint_tick(self) -> None:
        self.ticks += 1
        if not self._checkpoint_due:
            self.skipped += 1
            due = [n.id for n in self.nodes.values() if n.active and n.due()]
            assert not due, f"t={self.sim.now}: {due}"
        self.check_agreement(self.admitted)
        self.check_registry_scans()
        super()._checkpoint_tick()
        self.check_agreement(())
        self.admitted.clear()

    def check_agreement(self, exempt_from_last_voted) -> None:
        """The correct replicas that still apply the log hold one `c_cur`, one
        pending queue, one registry answer entry and one `c_last_voted`; one
        admitted since the last tick may hold an older `c_last_voted`, which
        its final response carried.  A frozen replica reads an older table,
        so it holds an entry of its own.  Configurations are interned, so
        equal keys are one object."""
        group = [n for n in self.correct_active_nodes() if n._frozen_at is None]
        first = group[0]
        for node in group:
            assert (node.c_cur, node.pending) == (first.c_cur, first.pending), f"t={self.sim.now}: {node.id}"
            assert node._answer is first._answer, f"t={self.sim.now}: {node.id}"
        shared = [n.id for n in self.nodes.values()
                  if n._frozen_at is not None and n._answer is first._answer]
        assert not shared, f"t={self.sim.now}: frozen replicas share the answer: {shared}"
        voted = {n.c_last_voted for n in group if n.id not in exempt_from_last_voted}
        assert len(voted) <= 1, f"t={self.sim.now}: c_last_voted disagrees: {voted}"

    def check_registry_scans(self) -> None:
        """Asked again only when an input of the answer changed; each pair of
        configurations compared is checked once against plain sets."""
        published = self.ledger.confirmed_config()
        for node in self.nodes.values():
            if not node.active:
                continue
            entry = node._answer
            latch = entry.config, entry.rank, entry.at
            inputs = (node.id, node.c_cur, node.c_last_voted, published, node._log_position(),
                      node.tob.observations, *latch)
            if inputs in self.asked:
                continue
            expected = full_scan_latest(node)
            latest = self.asked[inputs] = node.latest_registry_config()
            assert (latest, entry.rank) == expected, f"t={self.sim.now}: {node.id}"
            entry.config, entry.rank, entry.at = latch
            for pair in ((latest, node.c_cur), (node.c_last_voted, node.c_cur), (published, latest)):
                if pair not in self.pairs:
                    self.pairs.add(pair)
                    check_pair(*pair)


def full_scan_latest(node):
    """`BftNode.latest_registry_config`'s answer and rank by a scan of the whole
    observation table."""
    threshold = max_faults(node.c_cur.size) + 1
    members = set(node.c_cur.members)
    best, rank = node._answer.config, node._answer.rank
    for index, (config, observers) in enumerate(node.tob.observed_at(node._log_position()).items()):
        if config.number > best.number and len(observers & members) >= threshold:
            best, rank = config, index
    return best, rank


def check_pair(a, b):
    sa, sb = frozenset(a.members), frozenset(b.members)
    assert symmetric_difference(a, b) == len(sa ^ sb), (a.key(), b.key())
    fresh = len(sa & sb) >= max_faults(len(sa)) + max_faults(len(sb)) + 1
    assert overlap_ok(a, b) == fresh, (a.key(), b.key())


def check_pair_arithmetic(keys):
    """Every pair, its second configuration built for the check and dropped
    after it unless held elsewhere, so that the next may take its id."""
    for key in keys:
        a = Configuration(*key)
        for other in keys:
            check_pair(a, Configuration(*other))


def recorded_polls(run) -> list:
    """For each check of the run's driver, its time, the count of votes then
    pending and whether the driver parked."""
    driver, polls = run.driver, []
    poll = driver._poll

    def counted_poll():
        at, pending = run.sim.now, run.ledger.pending_votes
        poll()
        polls.append((at, pending, driver._parked_at == at))

    # `_next_op` and `wake` schedule `self._poll`, found on the instance first
    driver._poll = counted_poll
    return polls


def outputs(result) -> tuple:
    """A run's result and the text of each CSV it writes, block trace included."""
    return result, result_csv_texts(result, block_trace=True)


def test_generated_scenarios_cover_the_settings():
    ops = {op["op"] for data in SCENARIOS for op in data["churn"]}
    assert ops == {"join", "leave", "evict"}
    assert {data["corruption"][0]["behaviors"][0] for data in SCENARIOS} == set(BEHAVIORS)
    assert any("network" in data for data in SCENARIOS)
    assert {(d["checkpoint_interval"], d["revote_timeout"], d["tob_latency"]) for d in SCENARIOS} == set(
        itertools.product(CHECKPOINT_INTERVALS, REVOTE_TIMEOUTS, TOB_LATENCIES)
    )


ORACLE = {data["name"]: data for data in
          [dict(data, name=name) for name, (data, _, _) in MATRIX.items()] + SCENARIOS}


@functools.cache
def oracle(name: str) -> SimpleNamespace:
    """`ORACLE[name]` run once as a `ShadowedRun` and once as a `ReferenceRun`
    for every test that reads it, with every pair of configurations the first
    built or left alive checked in between.  A run that raises is not kept."""
    keys, post_init = {}, Configuration.__post_init__

    def recorded(config):
        post_init(config)
        keys[config.key()] = None

    out = SimpleNamespace()
    with mock.patch.object(Configuration, "__post_init__", recorded):
        run = ShadowedRun(scenario_from_dict(ORACLE[name]))
        out.polls = recorded_polls(run)
        out.output = outputs(run.run())
    out.checkpoints, out.ticks, out.skipped = run.checkpoints, run.ticks, run.skipped
    out.answers = {config.number for config in run.asked.values()}
    keys.update(dict.fromkeys(membership._interned.keys()))
    out.configurations = len(keys)
    check_pair_arithmetic(keys)
    del run
    gc.collect()
    check_pair_arithmetic(list(keys)[::-1])

    reference = ReferenceRun(scenario_from_dict(ORACLE[name]))
    out.reference_polls = recorded_polls(reference)
    out.reference_output = outputs(reference.run())
    out.reference_checkpoints = reference.checkpoints
    # no later run shares this scenario's configuration objects
    del reference
    gc.collect()
    return out


@pytest.fixture(scope="module")
def frozen_heap():
    """Freeze what survives a collection, so `oracle`'s collections skip it."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.mark.parametrize("name", list(ORACLE))
def test_parked_driver_matches_polling_driver(name, frozen_heap):
    """Equal outputs, and fewer driver checks than the poller's, on its grid."""
    outcome = oracle(name)
    assert outcome.output == outcome.reference_output
    assert 0 < len(outcome.polls) < len(outcome.reference_polls)
    assert all(at % ChurnDriver.POLL == 0 for at, _, _ in outcome.polls)


@pytest.mark.parametrize("name", list(ORACLE))
def test_flagged_tick_matches_visiting_tick(name, frozen_heap):
    """Equal outputs, the same checkpoints in the same order as with a tick
    that visits every replica, and some ticks skipped."""
    outcome = oracle(name)
    assert outcome.output == outcome.reference_output
    assert outcome.checkpoints == outcome.reference_checkpoints and outcome.checkpoints
    assert outcome.skipped


@pytest.mark.parametrize("name", list(ORACLE))
def test_registry_scan_matches_full_scan(name, frozen_heap):
    """In every matrix scenario some replica answers past genesis."""
    answers = oracle(name).answers
    assert answers and (max(answers) > 0 or name not in MATRIX)


@pytest.mark.parametrize("name", list(ORACLE))
def test_pair_memo_matches_set_arithmetic(name, frozen_heap):
    """The run reached more than one configuration."""
    assert oracle(name).configurations > 1


@pytest.mark.parametrize("mode", ("with_bms", "no_bms"))
def test_driver_sleeps_while_votes_pending(mode):
    """The attack workload's turnover, where a 5 s poller finds a vote
    pending at many of its checks.  The parked driver sleeps through them,
    finding votes pending at most once per op, and checks again at the first
    grid point after the block that executes the last pending vote."""
    drains = []   # times of blocks that execute the last pending vote
    real = SimulationRun(long_range_scenario(mode, seed=1))
    reference = ReferenceRun(long_range_scenario(mode, seed=1))
    parked_polls, polled_polls = recorded_polls(real), recorded_polls(reference)
    real.ledger.add_drain_hook(lambda: drains.append(real.sim.now))
    output = outputs(real.run())
    assert output[0].completed and output == outputs(reference.run())
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


def test_some_generated_scenarios_complete():
    assert sum(SimulationRun(scenario_from_dict(data)).run().completed for data in SCENARIOS[:8]) >= 4


def test_flagged_tick_keeps_blocked_requests_due():
    """Three departures ordered at once, two outside the driver's pacing: each
    waits until the registry stores the one before, so replicas stay due across
    ticks with a request pending, and the flagged tick must still visit them."""
    data = {"name": "blocked", "seed": 3, "initial_size": 7, "churn": [{"op": "leave", "node": "n4"}]}
    outcomes = []
    for run_cls in (RecordedRun, ReferenceRun):
        run = run_cls(scenario_from_dict(data))

        def leave_twice(run=run):
            for node in ("n5", "n6"):
                sig = run.sim.auth.sign(node, ("leave_request", node))
                run.tob.broadcast(("leave", node, 1), ("tob_leave", node, 1, sig))

        run.sim.schedule(1.0, leave_twice)
        outcomes.append((outputs(run.run()), run.checkpoints))
    assert outcomes[0] == outcomes[1]
    assert len({at for at, _, pending in outcomes[0][1] if pending}) > 1
