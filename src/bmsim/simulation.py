"""Wires a scenario into a full deterministic run: engine, ledger, contract,
replicas, churn driver, adversary and client."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from bmsim.adversary import AdversaryController
from bmsim.client import ClientMode, ClusterClient
from bmsim.contract import RegistryContract
from bmsim.errors import InvariantViolation
from bmsim.ledger import Ledger, PriceModel
from bmsim.membership import Configuration, symmetric_difference
from bmsim.metrics import (
    ConfigRecord,
    JoinRecord,
    RunMonitor,
    UpdateRecord,
    VoteRecord,
)
from bmsim.node import BftNode, JoinerAgent, LeaverAgent, NodeParams, TotalOrderBroadcast
from bmsim.scenario import ScenarioConfig
from bmsim.simcore import NetworkConfig, SimulationCore, TruncatedNormal

# simulated seconds between completion checks; end times are rounded up to it
RUN_STEP = 50.0


@dataclass
class RunResult:
    scenario_name: str
    seed: int
    end_time: float
    completed: bool
    joins: list[JoinRecord]
    votes: list[VoteRecord]
    updates: list[UpdateRecord]
    configs: list[ConfigRecord]
    client_outcomes: list
    price: PriceModel
    block_rows: list[tuple] = field(default_factory=list)

    @property
    def forged_accepted(self) -> int:
        return sum(1 for o in self.client_outcomes if o.forged)

    @property
    def honest_accepted(self) -> int:
        return sum(1 for o in self.client_outcomes if not o.forged)


class ChurnDriver:
    """Paces the churn sequence: the next membership change starts only when
    the previous one is fully settled (admitted, any triggered publication
    executed, confirmed and observed by every correct replica).

    The driver checks an op on a 5 s grid from the op's start.  A check that
    fails because the joiner is not admitted yet, because a vote is still
    pending, or because the ledger has not confirmed the stored configuration
    yet, would keep failing without side effects until that admission
    (`JoinerAgent` calls `wake`), the block that executes the last pending
    vote (a ledger drain hook) or the ledger's next confirmation (a ledger
    observer), so the driver parks there.  Any other failed check re-arms 5 s
    later.

    `wake` schedules the check at the first grid point after the parked one
    that is at or after now, so each op starts at the same grid time as with
    a check every 5 s.  Grid points are multiples of 5 s from time 0, so
    exact floats.  The woken check keeps its order with every event at its
    time that was scheduled at least 5 s earlier: checkpoint ticks at the
    default 20 s interval, announce and request retries, absolute-time
    corruption.  Only an event scheduled less than 5 s before a grid point
    that lands exactly on it (checkpoint intervals under 5 s, short revote
    timeouts, TOB latency) could fall on the other side of the check;
    `tests/test_churn_driver.py` runs such settings against a 5 s poller.
    """

    POLL = 5.0

    def __init__(self, run: "SimulationRun"):
        self.run = run
        self.ops = list(run.scenario.churn)
        self.index = 0
        self.done = False
        self._current_agent: JoinerAgent | None = None
        self._current_op = None
        # the grid time of the failed check the driver is parked at
        self._parked_at: float | None = None
        run.ledger.add_observer(self.wake)
        run.ledger.add_drain_hook(self.wake)

    def start(self) -> None:
        self._next_op()

    def _next_op(self) -> None:
        if self.index >= len(self.ops):
            self.done = True
            return
        op = self.ops[self.index]
        self.index += 1
        self._current_op = op
        run = self.run
        if op.op == "join":
            node = run._make_node(op.node)
            run.adversary.node_built(node)
            agent = JoinerAgent(node, on_admitted=self.wake)
            self._current_agent = agent
            agent.start()
            delay = run.ledger.records[agent.register_tx_id].inclusion_delay
            run.monitor.join_started(op.node, run.sim.now, delay)
        elif op.op == "leave":
            LeaverAgent(run.nodes[op.node]).start()
        elif op.op == "evict":
            submitter = op.by or next(
                m for m in run.nodes[op.node].c_cur.members if m != op.node
            )
            payload = ("evict_request", op.node, self.index, ("pom", op.node))
            for member in run.nodes[submitter].c_cur.members:
                run.sim.send(submitter, member, payload)
        run.sim.schedule_in(self.POLL, self._poll, label="driver-poll")

    def _poll(self) -> None:
        if self._settled():
            self._current_agent = None
            self._next_op()
        elif self._awaits_event():
            self._parked_at = self.run.sim.now
        else:
            self.run.sim.schedule_in(self.POLL, self._poll, label="driver-poll")

    def _settled(self) -> bool:
        op = self._current_op
        run = self.run
        if op.op == "join":
            if self._current_agent is None or not self._current_agent.admitted:
                return False
        else:
            target = run.nodes[op.node]
            if not target.retired:
                return False
        return run.quiescent()

    def _awaits_event(self) -> bool:
        """Whether the op cannot settle before an admission, the execution of
        the last pending vote or a confirmation."""
        agent = self._current_agent
        if agent is not None and not agent.admitted:
            return True
        return self.run.ledger.pending_votes > 0 or not self.run.publication_confirmed()

    def wake(self) -> None:
        """Check again at the next grid point, if parked."""
        parked = self._parked_at
        if parked is None:
            return
        self._parked_at = None
        sim = self.run.sim
        at = parked + max(1, math.ceil((sim.now - parked) / self.POLL)) * self.POLL
        if at < sim.now:   # the division rounded down
            at += self.POLL
        sim.schedule(at, self._poll, label="driver-poll")


class SimulationRun:
    def __init__(self, scenario: ScenarioConfig):
        scenario.validate()
        self.scenario = scenario
        network = NetworkConfig(
            gst=scenario.gst,
            delta=scenario.delta,
            pre_gst_drop_probability=scenario.pre_gst_drop_probability,
            pre_gst_max_delay=scenario.pre_gst_max_delay,
        )
        self.sim = SimulationCore(seed=scenario.seed, network=network)
        genesis = Configuration(0, scenario.initial_members())
        self.genesis = genesis
        self.contract = RegistryContract(genesis, cost=scenario.registration_cost)
        self.monitor = RunMonitor(self.sim, checkpoint_interval=scenario.checkpoint_interval)
        self.monitor.contract = self.contract
        self.monitor.bypass = scenario.bypass_validation
        self.ledger = Ledger(
            self.sim,
            self.contract,
            gas=scenario.gas,
            price=scenario.price,
            block_interval=TruncatedNormal(scenario.block_mean, scenario.block_sd, scenario.block_min),
            inclusion_delay=TruncatedNormal(scenario.tx_mean, scenario.tx_sd, scenario.tx_min),
            confirmation_depth=scenario.confirmation_depth,
        )
        self.tob = TotalOrderBroadcast(self.sim, latency=scenario.tob_latency)
        self.params = NodeParams(
            policy=scenario.policy,
            fixed_t=scenario.fixed_t,
            revote_timeout=scenario.revote_after(),
            leavers_vote=scenario.leavers_vote,
            registration_fee=scenario.registration_fee,
            pom_validator=lambda node, pom: node in scenario.valid_poms,
        )

        self.nodes: dict[str, BftNode] = {}
        # whether some replica may have a pending request or a vote check due
        self._checkpoint_due = True
        for member in genesis.members:
            node = self._make_node(member)
            node.activate(from_log_index=0)

        self.adversary = AdversaryController(
            self.sim, self.monitor, grace_p=scenario.grace_p(), bypass=scenario.bypass_validation
        )
        self.adversary.setup(scenario.corruption, self.nodes, self.ledger)
        self.ledger.add_publication_hook(self.adversary.on_publication)

        self.client: ClusterClient | None = None
        if scenario.client is not None:
            mode = ClientMode(scenario.client.mode)
            p_bound = scenario.client.p_bound or scenario.grace_p()
            self.client = ClusterClient(
                self.sim, "client", self.ledger, mode, p_bound, monitor=self.monitor
            )

        self.driver = ChurnDriver(self)
        self._client_scheduled = False

    # -- construction helpers ----------------------------------------------------

    def _make_node(self, node_id: str) -> BftNode:
        node = BftNode(
            self.sim, node_id, self.tob, self.ledger, self.genesis, self.params, self.monitor,
            on_due=self._mark_checkpoint_due,
        )
        self.nodes[node_id] = node
        return node

    # -- checkpointing -------------------------------------------------------------

    def _mark_checkpoint_due(self) -> None:
        self._checkpoint_due = True

    def _checkpoint_tick(self) -> None:
        """Checkpoint, in creation order, each active replica that is due
        (`BftNode.due`); any other would change nothing.

        The flag starts up for the genesis replicas.  After that a replica
        becomes due only through `_enqueue` and `adopt` (which is also how a
        joiner becomes active), and both raise the flag (`on_due`); a
        checkpointed replica stays due only with requests still pending, and
        the walk raises the flag for those.  So a tick with the flag down has no
        replica to visit and costs O(1), and a replica made due during a walk
        is visited by the next tick at the latest, as before.  Every tick
        re-arms the next at the same time either way, so ticks keep their
        place among events at equal times."""
        if self._checkpoint_due:
            self._checkpoint_due = False
            for node in self.nodes.values():
                if node.active and node.due():
                    node.on_checkpoint()
                    if node.pending:
                        self._checkpoint_due = True
        self.sim.schedule_in(
            self.scenario.checkpoint_interval, self._checkpoint_tick, label="checkpoint"
        )

    # -- quiescence -------------------------------------------------------------------

    def correct_active_nodes(self) -> list[BftNode]:
        return [
            n
            for n in self.nodes.values()
            if n.active and n.id not in self.monitor.byzantine
        ]

    def publication_confirmed(self) -> bool:
        """Whether the ledger has confirmed the configuration the contract stores."""
        return self.ledger.confirmed_config() is self.contract.c_cur

    def quiescent(self) -> bool:
        """No vote in flight, the stored configuration confirmed, and every
        correct active replica with nothing pending and its latest registry
        answer less than `_t()` from `c_cur`.

        `latest_registry_config` latches the answer the replicas holding one
        `c_cur` share, but asking it here changes no later answer: while
        `c_cur` stays, the threshold and the members stay, observer sets only
        grow and configurations rank in the order of their numbers, so an
        answer asked late equals one asked after every observation, and a
        replica that changes `c_cur` through `on_checkpoint` asks before each
        apply anyway.  So the walk may stop at the first replica that is not
        settled, after the ledger checks."""
        if self.ledger.pending_votes or not self.publication_confirmed():
            return False
        byzantine = self.monitor.byzantine
        for node in self.nodes.values():
            if not node.active or node.id in byzantine:
                continue
            if node.pending:
                return False
            if symmetric_difference(node.latest_registry_config(), node.c_cur) >= node._t():
                return False
        return True

    # -- main loop -----------------------------------------------------------------------

    def run(self, max_time: float | None = None) -> RunResult:
        """Run to completion or `max_time`.  An invariant violation from any
        layer leaves with the engine's recent events appended to its message."""
        cap = max_time if max_time is not None else self.scenario.max_sim_time
        self.ledger.start()
        self.sim.schedule_in(
            self.scenario.checkpoint_interval, self._checkpoint_tick, label="checkpoint"
        )
        if self.client is not None:
            self.client.bootstrap()
        self.driver.start()

        completed = False
        try:
            while self.sim.now < cap:
                self.sim.run(until=min(self.sim.now + RUN_STEP, cap))
                self._maybe_fire_client()
                if self._complete():
                    completed = True
                    break
            if completed:
                self._final_checks()
        except InvariantViolation as exc:
            events = "".join(f"\n  {at:.6f} {label}" for at, label in self.sim.trace)
            exc.args = (f"{exc}\nrecent events, oldest first:{events}",)
            raise
        return self._collect(completed)

    def _maybe_fire_client(self) -> None:
        if self.client is None or self._client_scheduled or not self.driver.done:
            return
        if self.scenario.corruption and self.adversary.all_activated_at is None:
            return
        self._client_scheduled = True
        offset = self.scenario.client.reconnect_offset
        base = self.adversary.all_activated_at if self.scenario.corruption else self.sim.now
        fire_at = max(self.sim.now, base + offset)
        self.sim.schedule(fire_at, self.client.submit_request, label="client-reconnect")

    def _complete(self) -> bool:
        if not self.driver.done:
            return False
        if self.scenario.corruption and self.adversary.all_activated_at is None:
            return False
        if self.client is not None and not self.monitor.client_outcomes:
            return False
        return True

    def _final_checks(self) -> None:
        chains = {}
        for node in self.correct_active_nodes():
            chains.setdefault(node.c_cur.key(), []).append(node.id)
        if len(chains) > 1:
            raise InvariantViolation(f"correct replicas disagree on the final configuration: {chains}")

    # -- result assembly --------------------------------------------------------------------

    def _collect(self, completed: bool) -> RunResult:
        joins = sorted(self.monitor.completed_joins, key=lambda r: r.processed_at)
        votes = []
        # accepted vote gas by the interned configuration voted for
        gas_by_config: dict[Configuration, int] = {}
        for record in self.ledger.vote_records():
            config, report, gas = record.tx.config, record.report, record.receipt.gas_used
            votes.append(
                VoteRecord(
                    size=config.size,
                    config_number=config.number,
                    gas_used=gas,
                    is_first_vote=report.first_vote,
                    is_update_vote=report.triggered_update,
                )
            )
            if report.accepted:
                gas_by_config[config] = gas_by_config.get(config, 0) + gas

        updates = []
        configs = [
            ConfigRecord(
                number=self.genesis.number,
                size=self.genesis.size,
                height=0,
                time=0.0,
                members=self.genesis.members,
            )
        ]
        block_rows = []
        # blocks in height order and their transactions in execution order,
        # which is also the order of `Ledger.config_log`
        for height, tx_ids in self.ledger.block_tx_ids.items():
            at = self.ledger.block_times[height]
            for tx_id in tx_ids:
                record = self.ledger.records[tx_id]
                report = record.report
                block_rows.append(
                    (height, at, record.tx.kind, record.receipt.gas_used, report.accepted)
                )
                for event in report.updates:
                    config = event.new
                    updates.append(
                        UpdateRecord(
                            size=config.size,
                            joiners=event.members_added,
                            leavers=event.members_removed,
                            total_gas=gas_by_config.get(config, 0),
                            number=config.number,
                            height=height,
                            time=at,
                        )
                    )
                    configs.append(
                        ConfigRecord(
                            number=config.number,
                            size=config.size,
                            height=height,
                            time=at,
                            members=config.members,
                        )
                    )

        return RunResult(
            scenario_name=self.scenario.name,
            seed=self.scenario.seed,
            end_time=self.sim.now,
            completed=completed,
            joins=joins,
            votes=votes,
            updates=updates,
            configs=configs,
            client_outcomes=list(self.monitor.client_outcomes),
            price=self.scenario.price,
            block_rows=block_rows,
        )


def run_scenario(scenario: ScenarioConfig, max_time: float | None = None) -> RunResult:
    return SimulationRun(scenario).run(max_time=max_time)
