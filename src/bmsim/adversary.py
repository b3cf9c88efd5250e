"""Scenario-driven fault injection.

Corruption respects the model's budget: while a configuration is the latest
published one (or was published less than the grace period ago), at most f of
its members may misbehave.  Members of long-retired configurations may be
corrupted without limit, which is what the long-range attack exploits.
`ScenarioConfig.validate` checks the budget of every configuration a
scenario's churn passes through before any event runs; the controller checks
it again at each activation against the configurations the ledger actually
stored, read from `Ledger.config_log`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from bmsim.errors import ScenarioValidationError
from bmsim.ledger import Ledger
from bmsim.membership import Configuration, NodeId, max_faults
from bmsim.node import Behavior, BftNode


@dataclass
class CorruptionEntry:
    node: NodeId
    behaviors: tuple[Behavior, ...] = ()
    # exactly one trigger form
    at_time: float | None = field(default=None, metadata={"ge": 0.0})
    after_retirement: bool = False

    def describe(self) -> str:
        when = f"t={self.at_time}" if self.at_time is not None else "retirement+P"
        return f"{self.node}@{when}"


class AdversaryController:
    """Activates corruption entries at their trigger points and coordinates
    colluding behavior (shared forged state)."""

    def __init__(self, sim, monitor, grace_p: float, bypass: bool = False):
        self.sim = sim
        self.monitor = monitor
        self.grace_p = grace_p
        self.bypass = bypass
        self.nodes: dict[NodeId, BftNode] = {}
        self.entries: list[CorruptionEntry] = []
        self.forged_payload: bytes = b""
        self._activated: set[NodeId] = set()
        # behaviors of activated joiners whose node is not built yet
        self._deferred: dict[NodeId, tuple[Behavior, ...]] = {}
        self._pending_retirement: list[CorruptionEntry] = []
        self.ledger: Ledger | None = None
        self.all_activated_at: float | None = None

    def setup(self, entries: list[CorruptionEntry], nodes: dict[NodeId, BftNode], ledger: Ledger) -> None:
        self.entries = list(entries)
        self.nodes = nodes
        self.ledger = ledger
        self.forged_payload = b"forged-state:" + str(self.sim.seed).encode()
        self.monitor.forged_payload = self.forged_payload
        for entry in self.entries:
            if entry.at_time is not None:
                self.sim.schedule(entry.at_time, lambda e=entry: self._activate(e), label="corrupt")
            else:
                self._pending_retirement.append(entry)

    def on_publication(self, config: Configuration, at: float) -> None:
        """Called whenever the registry stores a new configuration."""
        still_pending = []
        for entry in self._pending_retirement:
            if entry.node not in config.member_set and self._was_member_before(entry.node, config.number):
                self.sim.schedule(
                    at + self.grace_p + 1.0,
                    lambda e=entry: self._activate(e),
                    label="corrupt",
                )
            else:
                still_pending.append(entry)
        self._pending_retirement = still_pending

    def _was_member_before(self, node: NodeId, number: int) -> bool:
        for _, config in self.ledger.config_log:
            if config.number < number and node in config.member_set:
                return True
        return False

    def _activate(self, entry: CorruptionEntry) -> None:
        if entry.node in self._activated:
            return
        self._runtime_budget_check(entry)
        self._activated.add(entry.node)
        node = self.nodes.get(entry.node)
        if node is None:
            self._deferred[entry.node] = entry.behaviors
        else:
            node.corrupt(entry.behaviors, self)
        self.monitor.mark_byzantine(entry.node)
        self.monitor.note(f"corrupted {entry.node}")
        if len(self._activated) == len(self.entries):
            self.all_activated_at = self.sim.now

    def node_built(self, node: BftNode) -> None:
        """Apply the behaviors of an entry activated before `node` existed."""
        behaviors = self._deferred.pop(node.id, None)
        if behaviors is not None:
            node.corrupt(behaviors, self)

    def _runtime_budget_check(self, entry: CorruptionEntry) -> None:
        if self.bypass:
            return
        now = self.sim.now
        active = self._activated | {entry.node}
        log = self.ledger.config_log
        for height, config in log:
            at = self.ledger.block_times[height]
            # the latest configuration is checked however long ago it was stored
            if now - at >= self.grace_p and config is not log[-1][1]:
                continue
            bad = active & config.member_set
            f = max_faults(config.size)
            if len(bad) > f:
                raise ScenarioValidationError(
                    "corruption",
                    f"at t={now:.2f} configuration #{config.number} (published "
                    f"t={at:.2f}) would have {len(bad)} > f={f} misbehaving members",
                )

    def bogus_config(self, node: BftNode) -> Configuration:
        """A syntactically valid but adversary-chosen vote target."""
        base = node.published()
        return Configuration(base.number + 99, ("evil",) + base.members[1:])
