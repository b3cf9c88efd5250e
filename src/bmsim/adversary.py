"""Scenario-driven fault injection.

Corruption respects the model's budget: while a configuration is the latest
published one (or was published less than the grace period ago), at most f of
its members may misbehave.  Members of long-retired configurations may be
corrupted without limit, which is what the long-range attack exploits.
Schedules are validated statically so broken scenarios fail before any event
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from bmsim.errors import ScenarioValidationError
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


def validate_schedule(
    entries: list[CorruptionEntry],
    projected_configs: list[tuple[NodeId, ...]],
    bypass: bool = False,
) -> None:
    """Static check against the per-configuration corruption budget.

    Publication wall-times are not known before the run, so entries with an
    absolute activation time are counted against every projected configuration
    they belong to; retirement-relative entries are safe by construction
    because every configuration containing the node is at least the grace
    period old when the trigger fires.
    """
    if bypass:
        return
    timed = [e for e in entries if e.at_time is not None]
    for index, members in enumerate(projected_configs):
        member_set = set(members)
        bad = [e for e in timed if e.node in member_set]
        f = (len(members) - 1) // 3
        if len(bad) > f:
            names = ", ".join(e.describe() for e in bad)
            raise ScenarioValidationError(
                "corruption",
                f"configuration #{index} ({len(members)} members) would have "
                f"{len(bad)} > f={f} corruptible members: {names}",
            )


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
        self._pending_retirement: list[CorruptionEntry] = []
        self._publications: list[tuple[float, Configuration]] = []
        self.all_activated_at: float | None = None

    def setup(self, entries: list[CorruptionEntry], nodes: dict[NodeId, BftNode], genesis: Configuration) -> None:
        self.entries = list(entries)
        self.nodes = nodes
        self.forged_payload = b"forged-state:" + str(self.sim.seed).encode()
        self._publications.append((0.0, genesis))
        if self.monitor is not None:
            self.monitor.forged_payload = self.forged_payload
        for entry in self.entries:
            if entry.at_time is not None:
                self.sim.schedule(entry.at_time, lambda e=entry: self._activate(e), label="corrupt")
            else:
                self._pending_retirement.append(entry)

    def on_publication(self, config: Configuration, at: float) -> None:
        """Called whenever the registry stores a new configuration."""
        self._publications.append((at, config))
        members = set(config.members)
        still_pending = []
        for entry in self._pending_retirement:
            if entry.node not in members and self._was_member_before(entry.node, config.number):
                self.sim.schedule(
                    at + self.grace_p + 1.0,
                    lambda e=entry: self._activate(e),
                    label="corrupt",
                )
            else:
                still_pending.append(entry)
        self._pending_retirement = still_pending

    def _was_member_before(self, node: NodeId, number: int) -> bool:
        for _, config in self._publications:
            if config.number < number and node in config.members:
                return True
        return False

    def _activate(self, entry: CorruptionEntry) -> None:
        if entry.node in self._activated:
            return
        self._runtime_budget_check(entry)
        self._activated.add(entry.node)
        node = self.nodes[entry.node]
        node.corrupt(entry.behaviors, self)
        if self.monitor is not None:
            self.monitor.mark_byzantine(entry.node)
            self.monitor.note(f"{self.sim.now:.2f} corrupted {entry.node}")
        if len(self._activated) == len(self.entries):
            self.all_activated_at = self.sim.now

    def _runtime_budget_check(self, entry: CorruptionEntry) -> None:
        if self.bypass:
            return
        now = self.sim.now
        active = self._activated | {entry.node}
        recent = [
            (at, config)
            for at, config in self._publications
            if now - at < self.grace_p or (at, config) == self._publications[-1]
        ]
        if self._publications:
            latest = self._publications[-1]
            if latest not in recent:
                recent.append(latest)
        for at, config in recent:
            bad = active & set(config.members)
            f = max_faults(config)
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
