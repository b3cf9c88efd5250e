"""Registry contract: registrations, member-gated voting, threshold updates
and reward distribution.

The contract is executed by the ledger on each included transaction and knows
nothing about blocks or gas; it returns an execution report from which the
ledger meters gas.  Currency is integral, so reward splits use floor division
and dust remains in the contract balance, which keeps conservation exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from bmsim.errors import InvariantViolation
from bmsim.membership import Configuration, NodeId


@dataclass(slots=True)
class Registration:
    """A joining fee deposit.  Half is paid out when the node enters the
    stored configuration, the other half when it later leaves; the
    registration is consumed once both halves are drawn."""

    id: NodeId
    fee: int
    join_paid: bool = False
    leave_paid: bool = False

    @property
    def consumed(self) -> bool:
        return self.join_paid and self.leave_paid


@dataclass(slots=True)
class UpdateEvent:
    old: Configuration
    new: Configuration
    voters: tuple[NodeId, ...]
    members_added: int
    members_removed: int


@dataclass(slots=True)
class ExecutionReport:
    """What a transaction did, for gas metering and metrics."""

    accepted: bool
    duplicate_vote: bool = False
    first_vote: bool = False
    scanned_members: int = 0        # stored-config size at the membership check
    # the stored-configuration changes the vote made, in execution order
    updates: tuple[UpdateEvent, ...] = ()

    @property
    def triggered_update(self) -> bool:
        return bool(self.updates)


class RegistryContract:
    """State machine storing the cluster's published configuration."""

    def __init__(self, genesis: Configuration, cost: int = 100):
        self.c_cur = genesis
        self.cost = cost
        self.registrations: list[Registration] = []
        # vote sets keyed by the interned configuration; dicts keep insertion order
        self._votes: dict[Configuration, dict[NodeId, None]] = {}
        self.balance = 0
        self.total_collected = 0
        self.total_paid = 0
        self.rewards: dict[NodeId, int] = {}

    # -- reads ---------------------------------------------------------------

    def votes_for(self, config: Configuration) -> set[NodeId]:
        return set(self._votes.get(config, {}))

    def active_registration(self, node: NodeId) -> Registration | None:
        for reg in self.registrations:
            if reg.id == node and not reg.consumed:
                return reg
        return None

    def check_conservation(self) -> None:
        if self.balance + self.total_paid != self.total_collected:
            raise InvariantViolation(
                f"fee conservation broken: balance={self.balance} "
                f"paid={self.total_paid} collected={self.total_collected}"
            )

    # -- transactions ---------------------------------------------------------

    def apply_register(self, node: NodeId, fee: int) -> ExecutionReport:
        report = ExecutionReport(accepted=False)
        if fee < self.cost:
            return report
        if self.active_registration(node) is not None:
            return report
        self.registrations.append(Registration(node, fee))
        self.balance += fee
        self.total_collected += fee
        report.accepted = True
        return report

    def apply_vote(self, config: Configuration, voter: NodeId) -> ExecutionReport:
        report = ExecutionReport(accepted=False, scanned_members=self.c_cur.size)
        if voter not in self.c_cur.members:
            return report
        if config.number <= self.c_cur.number:
            return report
        voters = self._votes.get(config)
        if voters is None:
            voters = self._votes[config] = {}
            report.first_vote = True
        if voter in voters:
            report.duplicate_vote = True
        else:
            voters[voter] = None
        report.accepted = True
        report.updates = self._try_update()
        return report

    # -- update logic ----------------------------------------------------------

    def _counted_voters(self, config: Configuration) -> list[NodeId]:
        members = self.c_cur.member_set
        return [p for p in self._votes[config] if p in members]

    def _try_update(self) -> tuple[UpdateEvent, ...]:
        events = []
        while True:
            candidates = []
            for config in self._votes:
                if config.number <= self.c_cur.number:
                    continue
                counted = self._counted_voters(config)
                if counted and len(counted) >= self.c_cur.v:
                    candidates.append((config, counted))
            if not candidates:
                return tuple(events)
            config, counted = max(
                candidates, key=lambda c: (c[0].number, tuple(reversed(c[0].members)))
            )
            events.append(self._execute_update(config, counted))

    def _execute_update(self, new_config: Configuration, counted: list[NodeId]) -> UpdateEvent:
        joining = new_config.member_set - self.c_cur.member_set
        leaving = self.c_cur.member_set - new_config.member_set
        reward = 0
        for reg in self.registrations:
            if reg.id in joining and not reg.join_paid:
                reward += reg.fee // 2
                reg.join_paid = True
            if reg.id in leaving and not reg.leave_paid:
                reward += reg.fee // 2
                reg.leave_paid = True
        share = reward // len(counted)
        for voter in counted:
            self.balance -= share
            self.total_paid += share
            self.rewards[voter] = self.rewards.get(voter, 0) + share
        if self.balance < 0:
            raise InvariantViolation("contract balance went negative during reward payout")

        old = self.c_cur
        self.c_cur = new_config
        if self.c_cur.number <= old.number:
            raise InvariantViolation("configuration number did not increase")
        self._gc_votes(self.c_cur.number)
        self.check_conservation()
        return UpdateEvent(
            old=old,
            new=self.c_cur,
            voters=tuple(counted),
            members_added=len(joining),
            members_removed=len(leaving),
        )

    def _gc_votes(self, up_to_number: int) -> None:
        stale = [config for config in self._votes if config.number <= up_to_number]
        for config in stale:
            del self._votes[config]

    # -- introspection -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Normalized view of the full state, for oracle comparisons."""
        return {
            "config": (self.c_cur.number, self.c_cur.members),
            "balance": self.balance,
            "collected": self.total_collected,
            "paid": self.total_paid,
            "rewards": dict(sorted(self.rewards.items())),
            "regs": sorted(
                (r.id, r.fee, r.join_paid, r.leave_paid) for r in self.registrations
            ),
            "votes": dict(sorted(
                (config.key(), tuple(sorted(voters))) for config, voters in self._votes.items()
            )),
        }
