"""Registry contract: registrations, member-gated voting, threshold updates
and reward distribution.

The contract is executed by the ledger on each included transaction and knows
nothing about blocks or gas; it returns an execution report from which the
ledger meters gas.  Currency is integral, so reward splits use floor division
and dust remains in the contract balance, which keeps conservation exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from bmsim.errors import InvalidStateError, InvariantViolation
from bmsim.membership import Configuration, NodeId


class VoteMode(enum.Enum):
    COUNT = "count"
    STAKE_WEIGHTED = "stake"


@dataclass
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


@dataclass
class UpdateEvent:
    old: Configuration
    new: Configuration
    voters: tuple[NodeId, ...]
    reward_per_voter: int
    members_added: int
    members_removed: int


@dataclass
class ExecutionReport:
    """What a transaction did, for gas metering and metrics."""

    kind: str                       # "register" | "vote"
    accepted: bool
    duplicate_vote: bool = False
    first_vote: bool = False
    scanned_members: int = 0        # stored-config size at the membership check
    proposed_size: int = 0
    proposed_number: int = 0
    updates: list[UpdateEvent] = field(default_factory=list)

    @property
    def triggered_update(self) -> bool:
        return bool(self.updates)


class RegistryContract:
    """State machine storing the cluster's published configuration."""

    def __init__(
        self,
        genesis: Configuration,
        cost: int = 100,
        mode: VoteMode = VoteMode.COUNT,
        stakes: dict[NodeId, int] | None = None,
    ):
        self.c_cur = genesis
        self.cost = cost
        self.mode = mode
        self.stakes = dict(stakes) if stakes else {}
        self.registrations: list[Registration] = []
        # vote sets keyed by (number, members); dicts keep insertion order
        self._votes: dict[tuple, dict[NodeId, None]] = {}
        self._vote_configs: dict[tuple, Configuration] = {}
        self.balance = 0
        self.total_collected = 0
        self.total_paid = 0
        self.rewards: dict[NodeId, int] = {}
        self.update_log: list[UpdateEvent] = []

    # -- reads ---------------------------------------------------------------

    def votes_for(self, config: Configuration) -> set[NodeId]:
        return set(self._votes.get(config.key(), {}))

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
        report = ExecutionReport(kind="register", accepted=False)
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
        report = ExecutionReport(
            kind="vote",
            accepted=False,
            scanned_members=self.c_cur.size,
            proposed_size=config.size,
            proposed_number=config.number,
        )
        if voter not in self.c_cur.members:
            return report
        if config.number <= self.c_cur.number:
            return report
        key = config.key()
        voters = self._votes.get(key)
        if voters is None:
            voters = {}
            self._votes[key] = voters
            self._vote_configs[key] = config
            report.first_vote = True
        if voter in voters:
            report.duplicate_vote = True
        else:
            voters[voter] = None
        report.accepted = True
        report.updates = self._try_update()
        return report

    # -- update logic ----------------------------------------------------------

    def _counted_voters(self, key: tuple) -> list[NodeId]:
        members = set(self.c_cur.members)
        return [p for p in self._votes[key] if p in members]

    def _threshold_met(self, counted: list[NodeId]) -> bool:
        if self.mode is VoteMode.COUNT:
            return len(counted) >= self.c_cur.v
        total = 0
        for member in self.c_cur.members:
            if member not in self.stakes:
                raise InvalidStateError(f"no stake recorded for member {member!r}")
            total += self.stakes[member]
        voted = sum(self.stakes[p] for p in counted)
        return 3 * voted > total

    def _try_update(self) -> list[UpdateEvent]:
        events = []
        while True:
            candidates = []
            for key in self._votes:
                number, members = key
                if number <= self.c_cur.number:
                    continue
                counted = self._counted_voters(key)
                if counted and self._threshold_met(counted):
                    candidates.append((number, members, counted))
            if not candidates:
                return events
            number, members, counted = max(
                candidates, key=lambda c: (c[0], tuple(reversed(c[1])))
            )
            events.append(self._execute_update(self._vote_configs[(number, members)], counted))

    def _execute_update(self, new_config: Configuration, counted: list[NodeId]) -> UpdateEvent:
        joining = set(new_config.members) - set(self.c_cur.members)
        leaving = set(self.c_cur.members) - set(new_config.members)
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
        # the stored threshold is always recomputed for the incoming membership
        self.c_cur = Configuration(new_config.number, new_config.members)
        if self.c_cur.number <= old.number:
            raise InvariantViolation("configuration number did not increase")
        self._gc_votes(self.c_cur.number)
        event = UpdateEvent(
            old=old,
            new=self.c_cur,
            voters=tuple(counted),
            reward_per_voter=share,
            members_added=len(joining),
            members_removed=len(leaving),
        )
        self.update_log.append(event)
        self.check_conservation()
        return event

    def _gc_votes(self, up_to_number: int) -> None:
        stale = [key for key in self._votes if key[0] <= up_to_number]
        for key in stale:
            del self._votes[key]
            del self._vote_configs[key]

    # -- introspection -----------------------------------------------------------

    def weighted_vote_threshold_met(self, config: Configuration) -> bool:
        if self.mode is not VoteMode.STAKE_WEIGHTED:
            raise InvalidStateError("contract is not in stake-weighted mode")
        key = config.key()
        if key not in self._votes:
            return False
        return self._threshold_met(self._counted_voters(key))

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
            "votes": {
                key: tuple(sorted(voters)) for key, voters in sorted(self._votes.items())
            },
        }
