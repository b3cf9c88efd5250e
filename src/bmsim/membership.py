"""Pure membership arithmetic: fault bounds, quorums, overlap and batching.

Everything here is side-effect free and total over configurations, which
are never empty: `Configuration` rejects an empty member list rather than
mapping it to zero so that scenario bugs surface early.  A bound that
depends only on the member count takes the count, so scenario validation
can check every configuration of a churn without building one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from bmsim.errors import InvalidInputError

NodeId = str


@dataclass(frozen=True)
class Configuration:
    """A numbered membership of the cluster.

    `members` is an ordered, duplicate-free tuple of node ids; `number`
    strictly increases along any accepted configuration chain.  `v` is the
    count of registry votes needed to replace this configuration once it is
    the stored one.
    """

    number: int
    members: tuple[NodeId, ...]
    v: int = field(default=-1)

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise InvalidInputError(f"duplicate members in configuration {self.number}")
        if not self.members:
            raise InvalidInputError("configuration must have at least one member")
        if self.v < 0:
            object.__setattr__(self, "v", max_faults(len(self.members)) + 1)

    @property
    def size(self) -> int:
        return len(self.members)

    def key(self) -> tuple[int, tuple[NodeId, ...]]:
        """Identity used when counting votes: number plus exact member list."""
        return (self.number, self.members)

    def with_member(self, node: NodeId) -> "Configuration":
        return Configuration(self.number + 1, self.members + (node,))

    def without_member(self, node: NodeId) -> "Configuration":
        return Configuration(self.number + 1, tuple(m for m in self.members if m != node))


def max_faults(n: int) -> int:
    """Largest tolerated number of Byzantine members among n: floor((n - 1) / 3)."""
    return (n - 1) // 3


def vote_threshold(c: Configuration) -> int:
    """Votes required to replace `c` at the registry: one more than max_faults."""
    return max_faults(c.size) + 1


def overlap_ok(c_pub: Configuration, c_local: Configuration) -> bool:
    """True when the two configurations share enough members to keep the
    registry updatable: the overlap must exceed both fault budgets combined."""
    overlap = len(set(c_pub.members) & set(c_local.members))
    return overlap >= max_faults(c_pub.size) + max_faults(c_local.size) + 1


def max_batch_threshold(n: int) -> int:
    """Upper bound on the batching threshold relative to a published
    configuration of `n` members: floor(3f/2) + 1 + ((n - 1) mod 3).

    For n = 3f + 1 this equals ceil(n / 2).
    """
    return (3 * max_faults(n)) // 2 + 1 + ((n - 1) % 3)


def max_correct_leavers(n: int) -> int:
    """How many correct members may depart from a published configuration of
    `n` members before publishing becomes impossible: n - (2f + 1)."""
    return n - (2 * max_faults(n) + 1)


def symmetric_difference(c_i: Configuration, c_j: Configuration) -> int:
    """Count of members present in exactly one of the two configurations."""
    return len(set(c_i.members) ^ set(c_j.members))


class Policy(enum.Enum):
    """When the cluster announces its configuration to the registry."""

    EVERY = "every"        # after every local reconfiguration
    HALF_F = "halff"       # after max(1, floor(f/2)) local reconfigurations
    FIXED = "fixed"        # test-only: a constant threshold


def policy_threshold(policy: Policy, n: int, fixed_t: int | None = None) -> int:
    """Announcement threshold in force for a current configuration of n members.

    HALF_F floors at 1: for small clusters floor(f/2) would be 0, but even a
    single membership change must eventually be announced.
    """
    if policy is Policy.EVERY:
        return 1
    if policy is Policy.HALF_F:
        return max(1, max_faults(n) // 2)
    if policy is Policy.FIXED:
        if fixed_t is None or fixed_t < 1:
            raise InvalidInputError("fixed policy needs fixed_t >= 1")
        return fixed_t
    raise InvalidInputError(f"unknown policy {policy!r}")
