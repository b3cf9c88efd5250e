"""Pure membership arithmetic: fault bounds, quorums, overlap and batching.

Everything here is side-effect free and total over configurations, which
are never empty: `Configuration` rejects an empty member list rather than
mapping it to zero so that scenario bugs surface early.  A bound that
depends only on the member count takes the count, so scenario validation
can check every configuration of a churn without building one.

Configurations are interned.  While one is alive, building another with an
equal key (number and member tuple) returns the same object, so every
correct replica walking the same chain holds the same objects, and the
member set and the successors of each are computed once.  `v` is always
derived from the member count, so the key determines the whole object.  The
table holds its objects weakly: it keeps no configuration alive by itself,
so it holds only what some run still references (with the successors those
built) and does not grow across runs.

Because equal live configurations are one object, a configuration compares
and hashes by identity: a dict keyed by configurations (the ordered log's
observation table, the memo below) costs O(1) per lookup, not a hash of the
member tuple.  `symmetric_difference` and `overlap_ok` derive from the count
of shared members, which is memoised per pair of objects on the
lower-numbered one, keyed by the other.  Like `_successors`, every such
reference points to a higher number, so a run's configurations form no
reference cycle and are freed as soon as the run drops them.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from functools import cached_property

from bmsim.errors import InvalidInputError

NodeId = str

# (number, members) -> the live configuration with that key
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    """Metaclass of `Configuration`: looks a configuration up by key before
    building it."""

    def __call__(cls, number, members):
        members = tuple(members)
        key = (number, members)
        config = _interned.get(key)
        if config is None:
            config = _interned[key] = super().__call__(number, members)
        return config


@dataclass(frozen=True, eq=False)
class Configuration(metaclass=_Interned):
    """A numbered membership of the cluster.

    `members` is an ordered, duplicate-free tuple of node ids; `number`
    strictly increases along any accepted configuration chain.  `v` is the
    count of registry votes needed to replace this configuration once it is
    the stored one.  Equality is identity, which interning makes the same as
    equal keys.
    """

    number: int
    members: tuple[NodeId, ...]
    v: int = field(init=False)
    # the member count, read on every threshold and quorum test
    size: int = field(init=False, repr=False)
    # (node, joining) -> the successor `with_member`/`without_member` built
    _successors: dict = field(default_factory=dict, init=False, repr=False)
    # higher-numbered configuration -> the count of members both hold
    _shared: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise InvalidInputError(f"duplicate members in configuration {self.number}")
        if not self.members:
            raise InvalidInputError("configuration must have at least one member")
        object.__setattr__(self, "size", len(self.members))
        object.__setattr__(self, "v", max_faults(self.size) + 1)

    def key(self) -> tuple[int, tuple[NodeId, ...]]:
        """Identity used when counting votes: number plus exact member list."""
        return (self.number, self.members)

    @cached_property
    def member_set(self) -> frozenset[NodeId]:
        """The members as a set, built on first use."""
        return frozenset(self.members)

    def with_member(self, node: NodeId) -> "Configuration":
        return self._successor(node, True)

    def without_member(self, node: NodeId) -> "Configuration":
        return self._successor(node, False)

    def _successor(self, node: NodeId, joining: bool) -> "Configuration":
        successor = self._successors.get((node, joining))
        if successor is None:
            if joining:
                members = self.members + (node,)
            else:
                members = tuple(m for m in self.members if m != node)
            successor = self._successors[node, joining] = Configuration(self.number + 1, members)
        return successor


def max_faults(n: int) -> int:
    """Largest tolerated number of Byzantine members among n: floor((n - 1) / 3)."""
    return (n - 1) // 3


def vote_threshold(c: Configuration) -> int:
    """Votes required to replace `c` at the registry: one more than max_faults."""
    return max_faults(c.size) + 1


def overlap_ok(c_pub: Configuration, c_local: Configuration) -> bool:
    """True when the two configurations share enough members to keep the
    registry updatable: the overlap must exceed both fault budgets combined."""
    if c_pub is c_local:
        return True   # n members overlap in n >= 2 * max_faults(n) + 1
    return _shared_members(c_pub, c_local) >= max_faults(c_pub.size) + max_faults(c_local.size) + 1


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
    if c_i is c_j:
        return 0
    return c_i.size + c_j.size - 2 * _shared_members(c_i, c_j)


def _shared_members(a: Configuration, b: Configuration) -> int:
    """How many members two distinct configurations share, counted once per
    pair.  Two with the same number (a fork) are counted afresh, since
    neither may hold the other."""
    if a.number > b.number:
        a, b = b, a
    elif a.number == b.number:
        return len(a.member_set & b.member_set)
    shared = a._shared.get(b)
    if shared is None:
        shared = a._shared[b] = len(a.member_set & b.member_set)
    return shared


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
