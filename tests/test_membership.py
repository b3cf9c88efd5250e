"""Membership arithmetic: frozen examples, properties, brute-force oracles."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmsim.errors import InvalidInputError
from bmsim.membership import (
    Configuration,
    Policy,
    max_batch_threshold,
    max_correct_leavers,
    max_faults,
    overlap_ok,
    policy_threshold,
    symmetric_difference,
    vote_threshold,
)


def cfg(n: int, number: int = 0, prefix: str = "n") -> Configuration:
    return Configuration(number, tuple(f"{prefix}{i}" for i in range(n)))


def cfg_of(members, number: int = 0) -> Configuration:
    return Configuration(number, tuple(members))


# ---------------------------------------------------------------------------
# Brute-force oracle for the batching threshold.
#
# A churn sequence of joins (fresh nodes) and leaves (worst case: always an
# original member) is applied to a published configuration of size n.  The
# adversary may corrupt original members that never leave, but in each
# intermediate configuration the number of corrupted members must stay within
# that configuration's fault budget; shrinking the cluster therefore shrinks
# what the adversary can hold corrupted throughout the window.  Publishing
# needs f(n)+1 correct original members still present.
# ---------------------------------------------------------------------------


def _f(m: int) -> int:
    return (m - 1) // 3


def _sequence_publishable(n: int, leave_positions: frozenset, length: int) -> bool:
    size = n
    budget = _f(n)
    leaves = 0
    for pos in range(length):
        if pos in leave_positions:
            size -= 1
            leaves += 1
            if leaves > n or size < 1:
                # cannot remove an original that is not there / empty cluster
                return True  # unreachable sequence, vacuously fine
        else:
            size += 1
        budget = min(budget, _f(size))
    overlap = n - leaves
    corrupt_in_overlap = min(budget, overlap)
    return overlap - corrupt_in_overlap >= _f(n) + 1


def brute_force_batch_threshold(n: int) -> int:
    """Largest t such that every length-t churn sequence stays publishable."""
    t = 0
    while True:
        cand = t + 1
        all_ok = True
        for n_leaves in range(cand + 1):
            for leave_positions in itertools.combinations(range(cand), n_leaves):
                if not _sequence_publishable(n, frozenset(leave_positions), cand):
                    all_ok = False
                    break
            if not all_ok:
                break
        if not all_ok:
            return t
        t = cand
        if t > n + cand + 10:  # safety net, never hit in practice
            raise AssertionError("oracle diverged")


# ---------------------------------------------------------------------------
# max_faults / vote_threshold
# ---------------------------------------------------------------------------


def test_max_faults_examples():
    assert max_faults(4) == 1
    assert max_faults(1) == 0
    assert max_faults(13) == 4


def test_max_faults_rejects_empty():
    with pytest.raises(InvalidInputError):
        Configuration(0, ())


def test_vote_threshold_examples():
    assert vote_threshold(cfg(4)) == 2
    assert vote_threshold(cfg(1)) == 1
    assert vote_threshold(cfg(100)) == 34


@given(st.integers(min_value=1, max_value=300))
def test_fault_bound_properties(n):
    c = cfg(n)
    assert vote_threshold(c) > max_faults(n)
    assert 3 * max_faults(n) < n


# ---------------------------------------------------------------------------
# overlap_ok
# ---------------------------------------------------------------------------


def test_overlap_identical_configs():
    for n in (1, 4, 7, 40):
        assert overlap_ok(cfg(n), cfg(n, number=1))


def test_overlap_examples():
    c_pub = cfg_of("ABCD")
    assert not overlap_ok(c_pub, cfg_of("CDEF", number=1))
    assert overlap_ok(c_pub, cfg_of("BCDE", number=1))


# ---------------------------------------------------------------------------
# max_batch_threshold
# ---------------------------------------------------------------------------


def test_max_batch_threshold_examples():
    assert max_batch_threshold(4) == 2
    assert max_batch_threshold(13) == 7
    assert max_batch_threshold(6) == 4


def test_max_batch_threshold_optimal_sizes_half():
    for f in range(1, 34):
        n = 3 * f + 1
        assert max_batch_threshold(n) == math.ceil(n / 2)


def test_max_batch_threshold_matches_brute_force_oracle():
    for n in range(1, 17):
        assert max_batch_threshold(n) == brute_force_batch_threshold(n), n


def test_reachable_configs_below_threshold_stay_publishable():
    # Every local configuration within the batching threshold, with correct
    # departures within bound, keeps a publishable overlap.
    for n in range(4, 17):
        c_pub = cfg(n)
        t = max_batch_threshold(n)
        leavers_cap = max_correct_leavers(n)
        for diff in range(1, t):
            for n_leaves in range(0, min(diff, leavers_cap) + 1):
                n_joins = diff - n_leaves
                members = list(c_pub.members[: n - n_leaves])
                members += [f"j{i}" for i in range(n_joins)]
                c_local = cfg_of(members, number=diff)
                assert overlap_ok(c_pub, c_local), (n, n_joins, n_leaves)


# ---------------------------------------------------------------------------
# max_correct_leavers
# ---------------------------------------------------------------------------


def test_max_correct_leavers_examples():
    assert max_correct_leavers(4) == 1
    assert max_correct_leavers(1) == 0
    assert max_correct_leavers(10) == 3


# ---------------------------------------------------------------------------
# symmetric_difference
# ---------------------------------------------------------------------------


def test_symmetric_difference_examples():
    c = cfg_of("ABCD")
    assert symmetric_difference(c, c) == 0
    assert symmetric_difference(c, cfg_of("ABCDE", number=1)) == 1
    assert symmetric_difference(c, cfg_of("BCDE", number=1)) == 2


@st.composite
def _member_sets(draw):
    universe = [f"p{i}" for i in range(12)]
    members = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=12, unique=True))
    return cfg_of(members)


@settings(max_examples=200)
@given(_member_sets(), _member_sets(), _member_sets())
def test_symmetric_difference_is_a_metric(a, b, c):
    assert symmetric_difference(a, b) == symmetric_difference(b, a)
    assert (symmetric_difference(a, b) == 0) == (set(a.members) == set(b.members))
    assert symmetric_difference(a, c) <= symmetric_difference(a, b) + symmetric_difference(b, c)


# ---------------------------------------------------------------------------
# policy_threshold
# ---------------------------------------------------------------------------


def test_policy_threshold_examples():
    assert policy_threshold(Policy.EVERY, 4) == 1
    assert policy_threshold(Policy.EVERY, 97) == 1
    assert policy_threshold(Policy.HALF_F, 12) == 1
    assert policy_threshold(Policy.HALF_F, 13) == 2


def test_policy_threshold_floors_at_one():
    for n in range(1, 13):
        assert policy_threshold(Policy.HALF_F, n) == 1


def test_fixed_policy_requires_value():
    assert policy_threshold(Policy.FIXED, 4, fixed_t=3) == 3
    with pytest.raises(InvalidInputError):
        policy_threshold(Policy.FIXED, 4)


# ---------------------------------------------------------------------------
# Configuration invariants
# ---------------------------------------------------------------------------


def test_configuration_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        Configuration(0, ("a", "a"))


def test_configuration_auto_vote_threshold():
    c = cfg(7)
    assert c.v == max_faults(c.size) + 1


def test_with_and_without_member():
    c = cfg(4)
    grown = c.with_member("x")
    assert grown.number == 1 and grown.size == 5 and grown.v == 2
    shrunk = grown.without_member("n0")
    assert shrunk.number == 2 and "n0" not in shrunk.members


def test_equal_keys_share_one_configuration():
    c = cfg(5, number=3)
    assert cfg(5, number=3) is c
    assert Configuration(3, list(c.members)) is c
    assert c.with_member("x") is c.with_member("x") is cfg_of(c.members + ("x",), 4)
    assert c.without_member("n0") is cfg_of(c.members[1:], 4)


def test_interning_keeps_nothing_alive():
    import gc
    import weakref

    ref = weakref.ref(cfg(6, number=12345))
    gc.collect()
    assert ref() is None


@given(st.sets(st.integers(0, 12)), st.sets(st.integers(0, 12)))
def test_set_arithmetic_matches_members(a, b):
    ca = Configuration(1, tuple(f"n{i}" for i in sorted(a)) or ("z",))
    cb = Configuration(2, tuple(f"n{i}" for i in sorted(b)) or ("z",))
    sa, sb = set(ca.members), set(cb.members)
    assert symmetric_difference(ca, cb) == len(sa ^ sb)
    assert symmetric_difference(ca, ca) == 0
    assert overlap_ok(ca, cb) == (len(sa & sb) >= max_faults(len(sa)) + max_faults(len(sb)) + 1)
    assert overlap_ok(cb, cb)
