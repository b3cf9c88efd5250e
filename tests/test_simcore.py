"""Engine contracts: scheduling order, synchrony bounds, simulated signatures."""

import itertools

import pytest

from bmsim.canonical import encode
from bmsim.errors import InvalidInputError
from bmsim.simcore import (
    TRACE_LEN,
    AuthRegistry,
    NetworkConfig,
    SimulationCore,
    TruncatedNormal,
    truncated_mean,
)


def test_schedule_fires_at_time():
    sim = SimulationCore(seed=1)
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]


def test_equal_timestamps_fire_in_insertion_order():
    sim = SimulationCore(seed=1)
    order = []
    sim.schedule(3.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("c"))
    sim.run()
    assert order == ["c", "a", "b"]


def test_scheduling_in_the_past_rejected():
    sim = SimulationCore(seed=1)
    sim.schedule(2.0, lambda: sim.schedule(1.0, lambda: None))
    with pytest.raises(InvalidInputError):
        sim.run()


def test_post_gst_delivery_within_delta():
    sim = SimulationCore(seed=7, network=NetworkConfig(gst=0.0, delta=0.1))
    got = []
    sim.register_handler("b", lambda env: got.append(sim.now))
    sim.auth.register("a")
    sim.schedule(5.0, lambda: sim.send("a", "b", ("ping",)))
    sim.run()
    assert len(got) == 1
    assert 5.0 <= got[0] <= 5.1


def test_pre_gst_drop_probability_one_drops():
    net = NetworkConfig(gst=100.0, delta=0.1, pre_gst_drop_probability=1.0)
    sim = SimulationCore(seed=7, network=net)
    got = []
    sim.register_handler("b", lambda env: got.append(sim.now))
    sim.auth.register("a")
    sim.schedule(5.0, lambda: sim.send("a", "b", ("ping",)))
    sim.run()
    assert got == []


def test_pre_gst_message_delivered_by_gst_plus_delta():
    net = NetworkConfig(gst=100.0, delta=0.1, pre_gst_max_delay=1e9)
    sim = SimulationCore(seed=7, network=net)
    got = []
    sim.register_handler("b", lambda env: got.append(sim.now))
    sim.auth.register("a")
    sim.schedule(99.0, lambda: sim.send("a", "b", ("ping",)))
    sim.run()
    assert len(got) == 1
    assert got[0] <= 100.1


def test_sign_verify_roundtrip():
    sim = SimulationCore(seed=1)
    sim.auth.register("a")
    sim.auth.register("b")
    tag = sim.auth.sign("a", ("msg", 1))
    assert sim.auth.verify("a", ("msg", 1), tag)
    assert not sim.auth.verify("b", ("msg", 1), tag)
    assert not sim.auth.verify("a", ("msg", 2), tag)


def test_sign_unknown_node_rejected():
    sim = SimulationCore(seed=1)
    with pytest.raises(InvalidInputError):
        sim.auth.sign("ghost", ("x",))


def test_identical_seed_identical_trace():
    def run_once():
        sim = SimulationCore(seed=42)
        sim.register_handler("b", lambda env: None)
        sim.auth.register("a")
        for i in range(20):
            sim.schedule(float(i), lambda: sim.send("a", "b", ("tick",)))
        sim.run()
        return sim.trace

    assert run_once() == run_once()


def test_trace_pairs_events_and_notes_and_keeps_the_last_entries():
    class Number:
        formatted = 0

        def __str__(self):
            Number.formatted += 1
            return "3"

    sim = SimulationCore(seed=1)
    sim.schedule(1.0, lambda: sim.note("%s -> config %s", "n1", Number()), label="first")
    sim.schedule(2.0, lambda: sim.note("100% of 5%s"), label="second")
    sim.run()
    assert Number.formatted == 0   # notes are formatted when the trace is read
    assert sim.trace == [(1.0, "first"), (1.0, "n1 -> config 3"), (2.0, "second"), (2.0, "100% of 5%s")]
    assert Number.formatted == 1
    for i in range(TRACE_LEN + 5):
        sim.schedule(3.0 + i, lambda: None, label=f"event {i}")
    sim.run()
    assert sim.trace == [(3.0 + i, f"event {i}") for i in range(5, TRACE_LEN + 5)]


def test_message_goes_to_the_handler_registered_at_delivery():
    sim = SimulationCore(seed=1)
    got = []
    sim.register_handler("b", lambda env: got.append(("old", env.payload)))
    sim.auth.register("a")
    sim.send("a", "b", ("ping",))
    sim.register_handler("b", lambda env: got.append(("new", env.sender, env.receiver, env.payload)))
    sim.send("a", "c", ("lost",))   # no handler for "c"
    sim.run()
    assert got == [("new", "a", "b", ("ping",))]


def test_unknown_sender_rejected():
    sim = SimulationCore(seed=1)
    sim.register_handler("b", lambda env: None)
    with pytest.raises(InvalidInputError, match="unknown sender"):
        sim.send("ghost", "b", ("ping",))


def test_truncated_normal_hits_target_mean():
    import random

    dist = TruncatedNormal(mean=27.7, sd=24.9, minimum=0.0)
    rng = random.Random(3)
    draws = [dist.draw(rng) for _ in range(1000)]
    assert min(draws) >= 0.0
    assert abs(sum(draws) / len(draws) - 27.7) <= 2.5


def test_truncated_normal_mild_truncation_unchanged():
    dist = TruncatedNormal(mean=15.0, sd=2.0, minimum=1.0)
    assert abs(dist._location - 15.0) < 1e-6
    assert abs(truncated_mean(15.0, 2.0, 1.0) - 15.0) < 1e-9


def test_canonical_encoding_is_stable():
    value = ("vote", 3, ("a", "b"), 1.5, b"\x00\x01", True, None)
    assert encode(value) == encode(("vote", 3, ("a", "b"), 1.5, b"\x00\x01", True, None))
    assert encode(value) != encode(("vote", 3, ("a", "b"), 1.5, b"\x00\x01", False, None))
    # ints are little-endian fixed width
    assert encode(1)[1:] == b"\x01" + b"\x00" * 7


def _signer():
    auth = AuthRegistry(seed=1)
    auth.register("a")
    return auth


@pytest.mark.parametrize("payloads", [
    [("x", True), ("x", 1), ("x", 1.0)],
    [("x", "a"), ("x", b"a")],
    [("x", 0.0), ("x", -0.0)],
    [(("x", True),), (("x", 1),), (("x", 1.0),)],
])
def test_sign_memo_keeps_payloads_that_encode_differently_apart(payloads):
    # the payloads compare equal or hold the same text, but encode
    # differently; each signing order warms the memo with a different one
    cold = {i: _signer().sign("a", payload) for i, payload in enumerate(payloads)}
    for order in itertools.permutations(range(len(payloads))):
        auth = _signer()
        tags = {i: auth.sign("a", payloads[i]) for i in order}
        assert tags == cold
        for i, tag in tags.items():
            for j, other in enumerate(payloads):
                assert auth.verify("a", other, tag) == (i == j)


def test_sign_memo_may_share_a_tuple_and_a_list():
    # `encode` treats a tuple and a list with equal items alike
    auth = _signer()
    assert auth.verify("a", ["x", 1], auth.sign("a", ("x", 1)))
    assert auth.verify("a", ("x", 1), auth.sign("a", ["x", 1]))


def test_sign_memo_signs_unhashable_payloads():
    auth = _signer()
    payload = ("x", ["a", ("b", 1.5)], None)
    tag = auth.sign("a", payload)
    assert auth.verify("a", payload, tag)
    assert auth.verify("a", ("x", ("a", ("b", 1.5)), None), tag)
    assert not auth.verify("a", ("x", ["a", ("b", 2.5)], None), tag)
