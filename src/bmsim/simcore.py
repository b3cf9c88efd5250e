"""Deterministic discrete-event engine, network model and simulated signatures.

A run is single-threaded: events fire in (time, insertion-sequence) order, so
identical scenarios with identical seeds replay identically.  Messages obey an
eventually-synchronous model: before the global stabilization time they may be
dropped or delayed up to a configured bound, afterwards correct-to-correct
delivery takes at most `delta`.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

from bmsim.canonical import encode
from bmsim.errors import InvalidInputError, InvariantViolation

SimTime = float


@dataclass
class NetworkConfig:
    gst: SimTime = 0.0
    delta: SimTime = 0.05
    pre_gst_drop_probability: float = 0.0
    pre_gst_max_delay: SimTime = 1.0

    def __post_init__(self):
        if self.delta <= 0:
            raise InvalidInputError("delta must be positive")
        if not 0.0 <= self.pre_gst_drop_probability <= 1.0:
            raise InvalidInputError("drop probability must be within [0, 1]")


class Envelope:
    """A message in flight.  The event that delivers it is the envelope
    itself: called at its delivery time, it hands itself to the receiver's
    handler as registered then, or to none if the receiver has none."""

    __slots__ = ("sender", "receiver", "payload", "_handlers")

    def __init__(self, sender: str, receiver: str, payload: tuple, handlers: dict):
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self._handlers = handlers

    def __call__(self) -> None:
        handler = self._handlers.get(self.receiver)
        if handler is not None:
            handler(self)


class AuthRegistry:
    """Engine-enforced unforgeable tags standing in for real signatures.

    Per-node secrets are derived from the run seed; a tag verifies only for
    the (node, payload) pair it was produced over.  Nodes may sign arbitrary
    payloads of their own but can never produce another node's tag.

    A tag is hash-then-sign: `sha256(secret | sha256(encode(payload)))`.
    Many signers sign the same payload (every responder signs one final join
    response body, and the joiner verifies each tag over it), so each
    distinct payload is encoded and hashed once per run and the memo keeps
    its 32-byte digest; a sign or verify then hashes 65 bytes, however long
    the payload.  The memo is keyed by the payload itself, so a lookup is one
    C-level hash and equality test; the member tuples of a final response
    body are the interned configuration's own tuple, so equality skips them
    by identity.  Values that compare equal can still encode differently
    (`True`, `1` and `1.0`; `0.0` and `-0.0`), so a payload that finds an
    equal key but is not the object stored with it must also pass
    `_same_encoding`, and each such variant keeps its own digest.  A payload
    that cannot be hashed (one holding a list) is encoded without the memo.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._secrets: dict[str, bytes] = {}
        # payload -> [(exact variant, sha256 digest of encode(variant)), ...]
        self._digests: dict[tuple, list[tuple[tuple, bytes]]] = {}

    def register(self, node_id: str) -> None:
        if node_id not in self._secrets:
            material = f"{self._seed}:{node_id}".encode()
            self._secrets[node_id] = hashlib.sha256(material).digest()

    def sign(self, node_id: str, payload) -> str:
        secret = self._secrets.get(node_id)
        if secret is None:
            raise InvalidInputError(f"unknown node {node_id!r}")
        return hashlib.sha256(secret + b"|" + self._digest(payload)).hexdigest()

    def verify(self, node_id: str, payload, tag: str) -> bool:
        if node_id not in self._secrets:
            raise InvalidInputError(f"unknown node {node_id!r}")
        return self.sign(node_id, payload) == tag

    def _digest(self, payload) -> bytes:
        try:
            variants = self._digests.get(payload)
        except TypeError:   # unhashable
            return hashlib.sha256(encode(payload)).digest()
        for variant, digest in variants or ():
            if variant is payload or _same_encoding(variant, payload):
                return digest
        digest = hashlib.sha256(encode(payload)).digest()
        self._digests.setdefault(payload, []).append((payload, digest))
        return digest


def _same_encoding(a, b) -> bool:
    """Whether two values that compare equal also encode alike: their types
    match all the way down, and equal floats have the same sign.  Identical
    elements are skipped, such as the interned member tuples."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        for x, y in zip(a, b):
            if x is not y and not _same_encoding(x, y):
                return False
        return True
    if isinstance(a, float):
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return True


# dispatched events (and monitor notes) kept for invariant-violation messages
TRACE_LEN = 40
# most events one `run` call may dispatch from those scheduled after it began;
# a 50 s slice of a 200-node growth run schedules under a thousand, so only a
# run whose events multiply without bound (such as a 1e-6 s checkpoint
# interval) reaches it
RUN_EVENT_BUDGET = 1_000_000


class SimulationCore:
    """Clock, event queue, RNG, authentication and message transport.

    Events fire in (time, insertion sequence) order.  The last `TRACE_LEN`
    dispatched events stay in a ring that `SimulationRun` appends to every
    invariant-violation message: each as its popped queue entry
    `(at, seq, label, fn)`, and each note as `(at, None, text, args)`, which
    `trace` formats when it is read.
    """

    def __init__(self, seed: int, network: NetworkConfig | None = None):
        import random

        self.seed = seed
        self.rng = random.Random(seed)
        self.network = network or NetworkConfig()
        self.auth = AuthRegistry(seed)
        self.now: SimTime = 0.0
        self._heap: list[tuple[SimTime, int, str, Callable[[], None]]] = []
        self._seq = 0
        self._handlers: dict[str, Callable[[Envelope], None]] = {}
        self._deliver_labels: dict[str, str] = {}   # message kind -> event label
        self._ring: deque[tuple] = deque(maxlen=TRACE_LEN)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, at: SimTime, fn: Callable[[], None], label: str = "event") -> None:
        if at < self.now:
            raise InvalidInputError(f"cannot schedule at {at} before now {self.now}")
        heappush(self._heap, (at, self._seq, label, fn))
        self._seq += 1

    def schedule_in(self, delay: SimTime, fn: Callable[[], None], label: str = "event") -> None:
        self.schedule(self.now + delay, fn, label)

    def run(self, until: SimTime | None = None) -> None:
        heap, record = self._heap, self._ring.append
        last = self._seq + RUN_EVENT_BUDGET
        limit = math.inf if until is None else until
        while heap:
            if heap[0][0] > limit:
                self.now = until
                return
            entry = heappop(heap)
            at, seq, _, fn = entry
            if seq > last:
                raise InvariantViolation(
                    f"event budget exhausted: over {RUN_EVENT_BUDGET:,} events "
                    f"scheduled during one run call (t={at:.6f})"
                )
            self.now = at
            record(entry)
            fn()

    def note(self, text: str, *args) -> None:
        """Add a line to the trace at the current time: `text % args`, formatted
        when the trace is read, or `text` as it is if no `args` are given."""
        self._ring.append((self.now, None, text, args))

    @property
    def trace(self) -> list[tuple[SimTime, str]]:
        """The last `TRACE_LEN` dispatched events and notes, oldest first, as
        (time, label or note text) pairs."""
        return [
            (at, text % args if seq is None and args else text)
            for at, seq, text, args in self._ring
        ]

    # -- messaging ----------------------------------------------------------

    def register_handler(self, node_id: str, handler: Callable[[Envelope], None]) -> None:
        self.auth.register(node_id)
        self._handlers[node_id] = handler

    def send(self, sender: str, receiver: str, payload: tuple) -> None:
        """Queue a message for delivery under the synchrony model."""
        if sender not in self.auth._secrets:   # registered ids
            raise InvalidInputError(f"unknown sender {sender!r}")
        now, net = self.now, self.network
        if now >= net.gst:
            # `uniform(0.0, delta)` computes 0.0 + delta * random(): the same float
            deliver_at = now + net.delta * self.rng.random()
        else:
            if self.rng.random() < net.pre_gst_drop_probability:
                return
            adversarial = now + self.rng.uniform(0.0, net.pre_gst_max_delay)
            bound = net.gst + self.rng.uniform(0.0, net.delta)
            deliver_at = min(adversarial, bound)
        kind = payload[0]
        label = self._deliver_labels.get(kind)
        if label is None:
            label = self._deliver_labels[kind] = f"deliver:{kind}"
        self.schedule(deliver_at, Envelope(sender, receiver, payload, self._handlers), label)


# ---------------------------------------------------------------------------
# Truncated-normal sampling
# ---------------------------------------------------------------------------


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def truncated_mean(mu: float, sigma: float, lower: float) -> float:
    a = (lower - mu) / sigma
    tail = 1.0 - _cdf(a)
    if tail <= 1e-300:
        return lower
    return mu + sigma * _phi(a) / tail


@functools.lru_cache(maxsize=32)   # a run and its validation solve the same few
def solve_truncation_location(target_mean: float, sigma: float, lower: float) -> float:
    """Location parameter such that the lower-truncated normal has the target
    mean.  Truncation pulls the mean up, so the location sits at or below the
    target."""
    if target_mean <= lower:
        raise InvalidInputError("target mean must exceed the truncation bound")
    lo, hi = lower - 12.0 * sigma, target_mean
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if truncated_mean(mid, sigma, lower) < target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class TruncatedNormal:
    """Lower-truncated normal whose realized mean equals `mean`."""

    mean: float
    sd: float
    minimum: float
    _location: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.sd <= 0:
            raise InvalidInputError("sd must be positive")
        self._location = solve_truncation_location(self.mean, self.sd, self.minimum)
        # `draw` rejects samples below the minimum; past this point it would
        # need over a hundred tries per sample, and soon effectively forever
        if 1.0 - _cdf((self.minimum - self._location) / self.sd) < 0.01:
            raise InvalidInputError("mean too close to the minimum for this sd")

    def draw(self, rng) -> float:
        while True:
            x = rng.normalvariate(self._location, self.sd)
            if x >= self.minimum:
                return x
