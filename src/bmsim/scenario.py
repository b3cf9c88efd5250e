"""Scenario files: experiment inputs, validation, and the long-range attack
generator.

Scenarios are plain JSON, and the dataclass declarations below are their
schema.  Each field states its type, its default, its JSON path when it sits
in a section (`block`, `tx_inclusion`, `network`) and its range (`gt`, `ge`,
`le`, `choices`).  Parsing (`scenario_from_dict`, `load_scenario`) rejects
unknown keys and wrongly typed values; `ScenarioConfig.validate` checks the
ranges and the cross-field rules.  `SimulationRun` validates every scenario,
from a file, a generator below or built directly, once before any event runs.
Each error names the offending field.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from bmsim.adversary import CorruptionEntry
from bmsim.client import ClientMode
from bmsim.errors import InvalidInputError, ScenarioValidationError
from bmsim.ledger import GasSchedule, PriceModel
from bmsim.membership import Policy, max_batch_threshold, max_correct_leavers, max_faults, policy_threshold
from bmsim.node import Behavior
from bmsim.simcore import TruncatedNormal


def _spec(default=MISSING, *, factory=MISSING, path: tuple[str, str] | None = None, **checks):
    """A scenario field: its default, its JSON path when that is not the
    field name, and its range checks (`gt`, `ge`, `le`, `choices`)."""
    metadata = {**checks, "path": path} if path else checks
    return field(default=default, default_factory=factory, metadata=metadata)


@dataclass
class ChurnOp:
    op: str = _spec(choices=("join", "leave", "evict"))
    node: str
    by: str | None = None   # evict: the member that submits the request


@dataclass
class ClientSettings:
    mode: str = _spec("with_bms", choices=tuple(m.value for m in ClientMode))
    p_bound: float | None = _spec(None, gt=0.0)    # defaults to publish grace period
    reconnect_offset: float = _spec(60.0, ge=0.0)  # after corruption completes


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 1
    initial_size: int = _spec(4, ge=1, le=10_000)
    churn: list[ChurnOp] = _spec(factory=list)
    policy: Policy = Policy.EVERY
    fixed_t: int | None = _spec(None, ge=1)
    checkpoint_interval: float = _spec(20.0, gt=0.0)
    confirmation_depth: int = _spec(37, ge=0)
    block_mean: float = _spec(15.0, path=("block", "mean"))
    block_sd: float = _spec(2.0, path=("block", "sd"), gt=0.0)
    block_min: float = _spec(1.0, path=("block", "min"), ge=0.0)
    tx_mean: float = _spec(27.7, path=("tx_inclusion", "mean"))
    tx_sd: float = _spec(24.9, path=("tx_inclusion", "sd"), gt=0.0)
    tx_min: float = _spec(0.0, path=("tx_inclusion", "min"), ge=0.0)
    gas: GasSchedule = _spec(factory=GasSchedule)
    price: PriceModel = _spec(factory=PriceModel)
    gst: float = _spec(0.0, path=("network", "gst"), ge=0.0)
    delta: float = _spec(0.05, path=("network", "delta"), gt=0.0)
    pre_gst_drop_probability: float = _spec(
        0.0, path=("network", "pre_gst_drop_probability"), ge=0.0, le=1.0
    )
    pre_gst_max_delay: float = _spec(1.0, path=("network", "pre_gst_max_delay"), ge=0.0)
    tob_latency: float = _spec(0.95, ge=0.0)
    registration_cost: int = _spec(100, ge=0)
    registration_fee: int | None = _spec(None, ge=0)   # None: registration_cost
    corruption: list[CorruptionEntry] = _spec(factory=list)
    client: ClientSettings | None = None
    leavers_vote: bool = True
    bypass_validation: bool = False
    revote_timeout: float | None = _spec(None, gt=0.0)
    publish_grace: float | None = _spec(None, gt=0.0)   # the grace period P
    valid_poms: list[str] = _spec(factory=list)
    max_sim_time: float = _spec(2_000_000.0, gt=0.0)

    def __post_init__(self):
        if self.registration_fee is None:
            self.registration_fee = self.registration_cost

    # -- derived defaults -----------------------------------------------------

    def grace_p(self) -> float:
        if self.publish_grace is not None:
            return self.publish_grace
        return self.confirmation_depth * self.block_mean + self.delta

    def revote_after(self) -> float:
        if self.revote_timeout is not None:
            return self.revote_timeout
        return 2.0 * self.confirmation_depth * self.block_mean

    def initial_members(self) -> tuple[str, ...]:
        return tuple(f"n{i}" for i in range(self.initial_size))

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Field ranges, then the rules that relate fields to each other: one
        walk along the churn checks each op and the configuration it leads to,
        numbered from genesis = #0, then the corruption entries."""
        _check_ranges(self)
        if self.registration_fee < self.registration_cost:
            raise ScenarioValidationError(
                "registration_fee", "below registration_cost: every join would be rejected"
            )
        if self.policy is Policy.FIXED and self.fixed_t is None:
            raise ScenarioValidationError("fixed_t", "fixed policy needs fixed_t >= 1")
        for section, mean, sd, minimum in (
            ("block", self.block_mean, self.block_sd, self.block_min),
            ("tx_inclusion", self.tx_mean, self.tx_sd, self.tx_min),
        ):
            try:
                TruncatedNormal(mean, sd, minimum)
            except InvalidInputError as exc:
                raise ScenarioValidationError(section, str(exc)) from None

        members = set(self.initial_members())
        # every id that has been a member; ids are never reused
        declared = set(members)
        # timed corruption entries per node, and how many the members carry
        per_node = Counter(entry.node for entry in self.corruption if entry.at_time is not None)
        timed = sum(count for node, count in per_node.items() if node in members)
        self._check_configuration(0, members, timed)
        for i, op in enumerate(self.churn):
            label = f"churn[{i}]"
            if op.op == "join":
                if op.node in members:
                    raise ScenarioValidationError(label, f"{op.node} is already a member")
                if op.node in declared:
                    raise ScenarioValidationError(
                        label, f"{op.node} was a member earlier; a node id cannot join again"
                    )
                members.add(op.node)
                declared.add(op.node)
                timed += per_node[op.node]
            else:
                if op.node not in members:
                    raise ScenarioValidationError(label, f"{op.node} is not a member at that point")
                if len(members) == 1:
                    raise ScenarioValidationError(label, "would leave the cluster empty")
                if op.op == "evict":
                    if op.node not in self.valid_poms:
                        raise ScenarioValidationError(label, f"no valid misbehavior proof for {op.node}")
                    if op.by is not None and (op.by == op.node or op.by not in members):
                        raise ScenarioValidationError(label, f"submitter {op.by} is not another member")
                members.remove(op.node)
                timed -= per_node[op.node]
            self._check_configuration(i + 1, members, timed)

        for i, entry in enumerate(self.corruption):
            label = f"corruption[{i}]"
            if entry.node not in declared:
                raise ScenarioValidationError(label, f"unknown node {entry.node}")
            if (entry.at_time is None) == (not entry.after_retirement):
                raise ScenarioValidationError(label, "needs exactly one of at_time / after_retirement")

    def _check_configuration(self, number: int, members: set[str], timed: int) -> None:
        """The batching bound and the corruption budget of configuration
        #`number`: at most f of its `members` may carry a corruption entry with
        an absolute time (`timed` counts them), since a retirement-relative
        entry fires only after the grace period."""
        if self.bypass_validation:
            return
        n = len(members)
        t, bound = policy_threshold(self.policy, n, self.fixed_t), max_batch_threshold(n)
        if t > bound:
            raise ScenarioValidationError(
                "policy", f"threshold {t} exceeds the batching bound {bound} at size {n}"
            )
        f = max_faults(n)
        if timed > f:
            names = ", ".join(
                e.describe() for e in self.corruption if e.at_time is not None and e.node in members
            )
            raise ScenarioValidationError(
                "corruption",
                f"configuration #{number} ({n} members) would have {timed} > f={f} "
                f"corruptible members: {names}",
            )


# ---------------------------------------------------------------------------
# The schema walk
# ---------------------------------------------------------------------------

_CHECKS = {
    "gt": (operator.gt, "must be > {}"),
    "ge": (operator.ge, "must be >= {}"),
    "le": (operator.le, "must be <= {}"),
    "choices": (lambda value, choices: value in choices, "must be one of {}"),
}


def _join(*parts: str) -> str:
    return ".".join(part for part in parts if part)


def _parse(cls, data, where: str = ""):
    """Build the dataclass `cls` from a JSON object, one declared field at a
    time; `where` is the object's path in the scenario file."""
    if not isinstance(data, dict):
        raise ScenarioValidationError(where or "file", "expected a JSON object")
    specs = {f.metadata.get("path", (f.name,)): f for f in fields(cls)}
    sections = {path[0] for path in specs if len(path) > 1}
    given = {}
    for key, value in data.items():
        if key not in sections:
            given[(key,)] = value
        elif isinstance(value, dict):
            given.update({(key, sub): v for sub, v in value.items()})
        else:
            raise ScenarioValidationError(_join(where, key), "expected a JSON object")

    hints = get_type_hints(cls)
    kwargs = {}
    for path, value in given.items():
        if path not in specs:
            raise ScenarioValidationError(
                _join(where, *path[:-1]) or path[-1], f"unknown key {path[-1]!r}"
            )
        name = specs[path].name
        kwargs[name] = _convert(hints[name], value, _join(where, *path))
    for path, f in specs.items():
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioValidationError(where, f"needs {path[-1]!r}")
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:
        raise ScenarioValidationError(where, str(exc)) from None


def _convert(hint, value, where: str):
    """Check one JSON value against a field's type and convert it."""
    if get_origin(hint) is UnionType:   # `X | None`
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    origin = get_origin(hint)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ScenarioValidationError(where, "expected a list")
        item_hint = get_args(hint)[0]
        return origin(_convert(item_hint, item, f"{where}[{i}]") for i, item in enumerate(value))
    if is_dataclass(hint):
        return _parse(hint, value, where)
    if issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            names = ", ".join(member.value for member in hint)
            raise ScenarioValidationError(where, f"unknown value {value!r}, expected one of {names}") from None
    if hint is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ScenarioValidationError(where, "out of range") from None
    if type(value) is not hint:   # a bool is not an int, an int not a str
        raise ScenarioValidationError(where, f"expected {hint.__name__}, got {type(value).__name__}")
    return value


def check_range(path: str, value, checks) -> None:
    """Check one field or CLI argument against the ranges in `checks` and
    reject a non-finite float, naming `path`."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioValidationError(path, f"must be finite, got {value}")
    for key, bound in checks.items():
        if key in _CHECKS and value is not None:
            holds, text = _CHECKS[key]
            if not holds(value, bound):
                raise ScenarioValidationError(path, f"{text.format(bound)}, got {value!r}")


def _check_ranges(record, where: str = "") -> None:
    """Check each field of `record`, and of the records nested in it, against
    the range its declaration states."""
    for f in fields(record):
        value = getattr(record, f.name)
        path = _join(where, *f.metadata.get("path", (f.name,)))
        check_range(path, value, f.metadata)
        if is_dataclass(value):
            _check_ranges(value, path)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if is_dataclass(item):
                    _check_ranges(item, f"{path}[{i}]")


def scenario_from_dict(data) -> ScenarioConfig:
    """Parse a scenario's JSON object: key names and types.  Ranges and the
    cross-field rules are left to `ScenarioConfig.validate`."""
    return _parse(ScenarioConfig, data)


def load_scenario(path: str) -> ScenarioConfig:
    """Read and parse a scenario file (field `file` if it is unreadable or not
    JSON); ranges and cross-field rules are left to `ScenarioConfig.validate`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or encoding
        raise ScenarioValidationError("file", str(exc)) from None
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def growth_scenario(
    policy: Policy,
    from_size: int = 4,
    to_size: int = 100,
    seed: int = 1,
    gas: GasSchedule | None = None,
) -> ScenarioConfig:
    """Sequential growth by single joins, the measurement workload."""
    sc = ScenarioConfig(name=f"growth-{policy.value}-{from_size}-{to_size}", seed=seed)
    sc.initial_size = from_size
    sc.policy = policy
    if gas is not None:
        sc.gas = gas
    sc.churn = [ChurnOp("join", f"m{i}") for i in range(to_size - from_size)]
    return sc


def long_range_scenario(
    mode: str = "with_bms",
    seed: int = 1,
    initial_size: int = 4,
    leaves_per_publish: int = 1,
) -> ScenarioConfig:
    """Full turnover of the initial membership followed by corruption of the
    retired nodes and a stale client reconnecting."""
    if initial_size < 4:
        raise ScenarioValidationError("initial_size", "turnover needs at least 4 nodes")
    if leaves_per_publish > max_correct_leavers(initial_size):
        raise ScenarioValidationError(
            "leaves_per_publish",
            f"{leaves_per_publish} correct departures per publication exceeds "
            f"the bound {max_correct_leavers(initial_size)}: the turnover would be unpublishable",
        )
    sc = ScenarioConfig(name=f"long-range-{mode}", seed=seed)
    sc.initial_size = initial_size
    sc.policy = Policy.EVERY
    sc.churn = [ChurnOp("join", f"m{i}") for i in range(initial_size)]
    sc.churn += [ChurnOp("leave", f"n{i}") for i in range(initial_size)]
    sc.corruption = [
        CorruptionEntry(
            node=f"n{i}",
            behaviors=(Behavior.STALE_QUORUM,),
            after_retirement=True,
        )
        for i in range(initial_size)
    ]
    sc.client = ClientSettings(mode=mode)
    return sc
