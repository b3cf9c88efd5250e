"""Simulated single-chain ledger hosting the registry contract.

Blocks are produced at truncated-normal intervals; submitted transactions
become includable after a truncated-normal inclusion delay and execute, in
submission order, in the first block produced after that.  There are no forks:
finality is modeled purely through the confirmation depth below the head.
Observers are told only at the blocks where that confirmed state changes.
A block is kept as its production time plus the ids of the transactions it
executed, if any.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from bmsim.contract import ExecutionReport, RegistryContract
from bmsim.errors import InvalidInputError
from bmsim.membership import Configuration, NodeId
from bmsim.simcore import SimulationCore, TruncatedNormal


@dataclass
class GasSchedule:
    """Gas charged per transaction.

    A vote pays the flat overhead, a storage write for the vote itself and a
    per-member scan of the stored configuration for the membership check.
    The first vote for a configuration initializes its bookkeeping; the vote
    that triggers an update additionally pays per member added to storage and
    is refunded per member freed.  Rejected transactions pay the overhead
    only.
    """

    g_base: int = 21_000
    g_vote_store: int = 10_000
    g_vote_per_member: int = 150
    g_first_vote_init: int = 12_000
    g_update_fixed: int = 8_000
    g_update_per_member: int = 20_000
    g_register: int = 65_000
    refund_per_freed_member: int = 4_800

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise InvalidInputError(f"gas constant {name} must be non-negative")

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class PriceModel:
    gas_price_gwei: float = 93.1
    eth_usd: float = 386.10

    def __post_init__(self):
        if self.gas_price_gwei <= 0 or self.eth_usd <= 0:
            raise InvalidInputError("price model values must be positive")


def usd_cost(gas: float, pm: PriceModel) -> float:
    """Gas -> Gwei -> Ether -> USD."""
    return gas * pm.gas_price_gwei * 1e-9 * pm.eth_usd


@dataclass(frozen=True, slots=True)
class LedgerTransaction:
    kind: str                    # "register" | "vote"
    submitter: NodeId
    submitted_at: float
    node: NodeId | None = None          # register
    fee: int = 0                        # register
    config: Configuration | None = None  # vote


@dataclass(slots=True)
class TxReceipt:
    gas_used: int


@dataclass(slots=True)
class TxRecord:
    tx_id: int
    tx: LedgerTransaction
    ready_at: float
    inclusion_delay: float
    included_height: int | None = None
    receipt: TxReceipt | None = None
    report: ExecutionReport | None = None


class Ledger:
    """Block production, transaction inclusion and gas accounting."""

    def __init__(
        self,
        sim: SimulationCore,
        contract: RegistryContract,
        gas: GasSchedule | None = None,
        price: PriceModel | None = None,
        block_interval: TruncatedNormal | None = None,
        inclusion_delay: TruncatedNormal | None = None,
        confirmation_depth: int = 37,
    ):
        self.sim = sim
        self.contract = contract
        self.gas = gas or GasSchedule()
        self.price = price or PriceModel()
        self.block_interval = block_interval or TruncatedNormal(15.0, 2.0, 1.0)
        self.inclusion_delay = inclusion_delay or TruncatedNormal(27.7, 24.9, 0.0)
        self.confirmation_depth = confirmation_depth

        # production time by height, genesis first
        self.block_times: list[float] = [0.0]
        # height -> ids of the transactions the block executed, in execution
        # order, for the blocks that executed any; heights ascend
        self.block_tx_ids: dict[int, list[int]] = {}
        # max(0, head height - confirmation depth), set as each block is added
        self.confirmed_height = 0
        self.records: dict[int, TxRecord] = {}
        self._pending: list[int] = []
        # the earliest `ready_at` in `_pending`: no block before it executes any
        self._next_ready = math.inf
        self.pending_votes = 0     # vote transactions submitted, not yet executed
        self._tx_ids = itertools.count(1)
        # (height, config) for every stored-configuration change, genesis
        # first, in execution order: the one history of stored configurations
        self.config_log: list[tuple[int, Configuration]] = [(0, contract.c_cur)]
        # the stored configuration as of the confirmed height; genesis is
        # public knowledge and confirmed from the start
        self._confirmed_config = contract.c_cur
        self._registration_heights: dict[NodeId, int] = {}
        # heights of blocks that stored a configuration or accepted a registration
        self._change_heights: set[int] = set()
        self._observers: list[Callable[[], None]] = []
        self._publication_hooks: list[Callable[[Configuration, float], None]] = []
        self._drain_hooks: list[Callable[[], None]] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._schedule_next_block()

    def _schedule_next_block(self) -> None:
        sim = self.sim
        sim.schedule(sim.now + self.block_interval.draw(sim.rng), self._produce_block, "block")

    # -- transactions ----------------------------------------------------------

    def submit_tx(self, tx: LedgerTransaction) -> int:
        delay = self.inclusion_delay.draw(self.sim.rng)
        tx_id = next(self._tx_ids)
        ready_at = tx.submitted_at + delay
        self.records[tx_id] = TxRecord(
            tx_id=tx_id, tx=tx, ready_at=ready_at, inclusion_delay=delay
        )
        self._pending.append(tx_id)
        self._next_ready = min(self._next_ready, ready_at)
        if tx.kind == "vote":
            self.pending_votes += 1
        return tx_id

    def _produce_block(self) -> None:
        height = len(self.block_times)
        stored_before = len(self.config_log)
        votes_before = self.pending_votes
        now = self.sim.now
        if self._next_ready <= now:
            still_pending = []
            next_ready = math.inf
            for tx_id in self._pending:
                record = self.records[tx_id]
                if record.ready_at <= now:
                    self._execute(record, height)
                else:
                    still_pending.append(tx_id)
                    next_ready = min(next_ready, record.ready_at)
            self._pending = still_pending
            self._next_ready = next_ready
        self.block_times.append(now)
        self.confirmed_height = max(0, height - self.confirmation_depth)
        self.contract.check_conservation()
        if len(self.config_log) > stored_before:
            for hook in self._publication_hooks:
                hook(self.contract.c_cur, self.sim.now)
        confirmed = self.confirmed_height   # no change is stored at height 0
        if confirmed in self._change_heights:
            # the last configuration stored at or below the confirmed height
            self._confirmed_config = next(c for h, c in reversed(self.config_log) if h <= confirmed)
            for callback in self._observers:
                callback()
        if votes_before and not self.pending_votes:
            for hook in self._drain_hooks:
                hook()
        self._schedule_next_block()

    def _execute(self, record: TxRecord, height: int) -> None:
        tx = record.tx
        if tx.kind == "register":
            report = self.contract.apply_register(tx.node, tx.fee)
            if report.accepted:
                self._registration_heights[tx.node] = height
                self._change_heights.add(height)
        elif tx.kind == "vote":
            self.pending_votes -= 1
            report = self.contract.apply_vote(tx.config, tx.submitter)
            for event in report.updates:
                self.config_log.append((height, event.new))
                self._change_heights.add(height)
        else:
            raise InvalidInputError(f"unknown transaction kind {tx.kind!r}")
        record.report = report
        record.receipt = TxReceipt(self._meter(tx.kind, report))
        record.included_height = height
        self.block_tx_ids.setdefault(height, []).append(record.tx_id)

    def _meter(self, kind: str, report: ExecutionReport) -> int:
        g = self.gas
        if not report.accepted:
            return g.g_base
        if kind == "register":
            return g.g_register
        gas = g.g_base + g.g_vote_store + g.g_vote_per_member * report.scanned_members
        if report.first_vote:
            gas += g.g_first_vote_init
        for event in report.updates:
            gas += g.g_update_fixed
            gas += g.g_update_per_member * event.members_added
            gas -= g.refund_per_freed_member * event.members_removed
        return max(gas, g.g_base)

    # -- queries ------------------------------------------------------------------

    def confirmed_config(self) -> Configuration:
        return self._confirmed_config

    def registration_confirmed(self, node: NodeId) -> bool:
        height = self._registration_heights.get(node)
        return height is not None and height <= self.confirmed_height

    # -- observers -------------------------------------------------------------------

    def add_observer(self, callback: Callable[[], None]) -> None:
        """Call `callback` at each block that confirms a stored configuration
        or an accepted registration, in the order observers were added."""
        self._observers.append(callback)

    def add_publication_hook(self, hook: Callable[[Configuration, float], None]) -> None:
        """Call `hook(config, at)` at each block that stores a new configuration."""
        self._publication_hooks.append(hook)

    def add_drain_hook(self, hook: Callable[[], None]) -> None:
        """Call `hook()` at each block that executes the last pending vote."""
        self._drain_hooks.append(hook)

    # -- reporting ----------------------------------------------------------------------

    def vote_records(self) -> list[TxRecord]:
        return [r for r in self.records.values() if r.tx.kind == "vote" and r.receipt]
