"""Per-layer tracing of a bmsim run, installed from outside the program.

`install` replaces functions and methods of the bmsim modules with timing
wrappers.  Nothing under `src/bmsim` is edited: the wrappers are set as class
and module attributes, so they must be installed before the run is
constructed (handlers, observers and TOB callbacks are bound methods captured
at construction, and `encode` is looked up as `bmsim.simcore.encode` and
`bmsim.ledger.encode`).

Two kinds of record are kept:

- Full spans (name, start, end, parent span, operation id) at coarse
  boundaries: every engine event dispatch, labelled by its event label.  The
  block, the checkpoint tick and the TOB delivery are the `block`,
  `checkpoint` and `tob` events.  Operation spans are added by the caller.
- Count and self-time aggregates for every wrapped call, so that the hot
  leaf calls (`sign`, `verify`, `encode`, `symmetric_difference`,
  `Configuration`) cost a few hundred bytes in total, not one record each.

Self time is a call's duration minus the duration of the wrapped calls made
inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter

# Layer that owns the callback each engine event runs.  An event's self time
# (its dispatch minus the wrapped calls inside it) is charged to this layer.
EVENT_LAYERS = {
    "tob": "node",
    "announce-retry": "node",
    "request-retry": "node",
    "backup-vote": "node",
    "block": "ledger",
    "observe": "ledger",
    "checkpoint": "simulation",
    "driver-poll": "simulation",
    "client-retry": "client",
    "client-reconnect": "client",
    "corrupt": "adversary",
}

EVENT_PREFIX = "simcore.event."


def span_layer(name: str) -> str:
    """The layer a span's self time is charged to."""
    if name.startswith(EVENT_PREFIX):
        label = name[len(EVENT_PREFIX):]
        if label.startswith("deliver:"):
            return "node"
        return EVENT_LAYERS.get(label, "simcore")
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.origin = _clock()
        self.calls: dict[str, list] = {}          # span name -> [count, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []                # [name, start, end, parent, op]
        self.op = None                             # id of the operation in progress
        self._stack: list[list[float]] = []        # child time of each open call
        self._open: list[int] = []                 # indices of open full spans

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn):
        """Wrap `fn` so that its calls are counted and their self time summed."""
        cell = self.calls.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                cell[0] += 1
                cell[1] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def dispatch(self, name: str, fn) -> None:
        """Run `fn` inside a full span named `name`."""
        cell = self.calls.get(name)
        if cell is None:
            cell = self.calls[name] = [0, 0.0]
        stack = self._stack
        spans = self.spans
        opened = self._open
        record = [name, 0.0, 0.0, opened[-1] if opened else -1, self.op]
        opened.append(len(spans))
        spans.append(record)
        child = [0.0]
        stack.append(child)
        start = _clock()
        try:
            fn()
        finally:
            end = _clock()
            elapsed = end - start
            stack.pop()
            opened.pop()
            record[1] = start - self.origin
            record[2] = end - self.origin
            cell[0] += 1
            cell[1] += elapsed - child[0]
            if stack:
                stack[-1][0] += elapsed

    def add_op_span(self, op, start: float, end: float) -> None:
        """Record an operation span; `start` and `end` are `perf_counter` values."""
        self.spans.append(["op", start - self.origin, end - self.origin, -1, op])

    # -- results -------------------------------------------------------------

    def total_self(self) -> float:
        return sum(cell[1] for cell in self.calls.values())

    def layer_self(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, (_, self_s) in self.calls.items():
            totals[span_layer(name)] += self_s
        return dict(totals)

    def aggregates(self) -> dict:
        return {
            "calls": {name: list(cell) for name, cell in self.calls.items()},
            "counts": dict(self.counts),
            "layer_self": self.layer_self(),
        }

    def span_table(self) -> dict:
        """Spans with names interned, for writing out when the run ends."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([index, round(start, 7), round(end, 7), parent, op])
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": list(names),
            "spans": rows,
        }


def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every bmsim layer."""
    from bmsim import (
        adversary,
        client,
        contract,
        harness,
        ledger,
        membership,
        metrics,
        node,
        simcore,
        simulation,
    )

    t = tracer
    counts = t.counts
    timed = t.timed

    # -- simcore -------------------------------------------------------------
    def wrap_schedule(orig):
        dispatch = t.dispatch

        def schedule(sim, at, fn, label="event"):
            name = EVENT_PREFIX + label
            orig(sim, at, lambda: dispatch(name, fn), label)

        return schedule

    def wrap_send(orig):
        def send(sim, sender, receiver, payload):
            counts["simcore.send.kind." + str(payload[0])] += 1
            return orig(sim, sender, receiver, payload)

        return timed("simcore.send", send)

    def wrap_verify(orig):
        def verify(auth, node_id, payload, tag):
            ok = orig(auth, node_id, payload, tag)
            if ok:
                counts["simcore.auth.verify.ok"] += 1
            return ok

        return timed("simcore.auth.verify", verify)

    _patch(simcore.SimulationCore, "schedule", wrap_schedule)
    _patch(simcore.SimulationCore, "run", lambda f: timed("simcore.run", f))
    _patch(simcore.SimulationCore, "send", wrap_send)
    _patch(simcore.AuthRegistry, "sign", lambda f: timed("simcore.auth.sign", f))
    _patch(simcore.AuthRegistry, "verify", wrap_verify)

    # -- canonical: top-level calls only; the recursion inside encode looks up
    # the unwrapped `bmsim.canonical.encode`
    orig_encode = simcore.encode

    def encode(value):
        out = orig_encode(value)
        counts["canonical.encode.bytes"] += len(out)
        return out

    timed_encode = timed("canonical.encode", encode)
    simcore.encode = timed_encode
    ledger.encode = timed_encode

    # -- membership ----------------------------------------------------------
    _patch(membership.Configuration, "__post_init__", lambda f: timed("membership.config", f))
    symdiff = timed("membership.symdiff", membership.symmetric_difference)
    for module in (membership, node, simulation, metrics):
        module.symmetric_difference = symdiff

    # -- node ----------------------------------------------------------------
    def wrap_broadcast(orig):
        def broadcast(tob, key, payload):
            added = orig(tob, key, payload)
            if added:
                counts["node.tob.broadcasts"] += 1
            return added

        return broadcast

    def wrap_tob_deliver(orig):
        def on_tob_deliver(replica, index, payload):
            def observers():
                if payload[0] != "tob_observed":
                    return 0
                _, number, members, _ = payload
                return len(replica.observed.get((number, tuple(members)), ()))

            before = (len(replica.pending), observers())
            orig(replica, index, payload)
            after = (len(replica.pending), observers())
            if after[0] > before[0] or after[1] > before[1]:
                counts["node.tob.useful"] += 1

        return timed("node.tob", on_tob_deliver)

    def wrap_ledger_advance(orig):
        def on_ledger_advance(replica):
            seen = replica._last_seen_stored_key
            confirms = counts["simcore.send.kind.register_confirm"]
            orig(replica)
            if (replica._last_seen_stored_key != seen
                    or counts["simcore.send.kind.register_confirm"] != confirms):
                counts["node.ledger_advance.useful"] += 1

        return timed("node.ledger_advance", on_ledger_advance)

    def wrap_checkpoint(orig):
        def on_checkpoint(replica):
            before = replica.c_cur
            orig(replica)
            if replica.c_cur is not before:
                counts["node.checkpoint.useful"] += 1

        return timed("node.checkpoint", on_checkpoint)

    def wrap_latest(orig):
        def latest_registry_config(replica):
            if replica._latest_cache is not None:
                counts["node.latest_config.hits"] += 1
            return orig(replica)

        return timed("node.latest_config", latest_registry_config)

    def wrap_send_request(orig):
        def send_request(agent):
            attempt = agent.attempt
            orig(agent)
            if agent.attempt > attempt > 0:
                counts["node.join_request.resends"] += 1

        return timed("node.join_request", send_request)

    _patch(node.TotalOrderBroadcast, "broadcast", wrap_broadcast)
    _patch(node.BftNode, "on_tob_deliver", wrap_tob_deliver)
    _patch(node.BftNode, "on_ledger_advance", wrap_ledger_advance)
    _patch(node.BftNode, "on_checkpoint", wrap_checkpoint)
    _patch(node.BftNode, "latest_registry_config", wrap_latest)
    _patch(node.BftNode, "_send_final_response", lambda f: timed("node.final_response", f))
    _patch(node.JoinerAgent, "_send_request", wrap_send_request)

    # -- ledger --------------------------------------------------------------
    def wrap_submit(orig):
        def submit_tx(chain, tx):
            counts["ledger.tx.submitted"] += 1
            counts["ledger.tx.submitted." + tx.kind] += 1
            return orig(chain, tx)

        return timed("ledger.submit", submit_tx)

    _patch(ledger.Ledger, "submit_tx", wrap_submit)

    # -- contract ------------------------------------------------------------
    def wrap_vote(orig):
        def apply_vote(registry, config, voter):
            report = orig(registry, config, voter)
            if report.updates:
                counts["contract.vote.updates"] += 1
            return report

        return timed("contract.vote", apply_vote)

    _patch(contract.RegistryContract, "apply_vote", wrap_vote)
    _patch(contract.RegistryContract, "apply_register", lambda f: timed("contract.register", f))
    _patch(contract.RegistryContract, "check_conservation",
           lambda f: timed("contract.conservation", f))

    # -- client --------------------------------------------------------------
    def wrap_client_handle(orig):
        def handle_envelope(cluster_client, env):
            verified = counts["simcore.auth.verify.ok"]
            orig(cluster_client, env)
            counts["client.responses.verified"] += counts["simcore.auth.verify.ok"] - verified

        return timed("client.handle", handle_envelope)

    _patch(client.ClusterClient, "submit_request", lambda f: timed("client.request", f))
    _patch(client.ClusterClient, "handle_envelope", wrap_client_handle)
    _patch(client.ClusterClient, "bootstrap", lambda f: timed("client.bootstrap", f))

    # -- adversary -----------------------------------------------------------
    def wrap_activate(orig):
        def activate(controller, entry):
            before = len(controller._activated)
            orig(controller, entry)
            counts["adversary.activations"] += len(controller._activated) - before

        return timed("adversary.activate", activate)

    _patch(adversary.AdversaryController, "setup", lambda f: timed("adversary.setup", f))
    _patch(adversary.AdversaryController, "on_publication",
           lambda f: timed("adversary.publication", f))
    _patch(adversary.AdversaryController, "_activate", wrap_activate)

    # -- simulation ----------------------------------------------------------
    def wrap_run(orig):
        timed_run = timed("simulation.run", orig)

        def run(sim_run, *args, **kwargs):
            result = timed_run(sim_run, *args, **kwargs)
            receipts = [r.receipt for r in sim_run.ledger.records.values() if r.receipt]
            counts["ledger.tx.executed"] += len(receipts)
            counts["ledger.gas.total"] += sum(r.gas_used for r in receipts)
            return result

        return run

    def wrap_poll(orig):
        def poll(driver):
            before = (driver.index, driver.done)
            orig(driver)
            if (driver.index, driver.done) != before:
                counts["simulation.driver.useful"] += 1

        return timed("simulation.driver", poll)

    _patch(simulation.SimulationRun, "__init__", lambda f: timed("simulation.construct", f))
    _patch(simulation.SimulationRun, "run", wrap_run)
    _patch(simulation.SimulationRun, "_collect", lambda f: timed("simulation.collect", f))
    _patch(simulation.SimulationRun, "quiescent", lambda f: timed("simulation.quiescent", f))
    _patch(simulation.ChurnDriver, "_poll", wrap_poll)

    # -- scenario, metrics and harness ---------------------------------------
    _patch(harness, "growth_scenario", lambda f: timed("scenario.build", f))
    _patch(harness, "long_range_scenario", lambda f: timed("scenario.build", f))
    for name in ("join_started", "proof_complete", "join_request_sent", "request_ordered",
                 "join_admitted", "node_reconfigured", "vote_submitted", "client_accepted",
                 "note", "mark_byzantine"):
        _patch(metrics.RunMonitor, name, lambda f: timed("metrics.monitor", f))
    _patch(harness, "write_result_csvs", lambda f: timed("harness.csv_write", f))
    _patch(harness, "sweep_summary_csv", lambda f: timed("harness.csv_write", f))
    _patch(harness.AttackReport, "to_csv", lambda f: timed("harness.csv_write", f))
