"""One repetition of one benchmark workload, in a fresh process.

Run by `perfbench/run.py`, which puts the checkout's `src` on `PYTHONPATH`.
Prints one JSON object as its last line of standard output: set-up time,
wall time, per-operation host times, output digests, the run's own output
checks, peak memory, and, with `--trace`, the per-layer aggregates.

    python3 perfbench/worker.py --workload growth_t1 --seed 1 --out DIR \
        --spawned-at <time.time() of the parent when it started this process>
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

_clock = time.perf_counter
WORKLOADS = ("growth_t1", "growth_halff", "attack")
FROM_SIZE = 4
ATTACK_SEEDS = 100


class SetupDone(Exception):
    """Raised at the first simulated event of a set-up-only probe."""


class Probe:
    """Operation hooks that every repetition installs, traced or not: the
    first `SimulationRun.run` marks the end of set-up, each admitted join or
    finished attack run ends an operation."""

    def __init__(self, per_join: bool, setup_only: bool, tracer=None):
        self.per_join = per_join
        self.setup_only = setup_only
        self.tracer = tracer
        self.first_event: float | None = None      # perf_counter value
        self.first_event_wall: float | None = None  # time.time() value
        self.op_s: list[float] = []
        self.total_self_at_start = 0.0
        self._op_start = 0.0   # the previous admission, or the first event

    def install(self) -> None:
        from bmsim import harness, metrics, simulation

        probe = self
        orig_run = simulation.SimulationRun.run

        def run(sim_run, *args, **kwargs):
            if probe.first_event is None:
                probe.first_event_wall = time.time()
                probe.first_event = probe._op_start = _clock()
                if probe.setup_only:
                    raise SetupDone
                if probe.tracer is not None:
                    probe.total_self_at_start = probe.tracer.total_self()
            return orig_run(sim_run, *args, **kwargs)

        orig_admitted = metrics.RunMonitor.join_admitted

        def join_admitted(monitor, node, at):
            fresh = node in monitor.joins and monitor.joins[node].admitted_at == 0.0
            orig_admitted(monitor, node, at)
            if fresh:
                now = _clock()
                probe.op_s.append(now - probe._op_start)
                if probe.tracer is not None:
                    probe.tracer.add_op_span(node, probe._op_start, now)
                probe._op_start = now

        orig_join_started = metrics.RunMonitor.join_started

        def join_started(monitor, node, at, tx_latency):
            if probe.tracer is not None:
                probe.tracer.op = node
            orig_join_started(monitor, node, at, tx_latency)

        orig_run_scenario = harness.run_scenario

        def run_scenario(scenario, max_time=None):
            if probe.tracer is not None:
                probe.tracer.op = scenario.seed
            start = _clock()
            result = orig_run_scenario(scenario, max_time)
            end = _clock()
            probe.op_s.append(end - start)
            if probe.tracer is not None:
                probe.tracer.add_op_span(scenario.seed, start, end)
            return result

        simulation.SimulationRun.run = run
        if self.per_join:
            metrics.RunMonitor.join_admitted = join_admitted
            metrics.RunMonitor.join_started = join_started
        else:
            harness.run_scenario = run_scenario


def sha256_files(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("*.csv"))
    }


def run_growth(harness, policy, seed: int, to_size: int, out_dir: Path) -> dict:
    """A paced growth sweep; an operation is one join."""
    attempted = to_size - FROM_SIZE
    result = harness.sweep(policy, FROM_SIZE, to_size, seed=seed, out=str(out_dir))
    problems = []
    admitted = len(result.joins)
    if admitted != attempted:
        problems.append(f"{admitted} of {attempted} joins admitted")
    expected_rows = len(harness.growth_update_events(policy, FROM_SIZE, to_size))
    rows = len((out_dir / "updates.csv").read_text().splitlines()) - 1
    if rows != expected_rows:
        problems.append(f"updates.csv has {rows} rows, expected {expected_rows}")
    return {"attempted": attempted, "failed": attempted - admitted, "problems": problems}


def run_attack(harness, seed: int, out_dir: Path) -> dict:
    """The long-range attack batch in both client modes; an operation is one
    simulated run.  A registry-backed client must never accept the forged
    state and the control client must always accept it."""
    seeds = list(range(seed, seed + ATTACK_SEEDS))
    failed = 0
    problems = []
    for mode in ("with_bms", "no_bms"):
        report = harness.attack_demo(mode, seeds=seeds, out=str(out_dir))
        for run_seed, forged, _ in report.runs:
            wrong = forged > 0 if mode == "with_bms" else forged == 0
            if wrong:
                failed += 1
                problems.append(f"{mode} seed {run_seed}: {forged} forged acceptances")
    return {"attempted": 2 * len(seeds), "failed": failed, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    spawned_at_default = time.time()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory for the run's CSVs")
    parser.add_argument("--spawned-at", type=float, default=spawned_at_default)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", help="gzipped JSON file for the traced spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first simulated event")
    parser.add_argument("--to-size", type=int, default=100,
                        help="final cluster size of a growth workload")
    args = parser.parse_args(argv)

    import_start = _clock()
    from bmsim import harness
    import_s = _clock() - import_start
    from bmsim.membership import Policy

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
    probe = Probe(args.workload != "attack", args.setup_only, tracer)
    probe.install()
    if tracer is not None:
        install(tracer)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "attack":
            outcome = run_attack(harness, args.seed, out_dir)
        else:
            policy = Policy.EVERY if args.workload == "growth_t1" else Policy.HALF_F
            outcome = run_growth(harness, policy, args.seed, args.to_size, out_dir)
    except SetupDone:
        outcome = None
    end = _clock()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "import_s": import_s,
        "setup_s": probe.first_event_wall - args.spawned_at,
    }
    if outcome is not None:
        wall_s = end - probe.first_event
        record.update(outcome)
        record.update(
            wall_s=wall_s,
            op_s=probe.op_s,
            digests=sha256_files(out_dir),
            csv_bytes=sum(p.stat().st_size for p in out_dir.glob("*.csv")),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["layers"] = tracer.aggregates()
            record["covered_s"] = tracer.total_self() - probe.total_self_at_start
            if args.trace_file:
                with gzip.open(args.trace_file, "wt", encoding="utf-8") as handle:
                    json.dump(tracer.span_table(), handle, separators=(",", ":"))
    print(json.dumps(record, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
