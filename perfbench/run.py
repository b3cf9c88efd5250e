"""Outside-in benchmark for bmsim.

Runs one workload (or `all`) as a closed loop: repetitions of the workload,
each in a fresh single-threaded process, one at a time, until `--seconds` is
used up.  Checks every repetition's outputs, prints every end-to-end metric
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` they are its per-layer metrics, taken from repetitions run
under the wrappers of `perfbench/tracer.py`, next to one untraced repetition
that gives the tracing overhead.  The printed table has more rows than
BENCHMARK.json declares: it also shows the layers and event labels that only
some workloads use, whose times read 0 on the others.  Usage, from the
repository root:

    python3 perfbench/run.py --workload growth_t1 --seed 1 --seconds 30 --trace 0

Each run appends a record to `perfbench-out/results.jsonl` (see `--results`);
`perfbench/compare.py` compares two such files.  Exits 1 if an output check
fails and 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

WORKLOADS = ("growth_t1", "growth_halff", "attack")
OP_NAMES = {"growth_t1": "join", "growth_halff": "join", "attack": "run"}
SETUP_PROBES = 3           # most set-up-only processes per untraced run
PROBE_RESERVE_S = 1.0      # time kept for the first of them
WORKER_TIMEOUT_S = 170
PINNED_SEED = 1            # the seed whose CSV digests digests.json pins

# Event labels reported one by one, as `simcore.event.<label>` with `:` read
# as `.`; other labels still appear in the printed table.
EVENT_LABELS = (
    "deliver:register_announce", "deliver:register_confirm", "deliver:join_request",
    "deliver:final_response", "deliver:leave_request", "deliver:query",
    "deliver:query_response", "tob", "block", "checkpoint", "driver-poll",
    "announce-retry", "request-retry", "backup-vote", "client-retry",
    "client-reconnect", "corrupt",
)
LAYERS = ("simcore", "canonical", "node", "ledger", "contract", "membership", "client",
          "adversary", "simulation", "scenario", "metrics", "harness")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten samples beyond it, and
    the 0-based nearest-rank index of that percentile in `n` sorted samples."""
    pct = max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0
    index = max(0, math.ceil(pct * n / 100) - 1)
    return pct, index


def op_stats(op_s: list[float]) -> dict:
    ms = sorted(v * 1000.0 for v in op_s)
    pct, index = tail_rank(len(ms))
    return {"tail": ms[index], "tail_pct": pct, "n": len(ms)}


# ---------------------------------------------------------------------------
# running repetitions
# ---------------------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, *, trace: bool = False, setup_only: bool = False,
               trace_file: Path | None = None) -> dict:
    """Start one worker process, wait for it, and return its record.  A
    worker that fails returns a record with `error` set."""
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work)]
    if trace:
        cmd.append("--trace")
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.time())], cwd=ROOT,
                              env=worker_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S} s", "elapsed": WORKER_TIMEOUT_S}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return {"error": f"worker exited with code {proc.returncode}", "elapsed": elapsed}
    record = json.loads(lines[-1])
    record["elapsed"] = elapsed
    return record


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_rep(rep: dict, workload: str, seed: int, pinned: dict, nominal: int) -> list[str]:
    """Output checks of one full repetition.  Any problem fails every
    operation of the repetition."""
    if "error" in rep:
        rep["attempted"] = nominal
        rep["failed"] = nominal
        return [rep["error"]]
    problems = list(rep["problems"])
    if seed == PINNED_SEED and rep["digests"] != pinned[workload]:
        wrong = sorted(name for name in set(pinned[workload]) | set(rep["digests"])
                       if pinned[workload].get(name) != rep["digests"].get(name))
        problems.append("CSV digests differ from the pinned seed-1 digests: " + ", ".join(wrong))
    if problems:
        rep["failed"] = rep["attempted"]
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    """Each end-to-end metric as a median over repetitions, except
    `op_ms_p50`, the median over every operation of every repetition.  The
    tail stays per repetition so that its percentile does not depend on how
    many repetitions fit in the run."""
    per_rep = [{
        "wall_s": rep["wall_s"],
        "ops_per_s": len(rep["op_s"]) / rep["wall_s"],
        "op_ms_tail": op_stats(rep["op_s"])["tail"],
        "peak_rss_mb": rep["peak_rss_mb"],
    } for rep in reps]
    units = {"wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
    values = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
    values["op_ms_p50"] = statistics.median(v * 1000.0 for rep in reps for v in rep["op_s"])
    values["setup_s"] = statistics.median(setups)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def per_layer(traced: list[dict], untraced_wall: float, import_s: float) -> dict:
    """Per-layer metrics: counts from the first traced repetition, self times
    as medians over the traced repetitions."""
    first = traced[0]["layers"]
    calls, counts = first["calls"], first["counts"]

    def count(name):
        return calls.get(name, [0, 0.0])[0]

    def self_s(name):
        return statistics.median(rep["layers"]["calls"].get(name, [0, 0.0])[1] for rep in traced)

    def layer_s(layer):
        return statistics.median(rep["layers"]["layer_self"].get(layer, 0.0) for rep in traced)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def k(name):
        return counts.get(name, 0)

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    events = sum(c for name, (c, _) in calls.items() if name.startswith("simcore.event."))
    put("simcore.events", events, "count")
    put("simcore.run_slices", count("simcore.run"), "count")
    put("simcore.run.self_s", self_s("simcore.run"), "s")
    for label in EVENT_LABELS:
        metric = "simcore.event." + label.replace(":", ".")
        put(f"{metric}.count", count(f"simcore.event.{label}"), "count")
        put(f"{metric}.self_s", self_s(f"simcore.event.{label}"), "s")
    for name in ("simcore.send", "simcore.auth.sign", "simcore.auth.verify"):
        put(f"{name}.count", count(name), "count")
        put(f"{name}.self_s", self_s(name), "s")
    put("canonical.encode.count", count("canonical.encode"), "count")
    put("canonical.encode.bytes", k("canonical.encode.bytes"), "bytes")
    put("canonical.encode.self_s", self_s("canonical.encode"), "s")

    put("node.tob.broadcasts", k("node.tob.broadcasts"), "count")
    put("node.tob.deliveries", count("node.tob"), "count")
    put("node.tob.self_s", self_s("node.tob"), "s")
    put("node.tob.useful_ratio", ratio(k("node.tob.useful"), count("node.tob")), "ratio")
    for name in ("node.ledger_advance", "node.checkpoint"):
        put(f"{name}.count", count(name), "count")
        put(f"{name}.self_s", self_s(name), "s")
        put(f"{name}.useful_ratio", ratio(k(f"{name}.useful"), count(name)), "ratio")
    put("node.latest_config.hit_ratio",
        ratio(k("node.latest_config.hits"), count("node.latest_config")), "ratio")
    put("node.final_response.count", count("node.final_response"), "count")
    put("node.final_response.self_s", self_s("node.final_response"), "s")
    put("node.votes.submitted", k("ledger.tx.submitted.vote"), "count")
    put("node.join_request.resend_ratio",
        ratio(k("node.join_request.resends"), count("node.join_request")), "ratio")

    put("ledger.blocks", count("simcore.event.block"), "count")
    put("ledger.block.self_s", self_s("simcore.event.block"), "s")
    put("ledger.observer.callbacks", count("node.ledger_advance"), "count")
    put("ledger.tx.submitted", k("ledger.tx.submitted"), "count")
    put("ledger.tx.executed", k("ledger.tx.executed"), "count")
    put("ledger.gas.total", k("ledger.gas.total"), "gas")

    put("contract.vote.count", count("contract.vote"), "count")
    put("contract.vote.update_ratio",
        ratio(k("contract.vote.updates"), count("contract.vote")), "ratio")
    put("contract.register.count", count("contract.register"), "count")
    put("contract.conservation_checks", count("contract.conservation"), "count")

    put("membership.config.count", count("membership.config"), "count")
    put("membership.symdiff.count", count("membership.symdiff"), "count")

    put("client.requests", count("client.request"), "count")
    put("client.responses.verified", k("client.responses.verified"), "count")
    put("adversary.activations", k("adversary.activations"), "count")

    put("simulation.driver.polls", count("simulation.driver"), "count")
    put("simulation.driver.useful_ratio",
        ratio(k("simulation.driver.useful"), count("simulation.driver")), "ratio")
    put("simulation.quiescent.count", count("simulation.quiescent"), "count")
    put("simulation.quiescent.self_s", self_s("simulation.quiescent"), "s")
    put("simulation.construct.self_s", self_s("simulation.construct"), "s")
    put("simulation.collect.self_s", self_s("simulation.collect"), "s")

    put("scenario.build.self_s", self_s("scenario.build"), "s")
    put("metrics.monitor.self_s", self_s("metrics.monitor"), "s")
    put("metrics.csv.bytes", traced[0]["csv_bytes"], "bytes")
    put("harness.csv_write.self_s", self_s("harness.csv_write"), "s")
    put("harness.import_s", import_s, "s")

    for layer in LAYERS:
        put(f"{layer}.self_s", layer_s(layer), "s")

    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead", traced_wall / untraced_wall, "ratio")
    put("trace.coverage", statistics.median(r["covered_s"] / r["wall_s"] for r in traced), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def print_end_to_end(workload: str, metrics: dict, reps: list[dict], setups: list[float],
                     attempted: int, failed: int) -> None:
    op = OP_NAMES[workload]
    stats = op_stats(reps[0]["op_s"])
    n = stats["n"]
    rows = [
        ("wall_s", f"simulation work after set-up, median over repetitions (n={len(reps)})"),
        ("ops_per_s", f"{op}s per second ({n} {op}s per repetition)"),
        ("op_ms_p50", f"median host time per {op}, n={n * len(reps)}"),
        ("op_ms_tail", f"p{stats['tail_pct']} host time per {op}, n={n} "
                       "per repetition, median over repetitions"),
        ("setup_s", f"process start to first simulated event, median over processes "
                    f"(n={len(setups)})"),
        ("peak_rss_mb", "peak resident memory of a repetition's process"),
    ]
    for name, note in rows:
        metric = metrics[name]
        print(f"  {name:<12} {metric['value']:>12.4f} {metric['unit']:<4} {note}")
    ratio = failed / attempted if attempted else 0.0
    print(f"  {'fail_ratio':<12} {ratio:>12.4f}      "
          f"{failed} failed of {attempted} {op}s attempted")


def print_layers(layers: dict, traced: list[dict]) -> None:
    groups: dict[str, list] = {}
    for name, metric in layers.items():
        groups.setdefault(name.split(".", 1)[0], []).append((name, metric))
    for layer, rows in groups.items():
        print(f"  [{layer}]")
        for name, metric in rows:
            value = metric["value"]
            text = f"{value:.4f}" if isinstance(value, float) else str(value)
            print(f"    {name:<48} {text:>14} {metric['unit']}")
    calls = traced[0]["layers"]["calls"]
    extra = sorted(name for name in calls if name.startswith("simcore.event.")
                   and name[len("simcore.event."):] not in EVENT_LABELS)
    for name in extra:
        print(f"    {name + ' (count, self_s)':<48} {calls[name][0]:>14} {calls[name][1]:.4f} s")
    sends = traced[0]["layers"]["counts"]
    kinds = {name[len("simcore.send.kind."):]: value for name, value in sends.items()
             if name.startswith("simcore.send.kind.")}
    print("    sends by kind: "
          + ", ".join(f"{kind}={value}" for kind, value in sorted(kinds.items())))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool, pinned: dict,
                 declared: list[str]) -> tuple[dict, list[dict]]:
    """Run one workload for `seconds`; return the result line, whose metrics
    are the `declared` ones, and the raw untraced repetitions."""
    started = time.monotonic()
    nominal = 200 if workload == "attack" else 96   # operations a crashed worker fails
    problems: list[str] = []

    def spent() -> float:
        return time.monotonic() - started

    def full(traced: bool, trace_file: Path | None = None) -> dict:
        rep = run_worker(workload, seed, trace=traced, trace_file=trace_file)
        problems.extend(check_rep(rep, workload, seed, pinned, nominal))
        return rep

    OUT.mkdir(exist_ok=True)
    reps = [full(False)]
    traced: list[dict] = []
    setups: list[float] = []
    if trace:
        trace_file = OUT / f"spans-{workload}-seed{seed}.json.gz"
        traced.append(full(True, trace_file))
        while spent() + statistics.median(r["elapsed"] for r in traced) <= seconds:
            traced.append(full(True))
    else:
        # repetitions first, each started only if a typical one still fits;
        # set-up-only probes (at least one) fill the rest
        while spent() + statistics.median(r["elapsed"] for r in reps) + PROBE_RESERVE_S <= seconds:
            reps.append(full(False))
        probe_s = 0.0
        while len(setups) < SETUP_PROBES and (not setups or spent() + probe_s <= seconds):
            probe = run_worker(workload, seed, setup_only=True)
            if "error" in probe:
                problems.append(probe["error"])
                break
            setups.append(probe["setup_s"])
            probe_s = max(probe_s, probe["elapsed"])

    runs = reps + traced
    good = [r for r in reps if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    if trace and good and good_traced:
        for rep in good_traced:
            if rep["digests"] != good[0]["digests"]:
                problems.append("traced CSV digests differ from the untraced run's")
                rep["failed"] = rep["attempted"]
        first = good_traced[0]["layers"]
        for rep in good_traced[1:]:
            same = ({n: c[0] for n, c in rep["layers"]["calls"].items()}
                    == {n: c[0] for n, c in first["calls"].items()}
                    and rep["layers"]["counts"] == first["counts"])
            if not same:
                problems.append("per-layer counts differ between two traced runs")
                rep["failed"] = rep["attempted"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": not problems, "attempted": attempted, "failed": failed}

    mode = "traced" if trace else "untraced"
    print(f"{workload} seed {seed}: {len(reps)} untraced + {len(traced)} traced repetitions"
          f"{'' if trace else f' + {len(setups)} set-up probes'} in {spent():.1f} s "
          f"({mode} run; closed loop, one simulated run at a time, one process each)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if not good or (trace and not good_traced):
        result["metrics"] = {}
        return result, []
    raw = [{key: rep[key] for key in ("wall_s", "op_s", "setup_s", "peak_rss_mb", "elapsed")}
           for rep in good]
    setups += [r["setup_s"] for r in good]
    metrics = end_to_end(good, setups)
    print_end_to_end(workload, metrics, good, setups, attempted, failed)
    if trace:
        imports = [r["import_s"] for r in good + good_traced]
        metrics = layers = per_layer(good_traced, statistics.median(r["wall_s"] for r in good),
                                     statistics.median(imports))
        print(f"  per-layer table (traced, {len(good_traced)} repetitions; counts are exact, "
              "self_s is span time minus child spans):")
        print_layers(layers, good_traced)
        covered = layers["trace.coverage"]["value"]
        print(f"  coverage: layer self_s covers {covered:.1%} of the traced wall_s "
              f"{layers['trace.wall_s']['value']:.3f} s")
        print(f"  tracing overhead: traced wall_s / untraced wall_s = "
              f"{layers['trace.overhead']['value']:.3f}")
    result["metrics"] = {name: metrics[name] for name in declared}
    return result, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="time to measure each workload for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "results.jsonl"),
                        help="JSON-lines file that each run's record is appended to")
    args = parser.parse_args(argv)

    if not (SRC / "bmsim" / "__init__.py").is_file():
        print(f"bmsim sources not found under {SRC}", file=sys.stderr)
        return 2
    pinned = load_json(HERE / "digests.json")
    spec = load_json(ROOT / "BENCHMARK.json")
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, raw = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                   pinned, declared)
        results[workload] = result
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **result, "reps": raw}
        Path(args.results).parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    ok = all(r["correct"] and r["metrics"] for r in results.values())
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
