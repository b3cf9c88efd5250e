"""Command-line experiment runner.

Subcommands: `run` executes a scenario file, `sweep` runs the growth
experiment for a policy, `attack-demo` runs the long-range attack batch, and
`calibrate-gas` fits the gas schedule to published cost anchors.  The output
directory resolves as --out, then $BMS_SIM_OUT, then ./bmsim-out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from bmsim.errors import InvalidInputError, InvariantViolation, ScenarioValidationError
from bmsim.harness import (
    COST_ANCHORS,
    DEFAULT_ANCHOR_SIZES,
    attack_demo,
    calibrate_gas,
    resolve_out_dir,
    run_file,
    sweep,
)
from bmsim.membership import Policy
from bmsim.scenario import ScenarioConfig, check_range

POLICY_NAMES = {"t1": Policy.EVERY, "halff": Policy.HALF_F}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--block-trace", action="store_true")
    p_run.add_argument("--skip-confirmation", action="store_true",
                       help="report the analytic confirmation latency instead of the realized one")

    p_sweep = sub.add_parser("sweep", help="growth sweep for one announcement policy")
    p_sweep.add_argument("--policy", choices=sorted(POLICY_NAMES), required=True)
    p_sweep.add_argument("--from", dest="from_size", type=int, default=4)
    p_sweep.add_argument("--to", dest="to_size", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--skip-confirmation", action="store_true")

    p_attack = sub.add_parser("attack-demo", help="long-range attack batch")
    p_attack.add_argument("--mode", choices=["bms", "control"], required=True)
    p_attack.add_argument("--seeds", type=int, default=100)
    p_attack.add_argument("--out", default=None)

    p_cal = sub.add_parser("calibrate-gas", help="fit gas constants to cost anchors")
    p_cal.add_argument("--anchors", default=None,
                       help="JSON file: list of [size, gas, usd] rows")
    p_cal.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_arguments(args)
    except ScenarioValidationError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except ScenarioValidationError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:   # such as a sweep or attack run that hit the simulation cap
        print(exc, file=sys.stderr)
        return 2


def _check_arguments(args) -> None:
    """Range-check the numeric arguments like scenario fields, before any run."""
    if args.command == "sweep":
        check_range("--from", args.from_size, ScenarioConfig.__dataclass_fields__["initial_size"].metadata)
        check_range("--to", args.to_size, {"gt": args.from_size})
    elif args.command == "attack-demo":
        check_range("--seeds", args.seeds, {"ge": 1})


def _dispatch(args) -> int:
    if args.command == "run":
        result = run_file(
            args.file,
            seed=args.seed,
            out=args.out,
            block_trace=args.block_trace,
            skip_confirmation=args.skip_confirmation,
        )
        status = "completed" if result.completed else "hit the simulation cap"
        print(
            f"{result.scenario_name}: {status} at t={result.end_time:.1f}s, "
            f"{len(result.joins)} joins, {len(result.updates)} updates "
            f"-> {resolve_out_dir(args.out)}"
        )
        return 0 if result.completed else 2

    if args.command == "sweep":
        policy = POLICY_NAMES[args.policy]
        result = sweep(
            policy,
            from_size=args.from_size,
            to_size=args.to_size,
            seed=args.seed,
            out=args.out,
            skip_confirmation=args.skip_confirmation,
        )
        print(
            f"sweep {args.policy} {args.from_size}->{args.to_size}: "
            f"{len(result.joins)} joins, {len(result.updates)} updates "
            f"-> {resolve_out_dir(args.out)}"
        )
        return 0

    if args.command == "attack-demo":
        mode = "with_bms" if args.mode == "bms" else "no_bms"
        report = attack_demo(mode, seeds=args.seeds, out=args.out)
        print(
            f"attack-demo mode={args.mode}: {report.runs_with_forgery}/{len(report.runs)} "
            f"runs accepted a forged quorum"
        )
        return 0

    if args.command == "calibrate-gas":
        if args.anchors:
            try:
                anchors = load_anchors(args.anchors)
            except InvalidInputError as exc:
                print(f"--anchors: {exc}", file=sys.stderr)
                return 1
        else:
            anchors = {size: COST_ANCHORS[size] for size in DEFAULT_ANCHOR_SIZES}
        result = calibrate_gas(anchors)
        for line in result.report_lines():
            print(line)
        if result.degenerate:
            print("fit degenerate; keeping the default schedule")
        out_dir = resolve_out_dir(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "gas_schedule.json"
        path.write_text(json.dumps(result.schedule.as_dict(), indent=2) + "\n")
        print(f"schedule -> {path}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def load_anchors(path: str) -> dict[int, tuple[int, float]]:
    """Read an anchors file: a JSON list of [size, gas, usd] rows, every value
    a positive finite number, with at least two distinct sizes."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            rows = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    if not isinstance(rows, list):
        raise InvalidInputError(f"{path} must hold a JSON list of [size, gas, usd] rows")
    anchors = {}
    for index, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3 and all(map(_positive_number, row))):
            raise InvalidInputError(
                f"row {index} must be [size, gas, usd] with positive numbers, got {row!r}"
            )
        size, gas, usd = row
        anchors[int(size)] = (int(gas), float(usd))
    if len(anchors) < 2:
        raise InvalidInputError(f"calibration needs at least two sizes, got {len(anchors)}")
    return anchors


def _positive_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


if __name__ == "__main__":
    sys.exit(main())
