"""Command-line front end.

Subcommands:
  run        simulate a scenario and drive the predict/update recursion,
             writing run.csv and summary.json into --out-dir
  update     one Bayes update against a config's prior, measurements given
             on the command line; prints the posterior as JSON
  verify     property sweeps with pass/fail lines; exit 0 iff all pass
  partitions debug enumeration of set partitions; refused, before any
             line is printed, when more than PARTITIONS_PRINT_MAX partitions
             would be printed

Exit codes: 0 success, 1 usage or validation trouble (including a
partitions listing over PARTITIONS_PRINT_MAX), 2 a run hit a
measurement set with zero likelihood (the failing step is reported), 3 a
run's prediction dropped more mass past n_max than transition.max_dropped
allows (the failing step is reported, and the outputs of the completed
steps are written).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from .bayes import ZeroEvidence, posterior_partition_clutter
from .combinatorics import BELL_MAX, partition_count, partitions
from .finite_pp import TruncationOverflow
from .scenario import ConfigError, load_config, run
from .verify import format_report, run_checks

# the most partitions the partitions subcommand prints; B(11) = 678,570 fit
PARTITIONS_PRINT_MAX = 10**6


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        scenario.seed = args.seed
    try:
        records, failed_step = run(scenario, args.out_dir)
    except TruncationOverflow as exc:
        print(f"truncation overflow at step {exc.step}: {exc}", file=sys.stderr)
        return 3
    if failed_step is not None:
        print(
            f"zero evidence at step {failed_step}: the configured model cannot"
            " explain the drawn measurement set",
            file=sys.stderr,
        )
        return 2
    last = records[-1]
    print(
        f"completed {len(records) - 1} steps; final log evidence"
        f" {last.log_evidence!r}, MAP cardinality {last.map_cardinality}"
    )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    try:
        scenario = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    measurements = [z for z in args.measurements.split(",") if z] if args.measurements else []
    try:
        post = posterior_partition_clutter(
            scenario.prior, scenario.kernel, scenario.clutter, measurements
        )
    except ZeroEvidence:
        print(
            f"zero evidence: measurements {measurements!r} are impossible"
            " under this model",
            file=sys.stderr,
        )
        return 2
    except KeyError as exc:
        print(f"unknown measurement label: {exc}", file=sys.stderr)
        return 1
    doc = json.loads(post.density.to_json())
    doc["log_evidence"] = post.log_evidence
    doc["intensity"] = [float(v) for v in post.intensity]
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(args.level)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_partitions(args: argparse.Namespace) -> int:
    if args.m < 0:
        print("--m must be nonnegative", file=sys.stderr)
        return 1
    if args.m > BELL_MAX:
        print(
            f"--m must be at most {BELL_MAX}: B({args.m}) partitions are"
            " outside desk scale",
            file=sys.stderr,
        )
        return 1
    if args.max_block is not None and args.max_block < 1:
        print("--max-block must be at least 1", file=sys.stderr)
        return 1
    total = partition_count(args.m, args.max_block)
    if total > PARTITIONS_PRINT_MAX:
        print(
            f"--m {args.m} has {total} partitions, over the {PARTITIONS_PRINT_MAX}"
            " this command prints; lower --m or --max-block",
            file=sys.stderr,
        )
        return 1
    for part in partitions(args.m, args.max_block):
        blocks = " ".join("{" + ",".join(str(i) for i in block) + "}" for block in part.blocks)
        print(blocks if blocks else "{}")
    print(f"total {total}")
    return 0


def _seed(text: str) -> int:
    """A --seed value: numpy's generator takes only nonnegative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the documented code, instead of argparse's 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mobayes",
        description="Exact multi-object Bayes filtering on finite spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and filter a scenario")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--out-dir", required=True, help="directory for run.csv / summary.json")
    p_run.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p_run.set_defaults(fn=_cmd_run)

    p_up = sub.add_parser("update", help="single Bayes update, posterior to stdout")
    p_up.add_argument("--config", required=True, help="scenario JSON path")
    p_up.add_argument(
        "--measurements",
        default="",
        help="comma-separated measurement labels, e.g. u,v,u (empty for none)",
    )
    p_up.set_defaults(fn=_cmd_update)

    p_ver = sub.add_parser("verify", help="run the property-check suites")
    p_ver.add_argument("--level", choices=("fast", "full"), default="fast")
    p_ver.set_defaults(fn=_cmd_verify)

    p_part = sub.add_parser("partitions", help="enumerate set partitions")
    p_part.add_argument("--m", type=int, required=True, help="number of elements")
    p_part.add_argument(
        "--max-block", type=int, default=None, help="skip blocks larger than this"
    )
    p_part.set_defaults(fn=_cmd_partitions)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
