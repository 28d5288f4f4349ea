"""Command line entry point.

    fflab <task> --config <file> [--workers N] [--out DIR] [--format csv|jsonl]

One invocation runs one task from a config file and writes one report file
(<out>/<task>.<format>).  Exit codes:

    0  every asserted invariant held
    1  some asserted invariant failed (the report says which rows)
    2  invalid configuration, arguments, or form file, or an output
       directory that cannot be made (before the task runs) or written
    3  a predicted enumeration cost exceeded the configured budget

FFLAB_WORKERS and FFLAB_OUT override the config file when the matching flag
is absent; no other environment variable is consulted.
"""

import argparse
import os
import sys

from .errors import BudgetExceededError, ConfigError
from .harness import TASKS, load_config, run_task
from .reporting import write_report


def _make_out_dir(out_dir, dest) -> list:
    """Make the report directory and its missing parents; returns the ones
    made, deepest first, for a task refused as a config error to remove."""
    made, head = [], os.path.abspath(out_dir)
    while not os.path.lexists(head):
        made, head = made + [head], os.path.dirname(head)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write report {dest}: {exc}") from exc
    return made


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fflab",
        description="Exact verification tasks for circle-method counting "
                    "over F_q((1/t)).")
    parser.add_argument("task", choices=TASKS, metavar="task",
                        help="one of: " + ", ".join(TASKS))
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="run config (key=value sections)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="parallel workers (never changes results)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="report output directory")
    parser.add_argument("--format", dest="fmt", choices=("csv", "jsonl"),
                        default=None, help="report file format")
    args = parser.parse_args(argv)

    workers = args.workers
    env_workers = os.environ.get("FFLAB_WORKERS")
    if workers is None and env_workers:
        try:
            workers = int(env_workers)
        except ValueError:
            print(f"fflab: config error: FFLAB_WORKERS={env_workers!r} "
                  f"is not an integer", file=sys.stderr)
            return 2
    out_dir = args.out or os.environ.get("FFLAB_OUT") or None

    try:
        config = load_config(args.config, task=args.task, workers=workers,
                             out_dir=out_dir, fmt=args.fmt)
        dest = os.path.join(config.out_dir, f"{config.task}.{config.fmt}")
        made = _make_out_dir(config.out_dir, dest)      # before any work
        try:
            result = run_task(config)
        except ConfigError:
            for path in made:
                os.rmdir(path)
            raise
        try:
            path = write_report(result.records, dest, config.fmt)
        except OSError as exc:
            raise ConfigError(f"cannot write report {dest}: {exc}") from exc
    except ConfigError as exc:
        print(f"fflab: config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"fflab: budget exhausted: {exc}", file=sys.stderr)
        return 3
    print(f"{config.task}: {result.status} | {len(result.records)} records "
          f"in {result.seconds:.2f}s -> {path}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
