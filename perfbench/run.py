"""fflab benchmark: time to a verified report, per workload.

    python3 perfbench/run.py --workload circle --seed 1 --seconds 20 --trace 0

One process, one caller in a closed loop, `workers = 1`.  The benchmark
drives fflab only through its public path, as `fflab.cli.main` does:
harness.load_config -> harness.run_task -> reporting.write_report.  Inputs
are config and form files generated from --seed (see fixtures.py).

Every time the benchmark reports is in reference seconds (see
reference.py): a measured time, divided by the mean time of the two runs
of the fixed reference kernel just before and just after it, times
REF_SECONDS.  So the host's drift in speed cancels.  The raw wall and CPU
times are on the summary line.

Set-up (import fflab, load every config, parse its form, build its field
tables) is repeated SETUP_REPS times from a fresh import; setup_s is the
median.  Then whole passes over the workload's fixtures run back to back
for about --seconds, at least MIN_PASSES of them; batch_s (wall) and cpu_s
(CPU) are medians over passes, each pass time being the sum of its
fixtures' times.  A pass ends when every report is written and checked: a
fixed fixture's report must match its recorded sha256, a seeded one must
say `pass` and keep its bytes from pass to pass.  The weyl
workload also reruns its sweep, untimed, at workers = 2 and requires the
same bytes.

--trace 1 adds one traced pass after the timed ones: fresh import, wrappers
from tracing.py around fflab's entry points, traced set-up and pass (with
the reference kernel between fixtures, outside every span), wrappers
removed.  It prints the per-layer metrics instead of the end-to-end ones
and writes the spans to perfbench/traces/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it repeats the figures for a reader, with units,
including failed_frac (failed / attempted).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from fixtures import DIGESTS, WORKLOADS, fixtures_for, materialize  # noqa: E402
from reference import REF_SECONDS, cpu_seconds, reference_kernel  # noqa: E402
from tracing import Tracer, assert_unwrapped  # noqa: E402

SETUP_REPS = 11
MIN_PASSES = 3
# The fixture rerun, untimed, at workers = 2 (the weyl workload's sweep).
WORKER_CHECK = "weyl_sweep_q5"

END_TO_END = [("setup_s", "s"), ("batch_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]

_LAYERS = [
    ("circle.quadrature_s", "s"), ("circle.atom_gen_s", "s"),
    ("circle.atoms", "count"), ("circle.arcs", "count"),
    ("circle.arc_gen_s", "s"),
    ("polys.poly_gcd_s", "s"), ("polys.poly_gcd_calls", "count"),
    ("laurent.expand_rational_s", "s"),
    ("laurent.expand_rational_calls", "count"),
    ("circle.phase_distribution_s", "s"), ("circle.brute_count_s", "s"),
    ("circle.sum_table_s", "s"), ("circle.budget_spent", "count"),
    ("weyl.approx_zero_s", "s"), ("weyl.approx_zero_calls", "count"),
    ("weyl.prefixes", "count"),
    ("linalg.batched_rank_s", "s"), ("linalg.matrices_ranked", "count"),
    ("linalg.rank_mod_q_s", "s"), ("linalg.rank_mod_q_calls", "count"),
    ("weyl.inequality_s", "s"), ("cyclotomic.compare_abs_power_s", "s"),
    ("moduli.count_morphisms_s", "s"), ("moduli.count_cone_s", "s"),
    ("moduli.total_solutions_s", "s"), ("moduli.tuples_enumerated", "count"),
    ("moduli.gcd_coprime_s", "s"), ("moduli.gcd_coprime_calls", "count"),
    ("latgon.minima_s", "s"), ("latgon.minima_calls", "count"),
    ("latgon.duality_s", "s"), ("latgon.lemma_s", "s"),
    ("reporting.write_s", "s"), ("reporting.bytes", "count"),
    ("fields.tables_s", "s"),
    ("harness.run_task_s", "s"), ("work.map_reduce_s", "s"),
    ("forms.separable_s", "s"), ("forms.nonseparable_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ("host.ref_kernel_s", "s"),
]


def _task_metrics():
    names = []
    for workload in WORKLOADS:
        names += [f"task.{fx.name}_s"
                  for fx in fixtures_for(workload, 0)]
    return [(name, "s") for name in names]


PER_LAYER = _LAYERS + _task_metrics()


# -- set-up -----------------------------------------------------------------------


def fresh_import():
    """Import fflab from scratch, dropping any earlier import."""
    for name in list(sys.modules):
        if name == "fflab" or name.startswith("fflab."):
            del sys.modules[name]
    return importlib.import_module("fflab")


def prepare(fflab, paths):
    """Load every config, parse its form and build its field tables."""
    configs = []
    for path in paths:
        config = fflab.harness.load_config(path)
        problem = fflab.harness.build_problem(config)
        problem.spec.tables  # builds and caches the field's tables
        configs.append(config)
    return configs


def set_up(paths):
    start = time.perf_counter()
    fflab = fresh_import()
    configs = prepare(fflab, paths)
    return time.perf_counter() - start, fflab, configs


def set_ups(paths):
    """SETUP_REPS set-ups, each between two reference kernel runs: (median
    set-up time in reference seconds, median raw time, fflab, configs)."""
    before = reference_kernel()[0]
    ref, raw = [], []
    for _ in range(SETUP_REPS):
        elapsed, fflab, configs = set_up(paths)
        after = reference_kernel()[0]
        ref.append(elapsed / (before + after) * 2 * REF_SECONDS)
        raw.append(elapsed)
        before = after
    return statistics.median(ref), statistics.median(raw), fflab, configs


# -- passes -----------------------------------------------------------------------


class Gate:
    """Counts attempted and failed tasks.  A task fails when its status is
    not `pass`, when a fixed fixture's report misses its recorded sha256, or
    when a report's bytes differ from the first pass of this run."""

    def __init__(self, fixtures):
        self.want = {fx.name: DIGESTS.get(fx.name)
                     for fx in fixtures if not fx.seeded}
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, name: str, status: str, digest: str):
        self.attempted += 1
        first = self.first.setdefault(name, digest)
        want = self.want.get(name)
        if status != "pass":
            problem = f"status {status}"
        elif want is not None and digest != want:
            problem = f"report sha256 {digest}, recorded {want}"
        elif digest != first:
            problem = f"report sha256 {digest} changed from {first}"
        else:
            return
        self.failed += 1
        self.problems.append(f"{name}: {problem}")


@dataclass
class Pass:
    wall: float = 0.0      # in reference seconds
    cpu: float = 0.0
    raw_wall: float = 0.0  # in seconds; kernel runs left out of both
    raw_cpu: float = 0.0
    kernel: list = field(default_factory=list)  # kernel wall times
    per_fixture: dict = field(default_factory=dict)  # reference seconds
    bytes: int = 0
    budget_spent: int = 0


def run_fixture(fflab, config, dest):
    """One task through the public path: (status, sha256, bytes, budget)."""
    try:
        result = fflab.harness.run_task(config)
        path = fflab.reporting.write_report(result.records, dest, config.fmt)
    except Exception:  # a crashing task is a failed task, not a lost run
        traceback.print_exc()
        return "error", None, 0, 0
    with open(path, "rb") as fh:
        data = fh.read()
    spent = sum(rec.budget_spent for rec in result.records)
    return result.status, hashlib.sha256(data).hexdigest(), len(data), spent


def run_pass(fflab, fixtures, configs, out_dir, gate, tracer=None) -> Pass:
    """One pass over the fixtures.  The reference kernel runs before the
    first fixture and after each one, outside every span; each fixture's
    times are scaled by the mean of the two kernel runs around it."""
    done = Pass()
    before = reference_kernel()
    for fx, config in zip(fixtures, configs):
        task_start, cpu_start = time.perf_counter(), cpu_seconds()
        dest = os.path.join(out_dir, f"{fx.name}.{config.fmt}")
        with tracer.span(f"fixture.{fx.name}") if tracer else nullcontext():
            status, digest, size, spent = run_fixture(fflab, config, dest)
            gate.check(fx.name, status, digest)
        wall = time.perf_counter() - task_start
        cpu = cpu_seconds() - cpu_start
        after = reference_kernel()
        ref_wall = wall / (before[0] + after[0]) * 2 * REF_SECONDS
        done.per_fixture[fx.name] = ref_wall
        done.wall += ref_wall
        done.cpu += cpu / (before[1] + after[1]) * 2 * REF_SECONDS
        done.raw_wall += wall
        done.raw_cpu += cpu
        done.kernel.append(after[0])
        before = after
        done.bytes += size
        done.budget_spent += spent
    return done


def timed_passes(fflab, fixtures, configs, out_dir, gate, seconds):
    """Whole passes until the next one would end after `seconds`."""
    passes, lengths = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(fflab, fixtures, configs, out_dir, gate))
        lengths.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed + statistics.median(lengths) > seconds:
            return passes


def check_workers(fflab, path, name, out_dir, gate):
    """Rerun one fixture at workers = 2; the gate wants the same bytes."""
    config = fflab.harness.load_config(path, workers=2)
    dest = os.path.join(out_dir, f"{name}.workers2.{config.fmt}")
    status, digest, _, _ = run_fixture(fflab, config, dest)
    gate.check(name, status, digest)


# -- tracing ----------------------------------------------------------------------


def traced_pass(paths, fixtures, out_dir, gate):
    """Set-up and one pass with every wrapper installed; wrappers removed
    afterwards.  Returns (tracer, pass)."""
    tracer = Tracer()
    fflab = fresh_import()
    tracer.install()
    try:
        with tracer.span("setup"):
            configs = prepare(fflab, paths)
        done = run_pass(fflab, fixtures, configs, out_dir, gate, tracer)
    finally:
        tracer.uninstall()
    assert_unwrapped()
    return tracer, done


def layer_metrics(tracer, traced, passes, fixtures, batch_s) -> dict:
    values = {f"{name}_s": t for name, t in tracer.self_times().items()}
    values.update(tracer.counts)
    values["circle.budget_spent"] = traced.budget_spent
    values["reporting.bytes"] = traced.bytes
    values["trace.spans"] = len(tracer.spans)
    values["host.ref_kernel_s"] = statistics.median(
        t for p in passes for t in p.kernel)
    # Both in reference seconds, so a drift of the host between the timed
    # passes and the traced one does not pass for tracing cost.
    values["trace.overhead_s"] = traced.wall - batch_s
    for fx in fixtures:
        t = statistics.median(p.per_fixture[fx.name] for p in passes)
        values[f"task.{fx.name}_s"] = t
        if fx.separable is not None:
            key = "forms.separable_s" if fx.separable else \
                "forms.nonseparable_s"
            values[key] = values.get(key, 0.0) + t
    return values


# -- main -------------------------------------------------------------------------


def _spread(values):
    """First and third quartile, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, seed, seconds, trace, work):
    """Set-up, timed passes and checks of one run; returns the end-to-end
    figures, the metrics to report, the gate, the passes and the median raw
    set-up time."""
    fixtures = fixtures_for(workload, seed)
    paths = materialize(fixtures, work, ROOT)
    setup_s, setup_raw, fflab, configs = set_ups(paths)
    gate = Gate(fixtures)
    assert_unwrapped()
    passes = timed_passes(fflab, fixtures, configs, work, gate, seconds)
    assert_unwrapped()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for fx, path in zip(fixtures, paths):
        if fx.name == WORKER_CHECK:
            check_workers(fflab, path, fx.name, work, gate)
    e2e = {"setup_s": setup_s,
           "batch_s": statistics.median(p.wall for p in passes),
           "cpu_s": statistics.median(p.cpu for p in passes),
           "peak_rss_mb": peak_rss_mb}
    if not trace:
        return e2e, e2e, END_TO_END, gate, passes, setup_raw
    tracer, traced = traced_pass(paths, fixtures, work, gate)
    values = layer_metrics(tracer, traced, passes, fixtures, e2e["batch_s"])
    trace_dir = os.path.join(BENCH, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, f"{workload}-seed{seed}.tsv"))
    for hook in tracer.missing:
        print(f"perfbench: not traced, gone from fflab: {hook}",
              file=sys.stderr)
    return e2e, values, PER_LAYER, gate, passes, setup_raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes a config [run] seed)")
    if not os.path.isfile(os.path.join(ROOT, "src", "fflab", "__init__.py")):
        print(f"perfbench: no fflab sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401  fflab's dependency; kept out of setup_s

    work_root = os.path.join(BENCH, "work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        e2e, values, names, gate, passes, setup_raw = measure(
            args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in gate.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    q1, q3 = _spread([p.wall for p in passes])
    kernel_s = statistics.median(t for p in passes for t in p.kernel)
    summary = [f"{args.workload} seed={args.seed} passes={len(passes)}"]
    summary += [f"{name}={e2e[name]:.6g} {unit}" for name, unit in END_TO_END]
    summary += [f"batch_s quartiles={q1:.4f}/{q3:.4f} s",
                f"raw: setup_s={setup_raw:.4f} s",
                f"batch_s={statistics.median(p.raw_wall for p in passes):.4f} s",
                f"cpu_s={statistics.median(p.raw_cpu for p in passes):.4f} s",
                f"ref_kernel_s={kernel_s:.4f} s"]
    summary.append(f"failed_frac={gate.failed / gate.attempted:.6g} "
                   f"({gate.failed}/{gate.attempted})")
    if args.trace:
        formed = values.get("forms.separable_s", 0.0) + \
            values.get("forms.nonseparable_s", 0.0)
        if formed:
            share = values.get("forms.separable_s", 0.0) / formed
            summary.append(f"separable_share={share:.3f}")
        summary.append(f"trace.overhead_s={values['trace.overhead_s']:.4g} s")
    print(" ".join(summary))
    metrics = {name: {"value": values.get(name, 0.0 if unit == "s" else 0),
                      "unit": unit}
               for name, unit in names}
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
