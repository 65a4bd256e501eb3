"""The repository benchmark: one command, seven workloads.

Driver form (one workload, one JSON result as the last line)::

    python3 benchmarks/suite/run.py --workload kernel_sim --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run (and checks
that tracing changed no exact quantity).

Suite form (all workloads, untraced then traced, every metric by name)::

    python3 benchmarks/suite/run.py [--seed N] [--seconds S] [--smoke]
    python3 benchmarks/suite/run.py --repeat-check

Each repetition of a workload runs in a subprocess of its own
(``PYTHONHASHSEED=0``), so ``setup_s`` — process start to first timed
operation — is sampled once per repetition and process-wide caches (the
warm pool, the isolated-latency memo) never cross workloads.  A run is
five repetitions of identical work: set-up time and memory are the
median repetition's, throughput and latency the quietest repetition's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The script's own directory holds a ``trace.py``; keep it off the path
# so it cannot shadow the standard library's ``trace`` module.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    from benchmarks.suite import metrics, stats  # noqa: E402
except ImportError as exc:  # a directory without the program under src/
    sys.exit(f"the benchmark needs the repository it measures: {exc}")

OUT_DIR = HERE / "out"
RESULT_MARK = "@@RESULT "
CHILD_TIMEOUT_SECONDS = 170
#: Untraced repetitions per run: each is one subprocess, one set-up.
#: Five short ones rather than three long ones: the shared box slows
#: down for seconds to minutes at a time, and the run reports the
#: repetition that met the least of it.
REPS = 5
SMOKE_SCALE = 0.1
#: ``--seconds`` that gives every workload its documented size.
NOMINAL_SECONDS = 10


# ----------------------------------------------------------------------
# Child: one repetition of one workload in this process
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_main(args) -> int:
    from benchmarks.suite import workloads
    from benchmarks.suite.trace import NullTracer, Tracer

    module = workloads.load(args.child)
    tracer = NullTracer()
    if args.traced:
        tracer = Tracer(OUT_DIR / "tmp" / f"workers_{os.getpid()}")
        tracer.install()
    trace = {}
    try:
        ctx = module.setup(args.seed, args.scale, tracer)
        if args.traced:
            trace["setup"] = tracer.totals()
            tracer.reset()
        try:
            setup_s = time.monotonic() - args.t0
            root_start = time.perf_counter()
            with tracer.span("loadgen.root"):
                rep = module.run(ctx, tracer)
            root_wall = time.perf_counter() - root_start
        finally:
            module.teardown(ctx)
    finally:
        if args.traced:
            tracer.uninstall()
    if args.traced:
        trace["all"] = tracer.totals("all")
        trace["root"] = tracer.totals("root")
        trace["other"] = tracer.totals("other")
        trace["worker"] = tracer.totals("worker")
        shutil.rmtree(tracer.worker_dir, ignore_errors=True)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace_{args.child}.json"
        trace["spans"] = tracer.write_chrome_trace(trace_path)
        trace["file"] = str(trace_path.relative_to(ROOT))
    result = {
        "workload": args.child,
        "pid": os.getpid(),
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "root_wall": root_wall,
        "wall": rep.wall,
        "host": rep.host,
        "samples": rep.samples,
        "exact": rep.exact,
        "layer": rep.layer,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "failures": rep.failures,
        "trace": trace,
    }
    print(RESULT_MARK + json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn repetitions, merge, report
# ----------------------------------------------------------------------
class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter; return its result."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp))
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--traced", "1" if traced else "0",
        "--t0", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, env=env, cwd=str(ROOT), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_SECONDS,
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith(RESULT_MARK)]
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} (traced={traced}) exited {done.returncode}\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1][len(RESULT_MARK):])


def exact_mismatches(reps) -> list:
    """Names of exact quantities that differ between repetitions."""
    first = reps[0]["exact"]
    return sorted(
        name
        for rep in reps[1:]
        for name in set(first) | set(rep["exact"])
        if rep["exact"].get(name) != first.get(name)
    )


class WorkloadRun:
    """All repetitions of one workload, merged."""

    def __init__(self, workload: str, untraced, traced=None) -> None:
        self.workload = workload
        self.untraced = untraced
        self.traced = traced
        self.view = metrics.View(untraced, traced or untraced[0])
        reps = untraced + ([traced] if traced else [])
        # Counts are those of one pass over the workload; a failure in
        # any repetition fails the run.
        self.attempted = untraced[0]["attempted"]
        self.failed = max(rep["failed"] for rep in reps)
        self.failures = [message for rep in reps for message in rep["failures"]]
        self.problems = []
        for name in exact_mismatches(reps):
            self.problems.append(
                f"exact quantity {name!r} differs between repetitions"
                + (" (traced vs untraced)" if traced else "")
            )
        if traced is not None:
            self._check_attribution()

    def _check_attribution(self) -> None:
        view = self.view
        wall = view.total_s("loadgen.root")
        if wall and abs(view.root_self_sum() - wall) > 0.02 * wall:
            self.problems.append(
                f"self times sum to {view.root_self_sum():.4f}s, traced wall {wall:.4f}s"
            )
        if view.unattributed_frac() > 0.10:
            self.problems.append(
                f"{view.unattributed_frac():.1%} of the traced wall is unattributed"
            )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def end_to_end(self) -> dict:
        return metrics.end_to_end_values(self.view)

    def workload_metrics(self) -> dict:
        return metrics.workload_metric_values(self.view, self.workload)

    def per_layer(self) -> dict:
        return metrics.per_layer_values(self.view, self.workload)


def run_workload(workload: str, seed: int, scale: float, reps: int,
                 traced: bool) -> WorkloadRun:
    untraced = [spawn(workload, seed, scale, False) for _ in range(reps)]
    traced_rep = spawn(workload, seed, scale, True) if traced else None
    return WorkloadRun(workload, untraced, traced_rep)


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(run: WorkloadRun) -> None:
    values = run.end_to_end()
    for metric in metrics.END_TO_END:
        samples = run.view.host_values(
            "op_latency_ms" if metric.name == "op_latency_p50_ms" else metric.name
        )
        print(
            f"  {metric.name:<28} {_fmt(values[metric.name]):>12} {metric.unit:<8} "
            f"better={metric.better:<6} bound={metric.bound:.0%}  "
            f"[all repetitions: {stats.format_summary(stats.summarize(samples), metric.unit)}]"
        )
    for name, value in run.workload_metrics().items():
        unit, better, bound, defined_on = metrics.WORKLOAD_METRICS[name]
        if run.workload not in defined_on:
            continue
        n = len(run.view.samples("op_latency_ms")) if name in (
            "short_latency_p50_ms", "tune_cycle_s") else len(run.untraced)
        print(
            f"  {name:<28} {_fmt(value):>12} {unit:<8} better={better:<6} "
            f"bound={f'{bound:.0%}' if bound else 'exact'}  [n={n}]"
        )
    print(f"  ops_attempted={run.attempted} ops_failed={run.failed}")


def print_per_layer(run: WorkloadRun) -> None:
    values = run.per_layer()
    for metric in metrics.per_layer_definitions():
        if metric.name in metrics.WORKLOAD_METRICS:
            continue
        value = values[metric.name]
        if value:
            print(f"  {metric.name:<38} {_fmt(value):>12} {metric.unit:<8} n=1")
    shares = run.view.layer_shares()
    print("  layer shares of recorded self time: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items() if share >= 0.001
    ))
    trace = run.traced["trace"]
    print(f"  trace: {trace['spans']} spans -> {trace['file']}")


def print_problems(run: WorkloadRun) -> None:
    for message in run.failures[:10]:
        print(f"  FAILED OP: {message}")
    for message in run.problems:
        print(f"  FAILED CHECK: {message}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def driver_main(args) -> int:
    """One workload; the last stdout line is the driver's JSON object."""
    scale = args.seconds / NOMINAL_SECONDS
    if args.trace:
        run = run_workload(args.workload, args.seed, scale, 1, traced=True)
        print(f"{args.workload} (traced)")
        print_per_layer(run)
        values, units = run.per_layer(), {
            m.name: m.unit for m in metrics.per_layer_definitions()
        }
    else:
        run = run_workload(args.workload, args.seed, scale, REPS, traced=False)
        print(f"{args.workload}")
        print_end_to_end(run)
        values, units = run.end_to_end(), {m.name: m.unit for m in metrics.END_TO_END}
    print_problems(run)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if run.correct else 1


def machine_notes() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _suite_size(args):
    """``(scale, repetitions)`` of the two suite forms."""
    if args.smoke:
        return SMOKE_SCALE, 1
    return args.seconds / NOMINAL_SECONDS, REPS


def suite_main(args) -> int:
    """Every workload: untraced repetitions, then one traced run."""
    scale, reps = _suite_size(args)
    print(f"machine: {json.dumps(machine_notes())}")
    summary = {"seed": args.seed, "scale": scale, "workloads": {}}
    ok = True
    for name in metrics.WORKLOADS:
        started = time.perf_counter()
        run = run_workload(name, args.seed, scale, reps, traced=True)
        print(f"\n== {name}  ({time.perf_counter() - started:.1f}s)")
        print(" end-to-end (tracing off):")
        print_end_to_end(run)
        print(" per-layer (traced run):")
        print_per_layer(run)
        print_problems(run)
        ok = ok and run.correct
        summary["workloads"][name] = {
            "correct": run.correct,
            "ops_attempted": run.attempted,
            "ops_failed": run.failed,
            "end_to_end": run.end_to_end(),
            "workload_metrics": {
                key: value for key, value in run.workload_metrics().items()
                if name in metrics.WORKLOAD_METRICS[key][3]
            },
            "layer_shares": run.view.layer_shares(),
        }
    summary["correct"] = ok
    summary["claim"] = None
    print("\n" + json.dumps(summary))
    return 0 if ok else 1


def repeat_check_main(args) -> int:
    """The untraced suite twice; every gap against its bound."""
    scale, reps = _suite_size(args)
    unresolved = 0
    ok = True
    print(f"{'workload':<16} {'metric':<28} {'first':>12} {'second':>12} "
          f"{'gap':>8} {'bound':>6}")
    for name in metrics.WORKLOADS:
        first = run_workload(name, args.seed, scale, reps, traced=False)
        second = run_workload(name, args.seed, scale, reps, traced=False)
        ok = ok and first.correct and second.correct
        print_problems(first)
        print_problems(second)
        rows = [
            (m.name, m.bound, first.end_to_end()[m.name], second.end_to_end()[m.name])
            for m in metrics.END_TO_END
        ]
        for key, (_, _, bound, defined_on) in metrics.WORKLOAD_METRICS.items():
            if name in defined_on:
                rows.append((key, bound, first.workload_metrics()[key],
                             second.workload_metrics()[key]))
        for key, bound, a, b in rows:
            gap = stats.relative_gap(a, b)
            exact = bound == 0.0
            bad = (a != b) if exact else gap > bound
            verdict = "unresolved" if bad else ""
            unresolved += bad
            print(f"{name:<16} {key:<28} {_fmt(a):>12} {_fmt(b):>12} "
                  f"{gap:>8.2%} {'exact' if exact else f'{bound:.0%}':>6} {verdict}")
        for key in exact_mismatches([first.untraced[0], second.untraced[0]]):
            unresolved += 1
            print(f"{name:<16} exact:{key:<22} differs between the two runs  unresolved")
    print(json.dumps({"unresolved": unresolved, "correct": ok, "claim": None}))
    return 0 if ok and not unresolved else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(NOMINAL_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="suite at a fraction of the size, one repetition")
    parser.add_argument("--repeat-check", action="store_true")
    # Internal: one repetition in this process.
    parser.add_argument("--child", choices=metrics.WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        return child_main(args)
    try:
        if args.workload:
            return driver_main(args)
        if args.repeat_check:
            return repeat_check_main(args)
        return suite_main(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
