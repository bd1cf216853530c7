"""gradedwl benchmark.

One run executes one workload's ops in a closed loop (one client, no
threads), in this single-threaded process.  The ops cycle over a fixed list
of inputs made from ``--seed`` (gradedwl sees only the generated inputs)
until they have taken ``--seconds`` of wall time and the last cycle is
complete.  Garbage is collected between ops, outside the timing.  Every op's
output is checked against the independent references in ``reference.py``.

The host's speed swings: on a 2-vCPU virtual machine shared with other
tenants, a fixed pure-Python loop took from 24 to 43 ms within seconds, and
whole minutes ran at either speed.  So times are reported at a reference
speed.  Just before and just after each timed call the run times a fixed
calibration (``reference.refine`` on a 300-node graph, which imports
nothing from gradedwl) and scales the call's wall time by ``CAL_REF_S``
over the calibrations' mean.  This applies to every set-up and to the ops
of workloads whose ops are short next to the swings (``calibrated``); the
seconds-long ops of ``refine-large`` span many swings, which the two
calibrations at their ends do not see, so they are reported as wall time.
``ops_per_s`` takes each input at its median attempt in the run;
``op_p50_ms`` is the median over all attempts.  The wall-time figures are
printed too, as ``wall_ops_per_s`` and ``wall_op_p50_ms``.

    python3 bench/run.py --workload oracle-pairs --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --report --seed 1 --seconds 20

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the program's public functions in spans (see
``tracing.py``), reports the per-layer metrics, writes the spans and per-op
counts under ``.bench_out/`` and fails when a layer the workload must reach
recorded nothing.  ``--report`` runs every workload untraced and twice
traced, prints every metric with its unit and sample count, the tracing
overhead, and whether the two traced runs' counts agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an op failed for a cause outside ``workloads.KNOWN_DEFECTS``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "formats", "kripke", "formulas", "typedesc", "automaton", "wl", "gfp",
           "translate", "grid")
SETUP_REPEATS = 11
CAL_GRAPH = workloads.random_graph(random.Random(0), 300, 1, 1, 3)
# The calibration's time at the reference speed: about its fastest on an
# Intel Xeon vCPU with Python 3.11.7, so times at the reference speed are
# close to what an unshared core of that machine gives.
CAL_REF_S = 0.002
UNMEASURED = [
    "waiting: the program is single-threaded, so no layer waits on another",
    "the host's speed and its other tenants are neither pinned nor recorded; calibrated "
    "times are scaled to a reference speed instead",
]


class SetupError(Exception):
    pass


def import_program():
    """Import gradedwl from this checkout's ``src``, afresh."""
    for name in [n for n in sys.modules if n == "gradedwl" or n.startswith("gradedwl.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        importlib.import_module("gradedwl")
        importlib.import_module("gradedwl.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import gradedwl from {SRC}: {exc}") from exc
    prog = types.SimpleNamespace(**{m: sys.modules[f"gradedwl.{m}"] for m in MODULES})
    if not Path(prog.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"gradedwl was imported from {prog.cli.__file__}, not from {SRC}")
    return prog


def calibrate():
    """Seconds the calibration takes now: the faster of two runs, so that an
    interrupt during one does not count as the host slowing down."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        reference.refine(CAL_GRAPH)
        best = min(best, perf_counter() - t0)
    return best


def timed(fn, *args):
    """Call ``fn``; return its result (or the exception it raised), its wall
    time, and that wall time at the reference speed, scaled by the
    calibrations just before and just after the call."""
    before = calibrate()
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the caller decides what a raise means
        out = exc
    elapsed = perf_counter() - t0
    return out, elapsed, elapsed * CAL_REF_S * 2 / (before + calibrate())


def _set_up_once(workload):
    prog = import_program()
    workload.setup(prog)
    return prog


def set_up(workload):
    """Import the program and make the workload's one-off calls, several
    times; return the program and the median set-up time at the reference
    speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        prog, _, scaled = timed(_set_up_once, workload)
        if isinstance(prog, Exception):
            raise prog
        times.append(scaled)
    return prog, statistics.median(times), len(times)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "unmeasured": UNMEASURED,
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: the checkout is not a git repository"


def measure(workload, seconds, tracer=None):
    """Run ops until they have taken ``seconds`` and a cycle is complete.
    Returns every op's wall time, its time at the reference speed and the
    failure causes with their counts."""
    wall = []
    at_refs = []
    causes = Counter()
    i = 0
    while sum(wall) < seconds or i % workload.cycle:
        inp = workload.prepare(i)
        gc.collect()
        if tracer:
            tracer.begin_op(i)
        out, elapsed, at_ref = timed(workload.run, inp)
        # A raising op fails and the run goes on.
        cause = (f"raised {type(out).__name__}: {out}" if isinstance(out, Exception)
                 else workload.check(inp, out))
        if tracer:
            tracer.end_op(cause is not None)
        if cause is not None:
            causes[cause] += 1
        wall.append(elapsed)
        at_refs.append(at_ref)
        i += 1
        del inp, out
    gc.collect()
    return wall, at_refs, causes


def run(args):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        prog, setup_s, setups = set_up(workload)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(prog)
            workload.setup(prog)  # once more, so set-up spans are recorded
        wall, at_refs, causes = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = at_refs if workload.calibrated else wall
    attempted = len(latencies)
    failed = sum(causes.values())
    unknown = {c: n for c, n in causes.items() if c not in workloads.KNOWN_DEFECTS}
    verified = (attempted - failed) / attempted
    # Each input at its median attempt, so an attempt that a swing of the
    # host's speed got past the calibration moves no metric.
    attempts = {}
    for i, t in enumerate(latencies):
        attempts.setdefault(i % workload.cycle, []).append(t)
    typical = [statistics.median(ts) for ts in attempts.values()]
    ops_per_s = verified * len(typical) / sum(typical)
    env = environment(args.seed)
    print(f"workload: {args.workload}  trace: {args.trace}  env: {json.dumps(env)}")
    for cause, n in sorted(causes.items()):
        known = "known defect" if cause in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"failed ops: {n:5d}  {known}: {cause}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s", setups),
            "ops_per_s": (ops_per_s, "1/s", attempted),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms", attempted),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
        extra = {
            "error_rate": (failed / attempted, "ratio", attempted),
            "wall_ops_per_s": (verified * attempted / sum(wall), "1/s", attempted),
            "wall_op_p50_ms": (statistics.median(wall) * 1e3, "ms", attempted),
            "host_speed": (statistics.median(a / w for a, w in zip(at_refs, wall)), "ratio",
                           attempted),
        }
        if attempted >= 100:
            extra["op_p90_ms"] = (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms",
                                  attempted)
    else:
        gaps = tracer.coverage_gaps(args.workload)
        if gaps:
            print(f"span coverage check failed on {args.workload}: no spans or counts for "
                  + ", ".join(gaps), file=sys.stderr)
            return 3
        self_s, calls = tracer.self_times()
        metrics = tracer.metrics(self_s, calls, ops_per_s)
        extra = {}
        stem = OUT / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}"
        stem.with_suffix(".json").write_text(json.dumps({
            "env": env, "workload": args.workload, "causes": causes,
            "metrics": metrics, "per_op": tracer.op_records(calls),
        }))
        tracer.write_spans(stem.with_suffix(".spans.tsv.gz"))
        print(f"trace file: {stem.with_suffix('.json')}")
        print("waiting: none measured; the program is single-threaded")

    for name, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"{name:28s} {value:14.6g} {unit:9s} samples={samples}")
    print(json.dumps({
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def report(args):
    """Every workload: one untraced and two traced runs of the same seed."""
    ok = True
    for name in workloads.WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                print(f"{name}: run failed with exit code {proc.returncode}")
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok &= result["correct"]
            trace_file = next((line.split(": ", 1)[1] for line in lines
                               if line.startswith("trace file: ")), None)
            results.append((result, trace_file))
        plain = results[0][0]["metrics"]["ops_per_s"]["value"]
        traced = results[1][0]["metrics"]["trace.ops_per_s"]["value"]
        print(f"{name}: tracing overhead {plain / traced - 1:+.1%} "
              f"(untraced {plain:.4g} ops/s, traced {traced:.4g} ops/s)")
        first, second = (json.loads(Path(f).read_text())["per_op"] for _, f in results[1:])
        n = min(len(first), len(second))
        diffs = [(i, key) for i in range(n) for key in tracing.DETERMINISTIC
                 if first[i].get(key, 0) != second[i].get(key, 0)]
        if diffs:
            ok = False
            print(f"{name}: COUNTS DIFFER between traced runs at (op, count) {diffs[:5]}")
        else:
            print(f"{name}: counts identical over the first {n} ops of both traced runs")
        print()
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and twice traced")
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required without --report")
    try:
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
