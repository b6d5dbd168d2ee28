"""Benchmark of miph: four workloads, end-to-end metrics, and a traced pass.

    python3 bench/run.py --workload desk-fit --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src`` beside this
directory. The last line of standard output is the result, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``{"detail": ...}``) holds the environment, every call's time and check
outcome, and the layers the tracer could not find. Both are also written to
``bench/out/BENCH_<workload>[_trace].json``; the traced pass writes its
spans to ``bench/out/SPANS_<workload>.json`` as ``[layer, start, end, parent,
counts]`` rows (``parent`` is a row index, -1 at the top).

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: import, model load and data generation, timed in three fresh
  processes; the median is reported.
* ``task_s``: median wall time of one task (one fit; one couple's measures
  and eval calls; one simulate and beran pair).
* ``peak_rss_mb``: the process's high-water mark (``ru_maxrss``).

Rounds run back to back until the next one would end after ``--seconds``;
the first always runs.

``--trace 1`` makes three passes of one round each: an untraced pass and a
pass with ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``, each in a child
process, then a traced pass in this process. It reports the per-layer
metrics of the traced pass, the tracing overhead (traced minus untraced wall
time), the untraced and single-threaded task times, and the median time per
call of each kind from the untraced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("desk-fit", "paper-fit", "measures-eval", "io")
CALL_KINDS = ("fit", "measures", "eval_grid", "simulate", "beran")
SETUP_PROBES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--pass", dest="pass_", choices=("setup", "plain"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src`` first on the path and import ``miph``
    from it; fail when the checkout has no program."""
    if not (SRC / "miph" / "__init__.py").is_file():
        raise SystemExit(f"no program at {SRC / 'miph'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import miph

    if Path(miph.__file__).resolve().parent != (SRC / "miph").resolve():
        raise SystemExit(f"imported miph from {miph.__file__}, not from {SRC}")


def run_pass(args, tracer=None, seconds=None) -> dict:
    """Set up the workload and run rounds; with a tracer, one traced round."""
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            import workloads

            w = workloads.make(args.workload, args.seed, args.tiny, work)
            w.setup()
            began = time.perf_counter()
            quiet = tracer.paused if tracer is not None else contextlib.nullcontext
            tasks = []
            while True:
                round_start = time.perf_counter()
                tasks += w.round(quiet)
                now = time.perf_counter()
                if seconds is None or now - began + (now - round_start) > seconds:
                    break
        finally:
            if tracer is not None:
                tracer.restore()
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calls = [c for task in tasks for c in task]
    return {
        "wall_s": wall,
        "setup_s": began - start,
        "task_s": [sum(c.seconds for c in task) for task in tasks],
        "calls": [{"kind": c.kind, "seconds": c.seconds, "error": c.error, **c.info}
                  for c in calls],
    }


def child(args, pass_: str, env_extra=None) -> dict:
    """Run one pass of this workload in a fresh process; return its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--pass", pass_]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **(env_extra or {})},
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{pass_} pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    def git(*cmd):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_rev": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_by_kind(calls) -> dict:
    out = {}
    for kind in CALL_KINDS:
        times = [c["seconds"] for c in calls if c["kind"] == kind]
        out[f"{kind}_s"] = statistics.median(times) if times else 0.0
    return out


def end_to_end(args):
    setups = [child(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    record = run_pass(args, seconds=args.seconds)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "task_s": metric(statistics.median(record["task_s"]), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"setup_probes_s": setups, "by_kind": median_by_kind(record["calls"]),
              "pass": record}
    return metrics, record["calls"], detail


def traced(args):
    from tracing import Tracer, layer_metrics

    plain = child(args, "plain")
    single = child(args, "plain", SINGLE_THREAD)
    tracer = Tracer()
    record = run_pass(args, tracer=tracer)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"SPANS_{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump([[s.layer, s.start, s.end, s.parent, s.info] for s in tracer.spans], fh)
    metrics = layer_metrics(tracer.spans, tracer.absent)
    metrics["trace.overhead_s"] = metric(record["wall_s"] - plain["wall_s"], "s")
    metrics["trace.spans"] = metric(len(tracer.spans), "count")
    metrics["untraced.task_s"] = metric(statistics.median(plain["task_s"]), "s")
    metrics["threads1.task_s"] = metric(statistics.median(single["task_s"]), "s")
    for name, value in median_by_kind(plain["calls"]).items():
        metrics[name] = metric(value, "s")
    detail = {
        "absent_layers": tracer.absent,
        "missing_targets": tracer.missing_targets,
        "passes": {"untraced": plain, "threads1": single, "traced": record},
    }
    calls = plain["calls"] + single["calls"] + record["calls"]
    return metrics, calls, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    import_program()
    if args.pass_ == "setup":
        import workloads

        workloads.make(args.workload, args.seed, args.tiny, OUT).setup()
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    if args.pass_ == "plain":
        print(json.dumps(run_pass(args, seconds=0.0)))
        return 0

    metrics, calls, detail = (traced if args.trace else end_to_end)(args)
    failed = sum(c["error"] is not None for c in calls)
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        tiny=args.tiny, environment=environment(),
        failures=[c for c in calls if c["error"] is not None],
        run_s=time.perf_counter() - started,
    )
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    with open(OUT / f"BENCH_{args.workload}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
