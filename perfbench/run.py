"""bpsfair benchmark: closed-loop workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synth_grid --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line is one JSON object holding every
``end_to_end`` metric of BENCHMARK.json; with ``--trace 1`` the run first
measures untraced for half the time, then traced, and reports every
``per_layer`` metric instead.  The line before it holds the environment,
the sample counts and the sha256 digests of the checked outputs; the
same record is written to ``.perfbench_out/``.  The exit code is 0 only
when every operation passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5


def import_program():
    """Import bpsfair from this checkout's ``src``, never from anywhere else."""
    package = ROOT / "src" / "bpsfair" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from a bpsfair checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import bpsfair

    if Path(bpsfair.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported bpsfair from {bpsfair.__file__}, not {package}")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "workload_seed": seed,
        "git_commit": git_commit(),
    }


def p50(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return float(np.percentile(values, 90)) if values else 0.0


class Loop:
    """Closed loop over a workload's rounds for a fixed time."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.rounds: list = []  # wall seconds of each round's timed operations
        self.by_type: dict = {}
        self.attempted = self.failed = self.rows = 0
        self.errors: list = []

    def run(self, seconds: float):
        deadline = time.perf_counter() + seconds
        while True:
            round_s = 0.0
            for op_type, run, check, rows in self.workload.round():
                scope = self.tracer.span(f"op.{op_type}") if self.tracer else nullcontext()
                self.attempted += 1
                start = time.perf_counter()
                try:
                    with scope:
                        out = run()
                    elapsed = time.perf_counter() - start
                    error = check(out)
                except Exception:  # a failed operation is counted, the loop goes on
                    elapsed = time.perf_counter() - start
                    error = traceback.format_exc()
                round_s += elapsed
                if error:
                    self.failed += 1
                    self.errors.append(f"{op_type}: {error}")
                    print(f"perfbench: {op_type} failed: {error}", file=sys.stderr)
                else:
                    self.rows += rows
                    self.by_type.setdefault(op_type, []).append(elapsed)
            self.rounds.append(round_s)
            if time.perf_counter() >= deadline:
                return self


def setup_workload(cls, seed, tiny, work: Path, times: list):
    """Set the workload up repeatedly in fresh directories; return the last one.

    Appends every set-up time to ``times``.  Set-up repeats at least
    SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS have passed.
    """
    start_count, spent = len(times), 0.0
    while len(times) - start_count < SETUP_MIN_REPEATS or spent < SETUP_MIN_SECONDS:
        attempt = work / f"setup{len(times)}"
        attempt.mkdir(parents=True)
        workload = cls(seed, tiny)
        start = time.perf_counter()
        workload.setup(attempt)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return workload


def end_to_end(loop: Loop, setup_times) -> dict:
    ok_time = sum(sum(v) for v in loop.by_type.values())
    return {
        "op_s.p50": p50(loop.rounds),
        "rows_per_s": loop.rows / ok_time if ok_time else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": p50(setup_times),
    }


STEP_SPANS = ("network.forward.train", "network.backward", "network.adam_step",
              "losses.loss_and_grad")


def per_layer(untraced: Loop, traced: Loop, tracer) -> dict:
    from tracing import SPAN_NAMES
    from workloads import IngestReport

    totals = tracer.totals()
    n_rounds = len(traced.rounds)
    op_wall = sum(s for name, (s, _, _) in totals.items() if name.startswith("op."))
    out = {}
    for name in SPAN_NAMES:
        s, calls, _ = totals.get(name, (0.0, 0, 0.0))
        out[f"{name}.s"] = s / n_rounds
        out[f"{name}.calls"] = calls / n_rounds
        out[f"{name}.share"] = s / op_wall
    for layer in ("engine", "cli"):
        self_s = sum(v[2] for name, v in totals.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = self_s / n_rounds
        out[f"{layer}.self_s.share"] = self_s / op_wall
    steps = totals.get("network.forward.train", (0.0, 0, 0.0))[1] / n_rounds  # per operation

    def ms_per_step(seconds):
        return 1000.0 * seconds / steps if steps else 0.0

    out["train.steps"] = steps
    out["train.step_ms"] = ms_per_step(p50(untraced.rounds))
    for name in STEP_SPANS:
        out[f"{name}.ms_per_step"] = ms_per_step(out[f"{name}.s"])
    out["engine.self_s.ms_per_step"] = ms_per_step(out["engine.self_s"])
    out["op_s.p50.untraced"] = p50(untraced.rounds)
    out["op_s.p50.traced"] = p50(traced.rounds)
    out["trace.overhead_frac"] = p50(traced.rounds) / p50(untraced.rounds) - 1.0
    for op in IngestReport.REPEATS:
        samples = untraced.by_type.get(op, [])
        out[f"ingest.{op}_s.p50"] = p50(samples)
        out[f"ingest.{op}_s.p90"] = p90(samples)
    return out


def select(values: dict, specs) -> dict:
    """The metrics BENCHMARK.json names, with their units, in its order."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test only; figures are meaningless)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        # Set-up is timed before and after the measured loop: the host's speed
        # drifts over tens of seconds, and one short window catches one state.
        setup_times: list = []
        workload = setup_workload(WORKLOADS[args.workload], args.seed, args.tiny, work,
                                  setup_times)
        if args.trace:
            untraced = Loop(workload).run(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Loop(workload, tracer).run(args.seconds / 2)
            finally:
                tracer.restore()
            loops = (untraced, traced)
            values = per_layer(untraced, traced, tracer)
            metrics = select(values, spec["per_layer"])
            tag = f"{args.workload}_trace_seed{args.seed}"
            tracer.write(out_dir / f"spans_{tag}.csv.gz")
        else:
            loop = Loop(workload).run(args.seconds)
            loops = (loop,)
            setup_workload(WORKLOADS[args.workload], args.seed, args.tiny, work, setup_times)
            metrics = select(end_to_end(loop, setup_times), spec["end_to_end"])
            tag = f"{args.workload}_seed{args.seed}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_s": setup_times,
        "loops": [{"rounds": len(l.rounds), "samples": {op: len(v) for op, v in l.by_type.items()}}
                  for l in loops],
        "digests": workload.digests(),
        "errors": [e for l in loops for e in l.errors][:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"BENCH_{tag}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
