#!/usr/bin/env python3
"""scenecomp benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload train-s16-ont --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ./src. The run
repeats whole rounds of the workload until --seconds have passed (at least
MIN_ROUNDS), checks the outputs against independent oracles, and prints
one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. The line before it holds the
machine and run facts. With --trace 1 the metrics are per-layer figures
from spans at the library's public functions; traced and untraced rounds
alternate so the tracing overhead is measured in the same run.
"""
import os

# Fixed before NumPy loads so every run uses the same BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
MIN_ROUNDS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("train.scenes_per_s", "scenes/s"),
    ("eval.scenes_per_s", "scenes/s"),
    ("predict.ms_p50", "ms"),
    ("generate.scenes_per_s", "scenes/s"),
    ("layout.rooms_per_s", "rooms/s"),
    ("dataset.bytes", "bytes"),
    ("checkpoint.bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("quality.train_mse", "mse"),
    ("quality.wasserstein_mean", "w1"),
)
RATES = {
    "train.scenes_per_s": "train",
    "eval.scenes_per_s": "eval",
    "generate.scenes_per_s": "generate",
    "layout.rooms_per_s": "layout",
}


def _git_commit():
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def fresh_import_s() -> float:
    """Wall time for a new interpreter to start and import the library."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import scenecomp.cli"], env=env, check=True)
    return time.perf_counter() - start


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s, peak_rss_mb, finish) -> dict:
    values = {
        "setup_s": setup_s,
        "predict.ms_p50": statistics.median(ms for r in rounds for ms in r.predict_ms),
        "peak_rss_mb": peak_rss_mb,
        **finish,
    }
    for name, stage in RATES.items():
        values[name] = sum(r.items[stage] for r in rounds) / sum(r.seconds[stage] for r in rounds)
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "scenecomp" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # Set-up as a user pays it: a fresh interpreter importing the library,
        # then the workload's inputs and model; median of SETUP_REPS.
        prep = []
        for _ in range(SETUP_REPS):
            import_s = fresh_import_s()
            start = time.perf_counter()
            wl.setup()
            prep.append(import_s + time.perf_counter() - start)
        setup_s = statistics.median(prep)

        tracer = tracing.Tracer() if args.trace else None
        rounds, round_s, traced = [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS * (2 if tracer else 1) or time.perf_counter() < deadline:
            rnd = workloads.Round()
            trace_this = tracer is not None and len(rounds) % 2 == 1
            if trace_this:
                tracer.install(len(rounds))
            start = time.perf_counter()
            try:
                wl.run_round(rnd, keep=not rounds)
            finally:
                if trace_this:
                    tracer.uninstall()
            round_s.append(time.perf_counter() - start)
            traced.append(trace_this)
            wl.digests.append(rnd.digest.hexdigest())
            rounds.append(rnd)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        finish = wl.finish()
        checks = workloads.Checks()
        wl.check(checks)

        if tracer:
            on = [t for t, is_on in zip(round_s, traced) if is_on]
            off = [t for t, is_on in zip(round_s, traced) if not is_on]
            per_layer = tracer.per_layer(len(on))
            per_layer["trace.overhead_pct"] = 100.0 * (statistics.median(on) / statistics.median(off) - 1.0)
            units = dict(tracing.per_layer_metric_names())
            metrics = {name: _metric(per_layer[name], unit) for name, unit in units.items()}
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(rounds, setup_s, peak_rss_mb, finish)

        predict_ms = [ms for r in rounds for ms in r.predict_ms]
        details = {
            "workload": args.workload,
            "facts": machine_facts(args.seed),
            "rounds": len(rounds),
            "round_s": round_s,
            "stage_s": {stage: [r.seconds[stage] for r in rounds] for stage in RATES.values()},
            "setup_reps_s": prep,
            "predict_samples": len(predict_ms),
            "checks_passed": checks.passed,
            "check_failures": checks.failures[:20],
        }
        if len(predict_ms) >= 50:
            details["predict.ms_p80"] = statistics.quantiles(predict_ms, n=5)[3]
        for failure in checks.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps(details))
        print(json.dumps({
            "correct": not checks.failures,
            "attempted": sum(r.ops for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
