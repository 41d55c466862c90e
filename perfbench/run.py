"""setkf benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload tracking_mc --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced run.  Earlier lines print every metric by name
with its unit, the tail percentile and sample count, and the machine.

Set-up is measured SETUP_SAMPLES times, each in a fresh interpreter, and
reported as the median; the last of those processes also runs the
measurement, so its peak resident memory is that of one workload alone.
The processes run one after another, never at the same time.  Operation
timings are reported scaled to a nominal machine speed (see worker.py); the
unscaled values are printed alongside and kept in the result record.
"""

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tracking_mc", "scalar_compare", "design_near_unit", "certificate_sweep")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def spawn(args, env, timeout):
    """Run one worker to completion; returns its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "setkf" / "__init__.py").is_file():
        print(f"perfbench: no setkf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # bytecode goes to a cache of our own, compiled before any timed set-up
    pycache = OUT / "pycache"
    sys.pycache_prefix = str(pycache)
    compileall.compile_dir(str(ROOT / "src" / "setkf"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    env = {**os.environ, **SINGLE_THREAD_ENV, "PYTHONPYCACHEPREFIX": str(pycache)}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    try:
        setups = [
            spawn([*common, "--setup-only"], env, CHILD_TIMEOUT_S)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        trace_args = []
        if args.trace:
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            trace_args = ["--trace-path", str(OUT / "traces" / f"{tag}.json")]
        res = spawn([*common, *trace_args], env, CHILD_TIMEOUT_S + args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup = [s["setup_s"] for s in [*setups, res]]

    sys.path.insert(0, str(HERE))
    from worker import end_to_end

    e2e, tail = end_to_end(res, setup, res["peak_rss_mb"])
    raw, _ = end_to_end(res, setup, res["peak_rss_mb"], prefix="raw_")
    metrics = res["layers"] if args.trace else e2e
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": res["unit"],
        "setup_samples_s": setup,
        **tail,
        "failures": res["failures"],
        "machine": res["machine"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "result": result,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  unit {res['unit']}  machine {res['machine']}")
    print(f"op_tail_ms is p{tail['tail_percentile']:.2f} of {tail['samples']} operations")
    for msg in res["failures"]:
        print(f"FAIL {msg}")
    for name, (value, unit) in metrics.items():
        unscaled = ""
        if name in raw and raw[name] != e2e[name]:
            unscaled = f"  (unscaled {raw[name][0]:.6g})"
        print(f"{name:45s} {value:.6g} {unit}{unscaled}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
