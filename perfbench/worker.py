"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` in a fresh interpreter.  Set-up is everything from
process start (``--t0``, a CLOCK_MONOTONIC reading taken by the parent just
before the spawn) through ``import setkf``, generating and validating the
inputs and one warm-up operation.  With ``--setup-only`` the process stops
there.  Otherwise it runs operations back to back, one at a time, for
``--seconds`` and prints one JSON line with the measurements.

The host's speed drifts by 10-30% over seconds to minutes, in CPU time as
much as in wall time.  So operation times are reported scaled to a nominal
machine speed: a fixed reference kernel (small numpy solves and a Python
loop, the same mix as setkf's) is timed before and after each operation,
and the operation's time is multiplied by REF_NOMINAL_S over the mean of the
two.  The unscaled times are kept in the result record.  Set-up time is
reported as measured: a reference timed after it tracks it less well than
the median of several fresh processes does.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3  # one design_near_unit plant; two ops for the pooled compare gate
UNTRACED_SHARE = 0.25  # share of a traced run measured untraced, for the overhead
MAX_FAILURE_MESSAGES = 10
REF_NOMINAL_S = 0.003  # reference kernel time that defines the nominal speed
MAX_WALL_SHARE = 1.5


def reference_s():
    """Wall time of one call of the fixed reference kernel (about 3 ms)."""
    import numpy as np

    M = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.3], [0.0, 0.2, 1.0]])
    x = np.ones(3)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(300):
        x = np.linalg.solve(M, M @ x) + 0.01
        acc += float(x[0])
    return time.perf_counter() - start


def run_ops(wl, seconds, first_op=0, tracer=None):
    """Run timed operations for ``seconds`` of scaled time (at least MIN_OPS).

    The run length is counted in scaled time too, so that a slow spell of
    the host does not cut a run short: the same seed then runs the same
    operations.  The wall clock still stops a run at MAX_WALL_SHARE times
    ``seconds``.  Closed loop, one caller: the next operation starts when
    the previous one and its check are done.  An operation fails if it
    raises, if the CLI exits non-zero, or if its check reports a problem.
    """
    latencies, raw_latencies, failures = [], [], []
    units = busy = raw_busy = clock = 0.0
    failed = 0
    i = first_op
    ref_before = reference_s()
    deadline = time.monotonic() + MAX_WALL_SHARE * seconds
    while i - first_op < MIN_OPS or (clock < seconds and time.monotonic() < deadline):
        iteration_start = time.perf_counter()
        if tracer is not None:
            tracer.op_id = i
            tracer.enabled = True
        start = time.perf_counter()
        try:
            done, out = wl.op(i)
        except Exception as exc:  # any error is a failed operation, not a crash
            problems = [f"op {i} raised {exc!r}"]
        else:
            problems = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if problems is None:
            try:
                problems = wl.check(i, out)
            except Exception as exc:
                problems = [f"op {i} check raised {exc!r}"]
        ref_after = reference_s()
        speed = REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
        scaled = elapsed * speed
        clock += (time.perf_counter() - iteration_start) * speed
        ref_before = ref_after
        if problems:
            failed += 1
            failures += problems
        else:
            units += done
            busy += scaled
            raw_busy += elapsed
            latencies.append(scaled)
            raw_latencies.append(elapsed)
        i += 1
    return {
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "units": units,
        "busy_s": busy,
        "raw_busy_s": raw_busy,
        "attempted": i - first_op,
        "failed": failed,
        "failures": failures,
        "next_op": i,
    }


def measure(wl, seconds, trace, trace_path=None):
    """Measurements of one run; with ``trace`` also per-layer metrics."""
    if not trace:
        res = run_ops(wl, seconds)
    else:
        from tracer import Tracer

        plain = run_ops(wl, seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            res = run_ops(wl, seconds * (1.0 - UNTRACED_SHARE), plain["next_op"], tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        extras = getattr(wl, "layer_extras", dict)()
        layers["design.lmi_certified_ratio"] = extras.get(
            "design.lmi_certified_ratio", (0.0, "ratio")
        )
        traced_ups = res["units"] / res["busy_s"] if res["busy_s"] else 0.0
        plain_ups = plain["units"] / plain["busy_s"] if plain["busy_s"] else 0.0
        layers["trace.overhead_pct"] = (
            100.0 * (plain_ups / traced_ups - 1.0) if traced_ups else 0.0,
            "%",
        )
        res["layers"] = layers
        for key in ("attempted", "failed"):
            res[key] += plain[key]
        res["failures"] = plain["failures"] + res["failures"]
        if trace_path is not None:
            tracer.write_spans(trace_path)
    pooled = wl.finish()
    if pooled:
        # a failed pooled gate puts every operation of the run in doubt
        res["failures"] += pooled
        res["failed"] = res["attempted"]
    res["failures"] = res["failures"][:MAX_FAILURE_MESSAGES]
    return res


def tail_latency(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With ten samples or fewer no
    such percentile exists and the maximum is returned as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else 0.0), 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(res, setup_samples, peak_rss_mb, prefix=""):
    """The six end-to-end metrics from scaled (or, with prefix "raw_",
    unscaled) timings; also the tail percentile and sample count."""
    lat = res[prefix + "latencies"]
    busy = res[prefix + "busy_s"]
    tail, pct, n = tail_latency(lat)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "units_per_s": (res["units"] / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat) if lat else 0.0, "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_ratio": (1.0 - res["failed"] / res["attempted"], "ratio"),
    }
    return metrics, {"tail_percentile": pct, "samples": n}


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "setkf").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-path", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import setkf  # noqa: F401  (import time is part of set-up)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    res = measure(wl, args.seconds, bool(args.trace), args.trace_path)
    res["setup_s"] = setup_s
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["machine"] = machine()
    res["unit"] = wl.unit
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
