"""One measured process: set up a workload, run its timed window, check it.

Started by ``run.py`` as a fresh process for every set-up and every run;
prints one JSON object as its last line of output::

    python3 perfbench/child.py --workload serve_steady --seed 1 --seconds 10 \
        --trace 0 --setup-only 0
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import threading
import time

from tracer import Tracer, install, layer_metrics, quantile
from workloads import WORKLOADS


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process plus its live children."""
    pids = [str(os.getpid())]
    for tid in os.listdir("/proc/self/task"):
        pids += _read(f"/proc/self/task/{tid}/children").split()
    total_kb = 0
    for pid in pids:
        for line in _read(f"/proc/{pid}/status").splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def copy_gbps(mib: int = 32, repeats: int = 15) -> float:
    """Same-run NumPy copy bandwidth: (read + write bytes) / median copy time."""
    import numpy as np

    src = np.ones(mib * 2**20 // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 2 * src.nbytes / times[len(times) // 2] / 1e9


def host_context() -> dict:
    import numpy as np

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level, kind = _read(f"{base}/{index}/level"), _read(f"{base}/{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cc": shutil.which("cc") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
        "copy_gbps": copy_gbps(),
        "copy_probe": "2 x 32 MiB float64 arrays",
    }


def _exit(code: int) -> None:
    """Stop the worker pools within a bound, then leave without waiting on them.

    A deadlocked pool worker would otherwise hold interpreter exit forever;
    the parent kills whatever is left of this process group.
    """
    try:
        from repro.parallel.pool import shutdown_shared_pools
    except ImportError:
        os._exit(code)
    stopper = threading.Thread(target=shutdown_shared_pools, daemon=True)
    stopper.start()
    stopper.join(10.0)
    os._exit(code)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    out: dict = {"ready": time.time()}
    if args.setup_only:
        workload.close()
        print(json.dumps(out), flush=True)
        _exit(0)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    t0 = time.perf_counter()
    workload.run(args.seconds)
    out["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.remove()
    out["peak_rss_mb"] = peak_rss_mb()
    out["summary"] = workload.summary()
    out["health"] = workload.health()
    out["drained"] = workload.close()
    out["gate_checked"], out["gate_mismatched"] = workload.gate()
    out["outcomes"] = workload.outcomes()
    out["errors"] = workload.errors()[:3]
    out["lag_p99_s"] = quantile(workload.lags, 0.99)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, workload.completed(), out["wall_s"])
    out["host"] = host_context()
    out["working_set_mb"] = workload.working_set_bytes() / 2**20
    print(json.dumps(out), flush=True)
    _exit(0)


if __name__ == "__main__":
    main()
