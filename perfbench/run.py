"""The repository's benchmark: one command, three workloads, checked results.

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 25 --trace 0

Workloads (see ``NOTES.md``): ``serve_steady`` and ``serve_churn`` drive a
default ``repro.serve.Server``; ``mix_offline`` repeats
``MixScheduler().run`` on one batched mix. Run from the root of a checkout;
the program is imported from ``src/``.

Every set-up and every run is a fresh process (``child.py``) in its own
process group, with its own empty native-code and calibration cache
directories under ``.perfbench_tmp/`` and a wall-clock bound. A process
group that outlives its bound is killed, and the ``/dev/shm`` segments it
left are removed. ``--trace 0`` reports the end-to-end metrics, taking
``setup_s`` as the median of three set-ups; ``--trace 1`` runs the window
twice at half length, untraced and then traced, and reports the per-layer
metrics and the tracing overhead. The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve_steady", "serve_churn", "mix_offline")
#: whole-run wall-clock bound, seconds
RUN_BOUND_S = 170.0
SETUPS = 3
SHM = Path("/dev/shm")

END_TO_END = {
    "setup_s": "s",
    "p50_s": "s",
    "cell_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics that a run without the layer reports as 0
PER_LAYER = (
    "serve.admit_p50_s", "serve.admit_p99_s", "serve.wait_p50_s", "serve.wait_p99_s",
    "serve.meshes_per_dispatch", "serve.dispatches", "serve.rejected", "serve.shed",
    "serve.degraded", "scheduler.run_busy_s", "scheduler.run_p50_s", "scheduler.groups",
    "workload.fields_s", "plan.get_s", "plan.lower_s", "plan.lowerings", "plan.hit_ratio",
    "native.bind_s", "native.binds", "exec.stacked_s", "exec.dispatches", "exec.chunks",
    "exec.gbps_computed", "exec.bw_fraction", "host.copy_gbps", "parallel.submit_s",
    "parallel.collect_s", "parallel.retries", "gen.lag_p99_s", "gen.self_share",
    "serve.self_share", "scheduler.self_share", "workload.self_share", "plan.self_share",
    "native.self_share", "exec.self_share", "parallel.self_share", "trace.accounted_ratio",
    "trace.overhead_ratio", "trace.spans",
)


def unit_of(name: str) -> str:
    if "gbps" in name:
        return "GB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_fraction")):
        return "ratio"
    return "count"


class ChildFailed(Exception):
    pass


class Runner:
    """Starts child processes under the run's bound and cleans up after them."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BOUND_S
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.shm_swept = 0
        self.children = 0
        # orphaned pool workers are re-parented here, so they can be reaped
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER

    def env(self) -> dict:
        self.children += 1
        tmp = self.tmp / str(self.children)
        for sub in ("native", "tmp"):
            (tmp / sub).mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONHASHSEED="0",
            REPRO_NATIVE_CACHE_DIR=str(tmp / "native"),
            REPRO_CALIBRATION_CACHE=str(tmp / "calibration.json"),
            TMPDIR=str(tmp / "tmp"),
        )
        return env

    def child(self, seconds: float, trace: int = 0, setup_only: int = 0) -> dict:
        """Run one child process; returns its JSON record plus ``setup_s``."""
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--seconds", str(seconds),
            "--trace", str(trace), "--setup-only", str(setup_only),
        ]
        before = shm_segments()
        spawned = time.time()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env(), stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        timeout = self.deadline - time.monotonic()
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            out = None
        finally:
            self.stop_group(proc)
            self.sweep(before)
        if out is None:
            raise ChildFailed(f"run exceeded its {RUN_BOUND_S:.0f} s bound and was killed")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"child exited with code {proc.returncode}")
        try:
            record = json.loads(lines[-1])
        except ValueError:
            raise ChildFailed(f"child printed no result: {lines[-1][:200]!r}") from None
        record["setup_s"] = record["ready"] - spawned
        return record

    def stop_group(self, proc: subprocess.Popen) -> None:
        """Kill the child's whole process group and reap every process in it."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        stop = time.monotonic() + 10.0
        while time.monotonic() < stop:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                time.sleep(0.05)

    def sweep(self, before: set[str]) -> None:
        """Remove the shared-memory segments a child left behind."""
        for name in shm_segments() - before:
            try:
                (SHM / name).unlink()
                self.shm_swept += 1
            except OSError:
                pass

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass


def shm_segments() -> set[str]:
    try:
        return {p.name for p in SHM.iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def median(values: list[float]) -> float:
    data = sorted(values)
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


def failures(record: dict) -> tuple[int, int]:
    """(attempted, failed): every outcome but ``ok`` fails, as does a gate mismatch."""
    outcomes = record["outcomes"]
    attempted = sum(outcomes.values())
    failed = attempted - outcomes.get("ok", 0) + record["gate_mismatched"]
    return attempted, failed


def measure(runner: Runner, args) -> tuple[dict, list[dict]]:
    """Run the children one mode needs; returns (metrics, child records)."""
    if args.trace:
        half = args.seconds / 2
        plain = runner.child(half)
        traced = runner.child(half, trace=1)
        records = [plain, traced]
        layers = dict(traced["layers"])
        health = traced["health"].get("jobs", {})
        for name in ("rejected", "shed", "degraded"):
            layers[f"serve.{name}"] = float(health.get(name, 0.0))
        copy_gbps = traced["host"]["copy_gbps"]
        layers["host.copy_gbps"] = copy_gbps
        layers["exec.bw_fraction"] = layers["exec.gbps_computed"] / copy_gbps
        layers["gen.lag_p99_s"] = traced["lag_p99_s"]
        base = plain["summary"]["p50_s"]
        layers["trace.overhead_ratio"] = traced["summary"]["p50_s"] / base - 1.0
        metrics = {name: (layers[name], unit_of(name)) for name in PER_LAYER}
    else:
        setups = [runner.child(0, setup_only=1)["setup_s"] for _ in range(SETUPS - 1)]
        main = runner.child(args.seconds)
        records = [main]
        setups.append(main["setup_s"])
        summary = main["summary"]
        values = {
            "setup_s": median(setups),
            "p50_s": summary["p50_s"],
            "cell_iters_per_s": summary["cell_iters_per_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        main["setups"] = setups
    return metrics, records


def report(args, metrics: dict, records: list[dict], runner: Runner) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    main = records[0]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if not args.trace:
        setups = ", ".join(f"{s:.3g}" for s in main["setups"])
        print(f"  {'setup_s':<28} {metrics['setup_s'][0]:>14.6g} s      median of {setups}")
        print(f"  {'p50_s':<28} {metrics['p50_s'][0]:>14.6g} s      n={main['summary']['samples']}")
        for name in ("cell_iters_per_s", "peak_rss_mb"):
            value, unit = metrics[name]
            print(f"  {name:<28} {value:>14.6g} {unit}")
        for name, (value, count) in main["summary"]["detail"].items():
            unit = "1/s" if "_per_s" in name else "s" if "_s" in name else "count"
            print(f"  {name:<28} {value:>14.6g} {unit:<6} n={count}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:>14.6g} {unit}")
        print(
            f"  trace.overhead_ratio = traced p50_s {records[1]['summary']['p50_s']:.6g} s"
            f" / untraced p50_s {main['summary']['p50_s']:.6g} s - 1, each over half the window"
        )
        print("  exec bytes are computed from array sizes (bytes_per_cell_pass x cells x niter), not measured")
    for label, record in zip(("untraced run", "traced run") if args.trace else ("run",), records):
        attempted, failed = failures(record)
        print(
            f"  {label}: fail_ratio {failed / attempted:.6g} ({failed} of {attempted}: {record['outcomes']}),"
            f" gate {record['gate_checked']} checked, {record['gate_mismatched']} mismatched,"
            f" drained within its bound: {record['drained']}"
        )
        for error in record["errors"]:
            print(f"    error: {error}")
    host = main["host"]
    print(
        f"  host: nproc={host['nproc']} cpu={host['cpu']!r} caches={host['caches']}"
        f" numpy={host['numpy']} cc={host['cc']} numba={host['numba']}"
        f" copy_gbps={host['copy_gbps']:.3g} ({host['copy_probe']})"
    )
    print(
        f"  working set {main['working_set_mb']:.3g} MiB (state of the largest job or group)"
        f" against L2 {host['caches'].get('L2', '?')} and L3 {host['caches'].get('L3', '?')};"
        f" shm segments swept: {runner.shm_swept}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args)
    try:
        metrics, records = measure(runner, args)
    except ChildFailed as exc:
        print(f"error: {exc}; {runner.shm_swept} shared-memory segments swept", file=sys.stderr)
        return 1
    finally:
        runner.close()
    report(args, metrics, records, runner)
    attempted = failed = 0
    for record in records:
        a, f = failures(record)
        attempted, failed = attempted + a, failed + f
    mismatched = sum(r["gate_mismatched"] for r in records)
    correct = mismatched == 0 and all(r["gate_checked"] > 0 for r in records)
    if not correct:
        print("error: results differ from the golden interpreter", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
