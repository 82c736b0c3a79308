"""Compile benchmark for cartanopt.

    python3 bench/run.py --workload haar4|haar8_opt|structured4_opt|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the compiler is imported from
./src.  With --trace 0 the last stdout line is a JSON object holding
every end-to-end metric, with --trace 1 every per-layer metric.  See
bench/README.md for the metrics, the workloads and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from inputs import WORKLOADS, make_input, self_test  # noqa: E402

SETUP_PROBES = 9
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    # a single-threaded closed loop: no BLAS thread pool, and byte code
    # cached in the checkout as an installed package would have it
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds(workload, seed: int, deadline: float, probes: int) -> list[tuple[float, float]]:
    """Fresh interpreter start -> first compile returned, once per probe.

    Returns (seconds, seconds scaled by the calibration the probe times
    right after its compile) per probe.  The calibration runs in the probe's
    own process: the two cores of a small VM can run at different speeds,
    so work timed in this process need not track the probe's speed.
    """
    x = make_input(workload, seed, 0)
    cmd = [sys.executable, str(HERE / "worker.py"), "--setup", "--root", str(ROOT),
           "--convention", x.convention, "--optimize", str(int(workload.optimize))]
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, env=child_env(), cwd=ROOT)
        try:
            proc.stdin.write(x.text)
            proc.stdin.close()
            lines = []
            for _ in range(2):  # "ready", then the calibration time
                if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
                    raise RuntimeError("set-up probe timed out")
                lines.append(proc.stdout.readline().strip())
                if len(lines) == 1:
                    t1 = time.perf_counter()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if lines[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append((t1 - t0, calibrate.REF_S * (t1 - t0) / float(lines[1])))
    return samples


def run_worker(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def write_spans(name: str, seed: int, spans: list) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    fields = ("op", "span", "parent", "name", "start_s", "end_s")
    path.write_text(json.dumps([dict(zip(fields, s)) for s in spans]))
    return path


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float):
    """Prints the report for one workload; returns (correct, attempted, failed, metrics)."""
    w = WORKLOADS[name]
    errors = [f"generator: {e}" for e in self_test(w, seed)]
    metrics = {}
    if not trace:
        # the first probe writes byte code and is not counted; the rest
        # straddle the timed loop, so set-up is sampled at both ends of
        # the run rather than in one burst
        setup = setup_seconds(w, seed, deadline, 1 + SETUP_PROBES // 2)[1:]
    r = run_worker(name, seed, seconds, trace, deadline)
    if not trace:
        setup += setup_seconds(w, seed, deadline, SETUP_PROBES - len(setup))
        metrics["setup_s"] = (statistics.median(s for _, s in setup), "s")
    errors += [f"reference self-test: {e}" for e in r["self_test_errors"]]
    fixed_error_rate = r["fixed_failed"] / r["fixed"]
    print(f"== {name} seed {seed} trace {trace}: {r['ops']} operations, {r['failed']} failed")
    print(f"fixed inputs {r['fixed']}: error_rate {fixed_error_rate:.6g}, "
          f"worst reference distance {r['worst_distance']:.3e}")
    print(f"circuit digest sha256 {r['digest']}")
    if not trace:
        metrics.update(
            compiles_per_s=(r["compiles_per_s"], "1/s"),
            latency_p50_ms=(r["latency_p50_ms"], "ms"),
            latency_p99_ms=(r["latency_p99_ms"], "ms"),
            elements_mean=(r["elements_mean"], "elements"),
            angles_mean=(r["angles_mean"], "angles"),
            verified_ratio=(1.0 - fixed_error_rate, "ratio"),
            peak_rss_mb=(r["peak_rss_mb"], "MB"),
        )
        print(f"latency samples {r['latency_samples']}, {r['beyond_p99']} beyond p99; "
              f"set-up probes {len(setup)}")
        print(f"calibration pass {r['calibration_ms'][0]:.4g} to {r['calibration_ms'][1]:.4g} ms "
              f"on-CPU (times below are scaled to {1e3 * calibrate.REF_S:g} ms)")
        print(f"on-CPU, unscaled: {r['cpu_compiles_per_s']:.6g} 1/s, "
              f"p50 {r['cpu_latency_p50_ms']:.6g} ms, p99 {r['cpu_latency_p99_ms']:.6g} ms; "
              f"set-up {statistics.median(t for t, _ in setup):.6g} s")
        print(f"wall clock (steal included): {r['wall_compiles_per_s']:.6g} 1/s, "
              f"p50 {r['wall_latency_p50_ms']:.6g} ms, p99 {r['wall_latency_p99_ms']:.6g} ms")
    else:
        if r["untraced_digest"] != r["digest"]:
            errors.append("tracing changed the emitted circuits")
        metrics = {k: tuple(v) for k, v in r["layers"].items()}
        metrics["trace.untraced_ms_per_op"] = (r["untraced_ms_per_op"], "ms/op")
        metrics["trace.traced_ms_per_op"] = (r["traced_ms_per_op"], "ms/op")
        metrics["trace.overhead_ratio"] = (r["traced_ms_per_op"] / r["untraced_ms_per_op"], "ratio")
        print(f"untraced digest sha256 {r['untraced_digest']}")
        print(f"spans of the first operations: {write_spans(name, seed, r['spans'])}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:<52} {v:>14.6g} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    correct = not errors and r["failed"] == 0
    return correct, r["ops"], r["failed"], metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "cartanopt" / "__init__.py").is_file():
        print(f"no compiler source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, deadline) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]][3]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
