"""One workload in one fresh process: a single-client closed loop.

An operation is the CLI compile path done in-process: load_matrix(text)
-> compile / compile_m4 -> serialize.  Inputs are generated and outputs
checked between batches, and the calibration work is timed between
operations, all outside the per-operation timings.  Started by run.py;
prints one JSON line of raw results on stdout.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --root DIR
    python3 bench/worker.py --setup --convention ps|sp --optimize 0|1 --root DIR

The second form is the set-up probe: import the compiler, compile the
matrix text read from stdin, print "ready", then time the calibration
work (median of 15 passes, in seconds), print it and exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

import calibrate
import reference
from inputs import WORKLOADS, make_inputs

BATCH = 32
# On-CPU seconds of operations between two timings of the calibration work:
# after every compile of dim 8 or of a structured input, after every second
# Haar dim-4 compile.  Slow phases of the host as short as a few compiles
# then show in the calibration around them.
CALIBRATE_EVERY_S = 0.002


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cartanopt  # noqa: F401  (registers the submodules)

    if not os.path.abspath(cartanopt.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"cartanopt imported from {cartanopt.__file__}, not from {src}")
    return sys.modules["cartanopt.linalg"], sys.modules["cartanopt.compiler"], sys.modules["cartanopt.circuit"]


def make_op(linalg, compiler, circuit):
    def op(text: str, convention: str, optimize: bool) -> tuple[str, bool]:
        # attribute lookups at call time, so a tracer can wrap them
        U = linalg.load_matrix(text)
        opts = compiler.CompileOptions(convention=convention, optimize=optimize)
        if U.shape == (4, 4):
            c, report = compiler.compile(U, opts)
        elif U.shape == (8, 8):
            c, report = compiler.compile_m4(U, opts)
        else:
            raise ValueError(f"matrix must be 4x4 or 8x8, got {U.shape}")
        return circuit.serialize(c), report.passed

    return op


class Loop:
    """Runs operations in batches and keeps what the metrics need."""

    def __init__(self, op, workload, seed, tracer=None):
        self.op, self.workload, self.seed, self.tracer = op, workload, seed, tracer
        self.latencies = []
        self.cpu = 0.0
        # the same on-CPU times, each scaled by the calibration timed just
        # before and just after its stretch of operations
        self.scaled_latencies = []
        self.calibration = []
        self.calibrated_cpu = 0.0
        self.wall_latencies = []
        self.wall = 0.0
        self.failed = 0
        self.fixed_failed = 0
        self.fixed_elements = 0
        self.fixed_angles = 0
        self.worst_distance = 0.0
        self.digest = hashlib.sha256()
        self.first_outputs = []

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def run(self, min_ops: int, seconds: float) -> None:
        """Runs until `seconds` of wall time have passed and at least `min_ops` operations."""
        w = self.workload
        wall, cpu = time.perf_counter, time.thread_time
        end = wall() + seconds
        if not self.calibration:
            self.calibration.append(calibrate.seconds(cpu))
        while self.ops < min_ops or wall() < end:
            start = self.ops
            batch = make_inputs(w, self.seed, start, BATCH)
            results = []
            for i, x in enumerate(batch, start):
                if self.tracer is not None:
                    self.tracer.begin_op(i)
                w0, c0 = wall(), cpu()
                try:
                    results.append(self.op(x.text, x.convention, w.optimize))
                except Exception as exc:  # a failed operation, counted below
                    results.append(exc)
                c1, w1 = cpu(), wall()
                self.latencies.append(c1 - c0)
                self.wall_latencies.append(w1 - w0)
                self.cpu += c1 - c0
                self.wall += w1 - w0
                if self.cpu - self.calibrated_cpu >= CALIBRATE_EVERY_S:
                    self._calibrate()
            for i, (x, res) in enumerate(zip(batch, results), start):
                self._check(i, x, res)
        self._calibrate()

    def _calibrate(self) -> None:
        """Scales the operations since the last calibration by the mean of it and a new one."""
        self.calibration.append(calibrate.seconds(time.thread_time))
        scale = calibrate.REF_S / statistics.fmean(self.calibration[-2:])
        self.scaled_latencies += [scale * t for t in self.latencies[len(self.scaled_latencies):]]
        self.calibrated_cpu = self.cpu

    def _check(self, i, x, res) -> None:
        if isinstance(res, Exception):
            text, v = "", reference.Verdict(False, f"raised {type(res).__name__}: {res}")
        else:
            text, passed = res
            v = reference.check(text, x.matrix, x.convention)
            if v.ok and not passed:
                v = dataclasses.replace(v, ok=False, reason="report.passed is False")
        if i < self.workload.fixed:
            self.digest.update(text.encode())
            self.fixed_failed += not v.ok
            self.fixed_elements += v.elements
            self.fixed_angles += v.angles
            self.worst_distance = max(self.worst_distance, v.distance)
            if len(self.first_outputs) < 8 and text:
                self.first_outputs.append((text, x))
        if not v.ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"input {i} ({x.family}, {x.convention}) failed: {v.reason}", file=sys.stderr)

    def fixed_ms_per_op(self) -> float:
        return 1e3 * statistics.fmean(self.scaled_latencies[: self.workload.fixed])


def gate_self_test(loop: Loop) -> list[str]:
    """The reference check must accept real outputs and reject their mutants."""
    errors, rejected = [], set()
    for text, x in loop.first_outputs:
        if not reference.check(text, x.matrix, x.convention).ok:
            errors.append(f"reference rejects an early {x.family} output, so its mutants prove nothing")
        for kind, bad in reference.mutants(text).items():
            if reference.check(bad, x.matrix, x.convention).ok:
                errors.append(f"reference accepts a {kind} {x.family} circuit")
            else:
                rejected.add(kind)
    missing = {"flipped_angle", "dropped_pbs", "over_budget"} - rejected
    if missing:
        errors.append(f"no mutant of kind {sorted(missing)} was tried")
    return errors


def setup_probe(args) -> None:
    linalg, compiler, circuit = _import_program(args.root)
    text = sys.stdin.read()
    make_op(linalg, compiler, circuit)(text, args.convention, bool(args.optimize))
    print("ready", flush=True)
    print(statistics.median(calibrate.seconds(time.perf_counter) for _ in range(15)), flush=True)


def main(args) -> dict:
    linalg, compiler, circuit = _import_program(args.root)
    w = WORKLOADS[args.workload]
    op = make_op(linalg, compiler, circuit)
    out = {}
    if not args.trace:
        loop = Loop(op, w, args.seed)
        loop.run(w.fixed, args.seconds)
        lat = loop.scaled_latencies
        p99 = statistics.quantiles(lat, n=100)[98]
        out["latency_samples"] = len(lat)
        out["beyond_p99"] = sum(t > p99 for t in lat)
        out["compiles_per_s"] = loop.ops / math.fsum(lat)
        out["latency_p50_ms"] = 1e3 * statistics.median(lat)
        out["latency_p99_ms"] = 1e3 * p99
        out["cpu_compiles_per_s"] = loop.ops / loop.cpu
        out["cpu_latency_p50_ms"] = 1e3 * statistics.median(loop.latencies)
        out["cpu_latency_p99_ms"] = 1e3 * statistics.quantiles(loop.latencies, n=100)[98]
        out["calibration_ms"] = [1e3 * min(loop.calibration), 1e3 * max(loop.calibration)]
        out["wall_compiles_per_s"] = loop.ops / loop.wall
        out["wall_latency_p50_ms"] = 1e3 * statistics.median(loop.wall_latencies)
        out["wall_latency_p99_ms"] = 1e3 * statistics.quantiles(loop.wall_latencies, n=100)[98]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer

        untraced = Loop(op, w, args.seed)
        untraced.run(w.fixed, 0.0)
        tracer = Tracer()
        tracer.install()
        try:
            loop = Loop(op, w, args.seed, tracer)
            loop.run(w.fixed, args.seconds)
        finally:
            tracer.uninstall()
        tracer.check_seen(w.name)
        out["layers"] = tracer.metrics(loop.ops)
        out["untraced_ms_per_op"] = untraced.fixed_ms_per_op()
        out["traced_ms_per_op"] = loop.fixed_ms_per_op()
        out["untraced_digest"] = untraced.digest.hexdigest()
        out["spans"] = tracer.spans
    out.update(
        ops=loop.ops,
        failed=loop.failed,
        fixed=w.fixed,
        fixed_failed=loop.fixed_failed,
        elements_mean=loop.fixed_elements / w.fixed,
        angles_mean=loop.fixed_angles / w.fixed,
        worst_distance=loop.worst_distance,
        digest=loop.digest.hexdigest(),
        self_test_errors=gate_self_test(loop),
    )
    return out


if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--setup", action="store_true")
    p.add_argument("--convention")
    p.add_argument("--optimize", type=int, default=0)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    a = p.parse_args()
    if a.setup:
        setup_probe(a)
    else:
        print(json.dumps(main(a)), flush=True)
