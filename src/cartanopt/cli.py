"""Command-line front end.

Data (circuit and matrix JSON) goes to standard output or --out;
human-readable report lines go to standard error.  Exit codes: 0
success, 1 verification failed, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .circuit import deserialize, element_count, serialize
from .compiler import (
    CompileOptions,
    HAND_COUNTS,
    builtin_target,
    compile as compile_matrix,
    compile_m4,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _K,
    dump_matrix,
    haar_random_unitary,
    load_matrix,
    matrix_to_json,
)
from .simulate import simulate, verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tolerances(args) -> ToleranceConfig:
    t = getattr(args, "tolerance", None)
    return DEFAULT_TOL if t is None else ToleranceConfig(equivalence_tol=t)


def _count_lines(circuit) -> list[str]:
    rep = element_count(circuit)
    kinds = ", ".join(f"{k}={n}" for k, n in rep.by_kind.items())
    lines = [f"elements: {rep.total} ({kinds})"]
    for name, delta in rep.baseline_comparisons.items():
        baseline = rep.total + delta
        lines.append(
            f"baseline {name}: {baseline} -> {rep.total} (delta {delta:+d})"
        )
    return lines


def _cmd_compile(args) -> int:
    U = load_matrix(_read(args.matrix))
    opts = CompileOptions(
        convention=args.convention, optimize=args.optimize, tolerances=_tolerances(args)
    )
    if U.shape == (4, 4):
        circuit, report = compile_matrix(U, opts)
    elif U.shape == (8, 8):
        circuit, report = compile_m4(U, opts)
    else:
        raise ValueError(f"matrix must be 4x4 or 8x8, got {U.shape}")
    _emit(serialize(circuit), args.out)
    for line in _count_lines(circuit):
        print(line, file=sys.stderr)
    print(
        f"verification: distance={report.distance:.3e} passed={report.passed}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_simulate(args) -> int:
    circuit = deserialize(_read(args.circuit))
    _emit(dump_matrix(simulate(circuit)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    circuit = deserialize(_read(args.circuit))
    target = load_matrix(_read(args.matrix))
    rep = verify(circuit, target, _tolerances(args))
    print(json.dumps(dataclasses.asdict(rep)))
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def _cmd_target(args) -> int:
    U = builtin_target(args.name, args.convention)
    if not args.compile:
        _emit(dump_matrix(U), None)
        return EXIT_OK
    opts = CompileOptions(convention=args.convention, optimize=True)
    circuit, report = compile_matrix(U, opts)
    doc = {
        "matrix": matrix_to_json(U),
        "circuit": json.loads(serialize(circuit)),
        "report": dataclasses.asdict(report),
    }
    print(json.dumps(doc))
    hand = HAND_COUNTS[(args.name, args.convention)]
    print(
        f"{args.name}/{args.convention}: {report.element_total} elements; "
        f"hand-drawn reference {hand}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_random(args) -> int:
    _emit(dump_matrix(haar_random_unitary(args.dim, args.seed)), args.out)
    return EXIT_OK


_TOLERANCE_HELP = (
    "set equivalence_tol, the largest max-entry distance after the best global "
    "phase at which a circuit matches its matrix, to T; unitarity_tol and "
    f"angle_tol are derived from T, with angle_tol <= T/{_K} (defaults: "
    f"equivalence_tol {DEFAULT_TOL.equivalence_tol:g}, unitarity_tol "
    f"{DEFAULT_TOL.unitarity_tol:g}, angle_tol {DEFAULT_TOL.angle_tol:g})"
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cartanopt",
        description="Compile unitary matrices to polarization-path optical circuits.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="matrix JSON -> circuit JSON")
    c.add_argument("--matrix", required=True, help="path to matrix JSON")
    c.add_argument("--convention", required=True, choices=["ps", "sp"])
    c.add_argument("--optimize", action="store_true")
    c.add_argument("--tolerance", type=float, metavar="T", help=_TOLERANCE_HELP)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_compile)

    s = sub.add_parser("simulate", help="circuit JSON -> matrix JSON")
    s.add_argument("--circuit", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("verify", help="compare a circuit against a matrix")
    v.add_argument("--circuit", required=True)
    v.add_argument("--matrix", required=True)
    v.add_argument("--tolerance", type=float, metavar="T", help=_TOLERANCE_HELP)
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("target", help="emit a built-in target matrix")
    t.add_argument("--name", required=True, choices=["walk", "qft"])
    t.add_argument("--convention", required=True, choices=["ps", "sp"])
    t.add_argument("--compile", action="store_true")
    t.set_defaults(func=_cmd_target)

    r = sub.add_parser("random", help="emit a seeded Haar-random unitary")
    r.add_argument("--dim", type=int, required=True, choices=[4, 8])
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out")
    r.set_defaults(func=_cmd_random)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
