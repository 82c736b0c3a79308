"""Per-layer spans recorded from outside the compiler.

The tracer replaces module attributes with timing wrappers at the place
where each function is looked up when it is called: compiler.py
imports decompose from cartan, so the span for cartan.decompose wraps
the name compiler.decompose.  Modules are taken from sys.modules,
because the package __init__ re-exports functions under submodule names
(cartanopt.simulate is the function, not the module).

Every span records its duration and the part of it covered by child
spans; self time is the difference.  Raw spans of the first few traced
operations are kept for writing out; everything else is aggregated.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

LAYERS = ("linalg", "cartan", "waveplates", "circuit", "simulate", "compiler")
RULES = ("drop_zero_ps", "merge_ps", "resynthesize_run", "cancel_pbs")
ALL = frozenset(("haar4", "haar8_opt", "structured4_opt"))
OPT = frozenset(("haar8_opt", "structured4_opt"))

# span name -> [(module, attribute looked up, workloads on which it must be called)]
SITES = {
    "compiler": [
        ("compiler", "compile", {"haar4", "structured4_opt"}),
        ("compiler", "compile_m4", {"haar8_opt"}),
    ],
    "linalg.wire": [("linalg", "load_matrix", ALL), ("compiler", "dump_matrix", ALL)],
    "linalg.is_unitary": [
        ("compiler", "is_unitary", ALL),
        ("cartan", "is_unitary", ALL),
        ("waveplates", "is_unitary", OPT),
    ],
    "linalg.cosine_sine": [("cartan", "_cosine_sine", ALL)],
    "linalg.cossin": [("linalg", "cossin", ALL)],
    "linalg.phase_distance": [("simulate", "phase_distance", ALL)],
    "cartan.decompose": [("compiler", "decompose", ALL)],
    "cartan.decompose_m4": [("compiler", "decompose_m4", {"haar8_opt"})],
    "waveplates.synthesize_u2": [
        ("compiler", "synthesize_u2", {"structured4_opt"}),
        ("circuit", "synthesize_u2", OPT),
    ],
    "waveplates.chain_params": [
        ("compiler", "_chain_params", ALL),
        ("waveplates", "_chain_params", OPT),
    ],
    "circuit.optimize": [("compiler", "optimize", OPT)],
    **{
        f"circuit.optimize.rule.{r}": [("circuit", f"_rewrite_{r}", OPT)]
        for r in RULES
    },
    "circuit.serialize": [("circuit", "serialize", ALL)],
    "simulate.verify": [("compiler", "verify", ALL)],
    "simulate.simulate": [("simulate", "simulate", ALL)],
}


class TracerError(RuntimeError):
    """The tracer cannot see a layer it is meant to measure."""


KEEP_OPS = 10  # operations whose raw spans are kept for writing out


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.site_calls = collections.Counter()
        self.self_s = collections.Counter()
        self.total_s = collections.Counter()
        self.hits = collections.Counter()
        self.errors = collections.Counter()
        self.pair_calls = collections.Counter()
        self.elements_in = 0
        self.elements_out = 0
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._op = -1
        self._saved = []

    def install(self) -> None:
        for span, sites in SITES.items():
            for module, attr, _ in sites:
                mod = sys.modules.get(f"cartanopt.{module}")
                if mod is None or not callable(getattr(mod, attr, None)):
                    self.uninstall()
                    raise TracerError(f"cartanopt.{module}.{attr} is gone; span {span} would read zero")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(span, f"{module}.{attr}", original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def begin_op(self, op: int) -> None:
        self._op = op

    def _wrap(self, span: str, site: str, fn):
        layer = span.split(".", 1)[0]
        is_rule = span.startswith("circuit.optimize.rule.")
        is_optimize = span == "circuit.optimize"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, self._next_id, clock(), 0.0]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, in the innermost layer it left
                if not getattr(exc, "bench_counted", False):
                    exc.bench_counted = True
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[span] += 1
                self.site_calls[site] += 1
                self.total_s[span] += duration
                self.self_s[span] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                    self.pair_calls[(parent[0], span)] += 1
                if self._op < KEEP_OPS:
                    self.spans.append(
                        (self._op, frame[1], parent[1] if parent else None, span, frame[2], end)
                    )
            if is_rule and result:
                self.hits[span] += 1
            if is_optimize:
                self.elements_in += len(args[0].elements)
                self.elements_out += len(result.elements)
            return result

        return wrapper

    def check_seen(self, workload: str) -> None:
        """Raise if a site this workload must reach recorded no call."""
        blind = [
            f"{module}.{attr}"
            for sites in SITES.values()
            for module, attr, expected in sites
            if workload in expected and self.site_calls[f"{module}.{attr}"] == 0
        ]
        if blind:
            raise TracerError(f"no calls recorded on {workload} through: {', '.join(blind)}")

    def metrics(self, ops: int) -> dict:
        """Per-operation layer metrics as {name: (value, unit)}."""
        ms = 1e3 / ops
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for span in ("linalg.cossin", "linalg.is_unitary", "waveplates.synthesize_u2",
                     "waveplates.chain_params", "cartan.decompose"):
            put(f"{span}.calls_per_op", self.calls[span] / ops, "calls/op")
        for span in SITES:
            if not span.startswith("circuit.optimize"):
                put(f"{span}.self_ms_per_op", self.self_s[span] * ms, "ms/op")
        put("circuit.optimize.ms_per_op", self.total_s["circuit.optimize"] * ms, "ms/op")
        put("circuit.optimize.self_ms_per_op", self.self_s["circuit.optimize"] * ms, "ms/op")
        attempts = hits = 0
        for r in RULES:
            span = f"circuit.optimize.rule.{r}"
            attempts += self.calls[span]
            hits += self.hits[span]
            put(f"{span}.attempts_per_op", self.calls[span] / ops, "calls/op")
            put(f"{span}.hits_per_op", self.hits[span] / ops, "hits/op")
            put(f"{span}.self_ms_per_op", self.self_s[span] * ms, "ms/op")
        put("circuit.optimize.hit_ratio", hits / attempts if attempts else 0.0, "ratio")
        put("circuit.optimize.elements_in_per_op", self.elements_in / ops, "elements/op")
        put("circuit.optimize.elements_removed_per_op",
            (self.elements_in - self.elements_out) / ops, "elements/op")
        decompositions = self.calls["cartan.decompose"]
        with_csd = self.pair_calls[("cartan.decompose", "linalg.cosine_sine")]
        put("cartan.decompose.csd_skipped_ratio",
            (decompositions - with_csd) / decompositions if decompositions else 0.0, "ratio")
        for layer in LAYERS:
            put(f"{layer}.errors", self.errors[layer], "count")
        return out
