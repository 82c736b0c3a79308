"""Optical-circuit intermediate representation.

A circuit is a flat list of typed elements in propagation order: each
element is a polarizing beam splitter across two spatial modes or a
wave plate / phase shifter on one mode.  This module owns element
counting against the reference baselines, the JSON wire format, and a
small exact peephole optimizer.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .dof import DofConvention
from .linalg import DEFAULT_TOL, ToleranceConfig, _parse_json
from .waveplates import (
    _canon_phase,
    _elide_phase,
    _may_shrink,
    chain_matrix,
    synthesize_u2,
)

KINDS = ("pbs", "hwp", "qwp", "ps")
# angle types an element accepts; bool (an int subclass) is rejected separately
_REAL = (float, int, np.floating, np.integer)


def _is_int(v) -> bool:
    """Mode indices and mode counts are exactly int or a numpy integer, never bool."""
    return type(v) is int or isinstance(v, np.integer)


@dataclasses.dataclass(frozen=True)
class OpticalElement:
    """One element: kind, spatial mode(s), fast-axis or phase angle.

    PBS entries carry two distinct modes and no angle; plate and phase
    entries carry one mode and a finite angle in radians.  Modes must be
    non-negative integers and the angle a real number (bools are
    neither); every violation is a ValueError.
    """

    kind: str
    modes: tuple[int, ...]
    angle_rad: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        modes = self.modes
        # a tuple of exact ints is valid and already stored as it would be
        # converted; anything else is checked and converted
        if type(modes) is not tuple or not all(type(m) is int for m in modes):
            if not isinstance(modes, (tuple, list)) or not all(map(_is_int, modes)):
                raise ValueError(f"modes must be a list of integers, got {modes!r}")
            modes = tuple(map(int, modes))
            object.__setattr__(self, "modes", modes)
        if modes and min(modes) < 0:
            raise ValueError(f"negative mode index in {modes}")
        if self.kind == "pbs":
            if len(modes) != 2 or modes[0] == modes[1]:
                raise ValueError("pbs needs two distinct modes")
            if self.angle_rad is not None:
                raise ValueError("pbs carries no angle")
        else:
            if len(modes) != 1:
                raise ValueError(f"{self.kind} acts on exactly one mode")
            angle = self.angle_rad
            # an exact float needs no conversion; only its finiteness is checked
            if type(angle) is not float:
                if type(angle) is bool or not isinstance(angle, _REAL):
                    raise ValueError(f"{self.kind} angle must be a number, got {angle!r}")
                try:
                    angle = float(angle)
                except OverflowError:
                    angle = math.nan
                object.__setattr__(self, "angle_rad", angle)
            if not math.isfinite(angle):
                raise ValueError(f"{self.kind} needs a finite angle")


def pbs(i: int, j: int) -> OpticalElement:
    return OpticalElement("pbs", (i, j))


def hwp(mode: int, angle: float) -> OpticalElement:
    return OpticalElement("hwp", (mode,), angle)


def qwp(mode: int, angle: float) -> OpticalElement:
    return OpticalElement("qwp", (mode,), angle)


def ps(mode: int, angle: float) -> OpticalElement:
    return OpticalElement("ps", (mode,), angle)


def chain_elements(plates, mode: int) -> list[OpticalElement]:
    """(kind, angle) plates as circuit elements on one mode, in order."""
    return [OpticalElement(kind, (mode,), angle) for kind, angle in plates]


@dataclasses.dataclass(frozen=True)
class OpticalCircuit:
    """Elements in propagation order plus the basis-labeling convention."""

    convention: object
    num_spatial_modes: int
    elements: tuple[OpticalElement, ...] = ()
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "convention", DofConvention(self.convention))
        if not _is_int(self.num_spatial_modes) or self.num_spatial_modes not in (2, 4):
            raise ValueError(
                f"num_spatial_modes must be 2 or 4, got {self.num_spatial_modes}"
            )
        object.__setattr__(self, "num_spatial_modes", int(self.num_spatial_modes))
        elements = tuple(self.elements)
        for e in elements:
            if not isinstance(e, OpticalElement):
                raise ValueError(f"not an OpticalElement: {e!r}")
            if max(e.modes) >= self.num_spatial_modes:
                raise ValueError(
                    f"element {e.kind} on modes {e.modes} exceeds "
                    f"{self.num_spatial_modes} spatial modes"
                )
        object.__setattr__(self, "elements", elements)
        meta = dict(self.metadata)
        for k, v in meta.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValueError("metadata must map strings to strings")
        object.__setattr__(self, "metadata", meta)


@dataclasses.dataclass(frozen=True)
class CountReport:
    """Element totals and the saving against the reference baseline.

    by_kind counts each kind in KINDS order; baseline_comparisons maps a
    baseline name to (baseline - total), so a positive delta is an
    improvement.  Only the baseline matching the circuit's convention and
    mode count appears.
    """

    total: int
    by_kind: dict
    baseline_comparisons: dict


# Element counts of the prior construction this compiler replaces,
# keyed by (convention tag, spatial modes).
BASELINES = {
    ("ps", 2): ("ps_csd_swap", 25),
    ("sp", 2): ("sp_csd", 21),
    ("sp", 4): ("m4_csd", 74),
}


def element_count(circuit: OpticalCircuit) -> CountReport:
    by_kind = {k: 0 for k in KINDS}
    for e in circuit.elements:
        by_kind[e.kind] += 1
    total = len(circuit.elements)
    comparisons = {}
    key = (circuit.convention.tag, circuit.num_spatial_modes)
    if key in BASELINES:
        name, baseline = BASELINES[key]
        comparisons[name] = baseline - total
    return CountReport(total=total, by_kind=by_kind, baseline_comparisons=comparisons)


# -- JSON wire format --------------------------------------------------------
#
# {"version": 1, "convention": "ps"|"sp", "spatial_modes": n,
#  "elements": [{"kind": ..., "modes": [...], "angle_rad": ...}, ...],
#  "metadata": {str: str}}


def serialize(circuit: OpticalCircuit) -> str:
    # the text json.dumps gives for the document, written out: a kind and
    # the convention tag are plain words, a mode and the mode count exact
    # ints and an angle a finite exact float, each of which json.dumps
    # writes as its repr; only the metadata's strings need its escaping
    elements = ", ".join(
        f'{{"kind": "pbs", "modes": [{e.modes[0]!r}, {e.modes[1]!r}]}}'
        if e.kind == "pbs"
        else f'{{"kind": "{e.kind}", "modes": [{e.modes[0]!r}], "angle_rad": {e.angle_rad!r}}}'
        for e in circuit.elements
    )
    return (
        f'{{"version": 1, "convention": "{circuit.convention.tag}", '
        f'"spatial_modes": {circuit.num_spatial_modes!r}, "elements": [{elements}], '
        f'"metadata": {json.dumps(circuit.metadata)}}}'
    )


def deserialize(text: str) -> OpticalCircuit:
    doc = _parse_json(text, "circuit")
    if not isinstance(doc, dict):
        raise ValueError("circuit JSON must be an object")
    version = doc.get("version")
    if not isinstance(version, int) or isinstance(version, bool) or version != 1:
        raise ValueError(f"unsupported circuit version {version!r}")
    convention = doc.get("convention")
    if convention not in ("ps", "sp"):
        raise ValueError(f"convention must be 'ps' or 'sp', got {convention!r}")
    modes = doc.get("spatial_modes")
    raw = doc.get("elements")
    if not isinstance(raw, list):
        raise ValueError("'elements' must be a list")
    elements = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise ValueError(f"element {i} must be an object")
        try:
            elements.append(
                OpticalElement(rec.get("kind"), rec.get("modes"), rec.get("angle_rad"))
            )
        except ValueError as exc:
            raise ValueError(f"element {i}: {exc}") from exc
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise ValueError("metadata must be an object")
    return OpticalCircuit(
        convention=convention, num_spatial_modes=modes, elements=tuple(elements), metadata=meta
    )


# -- peephole optimization ---------------------------------------------------

def _next_on_modes(elems: list, i: int) -> int | None:
    """Index of the first element after elems[i] that shares a mode with it."""
    modes = set(elems[i].modes)
    for j in range(i + 1, len(elems)):
        if not modes.isdisjoint(elems[j].modes):
            return j
    return None


def _rewrite_drop_zero_ps(elems: list, a_tol: float) -> bool:
    # a zero-angle PS is the only element whose matrix is identity:
    # wave plates are never proportional to I2 at any angle
    for i, e in enumerate(elems):
        if e.kind == "ps" and _elide_phase(e.angle_rad, a_tol) is None:
            del elems[i]
            return True
    return False


def _rewrite_merge_ps(elems: list) -> bool:
    # two phase shifters on one mode add; anything on other modes
    # commutes past, anything sharing the mode blocks the merge
    for i, e in enumerate(elems):
        if e.kind != "ps":
            continue
        j = _next_on_modes(elems, i)
        if j is not None and elems[j].kind == "ps":
            elems[i] = ps(e.modes[0], _canon_phase(e.angle_rad + elems[j].angle_rad))
            del elems[j]
            return True
    return False


def _rewrite_resynthesize_run(
    elems: list, tol: ToleranceConfig, shortest: set, screen_runs: bool
) -> bool:
    # a same-mode run of plates collapses through synthesize_u2 when the
    # product admits a shorter chain; elements on other modes are
    # transparent, a PBS touching the mode ends the run.  One pass finds
    # the maximal runs, tried in order of their first element, and the
    # first that shrinks is rewritten.  Only whole runs are candidates:
    # synthesize_u2 returns the shortest chain, so a part of a run that
    # shrinks would shorten the whole run too.  With screen_runs a run
    # reaches the exact path only when _may_shrink cannot rule a shorter
    # chain out.  shortest holds the (kind, angle) sequences of the runs
    # found not to shrink, so a rescan skips them.  A rewritten run is not
    # added: a chain that synthesize_u2 emits can resynthesize shorter at
    # the angle_tol edges of its forms, and skipping that rescan changes
    # the optimizer's output bytes.  Each run is its element indices and
    # its (kind, angle) sequence, gathered in the one scan.
    runs, open_runs = [], {}
    for i, e in enumerate(elems):
        if e.kind == "pbs":
            for m in e.modes:
                open_runs.pop(m, None)
            continue
        m = e.modes[0]
        run = open_runs.get(m)
        if run is None:
            run = open_runs[m] = ([], [])
            runs.append(run)
        run[0].append(i)
        run[1].append((e.kind, e.angle_rad))
    for run, pairs in runs:
        if len(run) < 2:
            continue
        key = tuple(pairs)
        if key in shortest or (screen_runs and not _may_shrink(key, tol.angle_tol)):
            continue
        plates = synthesize_u2(chain_matrix(key), tol)
        if len(plates) < len(key):
            i = run[0]
            mode = elems[i].modes[0]
            for j in reversed(run):
                del elems[j]
            elems[i:i] = chain_elements(plates, mode)
            return True
        shortest.add(key)
    return False


def _rewrite_cancel_pbs(elems: list) -> bool:
    # PBS is an involution; a pair on the same mode set cancels when
    # nothing in between touches either mode
    for i, e in enumerate(elems):
        if e.kind != "pbs":
            continue
        j = _next_on_modes(elems, i)
        if j is not None and elems[j].kind == "pbs" and set(elems[j].modes) == set(e.modes):
            del elems[j]
            del elems[i]
            return True
    return False


def _sweep_phases(elems: list, a_tol: float) -> list:
    # a PS scales its whole mode, so it commutes with every plate on that
    # mode, and a phase common to modes i and j commutes with PBS(i, j)
    # (Clements et al., Optica 3, 1460 (2016)).  One pass carries a pending
    # phase per mode: at PBS(i, j) the difference stays behind as a PS on
    # mode i and the common part passes; what is left comes out at the end.
    # Each PS goes to the first slot of its run (the run's elements up to
    # the PBS all commute with it), so a run reads PS then plates, the
    # order synthesize_u2 emits.
    pending, start, out = {}, {}, []
    for e in elems:
        for m in e.modes:
            if m not in start:
                start[m] = len(out)
                out.append(None)
        if e.kind == "ps":
            m = e.modes[0]
            pending[m] = pending.get(m, 0.0) + e.angle_rad
            continue
        if e.kind == "pbs":
            i, j = e.modes
            a = _elide_phase(pending.get(i, 0.0) - pending.get(j, 0.0), a_tol)
            if a is not None:
                out[start[i]] = ps(i, a)
            pending[i] = pending.get(j, 0.0)
            del start[i], start[j]
        out.append(e)
    for m in sorted(pending):
        a = _elide_phase(pending[m], a_tol)
        if a is not None:
            if m in start:
                out[start[m]] = ps(m, a)
            else:
                out.append(ps(m, a))
    return [e for e in out if e is not None]


def _sweep_if_shorter(elems: list, a_tol: float) -> list | None:
    """_sweep_phases(elems), or None when that is not strictly shorter."""
    swept = _sweep_phases(elems, a_tol)
    return swept if len(swept) < len(elems) else None


def optimize(circuit: OpticalCircuit, tol: ToleranceConfig = DEFAULT_TOL) -> OpticalCircuit:
    """Exact peephole rewrites to fixpoint; never grows a circuit.

    Rules, one rewrite at a time until none fires: drop identity phase
    shifters, merge same-mode phase-shifter pairs, resynthesize same-mode
    plate runs into shorter chains, cancel adjacent PBS pairs, and, when
    none of those fires, sweep every phase shifter forward through its
    mode's plates and through the common part of each PBS, kept only
    when that is strictly shorter.  Every rewrite preserves the simulated
    unitary exactly (not merely up to phase), so repeated application
    terminates with a circuit of equal or smaller count and identical
    action, global phase included.
    """
    elems = list(circuit.elements)
    # screen: runs go through the closed-form test; sweep: a rule fired
    # since the last sweep (a sweep's output sweeps to itself).  compile
    # sweeps its optimized emission before this, so on a Haar compile no
    # rule fires and the sweep is not kept: only the unscreened first pass
    # runs, and it removes nothing.  That pass is unscreened only because
    # on haar8_opt it alone reaches the synthesize_u2, is_unitary and
    # _chain_params calls that the benchmark tracer's SITES pins; screening
    # it waits on ROADMAP item 6.  The pass right after a kept sweep starts
    # at resynthesis: the sweep leaves no PS within angle_tol of zero and
    # at most one PS per run between PBSs on its mode, so neither phase
    # rule can fire on its output.
    shortest, screen, sweep = set(), False, True
    while True:
        if (
            (sweep and (
                _rewrite_drop_zero_ps(elems, tol.angle_tol) or _rewrite_merge_ps(elems)
            ))
            or _rewrite_resynthesize_run(elems, tol, shortest, screen)
            or _rewrite_cancel_pbs(elems)
        ):
            sweep = True
            continue
        if not sweep:
            break
        # a moved phase can make a run shorter to resynthesize, so the
        # rules run again; the sweep changed only the runs' phases, and
        # most runs clear the quaternion screen
        swept = _sweep_if_shorter(elems, tol.angle_tol)
        if swept is None:
            break
        elems, screen, sweep = swept, True, False
    return OpticalCircuit(
        convention=circuit.convention,
        num_spatial_modes=circuit.num_spatial_modes,
        elements=tuple(elems),
        metadata=dict(circuit.metadata),
    )
