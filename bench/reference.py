"""Independent check of emitted circuit JSON against its source matrix.

Written from the element definitions in the README and the waveplates
docstrings, sharing no code with the compiler: the circuit text is
parsed with json, simulated here by row updates, and compared with the
generated source matrix up to a global phase.

Basis order: sp puts (mode k, polarization p) at 2k + p; ps puts it at
p*m + k, with m spatial modes and p = 0 for H, 1 for V.  Elements act
in list order, the first element first:

    PS(t)  = e^{it} I                                  on one mode
    HWP(t) = i [[cos 2t, sin 2t], [sin 2t, -cos 2t]]   on one mode
    QWP(t) = [[1 + i cos 2t, i sin 2t],
              [i sin 2t, 1 - i cos 2t]] / sqrt 2       on one mode
    PBS(a, b) swaps the H components of modes a and b; V is untouched.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

DISTANCE_LIMIT = 1e-9
# Element count of the unoptimized construction: four 4-plate chains
# around a 4-element central layer for dim 4, four such blocks plus two
# 4-element gadgets for dim 8.  An emitted circuit is never larger.
ELEMENT_LIMIT = {4: 20, 8: 88}


def _plate(kind: str, t: float) -> np.ndarray:
    if kind == "ps":
        return np.exp(1j * t) * np.eye(2)
    c, s = math.cos(2 * t), math.sin(2 * t)
    if kind == "hwp":
        return 1j * np.array([[c, s], [s, -c]])
    return np.array([[1 + 1j * c, 1j * s], [1j * s, 1 - 1j * c]]) / math.sqrt(2.0)


def simulate(convention: str, m: int, elements: list) -> np.ndarray:
    """Matrix of (kind, modes, angle) elements on m spatial modes."""

    def index(mode: int, pol: int) -> int:
        return 2 * mode + pol if convention == "sp" else pol * m + mode

    M = np.eye(2 * m, dtype=complex)
    for kind, modes, angle in elements:
        if kind == "pbs":
            a, b = index(modes[0], 0), index(modes[1], 0)
            M[[a, b]] = M[[b, a]]
        else:
            rows = [index(modes[0], 0), index(modes[0], 1)]
            M[rows] = _plate(kind, angle) @ M[rows]
    return M


def phase_distance(A: np.ndarray, B: np.ndarray) -> float:
    """max |A e^{i phi} - B| with phi aligning tr(A^dag B) to the real axis."""
    t = np.vdot(A, B)
    phase = t / abs(t) if abs(t) > 0 else 1.0
    return float(np.abs(A * phase - B).max())


@dataclasses.dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    elements: int = 0
    angles: int = 0
    distance: float = math.inf


def _parse(text: str, convention: str, m: int) -> list:
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise ValueError(f"version {doc.get('version')!r}")
    if doc.get("convention") != convention:
        raise ValueError(f"convention {doc.get('convention')!r}, source is {convention!r}")
    if doc.get("spatial_modes") != m:
        raise ValueError(f"spatial_modes {doc.get('spatial_modes')!r}, source needs {m}")
    out = []
    for rec in doc["elements"]:
        kind, modes = rec["kind"], tuple(rec["modes"])
        if not all(isinstance(k, int) and 0 <= k < m for k in modes):
            raise ValueError(f"modes {modes} outside 0..{m - 1}")
        if kind == "pbs":
            if len(modes) != 2 or modes[0] == modes[1] or "angle_rad" in rec:
                raise ValueError(f"bad pbs {rec}")
            out.append((kind, modes, None))
        elif kind in ("ps", "hwp", "qwp"):
            angle = rec["angle_rad"]
            if len(modes) != 1 or not isinstance(angle, float) or not math.isfinite(angle):
                raise ValueError(f"bad {kind} {rec}")
            out.append((kind, modes, angle))
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return out


def check(text: str, source: np.ndarray, convention: str) -> Verdict:
    """Verdict on one emitted circuit: well formed, within budget, equal to source."""
    dim = source.shape[0]
    try:
        elements = _parse(text, convention, dim // 2)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return Verdict(False, f"malformed circuit JSON: {exc}")
    n = len(elements)
    angles = sum(kind != "pbs" for kind, _, _ in elements)
    distance = phase_distance(simulate(convention, dim // 2, elements), source)
    if not distance <= DISTANCE_LIMIT:
        return Verdict(False, f"reference distance {distance:.3e}", n, angles, distance)
    if n > ELEMENT_LIMIT[dim]:
        return Verdict(False, f"{n} elements exceed {ELEMENT_LIMIT[dim]}", n, angles, distance)
    return Verdict(True, "", n, angles, distance)


def mutants(text: str) -> dict[str, str]:
    """Wrong variants of a correct circuit that check() must reject."""
    doc = json.loads(text)
    els = doc["elements"]
    out = {}
    # negate the first angle that is not a multiple of pi/4, where the
    # sign changes the plate or phase
    for k, rec in enumerate(els):
        a = rec.get("angle_rad")
        if a is not None and abs(math.remainder(a, math.pi / 4)) > 1e-3:
            out["flipped_angle"] = _with_elements(doc, els[:k] + [{**rec, "angle_rad": -a}] + els[k + 1 :])
            break
    for k, rec in enumerate(els):
        if rec["kind"] == "pbs":
            out["dropped_pbs"] = _with_elements(doc, els[:k] + els[k + 1 :])
            break
    # identity padding keeps the matrix but breaks the element budget
    pad = [{"kind": "ps", "modes": [0], "angle_rad": 0.0}] * (ELEMENT_LIMIT[2 * doc["spatial_modes"]] + 1 - len(els))
    out["over_budget"] = _with_elements(doc, els + pad)
    return out


def _with_elements(doc: dict, elements: list) -> str:
    return json.dumps({**doc, "elements": elements})
