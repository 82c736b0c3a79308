"""Host-speed calibration for the compile benchmark.

The hosts this benchmark is meant for (small shared VMs) change speed by up
to about 2.5x, in phases from a few milliseconds to an hour, and a phase hits
the on-CPU time of a thread as much as its wall time. A raw time then
measures the phase more than the compiler. So a fixed piece of work, the
same mix as a compile (small dense complex linear algebra through numpy,
Python-level loops, JSON text), is timed between operations and after every
set-up probe. The benchmark reports the compiler's times scaled by
REF_S / (time of that work): the time an operation would take on a host
that runs the work in exactly REF_S. The work is part of the benchmark, not
of the compiler, so a change to the compiler moves the scaled times and a
change of host phase does not.
"""

from __future__ import annotations

import json

import numpy as np

# About what one pass of work() takes on a 2-core Xeon VM (2.0 GHz) between
# two compiles; a round figure, so that scaled times read like real ones.
REF_S = 1.0e-3

_rng = np.random.default_rng(20220405)
# small enough to run after every compile of a few milliseconds
_MATS = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(4)]


def work() -> float:
    acc = 0.0
    for m in _MATS:
        q, _ = np.linalg.qr(m)
        u, s, vh = np.linalg.svd(q @ m)
        e = np.linalg.eigvalsh(m + m.conj().T)
        text = json.dumps([[float(z.real), float(z.imag)] for z in (u @ vh).ravel()])
        acc += s[0] + e[0] + len(json.loads(text)) + abs(np.angle(np.linalg.det(q)))
    return acc


def seconds(clock) -> float:
    """Time of one pass of work() on the given clock."""
    t0 = clock()
    work()
    return clock() - t0
