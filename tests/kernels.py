"""The CPU kernel set that numpy and its BLAS run on, named in one line.

numpy picks a SIMD loop for each ufunc at import time, and OpenBLAS a
zgemm kernel, by what the CPU supports.  Kernels that fuse a multiply
and an add round differently from those that do not, so the byte pins
of the golden and optimizer corpora hold on the kernel set they were
recorded on, not on every machine with the same numpy.  fingerprint()
names the running set; the pins record theirs next to each digest.

    python tests/kernels.py

prints it.  numpy's runtime variables choose other kernels: for example
OPENBLAS_CORETYPE=Haswell, or NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4".
"""

import ctypes
import glob
import os

import numpy as np

# numpy keeps the dispatch tables in a private module, so every read of
# them, and of the OpenBLAS library, is best-effort: a part that cannot be
# read is named "unknown", and fingerprint() never raises
try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    try:
        from numpy.core import _multiarray_umath as _umath
    except ImportError:
        _umath = None

# what numpy's own wheels name OpenBLAS's get_corename, then the plain build's
_CORENAME = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def numpy_targets() -> str:
    """numpy's dispatch targets that this CPU and NPY_DISABLE_CPU_FEATURES leave on."""
    try:
        features = _umath.__cpu_features__
        targets = [t for t in _umath.__cpu_dispatch__ if features.get(t)]
    except (AttributeError, TypeError):
        return "targets unknown"
    return " ".join(targets) or "baseline only"


def openblas_core() -> str:
    """The core OpenBLAS chose at load time, read from the library numpy bundles."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            # numpy has loaded this file already, so this returns its handle
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _CORENAME:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                core = fn()
                return core.decode(errors="replace") if core else "unknown"
    return "unknown"


def fingerprint() -> str:
    return f"numpy {np.__version__}, {numpy_targets()}, OpenBLAS {openblas_core()}"


def pin_message(recorded: str) -> str:
    """What a failed byte pin says: the kernel set it was recorded on and the running one."""
    return f"recorded on {recorded}; running on {fingerprint()}"


if __name__ == "__main__":
    print(fingerprint())
