"""Degree-of-freedom conventions and basis-order bookkeeping."""

import enum

import numpy as np


class DofConvention(enum.Enum):
    """Which degree of freedom is the outer tensor factor.

    POLARIZATION_SPATIAL orders the single-photon basis as
    {|H a1>, |H a2>, |V a1>, |V a2>} (polarization outer, spatial inner).
    SPATIAL_POLARIZATION orders it as {|a1 H>, |a1 V>, |a2 H>, |a2 V>},
    extended mode-major for four spatial modes.  The enum value doubles
    as the wire-format tag.
    """

    POLARIZATION_SPATIAL = "ps"
    SPATIAL_POLARIZATION = "sp"
    PS = "ps"
    SP = "sp"

    @property
    def tag(self) -> str:
        return self.value


def ps_to_sp_indices(num_modes: int) -> list[int]:
    """Position of each polarization-major basis vector in mode-major order.

    Index i in PS order is (pol * m + mode); the same state sits at
    (2 * mode + pol) in SP order.  For m = 2 this is the involution
    [0, 2, 1, 3].
    """
    m = num_modes
    return [(i % m) * 2 + (i // m) for i in range(2 * m)]


# np.ix_ index, per spatial mode count, that reorders the rows and columns
# of a mode-major matrix into polarization-major order in one indexing
# (M_ps = M_sp[PS_TO_SP_IX[m]]); for m = 2 it also undoes itself
PS_TO_SP_IX = {m: np.ix_(ps_to_sp_indices(m), ps_to_sp_indices(m)) for m in (2, 4)}
