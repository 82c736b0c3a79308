"""cartanopt: a compiler from small unitary matrices to linear-optical circuits.

The pipeline factorizes a 4x4 (two-qubit) or 8x8 (four spatial modes) unitary
acting on one photon's polarization and spatial modes into single-qubit
wave-plate chains around a fixed central layer of polarizing beam splitters
and half-wave plates, simulates the resulting circuit element by element,
and reports element counts against reference baselines.
"""

# set before the submodule imports: the compiler records it in every circuit
__version__ = "0.1.0"

from .dof import DofConvention
from .linalg import (
    ToleranceConfig,
    DEFAULT_TOL,
    is_unitary,
    unitarity_residual,
    phase_distance,
    haar_random_unitary,
    matrix_to_json,
    matrix_from_json,
    dump_matrix,
    load_matrix,
)
from .lie import LieSpan, CartanConditionReport, lie_span, check_cartan_conditions
from .waveplates import (
    ps_matrix,
    hwp_matrix,
    qwp_matrix,
    chain_matrix,
    synthesize_u2,
)
from .cartan import (
    CartanFactors,
    RecursiveFactors,
    central_a,
    decompose,
    reassemble,
    decompose_m4,
    reassemble_m4,
)
from .circuit import (
    OpticalElement,
    OpticalCircuit,
    CountReport,
    pbs,
    hwp,
    qwp,
    ps,
    chain_elements,
    element_count,
    optimize,
    serialize,
    deserialize,
)
from .simulate import VerificationReport, element_unitary, simulate, verify
from .compiler import (
    CompileOptions,
    compile,
    compile_m4,
    builtin_target,
    reference_decompositions,
    HAND_COUNTS,
)
