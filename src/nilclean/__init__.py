"""Constructive two-idempotents-plus-nilpotent decompositions over Z_m.

The package splits into factored moduli (residue), exact matrices over Z_m and
Z_m[x]/(x^d) with their certificates (matrix; an element is a 1 x 1 matrix),
the GF(p) elimination kernel and the Krylov form that runs on it (gfp), the
constructive decompositions with verified certificates (decompose), an
independent brute-force oracle over small finite rings (classifier), and a
batch CLI (cli).
"""

from types import ModuleType as _ModuleType

from .classifier import (
    MatFactor,
    PropertyReport,
    RingDescriptor,
    TruncFactor,
    ZmFactor,
    decide,
    enumerate_idempotents,
    enumerate_nilpotents,
    min_nilpotent_index_over_decompositions,
    parse_ring_descriptor,
)
from .decompose import (
    CaseTag,
    decompose,
    decompose_triangular,
    decompose_zm,
)
from .errors import (
    DomainError,
    InputError,
    InternalCheckError,
    NilcleanError,
    ResourceCapError,
    UnsupportedRingError,
)
from .matrix import (
    DecompositionCertificate,
    MatrixRing,
    RingMatrix,
    check_certificate,
    trunc_ring,
    verify_certificate,
    zm_ring,
)
from .residue import (
    Modulus,
    factorize,
    is_two_three_smooth,
    two_three_smooth_moduli,
)

__all__ = sorted(name for name, value in globals().items()  # not the submodules
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
__version__ = "0.1.0"
