"""Constructive two-idempotents-plus-nilpotent decompositions over Z_m.

The package splits into factored moduli (residue), exact matrices over Z_m and
Z_m[x]/(x^d) with their certificates (matrix; an element is a 1 x 1 matrix),
the GF(p) elimination kernel and the Krylov form that runs on it (gfp), the
constructive decompositions with verified certificates (decompose), an
independent brute-force oracle over small finite rings (classifier), and a
batch CLI (cli).

The names exported here are what the CLI calls, what the library example of
the README uses (RingMatrix, zm_ring, decompose), and the ring, factor,
certificate, report and error types those take and return.  The rest stays
in its submodule: nilclean.matrix.check_certificate, the oracle's
enumerate_idempotents and enumerate_nilpotents in nilclean.classifier, and
decompose_zm, reached as importlib.import_module("nilclean.decompose")
because the function decompose shadows that package attribute.
"""

from types import ModuleType as _ModuleType

from .classifier import (
    MatFactor,
    PropertyReport,
    RingDescriptor,
    TruncFactor,
    ZmFactor,
    decide,
    min_nilpotent_index_over_decompositions,
    parse_ring_descriptor,
)
from .decompose import (
    CaseTag,
    decompose,
    decompose_triangular,
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
    verify_certificate,
    zm_ring,
)
from .residue import Modulus, factorize

__all__ = sorted(name for name, value in globals().items()  # not the submodules
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
__version__ = "0.1.0"
