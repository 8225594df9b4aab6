"""Third-order tensors in three dimensions.

Dense 3x3x3 hypermatrix algebra with transposes, symmetry classification,
the kernel tensor, L-eigenvalues and L-inverses, eigenvector
decompositions for partially symmetric tensors, variational (singular,
C-, Z-) eigenvalues, and the seven kernel-trace rotation invariants.  The
Levi-Civita tensor ships as the golden fixture.
"""

# the package exports the union of its modules' __all__ lists
from . import core, errors, spectral, symmetry, varspec
from .core import *
from .errors import *
from .spectral import *
from .symmetry import *
from .varspec import *

__version__ = "0.1.0"
__all__ = [*core.__all__, *errors.__all__, *spectral.__all__, *symmetry.__all__, *varspec.__all__]
