"""Third-order tensors in three dimensions.

Dense 3x3x3 hypermatrix algebra with transposes, symmetry classification,
the kernel tensor, L-eigenvalues and L-inverses, eigenvector
decompositions for partially symmetric tensors, variational (singular,
C-, Z-) eigenvalues, and the seven kernel-trace rotation invariants.  The
Levi-Civita tensor ships as the golden fixture.

The closed-form modules load with the package.  The variational module
``varspec`` loads on first use: the first lookup of one of its names (or
of ``__all__``) imports it, so a program that never solves does not pay
for compiling it.
"""

# the package exports the union of its modules' __all__ lists
from . import core, errors, spectral, symmetry
from .core import *
from .errors import *
from .spectral import *
from .symmetry import *

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load ``varspec`` on the first miss, then serve its names, and the
    full ``__all__``, as plain attributes of the package."""
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement, so that python -X importtime logs the load
    from .varspec import __all__ as deferred

    namespace = globals()
    varspec = namespace["varspec"]  # the import binds the submodule here
    namespace.update({key: getattr(varspec, key) for key in deferred})
    namespace["__all__"] = [
        *core.__all__, *errors.__all__, *spectral.__all__, *symmetry.__all__, *deferred
    ]
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
