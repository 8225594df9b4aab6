"""Third-order tensors in three dimensions.

Dense 3x3x3 hypermatrix algebra with transposes, symmetry classification,
the kernel tensor, L-eigenvalues and L-inverses, eigenvector
decompositions for partially symmetric tensors, variational (singular,
C-, Z-) eigenvalues, and the seven kernel-trace rotation invariants.  The
Levi-Civita tensor ships as the golden fixture.
"""

from .core import (
    Hyper3,
    Mat3,
    Quad3,
    Vec3,
    contract_full,
    contract_mat,
    contract_one,
    contract_two,
    hyper3,
    inner,
    is_orthogonal,
    is_symmetric,
    levi_civita,
    mat3,
    outer,
    outer_mv,
    outer_vm,
    prod2,
    prod4,
    quad3,
    random_rotation,
    rotate,
    rotate_mat,
    rotate_vec,
    transpose,
    vec3,
)
from .errors import (
    NoConvergence,
    NotOrthogonal,
    NotPartiallySymmetric,
    NotRightSymmetric,
    NotSymmetric,
    SingularTensor,
    TensorError,
    UnsupportedClass,
    Unrepresentable,
)
from .spectral import (
    EigDecomposition3,
    KernelTriple,
    LEigenSystem,
    eig_decompose_partial,
    fold,
    is_orthogonal_tensor,
    kernel,
    kernel_triple,
    l_eigen,
    l_inverse,
    rank_and_nullspace,
    recover,
    sym_eig3,
    unfold,
)
from .symmetry import (
    FIXTURE_CLASSES,
    SymmetryReport,
    classify,
    make_fixture,
    selective_symmetry_via_levi_civita,
)
from .varspec import (
    CriticalTriple,
    InvariantSet,
    invariants,
    max_c_eigenvalue,
    max_singular_value,
    max_z_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "Vec3", "Mat3", "Hyper3", "Quad3",
    "vec3", "mat3", "hyper3", "quad3",
    "is_symmetric", "is_orthogonal",
    "contract_one", "contract_mat", "contract_two", "contract_full",
    "inner", "prod2", "prod4",
    "outer", "outer_mv", "outer_vm",
    "transpose", "rotate", "rotate_mat", "rotate_vec",
    "random_rotation", "levi_civita",
    "SymmetryReport", "FIXTURE_CLASSES", "classify",
    "selective_symmetry_via_levi_civita", "make_fixture",
    "LEigenSystem", "KernelTriple", "EigDecomposition3",
    "sym_eig3", "kernel", "kernel_triple", "unfold", "fold",
    "l_eigen", "rank_and_nullspace", "l_inverse", "recover",
    "is_orthogonal_tensor", "eig_decompose_partial",
    "CriticalTriple", "InvariantSet",
    "max_singular_value", "max_c_eigenvalue", "max_z_eigenvalue", "invariants",
    "TensorError", "NotOrthogonal", "NotSymmetric", "NotRightSymmetric",
    "NotPartiallySymmetric", "SingularTensor", "UnsupportedClass", "Unrepresentable",
    "NoConvergence",
]
