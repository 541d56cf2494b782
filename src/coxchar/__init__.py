"""Exact character identities for reflection arrangements of classical
Coxeter groups: conjugacy data, centralizer characters, induction, the
intersection lattice with its equivariant Moebius functions, and the
verification suite tying them together."""

from .cyclotomic import root
from .groups import (
    BudgetError,
    ConjClass,
    GroupDescriptor,
    conjugacy_classes,
    d_split_side,
    fixed_space,
    hyperplane_action,
    hyperplane_set,
    reflection_length,
    sign_character,
    signed_cycle_type,
)
from .characters import (
    LinearCharacterSpec,
    alpha_char,
    chi_char,
    epsilon_char,
    evaluate,
    phi_A,
    phi_B,
    phi_D,
    phi_for_class,
    psi_mu,
    spec_product,
)
from .classfunctions import (
    ClassFunction,
    induce_from_centralizer,
    inner_product,
    regular_character,
    sign_class_function,
    trivial_character,
)
from .centralizers import (
    CentralizerCoordinates,
    CentralizerGenSet,
    centralizer_elements,
    centralizer_generators,
    centralizer_order,
    coordinates,
    reassemble,
    w_mu,
)
from .lattice import (
    Lattice,
    build_lattice,
    get_lattice,
    graded_os_character,
    reflection_exponents,
    shape_os_character,
)
from .linalg import Subspace, det, kernel, rref
from .partitions import (
    SignedPartition,
    format_partition,
    mu_bar,
    parse_partition,
    parse_signed_partition,
    partitions,
    signed_partitions,
)
from .shapes import (
    Shape,
    class_rep,
    cuspidal_labels,
    is_cuspidal,
    parabolic_generators,
    parse_shape,
    shape_fix_space,
    shape_rank,
    shapes,
)
from .signedperm import SignedPermutation, all_signed_permutations
from .verify import (
    VerificationReport,
    poincare_table,
    verify_all_shapes,
    verify_graded,
    verify_os,
    verify_regular,
    verify_shape,
)

__version__ = "0.1.0"
