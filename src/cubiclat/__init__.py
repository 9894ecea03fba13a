"""Exact integral-lattice toolkit and certificate suite."""

from .core import (
    IntegralLattice,
    LatticeVector,
    Signature,
    Invariants,
    Sublattice,
    DiscriminantGroup,
    FiniteQuadraticForm,
    FiniteBilinearForm,
    LatticeError,
    DegenerateLattice,
    ParityError,
    NotIntegral,
    ZeroVector,
    DependentSpan,
    IndefiniteLattice,
    NotRootGenerated,
    NotIsotropic,
    TooLarge,
    TooManyVectors,
    CrossCheckFailed,
    BadSplitting,
    Not2Elementary,
    DoesNotFit,
    NoRepresentation,
    NotAHassettDiscriminant,
    UnknownLattice,
    basic_invariants,
    discriminant_group,
    discriminant_form,
    discriminant_bilinear_form,
    divisibility,
    rescale,
    direct_sum,
    orthogonal_complement,
    saturation,
    lattice_from_json,
    lattice_to_json,
)
from .shortvec import (
    NormSlice,
    enumerate_by_norm,
    vectors_of_norm,
    root_count,
    ade_root_number,
    identify_root_lattice,
)
from .glue import (
    GlueSubgroup,
    Overlattice,
    GlueDecomposition,
    glue_subgroup,
    trivial_glue,
    isotropic_elements,
    overlattice_from_glue,
    glue_group,
    enumerate_even_overlattices,
)
from .classify import (
    TwoElemInvariants,
    two_elementary_invariants,
    two_elementary_exists,
    p_elementary_hyperbolic_exists,
    ComplementProfile,
    unimodular_complement_profile,
    phi2_no_associated_k3,
    phi3_k3_exists,
)
from .report import CheckReport, run_certificate
from .hassett import (
    Labeling,
    four_squares,
    ramanujan_rep,
    is_admissible,
    labeling_for_d,
    hassett_sweep,
)
from .geomchecks import (
    AdmissibilityRule,
    PlaneClass,
    Violation,
    RULES,
    enumerate_planes,
    admissibility_scan,
    saturation_certificate,
    scroll_screen,
    pfaffian_certificate,
    oadp_certificate,
    trivial_rationality_certificate,
    no_plane_order3_certificate,
)
from .delpezzo import (
    PicardBasis,
    Sixer,
    picard_basis,
    line_classes,
    sixers,
    double_sixes,
    intersection_lemma_verify,
)
from .checks import MANIFEST, UnknownCheck, check_ids, run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
