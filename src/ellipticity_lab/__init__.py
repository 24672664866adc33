"""Certification toolkit for strong ellipticity of fourth-order tensors.

The form under study is the biquadratic A x^2 y^2 = a_ijkl x_i x_j y_k y_l.
Nonnegativity of its contracted matrix on all of R^3 (M-PSD) and strict
positivity (M-PD) are decided three independent ways: alternating
projections against the S-PSD cone, exact structured-decomposition case
analysis, and a brute-force sphere-grid minimizer used as a cross-check.
"""

from .cases import (
    CASE_MISMATCH,
    CASE_MPD,
    CASE_MPSD,
    CASE_NOT_MPSD,
    CaseReport,
    CaseStructure,
    StructuredDecomposition,
    SupEtaResult,
    case1_positive_redecomposition,
    check_case,
    check_case1,
    check_case2,
    check_case3,
    choi_lam_case2_decomposition,
    detect_rank_one,
    require_decomposition_of,
    spectral_decomposition,
    sup_eta,
)
from .errors import (
    AsymmetricInput,
    CaseShapeError,
    DecompositionMismatch,
    EigensolverFailure,
    EllipticityError,
    EmptyDomain,
    InvalidEpsilon,
    NonFiniteEntries,
    ParseError,
    SingularDirection,
    SoundnessTripwire,
    SymmetryViolation,
    UnknownGenerator,
)
from .io import (
    doc_to_decomposition,
    doc_to_tensor,
    dumps_report,
    load_decomposition,
    load_tensor,
    save_decomposition,
    save_tensor,
    tensor_to_doc,
)
from .oracle import (
    ORACLE_BOUNDARY,
    ORACLE_MPD_LIKELY,
    ORACLE_NOT_MPSD,
    OracleReport,
    OracleVerdict,
    grid_min_biquadratic,
    grid_top_candidates,
    oracle_verdict,
    refine_min,
)
from .pipeline import CheckReport, check
from .pocs import (
    VERDICT_FOUND,
    VERDICT_GAP,
    VERDICT_INCONCLUSIVE,
    VERDICT_MARGIN,
    CertifyResult,
    PocsOptions,
    PocsReport,
    certify_mpd,
    certify_mpsd,
    project_S,
    project_T,
    run_pocs,
)
from .spectral import EigPair, min_eigenvalue, psd_project, sym_eig
from .spheres import fibonacci_hemisphere, fibonacci_sphere
from .tensors import (
    Elast4,
    Pair4,
    biquadratic,
    contract_xx,
    contract_yy,
    fold,
    make_elast4,
    make_pair4,
    orbit_spread,
    random_spd_tensor,
    random_tensor,
    symmetrize_pairs,
    tensor_choi_lam,
    tensor_e,
    tensor_from_rank_one_terms,
    tensor_isotropic,
    tensor_two_squares,
    unfold,
    unvec,
    vec,
)

__version__ = "0.1.0"
