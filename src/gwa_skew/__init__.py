"""Exact-arithmetic generalized Weyl algebras over K[h] and their skew
derivations, with machine-checkable orthogonality certificates."""

from .poly import AffineAuto, BezoutWitness, Poly, extended_gcd, is_root_of_unity
from .gwa import (
    AlgebraMismatch,
    Grading,
    GwaAlgebra,
    GwaElement,
    graded_degree,
    make_grading,
    sigma_mu,
    xy_symmetry,
)
from .derivations import (
    ClassificationError,
    DerivationError,
    FiniteOrderData,
    QCheckResult,
    SkewDerivation,
    TwistedPolyDerivation,
    WeightData,
    build_derivation,
    build_finite_order,
    check_relations,
    classify_positive,
    degree_profile,
    derivation_from_xy,
    derivation_through_symmetry,
    elementary_derivation,
    inner_derivation,
    inner_witness,
    q_check,
)
from .disc_plane import (
    SigmaQData,
    build_sigma_q,
    classify_sigma_q,
    diagonal_derivation,
    disc_commutation_identities,
    h_power_derivation,
    q_int,
    sigma_q_dimension,
    to_monomial_basis,
    yx_monomial,
)
from .ortho import (
    CertificateError,
    HypothesisCheck,
    OrthoCertificate,
    PairConditionReport,
    PairHypothesisReport,
    certificate_from_ideal,
    disc_pair,
    elementary_pair,
    pair_conditions,
    q_kl,
    triples_to_pairs,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
