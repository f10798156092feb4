"""Exact commutative-algebra kernel with certificate-producing checks
for height-2 complete-intersection questions."""

from .poly import (
    GF,
    QQ,
    MonomialOrder,
    PolyParseError,
    Polynomial,
    RingMismatchError,
    RingSpec,
)
from .groebner import (
    Budget,
    BudgetExceededError,
    Budgets,
    IdealHandle,
    InputError,
    gb_hash,
    module_gb,
    module_syzygies,
    syzygies,
)
from .ideals import (
    DimensionReport,
    RadicalEqualityCertificate,
    dimension_height,
    eliminate,
    intersect,
    quotient,
    radical_equal,
    radical_member,
    saturate,
)
from .homology import (
    ContractionMap,
    ExteriorForm,
    KoszulComplex,
    PresentationMatrix,
    conormal_presentation,
    ext_module,
    fitting_ideals,
    free_resolution,
    koszul2_exactness,
    koszul_complex_build,
    koszul_contraction,
    projective_rank_certificate,
    wedge,
)
from .pipeline import (
    CICertificate,
    Inconclusive,
    LCIProxyCertificate,
    RegSeqCertificate,
    STCICertificate,
    ci_from_free_conormal,
    is_nzd,
    is_regular_sequence,
    lci_certificate,
    mod_square_generation,
    regularize_generators,
    stci_search,
    stci_verify,
)
from .dsl import parse_session
from .cli import run_session

__version__ = "0.1.0"
