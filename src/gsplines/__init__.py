"""Exact spline modules on edge-labeled graphs.

The package computes rings/modules of generalized splines with exact
arithmetic, restricts them along localizations, reports the combinatorial
gluing structure of the associated spectrum, and checks a local-freeness
certificate.  See the README for the CLI and file formats.
"""

from .errors import (
    ComputationError,
    InputError,
    InternalError,
    InvalidValue,
    MixedRings,
    NoSuchEdge,
    NoSuchVertex,
    ParseError,
    SchemaError,
    SplineError,
    TooLarge,
    UnknownVariable,
    UnknownVertex,
    UnrelatedGraphs,
    UnsupportedRing,
)
from .graphs import (
    Classification,
    Edge,
    EdgeLabeledGraph,
    RestrictionOutcome,
    classify,
    connected_components,
    contract_edge,
    delete_edge,
    delete_vertex,
    normalize,
    reduce_mod,
    restrict,
)
from .modules import (
    EdgeEqualizer,
    LeafPullback,
    LimitTrace,
    MembershipResult,
    Spline,
    SplineModule,
    bruteforce_values,
    enumerate_bruteforce,
    flow_up_normalize,
    gkm_check,
    incremental_assembled,
    localize_module,
    membership,
    replay_trace,
    solve_direct,
    spline_set,
)
from .certificates import (
    BasicOpen,
    CertificateReport,
    CoverStatus,
    check_cover,
    classify_restrictions,
    verify_certificate,
)
from .parsing import parse_element
from .spectrum import (
    BaseChangeCheck,
    SpectrumDiff,
    SpectrumReport,
    base_change_commutes,
    fiber_over,
    spectrum_diff,
    spectrum_report,
)
from .rings import (
    Factor,
    FactoredElement,
    Poly,
    Residue,
    RingDescriptor,
    exact_divide,
    extended_gcd,
    factor_integer,
    format_element,
    format_factored,
    gcd,
    integer_factors,
    is_associate,
    is_prime,
    make_factor,
    normalized_associate,
    trivializes,
)

__version__ = "0.1.0"
