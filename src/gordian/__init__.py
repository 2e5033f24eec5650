"""Symbolic rewriting for positive braid words.

Five traceable rules — distant swap, neighbor braid, conjugate, destabilize,
crossing change — drive everything here: exact unknotting of positive braid
knots, machine-checkable certificates that one torus knot lies on a minimal
unknotting sequence of another, an invariant oracle (Alexander polynomial via
the reduced Burau representation), and exhaustive enumeration of positive
braid knots by unknotting number.
"""

from .adjacency import (
    AdjacencyCertificate,
    CatalogAnswer,
    CertificateCheck,
    CLAIMED,
    NOT_COVERED,
    adjacency_2_from_4,
    adjacency_3_from_4,
    adjacency_catalog,
    adjacency_ci,
    adjacency_cin,
    delete_link_subword,
    parse_certificate,
    serialize_certificate,
    strip_top_strand,
    verify_certificate,
)
from .alexander import (
    LaurentPoly,
    alexander,
    torus_alexander,
)
from .enumeration import (
    EnumerationResult,
    KnotClass,
    enumerate_positive_knots,
    minimize_word,
    positive_path_search,
    verify_positive_path,
)
from .errors import (
    BlockedByFreeStrand,
    BraidError,
    BudgetExceeded,
    DomainError,
    IllegalStep,
    NoSingleGenerator,
    NotFoundWithinBudget,
    ParseError,
    TraceCorrupt,
)
from .rules import (
    CONJUGATE,
    CROSSING_CHANGE,
    DESTABILIZE,
    DISTANT_SWAP,
    NEIGHBOR_BRAID,
    RewriteStep,
    RewriteTrace,
    TraceBuilder,
    apply_step,
    legal_moves,
    parse_trace,
    replay,
    serialize_trace,
)
from .unknotting import (
    reduce_single_generator,
    unknot,
    unknotting_sequence,
)
from .words import (
    BraidWord,
    TorusParams,
    parse_word,
    torus_braid,
    unknotting_number,
)

__all__ = [
    # words
    "BraidWord",
    "TorusParams",
    "parse_word",
    "torus_braid",
    "unknotting_number",
    # rules
    "CONJUGATE",
    "CROSSING_CHANGE",
    "DESTABILIZE",
    "DISTANT_SWAP",
    "NEIGHBOR_BRAID",
    "RewriteStep",
    "RewriteTrace",
    "TraceBuilder",
    "apply_step",
    "legal_moves",
    "parse_trace",
    "replay",
    "serialize_trace",
    # invariants
    "LaurentPoly",
    "alexander",
    "torus_alexander",
    # unknotting
    "reduce_single_generator",
    "unknot",
    "unknotting_sequence",
    # adjacency
    "AdjacencyCertificate",
    "CatalogAnswer",
    "CertificateCheck",
    "CLAIMED",
    "NOT_COVERED",
    "adjacency_2_from_4",
    "adjacency_3_from_4",
    "adjacency_catalog",
    "adjacency_ci",
    "adjacency_cin",
    "delete_link_subword",
    "parse_certificate",
    "serialize_certificate",
    "strip_top_strand",
    "verify_certificate",
    # enumeration and search
    "EnumerationResult",
    "KnotClass",
    "enumerate_positive_knots",
    "minimize_word",
    "positive_path_search",
    "verify_positive_path",
    # errors
    "BlockedByFreeStrand",
    "BraidError",
    "BudgetExceeded",
    "DomainError",
    "IllegalStep",
    "NoSingleGenerator",
    "NotFoundWithinBudget",
    "ParseError",
    "TraceCorrupt",
]
