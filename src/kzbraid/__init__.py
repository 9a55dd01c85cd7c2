"""Degree-truncated Kontsevich integrals of braids and their closures."""

from .braids import (
    BraidParseError,
    BraidWord,
    ConfigLoop,
    Permutation,
    parse_braid_word,
    permutation_of,
    realize,
)
from .circles import (
    MAX_CIRCLE_CELLS,
    MAX_CIRCLE_MATCHINGS,
    check_circle_budget,
    circle_basis,
    circle_series_json_text,
    circle_series_to_json_dict,
    enumerate_circle_diagrams,
)
from .closure import (
    ClosureResult,
    LinkSkeleton,
    close_braid,
    closure_skeleton,
    kontsevich_link,
    tau_project,
)
from .relations import (
    RelationSet,
    circle_relations,
    free_positions,
    horizontal_relations,
    quotient_dimension,
    reduce,
)
from .transport import (
    TransportError,
    TransportResult,
    abelian_holonomy,
    kontsevich_of_braid,
    simplex_oracle,
    symmetrized,
    transport,
)
from .words import (
    MAX_BASIS_WORDS,
    ZERO_THRESHOLD,
    all_pairs,
    basis_words,
    check_word_budget,
    enumerate_words,
    relabel_strands,
    series_json_text,
    series_product,
    series_to_json_dict,
)

__version__ = "0.1.0"
