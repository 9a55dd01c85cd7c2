"""Degree-truncated Kontsevich integrals of braids and their closures."""

from .braids import (
    BraidParseError,
    BraidWord,
    ConfigLoop,
    Permutation,
    min_separation,
    parse_braid_word,
    permutation_of,
    realize,
    sample,
)
from .circles import (
    MAX_CIRCLE_MATCHINGS,
    CircleDiagram,
    CircleSeries,
    CircleSkeleton,
    check_circle_budget,
    circle_series_from_json_dict,
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
    NormalFormSeries,
    RelationSet,
    circle_relations,
    horizontal_relations,
    quotient_dimension,
    reduce,
)
from .transport import (
    TransportError,
    TransportResult,
    abelian_holonomy,
    braid_holonomy,
    kontsevich_of_braid,
    simplex_oracle,
    symmetrized,
    transport,
)
from .words import (
    MAX_BASIS_WORDS,
    ZERO_THRESHOLD,
    ChordPair,
    HorizontalSeries,
    HorizontalWord,
    all_pairs,
    basis_words,
    check_word_budget,
    enumerate_words,
    ess_product,
    relabel_strands,
    series_distance,
    series_from_dense,
    series_from_json_dict,
    series_json_text,
    series_product,
    series_to_dense,
    series_to_json_dict,
)

__version__ = "0.1.0"
