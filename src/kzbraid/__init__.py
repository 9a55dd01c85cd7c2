"""Degree-truncated Kontsevich integrals of braids and their closures.

The public names below are resolved on first access (PEP 562), each from
its module, which runs then; importing the package registers the modules
but runs none of them.  `kzbraid.transport` is the function, as the name
table says, not the module.  A CLI command runs only the modules it uses:
`--help` none besides `cli`, `dims` `relations`, `words` (and `circles` on
circles), `compute` and `verify` `braids`, `transport`, `words` (and
`relations` to reduce; `compute` also `_text`, which writes its output),
`compute --close` all; `_lazy` lists them.
"""

from ._lazy import _lazy_module

_EXPORTS = {
    "braids": (
        "BraidParseError",
        "BraidWord",
        "ConfigLoop",
        "Permutation",
        "parse_braid_word",
        "permutation_of",
        "realize",
    ),
    "circles": (
        "MAX_CIRCLE_CELLS",
        "MAX_CIRCLE_MATCHINGS",
        "check_circle_budget",
        "circle_basis",
        "circle_series_to_json_dict",
        "enumerate_circle_diagrams",
    ),
    "closure": (
        "ClosureResult",
        "LinkSkeleton",
        "closure_skeleton",
        "kontsevich_link",
        "tau_project",
    ),
    "relations": (
        "RelationSet",
        "circle_relations",
        "free_positions",
        "horizontal_relations",
        "quotient_dimension",
        "reduce",
    ),
    "transport": (
        "TransportError",
        "TransportResult",
        "abelian_holonomy",
        "kontsevich_of_braid",
        "simplex_oracle",
        "symmetrized",
        "transport",
    ),
    "words": (
        "MAX_BASIS_WORDS",
        "ZERO_THRESHOLD",
        "all_pairs",
        "basis_words",
        "check_word_budget",
        "enumerate_words",
        "relabel_strands",
        "series_product",
        "series_to_json_dict",
    ),
}
# public name -> its module, registered but not run (see _lazy)
_MODULES = {
    name: _lazy_module(f"{__name__}.{module}") for module, names in _EXPORTS.items() for name in names
}
__all__ = list(_MODULES)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here, so a name replaced on its module reads the same here
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_MODULES[name], name)


def __dir__():
    return sorted({*globals(), *__all__})
