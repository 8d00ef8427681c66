"""Constructive combinatorics for two-sided located words: Schreier
families over Cantor normal form ordinals, the word substitution algebra,
tuple-family closures with Cantor-Bendixson indices, the exact codec
between rationals and words, and desk-scale partition witness search.

Ordinals and Schreier families load with the package; every other layer
builds on them.  The upper layers, `words`, `families`, `rationals` and
`search`, load when one of their names, or the layer itself, is first
read, so a process that never reads them never loads them.
"""

from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    classify,
    compare,
    format_ordinal,
    from_int,
    fundamental_sequence,
    omega_power,
    parse_ordinal,
    predecessor_sequence,
)
from .schreier import (
    CanonicalDecomposition,
    SchreierError,
    canonical_decompose,
    enumerate_members,
    is_member,
    is_proper_initial,
    restriction_check,
)

# the public names of the upper layers, by layer
_LAZY = {
    "words": (
        "ABS", "VARIABLE", "DominationProfile", "LocatedWord", "OrderlyTuple", "WordError",
        "concat", "extracted_sets", "format_word", "h_map", "is_extraction", "make_tuple",
        "make_word", "merge", "pair_enumeration", "parse_profile", "parse_word",
        "project_positive", "rel_r1", "rel_r2", "substitute", "substitute_nat",
    ),
    "families": (
        "FamilyError", "WordFamily", "cb_derivative", "cb_index", "family_at", "family_minus",
        "family_of", "hereditary_closure", "l_xi_member", "largest_hereditary",
        "serialize_tuple", "set_family_cb_index", "tree_closure",
    ),
    "rationals": (
        "RationalCodecError", "decode", "encode", "evaluate", "integer_alt_factorial",
        "q_xi_member", "rational_pattern", "rational_precedes",
    ),
    "search": (
        "Coloring", "INT_LINEAR", "SearchCapExceeded", "SearchError", "SearchReport",
        "SearchWindow", "SemigroupSpec", "fs_enumerate", "fs_two_sided", "hj_witness_search",
        "length_slice", "psi_map", "semigroup_pattern", "verify_witness", "verify_xi_witness",
        "word_length", "xi_witness_search", "z_fin_set_less",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAZY.items() for name in names}

# the eager names, the eager layers among them, then the table's
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAZY, *_LAYER_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    """An upper layer, or one of its public names, loading the layer on
    first read; a name read once is kept in the package."""
    layer = name if name in _LAZY else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    module = import_module("." + layer, __name__)
    if layer == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAYER_OF})
