"""Braid closure, the moduli map onto circle diagrams, and link integrals.

Closing a braid glues top position p to bottom position p, so the link
components are the cycles of the strand permutation.  A word's chords map to
chords on the component circles: walk each component from its lowest strand,
reading the feet on every strand bottom to top, then cross the closure arc to
the next strand.  Chords among closure arcs and long chords contribute
nothing and are never produced.  The word-to-diagram index fetches each
degree's drawing table once and looks every word's layout up in it, the
lookup the circle 4T rows use too; a layout is renumbered only when it is
not a drawing as it stands.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from ._lazy import np
from .braids import BraidWord, permutation_of
from .circles import _orbit_table, _position, circle_basis
from .relations import reduce
from .transport import kontsevich_of_braid
from .words import ZERO_THRESHOLD, all_pairs


class LinkSkeleton(namedtuple("LinkSkeleton", "n_strands components")):
    """Component circles of a braid closure, strands in traversal order."""

    __slots__ = ()

    @property
    def n_components(self):
        return len(self.components)


def closure_skeleton(word: BraidWord) -> LinkSkeleton:
    """Cycles of the braid permutation, each from its lowest strand."""
    return LinkSkeleton(word.n_strands, permutation_of(word).cycles())


class ClosureResult(namedtuple("ClosureResult", "skeleton series reduced")):
    """Dense series over circle_basis(components, max_degree), raw and reduced."""

    __slots__ = ()


@lru_cache(maxsize=64)
def _tau_index(n_strands, max_degree, cycles):
    """Graded circle-basis position of tau of each word of basis_words, read-only.

    Words are grown one top chord at a time in basis order; feet[s] lists
    the heights of the chords with a foot on strand s + 1, bottom first.
    """
    pairs = [(i - 1, j - 1) for i, j in all_pairs(n_strands)]
    level = [((),) * n_strands]
    index = []
    offset = 0
    for height in range(max_degree + 1):
        basis, drawings = _orbit_table(len(cycles), height)
        if height:
            grown = []
            for feet in level:
                for i, j in pairs:
                    feet_up = list(feet)
                    feet_up[i] += (height - 1,)
                    feet_up[j] += (height - 1,)
                    grown.append(feet_up)
            level = grown
        for feet in level:
            layout = []
            for cycle in cycles:
                layout.extend(h for s in cycle for h in feet[s - 1])
                layout.append(-1)
            index.append(offset + _position(drawings, tuple(layout)))
        offset += len(basis)
    out = np.array(index, dtype=np.intp)
    out.flags.writeable = False
    return out


def _degree_of(n_strands, size):
    """max_degree of a dense vector of this size over basis_words(n_strands, .)."""
    n_pairs = n_strands * (n_strands - 1) // 2
    total, block, degree = 1, 1, 0
    while total < size:
        block *= n_pairs
        total += block
        degree += 1
    if total != size:
        raise ValueError(f"{size} coefficients do not fill a word basis on {n_strands} strands")
    return degree


def tau_project(coefficients, word: BraidWord) -> np.ndarray:
    """Send braid words to diagrams on the closure's component circles.

    The k-th chord of a word (in height order) puts one foot on the circle of
    each strand it touches; feet along one circle follow the component
    traversal and, within a strand, increasing height.  Linear in the
    coefficients; rotated drawings of one diagram share its basis position.

    coefficients is a dense series over basis_words (as kontsevich_of_braid
    returns it), projected as given, so zero the terms a threshold drops
    first.  Every basis word goes to one diagram through an index cached
    per (N, M, cycles), and coefficients are summed per diagram in basis
    order into a dense series over circle_basis(components, M).
    """
    max_degree = _degree_of(word.n_strands, len(coefficients))
    skeleton = closure_skeleton(word)
    index = _tau_index(word.n_strands, max_degree, skeleton.components)
    size = len(circle_basis(skeleton.n_components, max_degree))
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, coefficients.real, size)
    out.imag = np.bincount(index, coefficients.imag, size)
    return out


def close_braid(coefficients, word: BraidWord, zero_threshold=ZERO_THRESHOLD) -> ClosureResult:
    """Project a braid's dense series onto its closure's circles, raw and reduced.

    Zero the braid terms a threshold drops first, as for tau_project;
    zero_threshold applies to the circle series reduce takes and returns.
    """
    skeleton = closure_skeleton(word)
    circle_series = tau_project(coefficients, word)
    max_degree = _degree_of(word.n_strands, len(coefficients))
    reduced = reduce(circle_series, ("circles", skeleton.n_components), max_degree, zero_threshold)
    return ClosureResult(skeleton, circle_series, reduced)


def kontsevich_link(word: BraidWord, max_degree: int) -> ClosureResult:
    """Braid-holonomy part of the link integral, raw and reduced.

    The braid's series is kontsevich_of_braid(word, max_degree); its terms
    below ZERO_THRESHOLD are dropped before the projection.  Top and bottom
    closure-arc contributions are not grafted on, so use the result for
    quantities insensitive to them (linking numbers, framing-killed terms,
    comparisons of closures of equal braids).
    """
    holonomy = kontsevich_of_braid(word, max_degree).tolist()
    kept = np.array([c if abs(c) >= ZERO_THRESHOLD else 0j for c in holonomy])
    return close_braid(kept, word)
