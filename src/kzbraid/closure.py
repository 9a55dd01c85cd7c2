"""Braid closure, the moduli map onto circle diagrams, and link integrals.

Closing a braid glues top position p to bottom position p, so the link
components are the cycles of the strand permutation.  A word's chords map to
chords on the component circles: walk each component from its lowest strand,
reading the feet on every strand bottom to top, then cross the closure arc to
the next strand.  Chords among closure arcs and long chords contribute
nothing and are never produced.  The word-to-diagram index is built in
numpy for all words of a degree at once: their feet are sorted into circle
layouts, the labels numbered by first appearance, and every drawing is
looked up in the degree's drawing table, the table the circle 4T rows use.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from ._lazy import np
from .braids import BraidWord, permutation_of
from .circles import _orbit_table, circle_basis
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

    A degree's words are handled at once: every foot, and a -1 closing each
    circle, gets the key (place of its strand along the circles, height),
    so sorting a word's keys lays its feet out circle by circle; each chord
    is labelled by the rank of its lower foot, which numbers the labels by
    first appearance, and the drawing is looked up in the degree's table.
    """
    pairs = np.array(all_pairs(n_strands)) - 1
    place = np.empty(n_strands, dtype=np.intp)
    place[np.concatenate(cycles) - 1] = np.arange(n_strands)
    ends = np.cumsum([len(cycle) for cycle in cycles])
    chords = np.zeros((1, 0), dtype=np.intp)  # pair index of each word's chords, bottom first
    index, offset = [], 0
    for height in range(max_degree + 1):
        basis, drawings = _orbit_table(len(cycles), height)
        if height:
            top = np.tile(np.arange(len(pairs)), len(chords))
            chords = np.column_stack([np.repeat(chords, len(pairs), axis=0), top])
        # the feet of chord h are columns 2h and 2h + 1; a circle's -1 sorts
        # after the feet of its last strand
        feet = place[pairs[chords]] * (height + 1) + np.arange(height)[:, None]
        closing = np.broadcast_to(ends * (height + 1) - 1, (len(chords), len(cycles)))
        keys = np.hstack([feet.reshape(len(chords), -1), closing])
        # by first appearance along the circles, chord h is labelled by the rank of its lower foot
        rank = feet.min(axis=2).argsort(axis=1).argsort(axis=1)
        labels = np.hstack([np.repeat(rank, 2, axis=1), np.full((len(chords), len(cycles)), -1)])
        layouts = np.take_along_axis(labels, keys.argsort(axis=1), axis=1).tolist()
        index += map(offset.__add__, map(drawings.__getitem__, map(tuple, layouts)))
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


def tau_project(coefficients, skeleton: LinkSkeleton) -> np.ndarray:
    """Send braid words to diagrams on the closure's component circles.

    The k-th chord of a word (in height order) puts one foot on the circle of
    each strand it touches; feet along one circle follow the component
    traversal and, within a strand, increasing height.  Linear in the
    coefficients; rotated drawings of one diagram share its basis position.

    coefficients is a dense series over basis_words (as kontsevich_of_braid
    returns it), projected as given, so zero the terms a threshold drops
    first.  Every basis word goes to one diagram through an index cached
    per (N, M, cycles), and coefficients are summed per diagram in basis
    order into a dense series over circle_basis(components, M).  skeleton
    is the braid's closure_skeleton.
    """
    max_degree = _degree_of(skeleton.n_strands, len(coefficients))
    index = _tau_index(skeleton.n_strands, max_degree, skeleton.components)
    size = len(circle_basis(skeleton.n_components, max_degree))
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, coefficients.real, size)
    out.imag = np.bincount(index, coefficients.imag, size)
    return out


def close_braid(coefficients, skeleton: LinkSkeleton, zero_threshold=ZERO_THRESHOLD) -> ClosureResult:
    """Project a braid's dense series onto its closure's circles, raw and reduced.

    skeleton is the braid's closure_skeleton.  Zero the braid terms a
    threshold drops first, as for tau_project; zero_threshold applies to
    the circle series reduce takes and returns.
    """
    circle_series = tau_project(coefficients, skeleton)
    max_degree = _degree_of(skeleton.n_strands, len(coefficients))
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
    return close_braid(kept, closure_skeleton(word))
