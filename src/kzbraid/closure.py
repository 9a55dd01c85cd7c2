"""Braid closure, the moduli map onto circle diagrams, and link integrals.

Closing a braid glues top position p to bottom position p, so the link
components are the cycles of the strand permutation.  A word's chords map to
chords on the component circles: walk each component from its lowest strand,
reading the feet on every strand bottom to top, then cross the closure arc to
the next strand.  Chords among closure arcs and long chords contribute
nothing and are never produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .braids import BraidWord, permutation_of
from .circles import CircleSeries, enumerate_circle_diagrams, orbit_key, orbit_positions
from .relations import NormalFormSeries, reduce
from .transport import kontsevich_of_braid
from .words import ZERO_THRESHOLD, HorizontalSeries, all_pairs, series_to_dense


@dataclass(frozen=True)
class LinkSkeleton:
    """Component circles of a braid closure, strands in traversal order."""

    n_strands: int
    components: tuple

    @property
    def n_components(self):
        return len(self.components)

    def component_of(self, strand):
        for index, cycle in enumerate(self.components):
            if strand in cycle:
                return index
        raise ValueError(f"strand {strand} outside skeleton")


def closure_skeleton(word: BraidWord) -> LinkSkeleton:
    """Cycles of the braid permutation, each from its lowest strand."""
    return LinkSkeleton(word.n_strands, permutation_of(word).cycles())


@dataclass(frozen=True)
class ClosureResult:
    skeleton: LinkSkeleton
    series: CircleSeries
    reduced: NormalFormSeries


@lru_cache(maxsize=None)
def _circle_basis(n_circles, max_degree):
    """The graded circle basis: enumerate_circle_diagrams(q, m), m <= max_degree, concatenated."""
    return tuple(d for m in range(max_degree + 1) for d in enumerate_circle_diagrams(n_circles, m))


@lru_cache(maxsize=1 << 16)
def _layout_position(layout):
    """Position of the diagram drawn by a layout in its degree's basis.

    layout lists each circle's chord labels followed by -1, labels numbered
    by first appearance, so braid words whose feet fall alike share an entry.
    """
    circles = [[]]
    for label in layout[:-1]:
        if label < 0:
            circles.append([])
        else:
            circles[-1].append(label)
    return orbit_positions(len(circles), (len(layout) - len(circles)) // 2)[orbit_key(circles)]


@lru_cache(maxsize=64)
def _tau_index(n_strands, max_degree, cycles):
    """Graded circle-basis position of tau of each word of basis_words, read-only.

    Words are grown one top chord at a time in basis order; feet[s] lists
    the heights of the chords with a foot on strand s + 1, bottom first.
    """
    pairs = [(p.i - 1, p.j - 1) for p in all_pairs(n_strands)]
    level = [((),) * n_strands]
    index = []
    offset = 0
    for height in range(max_degree + 1):
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
            first, layout = {}, []
            for cycle in cycles:
                layout.extend(first.setdefault(h, len(first)) for s in cycle for h in feet[s - 1])
                layout.append(-1)
            index.append(offset + _layout_position(tuple(layout)))
        offset += len(enumerate_circle_diagrams(len(cycles), height))
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


def tau_project(series, word: BraidWord, zero_threshold=None) -> CircleSeries:
    """Send braid words to diagrams on the closure's component circles.

    The k-th chord of a word (in height order) puts one foot on the circle of
    each strand it touches; feet along one circle follow the component
    traversal and, within a strand, increasing height.  Linear in the
    coefficients; canonical rotations applied by construction.

    series is a HorizontalSeries or its dense vector over basis_words (as
    braid_holonomy returns it); a vector is projected as given, so zero the
    terms a threshold drops first.  Every basis word goes to one diagram
    through an index cached per (N, M, cycles), and coefficients are summed
    per diagram in basis order.  The circle series takes zero_threshold,
    by default the HorizontalSeries' own or ZERO_THRESHOLD; diagrams no
    term reaches, or whose terms cancel exactly, are not stored.
    """
    if isinstance(series, HorizontalSeries):
        if series.n_strands != word.n_strands:
            raise ValueError("series skeleton does not match the braid word")
        coefficients, max_degree = series_to_dense(series), series.max_degree
        if zero_threshold is None:
            zero_threshold = series.zero_threshold
    else:
        coefficients = series
        max_degree = _degree_of(word.n_strands, len(coefficients))
    if zero_threshold is None:
        zero_threshold = ZERO_THRESHOLD
    skeleton = closure_skeleton(word)
    index = _tau_index(word.n_strands, max_degree, skeleton.components)
    basis = _circle_basis(skeleton.n_components, max_degree)
    real = np.bincount(index, coefficients.real, len(basis))
    imag = np.bincount(index, coefficients.imag, len(basis))
    live = np.flatnonzero((real != 0.0) | (imag != 0.0)).tolist()
    values = zip(real[live].tolist(), imag[live].tolist())
    terms = {basis[k]: complex(r, i) for k, (r, i) in zip(live, values)}
    return CircleSeries(skeleton.n_components, max_degree, terms, zero_threshold)


def close_braid(braid_series, word: BraidWord, zero_threshold=None) -> ClosureResult:
    """Project a braid's series onto its closure's circles, raw and reduced.

    braid_series and zero_threshold are as for tau_project.
    """
    circle_series = tau_project(braid_series, word, zero_threshold)
    return ClosureResult(closure_skeleton(word), circle_series, reduce(circle_series))


def kontsevich_link(word: BraidWord, max_degree: int, steps: int = 512) -> ClosureResult:
    """Braid-holonomy part of the link integral, raw and reduced.

    Top and bottom closure-arc contributions are not grafted on, so use the
    result for quantities insensitive to them (linking numbers, framing-killed
    terms, comparisons of closures of equal braids).
    """
    return close_braid(kontsevich_of_braid(word, max_degree, steps), word)
