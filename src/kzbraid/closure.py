"""Braid closure, the moduli map onto circle diagrams, and link integrals.

Closing a braid glues top position p to bottom position p, so the link
components are the cycles of the strand permutation: closure_skeleton
returns them as a tuple of strand tuples, the argument every function here
takes.  A word's chords map to chords on the component circles: walk each
component from its lowest strand, reading the feet on every strand bottom
to top, then cross the closure arc to the next strand.  Chords among
closure arcs and long chords contribute nothing and are never produced.
The word-to-diagram index is built in numpy for all words of a degree at
once: their feet are sorted into circle layouts, the labels numbered by
first appearance, and every drawing is looked up in the degree's drawing
table, the table the circle 4T rows use.  kontsevich_link projects a
thresholded braid series and returns the reduced link.
"""

from __future__ import annotations

from functools import lru_cache

from ._lazy import np
from .braids import BraidWord, permutation_of
from .circles import _orbit_table, circle_basis
from .relations import reduce
from .words import basis_size, pair_ends


def closure_skeleton(word: BraidWord) -> tuple:
    """The closure's components: the cycles of permutation_of(word), sorted, each from its lowest strand."""
    images, seen, cycles = permutation_of(word), set(), []
    for start in range(1, len(images) + 1):
        cycle, strand = [], start
        while strand not in seen:
            seen.add(strand)
            cycle.append(strand)
            strand = images[strand - 1]
        if cycle:
            cycles.append(tuple(cycle))
    return tuple(cycles)


@lru_cache(maxsize=64)
def _tau_index(max_degree, cycles):
    """Graded circle-basis position of tau of each word of basis_words(N, max_degree), read-only.

    N counts the strands in the cycles.  A degree's words are handled at
    once: every foot, and a -1 closing each circle, gets the key (place of
    its strand along the circles, height), so sorting a word's keys lays its
    feet out circle by circle; each chord is labelled by the rank of its
    lower foot, which numbers the labels by first appearance, and the
    drawing is looked up in the degree's table.
    """
    n_strands = sum(map(len, cycles))
    pairs = pair_ends(n_strands if max_degree else 2).T  # degree 0 reads no pair
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


def tau_project(coefficients, cycles, max_degree: int) -> np.ndarray:
    """Send braid words to diagrams on the closure's component circles.

    cycles lists the components, each a tuple of strands in traversal order
    (closure_skeleton(word)), and must partition the strands 1..N.  The k-th
    chord of a word (in height order) puts one foot on the circle of each
    strand it touches; feet along one circle follow the cycle and, within a
    strand, increasing height.  Linear in the coefficients; rotated drawings
    of one diagram share its basis position.

    coefficients is a dense series over basis_words(N, max_degree) (as
    kontsevich_of_braid returns it), projected as given, so zero the terms
    a threshold drops first.  Every basis word goes to one diagram through
    an index cached per (M, cycles), and coefficients are summed per diagram
    in basis order into a dense series over circle_basis(len(cycles), M).
    """
    n_strands = sum(map(len, cycles))
    if n_strands < 2 or sorted(strand for cycle in cycles for strand in cycle) != list(range(1, n_strands + 1)):
        raise ValueError(f"cycles {cycles} do not partition the strands 1..N of a braid, N >= 2")
    if len(coefficients) != basis_size(n_strands * (n_strands - 1) // 2, max_degree):
        raise ValueError(f"{len(coefficients)} coefficients do not fill the word basis to degree {max_degree}")
    index = _tau_index(max_degree, cycles)
    size = len(circle_basis(len(cycles), max_degree))
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, coefficients.real, size)
    out.imag = np.bincount(index, coefficients.imag, size)
    return out


def kontsevich_link(listed, cycles, max_degree: int, zero_threshold: float) -> np.ndarray:
    """Braid-holonomy part of the link integral, reduced: what compute --close writes.

    listed is the braid's kontsevich_of_braid series with every term of
    modulus below zero_threshold set to 0, and cycles its closure_skeleton;
    reduce thresholds the circle series at the same.  Top and bottom
    closure-arc contributions are not grafted on, so use the result for
    quantities insensitive to them (linking numbers, framing-killed terms,
    comparisons of closures of equal braids).
    """
    series = tau_project(listed, cycles, max_degree)
    return reduce(series, ("circles", len(cycles)), max_degree, zero_threshold)
