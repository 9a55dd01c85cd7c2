"""Reference diagrams, canonical forms and basis orders, written independently of kzbraid.

kzbraid keeps a circle diagram as a flat drawing, the basis drawing being
the first drawing of it that its enumeration meets; these helpers restate
what that must equal: CircleDiagram is the validating (slots, chords)
record, the canonical drawing has the least chord tuple over independent
circle rotations, bases sort by (degree, slots, chords), words, tuples of
strand pairs (i, j) with i < j, by (degree, chords).  orbit_table_reference
files every drawing of q circles under its diagram's basis position, and
tau_index_reference reads the closure's index off it word by word.
link_of and projection_of are the calls into kzbraid: the tests' route to
its closure pipeline, composed as compute --close composes it.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product
from operator import itemgetter

import numpy as np

from kzbraid.closure import closure_skeleton, kontsevich_link, tau_project
from kzbraid.transport import kontsevich_of_braid
from kzbraid.words import ZERO_THRESHOLD, moduli


class CircleDiagram(namedtuple("CircleDiagram", "slots chords")):
    """Perfect matching on endpoint slots, slots[c] of them on circle c.

    chords is a sorted tuple of sorted ((circle, slot), (circle, slot))
    pairs: one drawing, unequal to its rotations.
    """

    __slots__ = ()

    def __new__(cls, slots, chords):
        slots = tuple(int(s) for s in slots)
        chords = tuple(sorted(
            tuple(sorted(((int(c1), int(s1)), (int(c2), int(s2)))))
            for (c1, s1), (c2, s2) in chords
        ))
        seen = set()
        for foot in [f for ch in chords for f in ch]:
            c, s = foot
            if not (0 <= c < len(slots)) or not (0 <= s < slots[c]):
                raise ValueError(f"endpoint {foot} outside the skeleton")
            if foot in seen:
                raise ValueError(f"endpoint {foot} used twice")
            seen.add(foot)
        if len(seen) != sum(slots):
            raise ValueError("chords must cover every slot exactly once")
        return super().__new__(cls, slots, chords)

    @classmethod
    def from_layout(cls, layout):
        """Build from per-circle lists of chord labels, each label twice."""
        positions = {}
        for c, circle in enumerate(layout):
            for s, label in enumerate(circle):
                positions.setdefault(label, []).append((c, s))
        chords = []
        for label, feet in positions.items():
            if len(feet) != 2:
                raise ValueError(f"label {label!r} appears {len(feet)} times")
            chords.append(tuple(feet))
        return cls(tuple(len(circle) for circle in layout), tuple(chords))

    @property
    def degree(self):
        return len(self.chords)

    @property
    def n_circles(self):
        return len(self.slots)

    def to_layout(self):
        """Per-circle slot lists holding the index of the owning chord."""
        layout = [[None] * n for n in self.slots]
        for idx, ((c1, s1), (c2, s2)) in enumerate(self.chords):
            layout[c1][s1] = idx
            layout[c2][s2] = idx
        return layout

    def isolated_chords(self):
        """Indices of the chords whose feet are cyclically adjacent on one circle."""
        return {
            k for k, ((c1, s1), (c2, s2)) in enumerate(self.chords)
            if c1 == c2 and s2 in ((s1 + 1) % self.slots[c1], (s1 - 1) % self.slots[c1])
        }

    def has_isolated_chord(self):
        """True when some chord's feet are cyclically adjacent on one circle."""
        return bool(self.isolated_chords())

    def __repr__(self):
        return f"<circles {self.slots} chords {self.chords}>"


def drawing_of(diagram):
    """The flat drawing of a CircleDiagram: each circle's chord labels, then -1; chord k is labeled k."""
    return tuple(label for circle in diagram.to_layout() for label in circle + [-1])


def diagram_of(drawing):
    """The CircleDiagram a flat drawing (or any flat layout) draws."""
    ends = [k for k, label in enumerate(drawing) if label < 0]
    return CircleDiagram.from_layout([drawing[start + 1:end] for start, end in zip([-1] + ends, ends)])


def _circles_of(drawing):
    """Each circle of a flat drawing: its chord labels, then its -1."""
    ends = [k for k, label in enumerate(drawing) if label < 0]
    return [drawing[start + 1:end + 1] for start, end in zip([-1] + ends, ends)]


def support_of(drawing):
    """The circles of a flat drawing that carry feet."""
    return tuple(c for c, circle in enumerate(_circles_of(drawing)) if len(circle) > 1)


def on_circles(drawing, support, n_circles):
    """A drawing of len(support) circles drawn on the circles in support of n_circles: -1 alone on each other circle."""
    circles = dict(zip(support, _circles_of(drawing)))
    return tuple(label for c in range(n_circles) for label in circles.get(c, (-1,)))


def first_appearance(layout):
    """A flat layout as a drawing: labels renumbered 0, 1, ... by first appearance, -1 kept."""
    first = {-1: -1}
    return tuple([first.setdefault(label, len(first) - 1) for label in layout])


def position(drawings, layout):
    """Basis position of a flat layout in a drawing table (drawing -> position), renumbered first."""
    return drawings[first_appearance(layout)]


def _matchings(degree):
    """Every perfect matching of 2m feet in a row, in increasing chord-tuple order, as labels then -1.

    Chords are labelled in the order of their first feet, which is first
    appearance.
    """
    def pairings(feet):
        if not feet:
            yield ()
            return
        for k in range(1, len(feet)):
            for rest in pairings(feet[1:k] + feet[k + 1:]):
                yield ((feet[0], feet[k]),) + rest

    for pairing in pairings(tuple(range(2 * degree))):
        labels = [-1] * (2 * degree + 1)
        for label, chord in enumerate(pairing):
            for foot in chord:
                labels[foot] = label
        yield tuple(labels)


def _split_table_reference(slots, degree, matchings):
    """A slot split's (basis, drawing -> position), every rotation renumbered by first appearance.

    Each rotation of a new basis drawing reads the matching through its own
    index map, and its labels are then renumbered.
    """
    starts = [sum(slots[:c]) for c in range(len(slots))]
    rotated = [
        itemgetter(*[
            k for start, n, r in zip(starts, slots, shift)
            for k in [start + (s + r) % n for s in range(n)] + [2 * degree]
        ])
        for shift in product(*(range(n) for n in slots))
    ]
    basis, drawings = [], {}
    for matching in matchings:
        drawing = rotated[0](matching)
        if drawing not in drawings:
            drawings[drawing] = len(basis)
            for rotate in rotated[1:]:
                drawings[first_appearance(rotate(matching))] = len(basis)
            basis.append(drawing)
    return basis, drawings


@lru_cache(maxsize=None)
def orbit_table_reference(n_circles, degree):
    """(basis drawings, drawing -> basis position) of the degree-m diagrams on q circles, every drawing filed.

    Every slot split, in increasing order among all (2m+1)^q tuples, takes
    the walk of its non-empty circles with a -1 at each empty circle.
    """
    matchings = tuple(_matchings(degree))
    basis, drawings, walks = [], {}, {}
    for slots in product(range(2 * degree + 1), repeat=n_circles):
        if sum(slots) != 2 * degree:
            continue
        shown = tuple(n for n in slots if n)
        if shown not in walks:
            walks[shown] = _split_table_reference(shown, degree, matchings) if degree else ([(-1,)], {(-1,): 0})
        walk_basis, walk = walks[shown]
        support, shift = tuple(c for c, n in enumerate(slots) if n), len(basis)
        basis += (on_circles(drawing, support, n_circles) for drawing in walk_basis)
        drawings.update((on_circles(drawing, support, n_circles), shift + k) for drawing, k in walk.items())
    return tuple(basis), drawings


def tau_index_reference(n_strands, max_degree, cycles):
    """closure._tau_index word by word, as a reference.

    Words are grown one top chord at a time in basis order; feet[s] lists
    the heights of the chords with a foot on strand s + 1, bottom first,
    and each layout is renumbered by first appearance and looked up.
    """
    pairs = [(i, j) for i in range(n_strands) for j in range(i + 1, n_strands)]  # 0-based, lexicographic
    level = [((),) * n_strands]
    index = []
    offset = 0
    for height in range(max_degree + 1):
        basis, drawings = orbit_table_reference(len(cycles), height)
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
            index.append(offset + position(drawings, layout))
        offset += len(basis)
    return np.array(index, dtype=np.intp)


def canonical(diagram):
    """The drawing of diagram whose chord tuple is least over rotations of every circle."""
    slots = diagram.slots
    best = min(
        tuple(
            sorted(
                tuple(sorted((c, (s - shifts[c]) % slots[c]) for c, s in chord))
                for chord in diagram.chords
            )
        )
        for shifts in product(*(range(max(n, 1)) for n in slots))
    )
    return CircleDiagram(slots, best)


def rotations(diagram):
    """Every drawing of diagram under independent rotations of its circles."""
    slots = diagram.slots
    return {
        CircleDiagram(
            slots,
            tuple(
                tuple((c, (s + shifts[c]) % slots[c]) for c, s in chord)
                for chord in diagram.chords
            ),
        )
        for shifts in product(*(range(max(n, 1)) for n in slots))
    }


def diagram_sort_key(diagram):
    """Degree, then slot split, then the sorted chord tuple."""
    return (diagram.degree, diagram.slots, diagram.chords)


def word(n, *chords):
    """A word on n strands as its chord tuple, each chord normalized to (i, j), i < j <= n."""
    out = tuple((min(c), max(c)) for c in chords)
    assert all(1 <= i < j <= n for i, j in out), chords
    return out


def word_sort_key(word):
    """Graded order, then lexicographic on the chord tuples."""
    return (len(word), word)


def _listed(braid, max_degree):
    """The braid's series with every term of modulus below the default threshold set to 0, as compute lists it."""
    holonomy = kontsevich_of_braid(braid, max_degree)
    return np.where(moduli(holonomy) >= ZERO_THRESHOLD, holonomy, 0)


def link_of(braid, max_degree):
    """kontsevich_link of the braid's closure at the default threshold, as compute --close runs it: the reduced link."""
    return kontsevich_link(_listed(braid, max_degree), closure_skeleton(braid), max_degree, ZERO_THRESHOLD)


def projection_of(braid, max_degree):
    """tau_project of the braid's closure at the default threshold: the link series before reduce."""
    return tau_project(_listed(braid, max_degree), closure_skeleton(braid), max_degree)
