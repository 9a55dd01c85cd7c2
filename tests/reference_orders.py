"""Reference diagrams, canonical forms and basis orders, written independently of kzbraid.

kzbraid keeps a circle diagram as a flat drawing and files every drawing
under the basis position of the first drawing its enumeration meets; these
helpers restate what that must equal: CircleDiagram is the validating
(slots, chords) record, the canonical drawing has the least chord tuple
over independent circle rotations, bases sort by (degree, slots, chords),
words, tuples of strand pairs (i, j) with i < j, by (degree, chords).
link_of and projection_of are the calls into kzbraid: the tests' route to
its closure pipeline, composed as compute --close composes it.
"""

from collections import namedtuple
from itertools import product

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


def first_appearance(layout):
    """A flat layout as a drawing: labels renumbered 0, 1, ... by first appearance, -1 kept."""
    first = {-1: -1}
    return tuple([first.setdefault(label, len(first) - 1) for label in layout])


def position(drawings, layout):
    """Basis position of a flat layout in a drawing table (drawing -> position), renumbered first."""
    return drawings[first_appearance(layout)]


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
