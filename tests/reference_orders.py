"""Reference diagrams, canonical forms and basis orders, written independently of kzbraid.

kzbraid keeps a circle diagram as a flat drawing and files every drawing
under the basis position of the first drawing its enumeration meets; these
helpers restate what that must equal: CircleDiagram is the validating
(slots, chords) record, the canonical drawing has the least chord tuple
over independent circle rotations, bases sort by (degree, slots, chords),
words, tuples of strand pairs (i, j) with i < j, by (degree, chords).
"""

from collections import namedtuple
from itertools import product


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

    def has_isolated_chord(self):
        """True when some chord's feet are cyclically adjacent on one circle."""
        for (c1, s1), (c2, s2) in self.chords:
            if c1 != c2:
                continue
            n = self.slots[c1]
            if (s1 + 1) % n == s2 or (s2 + 1) % n == s1:
                return True
        return False

    def __repr__(self):
        return f"<circles {self.slots} chords {self.chords}>"


def drawing_of(diagram):
    """The flat drawing of a CircleDiagram: each circle's chord labels, then -1; chord k is labeled k."""
    return tuple(label for circle in diagram.to_layout() for label in circle + [-1])


def diagram_of(drawing):
    """The CircleDiagram a flat drawing (or any flat layout) draws."""
    ends = [k for k, label in enumerate(drawing) if label < 0]
    return CircleDiagram.from_layout([drawing[start + 1:end] for start, end in zip([-1] + ends, ends)])


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
