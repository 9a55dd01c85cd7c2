"""Reference canonical forms and basis orders, written independently of kzbraid.

kzbraid files every drawing of a circle diagram under the basis position of
the first drawing its enumeration meets; these helpers restate what that
must equal: the drawing with the least chord tuple over independent circle
rotations, bases sorted by (degree, slots, chords), words by (degree,
chords).
"""

from itertools import product

from kzbraid.circles import CircleDiagram


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


def word_sort_key(word):
    """Graded order, then lexicographic on the chord tuples."""
    return (len(word.chords), tuple(c.as_tuple() for c in word.chords))
