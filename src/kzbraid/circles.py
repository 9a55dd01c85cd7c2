"""Chord diagrams on disjoint oriented circles.

Endpoint slots on each circle are taken up to cyclic rotation (orientation
preserving only, no reflections); circles are numbered, so they are never
permuted.  A drawing is a flat tuple, each circle's chord labels followed
by -1, with labels numbered by first appearance.  A basis entry is the
drawing of its diagram that the enumeration meets first, the one with the
least chord tuple; its slot counts and chords (for the JSON form) and
whether it has an isolated chord are read off it.  Each (circles, degree)
has one table from every drawing to its basis position, filled by one walk
over the raw matchings, so the 4T rows and the closure's projection find a
layout's position by one dict lookup, renumbering its labels only when the
layout as given is not a drawing (_position).  A series on q circles
is a dense vector over circle_basis(q, M), the diagrams of each degree in
turn.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from math import comb
from operator import itemgetter

from .words import ZERO_THRESHOLD, _document_text

# Most chord matchings (all slot splits, all degrees m <= M) that the CLI lets
# a circle basis walk; circle_relations(4, 4) walks 17,325 in its top degree.
# The drawing tables keep one entry per matching walked, so this also bounds
# the drawings held in memory.
MAX_CIRCLE_MATCHINGS = 2**18


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _matchings(degree):
    """Every perfect matching of 2m feet in a row, in increasing chord-tuple order.

    Each is a tuple of chord labels numbered by first appearance, then -1.
    Foot 0 pairs with each later foot in turn, and the feet left take every
    matching of degree m - 1 with its labels raised by one.
    """
    if degree == 0:
        yield (-1,)
        return
    rest = [tuple([label + 1 if label >= 0 else -1 for label in sub]) for sub in _matchings(degree - 1)]
    for k in range(2 * degree - 1):
        for sub in rest:
            yield (0,) + sub[:k] + (0,) + sub[k:]


def _first_appearance(layout):
    """layout as a drawing: labels renumbered 0, 1, ... by first appearance, -1 kept."""
    first = {-1: -1}
    return tuple([first.setdefault(label, len(first) - 1) for label in layout])


def _position(drawings, layout):
    """Basis position of a layout tuple in its degree's drawing table."""
    position = drawings.get(layout)  # only drawings are keys, so a hit needs no renumbering
    return drawings[_first_appearance(layout)] if position is None else position


def slots_and_chords(drawing):
    """(slot count per circle, sorted chords as ((circle, slot), (circle, slot)) feet) of a drawing.

    Labels are numbered by first appearance, so label order is the order of
    each chord's lower foot.
    """
    slots, chords = [], [[] for _ in range((len(drawing) - drawing.count(-1)) // 2)]
    c = s = 0
    for label in drawing:
        if label < 0:
            slots.append(s)
            c, s = c + 1, 0
        else:
            chords[label].append((c, s))
            s += 1
    return tuple(slots), tuple(map(tuple, chords))


def has_isolated_chord(drawing):
    """True when some chord's feet are cyclically adjacent on one circle (framing independence kills it)."""
    start = 0
    for k, label in enumerate(drawing):
        if label < 0:
            if k - start > 1 and drawing[start] == drawing[k - 1]:
                return True
            start = k + 1
        elif drawing[k - 1] == label:  # the slot before a circle's first is a -1
            return True
    return False


def count_circle_matchings(n_circles: int, max_degree: int) -> int:
    """Raw matchings enumerate_circle_diagrams walks over the degrees m <= max_degree.

    The sum of C(2m+q-1, q-1) slot splits times (2m-1)!! matchings each.
    """
    total, pairings = 0, 1
    for m in range(max_degree + 1):
        if m:
            pairings *= 2 * m - 1
        total += comb(2 * m + n_circles - 1, n_circles - 1) * pairings
    return total


def check_circle_budget(n_circles: int, max_degree: int):
    """Raise ValueError when the circle bases to max_degree exceed MAX_CIRCLE_MATCHINGS.

    Counts without building anything.  Circle counts below 1 pass: building
    their basis reports the error.
    """
    if n_circles < 1:
        return
    # 15!! > MAX_CIRCLE_MATCHINGS, so no degree past 8 needs counting
    if count_circle_matchings(n_circles, min(max_degree, 8)) > MAX_CIRCLE_MATCHINGS:
        raise ValueError(
            f"{n_circles} circles to degree {max_degree} need more than"
            f" {MAX_CIRCLE_MATCHINGS} chord matchings"
            f" (sum of C(2m+{n_circles - 1}, {n_circles - 1}) (2m-1)!! for m <= {max_degree})"
        )


@lru_cache(maxsize=None)
def _orbit_table(n_circles: int, degree: int):
    """(basis drawings, drawing -> basis position) of the degree-m diagrams on q circles.

    Slot splits and, within one, matchings are walked in increasing order;
    the matchings of the degree are generated once.  A drawing not yet in
    the table starts a new basis diagram, the least drawing of its orbit,
    and every rotation of it is recorded under that diagram's position, so
    the table holds each raw matching once.
    """
    if n_circles < 1 or degree < 0:
        raise ValueError("need n_circles >= 1 and degree >= 0")
    if degree == 0:  # one drawing, all -1; on one circle itemgetter would not return a tuple
        drawing = (-1,) * n_circles
        return (drawing,), {drawing: 0}
    # one circle has one slot split, so its matchings are walked as generated
    matchings = _matchings(degree) if n_circles == 1 else tuple(_matchings(degree))
    basis, drawings = [], {}
    for slots in _compositions(2 * degree, n_circles):
        starts = [sum(slots[:c]) for c in range(n_circles)]
        # per independent rotation of the circles, the matching's index read
        # at each slot of the drawing, and its closing -1 after each circle;
        # the first, no circle rotated, draws the matching as it is
        rotations = [
            itemgetter(*[
                k for start, n, r in zip(starts, slots, shift)
                for k in [start + (s + r) % n for s in range(n)] + [2 * degree]
            ])
            for shift in product(*(range(max(n, 1)) for n in slots))
        ]
        for matching in matchings:
            drawing = rotations[0](matching)
            if drawing not in drawings:
                drawings[drawing] = len(basis)
                for rotate in rotations[1:]:
                    drawings[_first_appearance(rotate(matching))] = len(basis)
                basis.append(drawing)
    return tuple(basis), drawings


def enumerate_circle_diagrams(n_circles: int, degree: int):
    """All degree-m diagrams on q numbered circles, sorted, as their least drawings."""
    return _orbit_table(n_circles, degree)[0]


@lru_cache(maxsize=None)
def circle_basis(n_circles: int, max_degree: int):
    """Diagrams of degree <= max_degree, degree by degree: the dense circle series basis."""
    return tuple(d for m in range(max_degree + 1) for d in enumerate_circle_diagrams(n_circles, m))


def circle_series_to_json_dict(
    coefficients, n_circles, max_degree, zero_threshold=ZERO_THRESHOLD, positions=None
) -> dict:
    """JSON document of a dense series over circle_basis(n_circles, max_degree).

    Lists every term whose modulus reaches zero_threshold among positions,
    increasing basis positions, by default all of them; a reduced series
    passes its free positions.  compute writes circle_series_json_text;
    this is the tests' reference for it, kept here because the benchmark
    tracer wraps it.
    """
    basis = circle_basis(n_circles, max_degree)
    values = coefficients.tolist()
    terms = []
    for k in range(len(basis)) if positions is None else positions:
        coeff = values[k]
        if abs(coeff) >= zero_threshold:
            slots, chords = slots_and_chords(basis[k])
            terms.append(
                {
                    "slots": list(slots),
                    "word": [[list(f1), list(f2)] for f1, f2 in chords],
                    "re": coeff.real,
                    "im": coeff.imag,
                }
            )
    return {
        "circles": n_circles,
        "max_degree": max_degree,
        "terms": terms,
    }


@lru_cache(maxsize=16)
def _json_heads(n_circles, max_degree, positions, level):
    """Basis position -> the text of its JSON term up to the real part, for the listed positions."""
    basis = circle_basis(n_circles, max_degree)
    i2, i3 = "  " * (level + 2), "  " * (level + 3)
    heads = {}
    for k in range(len(basis)) if positions is None else positions:
        slots, chords = (json.dumps(part, indent=2).replace("\n", "\n" + i3) for part in slots_and_chords(basis[k]))
        heads[k] = f'{i2}{{\n{i3}"slots": {slots},\n{i3}"word": {chords},\n{i3}"re": '
    return heads


def circle_series_json_text(
    coefficients, n_circles, max_degree, zero_threshold=ZERO_THRESHOLD, positions=None, level=0
) -> str:
    """json.dumps(circle_series_to_json_dict(...), indent=2) with the same arguments.

    level is the depth at which the document sits inside an enclosing
    indent=2 document.  Term heads are built once per (n_circles,
    max_degree, positions, level), for the given positions only.
    """
    heads = _json_heads(n_circles, max_degree, positions, level)
    values = coefficients.tolist()
    listed = [k for k in heads if abs(values[k]) >= zero_threshold]
    fields = (("circles", n_circles), ("max_degree", max_degree))
    return _document_text(fields, heads, coefficients, listed, level)
