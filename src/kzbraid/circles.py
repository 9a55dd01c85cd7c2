"""Chord diagrams on disjoint oriented circles.

Endpoint slots on each circle are taken up to cyclic rotation (orientation
preserving only, no reflections); circles are numbered, so they are never
permuted.  A drawing is a flat tuple, each circle's chord labels followed
by -1, with labels numbered by first appearance.  A basis entry is the
drawing of its diagram that the enumeration meets first, the one with the
least chord tuple; its slot counts and chords (for the JSON form) and its
isolated chords are read off it.  Each (circles, degree) has one table
from every drawing to its basis position.  Each slot split takes the walk
over the raw matchings of its non-empty circles, with a -1 for each empty
circle; splits that differ only in their empty circles share one walk.
Moving one foot of a chord changes only that chord's rank among first
appearances, so the walk turns circles and the 4T rows move feet by
relabelling that one chord (_rerank), and look each layout up in the
table once; the closure's index labels its layouts in bulk before the
lookup.  A series on q circles is a dense vector over circle_basis(q, M),
the diagrams of each degree in turn.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import itemgetter

from .words import ZERO_THRESHOLD

# The circle budget, counted before anything is built.  Most chord matchings
# (all slot splits, all degrees m <= M) a circle basis may cover:
# circle_relations(4, 4) covers 17,325 in its top degree, and the 4T rows and
# the echelon grow with them.  Most drawing-table cells, q + 2m per matching
# of degree m: a table holds one drawing per matching and nothing else stays
# cached, and with many circles a matching is cheap to count but costs its
# q + 2m labels and -1s to build and hold.  dims --circles 1 -m 7 has
# 2,173,624 cells; fresh-process peak RSS (2-vCPU host): --circles 4 -m 4
# 20.2 MB, --circles 6 -m 4 (1,979,004 cells) 58.5 MB, --circles 200 -m 1
# (4,060,400 cells) 80 MB.
MAX_CIRCLE_MATCHINGS = 2**18
MAX_CIRCLE_CELLS = 2**22


def _compositions(total, parts):
    """Every tuple of parts non-negative ints summing to total, in increasing order.

    Stars and bars: the parts are the gaps around parts - 1 bars among
    total + parts - 1 places, taken in lexicographic order.
    """
    for bars in combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + parts - 1)))


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


@lru_cache(maxsize=None)
def _rerank(degree):
    """rerank[e][r]: the label map that gives chord e the rank r among first appearances.

    The other labels keep their order, and the last entry maps -1 to -1.
    Moving one foot of chord e in a drawing changes no other chord's order
    of first appearance, so the moved layout mapped through the list for
    e's new rank is a drawing again.
    """
    return [
        [[r if label == e else label + (r <= label < e) - (e < label <= r) for label in range(degree)] + [-1]
         for r in range(degree)]
        for e in range(degree)
    ]


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


def isolated_chords(drawing):
    """Labels of the chords whose feet are cyclically adjacent on one circle (framing independence kills them)."""
    out = []
    start = 0
    for k, label in enumerate(drawing):
        if label < 0:
            if k - start > 2 and drawing[start] == drawing[k - 1]:  # around a circle of three slots or more
                out.append(drawing[start])
            start = k + 1
        elif drawing[k - 1] == label:  # the slot before a circle's first is a -1
            out.append(label)
    return tuple(out)


@lru_cache(maxsize=64)
def _circle_counts(n_circles, max_degree):
    """(raw matchings, drawing-table cells) to degree M, in one pass: degree m has
    C(2m+q-1, q-1) slot splits of (2m-1)!! matchings, each of q + 2m cells."""
    matchings = cells = 0
    pairings = 1
    for m in range(max_degree + 1):
        if m:
            pairings *= 2 * m - 1
        count = comb(2 * m + n_circles - 1, n_circles - 1) * pairings
        matchings += count
        cells += (n_circles + 2 * m) * count
    return matchings, cells


def check_circle_budget(n_circles: int, max_degree: int):
    """Raise ValueError when the circle bases to max_degree exceed MAX_CIRCLE_MATCHINGS or MAX_CIRCLE_CELLS.

    Counts without building anything, once per (q, M) a process asks for.
    Circle counts below 1 pass: building their basis reports the error.
    """
    if n_circles < 1:
        return
    degree = min(max_degree, 8)  # 15!! > MAX_CIRCLE_MATCHINGS, so no degree past 8 needs counting
    matchings, cells = _circle_counts(n_circles, degree)
    if matchings > MAX_CIRCLE_MATCHINGS:
        raise ValueError(
            f"{n_circles} circles to degree {max_degree} need more than"
            f" {MAX_CIRCLE_MATCHINGS} chord matchings"
            f" (sum of C(2m+{n_circles - 1}, {n_circles - 1}) (2m-1)!! for m <= {max_degree})"
        )
    if cells > MAX_CIRCLE_CELLS:
        raise ValueError(
            f"{n_circles} circles to degree {max_degree} need more than"
            f" {MAX_CIRCLE_CELLS} drawing-table cells"
            f" (sum of ({n_circles}+2m) C(2m+{n_circles - 1}, {n_circles - 1}) (2m-1)!! for m <= {max_degree})"
        )


def _split_table(slots, degree, matchings, basis, drawings):
    """Walk a slot split in which every circle has slots into basis and drawings; return both.

    Matchings are walked in increasing order.  A drawing not yet in
    drawings starts a new basis diagram at position len(basis), the least
    drawing of its orbit, and every rotation of it is filed under that
    position: (2m-1)!! entries in all.
    The rotations come in the order of product(*map(range, slots)), each
    made from one already made by turning one circle a slot: its first foot
    moves to its end, and only that foot's chord can change rank, to the
    largest label read before its new first foot (_rerank).
    """
    rerank = _rerank(degree)
    ends = list(accumulate(slots))
    # the matching's labels, each circle's followed by the matching's closing -1
    draw = itemgetter(*[k for start, end in zip([0] + ends, ends) for k in (*range(start, end), 2 * degree)])
    # per circle of two slots or more: the flat indices of its first slot and
    # of its -1, its slot count, and the drawing with that circle turned a slot
    turns = []
    for c, (n, end) in enumerate(zip(slots, ends)):
        first = end - n + c
        if n > 1:
            picks = list(range(2 * degree + len(slots)))
            picks[first:first + n] = picks[first + 1:first + n] + [first]
            turns.append((first, first + n, n, itemgetter(*picks)))
    for matching in matchings:
        drawing = draw(matching)
        if drawing in drawings:
            continue
        orbit = [drawing]
        for first, closing, n, turn in turns:
            turned = []
            for unturned in orbit:
                layout = unturned
                turned.append(layout)
                for _ in range(n - 1):
                    e = layout[first]
                    moved = turn(layout)
                    if layout.index(e) == first:  # e first appears at the foot that moves
                        # e now first appears at its other foot if that is on
                        # this circle, else at the circle's end; the other
                        # chords met before there number the largest label
                        rank = max(layout[:min(layout.index(e, first + 1), closing)])
                        if rank != e:
                            moved = tuple(map(rerank[e][rank].__getitem__, moved))
                    if moved == unturned:  # a symmetric diagram: the turns repeat from here
                        break
                    layout = moved
                    turned.append(layout)
            orbit = turned
        for layout in orbit:
            drawings[layout] = len(basis)
        basis.append(drawing)
    return basis, drawings


@lru_cache(maxsize=None)
def _orbit_table(n_circles: int, degree: int):
    """(basis drawings, drawing -> basis position) of the degree-m diagrams on q circles.

    Slot splits are filled in increasing order, each adding its (2m-1)!!
    entries consecutively; the matchings of the degree are generated once.
    A split in which every circle has slots is walked straight into the
    table (_split_table).  One with empty circles takes the walk of its
    non-empty circles, run once per distinct non-empty split, with a -1
    inserted at each empty circle and positions shifted past the splits
    before it.
    """
    if n_circles < 1 or degree < 0:
        raise ValueError("need n_circles >= 1 and degree >= 0")
    if degree == 0:  # one drawing, all -1, and no slot for a walk
        drawing = (-1,) * n_circles
        return (drawing,), {drawing: 0}
    # one circle has one slot split, which walks the matchings as generated
    matchings = _matchings(degree) if n_circles == 1 else tuple(_matchings(degree))
    basis, drawings, walks = [], {}, {}
    for slots in _compositions(2 * degree, n_circles):
        if 0 not in slots:
            _split_table(slots, degree, matchings, basis, drawings)
            continue
        shown = tuple(n for n in slots if n)
        if shown not in walks:
            walks[shown] = _split_table(shown, degree, matchings, [], {})
        walk_basis, walk = walks[shown]
        # the walk's drawing with a -1 (its last entry) at each empty circle's flat index
        picks, read = [], 0
        for n in slots:
            if n:
                picks += range(read, read + n + 1)  # a circle's labels and its -1
                read += n + 1
            else:
                picks.append(-1)
        insert = itemgetter(*picks)
        shift = len(basis)
        basis.extend(map(insert, walk_basis))
        drawings.update(zip(map(insert, walk), map(shift.__add__, walk.values())))
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
    passes its free positions.  compute writes this document's text
    through _text; this is the tests' reference for it, kept here because
    the benchmark tracer wraps it.
    """
    basis = circle_basis(n_circles, max_degree)
    if len(coefficients) != len(basis):
        raise ValueError(f"circle_series_to_json_dict needs a vector of {len(basis)} coefficients")
    values = coefficients.tolist()
    terms = []
    for k in range(len(basis)) if positions is None else positions:
        if abs(values[k]) >= zero_threshold:
            slots, chords = slots_and_chords(basis[k])
            word = [[list(f1), list(f2)] for f1, f2 in chords]
            terms.append({"slots": list(slots), "word": word, "re": values[k].real, "im": values[k].imag})
    return {"circles": n_circles, "max_degree": max_degree, "terms": terms}
