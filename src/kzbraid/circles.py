"""Chord diagrams on disjoint oriented circles.

Endpoint slots on each circle are taken up to cyclic rotation (orientation
preserving only, no reflections); circles are numbered, so they are never
permuted.  A drawing is a flat tuple, each circle's chord labels followed
by -1, with labels numbered by first appearance.  A basis entry is the
drawing of its diagram that the enumeration meets first, the one with the
least chord tuple; its slot counts and chords (for the JSON form) and its
isolated chords are read off it.  The block of k circles at a degree
holds the diagrams in which every circle carries a foot, with the one
table from every drawing to its basis position: each of its slot splits
is a walk over the raw matchings.  The basis of q circles takes each slot
split from the block of its non-empty circles, with a -1 at each empty
circle, so a q-circle position is a block position plus its split's
shift.  Moving one foot of a chord changes only that chord's rank among
first appearances, so the walk turns circles and the 4T rows move feet
by relabelling that one chord (_rerank), and look each layout up in the
block's table once, as the closure's index does after labelling its
layouts in bulk.  A series on q circles is a dense vector over
circle_basis(q, M), the diagrams of each degree in turn.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb, prod
from operator import itemgetter

from .words import ZERO_THRESHOLD

# The circle budget, counted before anything is built on the slot splits a
# command builds: of q circles for compute --close, of the blocks of
# k <= min(q, 2m) circles for dims.  Most chord matchings (all splits, all
# degrees m <= M): 4 circles cover 17,325 at degree 4, a block table files
# each matching, and the 4T rows and the echelon grow with the blocks.
# Most cells, a drawing's labels and -1s per matching: the basis holds at
# most one drawing per matching, and with many circles a matching is cheap
# to count but costs its q + 2m cells to hold.  One circle to degree 7 has
# 2,173,624 cells.  Fresh-process peak RSS (2-vCPU host) of the basis and
# clearing rows (_pivot_rows) --close builds: 4 circles to degree 4,
# 16.8 MB; 6 circles to degree 4 (1,979,004 cells), 25.2 MB; 200 circles to
# degree 1 (4,060,400 cells), 50 MB.
MAX_CIRCLE_MATCHINGS = 2**18
MAX_CIRCLE_CELLS = 2**22


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
def _circle_counts(n_circles, max_degree, blocks=False):
    """(raw matchings, drawing-table cells) to degree M, in one pass.

    Degree m has (2m-1)!! matchings per slot split, each drawn in its 2m
    labels and a -1 per circle: C(2m+q-1, q-1) splits of q + 2m cells on q
    circles, or with blocks, C(2m-1, k-1) splits of 2m + k cells on each
    k <= min(q, 2m) circles.
    """
    matchings = cells = 0
    for m in range(max_degree + 1):
        pairings = prod(range(1, 2 * m, 2))
        splits = ([(comb(2 * m - 1, k - 1), 2 * m + k) for k in range(1, min(n_circles, 2 * m) + 1)] if blocks
                  else [(comb(2 * m + n_circles - 1, n_circles - 1), n_circles + 2 * m)])
        matchings += pairings * sum(count for count, _ in splits)
        cells += pairings * sum(count * width for count, width in splits)
    return matchings, cells


def check_circle_budget(n_circles: int, max_degree: int, blocks=False):
    """Raise ValueError when the circle tables to max_degree exceed MAX_CIRCLE_MATCHINGS or MAX_CIRCLE_CELLS.

    Counts without building anything, once per (q, M) a process asks for:
    the q-circle splits --close builds, or with blocks the blocks of
    k <= min(q, 2m) circles that dims builds alone.  Circle counts below 1
    pass: building their basis reports the error.
    """
    if n_circles < 1:
        return
    degree = min(max_degree, 8)  # 15!! > MAX_CIRCLE_MATCHINGS, so no degree past 8 needs counting
    matchings, cells = _circle_counts(n_circles, degree, blocks)
    width, terms = ("2m+k", f"C(2m-1, k-1) (2m-1)!! for k <= min({n_circles}, 2m),") if blocks else (
        f"{n_circles}+2m", f"C(2m+{n_circles - 1}, {n_circles - 1}) (2m-1)!! for")
    if matchings > MAX_CIRCLE_MATCHINGS:
        raise ValueError(
            f"{n_circles} circles to degree {max_degree} need more than"
            f" {MAX_CIRCLE_MATCHINGS} chord matchings (sum of {terms} m <= {max_degree})"
        )
    if cells > MAX_CIRCLE_CELLS:
        raise ValueError(
            f"{n_circles} circles to degree {max_degree} need more than"
            f" {MAX_CIRCLE_CELLS} drawing-table cells (sum of ({width}) {terms} m <= {max_degree})"
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


def _check_shape(n_circles, degree):
    """Refuse a circle count below 1 or a negative degree."""
    if n_circles < 1:
        raise ValueError("need at least 1 circle")
    if degree < 0:
        raise ValueError("need degree >= 0")


@lru_cache(maxsize=None)
def _block_table(n_circles: int, degree: int):
    """(basis drawings, drawing -> basis position, slots -> split) of the degree-m block on k circles.

    The block holds the diagrams in which every circle carries a foot: the
    slot splits with no empty circle, the gaps between k - 1 bars among the
    2m - 1 places between slots, walked in increasing order (_split_table),
    the degree's matchings generated once.  A split is (its first basis
    position, its basis count); its (2m-1)!! drawings follow the previous
    split's in the table.
    """
    _check_shape(n_circles, degree)
    # one circle has one slot split, which walks the matchings as generated
    matchings = _matchings(degree) if n_circles == 1 else tuple(_matchings(degree))
    basis, drawings, splits = [], {}, {}
    for bars in combinations(range(1, 2 * degree), n_circles - 1) if degree else ():  # degree 0 puts no foot
        slots, start = tuple(b - a for a, b in zip((0, *bars), (*bars, 2 * degree))), len(basis)
        _split_table(slots, degree, matchings, basis, drawings)
        splits[slots] = start, len(basis) - start
    return tuple(basis), drawings, splits


def _inserter(slots):
    """The map from a drawing of the circles of slots that carry feet to its drawing on all of them."""
    picks, read = [], 0
    for n in slots:  # a circle's labels and its -1, or for an empty circle the drawing's last -1
        picks += range(read, read + n + 1) if n else (-1,)
        read += n + (n > 0)
    return itemgetter(*picks)


@lru_cache(maxsize=None)
def _slot_splits(n_circles: int, degree: int):
    """(basis drawings, split key -> shift) of the degree-m diagrams on q circles.

    The slot splits come in increasing order, each holding the same split
    of the block of its circles that carry feet, in order, with a -1
    inserted at each empty circle: a diagram's position is its block
    position plus its split's shift.  A split is keyed by its feet, the
    circle of each of its 2m slots in order; increasing splits have
    decreasing keys.
    """
    _check_shape(n_circles, degree)
    if degree == 0:  # one diagram, all -1
        return ((-1,) * n_circles,), {(): 0}
    basis, shifts = [], {}
    for feet in reversed(list(combinations_with_replacement(range(n_circles), 2 * degree))):
        slots = [0] * n_circles
        for c in feet:
            slots[c] += 1
        shown = tuple(n for n in slots if n)
        block_basis, _, splits = _block_table(len(shown), degree)
        start, count = splits[shown]
        shifts[feet] = len(basis) - start
        split = block_basis[start:start + count]
        basis += split if len(shown) == n_circles else map(_inserter(slots), split)
    return tuple(basis), shifts


def _block_positions(n_circles, degree, support):
    """Position in enumerate_circle_diagrams(q, m) of each basis drawing of the block on the circles in support.

    A block split drawn on support is one slot split of the q circles.
    """
    shifts = _slot_splits(n_circles, degree)[1]
    out = []
    for shown, (start, count) in _block_table(len(support), degree)[2].items():
        shift = shifts[tuple(c for c, n in zip(support, shown) for _ in range(n))]
        out += range(shift + start, shift + start + count)
    return out


def enumerate_circle_diagrams(n_circles: int, degree: int):
    """All degree-m diagrams on q numbered circles, sorted, as their least drawings."""
    return _slot_splits(n_circles, degree)[0]


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
