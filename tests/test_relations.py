import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter

import numpy as np
import pytest

from kzbraid.circles import (
    _block_table,
    _circle_counts,
    _matchings,
    _orbit_table,
    circle_basis,
    enumerate_circle_diagrams,
    isolated_chords,
    slots_and_chords,
)
from kzbraid.relations import (
    RelationSet,
    _circle_four_term_rows,
    _pivot_rows,
    circle_relations,
    free_positions,
    horizontal_relations,
    quotient_dimension,
    reduce,
)
from kzbraid.words import all_pairs, basis_words, enumerate_words
from reference_orders import (
    CircleDiagram,
    canonical,
    diagram_of,
    diagram_sort_key,
    drawing_of,
    first_appearance,
    on_circles,
    position,
    rotations,
    support_of,
    word,
)


def series(n, max_degree, terms):
    """Dense series over basis_words(n, max_degree) from {chord tuple: coefficient}."""
    basis = basis_words(n, max_degree)
    out = np.zeros(len(basis), dtype=complex)
    for chords, coeff in terms.items():
        out[basis.index(word(n, *chords))] += coeff
    return out


def graded_size(skeleton, max_degree):
    kind, size = skeleton
    if kind == "strands":
        return len(basis_words(size, max_degree))
    return len(circle_basis(size, max_degree))


def relation_sets(skeleton, max_degree):
    kind, size = skeleton
    build = horizontal_relations if kind == "strands" else whole_circle_relations
    return [build(size, m) for m in range(max_degree + 1)]


@lru_cache(maxsize=None)
def whole_circle_relations(q, m):
    """The relation set of degree m on q circles, its 4T rows seeded over the whole q-circle basis.

    The reference for the blocks that circle_relations builds and
    _pivot_rows places: the library's row builder run on the q-circle
    drawing table instead of a block's.
    """
    basis, drawings = _orbit_table(q, m)
    isolated = list(map(isolated_chords, basis))
    rows = _circle_four_term_rows(m, basis, drawings, isolated) if m >= 2 else []
    return RelationSet(m, basis, rows, (k for k, chords in enumerate(isolated) if chords))


def float_rows(relation_set):
    """_pivot_rows' form of a relation set: killed positions with empty rows, echelon rows divided by their pivot."""
    rows = dict.fromkeys(relation_set.killed, ())
    for p, row in relation_set.echelon().items():
        rows[p] = tuple((c, v / row[p]) for c, v in row.items() if c != p)
    return len(relation_set.basis), tuple(sorted(rows.items()))


def restricted(q, m, support, rows, killed):
    """(rows, killed) of degree m on q circles restricted to the diagrams with support, renumbered in order.

    Each 4T row lies within one support; a row is kept when its first
    position has support, and a position is renumbered by its rank among
    the basis positions with support.
    """
    basis = enumerate_circle_diagrams(q, m)
    block = {k: j for j, k in enumerate(k for k, drawing in enumerate(basis) if support_of(drawing) == support)}
    rows = [{block[k]: v for k, v in row.items()} for row in rows if min(row) in block]
    return rows, tuple(block[k] for k in killed if k in block)


def rank(relation_set):
    """Exact rank of a relation set: its killed columns and its echelon's pivots."""
    return len(relation_set.killed) + len(relation_set.echelon())


def test_relation_set_keeps_each_row_once_up_to_sign():
    # the first of a row and its negatives is kept, as its sorted items, in the order given
    rows = [{1: 1, 0: -1}, {2: 3}, {0: 1, 1: -1}, {1: 1, 0: -1}, {2: -3, 0: 1}]
    kept = RelationSet(1, range(3), rows).rows
    assert kept == (((0, -1), (1, 1)), ((2, 3),), ((0, 1), (2, -3)))


def test_four_term_row_present_n3():
    # the pictured relation on strands 1,2,3 must hold in the quotient
    s = series(
        3,
        2,
        {
            ((1, 2), (2, 3)): 1.0,
            ((1, 2), (1, 3)): 1.0,
            ((2, 3), (1, 2)): -1.0,
            ((1, 3), (1, 2)): -1.0,
        },
    )
    assert not reduce(s, ("strands", 3), 2).any()


def test_disjoint_commutation_row_n4():
    s = series(4, 2, {((1, 2), (3, 4)): 1.0, ((3, 4), (1, 2)): -1.0})
    assert not reduce(s, ("strands", 4), 2).any()


def test_two_strand_relations_empty():
    for m in (2, 3, 4):
        assert horizontal_relations(2, m).rows == ()


def test_relation_entries_are_unit_rationals():
    rs = horizontal_relations(3, 3)
    for row in rs.rows:
        for _col, coeff in row:
            # exact integer entries, eliminated as integers
            assert type(coeff) is int
            assert coeff in (1, -1)


def normal_positions(n, max_degree):
    """Graded positions of Kohno's normal words: the chords' top strands never decrease upward."""
    return tuple(
        k for k, w in enumerate(basis_words(n, max_degree))
        if all(low[1] <= high[1] for low, high in zip(w, w[1:]))
    )


def check_reduce_kernel(skeleton, max_degree):
    """Every relation row and killed unit of degree max_degree reduces to 0; every free unit vector is fixed.

    On strands the free positions are the normal words, as many as the
    echelon's quotient dimension in every degree.
    """
    size = graded_size(skeleton, max_degree)
    offset = graded_size(skeleton, max_degree - 1)
    top = relation_sets(skeleton, max_degree)[-1]
    for row in top.rows + tuple(((k, 1),) for k in top.killed):
        vec = np.zeros(size, dtype=complex)
        for col, coeff in row:
            vec[offset + col] = coeff
        assert not reduce(vec, skeleton, max_degree).any(), (skeleton, max_degree, row)
    free = free_positions(skeleton, max_degree)
    assert len(free) == sum(len(rs.basis) - rank(rs) for rs in relation_sets(skeleton, max_degree))
    if skeleton[0] == "strands":
        assert free == normal_positions(skeleton[1], max_degree)
        top = relation_sets(skeleton, max_degree)[-1]
        assert quotient_dimension(max_degree, skeleton) == len(top.basis) - rank(top)
    for k in free:
        vec = np.zeros(size, dtype=complex)
        vec[k] = 1.0
        assert np.array_equal(reduce(vec, skeleton, max_degree), vec), (skeleton, max_degree, k)


def test_all_rows_reduce_to_zero():
    # the normal-form map against the echelon of horizontal_relations, its reference
    for n, top in ((3, 5), (4, 4), (5, 3)):
        for m in range(top + 1):
            check_reduce_kernel(("strands", n), m)
    for q, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        check_reduce_kernel(("circles", q), m)


def test_reduce_zero_series():
    z = np.zeros(len(basis_words(3, 3)), dtype=complex)
    assert not reduce(z, ("strands", 3), 3).any()


def test_reduce_idempotent():
    s = series(
        3,
        3,
        {
            ((1, 2), (2, 3)): 1.5,
            ((2, 3), (1, 2), (1, 3)): -2j,
            ((1, 3),): 0.25,
        },
    )
    nf = reduce(s, ("strands", 3), 3)
    assert nf.any()
    assert np.array_equal(reduce(nf, ("strands", 3), 3), nf)


def test_reduce_rejects_foreign_words():
    # a vector over another basis than the skeleton's
    bad = series(4, 2, {((1, 4), (1, 4)): 1.0})
    with pytest.raises(ValueError, match="do not fill"):
        reduce(bad, ("strands", 3), 2)


def _dict_reduce(coefficients, skeleton, max_degree, zero_threshold):
    """The word-dict reduce the dense one replaced, kept as its reference.

    Clears the pivots of each degree's Fraction echelon (_reference_echelon)
    in increasing order.  Returns {graded position: coordinate} over the
    free elements whose coordinate reaches zero_threshold.
    """
    out = {}
    offset = 0
    for rs in relation_sets(skeleton, max_degree):
        pivots = _reference_echelon(skeleton[0], skeleton[1], rs.degree)
        vec = {}
        for k, coeff in enumerate(coefficients[offset:offset + len(rs.basis)].tolist()):
            if abs(coeff) >= zero_threshold:
                vec[k] = vec.get(k, 0j) + coeff
        for p in sorted(pivots):
            if p not in vec:
                continue
            amount = vec.pop(p)
            for col, q in pivots[p].items():
                if col == p:
                    continue
                vec[col] = vec.get(col, 0j) - amount * float(q)
        for k in range(len(rs.basis)):
            if k not in pivots and abs(vec.get(k, 0j)) >= zero_threshold:
                out[offset + k] = vec.get(k, 0j)
        offset += len(rs.basis)
    return out


def test_dense_reduce_equals_dict_reference():
    # circles: entry for entry the echelon reduce of the full reference (unit
    # rows for the killed positions plus every seed's 4T rows); strands, at
    # threshold 0: the normal form of v and of the reference's echelon
    # reduction of v agree
    rng = random.Random(6)
    shapes = [(("strands", n), m) for n in (3, 4) for m in range(4)]
    shapes += [(("circles", q), m) for q in (1, 2, 3) for m in range(5)]
    for skeleton, max_degree in shapes:
        size = graded_size(skeleton, max_degree)
        for threshold in (1e-12, 0.0, 1e-3):
            # entries of every scale, a third of them exactly zero
            vec = np.array([
                complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.choice((-14, -4, 0))
                if rng.random() < 0.67 else 0j
                for _ in range(size)
            ])
            if skeleton[0] == "strands" and threshold != 0.0:
                continue
            dense = reduce(vec, skeleton, max_degree, threshold)
            reference = _dict_reduce(vec, skeleton, max_degree, threshold)
            expected = np.zeros(size, dtype=complex)
            expected[list(reference)] = list(reference.values())
            if skeleton[0] == "circles":
                assert dense.tolist() == expected.tolist(), (skeleton, max_degree, threshold)
            else:
                through_echelon = reduce(expected, skeleton, max_degree, 0.0)
                assert np.abs(dense - through_echelon).max() <= 1e-12, (skeleton, max_degree)


def _word_index_rows(n_strands, degree):
    """4T and disjoint-commutation rows built one word per term, looked up by its chords, the reference."""
    basis = enumerate_words(n_strands, degree)
    if degree < 2 or n_strands == 2:
        return RelationSet(degree, basis, ())
    index = {w: k for k, w in enumerate(basis)}
    base_rows = []
    strands = range(1, n_strands + 1)
    for i in strands:
        for j in strands:
            for k in strands:
                if not (i < j < k):
                    continue
                triple = [(i, j), (i, k), (j, k)]
                for slide in triple:
                    row = {}
                    for other in [p for p in triple if p != slide]:
                        row[(slide, other)] = row.get((slide, other), 0) + 1
                        row[(other, slide)] = row.get((other, slide), 0) - 1
                    base_rows.append(row)
    pairs = all_pairs(n_strands)
    for a_idx, p in enumerate(pairs):
        for q in pairs[a_idx + 1:]:
            if not set(p) & set(q):
                base_rows.append({(p, q): 1, (q, p): -1})
    rows = []
    for pos in range(degree - 1):
        for prefix in enumerate_words(n_strands, pos):
            for suffix in enumerate_words(n_strands, degree - 2 - pos):
                for base in base_rows:
                    row = {}
                    for (low, high), coeff in base.items():
                        col = index[prefix + (low, high) + suffix]
                        row[col] = row.get(col, 0) + coeff
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return RelationSet(degree, basis, rows)


def test_horizontal_rows_equal_word_index_reference():
    for n, top in ((3, 4), (4, 3), (5, 2)):
        for m in range(top + 1):
            built, reference = horizontal_relations(n, m), _word_index_rows(n, m)
            assert built.basis == reference.basis
            assert built.rows == reference.rows, (n, m)


def _canonical_four_term_rows(diagram, position):
    """4T rows of one diagram from every seed, the reference: position(drawing) finds each term."""
    layout = diagram.to_layout()
    rows = []
    for c, circle in enumerate(layout):
        n = len(circle)
        for s in range(n):
            b, a = circle[s], circle[(s + 1) % n]
            if a == b:
                continue
            removed = list(layout)
            removed[c] = circle[:s] + circle[s + 1:]
            x = (c, s) if s + 1 < n else (c, 0)
            feet_a = [(cc, ss) for cc, cir in enumerate(removed) for ss, label in enumerate(cir) if label == a]
            y = next(f for f in feet_a if f != x)
            row = {}
            for (tc, ts), offset, sign in ((x, 1, 1), (x, 0, -1), (y, 1, 1), (y, 0, -1)):
                lay = list(removed)
                lay[tc] = removed[tc][:ts + offset] + [b] + removed[tc][ts + offset:]
                k = position(CircleDiagram.from_layout(lay))
                row[k] = row.get(k, 0) + sign
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _reference_circle_rows(q, m):
    """(every seed's 4T rows, isolated-chord positions) of degree m on q circles, through CircleDiagrams.

    Each term's position is the basis index of its brute-force least rotation.
    """
    basis = [diagram_of(drawing) for drawing in enumerate_circle_diagrams(q, m)]
    index = {diagram: k for k, diagram in enumerate(basis)}  # basis.index as a dict

    @lru_cache(maxsize=None)  # terms repeat across diagrams
    def position(drawing):
        return index[canonical(drawing)]

    rows = [row for diagram in basis for row in _canonical_four_term_rows(diagram, position)] if m >= 2 else []
    return rows, tuple(k for k, diagram in enumerate(basis) if diagram.has_isolated_chord())


@lru_cache(maxsize=None)
def _reference_echelon(kind, size, m):
    """Fraction echelon of the reference relations: strands, horizontal_relations; circles, the full set.

    The full circle set is a unit row per isolated-chord position followed
    by every seed's 4T rows, deduplicated.
    """
    if kind == "strands":
        return _fraction_echelon(horizontal_relations(size, m))
    rows, killed = _reference_circle_rows(size, m)
    full = RelationSet(m, enumerate_circle_diagrams(size, m), [{k: 1} for k in killed] + rows)
    return _fraction_echelon(full)


# shapes whose circle quotient is checked against the full reference
_CIRCLE_SHAPES = ((1, 6), (2, 4), (3, 4), (4, 3), (2, 5))


def test_circle_rows_equal_canonical_reference():
    # each support's block against every seed's brute-force rows with the
    # killed terms dropped, deduplicated, restricted to the diagrams with
    # that support in basis order: the block's drawings are theirs with -1
    # at the empty circles, no row holds a killed position, and each
    # relation is built from one of its two seeds, the first met, so at most
    # half as many rows are built as the reference's
    for q, top in _CIRCLE_SHAPES:
        for m in range(top + 1):
            rows, killed = _reference_circle_rows(q, m)
            dropped = [row for row in ({k: v for k, v in r.items() if k not in killed} for r in rows) if row]
            basis = enumerate_circle_diagrams(q, m)
            # the blocks of the supports that can carry 2m feet cover the basis
            supports = [s for k in range(1, min(q, 2 * m) + 1) for s in combinations(range(q), k)]
            assert set(map(support_of, basis)) == (set(supports) if m else {()}), (q, m)
            seeded = 0
            for support in supports:
                block_rows, block_killed = restricted(q, m, support, dropped, killed)
                built = circle_relations(len(support), m)
                placed = [on_circles(drawing, support, q) for drawing in built.basis]
                assert placed == [drawing for drawing in basis if support_of(drawing) == support], (q, m, support)
                assert built.killed == block_killed, (q, m, support)
                assert built.rows == RelationSet(m, built.basis, block_rows).rows, (q, m, support)
                block_basis, drawings, _ = _block_table(len(support), m)
                if m > 1:
                    isolated = list(map(isolated_chords, block_basis))
                    seeded += len(_circle_four_term_rows(m, block_basis, drawings, isolated))
            assert 2 * seeded <= len(dropped), (q, m)


def test_circle_quotient_equals_full_reference():
    # against the Fraction echelon of the unit rows for killed positions plus
    # every seed's 4T rows: the same dimension, the same pivots, the same
    # float rows off the killed columns, and the same reduce output
    rng = random.Random(17)
    for q, top in _CIRCLE_SHAPES:
        for m in range(top + 1):
            full = _reference_echelon("circles", q, m)
            basis = enumerate_circle_diagrams(q, m)
            assert len(basis) - len(full) == quotient_dimension(m, ("circles", q)), (q, m)
            size, rows = _pivot_rows(q, m)
            assert size == len(basis) and [p for p, _ in rows] == sorted(full), (q, m)
            killed = set(_reference_circle_rows(q, m)[1])
            for p, row in rows:
                expected = {c: float(v) for c, v in full[p].items() if c != p and c not in killed}
                assert dict(row) == expected, (q, m, p)
        vec = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(len(circle_basis(q, top)))])
        for threshold in (0.0, 1e-12, 0.5):
            reference = _dict_reduce(vec, ("circles", q), top, threshold)
            dense = reduce(vec, ("circles", q), top, threshold)
            free = free_positions(("circles", q), top)
            assert [dense[k] for k in free] == [reference.get(k, 0j) for k in free], (q, top, threshold)
            assert not np.delete(dense, free).any()


def test_block_placed_pivot_rows_equal_whole_basis_builder():
    # each support's block echelon, placed in the q-circle basis, against
    # the echelon of the rows seeded over the whole basis
    for q, top in _CIRCLE_SHAPES + ((5, 3),):
        for m in range(top + 1):
            assert _pivot_rows(q, m) == float_rows(whole_circle_relations(q, m)), (q, m)


def test_circle_dimensions():
    assert [quotient_dimension(m, ("circles", 1)) for m in range(4)] == [1, 0, 1, 1]


def test_circle_degree_two_structure():
    diagrams = enumerate_circle_diagrams(1, 2)
    assert diagrams == ((0, 0, 1, 1, -1), (0, 1, 0, 1, -1))
    killed = [d for d in diagrams if isolated_chords(d)]
    assert killed == [(0, 0, 1, 1, -1)] and circle_relations(1, 2).killed == (0,)


def test_horizontal_dimensions_match_sympy_rank():
    sympy = pytest.importorskip("sympy")
    for n, m in ((3, 2), (3, 3), (4, 2)):
        rs = horizontal_relations(n, m)
        dense = [[0] * len(rs.basis) for _ in rs.rows]
        for r, row in enumerate(rs.rows):
            for col, coeff in row:
                dense[r][col] = coeff
        assert rank(rs) == sympy.Matrix(dense).rank()
        assert quotient_dimension(m, ("strands", n)) == len(rs.basis) - rank(rs)


def test_prequotient_two_strand_dims():
    assert [quotient_dimension(m, ("strands", 2)) for m in range(4)] == [1, 1, 1, 1]


def layout_position(layout):
    """Position of the diagram a layout draws in its degree's enumerate_circle_diagrams.

    layout is one flat sequence: each circle's chord labels (ints >= 0, each
    twice) followed by -1, renumbered by first appearance and looked up in
    the degree's drawing table.
    """
    n_circles = layout.count(-1)
    return position(_orbit_table(n_circles, (len(layout) - n_circles) // 2)[1], layout)


def _check_rotations_share_one_position(diagram, n_drawings):
    """Every rotated drawing of diagram finds the position of its canonical drawing.

    Both lookups are checked: layout_position on the flat layout as drawn,
    labels numbered by first appearance, and on the same layout with its
    labels numbered in reverse, which it must renumber.
    """
    q, m = diagram.n_circles, diagram.degree
    basis = enumerate_circle_diagrams(q, m)
    expected = basis.index(drawing_of(canonical(diagram)))
    drawings = rotations(diagram)
    assert len(drawings) == n_drawings  # the rotations draw distinct chord sets
    for drawing in drawings:
        flat = [label for circle in drawing.to_layout() for label in circle + [-1]]
        assert layout_position(flat) == expected, drawing
        assert layout_position([m - 1 - label if label >= 0 else -1 for label in flat]) == expected, drawing


def test_circle_canonicalization_rotation_invariant():
    # one isolated chord and two crossing ones: each rotation moves the isolated chord
    diagram = CircleDiagram((6,), (((0, 0), (0, 1)), ((0, 2), (0, 4)), ((0, 3), (0, 5))))
    _check_rotations_share_one_position(diagram, 6)


def test_circle_two_circle_rotations_independent():
    # rotating circle 1 alone swaps the feet of the two chords between circles
    diagram = CircleDiagram((4, 2), (((0, 0), (0, 1)), ((0, 2), (1, 0)), ((0, 3), (1, 1))))
    _check_rotations_share_one_position(diagram, 8)


def test_circle_diagram_normalizes_validates_and_stays_frozen():
    diagram = CircleDiagram(["2", 2.0], [[(1, 1), (0, 1)], ((1, 0), ("0", 0))])
    assert diagram.slots == (2, 2) and diagram.chords == (((0, 0), (1, 0)), ((0, 1), (1, 1)))
    assert diagram == ((2, 2), (((0, 0), (1, 0)), ((0, 1), (1, 1))))  # a plain (slots, chords) tuple
    assert diagram == CircleDiagram.from_layout([["a", "b"], ["a", "b"]]) and hash(diagram) == hash(
        CircleDiagram((2, 2), (((0, 1), (1, 1)), ((0, 0), (1, 0))))
    )
    assert repr(diagram) == "<circles (2, 2) chords (((0, 0), (1, 0)), ((0, 1), (1, 1)))>"
    assert (diagram.degree, diagram.n_circles, diagram.to_layout()) == (2, 2, [[0, 1], [0, 1]])
    for slots, chords, message in (
        ((2,), (((0, 0), (0, 2)),), "endpoint (0, 2) outside the skeleton"),
        ((2,), (((0, 0), (1, 0)),), "endpoint (1, 0) outside the skeleton"),
        ((2,), (((0, 0), (0, 0)),), "endpoint (0, 0) used twice"),
        ((4,), (((0, 0), (0, 1)),), "chords must cover every slot exactly once"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            CircleDiagram(slots, chords)
    with pytest.raises(ValueError, match=re.escape("label 'a' appears 3 times")):
        CircleDiagram.from_layout([["a", "a", "a", "b"], ["b"]])
    with pytest.raises(AttributeError):
        diagram.slots = (4,)
    # the library's drawing of it: slots and chords read back, the isolated-chord test agrees
    assert drawing_of(diagram) == (0, 1, -1, 0, 1, -1) and diagram_of((1, 0, -1, 1, 0, -1)) == diagram
    assert slots_and_chords(drawing_of(diagram)) == diagram and not isolated_chords(drawing_of(diagram))


def test_quotient_dimension_argument_check():
    # an unknown skeleton kind, fewer than 2 strands and no circle are
    # refused in one line where reduce, free_positions and
    # quotient_dimension all read the skeleton
    for refusal, kind in (
        (lambda: free_positions(("foo", 3), 1), "foo"),
        (lambda: free_positions(("Strands", 3), 1), "Strands"),
        (lambda: reduce(np.ones(7), ("strand", 3), 1), "strand"),
        (lambda: quotient_dimension(2, ("circle", 1)), "circle"),
    ):
        with pytest.raises(ValueError) as info:
            refusal()
        assert str(info.value) == f"unknown skeleton kind {kind!r}, expected 'strands' or 'circles'"
    for refusal, message in (
        (lambda: free_positions(("strands", 1), 2), "need at least 2 strands"),
        (lambda: reduce(np.ones(1), ("strands", 1), 0), "need at least 2 strands"),
        (lambda: quotient_dimension(2, ("strands", 0)), "need at least 2 strands"),
        (lambda: free_positions(("circles", 0), 1), "need at least 1 circle"),
        (lambda: reduce(np.ones(1), ("circles", 0), 0), "need at least 1 circle"),
        (lambda: quotient_dimension(2, ("circles", -1)), "need at least 1 circle"),
        (lambda: quotient_dimension(-1, ("circles", 2)), "need degree >= 0"),
        (lambda: circle_relations(0, 2), "need at least 1 circle"),
        (lambda: enumerate_circle_diagrams(0, 0), "need at least 1 circle"),
    ):
        with pytest.raises(ValueError) as info:
            refusal()
        assert str(info.value) == message


def _fraction_echelon(relation_set):
    """The Fraction elimination the integer echelon replaced, kept as its reference."""
    pivots = {}
    for raw in relation_set.rows:
        row = {c: Fraction(v) for c, v in raw}
        while row:
            lead = min(row)
            if lead in pivots:
                factor = row.pop(lead)
                for c, v in pivots[lead].items():
                    if c == lead:
                        continue
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                continue
            inv = Fraction(1) / row[lead]
            row = {c: v * inv for c, v in row.items()}
            for prow in pivots.values():
                if lead in prow:
                    f = prow.pop(lead)
                    for c, v in row.items():
                        if c == lead:
                            continue
                        nv = prow.get(c, Fraction(0)) - f * v
                        if nv:
                            prow[c] = nv
                        else:
                            prow.pop(c, None)
            pivots[lead] = row
            break
    return pivots


def test_integer_echelon_equals_fraction_reference():
    # integer rows with a positive pivot, each divided by its pivot, against
    # a Fraction elimination of the same rows
    sets = [(horizontal_relations, n, m) for n, top in ((3, 4), (4, 3), (5, 2)) for m in range(top + 1)]
    # circle_relations(1, 6) is the first set whose echelon has a denominator 4
    sets += [(circle_relations, q, m) for q, top in ((1, 6), (2, 4), (3, 4)) for m in range(top + 1)]
    denominators = set()
    for build, size, m in sets:
        echelon = build(size, m).echelon()
        assert all(type(v) is int for row in echelon.values() for v in row.values())
        assert all(row[p] > 0 for p, row in echelon.items())
        normalized = {p: {c: Fraction(v, row[p]) for c, v in row.items()} for p, row in echelon.items()}
        assert normalized == _fraction_echelon(build(size, m)), (build.__name__, size, m)
        if build is circle_relations:
            denominators.update(v.denominator for row in normalized.values() for v in row.values())
    assert {2, 4} <= denominators


def _raw_matchings(feet):
    if not feet:
        yield ()
        return
    first, rest = feet[0], feet[1:]
    for k, second in enumerate(rest):
        for sub in _raw_matchings(rest[:k] + rest[k + 1:]):
            yield ((first, second),) + sub


def test_drawing_table_basis_matches_brute_force():
    # every raw matching, every rotation of every diagram included, against
    # the brute-force least rotation and the (degree, slots, chords) order
    for q, top in ((1, 5), (2, 4), (3, 3), (4, 3)):
        walked = 0
        for m in range(top + 1):
            basis = enumerate_circle_diagrams(q, m)
            found = set()
            for slots in product(range(2 * m + 1), repeat=q):
                if sum(slots) != 2 * m:
                    continue
                feet = tuple((c, s) for c, n in enumerate(slots) for s in range(n))
                for matching in _raw_matchings(feet):
                    walked += 1
                    diagram = canonical(CircleDiagram(slots, matching))
                    layout = [[None] * n for n in slots]
                    for label, chord in enumerate(matching):
                        for c, s in chord:
                            layout[c][s] = label
                    flat = [label for circle in layout for label in circle + [-1]]
                    assert diagram_of(basis[layout_position(flat)]) == diagram
                    # every drawing of a diagram, not only its basis drawing, shows its isolated chords
                    assert len(isolated_chords(flat)) == len(diagram.isolated_chords())
                    found.add(diagram)
            # each entry is its canonical diagram's drawing, read back by slots_and_chords
            expected = sorted(found, key=diagram_sort_key)
            assert basis == tuple(map(drawing_of, expected))
            assert [slots_and_chords(drawing) for drawing in basis] == expected
            assert [sorted(isolated_chords(d)) for d in basis] == [sorted(d.isolated_chords()) for d in expected]
        assert walked == _circle_counts(q, top)[0]


def test_drawing_table_holds_each_matching_once():
    # one entry per raw matching of the degree, each filed under the basis
    # position of its brute-force least rotation: the drawings filed at a
    # position are the rotations of a diagram that is its own canonical
    # drawing; at (6, 3) splits with up to five empty circles take the walk
    # of their non-empty circles
    for q, top in ((1, 6), (2, 4), (3, 4), (4, 3), (5, 3), (6, 3)):
        for m in range(top + 1):
            basis, drawings = _orbit_table(q, m)
            assert len(drawings) == _circle_counts(q, m)[0] - _circle_counts(q, m - 1)[0]
            # each slot split adds its walk's (2m-1)!! entries consecutively,
            # splits in increasing order
            splits = [slots_and_chords(drawing)[0] for drawing in drawings]
            per_split = math.prod(range(1, 2 * m, 2))
            runs = [splits[k:k + per_split] for k in range(0, len(splits), per_split)]
            assert [run[0] for run in runs] == sorted(set(splits)), (q, m)
            assert all(run == [run[0]] * per_split for run in runs), (q, m)
            filed = [set() for _ in basis]
            for drawing, position in drawings.items():
                filed[position].add(diagram_of(drawing))
            for drawing, drawn in zip(basis, filed):
                diagram = diagram_of(drawing)
                assert diagram == canonical(diagram) and drawn == rotations(diagram), (q, m, diagram)


def _split_table_reference(slots, degree, matchings):
    """A slot split's (basis, drawing -> position), every rotation renumbered by first appearance.

    The reference for the library's _split_table, which turns one circle a
    slot at a time instead: each rotation of a new basis drawing reads the
    matching through its own index map, and its labels are then renumbered.
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


def _orbit_table_reference(q, m):
    """The reference for _orbit_table(q, m), built from the reference walks.

    Every slot split, in increasing order among all (2m+1)^q tuples, takes
    the walk of its non-empty circles with a -1 at each empty circle.
    """
    matchings = tuple(_matchings(m))
    basis, drawings, walks = [], {}, {}
    for slots in product(range(2 * m + 1), repeat=q):
        if sum(slots) != 2 * m:
            continue
        shown = tuple(n for n in slots if n)
        if shown not in walks:
            walks[shown] = _split_table_reference(shown, m, matchings) if m else ([(-1,)], {(-1,): 0})

        def insert(drawing):
            ends = [k + 1 for k, label in enumerate(drawing) if label < 0]
            circles = iter([drawing[start:end] for start, end in zip([0] + ends, ends)])
            return tuple(label for n in slots for label in (next(circles) if n else (-1,)))

        walk_basis, walk = walks[shown]
        shift = len(basis)
        basis += map(insert, walk_basis)
        drawings.update((insert(drawing), shift + k) for drawing, k in walk.items())
    return tuple(basis), drawings


def _four_term_rows_reference(drawing, parent, killed):
    """One basis drawing's 4T rows from every seed, the reference for _circle_four_term_rows.

    No seed is skipped for an isolated chord or a later circle: every seed
    looks up its other seed's term first and is skipped only when that
    term's position is below parent; each term is renumbered by first
    appearance before the lookup.
    """
    n_circles = drawing.count(-1)
    drawings = _orbit_table(n_circles, (len(drawing) - n_circles) // 2)[1]
    rows = []
    start = 0
    for i, b in enumerate(drawing):
        if b < 0:
            start = i + 1
            continue
        x, a = (i, drawing[i + 1]) if drawing[i + 1] >= 0 else (start, drawing[start])
        if a == b:
            continue
        removed = drawing[:i] + drawing[i + 1:]
        y = removed.index(a)
        if y == x:
            y = removed.index(a, x + 1)
        other = position(drawings, removed[:y] + (b,) + removed[y:])
        if other < parent:
            continue
        row = {}
        for k, sign in (
            (position(drawings, removed[:x + 1] + (b,) + removed[x + 1:]), 1),
            (parent, -1),
            (position(drawings, removed[:y + 1] + (b,) + removed[y + 1:]), 1),
            (other, -1),
        ):
            if not killed[k]:
                row[k] = row.get(k, 0) + sign
        row = {k: v for k, v in row.items() if v}
        if row:
            rows.append(row)
    return rows


def test_circle_build_equals_renumbering_reference_beyond_brute_force():
    # shapes past _CIRCLE_SHAPES: the drawing tables (basis, and entries in
    # insertion order), each support's block of 4T rows with the seeds that
    # have an isolated chord skipped and the terms placed from the parent's
    # drawing, the killed positions and the placed float pivot rows, against
    # the walk that renumbered every rotation and the rows built from every
    # seed
    for q, top in ((1, 7), (4, 4), (5, 3), (6, 3)):
        for m in range(top + 1):
            basis, drawings = _orbit_table(q, m)
            reference_basis, reference_drawings = _orbit_table_reference(q, m)
            assert basis == reference_basis, (q, m)
            assert list(drawings.items()) == list(reference_drawings.items()), (q, m)
            del reference_basis, reference_drawings
            flags = [diagram_of(drawing).has_isolated_chord() for drawing in basis]
            rows = [row for k, d in enumerate(basis) for row in _four_term_rows_reference(d, k, flags)] if m > 1 else []
            reference = RelationSet(m, basis, rows, (k for k, flag in enumerate(flags) if flag))
            reference_rows = list(map(dict, reference.rows))
            for support in {support_of(drawing) for drawing in basis} - {()}:
                block_rows, block_killed = restricted(q, m, support, reference_rows, reference.killed)
                built = circle_relations(len(support), m)
                expected = (RelationSet(m, built.basis, block_rows).rows, block_killed)
                assert (built.rows, built.killed) == expected, (q, m, support)
            # on one circle the block is the whole set: equal rows give equal
            # echelons, so its (cached) echelon stands in for the reference's
            expected = float_rows(circle_relations(1, m) if q == 1 and m else reference)
            assert _pivot_rows(q, m) == expected, (q, m)


def test_reduce_threshold_is_reached_at_equality():
    # a free entry whose modulus equals the threshold survives the threshold
    # before and after the rows; at the next double above it, it is dropped
    c = complex(0.1, -0.7)
    for skeleton in (("strands", 3), ("circles", 2)):
        k = free_positions(skeleton, 1)[-1]  # a degree-1 entry no row touches
        vec = np.zeros(graded_size(skeleton, 1), dtype=complex)
        vec[k] = c
        assert reduce(vec, skeleton, 1, abs(c))[k] == c
        assert reduce(vec, skeleton, 1, math.nextafter(abs(c), math.inf))[k] == 0
