from fractions import Fraction
from itertools import product

import pytest

from kzbraid.circles import (
    CircleDiagram,
    CircleSeries,
    count_circle_matchings,
    enumerate_circle_diagrams,
    orbit_key,
    orbit_positions,
)
from kzbraid.relations import (
    circle_relations,
    horizontal_relations,
    quotient_dimension,
    reduce,
)
from kzbraid.words import HorizontalSeries, HorizontalWord


def word(n, *chords):
    return HorizontalWord(n, tuple(chords))


def row_series(relation_set, row, n_strands=None, n_circles=None):
    terms = {relation_set.basis[col]: float(coeff) for col, coeff in row}
    if n_strands is not None:
        return HorizontalSeries(n_strands, relation_set.degree, terms)
    return CircleSeries(n_circles, relation_set.degree, terms)


def test_four_term_row_present_n3():
    # the pictured relation on strands 1,2,3 must hold in the quotient
    s = HorizontalSeries(
        3,
        2,
        {
            word(3, (1, 2), (2, 3)): 1.0,
            word(3, (1, 2), (1, 3)): 1.0,
            word(3, (2, 3), (1, 2)): -1.0,
            word(3, (1, 3), (1, 2)): -1.0,
        },
    )
    assert reduce(s).sup_norm() == 0.0


def test_disjoint_commutation_row_n4():
    s = HorizontalSeries(
        4,
        2,
        {word(4, (1, 2), (3, 4)): 1.0, word(4, (3, 4), (1, 2)): -1.0},
    )
    assert reduce(s).sup_norm() == 0.0


def test_two_strand_relations_empty():
    for m in (2, 3, 4):
        assert horizontal_relations(2, m).rows == ()


def test_relation_entries_are_unit_rationals():
    rs = horizontal_relations(3, 3)
    for row in rs.rows:
        for _col, coeff in row:
            # exact integer entries; echelon() turns them into Fractions
            assert type(coeff) is int
            assert coeff in (1, -1)


def test_all_rows_reduce_to_zero():
    for n, m in ((3, 2), (3, 3), (4, 2), (4, 3)):
        rs = horizontal_relations(n, m)
        for row in rs.rows:
            assert reduce(row_series(rs, row, n_strands=n)).sup_norm() == 0.0
    for q, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        rs = circle_relations(q, m)
        for row in rs.rows:
            assert reduce(row_series(rs, row, n_circles=q)).sup_norm() == 0.0


def test_reduce_zero_series():
    z = HorizontalSeries(3, 3)
    assert reduce(z).sup_norm() == 0.0


def test_reduce_idempotent():
    s = HorizontalSeries(
        3,
        3,
        {
            word(3, (1, 2), (2, 3)): 1.5,
            word(3, (2, 3), (1, 2), (1, 3)): -2j,
            word(3, (1, 3)): 0.25,
        },
    )
    nf = reduce(s)
    again = reduce(nf.to_series())
    assert nf.sup_diff(again) == 0.0


def test_reduce_rejects_foreign_words():
    # a supplied relation set whose basis cannot express the series
    rs = horizontal_relations(3, 2)
    bad = HorizontalSeries(4, 2, {word(4, (1, 4), (1, 4)): 1.0})
    with pytest.raises(ValueError):
        reduce(bad, [rs])


def test_circle_dimensions():
    assert quotient_dimension(0, circles=1) == 1
    assert quotient_dimension(1, circles=1) == 0
    assert quotient_dimension(2, circles=1) == 1
    assert quotient_dimension(3, circles=1) == 1


def test_circle_degree_two_structure():
    diagrams = enumerate_circle_diagrams(1, 2)
    assert len(diagrams) == 2
    killed = [d for d in diagrams if d.has_isolated_chord()]
    assert len(killed) == 1


def test_horizontal_dimensions_match_sympy_rank():
    sympy = pytest.importorskip("sympy")
    for n, m in ((3, 2), (3, 3), (4, 2)):
        rs = horizontal_relations(n, m)
        dense = [[0] * len(rs.basis) for _ in rs.rows]
        for r, row in enumerate(rs.rows):
            for col, coeff in row:
                dense[r][col] = coeff
        assert rs.rank == sympy.Matrix(dense).rank()
        assert quotient_dimension(m, strands=n) == len(rs.basis) - rs.rank


def test_prequotient_two_strand_dims():
    assert [quotient_dimension(m, strands=2) for m in range(4)] == [1, 1, 1, 1]


def test_circle_canonicalization_rotation_invariant():
    base = CircleDiagram((4,), (((0, 0), (0, 2)), ((0, 1), (0, 3))))
    rotated = CircleDiagram((4,), (((0, 1), (0, 3)), ((0, 2), (0, 0))))
    shifted = CircleDiagram((4,), (((0, 3), (0, 1)), ((0, 0), (0, 2))))
    assert base == rotated == shifted


def test_circle_two_circle_rotations_independent():
    a = CircleDiagram((2, 2), (((0, 0), (1, 0)), ((0, 1), (1, 1))))
    b = CircleDiagram((2, 2), (((0, 1), (1, 1)), ((0, 0), (1, 0))))
    c = CircleDiagram((2, 2), (((0, 1), (1, 0)), ((0, 0), (1, 1))))
    assert a == b == c  # rotating one circle by one step maps the matchings onto each other


def test_quotient_dimension_argument_check():
    with pytest.raises(ValueError):
        quotient_dimension(2)
    with pytest.raises(ValueError):
        quotient_dimension(2, strands=3, circles=1)


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
    sets = [(horizontal_relations, n, m) for n, top in ((3, 4), (4, 3), (5, 2)) for m in range(top + 1)]
    # circle_relations(1, 6) is the first set whose echelon has a denominator 4
    sets += [(circle_relations, q, m) for q, top in ((1, 6), (2, 4), (3, 4)) for m in range(top + 1)]
    denominators = set()
    for build, size, m in sets:
        echelon = build(size, m).echelon()
        assert echelon == _fraction_echelon(build(size, m)), (build.__name__, size, m)
        entries = [v for row in echelon.values() for v in row.values()]
        assert all(type(v) is Fraction for v in entries)
        if build is circle_relations:
            denominators.update(v.denominator for v in entries)
    assert {2, 4} <= denominators


def _raw_matchings(feet):
    if not feet:
        yield ()
        return
    first, rest = feet[0], feet[1:]
    for k, second in enumerate(rest):
        for sub in _raw_matchings(rest[:k] + rest[k + 1:]):
            yield ((first, second),) + sub


def test_orbit_keyed_basis_matches_brute_force():
    # one CircleDiagram per raw matching, every rotation of every diagram included
    for q, top in ((1, 5), (2, 4), (3, 3), (4, 3)):
        walked = 0
        for m in range(top + 1):
            basis = enumerate_circle_diagrams(q, m)
            positions = orbit_positions(q, m)
            found = set()
            for slots in product(range(2 * m + 1), repeat=q):
                if sum(slots) != 2 * m:
                    continue
                feet = tuple((c, s) for c, n in enumerate(slots) for s in range(n))
                for matching in _raw_matchings(feet):
                    walked += 1
                    diagram = CircleDiagram(slots, matching)
                    layout = [[None] * n for n in slots]
                    for label, chord in enumerate(matching):
                        for c, s in chord:
                            layout[c][s] = label
                    assert basis[positions[orbit_key(layout)]] == diagram
                    found.add(diagram)
            assert basis == tuple(sorted(found, key=CircleDiagram.sort_key))
        assert walked == count_circle_matchings(q, top)
