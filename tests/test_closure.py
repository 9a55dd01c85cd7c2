import random
import re
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from kzbraid.braids import BraidWord, parse_braid_word, permutation_of
from kzbraid.circles import circle_basis, enumerate_circle_diagrams
from kzbraid.closure import _tau_index, closure_skeleton, kontsevich_link, tau_project
from kzbraid.relations import free_positions, reduce
from kzbraid.transport import kontsevich_of_braid
from kzbraid.words import basis_size, basis_words
from reference_orders import CircleDiagram, canonical, diagram_of, drawing_of, link_of, tau_index_reference, word


def series(n, max_degree, terms):
    """Dense series over basis_words(n, max_degree) from {chord tuple: coefficient}."""
    basis = basis_words(n, max_degree)
    out = np.zeros(len(basis), dtype=complex)
    for chords, coeff in terms.items():
        out[basis.index(word(n, *chords))] += coeff
    return out


def terms(coefficients, n_circles, max_degree):
    """{CircleDiagram: coefficient} of the nonzero entries of a dense circle series."""
    basis = circle_basis(n_circles, max_degree)
    return {diagram_of(basis[k]): c for k, c in enumerate(coefficients.tolist()) if c}


def test_closure_skeleton_examples():
    assert closure_skeleton(parse_braid_word("1 1", 2)) == ((1,), (2,))
    assert closure_skeleton(parse_braid_word("1", 2)) == ((1, 2),)
    assert closure_skeleton(parse_braid_word("1 2", 3)) == ((1, 3, 2),)
    assert closure_skeleton(parse_braid_word("2", 3)) == ((1,), (2, 3))
    assert closure_skeleton(parse_braid_word("-1", 3)) == closure_skeleton(parse_braid_word("1", 3)) == ((1, 2), (3,))
    # one cycle through all 1,448 strands, walked once
    long_cycle = closure_skeleton(BraidWord(1448, tuple((k, 1) for k in range(1, 1448))))
    assert long_cycle == ((1,) + tuple(range(1448, 1, -1)),)


def test_component_count_matches_cycles_random():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 5)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(0, 8))
        )
        w = BraidWord(n, letters)
        images, cycles = permutation_of(w), closure_skeleton(w)
        # the cycles partition the strands, each from its lowest, in order of it
        assert sorted(s for cycle in cycles for s in cycle) == list(range(1, n + 1))
        assert [cycle[0] for cycle in cycles] == sorted(min(cycle) for cycle in cycles)
        for cycle in cycles:
            assert [images[s - 1] for s in cycle] == list(cycle[1:] + cycle[:1]), (images, cycles)


def test_tau_inter_component_chord():
    cycles = closure_skeleton(parse_braid_word("1 1", 2))
    projected = tau_project(series(2, 1, {((1, 2),): 1.0}), cycles, 1)
    expected = CircleDiagram((1, 1), (((0, 0), (1, 0)),))
    assert terms(projected, 2, 1) == {expected: 1.0}


def test_tau_single_component_isolated():
    cycles = closure_skeleton(parse_braid_word("1", 2))
    projected = tau_project(series(2, 1, {((1, 2),): 1.0}), cycles, 1)
    (diagram, coeff), = terms(projected, 1, 1).items()
    assert coeff == 1.0
    assert diagram.slots == (2,)
    assert diagram.has_isolated_chord()


def test_tau_two_chord_hopf_pattern():
    cycles = closure_skeleton(parse_braid_word("1 1", 2))
    projected = tau_project(series(2, 2, {((1, 2), (1, 2)): 1.0}), cycles, 2)
    expected = CircleDiagram((2, 2), (((0, 0), (1, 0)), ((0, 1), (1, 1))))
    assert terms(projected, 2, 2) == {expected: 1.0}


def test_tau_linear_and_degree_preserving():
    cycles = closure_skeleton(parse_braid_word("1 2", 3))
    a = series(3, 2, {((1, 2),): 1.0, ((1, 3), (2, 3)): 2.0})
    b = series(3, 2, {((1, 2),): -0.5j, ((2, 3),): 4.0})
    lam = 1.5 - 2j
    combo = tau_project(a + lam * b, cycles, 2)
    split = tau_project(a, cycles, 2) + lam * tau_project(b, cycles, 2)
    assert np.abs(combo - split).max() < 1e-12
    for g, hword in enumerate(basis_words(3, 2)):
        if a[g]:
            image = tau_project(np.where(np.arange(len(a)) == g, a, 0), cycles, 2)
            assert [d.degree for d in terms(image, 1, 2)] == [len(hword)]


def test_tau_rejects_mismatched_skeleton():
    cycles = closure_skeleton(parse_braid_word("1", 3))
    with pytest.raises(ValueError):
        tau_project(series(4, 1, {((1, 2),): 1.0}), cycles, 1)
    # a repeated strand, a strand on two cycles, one strand, or cycles of 4 strands for a 3-strand series
    s = series(3, 2, {((1, 2),): 1.0})
    for cycles, message in (
        (((1, 1), (2,)), "cycles ((1, 1), (2,)) do not partition the strands 1..N of a braid, N >= 2"),
        (((1, 2), (2, 3)), "cycles ((1, 2), (2, 3)) do not partition the strands 1..N of a braid, N >= 2"),
        (((1,),), "cycles ((1,),) do not partition the strands 1..N of a braid, N >= 2"),
        (((1, 4), (2, 3)), "13 coefficients do not fill the word basis to degree 2"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tau_project(s, cycles, 2)


def _tau_reference(coefficients, w, max_degree):
    """tau word by word: feet per strand, one canonical CircleDiagram each."""
    cycles = closure_skeleton(w)
    out = {}
    for hword, coeff in zip(basis_words(w.n_strands, max_degree), coefficients.tolist()):
        if not coeff:
            continue
        feet = {strand: [] for strand in range(1, w.n_strands + 1)}
        for height, (i, j) in enumerate(hword):
            feet[i].append(height)
            feet[j].append(height)
        layout = [[h for strand in cycle for h in feet[strand]] for cycle in cycles]
        diagram = canonical(CircleDiagram.from_layout(layout))
        out[diagram] = out.get(diagram, 0j) + coeff
    return {d: c for d, c in out.items() if c}


def _braid_sorting(perm):
    """Positive braid word whose letters bubble-sort perm."""
    order, letters = list(perm), []
    for done in range(len(order)):
        for k in range(len(order) - 1 - done):
            if order[k] > order[k + 1]:
                order[k], order[k + 1] = order[k + 1], order[k]
                letters.append((k + 1, 1))
    return BraidWord(len(perm), tuple(letters))


def test_tau_index_matches_per_word_reference_on_every_permutation():
    rng = random.Random(5)
    coefficients = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in basis_words(4, 3)])
    closures = set()
    for perm in permutations(range(1, 5)):
        w = _braid_sorting(perm)
        cycles = closure_skeleton(w)
        closures.add(cycles)
        # both sum each diagram's terms in basis order, so the floats agree exactly
        projected = tau_project(coefficients, cycles, 3)
        assert terms(projected, len(cycles), 3) == _tau_reference(coefficients, w, 3), perm
    assert len(closures) == 24


def test_tau_index_equals_per_word_reference_on_every_closure():
    # every permutation of 4 strands at M = 4 and of 5 strands at M = 3, so
    # every cycle type, the 4- and 5-component closures included
    components = set()
    for n, max_degree in ((4, 4), (5, 3)):
        for perm in permutations(range(1, n + 1)):
            cycles = closure_skeleton(_braid_sorting(perm))
            components.add(len(cycles))
            index = _tau_index(max_degree, cycles)
            expected = tau_index_reference(n, max_degree, cycles)
            assert index.dtype == expected.dtype and np.array_equal(index, expected), cycles
            assert not index.flags.writeable
    assert components == {1, 2, 3, 4, 5}


def test_tau_sparse_series_and_dense_vector_agree():
    # a thresholded holonomy projects like the per-word reference on its kept terms
    w = parse_braid_word("1 -2 3 2 -1", 4)
    dense = kontsevich_of_braid(w, 3)
    threshold = 1e-3
    kept = np.array([c if abs(c) >= threshold else 0j for c in dense.tolist()])
    assert 0 < np.count_nonzero(kept) < len(dense)
    projected = tau_project(kept, closure_skeleton(w), 3)
    assert terms(projected, len(closure_skeleton(w)), 3) == _tau_reference(kept, w, 3)
    with pytest.raises(ValueError):
        tau_project(dense[:-1], closure_skeleton(w), 3)


def test_trivial_braid_closure_two_unknots():
    braid = parse_braid_word("", 2)
    assert len(closure_skeleton(braid)) == 2
    assert np.abs(link_of(braid, 3)[1:]).max() < 1e-12


def test_hopf_link_linking_number():
    reduced = link_of(parse_braid_word("1 1", 2), 1)
    expected = circle_basis(2, 1).index(drawing_of(CircleDiagram((1, 1), (((0, 0), (1, 0)),))))
    assert abs(reduced[expected] - 1.0) < 1e-6


def test_unknot_degree_one_vanishes_exactly():
    assert not link_of(parse_braid_word("1", 2), 1)[1:].any()


def _combinatorial_linking(word_obj, cycles):
    """Half the signed count of crossings between strands of two components."""
    component_of = {}
    for index, cycle in enumerate(cycles):
        for strand in cycle:
            component_of[strand] = index
    totals = {}
    strand_at = list(range(1, word_obj.n_strands + 1))
    for k, sign in word_obj.letters:
        a, b = strand_at[k - 1], strand_at[k]
        ca, cb = component_of[a], component_of[b]
        if ca != cb:
            key = frozenset((ca, cb))
            totals[key] = totals.get(key, 0.0) + 0.5 * sign
        strand_at[k - 1], strand_at[k] = b, a
    return totals


def test_linking_numbers_match_crossing_count():
    rng = random.Random(21)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 4)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(1, 6))
        )
        w = BraidWord(n, letters)
        cycles = closure_skeleton(w)
        if len(cycles) < 2:
            continue
        checked += 1
        reduced = link_of(w, 1)
        expected = _combinatorial_linking(w, cycles)
        for pair in [(i, j) for i in range(len(cycles)) for j in range(i + 1, len(cycles))]:
            slots = [0] * len(cycles)
            slots[pair[0]] = 1
            slots[pair[1]] = 1
            diagram = CircleDiagram(tuple(slots), (((pair[0], 0), (pair[1], 0)),))
            got = reduced[circle_basis(len(cycles), 1).index(drawing_of(diagram))]
            want = expected.get(frozenset(pair), 0.0)
            assert abs(got - want) < 1e-6


def test_mirror_image_flips_odd_degrees():
    # flipping every letter's sign mirrors the closure, which multiplies the
    # degree-m block of the reduced closure by (-1)^m
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(2, 4)
        letters = tuple((rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(1, 7)))
        braid = BraidWord(n, letters)
        reduced = link_of(braid, 4)
        mirrored = link_of(BraidWord(n, tuple((k, -sign) for k, sign in letters)), 4)
        q = len(closure_skeleton(braid))
        signs = np.concatenate([np.full(len(enumerate_circle_diagrams(q, m)), (-1.0) ** m) for m in range(5)])
        assert np.abs(mirrored - signs * reduced).max() < 1e-12, (n, letters)


# Q[x]/(x^3): an element is its three Taylor coefficients, Fractions
_ZERO, _ONE = (Fraction(0),) * 3, (Fraction(1), Fraction(0), Fraction(0))


def _ring_mul(a, b):
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(3))


def _ring_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _ring_inverse(a):
    return (1 / a[0], -a[1] / a[0] ** 2, (a[1] ** 2 - a[0] * a[2]) / a[0] ** 3)


def _one_minus_power(m):
    """(1 - t^m) / x at t = e^x."""
    return (Fraction(-m), Fraction(-m * m, 2), Fraction(-(m**3), 6))


def _burau_letter(n, k, sign):
    """Reduced Burau matrix of sigma_k^sign at t = e^x, (N-1) x (N-1) over Q[x]/(x^3).

    The block on basis vectors k-2, k-1, k (those in range) is
    [[1, t, 0], [0, -t, 0], [0, 1, 1]] for sign +1 and its inverse
    [[1, 1, 0], [0, -1/t, 0], [0, 1/t, 1]] for sign -1.
    """
    t = (Fraction(1), Fraction(1), Fraction(1, 2))
    if sign > 0:
        block = [[_ONE, t, _ZERO], [_ZERO, _ring_sub(_ZERO, t), _ZERO], [_ZERO, _ONE, _ONE]]
    else:
        inverse = _ring_inverse(t)
        block = [[_ONE, _ONE, _ZERO], [_ZERO, _ring_sub(_ZERO, inverse), _ZERO], [_ZERO, inverse, _ONE]]
    matrix = [[_ONE if r == c else _ZERO for c in range(n - 1)] for r in range(n - 1)]
    for r in range(3):
        for c in range(3):
            if 0 <= k - 2 + r < n - 1 and 0 <= k - 2 + c < n - 1:
                matrix[k - 2 + r][k - 2 + c] = block[r][c]
    return matrix


def _ring_det(a):
    """Determinant by elimination; every pivot taken has a unit constant term."""
    a, det = [list(row) for row in a], _ONE
    for col in range(len(a)):
        pivot = next(r for r in range(col, len(a)) if a[r][col][0])
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = _ring_sub(_ZERO, det)
        det = _ring_mul(det, a[col][col])
        inverse = _ring_inverse(a[col][col])
        for r in range(col + 1, len(a)):
            factor = _ring_mul(a[r][col], inverse)
            a[r] = [_ring_sub(x, _ring_mul(factor, y)) for x, y in zip(a[r], a[col])]
    return det


def _conway_c2(w):
    """Conway c2 of a knot closure, exactly, from its reduced Burau matrix B.

    Delta(t) = det(I - B) (1 - t) / (1 - t^N) up to a unit +-t^k (Birman,
    1974).  At t = e^x that is F(x) = +-e^{kx} (1 + c2 x^2 + ...), so with
    the sign that makes F(0) = 1, c2 = (F''(0) - F'(0)^2) / 2.  At x = 0, B
    is an N-cycle in the standard representation of S_N, which has no
    eigenvalue 1, so I - B has a pivot with a unit constant in every column.
    """
    size = w.n_strands - 1
    product = [[_ONE if r == c else _ZERO for c in range(size)] for r in range(size)]
    for k, sign in w.letters:
        letter = _burau_letter(w.n_strands, k, sign)
        product = [
            [tuple(map(sum, zip(*(_ring_mul(row[j], letter[j][c]) for j in range(size))))) for c in range(size)]
            for row in product
        ]
    minus = [[_ring_sub(_ONE if r == c else _ZERO, product[r][c]) for c in range(size)] for r in range(size)]
    ratio = _ring_mul(_one_minus_power(1), _ring_inverse(_one_minus_power(w.n_strands)))
    f = _ring_mul(_ring_det(minus), ratio)
    f = tuple(v / f[0] for v in f)  # f[0] is +-1
    return f[2] - f[1] ** 2 / 2  # F''(0) / 2 - F'(0)^2 / 2


def test_conway_c2_reference_examples():
    # trefoil, figure-eight, the (2, 5) torus knot, unknots, a stabilized trefoil
    for text, n, c2 in (("1 1 1", 2, 1), ("1 -2 1 -2", 3, -1), ("1 1 1 1 1", 2, 3), ("1", 2, 0), ("1 2 3", 4, 0),
                        ("1 1 1 2", 3, 1)):
        assert _conway_c2(parse_braid_word(text, n)) == c2, text


def test_degree_two_closure_is_conway_c2_plus_a_constant_per_strand_count():
    # the reduced degree-2 coordinate of a knot closure minus c2 is one
    # constant per strand count, today (N^2 - 1)/24: the closure adds no
    # max/min-point normalization yet, so the constant still depends on N
    free = free_positions(("circles", 1), 2)
    (position,) = [p for p in free if p >= len(circle_basis(1, 1))]
    rng = random.Random(27)
    for n in (2, 3, 4, 5):
        offsets, c2s = [], set()
        while len(offsets) < 8 or len(c2s) < 2:  # knots, not only unknots
            letters = tuple((rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(1, 9)))
            w = BraidWord(n, letters)
            if len(closure_skeleton(w)) != 1:
                continue
            degree_two = link_of(w, 2)[position]
            assert abs(degree_two.imag) <= 1e-12, (n, letters)
            c2 = _conway_c2(w)
            c2s.add(c2)
            offsets.append(degree_two.real - float(c2))
        assert max(offsets) - min(offsets) <= 1e-12, (n, offsets)


# a common denominator of the reduced closure's coordinates at each degree
# 0-6, from Fraction.limit_denominator over random braids on 2-5 strands;
# every factor is 2, 3 or 5
DENOMINATORS = (1, 1, 24, 48, 5760, 11520, 414720)
RATIONAL_BRAIDS = (
    ("1", 2), ("1 1", 2), ("1 1 1", 2), ("-1 -1 -1 -1", 2), ("1 1 1 1 1", 2),
    ("1 2", 3), ("1 -2", 3), ("1 1 1 2", 3), ("1 -2 1 -2", 3), ("1 1 2", 3), ("2 1 1 2 1", 3), ("1 2 1 2", 3),
    ("-1 2 2 2 -1 -1 2", 3), ("1 1 2 -1 2", 3),
    ("1 -2 3", 4), ("1 2 3 2 2", 4), ("1 -2 1 3 -2 3", 4), ("1 1 3 3 2 1", 4), ("-1 2 -3 2", 4),
    ("1 2 3 4", 5), ("1 -2 3 -4", 5), ("1 -2 3 -4 2", 5), ("1 2 2 3 4", 5), ("2 1 3 2 4 3", 5),
)


def _scaled_free_coordinates(reduced, skeleton, sizes):
    """DENOMINATORS[m] times each free coordinate of degree m; sizes[m] counts the basis to degree m."""
    free = np.array(free_positions(skeleton, len(sizes) - 1))
    return np.array(DENOMINATORS)[np.searchsorted(sizes, free, side="right")] * reduced[free]


def test_reduced_closure_is_rational():
    # a link's Kontsevich integral is rational (Le & Murakami, Compositio
    # Math. 102, 1996): 1,338 coordinates through degree 6 (4 on 5 strands),
    # whose worst |D c - nearest integer| seen is 3.2e-8 at degree 6 and
    # 2.9e-11 at degree 5, imaginary parts included; at most 2 components, as
    # 3 or more at degree 6 build slow tables (2 circles take about 3 s)
    for text, n in RATIONAL_BRAIDS:
        w, max_degree = parse_braid_word(text, n), 6 if n <= 4 else 4
        cycles = closure_skeleton(w)
        assert len(cycles) <= 2, text
        link = kontsevich_link(kontsevich_of_braid(w, max_degree), cycles, max_degree, 0.0)
        sizes = [len(circle_basis(len(cycles), m)) for m in range(max_degree + 1)]
        scaled = _scaled_free_coordinates(link, ("circles", len(cycles)), sizes)
        assert np.abs(scaled - np.round(scaled.real)).max() <= 1e-6, text
    # the negative control: the braid series reduced on its strands is not
    # rational, and its real parts alone miss integers by 0.5
    for text, n in (("1 2", 3), ("1 -2 1 -2", 3), ("1 2 3", 4)):
        reduced = reduce(kontsevich_of_braid(parse_braid_word(text, n), 4), ("strands", n), 4, 0.0)
        sizes = [basis_size(n * (n - 1) // 2, m) for m in range(5)]
        scaled = _scaled_free_coordinates(reduced, ("strands", n), sizes)
        assert np.abs(scaled.real - np.round(scaled.real)).max() > 0.4, text
