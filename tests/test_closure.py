import random
from itertools import permutations

import numpy as np
import pytest

from kzbraid.braids import BraidWord, parse_braid_word, permutation_of
from kzbraid.circles import _orbit_table, circle_basis
from kzbraid.closure import _tau_index, closure_skeleton, kontsevich_link, tau_project
from kzbraid.transport import kontsevich_of_braid
from kzbraid.words import all_pairs, basis_words
from reference_orders import CircleDiagram, canonical, diagram_of, drawing_of, position, word


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
    assert closure_skeleton(parse_braid_word("1 1", 2)).components == ((1,), (2,))
    assert closure_skeleton(parse_braid_word("1", 2)).components == ((1, 2),)
    assert closure_skeleton(parse_braid_word("1 2", 3)).n_components == 1
    skeleton = closure_skeleton(parse_braid_word("1", 3))
    assert repr(skeleton) == "LinkSkeleton(n_strands=3, components=((1, 2), (3,)))"
    assert hash(skeleton) == hash(closure_skeleton(parse_braid_word("-1", 3)))
    result = kontsevich_link(parse_braid_word("1", 3), 1)
    assert result.skeleton == skeleton and repr(result).startswith(
        "ClosureResult(skeleton=LinkSkeleton(n_strands=3, components=((1, 2), (3,))), series=array(["
    )
    for record, field in ((skeleton, "components"), (result, "reduced")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())


def test_component_count_matches_cycles_random():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 5)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(0, 8))
        )
        w = BraidWord(n, letters)
        assert closure_skeleton(w).n_components == len(permutation_of(w).cycles())


def test_tau_inter_component_chord():
    skeleton = closure_skeleton(parse_braid_word("1 1", 2))
    projected = tau_project(series(2, 1, {((1, 2),): 1.0}), skeleton)
    expected = CircleDiagram((1, 1), (((0, 0), (1, 0)),))
    assert terms(projected, 2, 1) == {expected: 1.0}


def test_tau_single_component_isolated():
    skeleton = closure_skeleton(parse_braid_word("1", 2))
    projected = tau_project(series(2, 1, {((1, 2),): 1.0}), skeleton)
    (diagram, coeff), = terms(projected, 1, 1).items()
    assert coeff == 1.0
    assert diagram.slots == (2,)
    assert diagram.has_isolated_chord()


def test_tau_two_chord_hopf_pattern():
    skeleton = closure_skeleton(parse_braid_word("1 1", 2))
    projected = tau_project(series(2, 2, {((1, 2), (1, 2)): 1.0}), skeleton)
    expected = CircleDiagram((2, 2), (((0, 0), (1, 0)), ((0, 1), (1, 1))))
    assert terms(projected, 2, 2) == {expected: 1.0}


def test_tau_linear_and_degree_preserving():
    skeleton = closure_skeleton(parse_braid_word("1 2", 3))
    a = series(3, 2, {((1, 2),): 1.0, ((1, 3), (2, 3)): 2.0})
    b = series(3, 2, {((1, 2),): -0.5j, ((2, 3),): 4.0})
    lam = 1.5 - 2j
    combo = tau_project(a + lam * b, skeleton)
    split = tau_project(a, skeleton) + lam * tau_project(b, skeleton)
    assert np.abs(combo - split).max() < 1e-12
    for g, hword in enumerate(basis_words(3, 2)):
        if a[g]:
            image = tau_project(np.where(np.arange(len(a)) == g, a, 0), skeleton)
            assert [d.degree for d in terms(image, 1, 2)] == [len(hword)]


def test_tau_rejects_mismatched_skeleton():
    skeleton = closure_skeleton(parse_braid_word("1", 3))
    with pytest.raises(ValueError):
        tau_project(series(4, 1, {((1, 2),): 1.0}), skeleton)


def _tau_reference(coefficients, w, max_degree):
    """tau word by word: feet per strand, one canonical CircleDiagram each."""
    skeleton = closure_skeleton(w)
    out = {}
    for hword, coeff in zip(basis_words(w.n_strands, max_degree), coefficients.tolist()):
        if not coeff:
            continue
        feet = {strand: [] for strand in range(1, w.n_strands + 1)}
        for height, (i, j) in enumerate(hword):
            feet[i].append(height)
            feet[j].append(height)
        layout = [[h for strand in cycle for h in feet[strand]] for cycle in skeleton.components]
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
    skeletons = set()
    for perm in permutations(range(1, 5)):
        w = _braid_sorting(perm)
        skeleton = closure_skeleton(w)
        skeletons.add(skeleton.components)
        # both sum each diagram's terms in basis order, so the floats agree exactly
        projected = tau_project(coefficients, skeleton)
        assert terms(projected, skeleton.n_components, 3) == _tau_reference(coefficients, w, 3), perm
    assert len(skeletons) == 24


def _tau_index_reference(n_strands, max_degree, cycles):
    """closure._tau_index word by word, as a reference.

    Words are grown one top chord at a time in basis order; feet[s] lists
    the heights of the chords with a foot on strand s + 1, bottom first,
    and each layout is renumbered by first appearance and looked up.
    """
    pairs = [(i - 1, j - 1) for i, j in all_pairs(n_strands)]
    level = [((),) * n_strands]
    index = []
    offset = 0
    for height in range(max_degree + 1):
        basis, drawings = _orbit_table(len(cycles), height)
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


def test_tau_index_equals_per_word_reference_on_every_closure():
    # every permutation of 4 strands at M = 4 and of 5 strands at M = 3, so
    # every cycle type, the 4- and 5-component closures included
    components = set()
    for n, max_degree in ((4, 4), (5, 3)):
        for perm in permutations(range(1, n + 1)):
            cycles = closure_skeleton(_braid_sorting(perm)).components
            components.add(len(cycles))
            index = _tau_index(n, max_degree, cycles)
            expected = _tau_index_reference(n, max_degree, cycles)
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
    projected = tau_project(kept, closure_skeleton(w))
    assert terms(projected, closure_skeleton(w).n_components, 3) == _tau_reference(kept, w, 3)
    with pytest.raises(ValueError):
        tau_project(dense[:-1], closure_skeleton(w))


def test_trivial_braid_closure_two_unknots():
    result = kontsevich_link(parse_braid_word("", 2), 3)
    assert result.skeleton.n_components == 2
    assert np.abs(result.reduced[1:]).max() < 1e-12


def test_hopf_link_linking_number():
    result = kontsevich_link(parse_braid_word("1 1", 2), 1)
    expected = circle_basis(2, 1).index(drawing_of(CircleDiagram((1, 1), (((0, 0), (1, 0)),))))
    assert abs(result.reduced[expected] - 1.0) < 1e-6


def test_unknot_degree_one_vanishes_exactly():
    result = kontsevich_link(parse_braid_word("1", 2), 1)
    assert not result.reduced[1:].any()


def _combinatorial_linking(word_obj, skeleton):
    """Half the signed count of crossings between strands of two components."""
    component_of = {}
    for index, cycle in enumerate(skeleton.components):
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
        skeleton = closure_skeleton(w)
        if skeleton.n_components < 2:
            continue
        checked += 1
        result = kontsevich_link(w, 1)
        expected = _combinatorial_linking(w, skeleton)
        for pair in [(i, j) for i in range(skeleton.n_components) for j in range(i + 1, skeleton.n_components)]:
            slots = [0] * skeleton.n_components
            slots[pair[0]] = 1
            slots[pair[1]] = 1
            diagram = CircleDiagram(tuple(slots), (((pair[0], 0), (pair[1], 0)),))
            got = result.reduced[circle_basis(skeleton.n_components, 1).index(drawing_of(diagram))]
            want = expected.get(frozenset(pair), 0.0)
            assert abs(got - want) < 1e-6


def test_mirror_image_flips_odd_degrees():
    # flipping every letter's sign mirrors the closure, which multiplies the
    # degree-m block of the reduced closure by (-1)^m
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(2, 4)
        letters = tuple((rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(1, 7)))
        result = kontsevich_link(BraidWord(n, letters), 4)
        mirrored = kontsevich_link(BraidWord(n, tuple((k, -sign) for k, sign in letters)), 4).reduced
        q = result.skeleton.n_components
        signs = np.concatenate([np.full(len(_orbit_table(q, m)[0]), (-1.0) ** m) for m in range(5)])
        assert np.abs(mirrored - signs * result.reduced).max() < 1e-12, (n, letters)
