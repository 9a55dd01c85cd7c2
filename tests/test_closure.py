import random
from itertools import permutations

import numpy as np
import pytest

from kzbraid.braids import BraidWord, parse_braid_word, permutation_of
from kzbraid.circles import CircleDiagram
from kzbraid.closure import closure_skeleton, kontsevich_link, tau_project
from kzbraid.transport import braid_holonomy
from kzbraid.words import HorizontalSeries, HorizontalWord, basis_words, series_from_dense

STEPS = 192


def word(n, *chords):
    return HorizontalWord(n, tuple(chords))


def test_closure_skeleton_examples():
    assert closure_skeleton(parse_braid_word("1 1", 2)).components == ((1,), (2,))
    assert closure_skeleton(parse_braid_word("1", 2)).components == ((1, 2),)
    assert closure_skeleton(parse_braid_word("1 2", 3)).n_components == 1


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
    w = parse_braid_word("1 1", 2)
    s = HorizontalSeries(2, 1, {word(2, (1, 2)): 1.0})
    projected = tau_project(s, w)
    expected = CircleDiagram((1, 1), (((0, 0), (1, 0)),))
    assert projected.coefficient(expected) == 1.0


def test_tau_single_component_isolated():
    w = parse_braid_word("1", 2)
    s = HorizontalSeries(2, 1, {word(2, (1, 2)): 1.0})
    projected = tau_project(s, w)
    (diagram, coeff), = projected.terms.items()
    assert coeff == 1.0
    assert diagram.slots == (2,)
    assert diagram.has_isolated_chord()


def test_tau_two_chord_hopf_pattern():
    w = parse_braid_word("1 1", 2)
    s = HorizontalSeries(2, 2, {word(2, (1, 2), (1, 2)): 1.0})
    projected = tau_project(s, w)
    expected = CircleDiagram((2, 2), (((0, 0), (1, 0)), ((0, 1), (1, 1))))
    assert projected.coefficient(expected) == 1.0


def test_tau_linear_and_degree_preserving():
    w = parse_braid_word("1 2", 3)
    a = HorizontalSeries(3, 2, {word(3, (1, 2)): 1.0, word(3, (1, 3), (2, 3)): 2.0})
    b = HorizontalSeries(3, 2, {word(3, (1, 2)): -0.5j, word(3, (2, 3)): 4.0})
    lam = 1.5 - 2j
    combo = tau_project(a + lam * b, w)
    split = tau_project(a, w) + lam * tau_project(b, w)
    assert combo.sup_diff(split) < 1e-12
    for hword, coeff in a.terms.items():
        image = tau_project(HorizontalSeries(3, 2, {hword: coeff}), w)
        for diagram in image.terms:
            assert diagram.degree == hword.degree


def test_tau_rejects_mismatched_skeleton():
    w = parse_braid_word("1", 2)
    s = HorizontalSeries(3, 1, {word(3, (1, 2)): 1.0})
    with pytest.raises(ValueError):
        tau_project(s, w)


def _tau_reference(series, w):
    """tau word by word: feet per strand, one CircleDiagram.from_layout each."""
    skeleton = closure_skeleton(w)
    out = {}
    for hword, coeff in series.terms.items():
        feet = {strand: [] for strand in range(1, w.n_strands + 1)}
        for height, chord in enumerate(hword.chords):
            feet[chord.i].append(height)
            feet[chord.j].append(height)
        layout = [[h for strand in cycle for h in feet[strand]] for cycle in skeleton.components]
        diagram = CircleDiagram.from_layout(layout)
        out[diagram] = out.get(diagram, 0j) + coeff
    return out


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
    terms = {w: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for w in basis_words(4, 3)}
    series = HorizontalSeries(4, 3, terms)
    skeletons = set()
    for perm in permutations(range(1, 5)):
        w = _braid_sorting(perm)
        skeletons.add(closure_skeleton(w).components)
        # both sum each diagram's terms in basis order, so the floats agree exactly
        assert tau_project(series, w).terms == _tau_reference(series, w), perm
    assert len(skeletons) == 24


def test_tau_sparse_series_and_dense_vector_agree():
    w = parse_braid_word("1 -2 3 2 -1", 4)
    dense = braid_holonomy(w, 3, 16)
    threshold = 1e-3
    sparse = series_from_dense(4, 3, dense, threshold)
    assert 0 < len(sparse.terms) < len(dense)
    kept = np.array([c if abs(c) >= threshold else 0j for c in dense.tolist()])
    from_sparse = tau_project(sparse, w)
    from_dense = tau_project(kept, w, threshold)
    assert from_sparse.terms == from_dense.terms
    assert (from_dense.max_degree, from_dense.zero_threshold) == (3, threshold)
    with pytest.raises(ValueError):
        tau_project(dense[:-1], w)


def test_trivial_braid_closure_two_unknots():
    result = kontsevich_link(parse_braid_word("", 2), 3, STEPS)
    assert result.skeleton.n_components == 2
    positive = [t for d, t in result.reduced.terms.items() if d.degree > 0]
    assert all(abs(c) < 1e-12 for c in positive)


def test_hopf_link_linking_number():
    result = kontsevich_link(parse_braid_word("1 1", 2), 1, STEPS)
    expected = CircleDiagram((1, 1), (((0, 0), (1, 0)),))
    assert abs(result.reduced.coefficient(expected) - 1.0) < 1e-6


def test_unknot_degree_one_vanishes_exactly():
    result = kontsevich_link(parse_braid_word("1", 2), 1, STEPS)
    assert all(d.degree == 0 for d in result.reduced.terms)


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
        result = kontsevich_link(w, 1, 128)
        expected = _combinatorial_linking(w, skeleton)
        for pair in [(i, j) for i in range(skeleton.n_components) for j in range(i + 1, skeleton.n_components)]:
            slots = [0] * skeleton.n_components
            slots[pair[0]] = 1
            slots[pair[1]] = 1
            diagram = CircleDiagram(tuple(slots), (((pair[0], 0), (pair[1], 0)),))
            got = result.reduced.coefficient(diagram)
            want = expected.get(frozenset(pair), 0.0)
            assert abs(got - want) < 1e-6
