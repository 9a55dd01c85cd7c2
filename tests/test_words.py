import json
import random

import pytest

from kzbraid.circles import (
    CircleDiagram,
    CircleSeries,
    circle_series_from_json_dict,
    circle_series_to_json_dict,
)
from kzbraid.words import (
    ChordPair,
    HorizontalSeries,
    HorizontalWord,
    enumerate_words,
    ess_product,
    relabel_strands,
    series_distance,
    series_from_json_dict,
    series_product,
    series_to_json_dict,
)


def word(n, *chords):
    return HorizontalWord(n, tuple(chords))


def test_chord_pair_normalizes_order():
    assert ChordPair(3, 1) == ChordPair(1, 3)
    with pytest.raises(ValueError):
        ChordPair(2, 2)
    with pytest.raises(ValueError):
        ChordPair(0, 1)


def test_word_validates_strand_bound():
    with pytest.raises(ValueError):
        word(2, (1, 3))


def test_ess_identity_and_order():
    empty = word(2)
    single = word(2, (1, 2))
    assert ess_product(empty, single) == single
    assert ess_product(single, empty) == single
    a = word(3, (1, 2))
    b = word(3, (2, 3))
    assert ess_product(a, b) == word(3, (2, 3), (1, 2))


def test_ess_noncommutative():
    a = word(3, (1, 2))
    b = word(3, (1, 3))
    assert ess_product(a, b) != ess_product(b, a)


def test_ess_strand_mismatch():
    with pytest.raises(ValueError):
        ess_product(word(2), word(3))


def test_enumerate_counts():
    assert len(enumerate_words(2, 3)) == 1
    assert enumerate_words(2, 3)[0] == word(2, (1, 2), (1, 2), (1, 2))
    assert len(enumerate_words(3, 2)) == 9
    assert len(enumerate_words(4, 1)) == 6
    for n in range(2, 6):
        pair_count = n * (n - 1) // 2
        for m in range(5):
            assert len(enumerate_words(n, m)) == pair_count**m


def test_enumerate_graded_lex_order():
    words = enumerate_words(3, 2)
    keys = [w.sort_key() for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)


def test_ess_associativity_exhaustive():
    for n in (2, 3, 4):
        pool = [w for m in range(3) for w in enumerate_words(n, m)]
        for a in pool:
            for b in pool:
                ab = ess_product(a, b)
                for c in pool:
                    assert ess_product(ab, c) == ess_product(a, ess_product(b, c))


def test_series_identity_product():
    one = HorizontalSeries.identity(3, 2)
    b = HorizontalSeries(3, 2, {word(3, (1, 2)): 2.0, word(3, (1, 3), (2, 3)): 1j})
    assert series_product(one, b).sup_diff(b) == 0.0
    assert series_product(b, one).sup_diff(b) == 0.0


def test_series_square_truncated():
    a = HorizontalSeries(2, 2, {word(2): 1.0, word(2, (1, 2)): 0.5})
    sq = series_product(a, a)
    assert sq.coefficient(word(2)) == 1.0
    assert sq.coefficient(word(2, (1, 2))) == 1.0
    assert sq.coefficient(word(2, (1, 2), (1, 2))) == 0.25


def test_series_product_associative_random():
    rng = random.Random(7)

    def random_series():
        terms = {}
        for m in range(3):
            for w in enumerate_words(3, m):
                if rng.random() < 0.5:
                    terms[w] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return HorizontalSeries(3, 2, terms)

    for _ in range(10):
        a, b, c = random_series(), random_series(), random_series()
        left = series_product(series_product(a, b), c)
        right = series_product(a, series_product(b, c))
        assert left.sup_diff(right) < 1e-12


def test_series_truncates_high_degree():
    s = HorizontalSeries(2, 1, {word(2, (1, 2), (1, 2)): 5.0})
    assert s.terms == {}


def test_distance_examples():
    one = HorizontalSeries.identity(2, 3)
    assert series_distance(one, one) == 0.0
    bumped = one + HorizontalSeries(2, 3, {word(2, (1, 2)): 1.0})
    assert series_distance(one, bumped) == 0.5
    zero_diff = HorizontalSeries(2, 3, {word(2): 1.0, word(2, (1, 2)): 1e-15})
    assert series_distance(one, zero_diff) == 0.0


def test_distance_ultrametric_random():
    rng = random.Random(11)
    values = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0]

    def random_series():
        terms = {}
        for m in range(4):
            for w in enumerate_words(2, m):
                terms[w] = rng.choice(values)
        return HorizontalSeries(2, 3, terms)

    for _ in range(300):
        a, b, c = random_series(), random_series(), random_series()
        assert series_distance(a, b) <= max(series_distance(a, c), series_distance(c, b))
        if series_distance(a, b) == 0.0:
            assert a.sup_diff(b) <= 2e-12


def test_relabel_strands():
    s = HorizontalSeries(3, 2, {word(3, (1, 2)): 1.0, word(3, (2, 3), (1, 2)): 2.0})
    swapped = relabel_strands(s, {1: 2, 2: 1, 3: 3})
    assert swapped.coefficient(word(3, (1, 2))) == 1.0
    assert swapped.coefficient(word(3, (1, 3), (1, 2))) == 2.0


def test_json_round_trip():
    s = HorizontalSeries(
        3, 3, {word(3): 1.0, word(3, (1, 2)): 0.5 - 0.25j, word(3, (1, 3), (2, 3)): 1e-3j}
    )
    data = json.loads(json.dumps(series_to_json_dict(s)))
    back = series_from_json_dict(data)
    assert back.sup_diff(s) < 1e-15
    words_listed = [tuple(map(tuple, t["word"])) for t in data["terms"]]
    assert words_listed == sorted(words_listed, key=lambda w: (len(w), w))


GOOD_SERIES = {"n_strands": 3, "max_degree": 2, "terms": [{"word": [[1, 2]], "re": 0.5, "im": 0.0}]}
GOOD_CIRCLES = {
    "circles": 1,
    "max_degree": 2,
    "terms": [{"slots": [2], "word": [[[0, 0], [0, 1]]], "re": 1.0, "im": -0.5}],
}


def _with(document, path, value):
    """Copy of document with the entry at path replaced, or deleted when value is ...."""
    if not path:
        return value
    document = json.loads(json.dumps(document))
    *parents, last = path
    holder = document
    for key in parents:
        holder = holder[key]
    if value is ...:
        del holder[last]
    else:
        holder[last] = value
    return document


@pytest.mark.parametrize(
    "reader, good, path, value",
    [
        (series_from_json_dict, GOOD_SERIES, (), None),
        (series_from_json_dict, GOOD_SERIES, (), "text"),
        (series_from_json_dict, GOOD_SERIES, (), {"terms": {}}),
        (series_from_json_dict, GOOD_SERIES, ("terms",), ...),
        (series_from_json_dict, GOOD_SERIES, ("max_degree",), "2"),
        (series_from_json_dict, GOOD_SERIES, ("terms", 0, "im"), ...),
        (series_from_json_dict, GOOD_SERIES, ("terms", 0, "re"), None),
        (series_from_json_dict, GOOD_SERIES, ("terms", 0, "word"), [[1, 2, 3]]),
        (series_from_json_dict, GOOD_SERIES, ("terms", 0, "word"), [7]),
        (series_from_json_dict, GOOD_SERIES, ("terms", 0, "word"), [[1, 5]]),
        (series_from_json_dict, GOOD_SERIES, ("terms", 0), "term"),
        (circle_series_from_json_dict, GOOD_CIRCLES, (), []),
        (circle_series_from_json_dict, GOOD_CIRCLES, ("circles",), ...),
        (circle_series_from_json_dict, GOOD_CIRCLES, ("terms", 0, "slots"), 2),
        (circle_series_from_json_dict, GOOD_CIRCLES, ("terms", 0, "word"), [[0, 0]]),
        (circle_series_from_json_dict, GOOD_CIRCLES, ("terms", 0, "word"), [[[0, 0], [0, 2]]]),
        (circle_series_from_json_dict, GOOD_CIRCLES, ("terms", 0, "im"), [1]),
        (circle_series_from_json_dict, GOOD_CIRCLES, ("max_degree",), None),
    ],
)
def test_json_readers_reject_malformed_input(reader, good, path, value):
    reader(good)
    with pytest.raises(ValueError, match="^malformed .*JSON: ") as caught:
        reader(_with(good, path, value))
    assert "\n" not in str(caught.value)


def test_circle_json_round_trip():
    diagram = CircleDiagram((2, 2), (((0, 0), (1, 0)), ((0, 1), (1, 1))))
    s = CircleSeries(2, 2, {diagram: 0.25 - 1j})
    back = circle_series_from_json_dict(json.loads(json.dumps(circle_series_to_json_dict(s))))
    assert back.sup_diff(s) == 0.0
