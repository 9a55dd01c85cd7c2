import itertools
import json
import math
import random

import numpy as np
import pytest

from kzbraid._text import _braid_text, _circle_text
from kzbraid.circles import circle_basis, circle_series_to_json_dict
from kzbraid.relations import free_positions
from kzbraid.words import (
    basis_words, enumerate_words, moduli, relabel_strands, series_product, series_to_json_dict,
)
from reference_orders import CircleDiagram, diagram_of, drawing_of, word, word_sort_key


def series(n, max_degree, terms):
    """Dense series over basis_words(n, max_degree) from {chord tuple: coefficient}."""
    basis = basis_words(n, max_degree)
    out = np.zeros(len(basis), dtype=complex)
    for chords, coeff in terms.items():
        out[basis.index(word(n, *chords))] += coeff
    return out


def unit(n, max_degree, *chords):
    return series(n, max_degree, {chords: 1.0})


def test_ess_identity_and_order():
    # the product of two words is the word with the left factor's chords on top
    empty = unit(2, 1)
    single = unit(2, 1, (1, 2))
    assert np.array_equal(series_product(empty, single, 2, 1), single)
    assert np.array_equal(series_product(single, empty, 2, 1), single)
    a = unit(3, 2, (1, 2))
    b = unit(3, 2, (2, 3))
    assert np.array_equal(series_product(a, b, 3, 2), unit(3, 2, (2, 3), (1, 2)))


def test_ess_noncommutative():
    a = unit(3, 2, (1, 2))
    b = unit(3, 2, (1, 3))
    assert not np.array_equal(series_product(a, b, 3, 2), series_product(b, a, 3, 2))


def test_ess_strand_mismatch():
    with pytest.raises(ValueError):
        series_product(unit(2, 1), unit(3, 1), 2, 1)


def test_enumerate_counts():
    assert len(enumerate_words(2, 3)) == 1
    assert enumerate_words(2, 3)[0] == word(2, (1, 2), (1, 2), (1, 2)) == ((1, 2),) * 3
    assert enumerate_words(3, 1) == (((1, 2),), ((1, 3),), ((2, 3),)) and enumerate_words(3, 0) == ((),)
    assert len(enumerate_words(3, 2)) == 9
    assert len(enumerate_words(4, 1)) == 6
    for n in range(2, 6):
        pair_count = n * (n - 1) // 2
        for m in range(5):
            assert len(enumerate_words(n, m)) == pair_count**m


def test_enumerate_graded_lex_order():
    words = enumerate_words(3, 2)
    keys = [word_sort_key(w) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)


def test_ess_associativity_exhaustive():
    for n, top in ((2, 2), (3, 2), (4, 1)):
        max_degree = 3 * top
        pool = [w for m in range(top + 1) for w in enumerate_words(n, m)]
        units = {w: unit(n, max_degree, *w) for w in pool}
        for a in pool:
            for b in pool:
                ab = series_product(units[a], units[b], n, max_degree)
                assert np.array_equal(ab, unit(n, max_degree, *b, *a))
                for c in pool:
                    left = series_product(ab, units[c], n, max_degree)
                    bc = series_product(units[b], units[c], n, max_degree)
                    assert np.array_equal(left, series_product(units[a], bc, n, max_degree))


def test_series_identity_product():
    one = unit(3, 2)
    b = series(3, 2, {((1, 2),): 2.0, ((1, 3), (2, 3)): 1j})
    assert np.array_equal(series_product(one, b, 3, 2), b)
    assert np.array_equal(series_product(b, one, 3, 2), b)


def test_series_square_truncated():
    a = series(2, 2, {(): 1.0, ((1, 2),): 0.5})
    assert series_product(a, a, 2, 2).tolist() == [1.0, 1.0, 0.25]


def test_series_product_associative_random():
    rng = random.Random(7)

    def random_series():
        values = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(13)]
        return np.array([v if rng.random() < 0.5 else 0j for v in values])

    for _ in range(10):
        a, b, c = random_series(), random_series(), random_series()
        left = series_product(series_product(a, b, 3, 2), c, 3, 2)
        right = series_product(a, series_product(b, c, 3, 2), 3, 2)
        assert np.abs(left - right).max() < 1e-12


def test_series_truncates_high_degree():
    chord = unit(2, 1, (1, 2))
    assert series_product(chord, chord, 2, 1).tolist() == [0j, 0j]


def test_relabel_strands():
    s = series(3, 2, {((1, 2),): 1.0, ((2, 3), (1, 2)): 2.0})
    swapped = relabel_strands(s, 3, 2, (2, 1, 3))
    assert np.array_equal(swapped, series(3, 2, {((1, 2),): 1.0, ((1, 3), (1, 2)): 2.0}))
    assert np.array_equal(relabel_strands(swapped, 3, 2, (2, 1, 3)), s)
    for images in ((1, 1, 2), (0, 1, 2), (2, 1)):
        with pytest.raises(ValueError, match=r"^relabelling needs a permutation of 1\.\.3$"):
            relabel_strands(s, 3, 2, images)
    with pytest.raises(ValueError, match=r"^relabelling needs a vector of 13 coefficients$"):
        relabel_strands(s[:12], 3, 2, (2, 1, 3))
    # one strand has no chord to rename
    with pytest.raises(ValueError, match=r"^need at least 2 strands$"):
        relabel_strands(np.ones(1), 1, 0, (1,))


def test_json_round_trip():
    s = series(3, 3, {(): 1.0, ((1, 2),): 0.5 - 0.25j, ((1, 3), (2, 3)): 1e-3j})
    data = json.loads(json.dumps(series_to_json_dict(s, 3, 3)))
    assert data["n_strands"] == 3 and data["max_degree"] == 3
    kept = np.flatnonzero(s).tolist()
    basis = basis_words(3, 3)
    assert [t["word"] for t in data["terms"]] == [[list(p) for p in basis[g]] for g in kept]
    assert [complex(t["re"], t["im"]) for t in data["terms"]] == s[kept].tolist()
    words_listed = [tuple(map(tuple, t["word"])) for t in data["terms"]]
    assert words_listed == sorted(words_listed, key=lambda w: (len(w), w))


def test_circle_json_round_trip():
    diagram = CircleDiagram((2, 2), (((0, 0), (1, 0)), ((0, 1), (1, 1))))
    k = circle_basis(2, 2).index(drawing_of(diagram))
    s = np.zeros(len(circle_basis(2, 2)), dtype=complex)
    s[k] = 0.25 - 1j
    data = json.loads(json.dumps(circle_series_to_json_dict(s, 2, 2)))
    assert data["circles"] == 2 and data["max_degree"] == 2
    [term] = data["terms"]
    listed = CircleDiagram(tuple(term["slots"]), tuple((tuple(f1), tuple(f2)) for f1, f2 in term["word"]))
    assert listed == diagram_of(circle_basis(2, 2)[k]) == diagram
    assert complex(term["re"], term["im"]) == s[k]


def test_json_documents_refuse_a_vector_that_does_not_fill_the_basis():
    # N=3, M=2 holds 13 words and 2 circles at M=2 hold 12 diagrams: a short
    # vector must not list fewer terms, nor a long one drop its extra entries
    assert len(basis_words(3, 2)) == 13 and len(circle_basis(2, 2)) == 12
    for length in (12, 14):
        with pytest.raises(ValueError, match=r"^series_to_json_dict needs a vector of 13 coefficients$"):
            series_to_json_dict(np.ones(length, dtype=complex), 3, 2)
    for length in (11, 13):
        with pytest.raises(ValueError, match=r"^circle_series_to_json_dict needs a vector of 12 coefficients$"):
            circle_series_to_json_dict(np.ones(length, dtype=complex), 2, 2)


def test_json_text_matches_json_dumps():
    # the cached-text writers against json.dumps(indent=2), nested `level`
    # deep in an enclosing indent=2 document; compute's link series sits
    # two levels deep
    rng = np.random.default_rng(1010)
    for level in (0, 1, 2):
        indent = "\n" + "  " * level
        # (4, 4) and (5, 3) list enough terms for the certified digit kernel
        for n, max_degree in ((2, 0), (3, 2), (4, 2), (4, 4), (5, 3)):
            size = len(basis_words(n, max_degree))
            s = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size) + 1j * rng.normal(size=size)
            for threshold in (0.0, 1.0, np.inf):
                kept = [g for g, c in enumerate(s.tolist()) if abs(c) >= threshold]
                expected = json.dumps(series_to_json_dict(s, n, max_degree, threshold), indent=2)
                assert _braid_text(n, max_degree, kept, s[kept], level) == expected.replace("\n", indent)
    for q, max_degree in ((1, 3), (2, 2), (3, 1)):
        size = len(circle_basis(q, max_degree))
        s = rng.normal(size=size) + 1j * rng.normal(size=size)
        free = free_positions(("circles", q), max_degree)
        for threshold in (0.0, 1.0, np.inf):
            expected = json.dumps(circle_series_to_json_dict(s, q, max_degree, threshold, free), indent=2)
            assert _circle_text(s, q, max_degree, threshold) == expected.replace("\n", "\n    ")


def _same_bits(got, want):
    """Per entry, got and want hold the same bits, so neither is above the other; a NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))


def _python_abs(values):
    """abs of each complex, None where Python's abs raises OverflowError."""
    out = []
    for c in values:
        try:
            out.append(abs(c))
        except OverflowError:
            out.append(None)
    return out


def test_moduli_is_python_abs_bit_for_bit():
    # np.hypot and abs(complex) both call libm's hypot; np.abs does not, and
    # differs from abs in the last bit on many random values on some hosts
    rng = np.random.default_rng(30)
    n = 100_000
    parts = rng.uniform(-10.0, 10.0, (2, n)) * 10.0 ** rng.integers(-300, 301, (2, n))
    grid = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e-160, 1e-12, 0.1, 1.0, 3.0, 1e150, 1e300,
            1.7976931348623157e308, math.inf, -math.inf, math.nan]
    pairs = np.array(list(itertools.product(grid, repeat=2))).T
    overflows = 0
    for real, imag in (parts, pairs):
        z = np.empty(len(real), dtype=complex)
        z.real, z.imag = real, imag  # set, not computed: 1j * inf would be nan
        with np.errstate(over="ignore"):  # hypot's overflow to inf warns
            got = moduli(z)
        want = _python_abs(z.tolist())
        raised = np.array([w is None for w in want])
        overflows += int(raised.sum())
        assert np.isposinf(got[raised]).all()
        assert _same_bits(got[~raised], [w for w in want if w is not None]).all()
    # only (largest double, largest double) overflows
    assert overflows == 1
