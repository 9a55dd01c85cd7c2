import math
import random

import numpy as np
import pytest

from kzbraid.braids import (
    BraidWord,
    ConfigLoop,
    _Arc,
    parse_braid_word,
    permutation_of,
    realize,
)
from kzbraid.relations import reduce
from kzbraid.transport import (
    TransportError,
    _letter_holonomy,
    abelian_holonomy,
    braid_holonomy,
    kontsevich_of_braid,
    omega_at,
    simplex_oracle,
    symmetrized,
    transport,
)
from kzbraid.words import (
    HorizontalSeries,
    HorizontalWord,
    enumerate_words,
    relabel_strands,
    series_product,
)

STEPS = 192


def word(n, *chords):
    return HorizontalWord(n, tuple(chords))


def test_omega_identity_loop_vanishes():
    loop = realize(parse_braid_word("", 3))
    sample = omega_at(loop, 0.4)
    assert all(abs(v) == 0.0 for v in sample.coefficients.values())


def test_omega_sigma1_half():
    loop = realize(parse_braid_word("1", 2))
    for t in (0.0, 0.25, 0.7, 1.0):
        assert omega_at(loop, t)[(1, 2)] == pytest.approx(0.5, abs=1e-12)
    inverse = realize(parse_braid_word("-1", 2))
    assert omega_at(inverse, 0.3)[(1, 2)] == pytest.approx(-0.5, abs=1e-12)


def test_transport_identity_braid():
    res = transport(realize(parse_braid_word("", 4)), 4, STEPS)
    assert res.series.coefficient(word(4)) == 1.0
    assert all(w.degree == 0 for w in res.series.terms)


def test_transport_empty_word_coefficient_exact():
    res = transport(realize(parse_braid_word("1 2 -1", 3)), 3, STEPS)
    assert res.series.coefficient(word(3)) == 1.0 + 0.0j


def test_transport_ordered_exponential():
    series = kontsevich_of_braid(parse_braid_word("1", 2), 4, STEPS)
    for m in range(5):
        expected = 0.5**m / math.factorial(m)
        got = series.coefficient(word(2, *([(1, 2)] * m)))
        assert got == pytest.approx(expected, abs=1e-9)


def test_transport_full_winding():
    series = kontsevich_of_braid(parse_braid_word("1 1", 2), 1, STEPS)
    assert series.coefficient(word(2, (1, 2))) == pytest.approx(1.0, abs=1e-9)


def test_retraced_loop_cancels():
    series = kontsevich_of_braid(parse_braid_word("1 -1", 2), 3, STEPS)
    assert series.sup_diff(HorizontalSeries.identity(2, 3)) < 1e-9


def test_oracle_empty_word():
    loop = realize(parse_braid_word("1", 2))
    assert simplex_oracle(loop, word(2), 64) == 1.0


def test_oracle_sigma1_values():
    loop = realize(parse_braid_word("1", 2))
    assert simplex_oracle(loop, word(2, (1, 2)), 512) == pytest.approx(0.5, abs=1e-6)
    assert simplex_oracle(loop, word(2, (1, 2), (1, 2)), 512) == pytest.approx(0.125, abs=1e-5)


def test_oracle_agrees_with_transport():
    for text, strands in (("1", 2), ("1 1", 2), ("1 2", 3)):
        loop = realize(parse_braid_word(text, strands))
        series = transport(loop, 2, STEPS).series
        for degree in (1, 2):
            for w in enumerate_words(strands, degree):
                direct = simplex_oracle(loop, w, 512)
                assert abs(series.coefficient(w) - direct) < 1e-5


def test_oracle_rejects_large_degree_and_small_grid():
    loop = realize(parse_braid_word("1", 2))
    with pytest.raises(ValueError, match="grid"):
        simplex_oracle(loop, word(2, *([(1, 2)] * 4)), 64)
    with pytest.raises(ValueError):
        simplex_oracle(loop, word(2, (1, 2)), 8)


def test_flow_property_with_relabel():
    # transport of a concatenation = stacked product of segment transports;
    # the upper factor's strand labels pass through the lower permutation;
    # the concatenation is integrated directly, since kontsevich_of_braid
    # already composes letter holonomies
    for upper_text, lower_text in (("1", "2"), ("2", "1"), ("-1", "2"), ("1", "1")):
        upper = parse_braid_word(upper_text, 3)
        lower = parse_braid_word(lower_text, 3)
        combined = BraidWord(3, lower.letters + upper.letters)
        z_upper = relabel_strands(
            kontsevich_of_braid(upper, 3, STEPS), permutation_of(lower).inverse()
        )
        z_lower = kontsevich_of_braid(lower, 3, STEPS)
        zc = transport(realize(combined), 3, STEPS).series
        assert series_product(z_upper, z_lower).sup_diff(zc) < 1e-10


def _reduced_word(rng, n, length):
    letters = []
    while len(letters) < length:
        k, sign = rng.randint(1, n - 1), rng.choice((1, -1))
        if letters and letters[-1] == (k, -sign):
            continue
        letters.append((k, sign))
    return BraidWord(n, tuple(letters))


def test_composed_holonomy_matches_direct_transport():
    rng = random.Random(20121)
    for _ in range(24):
        n, max_degree = rng.randint(2, 4), rng.randint(0, 4)
        w = _reduced_word(rng, n, rng.randint(0, 12))
        direct = transport(realize(w), max_degree, 32).coefficients
        composed = braid_holonomy(w, max_degree, 32)
        assert np.abs(composed - direct).max() <= 1e-12, (w, max_degree)


def test_cached_letters_are_read_only():
    w = parse_braid_word("1 -2 2 1", 3)
    before = kontsevich_of_braid(w, 3, 32)
    letter = _letter_holonomy(3, 2, 1, 3, 32)
    with pytest.raises(ValueError):
        letter[1] = 5.0
    with pytest.raises(ValueError):
        letter *= 2.0
    assert kontsevich_of_braid(w, 3, 32).sup_diff(before) == 0.0


def test_two_strand_multiplicativity_literal():
    z = kontsevich_of_braid(parse_braid_word("1", 2), 3, STEPS)
    zz = transport(realize(parse_braid_word("1 1", 2)), 3, STEPS).series
    assert series_product(z, z).sup_diff(zz) < 1e-9


def test_braid_relation_flatness():
    za = reduce(kontsevich_of_braid(parse_braid_word("1 2 1", 3), 3, STEPS))
    zb = reduce(kontsevich_of_braid(parse_braid_word("2 1 2", 3), 3, STEPS))
    assert za.sup_diff(zb) < 1e-6


def test_far_commutation_flatness():
    za = reduce(kontsevich_of_braid(parse_braid_word("1 3", 4), 3, STEPS))
    zb = reduce(kontsevich_of_braid(parse_braid_word("3 1", 4), 3, STEPS))
    assert za.sup_diff(zb) < 1e-6


def test_reparametrization_invariance():
    w = parse_braid_word("1 2", 3)
    even = transport(realize(w), 3, STEPS).series
    skew = transport(realize(w, durations=(2.0, 1.0)), 3, STEPS).series
    assert even.sup_diff(skew) < 1e-7


def test_richardson_fourth_order():
    loop = realize(parse_braid_word("1 2", 3))
    coarse = transport(loop, 3, 64).richardson_error_estimate
    fine = transport(loop, 3, 128).richardson_error_estimate
    assert 12.0 < coarse / fine < 20.0


def test_transport_reports_steps():
    loop = realize(parse_braid_word("1 2", 3))
    res = transport(loop, 2, 32)
    assert res.steps_used == 64
    assert math.isinf(transport(loop, 1, 1).richardson_error_estimate)


def test_abelian_matches_symmetrized_transport():
    for text in ("1 2", "1 1 -2"):
        loop = realize(parse_braid_word(text, 3))
        sym = symmetrized(transport(loop, 3, STEPS).series)
        assert sym.sup_diff(abelian_holonomy(loop, 3)) < 1e-7


def test_abelian_identity_braid():
    loop = realize(parse_braid_word("", 3))
    closed = abelian_holonomy(loop, 3)
    assert closed.sup_diff(HorizontalSeries.identity(3, 3)) < 1e-14


def test_abelian_single_generator_exact_match():
    loop = realize(parse_braid_word("1", 2))
    direct = transport(loop, 4, STEPS).series
    closed = abelian_holonomy(loop, 4)
    assert direct.sup_diff(closed) < 1e-9


def test_transport_error_on_collision():
    arc = _Arc((0j, 0j), None, 0.0, 1)
    broken = ConfigLoop(2, (arc,), (1.0,), (), (1, 2))
    with np.errstate(all="ignore"):
        with pytest.raises(TransportError):
            transport(broken, 1, 4)
