import importlib
import math
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kzbraid.braids import (
    BraidWord,
    ConfigLoop,
    _Arc,
    _Warped,
    _warped,
    parse_braid_word,
    permutation_of,
    realize,
)
from kzbraid.closure import closure_skeleton
from kzbraid.relations import reduce
from kzbraid.transport import (
    TransportError,
    _chebyshev,
    _letter_holonomy,
    _scan,
    _segment_omega,
    _sweeps,
    abelian_holonomy,
    kontsevich_of_braid,
    simplex_oracle,
    symmetrized,
    transport,
)
from kzbraid.words import (
    _blocks,
    all_pairs,
    basis_size,
    basis_words,
    enumerate_words,
    pair_ends,
    relabel_strands,
    series_product,
)
from reference_orders import projection_of, word
from test_braids import _Piece, cut_loop, segment_at

# the module, which the package's `transport` function shadows as an attribute
transport_module = importlib.import_module("kzbraid.transport")

def position(n, *chords):
    """Index of a word in basis_words."""
    return basis_words(n, len(chords)).index(word(n, *chords))


def sup_diff(a, b):
    return float(np.abs(a - b).max())


def identity(n, max_degree):
    out = np.zeros(len(basis_words(n, max_degree)), dtype=complex)
    out[0] = 1.0
    return out


def omega_at(loop, t):
    """Connection on the loop velocity at loop time t, per chord pair."""
    pairs, (ii, jj) = all_pairs(loop.n_strands), pair_ends(loop.n_strands)
    segment, s, duration = segment_at(loop, t)
    values = _segment_omega(segment, s, ii, jj) / duration
    return {pair: complex(v) for pair, v in zip(pairs, values)}


def test_omega_identity_loop_vanishes():
    # the identity loop has no segments, so every iterated integral of
    # positive degree is 0 and the oracle's integrand is never filled
    loop = realize(parse_braid_word("", 3))
    assert loop.segments == ()
    assert simplex_oracle(loop, word(3), 64) == 1.0
    for degree in (1, 2, 3):
        for w in enumerate_words(3, degree):
            assert simplex_oracle(loop, w, 64) == 0.0


def test_omega_sigma1_half():
    loop = realize(parse_braid_word("1", 2))
    for t in (0.0, 0.25, 0.7, 1.0):
        assert omega_at(loop, t)[(1, 2)] == pytest.approx(0.5, abs=1e-12)
    inverse = realize(parse_braid_word("-1", 2))
    assert omega_at(inverse, 0.3)[(1, 2)] == pytest.approx(-0.5, abs=1e-12)


def test_transport_identity_braid():
    res = transport(realize(parse_braid_word("", 4)), 4)
    assert np.array_equal(res.coefficients, identity(4, 4))
    assert res.steps_used == 0


def test_transport_empty_word_coefficient_exact():
    res = transport(realize(parse_braid_word("1 2 -1", 3)), 3)
    assert res.coefficients[0] == 1.0 + 0.0j


def test_transport_ordered_exponential():
    series = kontsevich_of_braid(parse_braid_word("1", 2), 4)
    for m in range(5):
        expected = 0.5**m / math.factorial(m)
        got = series[position(2, *([(1, 2)] * m))]
        assert got == pytest.approx(expected, abs=1e-9)


def test_transport_full_winding():
    series = kontsevich_of_braid(parse_braid_word("1 1", 2), 1)
    assert series[position(2, (1, 2))] == pytest.approx(1.0, abs=1e-9)


def test_retraced_loop_cancels():
    series = kontsevich_of_braid(parse_braid_word("1 -1", 2), 3)
    assert sup_diff(series, identity(2, 3)) < 1e-9


def test_oracle_empty_word():
    loop = realize(parse_braid_word("1", 2))
    assert simplex_oracle(loop, word(2), 64) == 1.0


def test_oracle_sigma1_values():
    loop = realize(parse_braid_word("1", 2))
    assert simplex_oracle(loop, word(2, (1, 2)), 512) == pytest.approx(0.5, abs=1e-6)
    assert simplex_oracle(loop, word(2, (1, 2), (1, 2)), 512) == pytest.approx(0.125, abs=1e-5)


def test_oracle_agrees_with_transport():
    # the oracle gives each segment an equal share of loop time, so the cut
    # loop's pieces, of local length 0.3 and 0.7, run at unequal speeds
    loops = [realize(parse_braid_word(text, strands)) for text, strands in (("1", 2), ("1 1", 2), ("1 2", 3))]
    for loop in loops + [cut_loop(loops[-1])]:
        strands = loop.n_strands
        series = transport(loop, 3).coefficients
        for degree in (1, 2, 3):
            for w in enumerate_words(strands, degree):
                direct = simplex_oracle(loop, w, 512)
                assert abs(series[position(strands, *w)] - direct) < 1e-5


def test_oracle_rejects_large_degree_and_small_grid():
    loop = realize(parse_braid_word("1", 2))
    with pytest.raises(ValueError, match="grid"):
        simplex_oracle(loop, word(2, *([(1, 2)] * 4)), 64)
    with pytest.raises(ValueError):
        simplex_oracle(loop, word(2, (1, 2)), 8)


def test_oracle_rejects_chord_off_the_loop_strands():
    loop = realize(parse_braid_word("1", 2))
    for bad in (((1, 3),), ((2, 1),), ((0, 1),), ((1, 2), (1, 1)), ([1, 2],)):
        with pytest.raises(ValueError, match="of the loop's 2 strands") as info:
            simplex_oracle(loop, bad, 64)
        assert str(info.value) == f"chord {bad[-1]} is not a pair i < j of the loop's 2 strands"


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
            kontsevich_of_braid(upper, 3), 3, 3, np.argsort(permutation_of(lower)) + 1
        )
        z_lower = kontsevich_of_braid(lower, 3)
        zc = transport(realize(combined), 3).coefficients
        assert sup_diff(series_product(z_upper, z_lower, 3, 3), zc) < 1e-10


def _reduced_word(rng, n, length):
    letters = []
    while len(letters) < length:
        k, sign = rng.randint(1, n - 1), rng.choice((1, -1))
        if letters and letters[-1] == (k, -sign):
            continue
        letters.append((k, sign))
    return BraidWord(n, tuple(letters))


def test_composed_holonomy_matches_direct_transport():
    # cached letters, relabeled, against every segment of the loop swept anew
    rng = random.Random(20121)
    for _ in range(24):
        n, max_degree = rng.randint(2, 4), rng.randint(0, 4)
        w = _reduced_word(rng, n, rng.randint(0, 12))
        direct = transport(realize(w), max_degree).coefficients
        composed = kontsevich_of_braid(w, max_degree)
        assert np.abs(composed - direct).max() <= 1e-14, (w, max_degree)


def _letter_fold(w, max_degree):
    """Reference: the letters' holonomies multiplied one at a time, lowest first."""
    n = w.n_strands
    total = identity(n, max_degree)
    strand_at = list(range(1, n + 1))
    for k, sign in w.letters:
        alone = kontsevich_of_braid(BraidWord(n, ((k, sign),)), max_degree)
        letter = relabel_strands(alone, n, max_degree, strand_at)
        total = series_product(letter, total, n, max_degree)
        strand_at[k - 1], strand_at[k] = strand_at[k], strand_at[k - 1]
    return total


@pytest.mark.parametrize(
    "n, max_degree, length",
    [(3, 3, 0), (4, 0, 5), (3, 1, 6), (4, 3, 1), (2, 4, 9), (5, 3, 7), (4, 4, 16), (3, 4, 16)],
)
@pytest.mark.parametrize("per_chunk", [None, 1, 2])
def test_scan_matches_letter_fold(monkeypatch, n, max_degree, length, per_chunk):
    # per_chunk letters per chunk carry the product across chunk boundaries
    if per_chunk is not None:
        size = basis_size(n * (n - 1) // 2, max_degree)
        monkeypatch.setattr(transport_module, "_SCAN_ENTRIES", per_chunk * size)
    w = _reduced_word(random.Random(f"{n}:{max_degree}:{length}"), n, length)
    reference = _letter_fold(w, max_degree)
    scanned = kontsevich_of_braid(w, max_degree)
    assert np.abs(scanned - reference).max() <= 1e-14 * np.abs(reference).max(), (w, max_degree)


def test_scan_memory_stays_within_budget():
    # 400 letters on 5 strands to degree 5 (111,111 basis words): an
    # unchunked scan holds the (400, 111111) complex array of its placed
    # letters alone, 711 MB, more than ten times the bound.  The word is a
    # product of squares, so its letters start from at most five strand
    # orders, and the warm-up on one square of each letter leaves no letter
    # or letter index for the traced run to allocate.
    n, max_degree, bound = 5, 5, 40e6
    assert 400 * basis_size(10, max_degree) * 16 > 10 * bound
    squares = _reduced_word(random.Random(400), n, 200).letters
    w = BraidWord(n, tuple(letter for letter in squares for _ in range(2)))
    kontsevich_of_braid(BraidWord(n, tuple(letter for letter in set(squares) for _ in range(2))), max_degree)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kontsevich_of_braid(w, max_degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < bound


def test_cached_letters_are_read_only():
    w = parse_braid_word("1 -2 2 1", 3)
    before = kontsevich_of_braid(w, 3)
    letter = _letter_holonomy(3, 2, 1, 3)
    with pytest.raises(ValueError):
        letter[1] = 5.0
    with pytest.raises(ValueError):
        letter *= 2.0
    assert np.array_equal(kontsevich_of_braid(w, 3), before)


def test_cached_letter_holds_only_its_moved_pairs():
    # the 2N - 3 pairs with an end at slot k or k + 1; every other word of
    # the letter's series is zero
    for n, k, max_degree in ((2, 1, 6), (3, 2, 4), (5, 2, 5), (7, 6, 3), (40, 17, 2)):
        cached = _letter_holonomy(n, k, -1, max_degree)
        assert len(cached) == basis_size(2 * n - 3, max_degree)
        letter = kontsevich_of_braid(BraidWord(n, ((k, -1),)), max_degree)
        assert np.count_nonzero(letter) == np.count_nonzero(cached), (n, k)
        assert np.array_equal(np.sort_complex(letter[letter != 0]), np.sort_complex(cached[cached != 0]))


def test_letters_match_fine_rk4():
    # an independent integrator: 1024 classical fourth-order steps per letter,
    # whose own error is about 2e-14 here
    for n in (2, 3, 4, 5):
        for k in range(1, n):
            for sign in (1, -1):
                fine = _reference_integrate(realize(BraidWord(n, ((k, sign),))), 4, 1024)
                for max_degree in range(5):
                    letter = kontsevich_of_braid(BraidWord(n, ((k, sign),)), max_degree)
                    assert np.abs(letter - fine[: len(letter)]).max() <= 1e-13, (n, k, sign)


def test_top_letter_symmetrizes_to_abelian_holonomy():
    # N=5, M=5: the largest letter; the abelian closed form is an exact oracle
    letter = kontsevich_of_braid(BraidWord(5, ((2, 1),)), 5)
    closed = abelian_holonomy(realize(BraidWord(5, ((2, 1),))), 5)
    assert sup_diff(symmetrized(letter, 5, 5), closed) <= 1e-13


def test_two_strand_multiplicativity_literal():
    z = kontsevich_of_braid(parse_braid_word("1", 2), 3)
    zz = transport(realize(parse_braid_word("1 1", 2)), 3).coefficients
    assert sup_diff(series_product(z, z, 2, 3), zz) < 1e-9


def test_braid_relation_flatness():
    za = reduce(kontsevich_of_braid(parse_braid_word("1 2 1", 3), 3), ("strands", 3), 3)
    zb = reduce(kontsevich_of_braid(parse_braid_word("2 1 2", 3), 3), ("strands", 3), 3)
    assert sup_diff(za, zb) < 1e-6


def test_far_commutation_flatness():
    za = reduce(kontsevich_of_braid(parse_braid_word("1 3", 4), 3), ("strands", 4), 3)
    zb = reduce(kontsevich_of_braid(parse_braid_word("3 1", 4), 3), ("strands", 4), 3)
    assert sup_diff(za, zb) < 1e-6


REPARAM_CASES = (("1 2", 3), ("1 1 -2", 3), ("1 -2 3", 4))


def test_reparametrization_invariance():
    # every segment cut at local time 0.3 into two pieces, and uneven speed
    # inside each segment
    for text, n in REPARAM_CASES:
        loop = realize(parse_braid_word(text, n))
        even = transport(loop, 3).coefficients
        assert sup_diff(even, transport(cut_loop(loop), 3).coefficients) < 1e-12, text
        for rate in (1.0, 2.0, 4.0):
            warped = transport(_warped(loop, rate), 3)
            assert sup_diff(even, warped.coefficients) < 1e-12, (text, rate)


class _WarpedWithoutSpeed(_Warped):
    """The warped path with the velocity not scaled by phi': a wrong reparametrization."""

    def velocities(self, s):
        return self.segment.velocities(self._phi(s))


class _PieceWithoutSpeed(_Piece):
    """The piece with the velocity not scaled by hi - lo: a wrong cut."""

    def velocities(self, s):
        return self.segment.velocities(self._local(s))


def test_reparametrization_gate_fails_without_speed_factor():
    for text, n in REPARAM_CASES:
        loop = realize(parse_braid_word(text, n))
        even = transport(loop, 3).coefficients
        wrong = transport(cut_loop(loop, _PieceWithoutSpeed), 3).coefficients
        assert sup_diff(even, wrong) > 0.01, text
        for rate in (1.0, 2.0, 4.0):
            wrong = ConfigLoop(n, tuple(_WarpedWithoutSpeed(s, rate) for s in loop.segments))
            assert sup_diff(even, transport(wrong, 3).coefficients) > 0.01, (text, rate)
    # each piece of sigma1 then runs the whole half turn's winding: 0.5 becomes 1.0
    wrong = transport(cut_loop(realize(parse_braid_word("1", 2)), _PieceWithoutSpeed), 1).coefficients
    assert wrong[1] == pytest.approx(1.0, abs=1e-12)


def _at_nodes(loop, n, max_degree):
    """The loop's holonomy with every segment swept at n + 1 nodes."""
    ii, jj = pair_ends(loop.n_strands)
    factors = (_sweeps(n, _segment_omega(s, _chebyshev(n)[0], ii, jj), max_degree) for s in loop.segments)
    return _scan(factors, len(loop.segments), len(ii), max_degree)


def test_transport_converges_geometrically_in_nodes():
    loop = realize(parse_braid_word("1 -2 1", 3))
    reference = _at_nodes(loop, 128, 3)
    errors = [sup_diff(_at_nodes(loop, n, 3), reference) for n in (4, 8, 16, 32)]
    assert errors[0] >= 100 * errors[1] and errors[1] >= 100 * errors[2], errors
    assert errors[3] <= 1e-15, errors
    result = transport(loop, 3)
    assert sup_diff(result.coefficients, reference) <= 1e-15
    assert group_like_defect(result.coefficients, 3, 3) <= 1e-15


def test_transport_reports_steps():
    # "1 2" on 3 strands: both letters resolve at n = 32
    loop = realize(parse_braid_word("1 2", 3))
    res, single = transport(loop, 2), transport(loop, 1)
    assert res.steps_used == single.steps_used == 2 * (32 + 1)
    assert group_like_defect(res.coefficients, 3, 2) <= 1e-15
    assert repr(single).startswith("TransportResult(steps_used=66, coefficients=array(")
    with pytest.raises(AttributeError):
        single.steps_used = 0


def _left_normed(x, n_pairs, degree):
    """theta(w1 ... wm) = [[...[w1, w2], ...], wm] on the degree-m words along the last axis.

    Viewed as (lower word u, top chord a), theta(u a) = theta(u) a - a theta(u):
    with y[..., a, :] = theta of the words under a, the first term is y with
    a on top and the second y with a at the bottom.
    """
    if degree == 1:
        return x
    lead = x.shape[:-1]
    y = _left_normed(np.swapaxes(x.reshape(lead + (-1, n_pairs)), -1, -2), n_pairs, degree - 1)
    return np.swapaxes(y, -1, -2).reshape(lead + (-1,)) - y.reshape(lead + (-1,))


def group_like_defect(series, n_strands, max_degree):
    """Largest |theta(L_m) - m L_m| over degrees m, L the truncated log of a series with constant term 1.

    A holonomy in the free algebra is group-like (Chen; Ree), so L is a Lie
    series, and a degree-m element x is Lie exactly when theta(x) = m x
    (Dynkin-Specht-Wever): the defect measures the integration error.
    """
    n_pairs = n_strands * (n_strands - 1) // 2
    unit = np.zeros_like(series)
    unit[0] = 1.0
    log, power = np.zeros_like(series), unit
    for k in range(1, max_degree + 1):
        power = series_product(power, series - unit, n_strands, max_degree)
        log += (-1) ** (k + 1) / k * power
    blocks = _blocks(log, n_pairs, max_degree)
    misses = (sup_diff(_left_normed(blocks[m], n_pairs, m), m * blocks[m]) for m in range(1, max_degree + 1))
    return max(misses, default=0.0)


@pytest.mark.parametrize(
    "text, n, max_degree", [("1 2", 3, 6), ("1 -2 1 2 2", 3, 8), ("1 -2 3", 4, 7), ("1 -2 3 -4 2", 5, 5)]
)
def test_braid_series_is_group_like(text, n, max_degree):
    # 5.7e-17, 4.6e-14, 8.4e-17 and 9.9e-17 seen
    series = kontsevich_of_braid(parse_braid_word(text, n), max_degree)
    assert group_like_defect(series, n, max_degree) <= 1e-12


def test_group_like_defect_tracks_the_integration_error():
    # every segment swept at n + 1 nodes: the defect against the distance from
    # the resolved transport was 0.49 to 1.48 of it, from about 1e-6 at n = 8
    # down to 4e-14 at n = 24
    for text, n, max_degree in (("1 2", 3, 6), ("1 -2 3", 4, 5), ("1 -2 1 2 2", 3, 7)):
        loop = realize(parse_braid_word(text, n))
        resolved = transport(loop, max_degree).coefficients
        for nodes in (8, 12, 16, 24):
            coarse = _at_nodes(loop, nodes, max_degree)
            defect, error = group_like_defect(coarse, n, max_degree), sup_diff(coarse, resolved)
            assert error / 4 <= defect <= 4 * error, (text, nodes, defect, error)
            if nodes == 8:  # the negative control: an unresolved sweep is seen
                assert defect > 1e-7, (text, defect)


def _symmetrized_by_permutations(coefficients, n_strands, max_degree):
    """Each degree-m block summed over its m! chord orderings, then divided by m!."""
    n_pairs = n_strands * (n_strands - 1) // 2
    blocks = []
    for m, block in enumerate(_blocks(coefficients, n_pairs, max_degree)):
        cube = block.reshape((n_pairs,) * m)
        total = sum(cube.transpose(axes) for axes in permutations(range(m)))
        blocks.append(np.ravel(total) / math.factorial(m))
    return np.concatenate(blocks)


def test_symmetrized_matches_permutation_sum():
    rng = np.random.default_rng(1414)
    for n in (3, 4):
        for max_degree in range(6):
            size = basis_size(n * (n - 1) // 2, max_degree)
            s = rng.normal(size=size) + 1j * rng.normal(size=size)
            expected = _symmetrized_by_permutations(s, n, max_degree)
            assert sup_diff(symmetrized(s, n, max_degree), expected) <= 1e-12, (n, max_degree)


def test_symmetrized_refuses_a_vector_that_does_not_fill_the_basis():
    # N=3, M=2 holds 13 words: a longer vector's extra entries must not pass through
    for length in (12, 14, 20):
        with pytest.raises(ValueError, match=r"^symmetrized needs a vector of 13 coefficients$"):
            symmetrized(np.ones(length, dtype=complex), 3, 2)


def test_abelian_matches_symmetrized_transport():
    for text in ("1 2", "1 1 -2"):
        loop = realize(parse_braid_word(text, 3))
        sym = symmetrized(transport(loop, 3).coefficients, 3, 3)
        assert sup_diff(sym, abelian_holonomy(loop, 3)) < 1e-7


def test_abelian_identity_braid():
    loop = realize(parse_braid_word("", 3))
    closed = abelian_holonomy(loop, 3)
    assert sup_diff(closed, identity(3, 3)) < 1e-14


def test_abelian_holonomy_refuses_negative_degree():
    # and so do the series product and symmetrization, which read the blocks
    # of a basis that has none below degree 0.  A loop on one strand has no
    # pair to sample: each integrator refuses it in one line
    one = np.ones(1, dtype=complex)
    lone = ConfigLoop(1, ())
    refusals = (
        (lambda: abelian_holonomy(realize(parse_braid_word("1", 2)), -1), "need max_degree >= 0"),
        (lambda: series_product(one, one, 2, -1), "need max_degree >= 0"),
        (lambda: symmetrized(one, 2, -1), "need max_degree >= 0"),
        (lambda: transport(lone, 2), "need at least 2 strands"),
        (lambda: abelian_holonomy(lone, 2), "need at least 2 strands"),
        (lambda: simplex_oracle(lone, (), 16), "need at least 2 strands"),
    )
    for refusal, message in refusals:
        with pytest.raises(ValueError) as info:
            refusal()
        assert str(info.value) == message


def test_abelian_single_generator_exact_match():
    loop = realize(parse_braid_word("1", 2))
    direct = transport(loop, 4).coefficients
    closed = abelian_holonomy(loop, 4)
    assert sup_diff(direct, closed) < 1e-9


def test_transport_error_on_collision():
    # strand 2's half turn meets strand 3, resting where strand 2 stands at
    # the middle node of the first nodes sampled, s = 1/2 up to rounding
    nodes = _chebyshev(8)[0]
    meeting = _Arc((0j, 1 + 0j, 0j), (1, 2), 0.5, 1).positions(nodes)[4, 1]
    collided = _Arc((0j, 1 + 0j, meeting), (1, 2), 0.5, 1)
    # in the two-segment loop the first segment passes the finiteness check
    # and the message names the second
    good = realize(parse_braid_word("1", 3)).segments[0]
    second = ConfigLoop(3, (good, collided))
    cases = (
        (ConfigLoop(3, (collided,)), 1, "segment 1 of 1"),
        (second, 1, "segment 2 of 2"),
        (second, 4, "segment 2 of 2"),
    )
    with np.errstate(all="ignore"):
        for loop, max_degree, where in cases:
            with pytest.raises(TransportError) as caught:
                transport(loop, max_degree)
            assert str(caught.value) == f"non-finite transport coefficients inside {where}"


def _reference_integrate(loop, max_degree, steps):
    """End state of `steps` classical RK4 steps per segment, taken one at a time."""
    ii, jj = pair_ends(loop.n_strands)
    n_pairs = len(ii)
    n_low = basis_size(n_pairs, max_degree - 1)

    def mul(a, vec):
        out = np.empty_like(vec)
        out[0] = 0.0
        np.multiply(vec[:n_low, None], a, out=out[1:].reshape(n_low, n_pairs))
        return out

    def rk4(state, omega):
        h = 2.0 / (len(omega) - 1)
        for k in range(0, len(omega) - 1, 2):
            a0, am, a1 = omega[k], omega[k + 1], omega[k + 2]
            k1 = mul(a0, state)
            k2 = mul(am, state + (0.5 * h) * k1)
            k3 = mul(am, state + (0.5 * h) * k2)
            k4 = mul(a1, state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return state

    state = np.zeros(basis_size(n_pairs, max_degree), dtype=complex)
    state[0] = 1.0
    for segment in loop.segments:
        # nodes and midpoints of the steps
        state = rk4(state, _segment_omega(segment, np.arange(2 * steps + 1) / (2 * steps), ii, jj))
    return state


@st.composite
def reduced_words(draw, max_strands=4, max_length=8):
    """A freely reduced braid word: no letter next to its inverse."""
    n = draw(st.integers(2, max_strands))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    letters = []
    for k, sign in draw(st.lists(letter, max_size=max_length)):
        if letters and letters[-1] == (k, -sign):
            letters.pop()
        else:
            letters.append((k, sign))
    return BraidWord(n, tuple(letters))


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(reduced_words(), st.integers(0, 4), st.integers(0, 8))
def test_flow_property_on_random_words(w, max_degree, cut):
    # the transport of a loop is the stacking product of the transports of
    # its two parts, the upper part read through the strands the lower moved
    cut = min(cut, len(w.letters))
    lower, upper = BraidWord(w.n_strands, w.letters[:cut]), BraidWord(w.n_strands, w.letters[cut:])
    n = w.n_strands
    z_upper = relabel_strands(
        transport(realize(upper), max_degree).coefficients,
        n,
        max_degree,
        np.argsort(permutation_of(lower)) + 1,
    )
    z_lower = transport(realize(lower), max_degree).coefficients
    direct = transport(realize(w), max_degree).coefficients
    assert sup_diff(series_product(z_upper, z_lower, n, max_degree), direct) <= 1e-12


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 5), st.data(), st.sampled_from((1, -1)), st.integers(0, 4))
def test_letter_times_inverse_is_identity(n, data, sign, max_degree):
    k = data.draw(st.integers(1, n - 1))
    z = kontsevich_of_braid(BraidWord(n, ((k, sign), (k, -sign))), max_degree)
    assert sup_diff(z, identity(n, max_degree)) <= 1e-10


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(reduced_words(max_strands=3, max_length=5), st.data())
def test_closure_conjugation_invariance(w, data):
    # one-component closures keep their circle labels under conjugation
    assume(len(closure_skeleton(w)) == 1)
    k = data.draw(st.integers(1, w.n_strands - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    conjugated = BraidWord(w.n_strands, ((k, sign),) + w.letters + ((k, -sign),))
    z = projection_of(w, 3)
    zc = projection_of(conjugated, 3)
    assert sup_diff(z, zc) <= 1e-9
