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
from kzbraid.closure import kontsevich_link
from kzbraid.relations import reduce
from kzbraid.transport import (
    TransportError,
    _chebyshev,
    _letter_holonomy,
    _pair_indices,
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
    basis_size,
    basis_words,
    enumerate_words,
    relabel_strands,
    series_product,
)
from reference_orders import word
from test_braids import segment_at

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
    """Connection on the loop velocity at global time t, per chord pair."""
    pairs, ii, jj = _pair_indices(loop.n_strands)
    segment, s, duration = segment_at(loop, t)
    values = _segment_omega(segment, s, ii, jj) / duration
    return {pair: complex(v) for pair, v in zip(pairs, values)}


def test_omega_identity_loop_vanishes():
    loop = realize(parse_braid_word("", 3))
    sample = omega_at(loop, 0.4)
    assert all(abs(v) == 0.0 for v in sample.values())


def test_omega_sigma1_half():
    loop = realize(parse_braid_word("1", 2))
    for t in (0.0, 0.25, 0.7, 1.0):
        assert omega_at(loop, t)[(1, 2)] == pytest.approx(0.5, abs=1e-12)
    inverse = realize(parse_braid_word("-1", 2))
    assert omega_at(inverse, 0.3)[(1, 2)] == pytest.approx(-0.5, abs=1e-12)


def test_transport_identity_braid():
    res = transport(realize(parse_braid_word("", 4)), 4)
    assert np.array_equal(res.coefficients, identity(4, 4))


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
    for text, strands in (("1", 2), ("1 1", 2), ("1 2", 3)):
        loop = realize(parse_braid_word(text, strands))
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
            kontsevich_of_braid(upper, 3), 3, 3, permutation_of(lower).inverse().images
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
        letter = relabel_strands(_letter_holonomy(n, k, sign, max_degree), n, max_degree, strand_at)
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
        n_pairs = n * (n - 1) // 2
        monkeypatch.setattr(transport_module, "_SCAN_ENTRIES", per_chunk * n_pairs ** max(max_degree - 1, 0))
    w = _reduced_word(random.Random(f"{n}:{max_degree}:{length}"), n, length)
    reference = _letter_fold(w, max_degree)
    scanned = kontsevich_of_braid(w, max_degree)
    assert np.abs(scanned - reference).max() <= 1e-14 * np.abs(reference).max(), (w, max_degree)


def test_scan_memory_stays_within_budget():
    # 400 letters on 5 strands to degree 5 (111,111 basis words): an
    # unchunked scan holds the (400, 111111) complex array of its gathered
    # letters alone, 711 MB, more than ten times the bound.  The word is a
    # product of squares, so its letters start from at most five strand
    # orders, and the warm-up on one square of each letter leaves no letter
    # or relabel index for the traced run to allocate.
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


def test_letters_match_fine_rk4():
    # an independent integrator: 1024 classical fourth-order steps per letter,
    # whose own error is about 2e-14 here
    for n in (2, 3, 4, 5):
        for k in range(1, n):
            for sign in (1, -1):
                fine = _reference_integrate(realize(BraidWord(n, ((k, sign),))), 4, 1024)
                for max_degree in range(5):
                    letter = _letter_holonomy(n, k, sign, max_degree)
                    assert np.abs(letter - fine[: len(letter)]).max() <= 1e-13, (n, k, sign)


def test_top_letter_symmetrizes_to_abelian_holonomy():
    # N=5, M=5: the largest letter; the abelian closed form is an exact oracle
    letter = _letter_holonomy(5, 2, 1, 5)
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


REPARAM_CASES = (("1 2", 3, (2.0, 1.0)), ("1 1 -2", 3, (1.0, 3.0, 2.0)), ("1 -2 3", 4, (1.0, 2.0, 3.0)))


def test_reparametrization_invariance():
    # uneven durations between segments and uneven speed inside each one
    for text, n, durations in REPARAM_CASES:
        w = parse_braid_word(text, n)
        even = transport(realize(w), 3).coefficients
        for rate in (1.0, 2.0, 4.0):
            warped = transport(_warped(realize(w, durations=durations), rate), 3)
            assert sup_diff(even, warped.coefficients) < 1e-12, (text, rate)


class _WarpedWithoutSpeed(_Warped):
    """The warped path with the velocity not scaled by phi': a wrong reparametrization."""

    def velocities(self, s):
        return self.segment.velocities(self._phi(s))


def test_reparametrization_gate_fails_without_speed_factor():
    for text, n, durations in REPARAM_CASES:
        w = parse_braid_word(text, n)
        even = transport(realize(w), 3).coefficients
        loop = realize(w, durations=durations)
        for rate in (1.0, 2.0, 4.0):
            wrong = ConfigLoop(n, tuple(_WarpedWithoutSpeed(s, rate) for s in loop.segments), loop.breaks)
            assert sup_diff(even, transport(wrong, 3).coefficients) > 0.01, (text, rate)


def _at_nodes(loop, n, max_degree):
    """The loop's holonomy with every segment swept at n + 1 nodes."""
    _, ii, jj = _pair_indices(loop.n_strands)
    factors = (_sweeps(n, _segment_omega(s, _chebyshev(n)[0], ii, jj), max_degree) for s in loop.segments)
    return _scan(factors, len(loop.segments), len(ii), max_degree)


def test_transport_converges_geometrically_in_nodes():
    loop = realize(parse_braid_word("1 -2 1", 3), durations=(1.0, 2.0, 1.5))
    reference = _at_nodes(loop, 128, 3)
    errors = [sup_diff(_at_nodes(loop, n, 3), reference) for n in (4, 8, 16, 32)]
    assert errors[0] >= 100 * errors[1] and errors[1] >= 100 * errors[2], errors
    assert errors[3] <= 1e-15, errors
    result = transport(loop, 3)
    assert sup_diff(result.coefficients, reference) <= 1e-15
    assert result.richardson_error_estimate <= 1e-15


def test_transport_reports_steps():
    # "1 2" on 3 strands: both letters resolve at n = 32, compared at 64
    loop = realize(parse_braid_word("1 2", 3))
    res, single = transport(loop, 2), transport(loop, 1)
    assert res.steps_used == single.steps_used == 2 * (2 * 32 + 1)
    assert 0.0 <= single.richardson_error_estimate <= 1e-15
    assert repr(single).startswith(f"TransportResult(steps_used=130, richardson_error_estimate={single.richardson_error_estimate!r}, ")
    with pytest.raises(AttributeError):
        single.steps_used = 0


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


def test_abelian_matches_symmetrized_transport():
    for text in ("1 2", "1 1 -2"):
        loop = realize(parse_braid_word(text, 3))
        sym = symmetrized(transport(loop, 3).coefficients, 3, 3)
        assert sup_diff(sym, abelian_holonomy(loop, 3)) < 1e-7


def test_abelian_identity_braid():
    loop = realize(parse_braid_word("", 3))
    closed = abelian_holonomy(loop, 3)
    assert sup_diff(closed, identity(3, 3)) < 1e-14


def test_abelian_single_generator_exact_match():
    loop = realize(parse_braid_word("1", 2))
    direct = transport(loop, 4).coefficients
    closed = abelian_holonomy(loop, 4)
    assert sup_diff(direct, closed) < 1e-9


def test_transport_error_on_collision():
    arc = _Arc((0j, 0j), None, 0.0, 1)
    broken = ConfigLoop(2, (arc,), (1.0,))
    # in the two-segment loop the first segment passes the finiteness check
    # and the message names the second
    good = realize(parse_braid_word("1", 3)).segments[0]
    collided = _Arc((0j, 0j, 2 + 0j), None, 0.0, 1)
    second = ConfigLoop(3, (good, collided), (0.25, 1.0))
    cases = (
        (broken, 1, "segment ending at t=1.0 (segment start t=0.0)"),
        (second, 1, "segment ending at t=1.0 (segment start t=0.25)"),
        (second, 4, "segment ending at t=1.0 (segment start t=0.25)"),
    )
    with np.errstate(all="ignore"):
        for loop, max_degree, where in cases:
            with pytest.raises(TransportError) as caught:
                transport(loop, max_degree)
            assert str(caught.value) == f"non-finite transport coefficients inside {where}"


def _reference_integrate(loop, max_degree, steps):
    """End state of `steps` classical RK4 steps per segment, taken one at a time."""
    _, ii, jj = _pair_indices(loop.n_strands)
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
        permutation_of(lower).inverse().images,
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
    assume(len(permutation_of(w).cycles()) == 1)
    k = data.draw(st.integers(1, w.n_strands - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    conjugated = BraidWord(w.n_strands, ((k, sign),) + w.letters + ((k, -sign),))
    z = kontsevich_link(w, 3).series
    zc = kontsevich_link(conjugated, 3).series
    assert sup_diff(z, zc) <= 1e-9
