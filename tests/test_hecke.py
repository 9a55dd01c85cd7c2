"""Drinfeld-Kohno gates: braid holonomies mapped into the group algebra C[S_N].

W sends t_ij to hbar (i j), so a basis word of degree m goes to hbar^m times
the product of its chords' transpositions, the bottom chord leftmost, with
permutations composed as (p q)(x) = p(q(x)).  (i j) commutes with
(i k) + (j k), so W kills 4T and far commutation, and it needs no reduce.
An element of C[S_N][hbar] / hbar^(M+1) is an (M + 1) x N! array: row m
holds the coefficient of hbar^m on each permutation, permutations
numbered in itertools.permutations order.  By Drinfeld and Kohno the KZ
monodromy factors through the Hecke algebra, so W(Z(sigma_k^{+-1})) s_k
satisfies the quadratic relation of its generators.
"""

import math
from functools import lru_cache
from itertools import permutations, product

import numpy as np

from kzbraid.braids import parse_braid_word, permutation_of
from kzbraid.circles import circle_basis, slots_and_chords
from kzbraid.closure import closure_skeleton, tau_project
from kzbraid.transport import kontsevich_of_braid
from kzbraid.words import basis_words


@lru_cache(maxsize=None)
def _group(n):
    """(permutation -> index, table) with table[a, b] the index of a composed after b."""
    perms = list(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    table = np.array([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])
    return index, table


def _transposition(n, i, j):
    """Index of the transposition of strands i and j (1-based)."""
    images = list(range(n))
    images[i - 1], images[j - 1] = j - 1, i - 1
    return _group(n)[0][tuple(images)]


@lru_cache(maxsize=None)
def _word_permutations(n, max_degree):
    """(degree, permutation index) of each word of basis_words(n, max_degree), read-only."""
    index, table = _group(n)
    identity = index[tuple(range(n))]
    degrees, images = [], []
    for word in basis_words(n, max_degree):
        image = identity
        for i, j in word:
            image = table[image, _transposition(n, i, j)]
        degrees.append(len(word))
        images.append(image)
    return np.array(degrees), np.array(images)


def _weight(z, n, max_degree):
    """W of a dense series over basis_words(n, max_degree)."""
    out = np.zeros((max_degree + 1, math.factorial(n)), dtype=complex)
    np.add.at(out, _word_permutations(n, max_degree), z)
    return out


def _times(x, y, n):
    """Product in C[S_N][hbar] / hbar^(M+1), x on the left."""
    table = _group(n)[1]
    out = np.zeros_like(x)
    for i in range(len(x)):
        for j in range(len(x) - i):
            np.add.at(out[i + j], table, np.outer(x[i], y[j]))
    return out


def _scalar(coefficients, n):
    """sum_m coefficients[m] hbar^m times the identity permutation."""
    out = np.zeros((len(coefficients), math.factorial(n)), dtype=complex)
    out[:, _group(n)[0][tuple(range(n))]] = coefficients
    return out


def _holonomy(text, n, max_degree):
    return _weight(kontsevich_of_braid(parse_braid_word(text, n), max_degree), n, max_degree)


def test_hecke_quadratic_relation():
    # X = W(Z(sigma_k^s)) s_k has eigenvalues e^{s hbar/2} and -e^{-s hbar/2}:
    # (X - e^{s hbar/2})(X + e^{-s hbar/2}) = 0 to degree M
    for n, max_degree in ((2, 8), (3, 7), (4, 5)):
        for k in range(1, n):
            swap = np.zeros((max_degree + 1, math.factorial(n)), dtype=complex)
            swap[0, _transposition(n, k, k + 1)] = 1
            for sign in (1, -1):
                x = _times(_holonomy(str(sign * k), n, max_degree), swap, n)
                up, down = ([(s / 2) ** m / math.factorial(m) for m in range(max_degree + 1)] for s in (sign, -sign))
                residual = _times(x - _scalar(up, n), x + _scalar(down, n), n)
                assert np.abs(residual).max() <= 1e-12, (n, k, sign)


def test_braid_relation_in_group_algebra():
    # the two holonomies differ as series and agree once 4T is killed, here by W
    n, max_degree = 3, 5
    za, zb = (kontsevich_of_braid(parse_braid_word(text, n), max_degree) for text in ("1 2 1", "2 1 2"))
    assert np.abs(za - zb).max() > 0.1
    wa, wb = (_weight(z, n, max_degree) for z in (za, zb))
    assert np.abs(wa - wb).max() <= 1e-12


# The quantum trace.  Under W the closed Kontsevich integral of a braid is
# the gl(d) Reshetikhin-Turaev invariant of its closure (Bar-Natan, Topology
# 34, 1995), the Jones polynomial at d = 2 (Jones, Ann. Math. 126, 1987;
# Turaev, Invent. Math. 92, 1988).  T = W(Z(beta)) g, with g sending each
# slot to the strand standing there after the braid, acts on (C^d)^N; its
# quantum trace with K = q^{2 rho}, q = e^{hbar/2}, is the product over the
# cycles c of each permutation of [d] at q^|c|, where [d]_x is the sum of
# x^{d+1-2i} for i = 1..d.  Removing the writhe framing e^{d w hbar/2} and
# one [d]_q gives J_d, invariant under Markov moves.


def _exp_series(rate, max_degree):
    """e^{rate hbar} to degree max_degree."""
    return np.array([rate**m / math.factorial(m) for m in range(max_degree + 1)])


def _series_times(a, b):
    return np.convolve(a, b)[: len(a)]


def _quantum_integer(d, power, max_degree):
    """[d]_x at x = q^power = e^{power hbar / 2}."""
    return sum(_exp_series((d + 1 - 2 * i) * power / 2, max_degree) for i in range(1, d + 1))


def _closed(text, n, max_degree, inverse=True):
    """T = W(Z(beta)) g, g the inverse of permutation_of(word), or permutation_of(word) when not inverse."""
    images = permutation_of(parse_braid_word(text, n))
    g = np.argsort(images) if inverse else np.array(images) - 1  # images of 0..n-1
    step = np.zeros((max_degree + 1, math.factorial(n)), dtype=complex)
    step[0, _group(n)[0][tuple(g.tolist())]] = 1
    return _times(_holonomy(text, n, max_degree), step, n)


def _cycle_lengths(perm):
    """Lengths of the cycles of the permutation k -> perm[k] of 0..n-1."""
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            length, k = length + 1, perm[k]
        if length:
            lengths.append(length)
    return lengths


def _closure_invariant(text, n, d, max_degree, quantum=True):
    """J_d = e^{-d w hbar / 2} Tr_q(T) / [d]_q of the braid's closure; the classical trace when not quantum."""
    word = parse_braid_word(text, n)
    index = _group(n)[0]
    t = _closed(text, n, max_degree)
    scale = 1 if quantum else 0  # K = 1: every cycle weighs d
    trace = np.zeros(max_degree + 1, dtype=complex)
    for perm, k in index.items():
        weight = _exp_series(0, max_degree)
        for length in _cycle_lengths(perm):
            weight = _series_times(weight, _quantum_integer(d, scale * length, max_degree))
        trace += _series_times(t[:, k], weight)
    writhe = sum(sign for _, sign in word.letters)
    trace = _series_times(trace, _exp_series(-d * writhe / 2, max_degree))
    divisor, out = _quantum_integer(d, scale, max_degree), np.zeros_like(trace)
    for m in range(max_degree + 1):
        out[m] = (trace[m] - divisor[1 : m + 1] @ out[:m][::-1]) / divisor[0]
    return out


def _kauffman_bracket(text, n):
    """<closure> as {exponent of A: integer coefficient}, the unknot 1, by the state sum.

    <sigma_k^s> = A^s id + A^-s U_k, and each loop but one weighs -A^2 - A^-2.
    """
    word = parse_braid_word(text, n)
    length = len(word.letters)
    bracket = {}
    for state in product((1, -1), repeat=length):  # 1: the id smoothing, -1: U
        # point (level, slot) at level * n + slot - 1; the top level is the bottom one
        parent = list(range(length * n))

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def join(x, y):
            parent[root(x)] = root(y)

        for level, ((k, _), smoothing) in enumerate(zip(word.letters, state)):
            lower, upper = level * n, (level + 1) % length * n
            for slot in range(n):
                if smoothing == 1 or slot not in (k - 1, k):
                    join(lower + slot, upper + slot)
            if smoothing == -1:
                join(lower + k - 1, lower + k)
                join(upper + k - 1, upper + k)
        loops = len({root(x) for x in range(length * n)}) - 1
        exponent = sum(sign * smoothing for (_, sign), smoothing in zip(word.letters, state))
        for i in range(loops + 1):  # (-A^2 - A^-2)^loops
            term = exponent + 4 * i - 2 * loops
            bracket[term] = bracket.get(term, 0) + (-1) ** loops * math.comb(loops, i)
    return {e: c for e, c in bracket.items() if c}


def _jones_reference(text, n, max_degree):
    """(-1)^(components - 1) V(e^{-hbar}) of the braid's closure, V = (-A^3)^-w <closure> at t = A^-4."""
    word = parse_braid_word(text, n)
    writhe = sum(sign for _, sign in word.letters)
    sign = (-1) ** (writhe + len(closure_skeleton(word)) - 1)
    return sign * sum(c * _exp_series((e - 3 * writhe) / 4, max_degree) for e, c in _kauffman_bracket(text, n).items())


def test_kauffman_bracket_of_the_trefoil():
    # V = t + t^3 - t^4 for sigma1^3, with t = A^-4 and the framing (-A^3)^-3
    bracket = _kauffman_bracket("1 1 1", 2)
    jones = {(9 - e) // 4: (-1) ** 3 * c for e, c in bracket.items()}
    assert all((9 - e) % 4 == 0 for e in bracket) and jones == {1: 1, 3: 1, 4: -1}


def test_quantum_trace_is_the_jones_polynomial():
    cases = [(text, 2, 8) for text in ("1", "1 1", "1 1 1", "-1 -1 -1 -1 -1")]
    cases += [(text, 3, 6) for text in ("1 -2 1 -2", "1 1 1 2", "1 2", "1 1 2 2", "-1 2 2 2 -1 2")]
    cases += [(text, 4, 5) for text in ("1 2 3", "1 1 3 3", "1 -2 3 -2 1", "1 1 2 -3 2")]
    for text, n, max_degree in cases:
        reference = _jones_reference(text, n, max_degree)
        jones = _closure_invariant(text, n, 2, max_degree)
        assert np.abs(jones - reference).max() <= 1e-12 * np.abs(reference).max(), (text, n)


def test_quantum_trace_is_markov_invariant():
    for text, n in (("1 1 1", 2), ("1 1", 2), ("1 -2 1 -2", 3), ("1 2 -1 2", 3)):
        for d in (2, 3):
            before = _closure_invariant(text, n, d, 5)
            for stabilized in (f"{text} {n}", f"{text} -{n}"):
                after = _closure_invariant(stabilized, n + 1, d, 5)
                assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max(), (stabilized, d)
    # the classical trace, K = 1, is not
    before, after = (_closure_invariant(text, n, 2, 5, quantum=False) for text, n in (("1 1 1", 2), ("1 1 1 2", 3)))
    assert np.abs(after - before).max() > 1


# The unreduced closure.  tau puts each chord's feet on the component
# circles, and under the gl(d) weight system a chord diagram on circles
# weighs d^faces, the faces being the cycles of (next foot on its circle)
# after (chord partner), plus one for each circle with no chord.  So the
# sum over diagrams D of tau(Z)_D d^faces(D) is the classical trace of T,
# each permutation g weighing d^cycles(g): a check of the closure's index
# at every degree that uses no circle relation.


def _faces(drawing):
    """Cycles of (next foot on its circle) after (chord partner), plus one per circle with no chord."""
    slots, chords = slots_and_chords(drawing)
    partner = {a: b for a, b in chords} | {b: a for a, b in chords}
    faces, seen = slots.count(0), set()
    for foot in partner:
        faces += foot not in seen
        while foot not in seen:
            seen.add(foot)
            circle, slot = partner[foot]
            foot = circle, (slot + 1) % slots[circle]
    return faces


def _face_weight(text, n, d, max_degree):
    """Per degree, the sum over circle diagrams D of tau(Z)_D d^faces(D)."""
    word = parse_braid_word(text, n)
    cycles = closure_skeleton(word)
    tau = tau_project(kontsevich_of_braid(word, max_degree), cycles, max_degree)
    out = np.zeros(max_degree + 1, dtype=complex)
    for drawing, coefficient in zip(circle_basis(len(cycles), max_degree), tau):
        out[(len(drawing) - len(cycles)) // 2] += coefficient * d ** _faces(drawing)
    return out


def _classical_trace(text, n, d, max_degree, inverse=True):
    """Per degree, the sum over permutations g of T_g d^cycles(g)."""
    weights = [d ** len(_cycle_lengths(perm)) for perm in _group(n)[0]]
    return _closed(text, n, max_degree, inverse) @ np.array(weights)


def test_face_weight_of_the_closure_is_the_classical_trace():
    cases = [("1 1 1", 2), ("1 2", 3), ("1 -2 1 -2", 3)]
    cases += [(text, 4) for text in ("1 -2 3", "1 2 3 1 2 3", "1 1 3 3", "1 -2 3 2 -1")]
    for text, n in cases:
        for d in (1, 2, 3, 5):
            left, right = _face_weight(text, n, d, 4), _classical_trace(text, n, d, 4)
            assert np.abs(left - right).max() <= 1e-12 * np.abs(right).max(), (text, d)
    # g = permutation_of(word) instead of its inverse misses on the knots, by 0.34 to 3.3 at d = 5
    for text, n in (("1 2", 3), ("1 -2 1 -2", 3), ("1 -2 3", 4)):
        left, right = _face_weight(text, n, 5, 4), _classical_trace(text, n, 5, 4, inverse=False)
        assert np.abs(left - right).max() > 0.3 * np.abs(right).max(), text
