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
from itertools import permutations

import numpy as np

from kzbraid.braids import parse_braid_word
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
