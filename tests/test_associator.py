"""The KZ associator from the package's own transport, through degree 4, and its hexagon at degree 4.

Phi_KZ is the regularized holonomy of z1 = 0, z2 = s, z3 = 1 as s runs from
eps to 1 - eps: only t12 (dz/z) and t23 (dz/(z - 1)) act, so every word
holding t13 is exactly 0.  The path is cut into straight segments of
geometric length, [x, min(2x, 1/2)] from x = eps, so each resolves at few
Chebyshev nodes; the right half is the mirror image translated by -1
(z1 = -1, z3 = 0), so that z3 - z2 keeps its digits near s = 1.  The
divergent ends are removed by stacking exp(-log eps t23 / 2 pi i) on top
and exp(+log eps t12 / 2 pi i) below.  With A = t12 and B = t23, words read
bottom chord first, the coefficient of a t13-free word w is
zeta_reg(w) / (2 pi i)^|w| (Le & Murakami, Nagoya Math. J. 142, 1996):
the iterated integral over 0 < t_1 < ... < t_|w| < 1 of A -> dt/t and
B -> dt/(t - 1), shuffle-regularized so that zeta_reg(A) = zeta_reg(B) = 0.
A convergent word starts with B and ends with A, and is (-1)^(its B count)
times a multiple zeta value; through degree 3 this is Drinfeld's
Phi = 1 + zeta(2)/(2 pi i)^2 [A, B] + zeta(3)/(2 pi i)^3
([A, [A, B]] - [[A, B], B]) + ..., with zeta(2)/(2 pi i)^2 = -1/24.  Duality,
Phi_321 = Phi^-1, is checked by relabelling strands 1 and 3.  The hexagon,
exp(s (t13 + t23) / 2) = Phi_213^-1 exp(s t13 / 2) Phi_132^-1 exp(s t23 / 2)
Phi for s = +1 and -1, with Phi_p = relabel_strands(Phi, p) and products
left factor on top, holds in U(t_3), that is after reduce.
"""

import functools
import math
from collections import namedtuple

import numpy as np

from kzbraid.braids import ConfigLoop, parse_braid_word
from kzbraid.closure import closure_skeleton, kontsevich_link
from kzbraid.relations import reduce
from kzbraid.transport import kontsevich_of_braid, transport
from kzbraid.words import basis_words, relabel_strands, series_product
from test_transport import group_like_defect

MAX_DEGREE = 3
ZETA3 = 1.2020569031595942
A, B = (1, 2), (2, 3)
# the multiple zeta value of each convergent word through degree 4, bottom
# letter first: zeta(2), zeta(3), zeta(2,1) = zeta(3), zeta(4), zeta(2,2),
# zeta(3,1) and zeta(2,1,1) = zeta(4)
ZETAS = {
    "BA": math.pi**2 / 6, "BAA": ZETA3, "BBA": ZETA3,
    "BAAA": math.pi**4 / 90, "BABA": math.pi**4 / 120, "BBAA": math.pi**4 / 360, "BBBA": math.pi**4 / 90,
}
WORDS = basis_words(3, MAX_DEGREE)
INDEX = {word: g for g, word in enumerate(WORDS)}


class _Line(namedtuple("_Line", "left a b")):
    """z1 = left, z2 = a + (b - a) s, z3 = left + 1 over local time s in [0, 1]."""

    __slots__ = ()

    def positions(self, s):
        s = np.asarray(s, dtype=float)
        z = np.empty(s.shape + (3,), dtype=complex)
        z[..., 0] = self.left
        z[..., 1] = self.a + (self.b - self.a) * s
        z[..., 2] = self.left + 1
        return z

    def velocities(self, s):
        v = np.zeros(np.shape(s) + (3,), dtype=complex)
        v[..., 1] = self.b - self.a
        return v


def _exp(x, chords, max_degree):
    """exp(x (sum of chords)) as a dense series: x^m / m! on each word of m of those chords."""
    words = basis_words(3, max_degree)
    return np.array([x ** len(w) / math.factorial(len(w)) if set(w) <= set(chords) else 0 for w in words], complex)


def _associator(eps, max_degree):
    """(segments, regularized holonomy) from s = eps to 1 - eps."""
    ends = [eps]
    while ends[-1] < 0.5:
        ends.append(min(2 * ends[-1], 0.5))
    halves = list(zip(ends, ends[1:]))
    segments = [_Line(0.0, x, y) for x, y in halves] + [_Line(-1.0, -y, -x) for x, y in reversed(halves)]
    result = transport(ConfigLoop(3, tuple(segments)), max_degree)
    log_eps = math.log(eps) / (2j * math.pi)
    phi = series_product(_exp(-log_eps, (B,), max_degree), result.coefficients, 3, max_degree)
    phi = series_product(phi, _exp(log_eps, (A,), max_degree), 3, max_degree)
    return len(segments), phi


def _zeta_reg(word, zetas):
    """zeta_reg of a word over "AB", bottom letter first, from the convergent words' values in zetas.

    zeta_reg is a shuffle homomorphism that is 0 on A and on B, so when the
    word starts with A (or ends with B) the shuffle of that letter with the
    rest of the word sums to 0, and the word is minus the other terms of
    that shuffle over its own multiplicity; those start with fewer A's (end
    with fewer B's).
    """
    if word[:1] == "A" or word[-1:] == "B":
        letter, rest = ("A", word[1:]) if word[0] == "A" else ("B", word[:-1])
        shuffle = [rest[:i] + letter + rest[i:] for i in range(len(rest) + 1)]
        return -sum(_zeta_reg(w, zetas) for w in shuffle if w != word) / shuffle.count(word)
    return (-1) ** word.count("B") * zetas[word] if word else 1.0


def _expected(word, zetas=ZETAS):
    """Phi's coefficient of a t13-free word: zeta_reg(word) / (2 pi i)^|word|."""
    return _zeta_reg("".join("A" if chord == A else "B" for chord in word), zetas) / (2j * math.pi) ** len(word)


def _worst_miss(phi, max_degree, zetas=ZETAS):
    """Largest miss of phi from _expected over the t13-free words to max_degree."""
    words = basis_words(3, max_degree)
    return max(abs(phi[g] - _expected(w, zetas)) for g, w in enumerate(words) if (1, 3) not in w)


def test_associator_matches_drinfeld_through_degree_three():
    # 106 segments at a group-like defect of 3.3e-13; the worst miss seen
    # is 3.6e-14 at degree 2 and 1.7e-13 at degree 3
    n_segments, phi = _associator(1e-16, MAX_DEGREE)
    assert n_segments == 106 and group_like_defect(phi, 3, MAX_DEGREE) <= 1e-12
    assert _worst_miss(phi, MAX_DEGREE) < 1e-12
    assert all(phi[INDEX[word]] == 0 for word in WORDS if (1, 3) in word)


def test_associator_gate_sees_a_coarse_regularization():
    # the ends eps and 1 - eps leave terms of order eps (up to logs): at 1e-8 the
    # same comparison misses by about 1.5e-8, so the gate above can fail
    assert _worst_miss(_associator(1e-8, MAX_DEGREE)[1], MAX_DEGREE) > 1e-9


def test_associator_duality():
    # Phi_321 = Phi^-1: Phi with strands 1 and 3 swapped, stacked on Phi in
    # either order, is the unit (1.7e-13 seen); swapping strands 1 and 2
    # instead misses by 1/24, the degree-2 coefficient, so the gate can fail
    phi = _associator(1e-16, MAX_DEGREE)[1]
    unit = np.zeros(len(WORDS), dtype=complex)
    unit[INDEX[()]] = 1.0
    for images, holds in (((3, 2, 1), True), ((2, 1, 3), False)):
        dual = relabel_strands(phi, 3, MAX_DEGREE, images)
        for upper, lower in ((dual, phi), (phi, dual)):
            miss = np.abs(series_product(upper, lower, 3, MAX_DEGREE) - unit).max()
            assert miss < 1e-12 if holds else miss > 1e-2, (images, miss)


def _inverse(series, max_degree):
    """Truncated inverse of a series with constant term 1: the sum of (1 - series)^k over k <= max_degree."""
    unit = _exp(0, (), max_degree)
    out = power = unit
    for _ in range(max_degree):
        power = series_product(power, unit - series, 3, max_degree)
        out = out + power
    return out


def test_associator_hexagon_at_degree_four():
    # 3.3e-13 seen for either sign (1.0e-12 at degree 5); Phi_213 in place of
    # its inverse misses by 1/12 and dropping every associator by 1/8, so the
    # gate can fail
    m = 4
    phi = _associator(1e-16, m)[1]
    phi_213, phi_132 = (relabel_strands(phi, 3, m, images) for images in ((2, 1, 3), (1, 3, 2)))
    for s in (1, -1):
        half13, half23 = _exp(s / 2, ((1, 3),), m), _exp(s / 2, (B,), m)
        expected = reduce(_exp(s / 2, ((1, 3), B), m), ("strands", 3), m, 0.0)
        for factors, holds in (
            ((_inverse(phi_213, m), half13, _inverse(phi_132, m), half23, phi), True),
            ((phi_213, half13, _inverse(phi_132, m), half23, phi), False),
            ((half13, half23), False),
        ):
            product = functools.reduce(lambda upper, lower: series_product(upper, lower, 3, m), factors)
            miss = np.abs(reduce(product, ("strands", 3), m, 0.0) - expected).max()
            assert miss < 1e-11 if holds else miss > 1e-2, (s, miss)


def test_associator_matches_multiple_zeta_values_at_degree_four():
    # 106 segments at a group-like defect of 1.3e-12; the worst miss seen
    # over the 16 t13-free degree-4 words is 3.3e-13.  Each degree-4
    # coefficient is rational, BAAA = -1/1440 and BBAA = 1/5760 among them.
    # Swapping zeta(3,1) and zeta(2,2) moves BABA and BBAA by
    # (zeta(2,2) - zeta(3,1)) / (2 pi)^4 = 1/2880 (1.0e-3 seen at the worst
    # word, through the regularized ones), so the gate can fail
    m = 4
    n_segments, phi = _associator(1e-16, m)
    assert n_segments == 106 and group_like_defect(phi, 3, m) <= 1e-11
    assert abs(_expected((B, A, A, A)) + 1 / 1440) < 1e-18 and abs(_expected((B, B, A, A)) - 1 / 5760) < 1e-18
    assert _worst_miss(phi, m) < 1e-11
    assert all(phi[g] == 0 for g, w in enumerate(basis_words(3, m)) if (1, 3) in w)
    swapped = dict(ZETAS, BABA=ZETAS["BBAA"], BBAA=ZETAS["BABA"])
    assert _worst_miss(phi, m, swapped) > 1e-4


# the named 3-braids of one to three components the combinatorial integral is checked on
COMBINATORIAL_BRAIDS = (
    "1 2", "2", "1 -2", "1 2 1 2", "1 -2 1 -2", "1 1 1", "2 2 2", "1 1 2 -1 2", "1 2 2 1 2", "-1 2 2 2 -1 -1 2",
    "2 1 1 2", "1 1",
)


def _combinatorial_integral(text, phi, max_degree):
    """Drinfeld's combinatorial integral of a 3-braid, bracketed ((12)3), from the associator phi.

    A letter k^s swapping the strands a and b at slots k and k + 1 gives
    exp(s t_ab / 2) at k = 1, and Phi_{c,b,a}^-1 exp(s t_ab / 2) Phi_{c,a,b},
    left factor on top, at k = 2, with c the strand at slot 1 and
    Phi_{c,x,y} = relabel_strands(phi, (c, x, y)).  The letters are stacked
    first letter lowest; strands keep their bottom labels.
    """
    strand_at, total = [1, 2, 3], _exp(0, (), max_degree)
    for k, sign in parse_braid_word(text, 3).letters:
        a, b = strand_at[k - 1], strand_at[k]
        factor = _exp(sign / 2, ((min(a, b), max(a, b)),), max_degree)
        if k == 2:
            c = strand_at[0]
            upper = _inverse(relabel_strands(phi, 3, max_degree, (c, b, a)), max_degree)
            lower = relabel_strands(phi, 3, max_degree, (c, a, b))
            factor = series_product(upper, series_product(factor, lower, 3, max_degree), 3, max_degree)
        total = series_product(factor, total, 3, max_degree)
        strand_at[k - 1], strand_at[k] = b, a
    return total


def test_combinatorial_integral_closes_to_the_same_link():
    # Up to conjugation the braid's KZ holonomy is Drinfeld's combinatorial
    # integral (Drinfeld 1990; Le & Murakami 1996), and the closure drops the
    # conjugation: the closed series agree within 9.1e-16 at degree 4 while
    # the unclosed ones differ by up to 0.22.  With phi = 1 the closed series
    # miss by 0.33, so the gate can fail.  Below degree 5 zeta(3) is a free
    # parameter of the associators and a link's integral does not depend on
    # it: at zeta(3) = 1.2 they still agree within 9.1e-16
    m = 4
    words = basis_words(3, m)
    zeta3_moved = dict(ZETAS, BAA=1.2, BBA=1.2)
    phis = {
        zetas_name: np.array([0 if (1, 3) in w else _expected(w, zetas) for w in words], complex)
        for zetas_name, zetas in (("mzv", ZETAS), ("zeta3 = 1.2", zeta3_moved))
    }
    phis["phi = 1"] = _exp(0, (), m)
    misses, unclosed = {name: 0.0 for name in phis}, 0.0
    for text in COMBINATORIAL_BRAIDS:
        braid = parse_braid_word(text, 3)
        cycles, holonomy = closure_skeleton(braid), kontsevich_of_braid(braid, m)
        link = kontsevich_link(holonomy, cycles, m, 0.0)
        for name, phi in phis.items():
            combinatorial = _combinatorial_integral(text, phi, m)
            misses[name] = max(misses[name], np.abs(kontsevich_link(combinatorial, cycles, m, 0.0) - link).max())
            if name == "mzv":
                unclosed = max(unclosed, np.abs(combinatorial - holonomy).max())
    assert misses["mzv"] <= 1e-12 and misses["zeta3 = 1.2"] <= 1e-12, misses
    assert misses["phi = 1"] > 0.1 and unclosed > 0.1, (misses, unclosed)
