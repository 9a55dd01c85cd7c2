"""Numerical holonomy of the KZ form in the truncated word algebra.

The connection samples as one complex number per strand pair,
(1/2 pi i) (zi' - zj')/(zi - zj), and a holonomy solves T' = omega * T
(stacking product, new chord on top) segment by segment, so every segment
sees an analytic integrand.  Degree-m coefficients of the result are the
iterated integrals over the ordered simplex 0 <= t1 < ... < tm <= 1 (Chen's
iterated integrals); chords are stored bottom-up in time order and every
coefficient already carries its 1/(2 pi i)^m normalization.  The degree-r
part of T depends only on degree r - 1, T_r(s) = integral_0^s T_{r-1} omega.

Every loop is integrated one way.  A segment is integrated spectrally
(Greengard, SIAM J. Numer. Anal. 28, 1991): the connection is sampled at
n + 1 Chebyshev-Lobatto nodes, with n doubled until its Chebyshev tail is
resolved, and each degree is the Chebyshev indefinite integral of the
degree below times omega, so M sweeps give the degree-M truncation to about
machine precision.  A loop's holonomy is the stacking product of its
segments' holonomies, composed by one scan: for a chunk of factors, degree r
after each factor is the prefix sum of outer products of the lower degrees
before it with the factors, and the top degree, which feeds no other, is
only summed, by matrix products.

transport() sweeps each segment of any loop once, on every pair, at its
resolving n, so no function here takes a step count.  A braid's integral
scans its letters instead: each letter's holonomy is swept once per process
on the 2N - 3 pairs its two points move, cached, and placed on the strands
at its slots when the letter starts.

A direct simplex quadrature of the same iterated integrals is provided as an
independent oracle, along with the closed-form holonomy of the abelianized
fiber for cross checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from ._lazy import np
from .braids import BraidWord, ConfigLoop, realize
from .words import (
    _block_slices,
    _blocks,
    _outer,
    _word_index,
    all_pairs,
    basis_size,
    pair_ends,
)

_TWO_PI_I = 2j * math.pi
# Most complex entries of the scan's factor array, which holds at least one
# factor; its other temporaries are smaller.  A warm 400-letter word on 5
# strands to degree 5 (111,111 words) then takes 9 letters per chunk: 0.3-0.5
# s on one thread of a 2-vCPU host at a traced peak of 43 MB, against 1.1-1.6
# s and 27 MB one letter at a time, and 0.4 s and 62 MB at 2**21.  Words of
# up to 16 letters on 4 strands to degree 4 take one chunk.
_SCAN_ENTRIES = 2**20
# A segment is integrated at n + 1 Chebyshev-Lobatto nodes, n = 8, 16, 32, ...
# up to this cap: the first n at which the last two Chebyshev coefficients of
# the sampled connection are at most _TAIL_TOLERANCE times its largest one.
# Letters on three or more strands resolve at n = 32 (their iterated
# integrals are then within about 2e-16 of the n = 128 ones), on two strands
# at 8; a segment that does not resolve by the cap fails.
_MAX_NODES = 128
_TAIL_TOLERANCE = 1e-11


class TransportError(RuntimeError):
    """Non-finite values met while integrating."""


class TransportResult(namedtuple("TransportResult", "steps_used coefficients")):
    """A loop's transport.

    steps_used is the n + 1 nodes each segment was swept at, summed over
    segments; coefficients is read-only, one entry per basis word in
    graded-lex order.
    """

    __slots__ = ()


def _segment_omega(segment, s, ii, jj):
    """Per-pair connection values against the segment-local velocity.

    s is a local time or an array of them; pairs run along the last axis.
    """
    z = segment.positions(s)
    v = segment.velocities(s)
    return (v[..., ii] - v[..., jj]) / ((z[..., ii] - z[..., jj]) * _TWO_PI_I)


def _unit(n_pairs, max_degree):
    vec = np.zeros(basis_size(n_pairs, max_degree), dtype=complex)
    vec[0] = 1.0
    return vec


@lru_cache(maxsize=None)
def _chebyshev(n):
    """(nodes, C, S) for n + 1 Chebyshev-Lobatto nodes on [0, 1].

    The nodes (1 - cos(pi j / n)) / 2 increase from 0 to 1.  C maps values
    at the nodes to the Chebyshev coefficients of their interpolant, in
    t = 2x - 1; S maps them to that interpolant's integral from 0 at the
    nodes, so S[-1] holds the Clenshaw-Curtis weights.
    """
    j = np.arange(n + 1)
    # T_k(t_j) for k <= n + 1, t_j = cos(pi (n - j) / n); the multiples of
    # pi / n are reduced mod 2 pi in integers, so every cosine is accurate
    cheb = np.cos(np.pi * (np.outer(n - j, np.arange(n + 2)) % (2 * n)) / n)
    ends = np.where((j == 0) | (j == n), 0.5, 1.0)
    coefficients = (2.0 / n) * ends[:, None] * cheb[:, : n + 1].T * ends
    # antiderivatives of T_0 .. T_n: T_1, T_2 / 4, then
    # (T_{k+1} / (k + 1) - T_{k-1} / (k - 1)) / 2, taken from t = -1 (node 0)
    k = np.arange(2, n + 1)
    anti = np.column_stack(
        [cheb[:, 1], cheb[:, 2] / 4, (cheb[:, 3:] / (k + 1) - cheb[:, 1:n] / (k - 1)) / 2]
    )
    integration = 0.5 * (anti - anti[0]) @ coefficients
    return 0.5 * (1.0 - np.cos(np.pi * j / n)), coefficients, integration


def _real_times(matrix, values):
    """matrix @ values for a real matrix and complex values, as one real product.

    values is multiplied as its float view, real and imaginary parts side
    by side, so BLAS runs a real product: numpy would hand the mixed product
    to the complex routine, whose threaded form is slow at these sizes.
    """
    return (matrix @ np.ascontiguousarray(values).view(float)).view(complex)


def _resolved_omega(segment, ii, jj):
    """(n, omega at the nodes of _chebyshev(n)) at the fewest nodes that resolve the segment's connection.

    A non-finite sample ends the search; the caller reports it.
    """
    n = 8
    while True:
        nodes, coefficients, _ = _chebyshev(n)
        omega = _segment_omega(segment, nodes, ii, jj)
        spectrum = np.abs(_real_times(coefficients, omega))
        tail, scale = spectrum[-2:].max(), spectrum.max()
        if tail <= _TAIL_TOLERANCE * scale or not math.isfinite(scale):
            return n, omega
        if n >= _MAX_NODES:
            raise TransportError(
                f"connection not resolved at {n} Chebyshev nodes: last coefficients"
                f" {tail:.1e} against a largest of {scale:.1e}"
            )
        n *= 2


def _sweeps(n, omega, max_degree):
    """Dense holonomy of a segment from omega at the n + 1 nodes of _chebyshev(n).

    Degree r at the nodes is S @ (degree r - 1 times omega); the top degree
    is only needed at s = 1, so it takes the quadrature row S[-1] alone.
    """
    integration = _chebyshev(n)[2]
    n_pairs = omega.shape[1]
    out = _unit(n_pairs, max_degree)
    blocks = _blocks(out, n_pairs, max_degree)
    if max_degree:
        path = np.ones((n + 1, 1), dtype=complex)  # degree 0 at every node
        for r in range(1, max_degree):
            path = _real_times(integration, _outer(path, omega))
            blocks[r][:] = path[-1]
        blocks[-1][:] = ((integration[-1][:, None] * path).T @ omega).ravel()
    return out


def _scan(factors, count, n_pairs, max_degree):
    """Stacking product of `count` dense factors drawn from an iterator, the first lowest.

    The factors are read a chunk at a time into one array.  Degree r after
    each factor is the prefix sum of the increments sum_{p >= 1} (degree
    r - p before the factor) times (the factor's degree p); the top degree,
    which feeds no other, is only summed.  Nothing is thresholded.
    """
    total = _unit(n_pairs, max_degree)
    blocks = _blocks(total, n_pairs, max_degree)
    slices = _block_slices(n_pairs, max_degree)
    chunk = max(1, _SCAN_ENTRIES // len(total))
    buffer = np.empty((min(chunk, count), len(total)), dtype=complex)
    for lo in range(0, count, chunk):
        part = buffer[: count - lo]
        for row, factor in zip(part, factors):
            row[:] = factor
        part_blocks = [part[:, block] for block in slices]
        # before[q][i]: degree q of the product before factor lo + i
        before = [np.ones((len(part), 1), dtype=complex)]
        for r in range(1, max_degree):
            path = np.empty((len(part) + 1, n_pairs**r), dtype=complex)
            path[0] = blocks[r]
            path[1:] = _outer(before[r - 1], part_blocks[1])
            for p in range(2, r + 1):
                path[1:] += _outer(before[r - p], part_blocks[p])
            np.cumsum(path, axis=0, out=path)
            blocks[r][:] = path[-1]
            before.append(path[:-1])
        for p in range(1, max_degree + 1):
            blocks[-1] += (before[max_degree - p].T @ part_blocks[p]).ravel()
    return total


def transport(loop: ConfigLoop, max_degree: int) -> TransportResult:
    """Solve T' = omega * T from the identity along the loop.

    Each segment is swept at the fewest Chebyshev nodes n that resolve its
    connection, and the segments are composed by the scan kontsevich_of_braid
    uses.
    """
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    ii, jj = pair_ends(loop.n_strands)
    resolved = []  # (n, omega at the nodes of _chebyshev(n)) per segment
    for index, segment in enumerate(loop.segments):
        n, omega = _resolved_omega(segment, ii, jj)
        if not np.isfinite(omega).all():
            where = f"segment {index + 1} of {len(loop.segments)}"
            raise TransportError(f"non-finite transport coefficients inside {where}")
        resolved.append((n, omega))
    factors = (_sweeps(n, omega, max_degree) for n, omega in resolved)
    coefficients = _scan(factors, len(resolved), len(ii), max_degree)
    coefficients.flags.writeable = False
    return TransportResult(sum(n + 1 for n, _ in resolved), coefficients)


def _moved_pairs(n_strands, k):
    """Slots (a, b), two arrays in all_pairs order, of the 2N - 3 pairs with an end at slot k or k + 1."""
    return np.array(sorted({(min(e, s), max(e, s)) for e in (k, k + 1) for s in range(1, n_strands + 1) if s != e})).T


@lru_cache(maxsize=64)
def _letter_holonomy(n_strands, k, sign, max_degree):
    """Dense holonomy of one letter over its _moved_pairs, integrated once, read-only: every other word is 0."""
    segment = realize(BraidWord(n_strands, ((k, sign),))).segments[0]
    a, b = _moved_pairs(n_strands, k)
    out = _sweeps(*_resolved_omega(segment, a - 1, b - 1), max_degree)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _letter_index(n_strands, max_degree, strand_at, k):
    """Where letter k's cached holonomy lies among all pairs at strand order strand_at, read-only."""
    return _word_index(n_strands, max_degree, *np.array(strand_at)[_moved_pairs(n_strands, k) - 1])


def _relabeled_letters(word, max_degree):
    """Each letter's cached holonomy, placed on the strands at its slots when it starts."""
    n = word.n_strands
    size, strand_at = basis_size(n * (n - 1) // 2, max_degree), list(range(1, n + 1))
    for k, sign in word.letters:
        letter = np.zeros(size, dtype=complex)
        letter[_letter_index(n, max_degree, tuple(strand_at), k)] = _letter_holonomy(n, k, sign, max_degree)
        yield letter
        strand_at[k - 1], strand_at[k] = strand_at[k], strand_at[k - 1]


def kontsevich_of_braid(word: BraidWord, max_degree: int) -> np.ndarray:
    """Kontsevich integral of the braid: its holonomy as a dense series over basis_words.

    Holonomy is multiplicative under concatenation of loops, so it is the
    scanned stacking product of the letters' holonomies, each read through
    the strands standing at its slots when the letter starts.  A letter's
    own holonomy depends only on (N, k, sign, max_degree) and is integrated
    once per process.  The result equals transport(realize(word),
    max_degree).coefficients up to rounding.  Nothing is thresholded.
    """
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    n = word.n_strands
    return _scan(_relabeled_letters(word, max_degree), len(word.letters), n * (n - 1) // 2, max_degree)


def abelian_holonomy(loop: ConfigLoop, max_degree: int) -> np.ndarray:
    """Truncated exp of the integrated connection with commuting chords, dense.

    v = integral of omega is computed per pair by Gauss-Legendre quadrature
    on each segment; the degree-m block is then the m-fold outer product of
    v divided by m!, which is what ordering-blind transport would give.
    """
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    ii, jj = pair_ends(loop.n_strands)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    v = np.zeros(len(ii), dtype=complex)
    for segment in loop.segments:
        v += weights @ _segment_omega(segment, nodes, ii, jj)
    power = np.ones(1, dtype=complex)
    out = [power]
    for m in range(1, max_degree + 1):
        power = _outer(power, v)
        out.append(power / math.factorial(m))
    return np.concatenate(out)


def symmetrized(coefficients, n_strands: int, max_degree: int) -> np.ndarray:
    """Average a dense series' coefficients over all chord orderings of each word.

    A word's orderings are the words with its chord multiset, so each degree
    block is averaged per multiset, keyed by the index of the word with its
    base-P digits sorted.
    """
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    n_pairs = n_strands * (n_strands - 1) // 2
    size = _block_slices(n_pairs, max_degree)[-1].stop
    if len(coefficients) != size:
        raise ValueError(f"symmetrized needs a vector of {size} coefficients")
    out = coefficients.copy()  # degree 0 has one ordering
    for m, (block, target) in enumerate(
        zip(_blocks(coefficients, n_pairs, max_degree), _blocks(out, n_pairs, max_degree))
    ):
        if m == 0:
            continue
        shape = (n_pairs,) * m
        key = np.ravel_multi_index(tuple(np.sort(np.indices(shape).reshape(m, -1), axis=0)), shape)
        total = np.bincount(key, block.real) + 1j * np.bincount(key, block.imag)
        target[:] = total[key] / np.bincount(key)[key]
    return out


def simplex_oracle(loop: ConfigLoop, word: tuple, grid: int) -> complex:
    """Iterated integral of the word's chords over the ordered simplex.

    word is a tuple of strand pairs (i, j), i < j, bottom chord first.
    Loop time t runs segment floor(tS) of the S segments at local time
    tS - floor(tS), so a loop with no segments integrates to 0 above degree 0.

    Composite midpoint rule per axis: the integrand factors are frozen at
    cell midpoints and the resulting piecewise-constant product is integrated
    exactly over 0 <= t1 < ... < tm <= 1 by sweeping cells left to right and
    carrying the partial integrals as per-cell polynomials.  Cells meeting
    the diagonal therefore enter with their simplex volume fraction, which a
    bare strictly-triangular sum would miss at O(1/grid).

    Error is O(1/grid^2); cost grows as grid per degree, so the degree is
    capped at 3 (a degree-m word needs the m-fold product resolved on the
    grid, and checking beyond degree 3 is quadrature-budget territory).
    """
    m = len(word)
    if m > 3:
        raise ValueError(
            f"degree {m} word rejected: the nested quadrature touches grid^m"
            f" = {grid}**{m} ordered cells, only degrees <= 3 are supported"
        )
    if grid < 16:
        raise ValueError("grid must be at least 16")
    pairs, (ii, jj) = all_pairs(loop.n_strands), pair_ends(loop.n_strands)
    for chord in word:
        if chord not in pairs:
            raise ValueError(f"chord {chord} is not a pair i < j of the loop's {loop.n_strands} strands")
    if m == 0:
        return 1.0 + 0.0j
    columns = [pairs.index(chord) for chord in word]
    h = 1.0 / grid
    mids = (np.arange(grid) + 0.5) * h
    count = len(loop.segments)
    owner, local = np.divmod(mids * count, 1.0)
    values = np.zeros((grid, m), dtype=complex)
    for index, segment in enumerate(loop.segments):
        inside = owner == index
        values[inside] = count * _segment_omega(segment, local[inside], ii, jj)[:, columns]
    # boundary[k]: the degree-k partial integral up to the current cell's
    # left edge; inside a cell it grows as the polynomial poly in the offset
    boundary = [1.0 + 0.0j] + [0j] * m
    for row in values.tolist():
        poly = [1.0 + 0.0j]
        for k in range(1, m + 1):
            poly = [boundary[k]] + [row[k - 1] * (c / power) for power, c in enumerate(poly, 1)]
            total = 0j
            for c in reversed(poly):
                total = total * h + c
            boundary[k] = total
    return boundary[m]
