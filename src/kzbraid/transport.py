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

transport() sweeps the segments of any loop and estimates its error from
the same loop at twice each segment's node count, chosen per segment, so
no function here takes a step count.  A braid's integral scans its letters
instead: each letter's holonomy is swept once per process and cached, and
read through the strands at its slots when the letter starts.

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
    all_pairs,
    basis_size,
    relabel_strands,
)

_TWO_PI_I = 2j * math.pi
# Most complex entries one temporary of the scan holds: a chunk of L factors
# holds L rows of P**(M-1) entries per degree M-1 temporary, and the factors
# themselves, about P times that.  A 400-letter word on 5 strands to degree
# 5 then takes 6 letters per chunk: 0.75 s on one thread of a 2-vCPU host, at
# a traced peak of 26 MB (one letter at a time: 1.3 s, 7 MB).  Unchunked it
# held 1.57 GB; at 2**14, one letter per chunk, it took 1.9 s.
_SCAN_ENTRIES = 2**16
# A segment is integrated at n + 1 Chebyshev-Lobatto nodes, n = 8, 16, 32, ...
# up to this cap: the first n at which the last two Chebyshev coefficients of
# the sampled connection are at most _TAIL_TOLERANCE times its largest one.
# Letters on three or more strands resolve at n = 32 (their iterated
# integrals are then within about 2e-16 of the n = 128 ones), on two strands
# at 8; a segment that does not resolve by the cap fails.
_MAX_NODES = 128
_TAIL_TOLERANCE = 1e-11
# Most connection samples, pairs times nodes, a letter may take at the node
# cap.  A sample held about 80 bytes at its peak (compute -n 600 -m 1: 505 MB
# for 179,700 pairs at 33 nodes), so the cap bounds a letter's sampling near
# 2.7 GB, as MAX_BASIS_WORDS bounds the basis; 721 strands pass it.
MAX_CONNECTION_SAMPLES = 2**25


class TransportError(RuntimeError):
    """Non-finite values met while integrating."""


class TransportResult(namedtuple("TransportResult", "steps_used richardson_error_estimate coefficients")):
    """A loop's transport and its error estimate.

    steps_used is the nodes of each segment's 2n-node comparison run, summed
    over segments; coefficients is read-only, one entry per basis word in
    graded-lex order.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _pair_indices(n_strands):
    pairs = all_pairs(n_strands)
    ii, jj = np.array(pairs).T - 1
    return pairs, ii, jj


def check_sample_budget(n_strands: int):
    """Raise ValueError when a letter on n_strands could take more than MAX_CONNECTION_SAMPLES samples.

    A letter samples the connection of every strand pair, at up to
    _MAX_NODES + 1 nodes, whatever the degree, 0 included.
    """
    n_pairs = n_strands * (n_strands - 1) // 2
    if n_pairs * (_MAX_NODES + 1) > MAX_CONNECTION_SAMPLES:
        raise ValueError(
            f"{n_strands} strands need more than {MAX_CONNECTION_SAMPLES} connection samples"
            f" per letter ({n_pairs} pairs at up to {_MAX_NODES + 1} nodes)"
        )


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
    chunk = max(1, _SCAN_ENTRIES // n_pairs ** max(max_degree - 1, 0))
    for lo in range(0, count, chunk):
        part = np.empty((min(chunk, count - lo), len(total)), dtype=complex)
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
    uses.  The error estimate is the largest difference from the same loop
    at 2n nodes per segment; steps_used counts the 2n + 1 nodes of each
    segment.
    """
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    _, ii, jj = _pair_indices(loop.n_strands)
    resolved, doubled = [], []  # (n, omega at the nodes of _chebyshev(n)) per segment
    for index, segment in enumerate(loop.segments):
        n, omega = _resolved_omega(segment, ii, jj)
        if not np.isfinite(omega).all():
            left = loop.breaks[index - 1] if index else 0.0
            raise TransportError(
                f"non-finite transport coefficients inside segment ending at t={loop.breaks[index]}"
                f" (segment start t={left})"
            )
        resolved.append((n, omega))
        doubled.append((2 * n, _segment_omega(segment, _chebyshev(2 * n)[0], ii, jj)))
    coefficients, finer = (
        _scan((_sweeps(n, omega, max_degree) for n, omega in samples), len(samples), len(ii), max_degree)
        for samples in (resolved, doubled)
    )
    coefficients.flags.writeable = False
    nodes = sum(n + 1 for n, _ in doubled)
    return TransportResult(nodes, float(np.abs(coefficients - finer).max()), coefficients)


@lru_cache(maxsize=64)
def _letter_holonomy(n_strands, k, sign, max_degree):
    """Dense holonomy of one letter in slot labels, integrated once, read-only."""
    segment = realize(BraidWord(n_strands, ((k, sign),))).segments[0]
    _, ii, jj = _pair_indices(n_strands)
    out = _sweeps(*_resolved_omega(segment, ii, jj), max_degree)
    out.flags.writeable = False
    return out


def _relabeled_letters(word, max_degree):
    """Each letter's cached holonomy, read through the strands at its slots when it starts."""
    n = word.n_strands
    strand_at = list(range(1, n + 1))
    for k, sign in word.letters:
        yield relabel_strands(_letter_holonomy(n, k, sign, max_degree), n, max_degree, strand_at)
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
    _, ii, jj = _pair_indices(loop.n_strands)
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
    n_pairs = n_strands * (n_strands - 1) // 2
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
    pairs, ii, jj = _pair_indices(loop.n_strands)
    for chord in word:
        if chord not in pairs:
            raise ValueError(f"chord {chord} is not a pair i < j of the loop's {loop.n_strands} strands")
    if m == 0:
        return 1.0 + 0.0j
    columns = [pairs.index(chord) for chord in word]
    h = 1.0 / grid
    mids = (np.arange(grid) + 0.5) * h
    # the segment holding each midpoint
    owner = np.minimum(np.searchsorted(loop.breaks, mids, side="right"), len(loop.segments) - 1)
    values = np.empty((grid, m), dtype=complex)
    for index, segment in enumerate(loop.segments):
        inside = owner == index
        left = loop.breaks[index - 1] if index else 0.0
        duration = loop.breaks[index] - left
        omega = _segment_omega(segment, (mids[inside] - left) / duration, ii, jj) / duration
        values[inside] = omega[:, columns]
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
