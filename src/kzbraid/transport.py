"""Numerical holonomy of the KZ form in the truncated word algebra.

The connection samples as one complex number per strand pair,
(1/2 pi i) (zi' - zj')/(zi - zj), and the transport solves T' = omega * T
(stacking product, new chord on top) with classical fourth-order steps taken
segment by segment, so every step sees an analytic integrand.  Degree-m
coefficients of the result are the iterated integrals over the ordered
simplex 0 <= t1 < ... < tm <= 1; chords are stored bottom-up in time order
and every coefficient already carries its 1/(2 pi i)^m normalization.

transport() integrates any loop and carries the step-doubling error
estimate.  A braid's integral is built from its letters instead: each
letter's holonomy is transported once per process and cached, and a word
is their stacking product, each letter relabeled to the strands it moves.

A direct simplex quadrature of the same iterated integrals is provided as an
independent oracle, along with the closed-form holonomy of the abelianized
fiber for cross checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .braids import BraidWord, ConfigLoop, realize
from .words import (
    ChordPair,
    HorizontalSeries,
    HorizontalWord,
    all_pairs,
    basis_size,
    series_from_dense,
)

_TWO_PI_I = 2j * math.pi


class TransportError(RuntimeError):
    """Non-finite values met while integrating."""


@dataclass(frozen=True)
class ConnectionSample:
    """Value of the connection on a loop velocity: ChordPair -> complex."""

    coefficients: dict

    def __getitem__(self, pair):
        if not isinstance(pair, ChordPair):
            pair = ChordPair(*pair)
        return self.coefficients[pair]


@dataclass(frozen=True)
class TransportResult:
    series: HorizontalSeries
    steps_used: int
    richardson_error_estimate: float
    coefficients: np.ndarray  # read-only, one entry per basis word in graded-lex order


@lru_cache(maxsize=None)
def _pair_indices(n_strands):
    pairs = all_pairs(n_strands)
    ii = np.array([p.i - 1 for p in pairs])
    jj = np.array([p.j - 1 for p in pairs])
    return pairs, ii, jj


def _segment_omega(segment, s, ii, jj):
    """Per-pair connection values against the segment-local velocity.

    s is a local time or an array of them; pairs run along the last axis.
    """
    z = segment.positions(s)
    v = segment.velocities(s)
    return (v[..., ii] - v[..., jj]) / ((z[..., ii] - z[..., jj]) * _TWO_PI_I)


def omega_at(loop: ConfigLoop, t: float) -> ConnectionSample:
    """Connection evaluated on the loop velocity at global time t."""
    pairs, ii, jj = _pair_indices(loop.n_strands)
    segment, s, duration = loop.segment_at(t)
    values = _segment_omega(segment, s, ii, jj) / duration
    return ConnectionSample(dict(zip(pairs, (complex(v) for v in values))))


def _unit(n_pairs, max_degree):
    vec = np.zeros(basis_size(n_pairs, max_degree), dtype=complex)
    vec[0] = 1.0
    return vec


def _omega_grid(segment, steps, ii, jj):
    """Connection at the nodes and midpoints of `steps` equal steps over [0, 1]."""
    return _segment_omega(segment, np.arange(2 * steps + 1) / (2 * steps), ii, jj)


def _rk4(state, omega, n_low):
    """Fourth-order steps of T' = T * omega through the sampled rows.

    omega holds node, midpoint, node, ... rows; n_low counts the words of
    degree below the truncation, the only ones a chord can be put on.
    """
    n_pairs = omega.shape[1]
    h = 2.0 / (len(omega) - 1)

    def mul(a, vec):
        out = np.empty_like(vec)
        out[0] = 0.0
        np.multiply(vec[:n_low, None], a, out=out[1:].reshape(n_low, n_pairs))
        return out

    for k in range(0, len(omega) - 1, 2):
        a0, am, a1 = omega[k], omega[k + 1], omega[k + 2]
        k1 = mul(a0, state)
        k2 = mul(am, state + (0.5 * h) * k1)
        k3 = mul(am, state + (0.5 * h) * k2)
        k4 = mul(a1, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def _integrate(loop, max_degree, steps):
    """(fine, coarse) end states; coarse takes steps // 2 steps, None below 2.

    The connection is sampled once per segment; with even steps the coarse
    run's nodes and midpoints are every other fine sample.
    """
    _, ii, jj = _pair_indices(loop.n_strands)
    n_pairs = len(ii)
    n_low = basis_size(n_pairs, max_degree - 1)
    fine = _unit(n_pairs, max_degree)
    coarse = _unit(n_pairs, max_degree) if steps >= 2 else None
    for seg_index, segment in enumerate(loop.segments):
        omega = _omega_grid(segment, steps, ii, jj)
        fine = _rk4(fine, omega, n_low)
        if coarse is not None:
            half = omega[::2] if steps % 2 == 0 else _omega_grid(segment, steps // 2, ii, jj)
            coarse = _rk4(coarse, half, n_low)
        if not (np.isfinite(fine).all() and (coarse is None or np.isfinite(coarse).all())):
            left = loop.breaks[seg_index - 1] if seg_index else 0.0
            raise TransportError(
                f"non-finite transport coefficients inside segment ending at t={loop.breaks[seg_index]}"
                f" (segment start t={left})"
            )
    return fine, coarse


def transport(loop: ConfigLoop, max_degree: int, steps: int = 512) -> TransportResult:
    """Solve T' = omega * T from the identity along the loop.

    steps counts fourth-order steps per segment (per braid letter).  The
    error estimate compares against a half-resolution run and shrinks about
    sixteenfold when steps double; it is inf when steps < 2 leaves nothing
    to compare.
    """
    if max_degree < 0 or steps < 1:
        raise ValueError("need max_degree >= 0 and steps >= 1")
    fine, coarse = _integrate(loop, max_degree, steps)
    estimate = math.inf if coarse is None else float(np.abs(fine - coarse).max())
    fine.flags.writeable = False
    series = series_from_dense(loop.n_strands, max_degree, fine)
    return TransportResult(series, steps * len(loop.segments), estimate, fine)


@lru_cache(maxsize=64)
def _letter_holonomy(n_strands, k, sign, max_degree, steps):
    """Dense holonomy of one letter in slot labels, integrated once, read-only."""
    return transport(realize(BraidWord(n_strands, ((k, sign),))), max_degree, steps).coefficients


@lru_cache(maxsize=64)
def _relabel_index(n_strands, max_degree, strand_at):
    """Gather index taking a slot-labelled dense series to strand labels.

    strand_at[s - 1] is the strand standing at slot s; entry g of the
    result is read from entry index[g] of the slot-labelled series.
    """
    pairs = all_pairs(n_strands)
    pair_index = {pair: q for q, pair in enumerate(pairs)}
    slot_of = {strand: slot for slot, strand in enumerate(strand_at, start=1)}
    first = np.array([pair_index[ChordPair(slot_of[p.i], slot_of[p.j])] for p in pairs])
    index = np.zeros(basis_size(len(pairs), max_degree), dtype=np.intp)
    lo, hi = 0, 1
    for _ in range(max_degree):
        block = (1 + len(pairs) * index[lo:hi, None] + first).ravel()
        index[hi : hi + len(block)] = block
        lo, hi = hi, hi + len(block)
    index.flags.writeable = False
    return index


def _stack(upper, lower, n_pairs, max_degree):
    """Dense stacking product: upper's chords above lower's, truncated."""
    bounds = [basis_size(n_pairs, m) for m in range(-1, max_degree + 1)]
    block = [slice(bounds[m], bounds[m + 1]) for m in range(max_degree + 1)]
    out = np.zeros_like(lower)
    for r in range(max_degree + 1):
        target = out[block[r]]
        for p in range(r + 1):
            target += np.outer(lower[block[r - p]], upper[block[p]]).ravel()
    return out


def braid_holonomy(word: BraidWord, max_degree: int, steps: int = 512) -> np.ndarray:
    """Dense holonomy of the word's loop over basis_words, composed from its letters.

    Holonomy is multiplicative under concatenation of loops, so it is the
    stacking product of the letters' holonomies, each read through the
    strands standing at its slots when the letter starts.  A letter's own
    holonomy depends only on (N, k, sign, max_degree, steps).  Nothing is
    thresholded.
    """
    if max_degree < 0 or steps < 1:
        raise ValueError("need max_degree >= 0 and steps >= 1")
    n = word.n_strands
    n_pairs = n * (n - 1) // 2
    total = _unit(n_pairs, max_degree)
    strand_at = list(range(1, n + 1))
    for k, sign in word.letters:
        letter = _letter_holonomy(n, k, sign, max_degree, steps)
        letter = letter[_relabel_index(n, max_degree, tuple(strand_at))]
        total = _stack(letter, total, n_pairs, max_degree)
        strand_at[k - 1], strand_at[k] = strand_at[k], strand_at[k - 1]
    return total


def kontsevich_of_braid(word: BraidWord, max_degree: int, steps: int = 512) -> HorizontalSeries:
    """Kontsevich integral of the braid as a truncated word series.

    Built from letter holonomies that transport() integrates once per
    process; equal to transport(realize(word), ...).series up to rounding.
    """
    return series_from_dense(word.n_strands, max_degree, braid_holonomy(word, max_degree, steps))


def abelian_holonomy(loop: ConfigLoop, max_degree: int) -> HorizontalSeries:
    """Truncated exp of the integrated connection with commuting chords.

    v = integral of omega is computed per pair by Gauss-Legendre quadrature
    on each segment; the coefficient of an m-chord word is then
    prod_k v[P_k] / m!, which is what ordering-blind transport would give.
    """
    pairs, ii, jj = _pair_indices(loop.n_strands)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    v = np.zeros(len(pairs), dtype=complex)
    for segment in loop.segments:
        for s, w in zip(nodes, weights):
            v += w * _segment_omega(segment, float(s), ii, jj)
    live = [(pair, val) for pair, val in zip(pairs, v) if abs(val) > 0.0]
    terms = {HorizontalWord(loop.n_strands, ()): 1.0 + 0.0j}

    def extend(prefix_chords, prefix_value, degree):
        if degree == max_degree:
            return
        for pair, val in live:
            chords = prefix_chords + (pair,)
            value = prefix_value * val
            word = HorizontalWord(loop.n_strands, chords)
            terms[word] = value / math.factorial(len(chords))
            extend(chords, value, degree + 1)

    extend((), 1.0 + 0.0j, 0)
    return HorizontalSeries(loop.n_strands, max_degree, terms)


def symmetrized(series: HorizontalSeries) -> HorizontalSeries:
    """Average the coefficients over all chord orderings of each word."""
    groups = {}
    for word, coeff in series.terms.items():
        key = tuple(sorted(c.as_tuple() for c in word.chords))
        groups.setdefault(key, {})[word] = coeff
    out = {}
    for key, members in groups.items():
        m = len(key)
        orderings = set(permutations(key))
        total = sum(members.values())
        counts = {}
        for pair in key:
            counts[pair] = counts.get(pair, 0) + 1
        mult = 1
        for c in counts.values():
            mult *= math.factorial(c)
        value = total * mult / math.factorial(m) if m else total
        for chords in orderings:
            out[HorizontalWord(series.n_strands, chords)] = value
    return HorizontalSeries(series.n_strands, series.max_degree, out, series.zero_threshold)


def simplex_oracle(loop: ConfigLoop, word: HorizontalWord, grid: int) -> complex:
    """Iterated integral of the word's chords over the ordered simplex.

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
    m = word.degree
    if m > 3:
        raise ValueError(
            f"degree {m} word rejected: the nested quadrature touches grid^m"
            f" = {grid}**{m} ordered cells, only degrees <= 3 are supported"
        )
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if word.n_strands != loop.n_strands:
        raise ValueError("strand-count mismatch")
    if m == 0:
        return 1.0 + 0.0j
    pairs, ii, jj = _pair_indices(loop.n_strands)
    column = {pair: k for k, pair in enumerate(pairs)}
    h = 1.0 / grid
    mids = (np.arange(grid) + 0.5) * h
    values = np.empty((m, grid), dtype=complex)
    for l, t in enumerate(mids):
        segment, s, duration = loop.segment_at(float(t))
        omega = _segment_omega(segment, s, ii, jj) / duration
        for k, chord in enumerate(word.chords):
            values[k, l] = omega[column[chord]]
    boundary = np.zeros(m + 1, dtype=complex)
    boundary[0] = 1.0
    powers = np.arange(1, m + 2)
    for l in range(grid):
        polys = [np.array([1.0 + 0.0j])]
        for k in range(1, m + 1):
            integrated = polys[k - 1] / powers[: len(polys[k - 1])]
            polys.append(np.concatenate(([boundary[k]], values[k - 1, l] * integrated)))
        for k in range(1, m + 1):
            boundary[k] = np.polyval(polys[k][::-1], h)
    return complex(boundary[m])
