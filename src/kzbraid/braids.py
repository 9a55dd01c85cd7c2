"""Artin braid words and their realization as loops of plane configurations.

A word realizes as a piecewise-analytic loop in the space of N distinct
points, one segment per letter (none for the empty word): strand k starts
at k-1 on the real axis, each letter swaps the two points at adjacent
positions along half circles of radius 1/2, everything else stands still.
The swapping pair keeps constant unit distance and no other point comes
closer than about 1/2, so the loop stays clear of the diagonal.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._lazy import np


class BraidWord(namedtuple("BraidWord", "n_strands letters")):
    """Signed generator letters (k, sign) on n_strands strands.

    The tuple (n_strands, letters), so len() is 2: count letters with len(word.letters).
    """

    __slots__ = ()

    def __new__(cls, n_strands, letters):
        if n_strands < 2:
            raise ValueError("need at least 2 strands")
        letters = tuple((int(k), int(sign)) for k, sign in letters)
        for k, sign in letters:
            if not 1 <= k <= n_strands - 1:
                raise ValueError(f"generator index {k} out of range")
            if sign not in (-1, 1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")
        return super().__new__(cls, n_strands, letters)

    @classmethod
    def _make(cls, iterable):  # _replace calls it too; namedtuple's own skips __new__
        return cls(*iterable)

    def __repr__(self):
        body = " ".join(str(k * sign) for k, sign in self.letters) or "e"
        return f"BraidWord({self.n_strands}; {body})"


def parse_braid_word(text: str, n_strands: int) -> BraidWord:
    """Whitespace-separated signed integers; k means the k-th generator."""
    letters = []
    for token in text.split():
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"non-integer token {token!r}") from None
        if value == 0:
            raise ValueError("zero token is not a generator")
        if abs(value) > n_strands - 1:
            raise ValueError(
                f"generator index out of range: {token!r} on {n_strands} strands"
            )
        letters.append((abs(value), 1 if value > 0 else -1))
    return BraidWord(n_strands, tuple(letters))


def permutation_of(word: BraidWord) -> tuple:
    """Strand -> final position as the images tuple: images[k-1] is where strand k ends."""
    strand_at = list(range(1, word.n_strands + 1))  # position -> strand, 1-based
    for k, _sign in word.letters:
        strand_at[k - 1], strand_at[k] = strand_at[k], strand_at[k - 1]
    images = [0] * word.n_strands
    for position, strand in enumerate(strand_at, start=1):
        images[strand - 1] = position
    return tuple(images)


class _Arc(namedtuple("_Arc", "start moving center sign")):
    """One letter's half turn; local parameter s runs over [0, 1].

    start is the complex start position per strand; moving is (strand at
    left slot, strand at right slot), and that pair makes a half turn about
    center, counterclockwise for sign +1, while every other strand rests.
    """

    __slots__ = ()

    def positions(self, s):
        """Point per strand at local time s; an array s adds leading axes."""
        s = np.asarray(s, dtype=float)
        z = np.empty(s.shape + (len(self.start),), dtype=complex)
        z[...] = self.start
        a, b = self.moving
        phase = 0.5 * np.exp(1j * self.sign * math.pi * s)
        z[..., a - 1] = self.center - phase
        z[..., b - 1] = self.center + phase
        return z

    def velocities(self, s):
        """d/ds of positions(s), same shape."""
        s = np.asarray(s, dtype=float)
        v = np.zeros(s.shape + (len(self.start),), dtype=complex)
        a, b = self.moving
        dphase = 0.5j * self.sign * math.pi * np.exp(1j * self.sign * math.pi * s)
        v[..., a - 1] = -dphase
        v[..., b - 1] = dphase
        return v


class _Warped(namedtuple("_Warped", "segment rate")):
    """A segment at local time phi(s) = (e^{as} - 1) / (e^a - 1), a = rate, velocity phi'(s) v(phi(s))."""

    __slots__ = ()

    def _phi(self, s):
        return np.expm1(self.rate * np.asarray(s, dtype=float)) / math.expm1(self.rate)

    def positions(self, s):
        return self.segment.positions(self._phi(s))

    def velocities(self, s):
        speed = self.rate * np.exp(self.rate * np.asarray(s, dtype=float)) / math.expm1(self.rate)
        return speed[..., None] * self.segment.velocities(self._phi(s))


def _warped(loop, rate):
    """The loop with every segment warped by _Warped(segment, rate)."""
    return ConfigLoop(loop.n_strands, tuple(_Warped(s, rate) for s in loop.segments))


class ConfigLoop(namedtuple("ConfigLoop", "n_strands segments")):
    """Loop of N distinct points as its segments in order, each over its own local time [0, 1]."""

    __slots__ = ()


def realize(word: BraidWord) -> ConfigLoop:
    """Geometric realization of a braid word, base points at 0..N-1: one _Arc per letter."""
    n = word.n_strands
    strand_at = list(range(1, n + 1))  # position (0-based slot) -> strand
    segments = []
    for k, sign in word.letters:
        start = [0j] * n
        for slot, strand in enumerate(strand_at):
            start[strand - 1] = complex(slot)
        a, b = strand_at[k - 1], strand_at[k]
        center = (2 * k - 1) / 2.0  # midpoint of slots k-1 and k
        segments.append(_Arc(tuple(start), (a, b), center, sign))
        strand_at[k - 1], strand_at[k] = b, a
    return ConfigLoop(n, tuple(segments))
