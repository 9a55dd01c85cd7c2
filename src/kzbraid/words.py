"""Horizontal chord words on braid strands and truncated series over them.

A word is a height-ordered tuple of strand pairs (lowest chord first); the
stacking product concatenates words, left factor on top.  Series are finite
complex combinations truncated above a fixed degree, with an ultrametric
measuring the first degree at which two series differ.  A series also has a
dense form, one coefficient per basis word in graded-lex order, in which it
is computed and printed; word dicts are built only where a caller asks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

ZERO_THRESHOLD = 1e-12
# Largest word basis sum_{m<=M} P**m a request may build.  A compute request
# peaked at about 2.2 kB per basis word (N=4, M=6: 56k words, 118 MB over
# the import), so one at the cap needs about 2.3 GB; uncapped, the degree
# alone decides how much memory a request asks for.
MAX_BASIS_WORDS = 2**20


@dataclass(frozen=True, order=True)
class ChordPair:
    """Unordered chord between two distinct strands, normalized to i < j."""

    i: int
    j: int

    def __post_init__(self):
        i, j = self.i, self.j
        if i > j:
            object.__setattr__(self, "i", j)
            object.__setattr__(self, "j", i)
        if self.i < 1 or self.i == self.j:
            raise ValueError(f"invalid chord pair ({i}, {j})")

    def as_tuple(self):
        return (self.i, self.j)


def _as_pair(value):
    if isinstance(value, ChordPair):
        return value
    return ChordPair(*value)


@dataclass(frozen=True)
class HorizontalWord:
    """Chords on n_strands vertical strands, ordered bottom to top."""

    n_strands: int
    chords: tuple

    def __post_init__(self):
        if self.n_strands < 2:
            raise ValueError("need at least 2 strands")
        chords = tuple(_as_pair(c) for c in self.chords)
        for c in chords:
            if c.j > self.n_strands:
                raise ValueError(f"chord {c.as_tuple()} exceeds {self.n_strands} strands")
        object.__setattr__(self, "chords", chords)

    @property
    def degree(self):
        return len(self.chords)

    def sort_key(self):
        """Graded order, then lexicographic on the chord tuples."""
        return (len(self.chords), tuple(c.as_tuple() for c in self.chords))

    def __repr__(self):
        body = "".join(f"({c.i},{c.j})" for c in self.chords) or "1"
        return f"<{body} on {self.n_strands}>"


def ess_product(a: HorizontalWord, b: HorizontalWord) -> HorizontalWord:
    """Stack a's chords above b's; the empty word is the identity."""
    if a.n_strands != b.n_strands:
        raise ValueError("strand-count mismatch")
    return HorizontalWord(a.n_strands, b.chords + a.chords)


def enumerate_words(n_strands: int, degree: int):
    """All degree-m words on N strands in graded-lexicographic order.

    There are (N(N-1)/2)**m of them.
    """
    if n_strands < 2 or degree < 0:
        raise ValueError("need n_strands >= 2 and degree >= 0")
    pairs = all_pairs(n_strands)
    return tuple(HorizontalWord(n_strands, combo) for combo in product(pairs, repeat=degree))


def all_pairs(n_strands: int):
    return tuple(
        ChordPair(i, j) for i in range(1, n_strands) for j in range(i + 1, n_strands + 1)
    )


# Dense series: one complex entry per word of degree <= M in graded-lex order
# (basis_words), chords bottom first, so with P pairs the degree-m words fill
# one block of P**m entries.  Putting pair p on top of the word at index g
# gives the word at index 1 + P*g + p, and stacking a degree-p word a on a
# degree-q word b gives the entry b*P**p + a of the degree-(p+q) block.


def basis_size(n_pairs: int, max_degree: int) -> int:
    """Number of words of degree <= max_degree over n_pairs pairs (0 when max_degree < 0)."""
    return sum(n_pairs**m for m in range(max_degree + 1))


def check_word_budget(n_strands: int, max_degree: int):
    """Raise ValueError when the words of degree <= max_degree exceed MAX_BASIS_WORDS.

    Counts without building anything.  Strand counts below 2 pass: they
    have no basis to cap, and building one reports the error.
    """
    if n_strands < 2:
        return
    n_pairs = n_strands * (n_strands - 1) // 2
    # 2**21 > MAX_BASIS_WORDS, so with P >= 2 no degree past 21 needs counting
    size = max_degree + 1 if n_pairs == 1 else basis_size(n_pairs, min(max_degree, 21))
    if size > MAX_BASIS_WORDS:
        raise ValueError(
            f"{n_strands} strands to degree {max_degree} need more than"
            f" {MAX_BASIS_WORDS} basis words (sum of {n_pairs}**m for m <= {max_degree})"
        )


@lru_cache(maxsize=None)
def basis_words(n_strands: int, max_degree: int):
    """Words of degree <= max_degree in graded-lex order: the dense series basis."""
    return tuple(w for m in range(max_degree + 1) for w in enumerate_words(n_strands, m))


class HorizontalSeries:
    """Complex combination of words, truncated above max_degree.

    Coefficients with modulus below zero_threshold are not stored.  Instances
    are immutable in use: every operation returns a new series.
    """

    def __init__(self, n_strands, max_degree, terms=None, zero_threshold=ZERO_THRESHOLD):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.n_strands = n_strands
        self.max_degree = max_degree
        self.zero_threshold = zero_threshold
        acc = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(word, HorizontalWord):
                word = HorizontalWord(n_strands, tuple(word))
            if word.n_strands != n_strands:
                raise ValueError("strand-count mismatch")
            if word.degree > max_degree:
                continue
            acc[word] = acc.get(word, 0j) + complex(coeff)
        self._terms = {w: c for w, c in acc.items() if abs(c) >= zero_threshold}

    @classmethod
    def identity(cls, n_strands, max_degree, zero_threshold=ZERO_THRESHOLD):
        one = HorizontalWord(n_strands, ())
        return cls(n_strands, max_degree, {one: 1.0}, zero_threshold)

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, word):
        if not isinstance(word, HorizontalWord):
            word = HorizontalWord(self.n_strands, tuple(word))
        return self._terms.get(word, 0j)

    def _check_compatible(self, other):
        if self.n_strands != other.n_strands or self.max_degree != other.max_degree:
            raise ValueError("series mismatch (strands or truncation degree)")

    def __add__(self, other):
        self._check_compatible(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0j) + c
        return HorizontalSeries(self.n_strands, self.max_degree, acc, self.zero_threshold)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return HorizontalSeries(
            self.n_strands,
            self.max_degree,
            {w: scalar * c for w, c in self._terms.items()},
            self.zero_threshold,
        )

    __rmul__ = __mul__

    def sup_diff(self, other):
        """Max coefficient modulus of self - other over all words."""
        self._check_compatible(other)
        keys = set(self._terms) | set(other._terms)
        return max(
            (abs(self._terms.get(w, 0j) - other._terms.get(w, 0j)) for w in keys),
            default=0.0,
        )

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def __repr__(self):
        return f"HorizontalSeries(n={self.n_strands}, M={self.max_degree}, {len(self._terms)} terms)"


def series_product(a: HorizontalSeries, b: HorizontalSeries) -> HorizontalSeries:
    """Bilinear extension of the stacking product, truncated above max_degree."""
    a._check_compatible(b)
    acc = {}
    for wa, ca in a._terms.items():
        for wb, cb in b._terms.items():
            if wa.degree + wb.degree > a.max_degree:
                continue
            word = HorizontalWord(a.n_strands, wb.chords + wa.chords)
            acc[word] = acc.get(word, 0j) + ca * cb
    return HorizontalSeries(a.n_strands, a.max_degree, acc, a.zero_threshold)


def series_distance(a: HorizontalSeries, b: HorizontalSeries) -> float:
    """2**(-k) with k the lowest degree holding a differing coefficient.

    Differences below the zero threshold of either series do not count; the
    distance is 0.0 when the series agree through their truncation degrees.
    """
    if a.n_strands != b.n_strands:
        raise ValueError("strand-count mismatch")
    tol = max(a.zero_threshold, b.zero_threshold)
    top = max(a.max_degree, b.max_degree)
    by_degree = {}
    for src_sign, series in ((1.0, a), (-1.0, b)):
        for w, c in series._terms.items():
            key = (w.degree, w)
            by_degree[key] = by_degree.get(key, 0j) + src_sign * c
    diffs = sorted(deg for (deg, _w), c in by_degree.items() if abs(c) > tol)
    if not diffs:
        return 0.0
    k = diffs[0]
    if k > top:
        return 0.0
    return 2.0 ** (-k)


def relabel_strands(series: HorizontalSeries, mapping) -> HorizontalSeries:
    """Rename the strand labels of every chord; mapping is callable or dict.

    Stacking one braid's transport on top of another's requires reading the
    upper factor's labels through the lower braid's permutation, since a
    strand keeps its bottom label across the whole composed loop.
    """
    rename = mapping if callable(mapping) else mapping.__getitem__
    out = {}
    for word, coeff in series._terms.items():
        chords = tuple((rename(c.i), rename(c.j)) for c in word.chords)
        new_word = HorizontalWord(series.n_strands, chords)
        out[new_word] = out.get(new_word, 0j) + coeff
    return HorizontalSeries(series.n_strands, series.max_degree, out, series.zero_threshold)


def series_from_dense(n_strands, max_degree, coefficients, zero_threshold=ZERO_THRESHOLD):
    """HorizontalSeries of a dense coefficient vector over basis_words."""
    terms = {w: complex(c) for w, c in zip(basis_words(n_strands, max_degree), coefficients)}
    return HorizontalSeries(n_strands, max_degree, terms, zero_threshold)


def series_to_dense(series: HorizontalSeries) -> np.ndarray:
    """Dense coefficient vector over basis_words; unstored words read 0."""
    n_pairs = series.n_strands * (series.n_strands - 1) // 2
    pair_index = {pair: q for q, pair in enumerate(all_pairs(series.n_strands))}
    out = np.zeros(basis_size(n_pairs, series.max_degree), dtype=complex)
    for word, coeff in series._terms.items():
        g = 0
        for chord in word.chords:
            g = 1 + n_pairs * g + pair_index[chord]
        out[g] = coeff
    return out


def series_to_json_dict(series: HorizontalSeries) -> dict:
    terms = [
        {"word": [list(c.as_tuple()) for c in w.chords], "re": c.real, "im": c.imag}
        for w, c in series.sorted_terms()
    ]
    return {"n_strands": series.n_strands, "max_degree": series.max_degree, "terms": terms}


@lru_cache(maxsize=16)
def _json_heads(n_strands, max_degree, level):
    """Per basis word, the text of its JSON term up to the real part."""
    i2, i3, i4, i5 = ("  " * (level + k) for k in range(2, 6))
    chord_text = {
        pair: f"{i4}[\n{i5}{pair.i},\n{i5}{pair.j}\n{i4}]" for pair in all_pairs(n_strands)
    }
    heads = []
    for word in basis_words(n_strands, max_degree):
        chords = ",\n".join(chord_text[c] for c in word.chords)
        word_text = f"[\n{chords}\n{i3}]" if chords else "[]"
        heads.append(f'{i2}{{\n{i3}"word": {word_text},\n{i3}"re": ')
    return tuple(heads)


def series_json_text(n_strands, max_degree, terms, level=0) -> str:
    """json.dumps(series_to_json_dict(series), indent=2), from a dense series.

    terms are (basis position, complex coefficient) pairs in increasing
    position order, so in sorted_terms order; level is the depth at which
    the document sits inside an enclosing indent=2 document.  Floats print
    as repr(float), as json does for finite values.
    """
    heads = _json_heads(n_strands, max_degree, level)
    i0, i1, i2, i3 = ("  " * (level + k) for k in range(4))
    body = ",\n".join([f'{heads[g]}{c.real!r},\n{i3}"im": {c.imag!r}\n{i2}}}' for g, c in terms])
    listed = f"[\n{body}\n{i1}]" if body else "[]"
    return (
        f'{{\n{i1}"n_strands": {n_strands},\n{i1}"max_degree": {max_degree},'
        f'\n{i1}"terms": {listed}\n{i0}}}'
    )


@contextmanager
def malformed_json(kind):
    """Turn what reading a malformed `kind` JSON document raises into one ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"malformed {kind} JSON: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} JSON: {exc}") from None


def series_from_json_dict(data: dict, zero_threshold=ZERO_THRESHOLD) -> HorizontalSeries:
    """Inverse of series_to_json_dict; malformed input raises ValueError."""
    with malformed_json("series"):
        terms = {}
        for entry in data["terms"]:
            word = HorizontalWord(data["n_strands"], tuple(tuple(p) for p in entry["word"]))
            terms[word] = complex(entry["re"], entry["im"])
        return HorizontalSeries(data["n_strands"], data["max_degree"], terms, zero_threshold)
