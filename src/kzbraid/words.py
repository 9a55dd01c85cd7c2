"""Horizontal chord words on braid strands and dense series over them.

A word is a height-ordered tuple of chords t_ij, each the strand pair
(i, j) with i < j, lowest chord first, so its degree is its length; the
stacking product concatenates words, left factor on top.  A series is a
complex vector truncated above a fixed degree M, one coefficient per word of
basis_words(N, M) in graded-lex order: every series is computed, combined
and printed in this form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ._lazy import np

ZERO_THRESHOLD = 1e-12
# Largest word basis sum_{m<=M} P**m a request may build.  A compute request
# peaked at about 2.2 kB per basis word (N=4, M=6: 56k words, 118 MB over
# the import), so one at the cap needs about 2.3 GB; uncapped, the degree
# alone decides how much memory a request asks for.
MAX_BASIS_WORDS = 2**20


def enumerate_words(n_strands: int, degree: int):
    """All degree-m words on N strands in graded-lexicographic order.

    There are (N(N-1)/2)**m of them.
    """
    if n_strands < 2:
        raise ValueError("need at least 2 strands")
    if degree < 0:
        raise ValueError("need degree >= 0")
    return tuple(product(all_pairs(n_strands), repeat=degree))


def all_pairs(n_strands: int):
    """The strand pairs (i, j), i < j, in lexicographic order: the chords t_ij."""
    return tuple((i, j) for i in range(1, n_strands) for j in range(i + 1, n_strands + 1))


def pair_ends(n_strands: int):
    """all_pairs(n_strands) as two rows of 0-based strands, the i - 1 and the j - 1 of each pair."""
    if n_strands < 2:
        raise ValueError("need at least 2 strands")
    return np.array(all_pairs(n_strands)).T - 1


# Dense series: one complex entry per word of degree <= M in graded-lex order
# (basis_words), chords bottom first, so with P pairs the degree-m words fill
# one block of P**m entries.  Putting pair p on top of the word at index g
# gives the word at index 1 + P*g + p, and stacking a degree-p word a on a
# degree-q word b gives the entry b*P**p + a of the degree-(p+q) block.


def basis_size(n_pairs: int, max_degree: int) -> int:
    """Number of words of degree <= max_degree over n_pairs pairs (0 when max_degree < 0)."""
    return sum(n_pairs**m for m in range(max_degree + 1))


def check_word_budget(n_strands: int, max_degree: int):
    """Raise ValueError when a basis of degree <= max_degree stores more than MAX_BASIS_WORDS.

    Counts without building: the words of degree <= max(M, 1), as this bounds
    N at degree 0 (N <= 1,448), where every letter still samples its N points;
    on one pair, the M + 1 words and their M (M + 1) / 2 chords.  Strand
    counts below 2 pass: building reports them.
    """
    if n_strands < 2:
        return
    n_pairs = n_strands * (n_strands - 1) // 2
    if n_pairs == 1:
        chords = max_degree * (max_degree + 1) // 2
        size, counted = max_degree + 1 + chords, f"{max_degree + 1} words holding {chords} chords"
    else:  # 2**21 > MAX_BASIS_WORDS, so with P >= 2 no degree past 21 needs counting
        degree = max(max_degree, 1)
        size, counted = basis_size(n_pairs, min(degree, 21)), f"sum of {n_pairs}**m for m <= {degree}"
    if size > MAX_BASIS_WORDS:
        raise ValueError(
            f"{n_strands} strands to degree {max_degree} need more than"
            f" {MAX_BASIS_WORDS} basis words ({counted})"
        )


@lru_cache(maxsize=None)
def basis_words(n_strands: int, max_degree: int):
    """Words of degree <= max_degree in graded-lex order: the dense series basis."""
    return tuple(w for m in range(max_degree + 1) for w in enumerate_words(n_strands, m))


@lru_cache(maxsize=None)
def _block_slices(n_pairs, max_degree):
    bounds = [basis_size(n_pairs, m) for m in range(-1, max_degree + 1)]
    return tuple(slice(bounds[m], bounds[m + 1]) for m in range(max_degree + 1))


def _blocks(vec, n_pairs, max_degree):
    """Views of a dense series' degree blocks, degree 0 first."""
    return [vec[block] for block in _block_slices(n_pairs, max_degree)]


def _outer(a, b):
    """Graded outer product along the last axis: entry i * len(b) + p is a_i b_p.

    This puts b's chords on top of a's words.  Leading axes are batch axes.
    """
    prod = a[..., :, None] * b[..., None, :]
    return prod.reshape(prod.shape[:-2] + (-1,))


def series_product(upper, lower, n_strands, max_degree):
    """Stacking product of two dense series, upper's chords above lower's, truncated."""
    if max_degree < 0:
        raise ValueError("need max_degree >= 0")
    n_pairs = n_strands * (n_strands - 1) // 2
    size = _block_slices(n_pairs, max_degree)[-1].stop
    if len(upper) != size or len(lower) != size:
        raise ValueError(f"series product needs two vectors of {size} coefficients")
    out = np.zeros_like(lower)
    upper, lower = _blocks(upper, n_pairs, max_degree), _blocks(lower, n_pairs, max_degree)
    for r, target in enumerate(_blocks(out, n_pairs, max_degree)):
        for p in range(r + 1):
            target += _outer(lower[r - p], upper[p])
    return out


def _word_index(n_strands, max_degree, a, b):
    """Position in basis_words(n_strands, .) of each graded-lex word over the pairs (a[q], b[q]), read-only."""
    i, j = np.minimum(a, b), np.maximum(a, b)
    pair_map, n_pairs = (i - 1) * (2 * n_strands - i) // 2 + j - i - 1, n_strands * (n_strands - 1) // 2
    index = np.zeros(basis_size(len(pair_map), max_degree), dtype=np.intp)
    lo, hi = 0, 1
    for _ in range(max_degree):
        block = (1 + n_pairs * index[lo:hi, None] + pair_map).ravel()
        index[hi : hi + len(block)] = block
        lo, hi = hi, hi + len(block)
    index.flags.writeable = False
    return index


def relabel_strands(coefficients, n_strands, max_degree, images):
    """Rename the strands of every chord of a dense series, strand s to images[s - 1].

    images must be a permutation of 1..N and coefficients fill
    basis_words(N, M).  Stacking one braid's transport on top of another's
    requires reading the upper factor's labels through the lower braid's
    permutation, since a strand keeps its bottom label across the whole
    composed loop.
    """
    images = tuple(images)
    if sorted(images) != list(range(1, n_strands + 1)):
        raise ValueError(f"relabelling needs a permutation of 1..{n_strands}")
    renamed = np.argsort(images)  # renamed[s]: the strand images sends to s + 1, 0-based
    # entry g reads the word whose chords' strands images renames to word g's
    index = _word_index(n_strands, max_degree, *(renamed[end] + 1 for end in pair_ends(n_strands)))
    if len(coefficients) != len(index):
        raise ValueError(f"relabelling needs a vector of {len(index)} coefficients")
    return coefficients[index]


def moduli(series):
    """abs of each entry of a complex array: the |c| that every threshold and the table read.

    np.hypot and CPython's abs(complex) both call libm's hypot: this is abs bit for bit (np.abs can
    differ in the last bit), and inf where abs raises OverflowError (both parts near the largest double).
    """
    return np.hypot(series.real, series.imag)


def series_to_json_dict(coefficients, n_strands, max_degree, zero_threshold=ZERO_THRESHOLD) -> dict:
    """JSON document of a dense series: every term whose modulus reaches zero_threshold.

    compute writes this document's text through _text; this is the tests'
    reference for it, kept here because the benchmark tracer wraps it.
    """
    words = basis_words(n_strands, max_degree)
    if len(coefficients) != len(words):
        raise ValueError(f"series_to_json_dict needs a vector of {len(words)} coefficients")
    terms = [
        {"word": [list(p) for p in w], "re": c.real, "im": c.imag}
        for w, c in zip(words, coefficients.tolist())
        if abs(c) >= zero_threshold
    ]
    return {"n_strands": n_strands, "max_degree": max_degree, "terms": terms}
