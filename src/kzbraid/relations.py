"""Exact relation sets and quotient reduction.

reduce, free_positions and quotient_dimension take a skeleton, ("strands",
N) with N >= 2 or ("circles", q) with q >= 1, and refuse any other.

On strands the quotient by 4T and disjoint commutation is U(t_N), the
enveloping algebra of the Drinfeld-Kohno Lie algebra, with Kohno's basis of
normal words: words whose chords' top strands never decrease from bottom to
top.  Each other word has one rewrite row at its lowest descent (a
commutation or a 4T move), and reduce clears those words in an order the
rows never go back on, so no relation is built or eliminated;
quotient_dimension counts the normal words without building any.
horizontal_relations builds the 4T and commutation rows themselves: it is
the reference the tests check the rewriting against, and nothing here calls
it.

On circles, neither 4T nor framing independence changes which circles
carry feet: the terms of a 4T relation slide one foot between the two feet
of another chord, and their circles keep those feet.  So the relations on
q circles split into blocks, one per support, the set of circles that
carry feet, and the block of a support S is the block of |S| circles that
all carry feet, with a -1 at each empty circle.  circle_relations(k, m)
builds that block once per (k, m).  quotient_dimension sums C(q, k) times
each block's dimension, building no q-circle table, and _pivot_rows places
each block's echelon rows on every support in the q-circle basis.

Framing independence sets every diagram with an isolated chord to zero
outright: those positions are the relation set's killed columns, dropped
from every 4T row, and they never enter the elimination.  A seed whose
drawing has an isolated chord other than the sliding one builds no row,
since all four of its terms are killed or cancel.  Each 4T relation is
built once, from the seed met first in basis order; each term is placed
from the seed's drawing, with only the moved chord relabelled, and found by
one lookup in the block's drawing table.  Relations are integral, so rows
are kept as sparse integer vectors and eliminated without fractions: a row
keeps a positive pivot and has its content divided out after each
combination.  A dense circle series is reduced by pushing its coefficients
through the echelon rows, divided by their pivots into floats once; killed
positions are pivots with empty rows.  quotient_dimension counts each
block's diagrams less its killed positions and its echelon's pivots, and
builds no float row.  Rewrite rows are cached per (strand count, degree),
echelon forms per block and float rows per (circle count, degree); all
are safe for concurrent reads once built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb, gcd

from ._lazy import _lazy_module, np
from .words import ZERO_THRESHOLD, all_pairs, enumerate_words, moduli

# loaded on first use, so that counting strand dimensions never runs it
_circles = _lazy_module("kzbraid.circles")


class RelationSet:
    """Sparse relations over a fixed basis of one degree.

    rows are sorted (column, entry) tuples, entries ints, each kept once up
    to sign in the order given.  killed lists the columns set to zero
    outright (unit relations), which no row holds.
    """

    def __init__(self, degree, basis, rows, killed=()):
        self.degree = degree
        self.basis = tuple(basis)
        kept = {}  # the rows' sorted items, each once up to sign, as an ordered set
        for items in (tuple(sorted(row.items())) for row in rows):
            if items not in kept and tuple((c, -v) for c, v in items) not in kept:
                kept[items] = None
        self.rows = tuple(kept)
        self.killed = tuple(killed)
        self._echelon = None

    def echelon(self):
        """Row echelon form of rows: pivot column -> sparse integer row with a positive pivot.

        A pivot row is zero before its pivot and on every pivot found after
        it, but may keep a pivot found before it (at a later column), so
        reduce clears pivots in increasing order.  Rows are eliminated in
        turn as integer multiples of these rows, the content divided out
        after each step.  The killed columns are not among the pivots.
        Built once, cached on the instance.
        """
        if self._echelon is None:
            pivots = {}
            for raw in self.rows:
                row = dict(raw)
                while row:
                    lead = min(row)
                    if lead in pivots:
                        row = _eliminate(row, pivots[lead], lead)
                        continue
                    if row[lead] < 0:
                        row = {c: -v for c, v in row.items()}
                    for p, prow in pivots.items():
                        if lead in prow:
                            pivots[p] = _eliminate(prow, row, lead)
                    pivots[lead] = row
                    break
            self._echelon = pivots
        return self._echelon

    def __repr__(self):
        return f"RelationSet(degree={self.degree}, basis={len(self.basis)}, rows={len(self.rows)})"


def _eliminate(row, pivot_row, col):
    """row times pivot_row[col] minus pivot_row times row[col], divided by its content.

    Integer rows; pivot_row[col] > 0, so the result is a positive multiple of
    the rational row operation and lacks col.
    """
    factor = row[col]
    scale = pivot_row[col]
    common = gcd(scale, factor)
    scale, factor = scale // common, factor // common
    out = {c: scale * v for c, v in row.items() if c != col}
    for c, v in pivot_row.items():
        if c != col:
            nv = out.get(c, 0) - factor * v
            if nv:
                out[c] = nv
            else:
                out.pop(c, None)
    content = gcd(*out.values())
    if content > 1:
        out = {c: v // content for c, v in out.items()}
    return out


@lru_cache(maxsize=None)
def horizontal_relations(n_strands: int, degree: int) -> RelationSet:
    """4T and disjoint-commutation rows among degree-m braid words.

    Base relations act on an adjacent height pair and are embedded below and
    above by every word context.  The disjoint family [t_ij, t_kl] = 0 is
    included alongside 4T: the connection's curvature only vanishes modulo
    both, and far-apart generators must commute in the quotient.  Only the
    tests call it, as the reference for _rewrite_rows; it stays here
    because the benchmark tracer wraps it and reads its cache_info().
    """
    basis = enumerate_words(n_strands, degree)
    if degree < 2 or n_strands == 2:
        return RelationSet(degree, basis, ())
    n_pairs = n_strands * (n_strands - 1) // 2
    pairs = all_pairs(n_strands)
    pair_index = {p: q for q, p in enumerate(pairs)}
    base_rows = []
    strands = range(1, n_strands + 1)
    for i in strands:
        for j in strands:
            for k in strands:
                if not (i < j < k):
                    continue
                triple = [pair_index[(i, j)], pair_index[(i, k)], pair_index[(j, k)]]
                for slide in triple:
                    others = [p for p in triple if p != slide]
                    row = {}
                    for other in others:
                        row[(slide, other)] = row.get((slide, other), 0) + 1
                        row[(other, slide)] = row.get((other, slide), 0) - 1
                    base_rows.append(row)
    for a_idx, p in enumerate(pairs):
        for q in pairs[a_idx + 1:]:
            if set(p) & set(q):
                continue
            base_rows.append({(pair_index[p], pair_index[q]): 1, (pair_index[q], pair_index[p]): -1})
    rows = []
    # a term's column is its word's index in the degree block, the chords
    # read as base-P digits, lowest chord first: prefix a, the pair
    # (low, high), then the degree-s suffix b
    for pos in range(degree - 1):
        suffixes = n_pairs ** (degree - 2 - pos)
        for a in range(n_pairs**pos):
            for b in range(suffixes):
                for base in base_rows:
                    row = {}
                    for (low, high), coeff in base.items():
                        col = ((a * n_pairs + low) * n_pairs + high) * suffixes + b
                        row[col] = row.get(col, 0) + coeff
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return RelationSet(degree, basis, rows)


def _circle_four_term_rows(degree, basis, drawings, isolated):
    """4T rows seeded at the adjacent feet of distinct chords in the basis drawings of one degree >= 2.

    drawings files every drawing of the basis diagrams under its position.

    With chord a = (x, y) fixed and the sliding foot u of another chord b,
    the relation reads D(u after x) - D(u before x) + D(u after y) - D(u
    before y), 'after' meaning forward along the circle orientation.  A seed
    is b's foot just before x: its term D(u before x) is the drawing itself,
    at its basis position parent.  The relation's other seed is the term
    D(u before y), looked up first: when its position is below parent, the
    row was built from that seed already and this one is skipped.

    isolated[k] holds the isolated chords of basis drawing k: a term at a
    position with one is killed and left out, and a seed builds no row when
    its drawing has one that is not b.  A chord other than a and b stays
    isolated in all four terms, since only u moves, to a place next to a
    foot of a.  When a is isolated, y is the slot after x, so D(u after x)
    and D(u before y) are one diagram and cancel, and the other two keep a
    isolated.  When y is on a later circle than x, D(u before y) has an
    earlier slot split, so its position is below parent.

    A term is the drawing with u moved, so only b can change rank among
    first appearances: to the number of other chords that first appear
    before its new first foot, read off the drawing's running largest
    label, and the term is relabelled by _rerank only then.
    """
    rerank = _circles._rerank(degree)
    rows = []
    for parent, drawing in enumerate(basis):
        lone = isolated[parent]  # at most b may be isolated
        if len(lone) > 1:
            continue
        largest = list(accumulate(drawing, max, initial=-1))  # largest[k]: the largest label in drawing[:k]
        start, closing = 0, drawing.index(-1)  # flat indices of the first slot and the -1 of slot i's circle
        for i, b in enumerate(drawing[:-1]):
            if b < 0:
                start, closing = i + 1, drawing.index(-1, i + 1)
                continue
            # a's foot that was adjacent, repositioned after dropping slot i
            x, a = (i, drawing[i + 1]) if drawing[i + 1] >= 0 else (start, drawing[start])
            if a == b or lone and b not in lone:
                continue
            removed = drawing[:i] + drawing[i + 1:]
            y = removed.index(a)
            if y == x:
                y = removed.index(a, x + 1)
            if y >= closing:  # on a later circle
                continue
            j = drawing.index(b)  # b's other foot, as an index into removed
            j = drawing.index(b, i + 1) - 1 if j == i else j
            terms = []
            # D(u before y), D(u after x), D(u after y): b inserted at index p of removed
            for p in (y, x + 1, y + 1):
                layout = removed[:p] + (b,) + removed[p:]
                before = j if j < p else p  # b's first foot, with removed[:before] before it
                top = largest[before + (before >= i)]
                rank = top if top >= b else top + 1
                k = drawings[layout if rank == b else tuple(map(rerank[b][rank].__getitem__, layout))]
                if not terms and k < parent:
                    break
                terms.append(k)
            else:
                other, after_x, after_y = terms
                row = {}
                for k, sign in ((after_x, 1), (parent, -1), (after_y, 1), (other, -1)):
                    if not isolated[k]:
                        row[k] = row.get(k, 0) + sign
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


@lru_cache(maxsize=None)
def circle_relations(n_circles: int, degree: int) -> RelationSet:
    """4T rows of the degree-m block on k circles, framing independence as killed columns.

    The block holds the diagrams in which every one of the k circles
    carries a foot.  Every diagram with an isolated chord (feet adjacent on
    its circle, no other foot between them) is set to zero: its position is
    killed and left out of the 4T rows.
    """
    basis, drawings, _ = _circles._block_table(n_circles, degree)
    isolated = list(map(_circles.isolated_chords, basis))
    rows = _circle_four_term_rows(degree, basis, drawings, isolated) if degree >= 2 else []
    return RelationSet(degree, basis, rows, (k for k, chords in enumerate(isolated) if chords))


@lru_cache(maxsize=None)
def _pivot_rows(n_circles, degree):
    """(basis size, clearing rows in increasing pivot order) of one circle degree.

    The block of k circles (circle_relations) is placed in the q-circle
    basis on each support, each set of k circles (_block_positions), unless
    it has no relation.  Killed positions clear with empty rows.  Echelon
    rows are divided by their pivot, which they leave out: the integer
    quotient v / pivot is the correctly rounded float of the rational entry.
    """
    rows = {}
    for k in range(1, min(n_circles, 2 * degree) + 1):
        relations = circle_relations(k, degree)
        if not (relations.killed or relations.echelon()):
            continue
        for support in combinations(range(n_circles), k):
            place = _circles._block_positions(n_circles, degree, support)
            rows.update((place[j], ()) for j in relations.killed)
            for p, row in relations.echelon().items():
                pivot = row[p]
                rows[place[p]] = tuple((place[c], v / pivot) for c, v in row.items() if c != p)
    return len(_circles._orbit_table(n_circles, degree)[0]), tuple(sorted(rows.items()))


@lru_cache(maxsize=None)
def _rewrite_rows(n_strands, degree):
    """(basis size, one rewrite row per non-normal degree-m word), in the order reduce clears them.

    A word is normal when the top strands of its chords never decrease from
    bottom to top (Kohno's basis of the quotient).  At its lowest descent, a
    chord x = t_aK directly below a chord y whose top strand is below K, the
    word equals itself with x and y swapped, plus, when y = t_ad shares
    strand a with x, (t_dK, t_aK) minus (t_aK, t_dK) there (4T on strands a,
    d, K); otherwise x and y are disjoint and commute.  The row (word,
    ((term, -coefficient), ...)) says so.  Each term's top-strand sequence
    has a larger sum, or the same sum and is lexicographically smaller, so
    taking the sequences in that order never returns to a cleared word: the
    rows are a triangular normal-form map onto the normal words.
    """
    pairs = all_pairs(n_strands)
    n_pairs = len(pairs)
    pair_index = {p: q for q, p in enumerate(pairs)}
    chords_under = {k: [pair_index[(i, k)] for i in range(1, k)] for k in range(2, n_strands + 1)}
    weights = [n_pairs ** (degree - 1 - p) for p in range(degree)]
    sequences = sorted(
        product(range(2, n_strands + 1), repeat=degree), key=lambda tops: (sum(tops), [-t for t in tops])
    )
    rows = []
    for tops in sequences:
        # every word with these top strands has its lowest descent at p
        p = next((p for p in range(degree - 1) if tops[p] > tops[p + 1]), None)
        if p is None:
            continue
        low, high, k = weights[p], weights[p + 1], tops[p]
        for word in product(*(chords_under[t] for t in tops)):
            g = sum(map(int.__mul__, word, weights))
            x, y = word[p], word[p + 1]
            a, chord = pairs[x][0], pairs[y]
            row = [(g + (y - x) * (low - high), -1.0)]
            if a in chord:
                dk = pair_index[(chord[0] + chord[1] - a, k)]
                row += [(g + (dk - x) * low + (x - y) * high, -1.0), (g + (dk - y) * high, 1.0)]
            rows.append((g, tuple(row)))
    return n_pairs**degree, tuple(rows)


def _skeleton(skeleton):
    """(kind, size) of a skeleton, ("strands", N >= 2) or ("circles", q >= 1); any other is refused."""
    kind, size = skeleton
    if kind not in ("strands", "circles"):
        raise ValueError(f"unknown skeleton kind {kind!r}, expected 'strands' or 'circles'")
    if kind == "strands" and size < 2:
        raise ValueError("need at least 2 strands")
    if kind == "circles" and size < 1:
        raise ValueError("need at least 1 circle")
    return kind, size


def _quotient_rows(skeleton, degree):
    """(basis size, clearing rows) of one degree: rewrite rows on strands, echelon rows on circles."""
    kind, size = _skeleton(skeleton)
    return (_rewrite_rows if kind == "strands" else _pivot_rows)(size, degree)


def reduce(coefficients, skeleton, max_degree: int, zero_threshold=ZERO_THRESHOLD) -> np.ndarray:
    """Quotient a dense series by its relations, degree by degree.

    skeleton is ("strands", N) for a series over basis_words(N, max_degree)
    or ("circles", q) for one over circle_basis(q, max_degree).  Entries
    below zero_threshold are dropped, then every non-normal word (strands)
    or echelon pivot (circles) is cleared in turn by moving its amount onto
    the terms of its row.  The result is on the same basis: cleared entries
    are 0 and the rest hold the normal-form coordinates, those below
    zero_threshold zeroed.
    """
    blocks = [_quotient_rows(skeleton, m) for m in range(max_degree + 1)]
    if len(coefficients) != sum(size for size, _ in blocks):
        raise ValueError(
            f"{len(coefficients)} coefficients do not fill the {skeleton} basis to degree {max_degree}"
        )
    values = np.where(moduli(coefficients) >= zero_threshold, coefficients, 0).tolist()
    start = 0
    for size, rows in blocks:
        vec = values[start:start + size]
        for p, row in rows:
            amount = vec[p]
            if amount:
                vec[p] = 0j
                for col, q in row:
                    vec[col] -= amount * q
        values[start:start + size] = vec
        start += size
    out = np.array(values, dtype=complex)
    return np.where(moduli(out) >= zero_threshold, out, 0)  # NaN fails every comparison: zeroed


def free_positions(skeleton, max_degree: int):
    """Basis positions, to max_degree, where reduce leaves coordinates: normal words or non-pivots."""
    out, offset = [], 0
    for m in range(max_degree + 1):
        size, rows = _quotient_rows(skeleton, m)
        cleared = {p for p, _ in rows}
        out += [offset + k for k in range(size) if k not in cleared]
        offset += size
    return tuple(out)


def quotient_dimension(degree: int, skeleton) -> int:
    """Dimension of the quotient at one degree, on the skeleton ("strands", N) or ("circles", q).

    On strands it is the number of normal words, the coefficient of t^m in
    prod_{k=1}^{N-1} 1 / (1 - k t) (Kohno), counted without building a word;
    on circles, the sum over the blocks of k circles of C(q, k) times the
    block's diagram count less its killed (framing) positions and the
    pivots of its 4T rows' exact echelon form, and 1 at degree 0.
    """
    kind, size = _skeleton(skeleton)
    if kind == "strands":
        return _normal_word_counts(size, degree)[degree]
    _circles._check_shape(size, degree)
    dimension = 0 if degree else 1  # the empty diagram has no foot
    for k in range(1, min(size, 2 * degree) + 1):
        relations = circle_relations(k, degree)
        dimension += comb(size, k) * (len(relations.basis) - len(relations.killed) - len(relations.echelon()))
    return dimension


def _normal_word_counts(n_strands, max_degree):
    """Normal words on n_strands of each degree 0..max_degree, in (N - 1) M integer steps."""
    if n_strands < 2:
        raise ValueError("need at least 2 strands")
    if max_degree < 0:
        raise ValueError("need degree >= 0")
    counts = [1] + [0] * max_degree  # normal words whose chords' top strands are at most k + 1
    for k in range(1, n_strands):
        for m in range(1, max_degree + 1):
            counts[m] += k * counts[m - 1]
    return counts
