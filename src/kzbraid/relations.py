"""Exact rational relation sets and quotient reduction.

Relations are integral, so rows are kept as sparse integer vectors and
eliminated without fractions: a row keeps a positive pivot and has its
content divided out after each combination, and the echelon rows become
exact Fractions once, at the end.  Complex series coefficients are pushed
through the echelon rows afterwards.  Circle 4T rows find the basis index of
each term by orbit_key, with no canonical diagram built per term.  Echelon
forms are cached per (skeleton, degree) and are safe for concurrent reads
once built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .circles import CircleSeries, enumerate_circle_diagrams, orbit_key, orbit_positions
from .words import (
    ZERO_THRESHOLD,
    HorizontalSeries,
    HorizontalWord,
    all_pairs,
    enumerate_words,
)


class RelationSet:
    """Sparse relations over a fixed basis of one degree.

    rows are dicts column -> entry, entries ints or Fractions.
    """

    def __init__(self, degree, basis, rows):
        self.degree = degree
        self.basis = tuple(basis)
        self.rows = tuple(tuple(sorted(row.items())) for row in rows)
        self._echelon = None

    def echelon(self):
        """Row echelon form: pivot column -> sparse row with 1 on its pivot.

        A pivot row is zero before its pivot and on every pivot found after
        it, but may keep a pivot found before it (at a later column), so
        reduce clears pivots in increasing order.  Rows are eliminated in
        turn as integer multiples of these rational rows, with a positive
        pivot and the content divided out after each step; the entries
        become Fractions once, at the end.  Built once, cached on the
        instance.
        """
        if self._echelon is None:
            pivots = {}
            for raw in self.rows:
                scale = lcm(*(v.denominator for _, v in raw))
                row = {c: int(v * scale) for c, v in raw}
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
            self._echelon = {
                p: {c: Fraction(v, row[p]) for c, v in row.items()} for p, row in pivots.items()
            }
        return self._echelon

    @property
    def rank(self):
        return len(self.echelon())

    def free_indices(self):
        pivots = self.echelon()
        return tuple(k for k in range(len(self.basis)) if k not in pivots)

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


def _dedupe(rows):
    seen = set()
    out = []
    for row in rows:
        items = tuple(sorted(row.items()))
        neg = tuple(sorted((c, -v) for c, v in row.items()))
        sig = min(items, neg)
        if sig not in seen:
            seen.add(sig)
            out.append(row)
    return out


@lru_cache(maxsize=None)
def horizontal_relations(n_strands: int, degree: int) -> RelationSet:
    """4T and disjoint-commutation rows among degree-m braid words.

    Base relations act on an adjacent height pair and are embedded below and
    above by every word context.  The disjoint family [t_ij, t_kl] = 0 is
    included alongside 4T: the connection's curvature only vanishes modulo
    both, and far-apart generators must commute in the quotient.
    """
    basis = enumerate_words(n_strands, degree)
    if degree < 2 or n_strands == 2:
        return RelationSet(degree, basis, ())
    index = {w: k for k, w in enumerate(basis)}
    base_rows = []
    strands = range(1, n_strands + 1)
    for i in strands:
        for j in strands:
            for k in strands:
                if not (i < j < k):
                    continue
                triple = [(i, j), (i, k), (j, k)]
                for slide in triple:
                    others = [p for p in triple if p != slide]
                    row = {}
                    for other in others:
                        row[(slide, other)] = row.get((slide, other), 0) + 1
                        row[(other, slide)] = row.get((other, slide), 0) - 1
                    base_rows.append(row)
    pairs = [p.as_tuple() for p in all_pairs(n_strands)]
    for a_idx, p in enumerate(pairs):
        for q in pairs[a_idx + 1:]:
            if set(p) & set(q):
                continue
            base_rows.append({(p, q): 1, (q, p): -1})
    rows = []
    for pos in range(degree - 1):
        for prefix in enumerate_words(n_strands, pos):
            for suffix in enumerate_words(n_strands, degree - 2 - pos):
                for base in base_rows:
                    row = {}
                    for (low, high), coeff in base.items():
                        word = HorizontalWord(
                            n_strands, prefix.chords + (low, high) + suffix.chords
                        )
                        col = index[word]
                        row[col] = row.get(col, 0) + coeff
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return RelationSet(degree, basis, _dedupe(rows))


def _circle_four_term_rows(diagram, positions):
    """4T rows seeded at every adjacent pair of feet of distinct chords.

    With chord a = (x, y) fixed and the sliding foot u of another chord, the
    relation reads D(u after x) - D(u before x) + D(u after y) - D(u before y),
    'after' meaning forward along the circle orientation.  positions maps
    each term's orbit_key to its basis index.
    """
    layout = diagram.to_layout()
    rows = []
    for c, circle in enumerate(layout):
        n = len(circle)
        if n < 2:
            continue
        for s in range(n):
            b = circle[s]
            a = circle[(s + 1) % n]
            if a == b:
                continue
            removed = list(layout)
            removed[c] = circle[:s] + circle[s + 1:]
            # a's foot that was adjacent, repositioned after dropping slot s
            x = (c, s) if s + 1 < n else (c, 0)
            feet_a = [
                (cc, ss)
                for cc, cir in enumerate(removed)
                for ss, label in enumerate(cir)
                if label == a
            ]
            y = next(f for f in feet_a if f != x)
            row = {}
            for (tc, ts), offset, sign in (
                (x, 1, 1),
                (x, 0, -1),
                (y, 1, 1),
                (y, 0, -1),
            ):
                lay = list(removed)
                at = ts + offset
                lay[tc] = removed[tc][:at] + [b] + removed[tc][at:]
                k = positions[orbit_key(lay)]
                row[k] = row.get(k, 0) + sign
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


@lru_cache(maxsize=None)
def circle_relations(n_circles: int, degree: int) -> RelationSet:
    """4T plus framing-independence rows among degree-m circle diagrams.

    Every diagram with an isolated chord (feet adjacent on its circle, no
    other foot between them) is set to zero.
    """
    basis = enumerate_circle_diagrams(n_circles, degree)
    rows = [{k: 1} for k, diagram in enumerate(basis) if diagram.has_isolated_chord()]
    if degree >= 2:
        positions = orbit_positions(n_circles, degree)
        for diagram in basis:
            rows.extend(_circle_four_term_rows(diagram, positions))
    return RelationSet(degree, basis, _dedupe(rows))


class NormalFormSeries:
    """Coordinates of a series on the free words of the quotient basis."""

    def __init__(self, skeleton, max_degree, bases, terms, zero_threshold=ZERO_THRESHOLD):
        self.skeleton = skeleton  # ("strands", N) or ("circles", q)
        self.max_degree = max_degree
        self.bases = dict(bases)
        self.zero_threshold = zero_threshold
        self._terms = {k: complex(v) for k, v in terms.items() if abs(v) >= zero_threshold}

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, element):
        return self._terms.get(element, 0j)

    def sup_diff(self, other):
        if self.skeleton != other.skeleton:
            raise ValueError("skeleton mismatch")
        keys = set(self._terms) | set(other._terms)
        return max(
            (abs(self._terms.get(k, 0j) - other._terms.get(k, 0j)) for k in keys),
            default=0.0,
        )

    def sup_norm(self):
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def to_series(self):
        """Re-expand on the ambient space (representatives are elements)."""
        kind, size = self.skeleton
        if kind == "strands":
            return HorizontalSeries(size, self.max_degree, self._terms, self.zero_threshold)
        return CircleSeries(size, self.max_degree, self._terms, self.zero_threshold)

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def __repr__(self):
        kind, size = self.skeleton
        return f"NormalFormSeries({kind}={size}, M={self.max_degree}, {len(self._terms)} terms)"


def _relation_for(series, degree, supplied):
    if supplied is not None and degree in supplied:
        return supplied[degree]
    if isinstance(series, HorizontalSeries):
        if degree < 2:
            return None
        return horizontal_relations(series.n_strands, degree)
    return circle_relations(series.n_circles, degree)


def reduce(series, relations=None) -> NormalFormSeries:
    """Quotient a series by its relation sets, degree by degree.

    relations may be None (built and cached automatically), a RelationSet, or
    an iterable of them; missing degrees fall back to the automatic family.
    """
    if isinstance(relations, RelationSet):
        supplied = {relations.degree: relations}
    elif relations is not None:
        supplied = {r.degree: r for r in relations}
    else:
        supplied = None
    horizontal = isinstance(series, HorizontalSeries)
    skeleton = ("strands", series.n_strands) if horizontal else ("circles", series.n_circles)
    by_degree = {}
    for element, coeff in series.terms.items():
        by_degree.setdefault(element.degree, {})[element] = coeff
    bases = {}
    out = {}
    for m in range(series.max_degree + 1):
        rs = _relation_for(series, m, supplied)
        if rs is None:
            basis = enumerate_words(series.n_strands, m)
            pivots = {}
        else:
            basis = rs.basis
            pivots = rs.echelon()
        index = {e: k for k, e in enumerate(basis)}
        vec = {}
        for element, coeff in by_degree.get(m, {}).items():
            if element not in index:
                raise ValueError(f"element {element!r} missing from the degree-{m} basis")
            vec[index[element]] = vec.get(index[element], 0j) + coeff
        for p in sorted(pivots):
            if p not in vec:
                continue
            amount = vec.pop(p)
            for col, q in pivots[p].items():
                if col == p:
                    continue
                vec[col] = vec.get(col, 0j) - amount * float(q)
        free = [k for k in range(len(basis)) if k not in pivots]
        bases[m] = tuple(basis[k] for k in free)
        for k in free:
            c = vec.get(k, 0j)
            if abs(c) >= series.zero_threshold:
                out[basis[k]] = c
    return NormalFormSeries(skeleton, series.max_degree, bases, out, series.zero_threshold)


def quotient_dimension(degree: int, *, strands: int | None = None, circles: int | None = None) -> int:
    """Diagram count minus exact rank of the relation set at one degree."""
    if (strands is None) == (circles is None):
        raise ValueError("give exactly one of strands= or circles=")
    if strands is not None:
        if degree < 2 or strands == 2:
            return len(enumerate_words(strands, degree))
        rs = horizontal_relations(strands, degree)
        return len(rs.basis) - rs.rank
    rs = circle_relations(circles, degree)
    return len(rs.basis) - rs.rank
