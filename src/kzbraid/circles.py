"""Chord diagrams on disjoint oriented circles.

Endpoint slots on each circle are taken up to cyclic rotation (orientation
preserving only, no reflections); circles are numbered, so they are never
permuted.  A diagram's one identity is its orbit_key, an integer tuple
computed from a layout; a CircleDiagram is one drawing, and == compares
drawings.  Enumeration keeps the first drawing it meets per key.  The 4T rows
and the closure's projection find basis positions through layout_position,
which alone renumbers flat layouts for its memo.  A series on q circles is a
dense vector over circle_basis(q, M), the diagrams of each degree in turn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from ._lazy import np
from .words import ZERO_THRESHOLD, _document_text

# Most chord matchings (all slot splits, all degrees m <= M) that the CLI lets
# a circle basis walk; circle_relations(4, 4) walks 17,325 in its top degree.
MAX_CIRCLE_MATCHINGS = 2**18


@dataclass(frozen=True)
class CircleDiagram:
    """Perfect matching on endpoint slots, slots[c] of them on circle c.

    chords is a sorted tuple of sorted ((circle, slot), (circle, slot))
    pairs: one drawing, unequal to its rotations; orbit_key identifies it.
    """

    slots: tuple
    chords: tuple

    def __post_init__(self):
        slots = tuple(int(s) for s in self.slots)
        chords = tuple(sorted(
            tuple(sorted(((int(c1), int(s1)), (int(c2), int(s2)))))
            for (c1, s1), (c2, s2) in self.chords
        ))
        seen = set()
        for foot in [f for ch in chords for f in ch]:
            c, s = foot
            if not (0 <= c < len(slots)) or not (0 <= s < slots[c]):
                raise ValueError(f"endpoint {foot} outside the skeleton")
            if foot in seen:
                raise ValueError(f"endpoint {foot} used twice")
            seen.add(foot)
        if len(seen) != sum(slots):
            raise ValueError("chords must cover every slot exactly once")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "chords", chords)

    @classmethod
    def from_layout(cls, layout):
        """Build from per-circle lists of chord labels, each label twice."""
        positions = {}
        for c, circle in enumerate(layout):
            for s, label in enumerate(circle):
                positions.setdefault(label, []).append((c, s))
        chords = []
        for label, feet in positions.items():
            if len(feet) != 2:
                raise ValueError(f"label {label!r} appears {len(feet)} times")
            chords.append(tuple(feet))
        return cls(tuple(len(circle) for circle in layout), tuple(chords))

    @property
    def degree(self):
        return len(self.chords)

    @property
    def n_circles(self):
        return len(self.slots)

    def to_layout(self):
        """Per-circle slot lists holding the index of the owning chord."""
        layout = [[None] * n for n in self.slots]
        for idx, ((c1, s1), (c2, s2)) in enumerate(self.chords):
            layout[c1][s1] = idx
            layout[c2][s2] = idx
        return layout

    def has_isolated_chord(self):
        """True when some chord's feet are cyclically adjacent on one circle."""
        for (c1, s1), (c2, s2) in self.chords:
            if c1 != c2:
                continue
            n = self.slots[c1]
            if (s1 + 1) % n == s2 or (s2 + 1) % n == s1:
                return True
        return False

    def __repr__(self):
        return f"<circles {self.slots} chords {self.chords}>"


def orbit_key(circles):
    """One integer tuple per diagram: the least code over circle rotations.

    circles lists each circle's chord labels (any hashable, each label twice
    overall).  A circle's code gives each foot a token: the forward distance
    to its partner when both feet are on that circle, -2 - p when the
    partner is the p-th foot of the rotated earlier circles read in order,
    and 0 when the partner is on a later circle.  The key is the least
    concatenation of codes, each followed by -1, over independent rotations
    of the circles.  It is taken circle by circle, branching only where
    rotations tie, so two layouts share a key iff they draw one diagram.
    Rotating a code is slicing a list, and lists compare in C.
    """
    key = []
    placed = [{}]  # per tied choice: label -> global position of its one foot so far
    offset = 0
    for circle in circles:
        n = len(circle)
        first = {}
        tokens = [0] * n
        for p, label in enumerate(circle):
            q = first.setdefault(label, p)
            if q != p:
                tokens[q] = p - q
                tokens[p] = n + q - p
        best, tied = None, []
        for seen in placed:
            if seen:
                marked = [-2 - seen[x] if x in seen else t for x, t in zip(circle, tokens)]
            else:
                marked = tokens
            doubled = marked + marked
            for r in range(max(n, 1)):
                code = doubled[r:r + n]
                if best is None or code < best:
                    best, tied = code, [(seen, r)]
                elif code == best:
                    tied.append((seen, r))
        key += best
        key.append(-1)
        if 0 in best:  # feet whose partners later circles will meet
            placed = []
            for seen, r in tied:
                seen = dict(seen)
                for p, label in enumerate(circle):
                    if not tokens[p] and label not in seen:
                        seen[label] = offset + (p - r) % n
                placed.append(seen)
        else:  # tied rotations of this circle place nothing new
            placed = list({id(seen): seen for seen, _ in tied}.values())
        offset += n
    return tuple(key)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _labelings(size):
    """Every perfect matching of positions 0..size-1 as a label per position.

    Chords are numbered by their first position, so each matching is drawn
    once.  The list yielded is reused: copy it to keep it.
    """
    labels = [-1] * size

    def fill(label, first):
        while first < size and labels[first] >= 0:
            first += 1
        if first == size:
            yield labels
            return
        labels[first] = label
        for k in range(first + 1, size):
            if labels[k] < 0:
                labels[k] = label
                yield from fill(label + 1, first + 1)
                labels[k] = -1
        labels[first] = -1

    return fill(0, 0)


def count_circle_matchings(n_circles: int, max_degree: int) -> int:
    """Raw matchings enumerate_circle_diagrams walks over the degrees m <= max_degree.

    The sum of C(2m+q-1, q-1) slot splits times (2m-1)!! matchings each.
    """
    total, pairings = 0, 1
    for m in range(max_degree + 1):
        if m:
            pairings *= 2 * m - 1
        total += comb(2 * m + n_circles - 1, n_circles - 1) * pairings
    return total


def check_circle_budget(n_circles: int, max_degree: int):
    """Raise ValueError when the circle bases to max_degree exceed MAX_CIRCLE_MATCHINGS.

    Counts without building anything.  Circle counts below 1 pass: building
    their basis reports the error.
    """
    if n_circles < 1:
        return
    # 15!! > MAX_CIRCLE_MATCHINGS, so no degree past 8 needs counting
    if count_circle_matchings(n_circles, min(max_degree, 8)) > MAX_CIRCLE_MATCHINGS:
        raise ValueError(
            f"{n_circles} circles to degree {max_degree} need more than"
            f" {MAX_CIRCLE_MATCHINGS} chord matchings"
            f" (sum of C(2m+{n_circles - 1}, {n_circles - 1}) (2m-1)!! for m <= {max_degree})"
        )


@lru_cache(maxsize=None)
def _orbit_table(n_circles: int, degree: int):
    """(basis, orbit_key -> basis position) of the degree-m diagrams on q circles.

    Slot splits and, within one, matchings are walked in increasing order,
    so the first drawing met per orbit_key is the least over rotations.
    """
    if n_circles < 1 or degree < 0:
        raise ValueError("need n_circles >= 1 and degree >= 0")
    found = {}
    for slots in _compositions(2 * degree, n_circles):
        bounds = [sum(slots[:c]) for c in range(n_circles + 1)]
        for labels in _labelings(2 * degree):
            circles = [labels[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            key = orbit_key(circles)
            if key not in found:
                found[key] = CircleDiagram.from_layout(circles)
    return tuple(found.values()), {key: k for k, key in enumerate(found)}


def enumerate_circle_diagrams(n_circles: int, degree: int):
    """All degree-m diagrams on q numbered circles, sorted, one drawing each."""
    return _orbit_table(n_circles, degree)[0]


def orbit_positions(n_circles: int, degree: int):
    """orbit_key of each degree-m diagram -> its enumerate_circle_diagrams position."""
    return _orbit_table(n_circles, degree)[1]


def layout_position(layout):
    """Position of the diagram a layout draws in its degree's enumerate_circle_diagrams.

    layout is one flat sequence: each circle's chord labels (ints >= 0, each
    twice) followed by -1.  Labels are renumbered by first appearance in
    front of the memo, so every layout drawn alike shares one cache entry.
    """
    first = {-1: -1}  # circle ends stay -1, labels count from 0
    return _relabeled_position(tuple([first.setdefault(label, len(first) - 1) for label in layout]))


@lru_cache(maxsize=1 << 16)
def _relabeled_position(layout):
    circles = [[]]
    for label in layout[:-1]:
        if label < 0:
            circles.append([])
        else:
            circles[-1].append(label)
    return orbit_positions(len(circles), (len(layout) - len(circles)) // 2)[orbit_key(circles)]


@lru_cache(maxsize=None)
def circle_basis(n_circles: int, max_degree: int):
    """Diagrams of degree <= max_degree, degree by degree: the dense circle series basis."""
    return tuple(d for m in range(max_degree + 1) for d in enumerate_circle_diagrams(n_circles, m))


def circle_series_to_json_dict(
    coefficients, n_circles, max_degree, zero_threshold=ZERO_THRESHOLD, positions=None
) -> dict:
    """JSON document of a dense series over circle_basis(n_circles, max_degree).

    Lists every term whose modulus reaches zero_threshold among positions,
    increasing basis positions, by default all of them; a reduced series
    passes its free positions.
    """
    basis = circle_basis(n_circles, max_degree)
    values = coefficients.tolist()
    terms = []
    for k in range(len(basis)) if positions is None else positions:
        coeff = values[k]
        if abs(coeff) >= zero_threshold:
            diagram = basis[k]
            terms.append(
                {
                    "slots": list(diagram.slots),
                    "word": [[list(f1), list(f2)] for f1, f2 in diagram.chords],
                    "re": coeff.real,
                    "im": coeff.imag,
                }
            )
    return {
        "circles": n_circles,
        "max_degree": max_degree,
        "terms": terms,
    }


@lru_cache(maxsize=16)
def _json_heads(n_circles, max_degree, positions, level):
    """Basis position -> the text of its JSON term up to the real part, for the listed positions."""
    basis = circle_basis(n_circles, max_degree)
    i2, i3 = "  " * (level + 2), "  " * (level + 3)
    heads = {}
    for k in range(len(basis)) if positions is None else positions:
        slots = json.dumps(basis[k].slots, indent=2).replace("\n", "\n" + i3)
        chords = json.dumps(basis[k].chords, indent=2).replace("\n", "\n" + i3)
        heads[k] = f'{i2}{{\n{i3}"slots": {slots},\n{i3}"word": {chords},\n{i3}"re": '
    return heads


def circle_series_json_text(
    coefficients, n_circles, max_degree, zero_threshold=ZERO_THRESHOLD, positions=None, level=0
) -> str:
    """json.dumps(circle_series_to_json_dict(...), indent=2) with the same arguments.

    level is the depth at which the document sits inside an enclosing
    indent=2 document.  Term heads are built once per (n_circles,
    max_degree, positions, level), for the given positions only.
    """
    heads = _json_heads(n_circles, max_degree, positions, level)
    values = coefficients.tolist()
    listed = [k for k in heads if abs(values[k]) >= zero_threshold]
    fields = (("circles", n_circles), ("max_degree", max_degree))
    return _document_text(fields, heads, coefficients, listed, level)
