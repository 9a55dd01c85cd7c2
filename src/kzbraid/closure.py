"""Braid closure, the moduli map onto circle diagrams, and link integrals.

Closing a braid glues top position p to bottom position p, so the link
components are the cycles of the strand permutation.  A word's chords map to
chords on the component circles: walk each component from its lowest strand,
reading the feet on every strand bottom to top, then cross the closure arc to
the next strand.  Chords among closure arcs and long chords contribute
nothing and are never produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import BraidWord, permutation_of
from .circles import CircleDiagram, CircleSeries
from .relations import NormalFormSeries, reduce
from .transport import kontsevich_of_braid
from .words import HorizontalSeries


@dataclass(frozen=True)
class LinkSkeleton:
    """Component circles of a braid closure, strands in traversal order."""

    n_strands: int
    components: tuple

    @property
    def n_components(self):
        return len(self.components)

    def component_of(self, strand):
        for index, cycle in enumerate(self.components):
            if strand in cycle:
                return index
        raise ValueError(f"strand {strand} outside skeleton")


def closure_skeleton(word: BraidWord) -> LinkSkeleton:
    """Cycles of the braid permutation, each from its lowest strand."""
    return LinkSkeleton(word.n_strands, permutation_of(word).cycles())


@dataclass(frozen=True)
class ClosureResult:
    skeleton: LinkSkeleton
    series: CircleSeries
    reduced: NormalFormSeries


def tau_project(series: HorizontalSeries, word: BraidWord) -> CircleSeries:
    """Send braid words to diagrams on the closure's component circles.

    The k-th chord of a word (in height order) puts one foot on the circle of
    each strand it touches; feet along one circle follow the component
    traversal and, within a strand, increasing height.  Linear in the
    coefficients; canonical rotations applied by construction.
    """
    if series.n_strands != word.n_strands:
        raise ValueError("series skeleton does not match the braid word")
    skeleton = closure_skeleton(word)
    out = {}
    for hword, coeff in series.terms.items():
        feet_per_strand = {strand: [] for strand in range(1, word.n_strands + 1)}
        for height, chord in enumerate(hword.chords):
            feet_per_strand[chord.i].append(height)
            feet_per_strand[chord.j].append(height)
        layout = [
            [height for strand in cycle for height in feet_per_strand[strand]]
            for cycle in skeleton.components
        ]
        diagram = CircleDiagram.from_layout(layout)
        out[diagram] = out.get(diagram, 0j) + coeff
    return CircleSeries(skeleton.n_components, series.max_degree, out, series.zero_threshold)


def close_braid(braid_series: HorizontalSeries, word: BraidWord) -> ClosureResult:
    """Project a braid's series onto its closure's circles, raw and reduced.

    The circle series keeps braid_series' zero threshold.
    """
    circle_series = tau_project(braid_series, word)
    return ClosureResult(closure_skeleton(word), circle_series, reduce(circle_series))


def kontsevich_link(word: BraidWord, max_degree: int, steps: int = 512) -> ClosureResult:
    """Braid-holonomy part of the link integral, raw and reduced.

    Top and bottom closure-arc contributions are not grafted on, so use the
    result for quantities insensitive to them (linking numbers, framing-killed
    terms, comparisons of closures of equal braids).
    """
    return close_braid(kontsevich_of_braid(word, max_degree, steps), word)
