"""Acceptance suite: one test and one printed pass/fail line per criterion."""

import math

import numpy as np
import pytest

from kzbraid.braids import BraidWord, _warped, parse_braid_word, permutation_of, realize
from kzbraid.circles import circle_basis
from kzbraid.relations import (
    circle_relations,
    free_positions,
    horizontal_relations,
    quotient_dimension,
    reduce,
)
from kzbraid.transport import (
    abelian_holonomy,
    kontsevich_of_braid,
    simplex_oracle,
    symmetrized,
    transport,
)
from kzbraid.words import (
    basis_words,
    enumerate_words,
    relabel_strands,
    series_product,
)
from reference_orders import link_of, word
from test_braids import cut_loop
from test_transport import _at_nodes

def _report(number, name, residual, bound):
    ok = residual < bound
    print(f"criterion {number:02d} {name}: residual={residual:.3e} bound={bound:.1e} "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}): residual {residual:.3e} >= {bound:.1e}"


def _report_flag(number, name, ok, detail=""):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed {detail}"


def position(n, *chords):
    """Index of a word in basis_words."""
    return basis_words(n, len(chords)).index(word(n, *chords))


def sup_diff(a, b):
    return float(np.abs(a - b).max())


def test_01_identity_braid():
    worst = 0.0
    for n in (2, 3, 4):
        series = kontsevich_of_braid(parse_braid_word("", n), 4)
        assert series[0] == 1.0
        worst = max(worst, float(np.abs(series[1:]).max()))
    _report(1, "identity braid", worst, 1e-12)


def test_02_winding_degree_one():
    z1 = kontsevich_of_braid(parse_braid_word("1", 2), 1)
    z2 = kontsevich_of_braid(parse_braid_word("1 1", 2), 1)
    zi = kontsevich_of_braid(parse_braid_word("-1", 2), 1)
    chord = position(2, (1, 2))
    residual = max(abs(z1[chord] - 0.5), abs(z2[chord] - 1.0), abs(zi[chord] + 0.5))
    _report(2, "degree-1 winding", residual, 1e-12)


def test_03_ordered_exponential():
    series = kontsevich_of_braid(parse_braid_word("1", 2), 4)
    residual = max(
        abs(series[position(2, *([(1, 2)] * m))] - 0.5**m / math.factorial(m))
        for m in range(5)
    )
    _report(3, "ordered exponential", residual, 1e-12)


def test_04_oracle_agreement():
    residual = 0.0
    for text, strands in (("1", 2), ("1 1", 2), ("1 2", 3)):
        loop = realize(parse_braid_word(text, strands))
        series = transport(loop, 2).coefficients
        for degree in (1, 2):
            for w in enumerate_words(strands, degree):
                g = position(strands, *w)
                residual = max(residual, abs(series[g] - simplex_oracle(loop, w, 512)))
    _report(4, "simplex oracle agreement", residual, 1e-5)
    # optional degree-3 check at the coarser grid
    loop = realize(parse_braid_word("1 2", 3))
    series3 = transport(loop, 3).coefficients
    residual3 = max(
        abs(series3[g] - simplex_oracle(loop, w, 128))
        for g, w in enumerate(enumerate_words(3, 3), 1 + 3 + 9)
    )
    assert residual3 < 1e-3


def test_05_braid_relation():
    za = reduce(kontsevich_of_braid(parse_braid_word("1 2 1", 3), 3), ("strands", 3), 3)
    zb = reduce(kontsevich_of_braid(parse_braid_word("2 1 2", 3), 3), ("strands", 3), 3)
    _report(5, "braid relation flatness", sup_diff(za, zb), 1e-12)


def test_06_far_commutation():
    za = reduce(kontsevich_of_braid(parse_braid_word("1 3", 4), 3), ("strands", 4), 3)
    zb = reduce(kontsevich_of_braid(parse_braid_word("3 1", 4), 3), ("strands", 4), 3)
    _report(6, "far commutation flatness", sup_diff(za, zb), 1e-12)


def test_07_multiplicativity():
    # flow property of the transport ODE: the concatenated loop's integral is
    # the stacking product of its segment transports, the upper factor read
    # through the lower braid's permutation; without the relabeling even the
    # same-generator pairs fail on 3 strands (spectator-pair log terms);
    # kontsevich_of_braid is itself a product of letter holonomies, so the
    # concatenated side is integrated directly as one loop, segment by segment
    residual = 0.0
    factors = [parse_braid_word(text, 3) for text in ("1", "2", "-1")]
    for upper in factors:
        for lower in factors:
            combined = BraidWord(3, lower.letters + upper.letters)
            z_upper = relabel_strands(
                kontsevich_of_braid(upper, 3), 3, 3, np.argsort(permutation_of(lower)) + 1
            )
            z_lower = kontsevich_of_braid(lower, 3)
            zc = transport(realize(combined), 3).coefficients
            residual = max(residual, sup_diff(series_product(z_upper, z_lower, 3, 3), zc))
    # the two-strand instance needs no relabeling and must hold literally
    z = kontsevich_of_braid(parse_braid_word("1", 2), 3)
    zz = transport(realize(parse_braid_word("1 1", 2)), 3).coefficients
    residual = max(residual, sup_diff(series_product(z, z, 2, 3), zz))
    _report(7, "multiplicativity (flow property)", residual, 1e-12)


def test_08_reparametrization_invariance():
    # every segment cut at local time 0.3 into two pieces, each with its
    # velocity scaled by its length, and, inside every segment, local time
    # warped by (e^{as} - 1) / (e^a - 1) with its velocity factor
    residual = 0.0
    for text in ("1 2", "1 1 -2"):
        loop = realize(parse_braid_word(text, 3))
        even = transport(loop, 3).coefficients
        residual = max(residual, sup_diff(even, transport(cut_loop(loop), 3).coefficients))
        for rate in (1.0, 2.0, 4.0):
            residual = max(residual, sup_diff(even, transport(_warped(loop, rate), 3).coefficients))
    _report(8, "reparametrization invariance", residual, 1e-12)


def test_09_hopf_link_and_unknot():
    hopf = link_of(parse_braid_word("1 1", 2), 1)
    inter = circle_basis(2, 1).index((0, -1, 0, -1))  # one chord from circle 0 to circle 1
    residual = abs(hopf[inter] - 1.0)
    unknot = link_of(parse_braid_word("1", 2), 1)
    degree_one_exact = not unknot[1:].any()
    _report(9, "hopf linking number", residual, 1e-12)
    _report_flag(9, "unknot degree-1 framed away", degree_one_exact)


def test_10_abelianization_identity():
    residual = 0.0
    for text in ("1 2", "1 1 -2"):
        loop = realize(parse_braid_word(text, 3))
        sym = symmetrized(transport(loop, 3).coefficients, 3, 3)
        residual = max(residual, sup_diff(sym, abelian_holonomy(loop, 3)))
    _report(10, "abelianization identity", residual, 1e-12)


# --- criterion 11: independent enumeration + rank oracle -------------------

def _oracle_canonical(seq):
    best = None
    n = len(seq)
    for r in range(n or 1):
        rotated = seq[r:] + seq[:r]
        names = {}
        normalized = []
        for token in rotated:
            if token not in names:
                names[token] = len(names)
            normalized.append(names[token])
        candidate = tuple(normalized)
        if best is None or candidate < best:
            best = candidate
    return best


def _oracle_matchings(positions):
    if not positions:
        yield {}
        return
    first, rest = positions[0], positions[1:]
    for k, second in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for sub in _oracle_matchings(remaining):
            sub = dict(sub)
            sub[first] = second
            sub[second] = first
            yield sub


def _oracle_diagrams(m):
    found = set()
    for matching in _oracle_matchings(tuple(range(2 * m))):
        seq = [None] * (2 * m)
        cid = 0
        for p in range(2 * m):
            if seq[p] is None:
                seq[p] = seq[matching[p]] = cid
                cid += 1
        found.add(_oracle_canonical(tuple(seq)))
    return sorted(found)


def _oracle_rows(m):
    """4T rows built from m-2 fixed chords plus a sliding pair, and framing."""
    rows = []
    diagrams = _oracle_diagrams(m)
    index = {d: k for k, d in enumerate(diagrams)}
    for diagram in diagrams:
        n = len(diagram)
        for p in range(n):
            if diagram[p] == diagram[(p + 1) % n]:
                rows.append({index[diagram]: 1})
                break
    if m >= 2:
        leg = "leg"
        for matching in _oracle_matchings(tuple(range(2 * (m - 1)))):
            base = [None] * (2 * (m - 1))
            cid = 0
            for p in range(2 * (m - 1)):
                if base[p] is None:
                    base[p] = base[matching[p]] = cid
                    cid += 1
            for leg_at in range(2 * (m - 1) + 1):
                legged = tuple(base[:leg_at]) + (leg,) + tuple(base[leg_at:])
                for chord in range(m - 1):
                    feet = [p for p, token in enumerate(legged) if token == chord]
                    row = {}
                    for foot in feet:
                        for offset, sign in ((1, 1), (0, -1)):
                            inserted = legged[: foot + offset] + (leg,) + legged[foot + offset:]
                            key = _oracle_canonical(inserted)
                            row[index[key]] = row.get(index[key], 0) + sign
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return diagrams, rows


def _oracle_dimension(m):
    sympy = pytest.importorskip("sympy")
    diagrams, rows = _oracle_rows(m)
    if not rows:
        return len(diagrams)
    dense = [[row.get(c, 0) for c in range(len(diagrams))] for row in rows]
    return len(diagrams) - sympy.Matrix(dense).rank()


def test_11_quotient_engine():
    # every generated relation row is in the kernel of reduce, and every
    # free unit vector is its own normal form
    shapes = [(("strands", n), m, horizontal_relations(n, m), len(basis_words(n, m - 1)))
              for n, m in ((3, 2), (3, 3), (4, 2), (4, 3))]
    shapes += [(("circles", q), m, circle_relations(q, m), len(circle_basis(q, m - 1)))
               for q, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))]
    for skeleton, m, rs, offset in shapes:
        size = offset + len(rs.basis)
        for row in rs.rows:
            vec = np.zeros(size, dtype=complex)
            for col, v in row:
                vec[offset + col] = v
            assert not reduce(vec, skeleton, m).any()
        for k in free_positions(skeleton, m):
            vec = np.zeros(size, dtype=complex)
            vec[k] = 1.0
            assert np.array_equal(reduce(vec, skeleton, m), vec)
    # one-circle dimensions against the independent enumerator + exact rank
    engine = [quotient_dimension(m, ("circles", 1)) for m in range(4)]
    oracle = [_oracle_dimension(m) for m in range(4)]
    frozen = [1, 0, 1, 1]
    _report_flag(
        11,
        "quotient engine dims",
        engine == oracle == frozen,
        f"engine={engine} oracle={oracle} expected={frozen}",
    )


def test_13_convergence_order():
    # every letter on 3 to 5 strands swept at n + 1 Chebyshev nodes, against
    # n = 128: the error falls geometrically, by >= 100 per doubling of n
    # from 4 to 16, and is at rounding level by n = 32
    worst = [0.0] * 4
    for n in (3, 4, 5):
        for k in range(1, n):
            for sign in (1, -1):
                letter = realize(BraidWord(n, ((k, sign),)))
                reference = _at_nodes(letter, 128, 4)
                for q, nodes in enumerate((4, 8, 16, 32)):
                    worst[q] = max(worst[q], sup_diff(_at_nodes(letter, nodes, 4), reference))
    ok = worst[0] >= 100 * worst[1] and worst[1] >= 100 * worst[2] and worst[3] <= 1e-15
    _report_flag(13, "geometric convergence in nodes", ok, "errors=" + " ".join(f"{e:.1e}" for e in worst))


def test_14_full_twist_closed_form():
    # the full twist (s1 ... s_{N-1})^N rotates the base points once, along
    # which the connection is sum t_ij dtheta / 2 pi; sum t_ij is central
    # modulo the relations, so Z = exp(sum t_ij): every degree-m word with
    # coefficient 1/m!.  The threshold 0 keeps reduce from zeroing both sides.
    residual = 0.0
    for n, max_degree in ((2, 6), (3, 5), (4, 4), (4, 5), (5, 4), (5, 5)):
        n_pairs = n * (n - 1) // 2
        twist = BraidWord(n, tuple((k, 1) for _ in range(n) for k in range(1, n)))
        exponential = np.concatenate(
            [np.full(n_pairs**m, 1.0 / math.factorial(m), dtype=complex) for m in range(max_degree + 1)]
        )
        expected = reduce(exponential, ("strands", n), max_degree, 0.0)
        for z in (kontsevich_of_braid(twist, max_degree), transport(realize(twist), max_degree).coefficients):
            if n > 2:
                assert sup_diff(z, exponential) >= 0.3  # the quotient is what makes them equal
            residual = max(residual, sup_diff(reduce(z, ("strands", n), max_degree, 0.0), expected))
    _report(14, "full twist closed form", residual, 1e-14)
