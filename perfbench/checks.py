"""Independent checks of kzbraid responses; each returns None or a reason.

Nothing here imports kzbraid.  Expected values come from the braid word
and from published tables:

- compute: the abelianization identity.  Averaging the coefficients of a
  word over all orderings of its chords gives prod_k v[P_k] / m!, where v is
  the integral of the connection over the whole loop.  On the realized loop
  v is exact: v_ij = c_ij / 2 - i ln(|e_i - e_j| / (j - i)) / (2 pi), with
  c_ij the signed number of letters that swap strands i and j and e the
  strands' final positions (the moving point of a half twist winds around
  no other point).
- compute --close: degree-1 link coefficients are the pairwise linking
  numbers, half the signed crossings between two components.
- dims --strands: Kohno's Hilbert series prod_{k=1}^{N-1} 1 / (1 - k t).
- dims --circles 1: Bar-Natan's table 1, 0, 1, 1, 3, 4, 9, 14, 27.
- verify: one PASS line and exit code 0.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations_with_replacement

# Bar-Natan, "On the Vassiliev knot invariants", Topology 34 (1995), table 1.
BAR_NATAN = (1, 0, 1, 1, 3, 4, 9, 14, 27)

# Pinned from the seed tree's own output (no published table used here):
# circles -> dimensions in degrees 0..4.
PINNED_MULTI_CIRCLE = {2: (1, 1, 3, 6, 14), 3: (1, 3, 9, 25, 67)}

_VERIFY_LINE = re.compile(r"^([a-z-]+): residual=(\S+) tolerance=(\S+) PASS$")


def kohno_dims(strands, max_degree):
    """Coefficients of prod_{k=1}^{N-1} 1 / (1 - k t) through t^max_degree."""
    series = [1] + [0] * max_degree
    for k in range(1, strands):
        for d in range(1, max_degree + 1):
            series[d] += k * series[d - 1]
    return series


def _walk(strands, word):
    """Final position of each strand and the signed swaps of each pair."""
    strand_at = list(range(1, strands + 1))
    swaps = {}
    for token in word.split():
        letter = int(token)
        k, sign = abs(letter), (1 if letter > 0 else -1)
        a, b = strand_at[k - 1], strand_at[k]
        pair = (min(a, b), max(a, b))
        swaps[pair] = swaps.get(pair, 0) + sign
        strand_at[k - 1], strand_at[k] = b, a
    final = {strand: pos for pos, strand in enumerate(strand_at, start=1)}
    return final, swaps


def abelian_integrals(strands, word):
    """Exact integral of the connection per strand pair (i, j), i < j."""
    final, swaps = _walk(strands, word)
    v = {}
    for i in range(1, strands + 1):
        for j in range(i + 1, strands + 1):
            stretch = math.log(abs(final[i] - final[j]) / (j - i))
            v[(i, j)] = complex(swaps.get((i, j), 0) / 2.0, -stretch / (2 * math.pi))
    return v


def abelian_residual(series, word):
    """sup over chord multisets of |symmetrized coefficient - exact value|."""
    strands, max_degree = series["n_strands"], series["max_degree"]
    sums = {}
    for term in series["terms"]:
        key = tuple(sorted(tuple(pair) for pair in term["word"]))
        sums[key] = sums.get(key, 0j) + complex(term["re"], term["im"])
    v = abelian_integrals(strands, word)
    live = [pair for pair, value in v.items() if value != 0]
    worst = 0.0
    expected_keys = set()
    for m in range(max_degree + 1):
        for key in combinations_with_replacement(live, m):
            expected_keys.add(key)
            exact, mult = 1 + 0j, 1
            for pair in key:
                exact *= v[pair]
            for pair in set(key):
                mult *= math.factorial(key.count(pair))
            scale = mult / math.factorial(m)
            worst = max(worst, abs(sums.get(key, 0j) * scale - exact / math.factorial(m)))
    for key, total in sums.items():
        if key not in expected_keys:
            worst = max(worst, abs(total))
    return worst


def closure_cycles(strands, word):
    """Closure components, each a cycle of strands from its lowest one."""
    final, _ = _walk(strands, word)
    seen, out = set(), []
    for start in range(1, strands + 1):
        if start in seen:
            continue
        cycle, node = [], start
        while node not in seen:
            seen.add(node)
            cycle.append(node)
            node = final[node]
        out.append(cycle)
    return out


def linking_residual(link, strands, word):
    """(reason or None, sup |degree-1 coefficient - linking number|)."""
    cycles = closure_cycles(strands, word)
    if link["cycles"] != cycles or link["components"] != len(cycles):
        return f"closure components {link['cycles']} != {cycles}", math.inf
    owner = {strand: c for c, cycle in enumerate(cycles) for strand in cycle}
    _final, swaps = _walk(strands, word)
    expected = {}
    for (i, j), count in swaps.items():
        a, b = sorted((owner[i], owner[j]))
        if a != b:
            expected[(a, b)] = expected.get((a, b), 0.0) + count / 2.0
    got = {}
    for term in link["series"]["terms"]:
        if len(term["word"]) != 1:
            continue
        (c1, _s1), (c2, _s2) = term["word"][0]
        if c1 == c2:
            return "degree-1 chord on one circle survived framing independence", math.inf
        got[(min(c1, c2), max(c1, c2))] = complex(term["re"], term["im"])
    keys = set(expected) | set(got)
    worst = max((abs(got.get(k, 0j) - expected.get(k, 0.0)) for k in keys), default=0.0)
    return None, worst


def split_json(stdout):
    """The JSON document that follows the coefficient table."""
    start = stdout.find("\n{")
    if start < 0:
        raise ValueError("no JSON document in the output")
    return json.loads(stdout[start + 1:])


def check_compute(request, rc, stdout, tolerance):
    """(reason or None, abelian residual) for a compute response."""
    if rc != 0:
        return f"exit code {rc}", math.inf
    try:
        document = split_json(stdout)
    except ValueError as exc:
        return f"unreadable output: {exc}", math.inf
    close = "--close" in request.argv
    series = document["braid"] if close else document
    residual = abelian_residual(series, request.word)
    if not residual <= tolerance:
        return f"abelian residual {residual:.3e} above {tolerance:.0e}", residual
    if close:
        reason, link_error = linking_residual(document["link"], request.strands, request.word)
        if reason:
            return reason, residual
        if not link_error <= tolerance:
            return f"linking number off by {link_error:.3e}", residual
    return None, residual


def expected_dims(argv):
    kind, size, degree = argv[1], int(argv[2]), int(argv[4])
    if kind == "--strands":
        return tuple(kohno_dims(size, degree))
    if size == 1:
        return BAR_NATAN[: degree + 1]
    return PINNED_MULTI_CIRCLE[size][: degree + 1]


def check_cli(argv, rc, stdout):
    """Reason or None for a dims or verify response."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected one output line, got {len(lines)}"
    if argv[0] == "dims":
        try:
            got = tuple(int(entry.split(":")[1]) for entry in lines[0].split())
        except (IndexError, ValueError):
            return f"unreadable dims line {lines[0]!r}"
        want = expected_dims(argv)
        return None if got == want else f"dims {got} != {want}"
    match = _VERIFY_LINE.match(lines[0])
    if not match or match.group(1) != argv[1]:
        return f"no PASS line for {argv[1]}: {lines[0]!r}"
    return None

