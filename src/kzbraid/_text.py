"""Everything `compute` prints: the term table, the JSON text and the floats in both.

`table`, `braid_json` and `link_json` write the term table, the braid's
JSON document and that of a braid and its closure, byte for byte what
str.format and json.dumps(indent=2) give, each as one %-format of the
cached text of its rows up to their floats and the floats' own (_rows).

A float becomes text as repr in the JSON, %.16g and %-22.16g in the table.
`pieces(values, formats)` turns floats into %-format text and one
argument per value.  Each format holds one float conversion (%r, %.16g or
%-22.16g) and any literal text or other conversions around it, and
formats[i % len(formats)] applies to values[i].  A value's text is its
format with the conversion replaced: by the value's digits, the last of
them left to one %d of an int argument, or, where the kernel is not sure,
by the conversion itself with the value as argument.  Formatting the
joined texts with the arguments, interleaved with the caller's own, gives
the same text as formatting each value alone.

The digits come from integer arithmetic, each result proved before it is
used, as in Grisu3 and Ryu (Loitsch, "Printing floating-point numbers
quickly and accurately with integers", PLDI 2010; Adams, "Ryu: fast
float-to-string conversion", PLDI 2018):

- k = floor(log10 |x|), and y = |x| 10^(16-k), which lies in [1e16, 1e17),
  is formed in double-double: |x| times a (hi, lo) pair holding the power of
  ten to 2^-106, with Dekker's exact two-product.  y's absolute error is
  below 1e-14: the pair's 2^-106 of 1e17, plus the rounding of the low-order
  products, 2^-53 of about 10.
- y = Y + f with Y an exact int64 in [1e16, 1e17) and 0 <= f < 1.
  Rounding to p digits reads r = Y mod q + f with q = 10^(17-p): the
  rounding is Y // q, plus one when r passes q / 2, and lies min(r, q - r)
  from y.
- %.16g is the 16-digit rounding, trailing zeros stripped.  repr is the
  shortest rounding that reads back as x, the nearest x among those: a
  rounding reads back when it lies closer to y than the half-ulp
  h = 10^(16-k) spacing(x) / 2.  Reading back is monotone in the digit
  count, so repr has the fewest of 17 (which always read back: h > 0.55),
  16 and 15 digits that read back, when 14 do not.

Every decision is certified by MARGIN = 1e-6, a hundred million times the
error of y.  A value goes to the exact per-value conversion when:

- r lies within MARGIN of q / 2, or a distance within MARGIN of h: the
  arithmetic cannot tell on which side the value lies, and an exact tie
  rounds half-even, an exact boundary reads back by the mantissa's parity;
- for repr, x is a power of two: its interval is narrower below than
  above, so h bounds only one side;
- for repr, its 14-digit rounding reads back: a shorter one may too;
- it is 0, -0, inf or nan, or |x| lies outside [1e-279, 1e280), where the
  products leave the range in which double-double is exact;
- log10 rounded k off by one (Y outside [1e16, 1e17)), or rounding carries
  to 10^p, moving the exponent;
- its fixed layout has two or more integer digits and a fraction, whose
  integer part would take too many distinct texts.

Calls with fewer values than MIN_VALUES format each value alone.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from ._lazy import _lazy_module, np

# handles that load each module on its first use (see _lazy)
_circles, _relations, _words = (_lazy_module(f"kzbraid.{name}") for name in ("circles", "relations", "words"))

# Measured on fresh N=4, M=4 coefficients with the caches disturbed between
# calls (medians of alternating runs, 2-vCPU host, Python 3.11, numpy 2.4),
# the kernel ran 0.90x, 1.04x, 1.27x and 2.0x as fast as per-value repr at
# 384, 512, 768 and 3,072 values, and 0.85x, 0.98x, 1.11x and 1.36x as fast
# as the table's %-22.16g and %.16g at 768, 1,024, 1,536 and 3,072.  Tune
# from timings like these, which match the benchmark's worker: warm and
# alone, 512 JSON floats favour the kernel (244 vs 343 us) and 512 table
# floats do not (292 vs 250 us), yet one rule of 512 for both made the
# worker's N=4, M=3 requests (518 JSON floats) slower, 1.19 to 1.28 ms.
MIN_VALUES = {"%r": 768, "%.16g": 1536}
MARGIN = 1e-6
_KMIN, _KMAX = -280, 280  # the decimal exponents the power table holds
_CONVERSION = re.compile(r"%(r|\.16g|-22\.16g)")


@lru_cache(maxsize=1)
def _tables():
    """(powers, pow10): entry _KMAX - k of the four powers arrays holds
    10^(16-k) as hi + lo to 2^-106, from exact integers, then hi's Dekker
    halves; pow10 holds the int64 powers 10^0 to 10^17."""
    rows = []
    for e in range(16 - _KMAX, 16 - _KMIN + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den  # int division is correctly rounded
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(rows).T
    return (hi, lo, *_split(hi)), 10 ** np.arange(18, dtype=np.int64)


@lru_cache(maxsize=64)
def _parse(fmt):
    """(text before, conversion, text after) of a format holding one float conversion."""
    found = _CONVERSION.findall(fmt)
    if len(found) != 1:
        raise ValueError(f"need one float conversion %r, %.16g or %-22.16g, got {fmt!r}")
    before, conversion, after = _CONVERSION.split(fmt)
    return before, "%" + conversion, after


def _split(v):
    """Dekker's split of doubles into two 26-bit halves."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a, k, powers):
    """y = a 10^(16-k) as (Y, f, 10^(16-k)): Y an int64, 0 <= f < 1, y - Y - f below 1e-14."""
    row = _KMAX - k
    p_hi, p_lo, bh, bl = (column.take(row) for column in powers)
    product = a * p_hi  # an integer when y >= 2^53
    ah, al = _split(a)
    low = (((ah * bh - product) + ah * bl + al * bh) + al * bl) + a * p_lo
    whole = np.floor(low)
    return product.astype(np.int64) + whole.astype(np.int64), low - whole, p_hi


def _digits(values, a, k, shortest):
    """(D, digit count, certified) per value: repr's digits when shortest, else %.16g's."""
    powers, pow10 = _tables()
    Y, f, p_hi = _scaled(a, k, powers)
    ok = (Y >= 10**16) & (Y < 10**17)
    Y1 = Y // 10
    r16 = (Y - 10 * Y1) + f
    if not shortest:
        ok &= np.abs(r16 - 5.0) > MARGIN
        D = Y1 + (r16 > 5.0)
        ok &= D < 10**16
        nd = np.full(len(D), 16)
        ends = np.flatnonzero(ok & (D % 10 == 0))
        if len(ends):  # strip trailing zeros, at most 15
            tail, stripped = D[ends], 0
            for z in (8, 4, 2, 1):
                zeros = tail % 10**z == 0
                tail = np.where(zeros, tail // 10**z, tail)
                stripped = stripped + z * zeros
            D[ends] = tail
            nd[ends] -= stripped
        return D, nd, ok
    h = 0.5 * np.spacing(a) * p_hi
    Y2, Y3 = Y // 100, Y // 1000
    r15 = (Y - 100 * Y2) + f
    r14 = (Y - 1000 * Y3) + f
    d16, d15 = np.minimum(r16, 10.0 - r16), np.minimum(r15, 100.0 - r15)
    ok &= (np.abs(d16 - h) > MARGIN) & (np.abs(d15 - h) > MARGIN)
    ok &= np.minimum(r14, 1000.0 - r14) > h + MARGIN
    ok &= (values.view(np.int64) & ((1 << 52) - 1)) != 0  # no power of two
    reads16, reads15 = d16 < h, d15 < h
    # the shortest rounding that reads back: its residue and half its step
    r = np.where(reads15, r15, np.where(reads16, r16, f))
    half = np.where(reads15, 50.0, np.where(reads16, 5.0, 0.5))
    ok &= np.abs(r - half) > MARGIN
    D = np.where(reads15, Y2, np.where(reads16, Y1, Y)) + (r > half)
    nd = 17 - reads16.astype(np.int64) - reads15
    ok &= D < pow10[nd]
    return D, nd, ok


def pieces(values, formats):
    """Per value, the %-format text of formats[i % len(formats)] and its argument.

    values is a list of floats or a float64 array, and its length a
    multiple of len(formats); the formats are all repr or all %.16g and
    %-22.16g.  Returns (texts, numbers): "".join(texts) is the %-format of
    all values in turn, the formats' other text and conversions included,
    and numbers holds one argument per value.  Below MIN_VALUES, texts is
    the formats repeated, in one string; otherwise it holds each value's
    head and tail in turn.  See the module docstring.
    """
    n, period = len(values), len(formats)
    if n % period:
        raise ValueError(f"{n} values do not fill {period} formats evenly")
    conversions = [_parse(fmt)[1] for fmt in formats]
    shortest = "%r" in conversions
    if shortest and len(set(conversions)) > 1:
        raise ValueError("repr and %.16g formats cannot share a call")
    if n < MIN_VALUES["%r" if shortest else "%.16g"]:
        return ["".join(formats) * (n // period)], values if isinstance(values, list) else values.tolist()
    values = np.ascontiguousarray(values, dtype=np.float64)
    a = np.abs(values)
    ok = (a >= 1e-279) & (a < 1e280)  # false on 0, subnormals, inf and nan
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    D, nd, certified = _digits(values, a, k, shortest)
    ok &= certified
    sci = (k < -4) | (k >= 16)
    whole = ~sci & (k >= 0)  # a fixed layout with an integer part
    # one leading digit goes into the head: the units of a fixed value below
    # 10 with a fraction, the first of a scientific one with more digits;
    # the argument holds the rest, led by `zeros` zeros
    lead_digits = np.where(sci, nd > 1, whole & (nd > k + 1))
    ok &= ~whole | (nd <= k + 1) | (k == 0)
    width = nd - lead_digits
    pow10 = _tables()[1]
    lead, arg = np.divmod(D, pow10[width])
    zeros = width - np.searchsorted(pow10, arg, side="right")
    head = np.where(lead_digits, 4 + lead, np.where(sci | whole, 0, -k))
    tail = np.where(sci, 17 + k - _KMIN, np.where(whole & (nd <= k + 1), k + 2 - nd, 0))
    slot = np.tile(np.arange(period), n // period)
    padded = np.array([conversion == "%-22.16g" for conversion in conversions])
    pad = 0
    if padded.any():
        shown = (
            np.signbit(values) + width
            + np.where(lead_digits, 2, np.where(head > 0, 1 - k, 0))
            + np.where(sci, np.where(np.abs(k) < 100, 4, 5), np.maximum(tail - 1, 0))
        )
        pad = np.where(padded[slot], np.clip(22 - shown, 0, _PADS - 1), 0)
    texts, made, heads = _text_table(formats)
    head_id = ((slot * 2 + np.signbit(values)) * _HEADS + head) * _ZEROS + zeros
    ids = np.empty(2 * n, dtype=np.int64)  # each value's head, then its tail
    ids[0::2] = np.where(ok, head_id, heads - period + slot)
    ids[1::2] = heads + np.where(ok, (slot * _TAILS + tail) * _PADS + pad, period * _TAILS * _PADS)
    for i in set(ids[~made.take(ids)].tolist()):
        texts[i] = _head(formats, i) if i < heads else _tail(formats, i - heads)
        made[i] = True
    numbers = arg.tolist()
    fallback = np.flatnonzero(~ok)
    for i, value in zip(fallback.tolist(), values[fallback].tolist()):
        numbers[i] = value
    return texts.take(ids).tolist(), numbers


# A value's text is a head, ending in its argument's %d, then a tail; one
# table per formats holds both, heads first.  Head ids count (slot, sign,
# head, leading zeros), the heads being none, "0." and "0." with 1 to 3
# zeros, and "1." to "9.", then one whole format per slot for a value left
# to Python.  Tail ids count on from there by (slot, tail, pad), the tails
# being none, an integer's 0 to 15 trailing zeros (and repr's ".0"), and the
# exponents _KMIN to _KMAX, then the empty tail of a value left to Python.
_HEADS, _ZEROS = 14, 17
_TAILS, _PADS = 17 + _KMAX - _KMIN + 1, 23


@lru_cache(maxsize=16)
def _text_table(formats):
    """(texts, made, heads) of formats: texts by id, whether each is made yet, and the head count."""
    period = len(formats)
    heads = period * (2 * _HEADS * _ZEROS + 1)
    texts = np.empty(heads + period * _TAILS * _PADS + 1, dtype=object)
    texts[heads - period : heads], texts[-1] = formats, ""
    return texts, np.not_equal(texts, None), heads


def _head(formats, i):
    """The head of id i: its format's text before the conversion, the sign, head and zeros, then %d."""
    rest, zeros = divmod(i, _ZEROS)
    rest, head = divmod(rest, _HEADS)
    slot, negative = divmod(rest, 2)
    text = "" if head == 0 else "0." + "0" * (head - 1) if head <= 4 else f"{head - 4}."
    return f"{_parse(formats[slot])[0]}{'-' if negative else ''}{text}{'0' * zeros}%d"


def _tail(formats, i):
    """The tail of id i: trailing zeros or an exponent, padding, then its format's text after the conversion."""
    rest, pad = divmod(i, _PADS)
    slot, tail = divmod(rest, _TAILS)
    _, conversion, after = _parse(formats[slot])
    if tail < 17:
        text = "0" * (tail - 1) + (".0" if conversion == "%r" else "") if tail else ""
    else:
        k = tail - 17 + _KMIN
        text = f"e{'-' if k < 0 else '+'}{abs(k):02d}"
    return text + " " * pad + after


# The layout: a listed row or term is its cached head, ending where its
# first float begins, and two floats.  A JSON head starts with the ",\n"
# that ends the term before it, which the first term drops.
_TABLE_HEADER = f"{'deg':>3}  {'word':<24}  {'|coeff|':<22}  arg\n"
_TABLE_ROW = ("%s%-22.16g  ", "%.16g\n")


def _rows(heads, values, formats, opening="", closing=""):
    """opening, per head the head and its two values by formats in turn, then closing.

    formats[0] takes the head by a %s; opening, closing and heads hold no %.
    """
    texts, numbers = pieces(values, formats)
    args = [None] * (3 * len(heads))
    args[0::3], args[1::3], args[2::3] = heads, numbers[0::2], numbers[1::2]
    return "".join([opening, *texts, closing]) % tuple(args)


@lru_cache(maxsize=16)
def _table_prefixes(n_strands, max_degree):
    """Per basis word, its table row up to the modulus."""
    chords = [f"({i},{j})" for i, j in _words.all_pairs(n_strands)] if max_degree else []
    prefixes = [f"  0  {'1':<24}  "]
    for m in range(1, max_degree + 1):  # the product yields the words in basis order
        prefixes += map(f"{m:>3}  %-24s  ".__mod__, map("".join, itertools.product(chords, repeat=m)))
    return tuple(prefixes)


def table(n_strands, max_degree, positions, listed):
    """The term table of the terms at positions, listed holding their coefficients."""
    prefixes = _table_prefixes(n_strands, max_degree)
    column = [None] * (2 * len(positions))
    column[0::2] = _words.moduli(listed).tolist()
    column[1::2] = map(math.atan2, listed.imag.tolist(), listed.real.tolist())
    return _rows([prefixes[g] for g in positions], column, _TABLE_ROW, _TABLE_HEADER)


@lru_cache(maxsize=16)
def _word_heads(n_strands, max_degree, level):
    """Per basis word, its JSON term up to the real part, level deep."""
    i2, i3, i4, i5 = ("  " * (level + k) for k in range(2, 6))
    chords = [f"{i4}[\n{i5}{i},\n{i5}{j}\n{i4}]" for i, j in _words.all_pairs(n_strands)] if max_degree else []
    heads = [f',\n{i2}{{\n{i3}"word": [],\n{i3}"re": ']
    head = f',\n{i2}{{\n{i3}"word": [\n%s\n{i3}],\n{i3}"re": '
    for m in range(1, max_degree + 1):
        heads += map(head.__mod__, map(",\n".join, itertools.product(chords, repeat=m)))
    return tuple(heads)


@lru_cache(maxsize=16)
def _diagram_heads(n_circles, max_degree):
    """The free positions of the circle basis, and per position its JSON term up to the real part, two levels deep."""
    basis = _circles.circle_basis(n_circles, max_degree)
    positions = _relations.free_positions(("circles", n_circles), max_degree)
    i2, i3, i4, i5, i6 = ("  " * k for k in range(4, 9))
    foot = f"{i5}[\n{i6}%d,\n{i6}%d\n{i5}]"
    chord = f"{i4}[\n{foot},\n{foot}\n{i4}]"
    heads = []
    for k in positions:
        slots, chords = _circles.slots_and_chords(basis[k])
        slots = ",\n".join([f"{i4}{n}" for n in slots])
        word = ",\n".join([chord % (f1 + f2) for f1, f2 in chords])
        word = f"[\n{word}\n{i3}]" if word else "[]"
        heads.append(f',\n{i2}{{\n{i3}"slots": [\n{slots}\n{i3}],\n{i3}"word": {word},\n{i3}"re": ')
    return positions, tuple(heads)


def _document(heads, listed, level, **fields):
    """json.dumps(indent=2) of a series document, level deep: the int fields, then its terms."""
    i0, i1, i2, i3 = ("  " * (level + k) for k in range(4))
    opening = "{\n" + "".join(f'{i1}"{key}": {value},\n' for key, value in fields.items())
    if not heads:
        return f'{opening}{i1}"terms": []\n{i0}}}'
    heads[0] = heads[0][2:]
    parts = np.ascontiguousarray(listed, dtype=complex).view(np.float64)  # re, im, re, ...
    formats = (f'%s%r,\n{i3}"im": ', f"%r\n{i2}}}")
    return _rows(heads, parts, formats, f'{opening}{i1}"terms": [\n', f"\n{i1}]\n{i0}}}")


def _braid_text(n_strands, max_degree, positions, listed, level):
    """json.dumps(series_to_json_dict(...), indent=2), level deep, of the terms at positions."""
    heads = _word_heads(n_strands, max_degree, level)
    return _document([heads[g] for g in positions], listed, level, n_strands=n_strands, max_degree=max_degree)


def _circle_text(coefficients, n_circles, max_degree, zero_threshold):
    """json.dumps(circle_series_to_json_dict(...), indent=2), two levels deep; reads only the free positions."""
    positions, heads = _diagram_heads(n_circles, max_degree)
    values = coefficients.take(positions)
    kept = _words.moduli(values) >= zero_threshold
    heads = list(itertools.compress(heads, kept.tolist()))
    return _document(heads, values[kept], 2, circles=n_circles, max_degree=max_degree)


def _cycles_text(cycles, level):
    """json.dumps(cycles, indent=2) of non-empty lists of ints, level deep."""
    i0, i1, i2 = ("  " * (level + k) for k in range(3))
    items = [f"{i1}[\n{i2}" + f",\n{i2}".join(map(str, cycle)) + f"\n{i1}]" for cycle in cycles]
    return "[\n" + ",\n".join(items) + f"\n{i0}]"


def braid_json(n_strands, max_degree, positions, listed):
    """The braid's JSON of the terms at positions, listed holding their coefficients, in parts to write."""
    return [_braid_text(n_strands, max_degree, positions, listed, 0), "\n"]


def link_json(n_strands, max_degree, positions, listed, cycles, reduced, zero_threshold):
    """{"braid": braid_json's document, "link": the closure's}, in parts to write.

    cycles is the braid's closure_skeleton and reduced its reduced circle series,
    listed at the free positions where a term's modulus reaches zero_threshold.
    """
    q = len(cycles)
    return [
        '{\n  "braid": ', _braid_text(n_strands, max_degree, positions, listed, 1),
        f',\n  "link": {{\n    "components": {q},\n    "cycles": ', _cycles_text(cycles, 2),
        ',\n    "series": ', _circle_text(reduced, q, max_degree, zero_threshold), "\n  }\n}\n",
    ]
