"""The certified float-to-text kernel against Python's own repr, %.16g and %-22.16g."""

import math
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kzbraid import _floattext

CONVERSIONS = ("%r", "%.16g", "%-22.16g")
# enough values for the vector path of every conversion
VECTOR = max(_floattext.MIN_VALUES.values())


def _mismatches(values, conversion):
    """(value, kernel text, reference text) for each value the kernel writes differently."""
    values = np.asarray(values, dtype=np.float64)
    line = conversion + "\n"  # no text holds a newline, so equal joins mean equal values
    texts, numbers = _floattext.pieces(values, (line,))
    assert len(numbers) == len(values)
    if "".join(texts) % tuple(numbers) == (line * len(values)) % tuple(values.tolist()):
        return []
    assert len(texts) == 2 * len(values)  # the per-value path has no wrong values
    return [
        (value, (head + tail) % number, line % value)
        for value, head, tail, number in zip(values.tolist(), texts[0::2], texts[1::2], numbers)
        if (head + tail) % number != line % value
    ]


def _fallback_share(values, conversion):
    numbers = _floattext.pieces(np.asarray(values, dtype=np.float64), (conversion,))[1]
    return sum(isinstance(number, float) for number in numbers) / len(numbers)


def _vector(values):
    """values repeated to the vector path's size."""
    values = np.asarray(values, dtype=np.float64)
    return np.resize(values, max(VECTOR, len(values)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
def test_kernel_matches_python_on_any_float(values):
    for conversion in CONVERSIONS:
        assert _mismatches(_vector(values), conversion) == []


def test_kernel_matches_python_on_random_bit_patterns():
    # a million bit patterns, so every exponent, nan and inf included;
    # %-22.16g pads the digits of %.16g, so a tenth of them check it
    rng = np.random.default_rng(2025)
    for chunk in range(10):
        values = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
        for conversion in CONVERSIONS[: 3 if chunk == 0 else 2]:
            assert _mismatches(values, conversion) == []


def _powers_and_neighbours():
    out = []
    for exponent in range(-1074, 1024):
        out.append(math.ldexp(1.0, exponent))
    for k in range(-323, 309):
        out.append(float(f"1e{k}"))
    steps = np.array(out)
    near = [steps]
    for direction in (np.inf, -np.inf):
        ahead = steps
        for _ in range(3):
            ahead = np.nextafter(ahead, direction)
            near.append(ahead)
    return np.concatenate(near)


def _decimal_ties():
    """Doubles whose exact decimal expansion ends in a 5 at the 17th or 18th digit.

    c / 2^j (c odd) has the digits of c 5^j, so with c 5^j in [1e16, 1e18)
    its 16- or 17-digit rounding is an exact tie.
    """
    rng = np.random.default_rng(7)
    out = []
    for j in range(1, 26):
        lo, hi = -(-10**16 // 5**j), min(10**18 // 5**j, 2**53)
        if lo >= hi:
            continue
        for c in rng.integers(lo, hi, size=40).tolist():
            x = math.ldexp(c | 1, -j)
            if len(str(Decimal(x)).replace(".", "").lstrip("0")) in (17, 18):
                out.append(x)
    return np.array(out)


def _interval_boundaries():
    """Consecutive doubles whose midpoint is a 16-digit decimal.

    The decimal reads back as the one of the two with an even mantissa, so
    repr of each sits exactly on its interval's boundary.
    """
    rng = np.random.default_rng(11)
    out = []
    for b in range(2, 76):  # the doubles' spacing is 2^b
        for z in range(b):
            s = b - 1 - z  # the midpoint D 10^z is an odd multiple of 2^(b-1)
            lo = max(-(-(2 ** (52 + b)) // 10**z), 10**15)
            hi = min((2 ** (53 + b) - 1) // 10**z, 10**16 - 1)
            odd_lo, odd_hi = -(-lo // 2**s) | 1, hi // 2**s
            if odd_lo > odd_hi:
                continue
            for odd in rng.integers(odd_lo, odd_hi + 1, size=8).tolist():
                midpoint = (odd | 1) << s
                if not lo <= midpoint <= hi:
                    continue
                t = midpoint * 10**z
                out += [float(t - 2 ** (b - 1)), float(t + 2 ** (b - 1))]
    return np.array(out)


def _adversarial():
    layouts = [1e-4, 1e-5, 9.999999999999999e-05, 0.000099999999999999999, 1e15, 1e16, 9999999999999998.0,
               9999999999999999.0, 999.9999999999999, 1000.0000000000001, 0.1, 0.3, 1 / 3]
    tiny = [5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, 1e-280, 1e-279]
    plain = [0.0, -0.0, 1.0, 3.0, math.pi, math.e, math.inf, -math.inf, math.nan]
    values = np.concatenate([
        _powers_and_neighbours(), _decimal_ties(), _interval_boundaries(),
        np.array(layouts + tiny + plain),
    ])
    layout = np.concatenate([values, np.nextafter(values[-29:], np.inf), np.nextafter(values[-29:], -np.inf)])
    return np.concatenate([layout, -layout])


def test_kernel_matches_python_on_adversarial_values():
    values = _adversarial()
    assert len(_interval_boundaries()) > 100 and len(_decimal_ties()) > 500
    for conversion in CONVERSIONS:
        assert _mismatches(values, conversion) == []


def test_fallback_share_stays_small():
    # coefficients spread over the magnitudes compute prints
    rng = np.random.default_rng(3)
    values = rng.choice([-1.0, 1.0], 100_000) * 10 ** rng.uniform(-19, 1, 100_000)
    assert _fallback_share(values, "%r") < 0.02
    assert _fallback_share(values, "%.16g") < 0.001
    # so few values that the fixed cost does not pay: each alone
    for conversion in CONVERSIONS:
        few = values[: _floattext.MIN_VALUES["%r" if conversion == "%r" else "%.16g"] - 1]
        assert _fallback_share(few, conversion) == 1.0
        assert _mismatches(few, conversion) == []


def test_pieces_keep_the_text_around_each_conversion():
    rng = np.random.default_rng(5)
    values = rng.normal(size=2 * VECTOR) * 10.0 ** rng.integers(-8, 3, 2 * VECTOR)
    values[::7] = 0.0
    for formats in (("[%s|%r, ", "%r]\n"), ("%s%-22.16g  ", "%.16g\n"), ("<%.16g>",)):
        for size in (len(values), 2 * (min(_floattext.MIN_VALUES.values()) // 2 - 1)):
            texts, numbers = _floattext.pieces(values[:size], formats)
            args = []
            for i, number in enumerate(numbers):
                args += ["x", number] if "%s" in formats[i % len(formats)] else [number]
            expected = "".join(
                formats[i % len(formats)] % ((("x", v) if "%s" in formats[i % len(formats)] else v))
                for i, v in enumerate(values[:size].tolist())
            )
            assert "".join(texts) % tuple(args) == expected
