import math
import random
import re
from collections import namedtuple

import numpy as np
import pytest

from kzbraid.braids import (
    BraidWord,
    ConfigLoop,
    parse_braid_word,
    permutation_of,
    realize,
)


def segment_at(loop, t):
    """(segment, local s, duration) covering loop time t, the S segments taking equal shares 1/S."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    count = len(loop.segments)
    idx = min(int(t * count), count - 1)
    return loop.segments[idx], t * count - idx, 1.0 / count


class _Piece(namedtuple("_Piece", "segment lo hi")):
    """A segment's local times [lo, hi] as a segment of its own, velocity scaled by hi - lo."""

    __slots__ = ()

    def _local(self, s):
        return self.lo + (self.hi - self.lo) * np.asarray(s, dtype=float)

    def positions(self, s):
        return self.segment.positions(self._local(s))

    def velocities(self, s):
        return (self.hi - self.lo) * self.segment.velocities(self._local(s))


def cut_loop(loop, piece=_Piece):
    """The loop with every segment cut at local time 0.3 into two pieces of unequal length."""
    pieces = (piece(s, lo, hi) for s in loop.segments for lo, hi in ((0.0, 0.3), (0.3, 1.0)))
    return ConfigLoop(loop.n_strands, tuple(pieces))


def sample(loop, t):
    """Positions and global-time velocities at t, exact per segment."""
    segment, s, duration = segment_at(loop, t)
    return segment.positions(s), segment.velocities(s) / duration


def min_separation(loop, n_samples):
    """Smallest pairwise point distance over an n_samples time grid."""
    best = math.inf
    for t in np.linspace(0.0, 1.0, n_samples):
        z, _ = sample(loop, float(t))
        diff = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(diff, math.inf)
        best = min(best, float(diff.min()))
    return best


def test_parse_examples():
    w = parse_braid_word("1 -1", 2)
    assert w.letters == ((1, 1), (1, -1))
    w = parse_braid_word("1 2 1", 3)
    assert w.letters == ((1, 1), (2, 1), (1, 1))
    assert parse_braid_word("", 4).letters == ()


def test_parse_errors():
    for text, message in (
        ("3", "generator index out of range: '3' on 3 strands"),
        ("0", "zero token is not a generator"),
        ("1 xx", "non-integer token 'xx'"),
    ):
        with pytest.raises(ValueError) as info:
            parse_braid_word(text, 3)
        assert str(info.value) == message


def test_permutation_examples():
    assert permutation_of(parse_braid_word("1", 2)) == (2, 1)
    assert permutation_of(parse_braid_word("1 2", 3)) == (3, 1, 2)  # strand 1 ends at position 3
    assert permutation_of(parse_braid_word("1 1", 2)) == (1, 2)
    assert permutation_of(parse_braid_word("", 4)) == (1, 2, 3, 4)


def test_permutation_inverse():
    # the inverse word brings every strand back, and np.argsort(images) + 1 is its permutation
    p = permutation_of(parse_braid_word("1 2", 3))
    q = permutation_of(parse_braid_word("-2 -1", 3))
    assert (np.argsort(p) + 1).tolist() == list(q)
    for k in (1, 2, 3):
        assert q[p[k - 1] - 1] == k


def test_braid_records_validate_and_stay_frozen():
    word = BraidWord(n_strands=3, letters=[(1.0, 1), ("2", -1)])
    assert word.letters == ((1, 1), (2, -1)) and len(word.letters) == 2
    assert word == BraidWord(3, ((1, 1), (2, -1))) and len({word, BraidWord(3, word.letters)}) == 1
    assert repr(word) == "BraidWord(3; 1 -2)" and repr(BraidWord(2, ())) == "BraidWord(2; e)"
    for args, message in (
        ((1, ()), "need at least 2 strands"),
        ((3, ((3, 1),)), "generator index 3 out of range"),
        ((3, ((1, 0),)), "sign must be +1 or -1, got 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            BraidWord(*args)
    loop = realize(BraidWord(2, ((1, 1),)))
    assert repr(loop) == (
        "ConfigLoop(n_strands=2, segments=(_Arc(start=(0j, (1+0j)), moving=(1, 2), center=0.5, sign=1),))"
    )
    assert hash(loop) == hash(realize(BraidWord(2, ((1, 1),))))
    for record, field in ((word, "letters"), (loop, "segments"), (loop.segments[0], "sign")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
        with pytest.raises(AttributeError):
            record.extra = 1


def test_braid_word_make_and_replace_validate():
    word = BraidWord(3, ((1, 1),))
    assert BraidWord._make([3, [("2", -1)]]) == BraidWord(3, ((2, -1),))
    assert type(word._replace(n_strands=4)) is BraidWord and repr(word._replace(n_strands=4)) == "BraidWord(4; 1)"
    for bad, message in (
        (lambda: BraidWord(2, ())._replace(n_strands=0), "need at least 2 strands"),
        (lambda: word._replace(letters=((3, 1),)), "generator index 3 out of range"),
        (lambda: BraidWord._make((2, ((1, 2),))), "sign must be +1 or -1, got 2"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            bad()
    with pytest.raises(TypeError):
        BraidWord._make((2, (), ()))


def test_identity_loop():
    # the empty word moves no strand, so its loop has no segments
    loop = realize(parse_braid_word("", 3))
    assert loop == ConfigLoop(3, ()) and repr(loop) == "ConfigLoop(n_strands=3, segments=())"


def test_sigma1_arc_values():
    loop = realize(parse_braid_word("1", 2))
    z, _ = sample(loop, 0.5)
    assert z[0] == pytest.approx(0.5 - 0.5j)
    assert z[1] == pytest.approx(0.5 + 0.5j)
    z0, _ = sample(loop, 0.0)
    z1, _ = sample(loop, 1.0)
    assert z0[0] == pytest.approx(0.0) and z0[1] == pytest.approx(1.0)
    assert z1[0] == pytest.approx(1.0) and z1[1] == pytest.approx(0.0)


def test_sigma1_dlog_speed_constant_pi():
    loop = realize(parse_braid_word("1", 2))
    for t in np.linspace(0.0, 1.0, 37):
        z, v = sample(loop, float(t))
        assert abs((v[0] - v[1]) / (z[0] - z[1])) == pytest.approx(math.pi, abs=1e-12)


def test_min_separation_examples():
    loop = realize(parse_braid_word("1", 3))
    assert min_separation(loop, 2000) == pytest.approx(1.0, abs=1e-9)
    assert min_separation(realize(parse_braid_word("1", 2)), 500) == pytest.approx(1.0)


def test_min_separation_random_words():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(2, 5)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(1, 6))
        )
        loop = realize(BraidWord(n, letters))
        assert min_separation(loop, 800) > 0.4


def test_loop_closure_and_permutation_consistency():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(rng.randint(0, 7))
        )
        w = BraidWord(n, letters)
        loop = realize(w)
        pi = permutation_of(w)
        # the empty word's loop has no segments: every strand stays at its base point
        z = sample(loop, 1.0)[0] if loop.segments else np.arange(n, dtype=complex)
        # strand s ends at base point images[s-1] - 1
        assert np.allclose(z, [complex(p - 1) for p in pi], atol=1e-12)


def test_sample_rejects_outside_interval():
    loop = realize(parse_braid_word("1", 2))
    with pytest.raises(ValueError):
        sample(loop, 1.5)
    with pytest.raises(ValueError):
        sample(loop, -0.1)
