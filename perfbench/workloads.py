"""Seeded request schedules for the three benchmark workloads.

A workload is a list of passes of request groups.  Every pass holds the
same multiset of group shapes (strand count, degree, word length, or one
fixed CLI line), shuffled by the seed; the seed also draws the braid
letters.  A run executes whole passes, so two seeds differ in the letters
and the order of requests but not in how much work a pass asks for.

A group is two requests of equal cost.  An untraced run sends only the
first; a traced run sends both, one traced and one not, so the tracing
overhead compares equal work.  For compute the second request is the mirror
braid (every sign flipped): the same shape and output size, another command
line, so a cache of whole results cannot serve it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from checks import closure_cycles

# Largest word basis sum_{m<=M} P^m a generated compute request may ask for.
# N=4, M=4 (P=6) needs 1,555 words; N=5, M=4 would need 11,111.
MAX_BASIS = 2_000


@dataclass(frozen=True)
class Request:
    shape: tuple  # what the cost depends on; one re-run per shape
    argv: tuple  # the command line after "kzbraid"
    word: str = ""  # braid word, when argv carries one
    strands: int = 0
    steps: int = 0  # transport steps per letter, for compute requests


@dataclass(frozen=True)
class Workload:
    in_process: bool  # cli.main inside a worker, or a fresh process per request
    warmup: tuple  # argv lists that fill every lazy per-shape table
    make_pass: object  # rng -> list of request groups


def basis_size(strands, degree):
    pairs = strands * (strands - 1) // 2
    return sum(pairs**m for m in range(degree + 1))


def reduced_word(rng, strands, length):
    """Signed generator indices with no letter next to its own inverse."""
    letters = []
    while len(letters) < length:
        letter = rng.choice([1, -1]) * rng.randint(1, strands - 1)
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return letters


def _compute(shape, strands, degree, letters, steps=512, close=False):
    if basis_size(strands, degree) > MAX_BASIS:
        raise ValueError(f"N={strands}, M={degree} exceeds the {MAX_BASIS}-word basis cap")
    word = " ".join(str(v) for v in letters)
    extra = () if steps == 512 else ("--steps", str(steps))
    extra += ("--close",) if close else ()
    argv = ("compute", "-n", str(strands), "-m", str(degree), *extra, "-w", word)
    return Request(shape, argv, word, strands, steps)


def _group(shape, strands, degree, letters, **options):
    """A word and its mirror image (every sign flipped): equal cost, new argv."""
    return tuple(
        _compute(shape, strands, degree, [sign * v for v in letters], **options)
        for sign in (1, -1)
    )


# (N, M, lengths): a short, a middle and a long word per shape.  The middle
# lengths cost about the same on every shape, so the median request of a
# pass sits inside that cluster of four instead of in a gap between costs.
_COMPUTE_SLOTS = ((3, 3, (3, 10, 16)), (3, 4, (3, 9, 14)), (4, 3, (4, 8, 13)), (4, 4, (3, 5, 9)))


def _braid_compute_pass(rng):
    return [
        _group((strands, degree), strands, degree, reduced_word(rng, strands, length))
        for strands, degree, lengths in _COMPUTE_SLOTS
        for length in lengths
    ]


# Four-component closures (pure 4-strand braids) are not drawn: their degree-4
# relation set takes about 6.5 s to build, which the repeated set-up cannot
# afford.  Every other component count up to 3 occurs.
MAX_COMPONENTS = 3


def _link_closure_pass(rng):
    out = []
    for length in range(2, 11):
        strands = 2 + length % 3
        while True:
            letters = reduced_word(rng, strands, length)
            if len(closure_cycles(strands, " ".join(map(str, letters)))) <= MAX_COMPONENTS:
                break
        out.append(_group((strands,), strands, 4, letters, steps=128, close=True))
    return out


COLD_LINES = (
    ("dims", "--strands", "3", "-m", "5"),
    ("dims", "--strands", "4", "-m", "4"),
    ("dims", "--strands", "5", "-m", "3"),
    ("dims", "--circles", "1", "-m", "5"),
    ("dims", "--circles", "2", "-m", "4"),
    ("dims", "--circles", "3", "-m", "4"),
    ("verify", "braid-relation", "-m", "3"),
    ("verify", "far-commutation", "-m", "3"),
    ("verify", "multiplicativity", "-m", "3"),
    ("verify", "abelian", "-m", "3"),
    ("verify", "oracle", "-m", "2"),
)


def _cold_cli_pass(rng):
    # a fresh process shares nothing with the last one, so the line repeats
    return [(Request(line, line),) * 2 for line in COLD_LINES]


def _warm(strands, degree, words, extra=()):
    return tuple(
        ("compute", "-n", str(strands), "-m", str(degree), "--steps", "2", *extra, "-w", w)
        for w in words
    )


WORKLOADS = {
    "braid-compute": Workload(
        True,
        _warm(3, 3, ["1"]) + _warm(3, 4, ["1"]) + _warm(4, 3, ["1"]) + _warm(4, 4, ["1"]),
        _braid_compute_pass,
    ),
    "link-closure": Workload(
        True,
        # one word per reachable component count, so every circle relation
        # set the requests can need is built and echeloned
        _warm(2, 4, ["1", "1 1"], ("--close",))
        + _warm(3, 4, ["1 2", "1", "1 1"], ("--close",))
        + _warm(4, 4, ["1 2 3", "1 2", "1"], ("--close",)),
        _link_closure_pass,
    ),
    "cold-cli": Workload(False, (), _cold_cli_pass),
}


def schedule(name, seed, passes):
    """The first `passes` passes of a workload, fixed by (name, seed)."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    out = []
    for _ in range(passes):
        batch = workload.make_pass(rng)
        rng.shuffle(batch)
        out.append(batch)
    return out


def argv_hash(passes):
    """Short digest of every generated command line, in order."""
    text = json.dumps([[list(r.argv) for group in batch for r in group] for batch in passes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
