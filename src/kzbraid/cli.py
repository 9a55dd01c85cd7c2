"""Command line front end: compute, verify, dims.

Exit codes: 0 success, 1 validation error, 2 numerical failure.  Output is
deterministic: terms are emitted in graded-lexicographic order; the table
prints floats with 16 significant digits (%.16g) and the JSON in their
shortest round-trip form (repr), both byte for byte as Python writes
them; _text lays out and writes all of compute's output.  Every loop is
integrated spectrally, so --steps (default 512) changes no result: it is
checked here, 1 to MAX_STEPS, with the other arguments and before any file
is opened, and passed nowhere.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from functools import lru_cache

from ._lazy import _lazy_module, np

# handles that load each module on its first use (see _lazy): callees are
# looked up on them at call time
_braids, _circles, _closure, _relations, _transport, _words, _text = (
    _lazy_module(f"kzbraid.{name}")
    for name in ("braids", "circles", "closure", "relations", "transport", "words", "_text")
)
# no command runs json, whose import takes about 2.5 ms; perfbench/tracing.py
# wraps cli.json.dumps, which loads it
json = _lazy_module("json")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
MAX_STEPS = 2**16  # largest --steps accepted, though steps change no result
MAX_COUNT_STEPS = 2**22  # bound on `dims --strands`, which keeps its printed counts short
_STEPS_HELP = "checked, 1 to 2^16, but changes no result (default 512)"


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


@lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process."""
    parser = _Parser(prog="kzbraid", description="Kontsevich integrals of braid words and their closures.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="Kontsevich integral of a braid word")
    compute.add_argument("-n", "--strands", type=int, required=True)
    compute.add_argument("-w", "--word", default="", help="signed generator indices")
    compute.add_argument("-m", "--max-degree", type=int, default=3)
    compute.add_argument("--steps", type=int, default=512, help=_STEPS_HELP)
    compute.add_argument("-o", "--output", help="write JSON here instead of stdout")
    compute.add_argument("--close", action="store_true", help="also reduce the closure")
    compute.add_argument(
        "--zero-threshold", type=float, default=1e-12,
        help="list terms of modulus at least this, a number >= 0 (default 1e-12)",
    )

    verify = sub.add_parser("verify", help="run one consistency check")
    verify.add_argument("check", help="|".join(sorted(_CHECKS)))
    verify.add_argument("-m", "--max-degree", type=int, default=3)
    verify.add_argument("--steps", type=int, default=512, help=_STEPS_HELP)

    dims = sub.add_parser("dims", help="quotient dimensions per degree")
    group = dims.add_mutually_exclusive_group(required=True)
    group.add_argument("--circles", type=int)
    group.add_argument("--strands", type=int)
    dims.add_argument("-m", "--max-degree", type=int, default=3)
    return parser


def _cmd_compute(args):
    if args.strands < 2:
        raise ValidationError("need at least 2 strands")
    if args.max_degree < 0 or args.steps < 1:
        raise ValidationError("need max-degree >= 0 and steps >= 1")
    if not args.zero_threshold >= 0:  # NaN fails every comparison
        raise ValidationError(f"need zero-threshold >= 0, got {args.zero_threshold}")
    _words.check_word_budget(args.strands, args.max_degree)
    word = _braids.parse_braid_word(args.word, args.strands)
    skeleton = None
    if args.close:
        skeleton = _closure.closure_skeleton(word)
        _circles.check_circle_budget(skeleton.n_components, args.max_degree)
    _check_steps_limit(args.steps)
    # opened before any work or output, so an unwritable path prints nothing
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout) as sink:
        sink.writelines(_compute_json(args, word, skeleton))
    return EXIT_OK


def _compute_json(args, word, skeleton):
    """Write the term table to stdout and return the JSON text, in parts to write in turn.

    skeleton is the closure's, given with --close and None without.
    """
    holonomy = _transport.kontsevich_of_braid(word, args.max_degree)
    kept = _words.moduli(holonomy) >= args.zero_threshold
    positions = np.flatnonzero(kept).tolist()
    listed = holonomy[kept]  # in basis order, read once for the table and the JSON
    sys.stdout.write(_text.table(args.strands, args.max_degree, positions, listed))
    if not args.close:
        return _text.braid_json(args.strands, args.max_degree, positions, listed)
    circles = ("circles", skeleton.n_components)
    series = _closure.tau_project(np.where(kept, holonomy, 0), skeleton, args.max_degree)  # the kept terms
    reduced = _relations.reduce(series, circles, args.max_degree, args.zero_threshold)
    free = _relations.free_positions(circles, args.max_degree)
    return _text.link_json(
        args.strands, args.max_degree, positions, listed, skeleton, reduced, free, args.zero_threshold
    )


def _check_steps_limit(steps):
    if steps > MAX_STEPS:
        raise ValidationError(f"steps {steps} exceeds the limit of {MAX_STEPS} per segment")


def _reduced_difference(za, zb, strands, max_degree):
    """Largest coefficient difference between two series on strands after reduce.

    Nothing is dropped first (threshold 0): a coefficient below the default
    threshold on one side only would reach the normal-form coordinates
    times their integer coefficients, which grow with the degree.
    """
    ra, rb = (_relations.reduce(z, ("strands", strands), max_degree, 0.0) for z in (za, zb))
    return np.abs(ra - rb).max()


def _braid_series(texts, strands, max_degree):
    return [_transport.kontsevich_of_braid(_braids.parse_braid_word(text, strands), max_degree) for text in texts]


def _check_braid_relation(max_degree):
    return _reduced_difference(*_braid_series(("1 2 1", "2 1 2"), 3, max_degree), 3, max_degree), 1e-12


def _check_far_commutation(max_degree):
    return _reduced_difference(*_braid_series(("1 3", "3 1"), 4, max_degree), 4, max_degree), 1e-12


def _check_full_twist(max_degree):
    # the full twist (s1 s2 s3)^4 rotates the four base points once, along
    # which the connection is sum t_ij dtheta / 2 pi; sum t_ij is central
    # modulo the relations, so Z = exp(sum t_ij): every degree-m word with
    # coefficient 1/m!
    twist = _transport.kontsevich_of_braid(_braids.parse_braid_word(" ".join(["1 2 3"] * 4), 4), max_degree)
    exponential = np.concatenate(
        [np.full(6**m, 1.0 / math.factorial(m), dtype=complex) for m in range(max_degree + 1)]
    )
    return _reduced_difference(twist, exponential, 4, max_degree), 1e-12


def _check_oracle(max_degree):
    # the oracle is compared through degree 3, so nothing higher is transported
    compared = min(3, max_degree)
    worst = 0.0
    for text, strands in (("1", 2), ("1 1", 2), ("1 2", 3)):
        loop = _braids.realize(_braids.parse_braid_word(text, strands))
        coefficients = _transport.transport(loop, compared).coefficients
        for g, word in enumerate(_words.basis_words(strands, compared)):
            if word:  # degree 0 holds 1 in every holonomy
                worst = max(worst, abs(coefficients[g] - _transport.simplex_oracle(loop, word, 512)))
    return worst, 1e-5


def _check_multiplicativity(max_degree):
    # flow property: the transport of a concatenated loop is the stacking
    # product of its segment transports; the upper segment equals the upper
    # braid's own transport with strands read through the lower permutation.
    # kontsevich_of_braid is itself such a product, so the concatenation is
    # integrated directly as one loop, by spectral segments composed as
    # kontsevich_of_braid composes its letters.
    words = [_braids.parse_braid_word(text, 3) for text in ("1", "2", "-1")]
    worst = 0.0
    for upper in words:
        for lower in words:
            combined = type(upper)(3, lower.letters + upper.letters)
            z_upper = _words.relabel_strands(
                _transport.kontsevich_of_braid(upper, max_degree),
                3,
                max_degree,
                _braids.permutation_of(lower).inverse().images,
            )
            z_lower = _transport.kontsevich_of_braid(lower, max_degree)
            zc = _transport.transport(_braids.realize(combined), max_degree).coefficients
            worst = max(worst, np.abs(_words.series_product(z_upper, z_lower, 3, max_degree) - zc).max())
    return worst, 1e-12


def _check_abelian(max_degree):
    worst = 0.0
    for text in ("1 2", "1 1 -2"):
        loop = _braids.realize(_braids.parse_braid_word(text, 3))
        sym = _transport.symmetrized(_transport.transport(loop, max_degree).coefficients, 3, max_degree)
        worst = max(worst, np.abs(sym - _transport.abelian_holonomy(loop, max_degree)).max())
    return worst, 1e-12


def _check_reparam(max_degree):
    # the same loop at uneven speed inside every segment; a velocity that
    # missed the factor phi' would be off by 0.04 to 0.2
    word = _braids.parse_braid_word("1 2", 3)
    even = _transport.transport(_braids.realize(word), max_degree).coefficients
    worst = 0.0
    for rate in (1.0, 2.0, 4.0):
        warped = _braids._warped(_braids.realize(word, durations=(2.0, 1.0)), rate)
        worst = max(worst, np.abs(_transport.transport(warped, max_degree).coefficients - even).max())
    return worst, 1e-12


# check -> (function, highest degree accepted).  A cap is the word budget's
# degree or the highest degree at which a fresh `verify` line took at most a
# third of 10 s on a 2-vCPU host (at most 3.2 s over 3 runs), which leaves
# room for a host whose speed drifts by half, so every accepted line ends
# within 10 s; the next degree took 4.1 to 8.5 s.  No cap exceeds the word
# budget, so the cap alone refuses a degree.
_CHECKS = {
    "braid-relation": (_check_braid_relation, 11),
    "far-commutation": (_check_far_commutation, 7),
    "full-twist": (_check_full_twist, 7),
    "oracle": (_check_oracle, 12),
    "multiplicativity": (_check_multiplicativity, 10),
    "abelian": (_check_abelian, 11),
    "reparam": (_check_reparam, 10),
}


def _cmd_verify(args):
    if args.check not in _CHECKS:
        raise ValidationError(f"unknown check {args.check!r}, expected one of {sorted(_CHECKS)}")
    check, top_degree = _CHECKS[args.check]
    if args.max_degree < 0 or args.steps < 1:
        raise ValidationError("need max-degree >= 0 and steps >= 1")
    _check_steps_limit(args.steps)
    if args.max_degree > top_degree:
        raise ValidationError(
            f"verify {args.check} runs to degree {top_degree} at most, got {args.max_degree}"
        )
    residual, tolerance = check(args.max_degree)
    ok = residual < tolerance
    print(f"{args.check}: residual={residual:.3e} tolerance={tolerance:.1e} {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _check_count_steps(n_strands, max_degree):
    """Refuse a `dims --strands` request whose normal-word counts take over MAX_COUNT_STEPS steps.

    The steps are quotient_dimension's, (N - 1)(m + 1) at each degree m <= M,
    though dims counts all in one pass of (N - 1) M: the bound keeps the
    printed counts short, at most 926 digits (8 strands to degree 1093),
    under the 4,300 past which int-to-str raises ValueError (see
    sys.int_info).  Strand counts below 2 pass: counting reports them.
    """
    steps = (n_strands - 1) * (max_degree + 1) * (max_degree + 2) // 2
    if steps > MAX_COUNT_STEPS:
        raise ValidationError(
            f"{n_strands} strands to degree {max_degree} need more than {MAX_COUNT_STEPS}"
            f" counting steps ({steps})"
        )


def _cmd_dims(args):
    if args.max_degree < 0:
        raise ValidationError("need max-degree >= 0")
    if args.strands is not None:
        _check_count_steps(args.strands, args.max_degree)
        dims = _relations._normal_word_counts(args.strands, args.max_degree)
    else:
        _circles.check_circle_budget(args.circles, args.max_degree)
        dims = [_relations.quotient_dimension(m, circles=args.circles) for m in range(args.max_degree + 1)]
    print(" ".join(f"{degree}:{dim}" for degree, dim in enumerate(dims)))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_dims(args)
    # the except clauses are evaluated for every exception, --help's
    # SystemExit included, so they name no lazy module's class: a
    # BraidParseError is a ValueError and a TransportError a RuntimeError
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        if not isinstance(exc, _transport.TransportError):
            raise
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
