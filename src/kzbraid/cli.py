"""Command line front end: compute, verify, dims.

Exit codes: 0 success, 1 validation error, 2 numerical failure.  Output is
deterministic: terms are emitted in graded-lexicographic order; the table
prints floats with 16 significant digits (%.16g) and the JSON in their
shortest round-trip form (repr), both byte for byte as Python writes
them; _text lays out and writes all of compute's output.  Every loop is
integrated spectrally, so --steps (default 512) changes no result: it is
checked here, 1 to MAX_STEPS, with the other arguments and before any file
is opened, and passed nowhere.

Each command's options are declared once, in _COMMANDS.  _read_argv reads
a command line from that table by exact option strings, converting values
with argparse's own int and float, and declines anything else (-h, an
abbreviation, --opt=value, --, a malformed value, a missing or conflicting
option).  Only then does main build the argparse parser from the same
table, so argparse still writes every help text and error message with its
exit code, while a well-formed command line never imports argparse.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from functools import lru_cache
from types import SimpleNamespace

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


def _cmd_compute(args):
    if args.strands < 2:
        raise ValueError("need at least 2 strands")
    if args.max_degree < 0 or args.steps < 1:
        raise ValueError("need max-degree >= 0 and steps >= 1")
    if not args.zero_threshold >= 0:  # NaN fails every comparison
        raise ValueError(f"need zero-threshold >= 0, got {args.zero_threshold}")
    _words.check_word_budget(args.strands, args.max_degree)
    word = _braids.parse_braid_word(args.word, args.strands)
    cycles = None
    if args.close:
        cycles = _closure.closure_skeleton(word)
        _circles.check_circle_budget(len(cycles), args.max_degree)
    _check_steps_limit(args.steps)
    # opened before any work or output, so an unwritable path prints nothing
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout) as sink:
        sink.writelines(_compute_json(args, word, cycles))
    return EXIT_OK


def _compute_json(args, word, cycles):
    """Write the term table to stdout and return the JSON text, in parts to write in turn.

    cycles are the closure's components, given with --close and None without.
    """
    holonomy = _transport.kontsevich_of_braid(word, args.max_degree)
    kept = _words.moduli(holonomy) >= args.zero_threshold
    positions = np.flatnonzero(kept).tolist()
    listed = holonomy[kept]  # in basis order, read once for the table and the JSON
    sys.stdout.write(_text.table(args.strands, args.max_degree, positions, listed))
    if not args.close:
        return _text.braid_json(args.strands, args.max_degree, positions, listed)
    reduced = _closure.kontsevich_link(np.where(kept, holonomy, 0), cycles, args.max_degree, args.zero_threshold)
    return _text.link_json(args.strands, args.max_degree, positions, listed, cycles, reduced, args.zero_threshold)


def _check_steps_limit(steps):
    if steps > MAX_STEPS:
        raise ValueError(f"steps {steps} exceeds the limit of {MAX_STEPS} per segment")


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
                np.argsort(_braids.permutation_of(lower)) + 1,
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
    # the same loop at uneven speed inside every segment, each over its own
    # local time; a velocity that missed the factor phi' is off by 0.04 to 0.2
    loop = _braids.realize(_braids.parse_braid_word("1 2", 3))
    even = _transport.transport(loop, max_degree).coefficients
    worst = 0.0
    for rate in (1.0, 2.0, 4.0):
        warped = _braids._warped(loop, rate)
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
        raise ValueError(f"unknown check {args.check!r}, expected one of {sorted(_CHECKS)}")
    check, top_degree = _CHECKS[args.check]
    if args.max_degree < 0 or args.steps < 1:
        raise ValueError("need max-degree >= 0 and steps >= 1")
    _check_steps_limit(args.steps)
    if args.max_degree > top_degree:
        raise ValueError(
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
        raise ValueError(
            f"{n_strands} strands to degree {max_degree} need more than {MAX_COUNT_STEPS}"
            f" counting steps ({steps})"
        )


def _cmd_dims(args):
    if args.max_degree < 0:
        raise ValueError("need max-degree >= 0")
    if args.strands is not None:
        _check_count_steps(args.strands, args.max_degree)
        dims = _relations._normal_word_counts(args.strands, args.max_degree)
    else:
        _circles.check_circle_budget(args.circles, args.max_degree, blocks=True)
        dims = [_relations.quotient_dimension(m, ("circles", args.circles)) for m in range(args.max_degree + 1)]
    try:
        text = " ".join(f"{degree}:{dim}" for degree, dim in enumerate(dims))
    except ValueError:  # past sys.get_int_max_str_digits(); strand counts stay short
        raise ValueError(f"{args.circles} circles to degree {args.max_degree} have dimensions too long to print") from None
    print(text)
    return EXIT_OK


# Every option of every command, the one declaration that both
# _build_parser and _read_argv read: command -> (help, options), an option
# being (option strings, dest, type, default, required, help).  No option
# strings mark verify's positional and the type bool a store_true flag;
# required is _ONE_OF for dims' --circles and --strands, of which exactly
# one must be given.
_ONE_OF = "one of"
_MAX_DEGREE = (("-m", "--max-degree"), "max_degree", int, 3, False, None)
_STEPS = (("--steps",), "steps", int, 512, False, _STEPS_HELP)
_COMMANDS = {
    "compute": ("Kontsevich integral of a braid word", (
        (("-n", "--strands"), "strands", int, None, True, None),
        (("-w", "--word"), "word", str, "", False, "signed generator indices"),
        _MAX_DEGREE,
        _STEPS,
        (("-o", "--output"), "output", str, None, False, "write JSON here instead of stdout"),
        (("--close",), "close", bool, False, False, "also reduce the closure"),
        (("--zero-threshold",), "zero_threshold", float, 1e-12, False,
         "list terms of modulus at least this, a number >= 0 (default 1e-12)"),
    )),
    "verify": ("run one consistency check", (
        ((), "check", str, None, True, "|".join(sorted(_CHECKS))),
        _MAX_DEGREE,
        _STEPS,
    )),
    "dims": ("quotient dimensions per degree", (
        (("--circles",), "circles", int, None, _ONE_OF, None),
        (("--strands",), "strands", int, None, _ONE_OF, None),
        _MAX_DEGREE,
    )),
}
# command -> what _read_argv looks up: option string -> option, the
# positional or None, the defaults, the required dests and dims' one-of pair
_READER = {
    command: (
        {flag: option for option in options for flag in option[0]},
        next((option for option in options if not option[0]), None),
        {dest: default for _, dest, _, default, _, _ in options},
        {dest for _, dest, _, _, required, _ in options if required is True},
        {dest for _, dest, _, _, required, _ in options if required is _ONE_OF},
    )
    for command, (_, options) in _COMMANDS.items()
}


@lru_cache(maxsize=1)
def _build_parser():
    """The argparse parser of _COMMANDS, built once per process, for --help and the argv _read_argv declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = _Parser(prog="kzbraid", description="Kontsevich integrals of braid words and their closures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, options) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=command_help)
        one_of = None
        for flags, dest, kind, default, required, text in options:
            if required is _ONE_OF:
                one_of = one_of or subparser.add_mutually_exclusive_group(required=True)
            owner = one_of if required is _ONE_OF else subparser
            if not flags:
                owner.add_argument(dest, type=kind, help=text)
            elif kind is bool:
                owner.add_argument(*flags, dest=dest, action="store_true", help=text)
            else:
                owner.add_argument(*flags, dest=dest, type=kind, default=default, required=required is True,
                                   help=text)
    return parser


def _is_value(token):
    """Whether argparse reads token as an option's value or a positional, not as an option string.

    It does when token does not start with "-" or is a negative number
    (-\\d+ or -\\d*.\\d+); a token led by "-" and a digit that holds a space,
    such as the braid word "-1 2", is one too.  Every other token led by
    "-" is declined here, though argparse reads some of them as values.
    """
    if token[:1] != "-":
        return True
    body = token[1:]
    whole, point, fraction = body.partition(".")
    return (body.isdecimal() or (body[:1].isdecimal() and " " in body)
            or bool(point and (not whole or whole.isdecimal()) and fraction.isdecimal()))


def _read_argv(argv):
    """argv read as _build_parser().parse_args reads it, without argparse, or None.

    Reads the command, then exact option strings with their values, flags
    and verify's positional, converting each value as argparse does.  It
    returns None, leaving argparse to parse, print help or report the error,
    on anything else: -h, abbreviations, --opt=value, -n3, --, an unknown
    token, a missing or failed value, a second positional, a missing
    required option, and both or neither of dims' --circles and --strands.
    """
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        return None
    named, positional, defaults, required, one_of = _READER[argv[0]]
    values, given = dict(defaults), set()
    tokens = iter(argv[1:])
    for token in tokens:
        option = named.get(token, positional)
        if option is None:
            return None
        flags, dest, kind = option[:3]
        if kind is bool:
            values[dest] = True
        else:
            if flags:
                token = next(tokens, "-")  # a missing value is declined like "-"
            elif dest in given:
                return None
            if not _is_value(token):
                return None
            try:
                values[dest] = kind(token)
            except ValueError:
                return None
        given.add(dest)
    if not required <= given or (one_of and len(one_of & given) != 1):
        return None
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_dims(args)
    # the except clauses are evaluated for every exception, --help's
    # SystemExit included, so they name no lazy module's class: a
    # TransportError is a RuntimeError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        if not isinstance(exc, _transport.TransportError):
            raise
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
