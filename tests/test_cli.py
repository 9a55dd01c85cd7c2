import importlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kzbraid
from kzbraid._text import _TABLE_ROW, _cycles_text, _rows
from kzbraid.cli import _CHECKS, MAX_STEPS, _check_count_steps, main
from kzbraid.circles import MAX_CIRCLE_CELLS, MAX_CIRCLE_MATCHINGS, _circle_counts, circle_series_to_json_dict
from kzbraid.closure import closure_skeleton, kontsevich_link, tau_project
from kzbraid.relations import free_positions, reduce
from kzbraid.words import ZERO_THRESHOLD, basis_words, moduli, series_to_json_dict
from kzbraid.transport import _letter_holonomy, kontsevich_of_braid
from kzbraid.braids import parse_braid_word
from reference_orders import word_sort_key


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_identity_series(capsys, tmp_path):
    out_file = tmp_path / "z.json"
    code, out, err = run(
        capsys, "compute", "-n", "2", "-w", "", "-m", "4", "-o", str(out_file)
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["n_strands"] == 2 and data["max_degree"] == 4
    assert data["terms"] == [{"word": [], "re": 1.0, "im": 0.0}]


def test_compute_json_round_trip(capsys, tmp_path):
    out_file = tmp_path / "z.json"
    code, _, _ = run(
        capsys,
        "compute", "-n", "2", "-w", "1 1", "-m", "2", "--steps", "128",
        "-o", str(out_file),
    )
    assert code == 0
    direct = kontsevich_of_braid(parse_braid_word("1 1", 2), 2)
    assert json.loads(out_file.read_text()) == series_to_json_dict(direct, 2, 2)


def test_compute_unwritable_output_is_validation_error(capsys, tmp_path):
    target = tmp_path / "missing" / "z.json"
    code, out, err = run(capsys, "compute", "-n", "2", "-w", "1", "-m", "1", "-o", str(target))
    assert code == 1
    assert out == ""  # the file is opened before the table is printed
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.parent.exists()


def test_compute_refuses_nan_or_negative_zero_threshold(capsys):
    for value in ("nan", "-1", "-inf", "-0.5"):
        code, out, err = run(capsys, "compute", "-n", "3", "-w", "1", "-m", "2", f"--zero-threshold={value}")
        assert code == 1, value
        assert out == ""
        assert err.startswith("error: need zero-threshold >= 0") and err.count("\n") == 1


def test_compute_deterministic_bytes(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(
            capsys,
            "compute", "-n", "3", "-w", "1 -2", "-m", "2", "--steps", "64",
            "-o", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_compute_close_hopf(capsys, tmp_path):
    out_file = tmp_path / "hopf.json"
    code, _, _ = run(
        capsys,
        "compute", "-n", "2", "-w", "1 1", "-m", "1", "--steps", "128",
        "--close", "-o", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["link"]["components"] == 2
    assert data["link"]["cycles"] == [[1], [2]]
    inter = [
        t for t in data["link"]["series"]["terms"]
        if t["slots"] == [1, 1]
    ]
    assert len(inter) == 1
    assert abs(inter[0]["re"] - 1.0) < 1e-6


def test_cycles_text_matches_json_dumps():
    # closures of 1 to 5 components whose cycles hold 1 to 4 strands each
    rng = random.Random(24)
    for components in range(1, 6):
        for _ in range(20):
            sizes = [rng.randint(1, 4) for _ in range(components)]
            strands = rng.sample(range(1, sum(sizes) + 1), sum(sizes))
            cycles = tuple(tuple(strands[sum(sizes[:c]):sum(sizes[:c + 1])]) for c in range(components))
            for level in range(3):
                expected = json.dumps(cycles, indent=2).replace("\n", "\n" + "  " * level)
                assert _cycles_text(cycles, level) == expected, (cycles, level)


def test_close_builds_the_closure_permutation_once(capsys, monkeypatch):
    # the budget check, the projection and the "cycles" text share one closure_skeleton
    braids_module, closure_module = (importlib.import_module(f"kzbraid.{name}") for name in ("braids", "closure"))
    permutation_of, calls = braids_module.permutation_of, []

    def counting(word):
        calls.append(word)
        return permutation_of(word)

    for module in (braids_module, closure_module):
        monkeypatch.setattr(module, "permutation_of", counting)
    for strands, letters in ((2, "1 1"), (3, "1 -2"), (4, "1 2 -3")):
        calls.clear()
        code, out, _ = run(capsys, "compute", "-n", str(strands), "-w", letters, "-m", "2", "--close")
        assert code == 0 and '"cycles"' in out
        assert calls == [parse_braid_word(letters, strands)]


def _link_terms(capsys, tmp_path, *extra):
    out_file = tmp_path / "link.json"
    code, _, _ = run(
        capsys,
        "compute", "-n", "3", "-w", "1 1 2 2", "-m", "3", "--steps", "64",
        "--close", "-o", str(out_file), *extra,
    )
    assert code == 0
    return json.loads(out_file.read_text())["link"]["series"]


def test_compute_close_matches_kontsevich_link(capsys, tmp_path):
    # --close writes kontsevich_link's reduced series at the free positions,
    # its input thresholded at --zero-threshold and reduce at the same
    braid = parse_braid_word("1 1 2 2", 3)
    holonomy, cycles = kontsevich_of_braid(braid, 3), closure_skeleton(braid)
    free = free_positions(("circles", len(cycles)), 3)
    cases = (((), ZERO_THRESHOLD), (("--zero-threshold", "0"), 0.0), (("--zero-threshold", "0.3"), 0.3))
    for extra, threshold in cases:
        link = _link_terms(capsys, tmp_path, *extra)
        reduced = kontsevich_link(np.where(moduli(holonomy) >= threshold, holonomy, 0), cycles, 3, threshold)
        expected = circle_series_to_json_dict(reduced, len(cycles), 3, threshold, positions=free)
        assert json.dumps(link) == json.dumps(expected), threshold


def _moduli(series):
    return [abs(complex(t["re"], t["im"])) for t in series["terms"]]


def test_compute_close_honours_zero_threshold(capsys, tmp_path):
    assert min(_moduli(_link_terms(capsys, tmp_path))) < 0.3
    kept = _moduli(_link_terms(capsys, tmp_path, "--zero-threshold", "0.3"))
    assert kept and min(kept) >= 0.3


def test_compute_bytes_same_with_cold_or_warm_cache(capsys):
    argv = ("compute", "-n", "3", "-w", "1 -2 1 2 -1", "-m", "3", "--steps", "64")
    _letter_holonomy.cache_clear()
    cold = run(capsys, *argv)
    warm = run(capsys, *argv)
    assert _letter_holonomy.cache_info().hits > 0
    assert cold[0] == 0
    assert cold == warm


def test_compute_table_on_stdout(capsys):
    code, out, _ = run(capsys, "compute", "-n", "2", "-w", "1", "-m", "1", "--steps", "64")
    assert code == 0
    assert "(1,2)" in out
    assert "0.5" in out


def test_zero_threshold_lists_a_term_whose_modulus_equals_it(capsys, tmp_path):
    # the threshold is reached at equality: a term whose |c| is the threshold
    # is in the table and the JSON, and at the next double above it in neither
    out_file = tmp_path / "z.json"
    argv = ("compute", "-n", "3", "-m", "2", "-w", "1 2", "-o", str(out_file))
    assert run(capsys, *argv)[0] == 0
    term = json.loads(out_file.read_text())["terms"][-1]  # a degree-2 term
    name = "".join("(%d,%d)" % tuple(p) for p in term["word"])
    t = abs(complex(term["re"], term["im"]))
    for threshold, listed in ((t, True), (math.nextafter(t, math.inf), False)):
        code, table, _ = run(capsys, *argv, "--zero-threshold", repr(threshold))
        assert code == 0
        assert (name in [row.split()[1] for row in table.splitlines()[1:]]) is listed
        assert (term["word"] in [u["word"] for u in json.loads(out_file.read_text())["terms"]]) is listed


def test_compute_rejects_bad_generator(capsys):
    code, _, err = run(capsys, "compute", "-n", "3", "-w", "1 4")
    assert code == 1
    assert "generator index out of range" in err


def test_help_prints_one_line_description(capsys):
    # the cli docstring holds notes for readers of the code, which the help leaves out
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.split("\n\n")[1] == "Kontsevich integrals of braid words and their closures."
    assert "_text" not in out and "MAX_STEPS" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 1
    assert "unknown check" in err


def test_verify_braid_relation(capsys):
    code, out, _ = run(capsys, "verify", "braid-relation", "-m", "2", "--steps", "128")
    assert code == 0
    assert "PASS" in out


def test_verify_reparam(capsys):
    code, out, _ = run(capsys, "verify", "reparam", "-m", "2", "--steps", "128")
    assert code == 0
    assert "PASS" in out


def test_dims_circles(capsys):
    code, out, _ = run(capsys, "dims", "--circles", "1", "-m", "2")
    assert code == 0
    assert out.strip() == "0:1 1:0 2:1"


def test_dims_strands(capsys):
    code, out, _ = run(capsys, "dims", "--strands", "2", "-m", "3")
    assert code == 0
    assert out.strip() == "0:1 1:1 2:1 3:1"


def _kohno_dims(n_strands, top):
    """Coefficients of prod_{k=1}^{N-1} 1/(1-kt) through t^top (Kohno 1985)."""
    coefficients = [1] + [0] * top
    for k in range(1, n_strands):
        for m in range(1, top + 1):
            coefficients[m] += k * coefficients[m - 1]
    return coefficients


def test_dims_match_kohno_bar_natan_and_pinned_values(capsys):
    expected = {("--strands", n): _kohno_dims(n, top) for n, top in ((3, 5), (4, 4), (5, 3), (10, 7))}
    expected[("--circles", 1)] = [1, 0, 1, 1, 3, 4, 9]  # Bar-Natan, Topology 34 (1995)
    expected[("--circles", 2)] = [1, 1, 3, 6, 14]
    expected[("--circles", 3)] = [1, 3, 9, 25, 67]
    for (flag, size), dims in expected.items():
        code, out, _ = run(capsys, "dims", flag, str(size), "-m", str(len(dims) - 1))
        assert code == 0
        assert out == " ".join(f"{m}:{d}" for m, d in enumerate(dims)) + "\n"


def test_dims_circles_degree_zero(capsys):
    code, out, _ = run(capsys, "dims", "--circles", "1", "-m", "0")
    assert code == 0
    assert out.strip() == "0:1"


def test_steps_flag_checked_on_every_call(capsys):
    # every loop is integrated spectrally: the step count is still read and
    # validated on every call of compute and verify, though a valid one
    # changes nothing
    limit = f"error: steps 70000 exceeds the limit of {MAX_STEPS} per segment\n"
    for argv, low in (
        (("compute", "-n", "3", "-w", "1 -2", "-m", "2"), "error: need max-degree >= 0 and steps >= 1\n"),
        (("verify", "abelian", "-m", "2"), "error: need max-degree >= 0 and steps >= 1\n"),
    ):
        valid = run(capsys, *argv)
        assert valid[0] == 0
        for steps in ("32", "0", "64", "-3", "70000", "abc", "1.5"):
            from_flag = run(capsys, *argv, "--steps", steps)
            if steps in ("32", "64"):
                assert from_flag == valid
            elif steps in ("abc", "1.5"):
                assert from_flag == (1, "", f"error: argument --steps: invalid int value: {steps!r}\n")
            else:
                assert from_flag == (1, "", limit if steps == "70000" else low), steps
    from kzbraid import cli

    assert cli._build_parser() is cli._build_parser()


# the argv corpus draws on every option string of the three commands, their
# abbreviations, joined and malformed forms, and values that int, float and
# argparse's negative-number rule each read their own way
_ARGV_OPTIONS = ("-n", "--strands", "-w", "--word", "-m", "--max-degree", "--steps", "-o", "--output",
                 "--zero-threshold", "--circles")
_ARGV_ODD = ("--close", "-h", "--help", "--", "-x", "--bogus", "--str", "--max", "--st", "--s", "--circ", "--clo",
             "--zero", "-n3", "-m2", "-m=2", "--strands=3", "--max-degree=2", "-w1", "compute", "verify", "dims")
_ARGV_VALUES = ("3", "2", "0", "4", "12", "-1", "-3", "-.5", "1.5", "0.0", "1e-3", "", " ", "nan", "inf", "-inf",
                "NaN", "3_0", "+3", " 3 ", "٣", "-٣", "³", "1 2", "-1 2", "-1x 2", "-n 2", "-1.5 2",
                "-x", "-", "-1e-3", "abelian", "oracle", "bogus", "1 -2 1", "-2 1", "x", "-1\n", "1\n", "--close")
_ARGV_REQUIRED = {"compute": (("-n", "3"), ("--strands", "4")), "verify": (("abelian",), ("reparam",)),
                  "dims": (("--circles", "2"), ("--strands", "3"))}


def _argv_corpus(count, seed):
    """count argv over compute, verify and dims: each a shuffle of chunks, mostly with the required one."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        command = rng.choice(sorted(_ARGV_REQUIRED))
        chunks = [list(rng.choice(_ARGV_REQUIRED[command])) for _ in range(rng.choice((0, 1, 1, 1, 1, 2)))]
        for _ in range(rng.randrange(4)):
            draw = rng.random()
            if draw < 0.7:  # most values from the head of the list, which int and float read
                values = _ARGV_VALUES[:rng.choice((5, 5, 9, 20, len(_ARGV_VALUES)))]
                chunks.append([rng.choice(_ARGV_OPTIONS), rng.choice(values)])
            elif draw < 0.85:
                chunks.append([rng.choice(_ARGV_VALUES)])
            else:
                chunks.append([rng.choice(_ARGV_ODD)])
        rng.shuffle(chunks)
        argv = [command] + [token for chunk in chunks for token in chunk]
        if rng.random() < 0.02:
            argv[0] = rng.choice(_ARGV_ODD + _ARGV_VALUES)
        corpus.append(argv)
    return corpus


def _fields(args):
    # repr compares NaN with NaN, and tells 0.0 from -0.0 and 3 from 3.0
    return repr(sorted(vars(args).items()))


def test_read_argv_parses_as_argparse():
    # every argv the plain reader accepts must be read as argparse reads it;
    # main hands the rest to argparse
    from kzbraid import cli

    parser = cli._build_parser()
    corpus = _argv_corpus(24000, seed=7)
    read = [argv for argv in corpus if cli._read_argv(argv) is not None]
    for argv in read:
        assert _fields(cli._read_argv(argv)) == _fields(parser.parse_args(argv)), argv
    # both sides of the reader are well represented
    assert 5000 < len(read) < len(corpus) - 5000, len(read)
    assert cli._read_argv(["compute", "-n", "3", "-w", "-1 2", "-m", "-1"]).word == "-1 2"
    for argv in (["dims", "--strands", "2", "-m", "-1e3"], ["verify", "-1 x", "--steps", "-.5"]):
        assert cli._read_argv(argv) is None, argv


# argv the reader declines, with the message argparse gives them (exit code 1,
# nothing on stdout); each is one of the parent's own lines
_DECLINED = (
    ((), "the following arguments are required: command"),
    (("compute",), "the following arguments are required: -n/--strands"),
    (("compute", "-n"), "argument -n/--strands: expected one argument"),
    (("compute", "-n", "x"), "argument -n/--strands: invalid int value: 'x'"),
    (("compute", "-n", ""), "argument -n/--strands: invalid int value: ''"),
    (("compute", "-n", "nan"), "argument -n/--strands: invalid int value: 'nan'"),
    (("compute", "-n", "٣x"), "argument -n/--strands: invalid int value: '٣x'"),
    (("compute", "-n", "-x"), "argument -n/--strands: expected one argument"),
    (("compute", "-n", "3", "-m", "1.5"), "argument -m/--max-degree: invalid int value: '1.5'"),
    (("compute", "-n", "3", "-m", "-1x 2"), "argument -m/--max-degree: invalid int value: '-1x 2'"),
    (("compute", "-n", "3", "-m", "3_"), "argument -m/--max-degree: invalid int value: '3_'"),
    (("compute", "-n", "3", "-m", "-"), "argument -m/--max-degree: invalid int value: '-'"),
    (("compute", "-n", "3", "--zero-threshold", "abc"), "argument --zero-threshold: invalid float value: 'abc'"),
    (("compute", "-n", "3", "--zero-threshold=x"), "argument --zero-threshold: invalid float value: 'x'"),
    (("compute", "-n", "3", "--steps", "-inf"), "argument --steps: expected one argument"),
    (("compute", "-n", "3", "-w", "-x"), "argument -w/--word: expected one argument"),
    (("compute", "-n", "3", "-w", "-1 2", "-w"), "argument -w/--word: expected one argument"),
    (("compute", "-n", "3", "-o"), "argument -o/--output: expected one argument"),
    (("compute", "-n3", "-m", "x"), "argument -m/--max-degree: invalid int value: 'x'"),
    (("compute", "--str", "x"), "argument -n/--strands: invalid int value: 'x'"),
    (("compute", "-n", "3", "extra"), "unrecognized arguments: extra"),
    (("compute", "-n", "3", "-x"), "unrecognized arguments: -x"),
    (("compute", "-n", "3", "--close", "x"), "unrecognized arguments: x"),
    (("verify",), "the following arguments are required: check"),
    (("verify", "-m", "2"), "the following arguments are required: check"),
    (("verify", "abelian", "oracle"), "unrecognized arguments: oracle"),
    (("verify", "abelian", "-m"), "argument -m/--max-degree: expected one argument"),
    (("verify", "--steps", "2", "-1 x", "abelian"), "unrecognized arguments: abelian"),
    (("dims",), "one of the arguments --circles --strands is required"),
    (("dims", "--circles", "1", "--strands", "2"), "argument --strands: not allowed with argument --circles"),
    (("dims", "--max", "3", "--strands", "2", "--circles", "3"),
     "argument --circles: not allowed with argument --strands"),
    (("dims", "--strands", "3", "--circles"), "argument --circles: expected one argument"),
    (("dims", "--circles", "-", "-m", "2"), "argument --circles: invalid int value: '-'"),
    (("dims", "--strands", "3", "--close"), "unrecognized arguments: --close"),
)


def test_declined_argv_keep_argparse_messages(capsys):
    from kzbraid import cli

    for argv, message in _DECLINED:
        assert cli._read_argv(list(argv)) is None, argv
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


def test_unresolved_letter_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("kzbraid.transport"), "_MAX_NODES", 8)
    _letter_holonomy.cache_clear()
    try:
        code, out, err = run(capsys, "compute", "-n", "3", "-w", "1", "-m", "2")
    finally:
        _letter_holonomy.cache_clear()
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "not resolved at 8 Chebyshev nodes" in err


def test_verify_lines_do_not_depend_on_steps(capsys):
    # every check passes and prints one line whatever the step count
    for check in ("braid-relation", "far-commutation", "full-twist", "oracle", "multiplicativity", "abelian",
                  "reparam"):
        lines = {run(capsys, "verify", check, "-m", "3", "--steps", steps) for steps in ("1", "2", "16", "32", "512")}
        assert len(lines) == 1, lines
        code, out, _ = lines.pop()
        assert code == 0, out
        assert out.startswith(f"{check}: residual=") and out.endswith(" PASS\n")


def test_verify_oracle_compares_through_degree_three(capsys, monkeypatch):
    # every word of degree 1..min(3, M) of the braids "1" and "1 1" on 2
    # strands (one word per degree) and "1 2" on 3 strands (3**d words)
    # cli looks the oracle up on the transport module at call time
    transport_module = importlib.import_module("kzbraid.transport")
    oracle, degrees = transport_module.simplex_oracle, []

    def recording(loop, word, grid):
        degrees.append(len(word))
        return oracle(loop, word, grid)

    monkeypatch.setattr(transport_module, "simplex_oracle", recording)
    for max_degree, top in ((1, 1), (2, 2), (3, 3), (4, 3)):
        degrees.clear()
        code, out, _ = run(capsys, "verify", "oracle", "-m", str(max_degree))
        assert code == 0 and out.endswith(" PASS\n"), out
        assert sorted(degrees) == sorted(d for d in range(1, top + 1) for _ in range(2 + 3**d))


def test_verify_oracle_transports_only_the_degrees_it_compares(capsys, monkeypatch):
    # each of the three loops is transported to min(3, M), not to M
    transport_module = importlib.import_module("kzbraid.transport")
    transport, degrees = transport_module.transport, []

    def recording(loop, max_degree):
        degrees.append(max_degree)
        return transport(loop, max_degree)

    monkeypatch.setattr(transport_module, "transport", recording)
    for max_degree in (0, 2, 3, 5):
        degrees.clear()
        code, out, _ = run(capsys, "verify", "oracle", "-m", str(max_degree))
        assert code == 0 and out.endswith(" PASS\n"), out
        assert degrees == [min(3, max_degree)] * 3


def _reference_stdout(strands, letters, max_degree, close, threshold):
    """Stdout of compute as the word-dict series path printed it."""
    word = parse_braid_word(letters, strands)
    holonomy = kontsevich_of_braid(word, max_degree)
    terms = {
        w: c for w, c in zip(basis_words(strands, max_degree), holonomy.tolist()) if abs(c) >= threshold
    }
    lines = [f"{'deg':>3}  {'word':<24}  {'|coeff|':<22}  arg"]
    for w, c in sorted(terms.items(), key=lambda item: word_sort_key(item[0])):
        chords = "".join(f"({i},{j})" for i, j in w) or "1"
        lines.append(
            f"{len(w):>3}  {chords:<24}  {abs(c):<22.16g}  {math.atan2(c.imag, c.real):.16g}"
        )
    document = {
        "n_strands": strands,
        "max_degree": max_degree,
        "terms": [
            {"word": [list(p) for p in w], "re": c.real, "im": c.imag}
            for w, c in sorted(terms.items(), key=lambda item: word_sort_key(item[0]))
        ],
    }
    if close:
        kept = np.array([terms.get(w, 0j) for w in basis_words(strands, max_degree)])
        cycles = closure_skeleton(word)
        q = len(cycles)
        reduced = reduce(tau_project(kept, cycles, max_degree), ("circles", q), max_degree, threshold)
        document = {
            "braid": document,
            "link": {
                "components": q,
                "cycles": [list(cycle) for cycle in cycles],
                "series": circle_series_to_json_dict(
                    reduced, q, max_degree, threshold, free_positions(("circles", q), max_degree)
                ),
            },
        }
    return "\n".join(lines) + "\n" + json.dumps(document, indent=2) + "\n"


def test_compute_output_bytes_match_series_path(capsys):
    rng = random.Random(1202)
    for k in range(40):
        strands, max_degree, close = rng.randint(2, 4), rng.randint(0, 4), k % 2 == 1
        if close:
            max_degree = min(max_degree, 3)  # degree-4 circle relations take seconds
        letters = " ".join(
            str(rng.choice((1, -1)) * rng.randint(1, strands - 1)) for _ in range(rng.randint(0, 6))
        )
        steps = rng.choice((8, 16))
        threshold = ("1e-12", "1e-3", "1e6", "0")[k % 4]
        argv = ["compute", "-n", str(strands), "-m", str(max_degree), "--steps", str(steps),
                "-w", letters, "--zero-threshold", threshold] + (["--close"] if close else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        expected = _reference_stdout(strands, letters, max_degree, close, float(threshold))
        assert out == expected, argv


def test_close_output_bytes_match_series_path_at_degree_four(capsys):
    # the shape of the link-closure workload: the circle series is written
    # from cached text, which only degree 4 fills with every term kind
    for strands, letters, components in (
        (3, "1 2 -1 2", 1), (2, "1 -1 1 1", 2), (3, "2 1 2 2 -1", 2), (3, "1 1 -2 -2", 3), (4, "1 2 -1", 3),
    ):
        assert len(closure_skeleton(parse_braid_word(letters, strands))) == components
        for threshold in ("1e-12", "0", "1e-3"):
            argv = ["compute", "-n", str(strands), "-m", "4", "-w", letters, "--close",
                    "--zero-threshold", threshold]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == _reference_stdout(strands, letters, 4, True, float(threshold)), argv


def test_compute_table_matches_per_row_format(capsys):
    # the reference formats each row with str.format.  Threshold 0 lists the
    # exact zero coefficients, whose arguments atan2 gives as 0 or pi, signed
    # zeros included.  Which cancellations come out exactly 0 depends on
    # rounding: "1 1 -1 -1" has one, at degree 2.  N=4, M=4 prints 1,555
    # rows, so its floats take the certified digit kernel
    for strands, letters, max_degree in ((2, "", 3), (2, "1 1 -1 -1", 3), (4, "1 3", 3), (4, "1 -2 3 2 -1", 4)):
        if max_degree == 3:
            assert 0j in kontsevich_of_braid(parse_braid_word(letters, strands), 3).tolist()
        for threshold in ("0", "1e-12"):
            code, out, _ = run(capsys, "compute", "-n", str(strands), "-m", str(max_degree), "-w", letters,
                               "--zero-threshold", threshold)
            assert code == 0
            assert out == _reference_stdout(strands, letters, max_degree, False, float(threshold)), (strands, letters)
    # every pair of specials, alone and among enough rows for the kernel
    specials = (0.0, -0.0, 5e-324, -5e-324, math.pi, -math.pi, math.inf, math.nan, 1e16, 0.1)
    pairs = [(modulus, arg) for modulus in specials for arg in specials]
    rng = random.Random(4)
    filler = [(rng.random() * 10.0 ** rng.randint(-13, 1), rng.uniform(-math.pi, math.pi)) for _ in range(1000)]
    for rows in (pairs, pairs + filler, filler + pairs):
        column = [value for pair in rows for value in pair]
        text = _rows([f"{k}|" for k in range(len(rows))], column, _TABLE_ROW)
        assert text == "".join(
            f"{k}|{modulus:<22.16g}  {arg:.16g}\n" for k, (modulus, arg) in enumerate(rows)
        )


def test_compute_memory_at_n4_m6():
    # 56k basis words: a fresh process, numpy included, peaked at 123 MB on
    # CPython 3.11 (2-vCPU host).  Assembled from per-term f-strings, copied
    # into the enclosing document, the output grew the process by 28 MB more,
    # which a 140 MB peak bound refuses.  The peak is read as VmHWM, since
    # the ru_maxrss growth bounded before cannot fail under a test process
    # larger than the child (see _fresh_peak_kb)
    peak_kb = _fresh_peak_kb("compute", "-n", "4", "-m", "6", "--steps", "2", "-w", "1 2 3")
    assert peak_kb < 140 * 1024


def test_compute_zero_threshold_below_default_keeps_small_terms(capsys):
    argv = ("compute", "-n", "4", "-w", "1 3", "-m", "2", "--steps", "64")
    for extra, count in (((), 36), (("--zero-threshold", "0"), 1 + 6 + 36)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        table, document = out.split("\n{", 1)
        assert len(table.splitlines()) - 1 == count
        assert len(json.loads("{" + document)["terms"]) == count


def _child_env():
    """os.environ with this kzbraid first on PYTHONPATH and one BLAS thread."""
    src = str(Path(kzbraid.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


_FRESH_COMPUTE = ["compute", "-n", "3", "-w", "1 -2 1", "-m", "3", "--steps", "64"]
_FRESH_SCRIPT = f"""
import contextlib, io, sys, types
from kzbraid.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue()

def deferred():
    # json may sit in sys.modules as a lazy module that has not run
    return sorted(name for name in ("dataclasses", "fractions", "json")
                  if type(sys.modules.get(name)) is types.ModuleType)

def executed():
    # a module not yet run is still a lazy module; type() does not run it
    return sorted(name for name, module in list(sys.modules.items())
                  if name.startswith("kzbraid.") and type(module) is types.ModuleType)

def after(call):
    stdlib.append(deferred())
    ran.append(executed())
    parsers.append("argparse" in sys.modules)
    return call

# after the import, then after each call in turn
registered = sorted(name for name in sys.modules if name.startswith("kzbraid."))
stdlib, ran, parsers = [deferred()], [executed()], ["argparse" in sys.modules]
exact = [
    after(run(argv)) for argv in (
        ["dims", "--strands", "3", "-m", "3"], ["dims", "--circles", "2", "-m", "3"],
        ["dims", "--circles", "3", "-m", "4"],
    )
]
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
verify = after(run(["verify", "abelian", "-m", "2"]))
compute = [after(run(argv)) for argv in ({_FRESH_COMPUTE!r}, {_FRESH_COMPUTE + ["--close"]!r})]
usage = after(run(["--help"]))
import json  # only now, to write the report
json.dump({{"exact": exact, "numpy_loaded": loaded, "verify": verify, "compute": compute, "usage": usage,
           "stdlib_loaded": stdlib, "registered": registered, "executed": ran, "argparse_loaded": parsers}},
          sys.stdout)
"""


def test_exact_paths_leave_numpy_unloaded_in_fresh_interpreter(capsys):
    # pytest has numpy and every kzbraid module loaded already, so only a
    # fresh process shows the deferral
    done = subprocess.run([sys.executable, "-c", _FRESH_SCRIPT], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr[-500:]
    report = json.loads(done.stdout)
    assert report["numpy_loaded"] == []
    # records are named tuples, the circle echelon divides integers, and
    # every JSON text is written without json
    assert report["stdlib_loaded"] == [[]] * 8
    # the package re-exports nothing, so importing cli registers every
    # module, for lookups at call time, and each runs on the first command
    # that uses it
    modules = ["_lazy", "_text", "braids", "circles", "cli", "closure", "relations", "transport", "words"]
    assert report["registered"] == [f"kzbraid.{name}" for name in modules]
    # the modules run by the import (cli), then added by dims --strands,
    # dims --circles twice, verify, compute, compute --close and --help:
    # only compute writes its table and JSON through _text
    added = [
        ["_lazy", "cli"], ["relations", "words"], ["circles"], [], ["braids", "transport"], ["_text"],
        ["closure"], [],
    ]
    assert len(report["executed"]) == len(added)
    ran = []
    for names, executed in zip(added, report["executed"]):
        ran = sorted(ran + names)
        assert executed == [f"kzbraid.{name}" for name in ran]
    assert ran == modules
    # every command line reads its argv without argparse, which --help alone imports
    assert report["argparse_loaded"] == [False] * 7 + [True]
    usage = report["usage"]
    assert usage[0] == 0 and usage[1].startswith("usage: kzbraid")
    dims_strands, dims_circles, dims_three_circles = report["exact"]
    assert dims_strands == [0, "0:1 1:3 2:7 3:15\n"]
    assert dims_circles == [0, run(capsys, "dims", "--circles", "2", "-m", "3")[1]]
    assert dims_three_circles == [0, "0:1 1:3 2:9 3:25 4:67\n"]
    assert report["verify"][0] == 0 and report["verify"][1].startswith("abelian: residual=")
    for argv, fresh in zip((_FRESH_COMPUTE, _FRESH_COMPUTE + ["--close"]), report["compute"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert fresh == [code, out]


_SUBMODULE_SCRIPT = """
import sys, kzbraid
registered = [name for name in sys.modules if name.startswith("kzbraid.")]
import kzbraid.transport as t
assert t is sys.modules["kzbraid.transport"], t
t.kontsevich_of_braid
from kzbraid import transport
assert transport is t, transport
print(registered)
"""


def test_package_names_its_submodules_in_fresh_interpreter():
    # the package re-exports nothing, so `kzbraid.transport` is the module,
    # not the function of that name, and importing kzbraid runs no module
    done = subprocess.run([sys.executable, "-c", _SUBMODULE_SCRIPT], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "[]\n"


def test_drawing_table_builds_no_table_of_fewer_circles():
    # a fresh interpreter, so that no table cache the other tests share is cleared;
    # the splits of _orbit_table(4, 3) with empty circles walk their non-empty circles
    script = "from kzbraid.circles import _orbit_table as t; t(4, 3); print(t.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "1\n"


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_capped(*argv):
    """kzbraid in a child process limited to 2 GB of address space.

    An over-large request that gets past the budget check then ends in a
    MemoryError traceback instead of exhausting the machine's memory.
    """
    return subprocess.run(
        [sys.executable, "-m", "kzbraid.cli", *argv],
        capture_output=True, text=True, env=_child_env(), preexec_fn=_cap_address_space, timeout=120,
    )


def test_over_word_budget_refused_before_allocating():
    # 45**6 ~ 8.3e9 words for compute.  verify is refused by each check's
    # degree cap, which the word budget allows (braid-relation at degree 14
    # would need 3**14 words on 3 strands, far-commutation at degree 8 6**8
    # on 4).  Two strands have one word per degree but M (M + 1) / 2 chords
    # in all, and degree 0 still labels all N (N - 1) / 2 pairs for the
    # output, so the budget counts both.  dims --strands builds no word: it
    # is refused by its (N - 1)(M + 1)(M + 2) / 2 counting steps instead,
    # which keeps every count it prints under int-to-str's 4,300 digits
    for argv, message in (
        (("compute", "-n", "10", "-m", "6"), "basis words"),
        (("verify", "braid-relation", "-m", "14"), "runs to degree 11 at most"),
        (("verify", "far-commutation", "-m", "8"), "runs to degree 7 at most"),
        (("compute", "-n", "2", "-m", "2000", "-w", "1"), "basis words"),
        (("compute", "-n", "2000", "-m", "0", "-w", "1"), "basis words"),
        (("dims", "--strands", "2", "-m", "2895"), "counting steps"),
        (("dims", "--strands", "8", "-m", "1094"), "counting steps"),
    ):
        start = time.monotonic()
        done = _run_capped(*argv)
        assert time.monotonic() - start < 5, argv
        assert done.returncode == 1, done.stderr[-500:]
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert message in done.stderr
    # the longest count an admitted request prints
    done = _run_capped("dims", "--strands", "8", "-m", "1093")
    assert done.returncode == 0, done.stderr[-500:]
    counts = [entry.split(":")[1] for entry in done.stdout.split()]
    assert len(counts) == 1094 and max(map(len, counts)) == 926
    # at the bound: 2 strands to degree 2894, 4,194,305 strands at degree 0
    _check_count_steps(2, 2894)
    _check_count_steps(4194305, 0)
    for n_strands, max_degree in ((2, 2895), (4194306, 0)):
        with pytest.raises(ValueError, match="counting steps"):
            _check_count_steps(n_strands, max_degree)


def test_most_strands_under_the_word_budget_run():
    # 1,448 strands pass the word budget to degree 1 (1,047,628 pairs).  A
    # letter samples only its 2,893 moved pairs; sampling every pair it ended
    # in a MemoryError at a 1.65 GB peak, at degree 0 as well.  Each line took
    # 1.7-2.9 s at a 253-449 MB peak on a 2-vCPU host
    for argv in (("-m", "1", "-w", "1 -2 3"), ("-m", "0", "-w", "1")):
        start = time.monotonic()
        done = _run_capped("compute", "-n", "1448", *argv)
        assert time.monotonic() - start < 30, argv
        assert done.returncode == 0, done.stderr[-500:]
        assert done.stderr == ""
        document = json.loads("{" + done.stdout.split("\n{", 1)[1])
        assert document["n_strands"] == 1448 and document["terms"][0]["re"] == 1.0, argv


def test_distinct_letters_memory_at_n30_m2():
    # the 58 distinct letters of 30 strands: a fresh process peaked at 459 MB
    # while each cached letter and relabel index held all 435 pairs' 189,631
    # words, and at 157-173 MB once a letter holds its 57 moved pairs' 3,307
    word = " ".join(str(sign * k) for sign in (1, -1) for k in range(1, 30))
    assert _fresh_peak_kb("compute", "-n", "30", "-m", "2", "-w", word) < 300 * 1024


def test_degree_zero_memory_at_n1448():
    # degree 0 prints the empty word alone: a fresh process peaked at 253 MB
    # (255 with --close) while the table's row texts, the JSON heads and the
    # closure's tau index were built over all 1,047,628 pairs, and at 38 MB
    # once none is
    for extra in ((), ("--close",)):
        peak_kb = _fresh_peak_kb("compute", "-n", "1448", "-m", "0", "-w", "1", *extra)
        assert peak_kb < 100 * 1024, (extra, peak_kb)


def _fresh_peak_kb(*argv):
    """Peak RSS in kB of a fresh process that runs main(argv) with stdout discarded, which must exit 0.

    The peak is the child's VmHWM: Linux carries the forking process's
    ru_maxrss over exec, so under a grown test process ru_maxrss read 112 to
    222 MB for a child that peaks at 38 MB.
    """
    script = (
        "import contextlib, os, sys\n"
        "from kzbraid.cli import main\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(code, next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr[-500:]
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0
    return peak_kb


def test_verify_refuses_degrees_past_its_cap(capsys):
    # each check's cap keeps a fresh line within about 10 s; one degree more
    # is refused before any work, by the cap, also where it is the word budget's degree
    for check, (_, top_degree) in _CHECKS.items():
        start = time.monotonic()
        code, out, err = run(capsys, "verify", check, "-m", str(top_degree + 1))
        assert time.monotonic() - start < 1, check
        assert (code, out) == (1, ""), check
        assert err == f"error: verify {check} runs to degree {top_degree} at most, got {top_degree + 1}\n"


def test_verify_reduces_braids_without_a_threshold(capsys):
    # at the default threshold 1e-12 each braid dropped its own small
    # coefficients before the normal form, which grew their difference to 1e-10
    code, out, _ = run(capsys, "verify", "braid-relation", "-m", "10")
    assert code == 0 and out.endswith(" PASS\n")
    assert float(out.split("residual=")[1].split()[0]) <= 1e-15


def test_refused_steps_leave_output_file_untouched(capsys, tmp_path):
    # --steps is checked with the other arguments, before -o is opened
    target = tmp_path / "existing.json"
    target.write_bytes(b'{"kept": true}\n')
    code, out, err = run(capsys, "compute", "-n", "2", "-w", "1", "-m", "1", "--steps", "70000", "-o", str(target))
    assert (code, out, err) == (1, "", f"error: steps 70000 exceeds the limit of {MAX_STEPS} per segment\n")
    assert target.read_bytes() == b'{"kept": true}\n'


def test_oversized_steps_refused_before_allocating():
    # steps no longer change any result, but a count above the limit is
    # still refused, before anything is sampled
    for argv in (
        ("compute", "-n", "2", "-w", "1", "-m", "1", "--steps", "400000000"),
        ("verify", "reparam", "-m", "1", "--steps", "400000000"),
    ):
        done = _run_capped(*argv)
        assert done.returncode == 1, done.stderr[-500:]
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert f"limit of {MAX_STEPS}" in done.stderr


def test_over_circle_budget_refused_quickly():
    # two circles to degree 8 walk 17 * 15!! ~ 3.4e7 matchings in the top degree;
    # 723 circles to degree 1 have 261,727 matchings, under the matching bound,
    # but 189,752,073 drawing-table cells, minutes of table building; a
    # 300-strand identity closes into 300 circles (13,635,600 cells)
    # (matchings, cells) = _circle_counts(q, M)
    assert _circle_counts(4, 4)[0] <= MAX_CIRCLE_MATCHINGS  # four-component closures at M=4
    assert _circle_counts(1, 7)[1] <= MAX_CIRCLE_CELLS and _circle_counts(6, 4)[1] <= MAX_CIRCLE_CELLS
    assert _circle_counts(723, 1)[0] <= MAX_CIRCLE_MATCHINGS < _circle_counts(724, 1)[0]
    assert (_circle_counts(1, 7)[1], _circle_counts(723, 1)[1]) == (2_173_624, 189_752_073)
    for argv, bound in (
        (("dims", "--circles", "2", "-m", "8"), "chord matchings"),
        (("compute", "-n", "2", "-m", "8", "--steps", "8", "--close"), "chord matchings"),
        (("dims", "--circles", "723", "-m", "1"), "drawing-table cells"),
        (("compute", "-n", "300", "-m", "1", "--close"), "drawing-table cells"),
    ):
        start = time.monotonic()
        done = _run_capped(*argv)
        assert time.monotonic() - start < 5, argv
        assert done.returncode == 1, done.stderr[-500:]
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert bound in done.stderr, argv
