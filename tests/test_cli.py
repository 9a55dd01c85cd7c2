import json

from kzbraid.cli import main
from kzbraid.circles import circle_series_to_json_dict
from kzbraid.closure import kontsevich_link
from kzbraid.words import series_from_json_dict
from kzbraid.transport import _letter_holonomy, kontsevich_of_braid
from kzbraid.braids import parse_braid_word


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
    parsed = series_from_json_dict(json.loads(out_file.read_text()))
    direct = kontsevich_of_braid(parse_braid_word("1 1", 2), 2, 128)
    assert parsed.sup_diff(direct) < 1e-12


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
    link = _link_terms(capsys, tmp_path)
    direct = kontsevich_link(parse_braid_word("1 1 2 2", 3), 3, 64)
    expected = circle_series_to_json_dict(direct.reduced.to_series())
    assert json.dumps(link) == json.dumps(expected)


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


def test_compute_rejects_bad_generator(capsys):
    code, _, err = run(capsys, "compute", "-n", "3", "-w", "1 4")
    assert code == 1
    assert "generator index out of range" in err


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


def test_dims_circles_degree_zero(capsys):
    code, out, _ = run(capsys, "dims", "--circles", "1", "-m", "0")
    assert code == 0
    assert out.strip() == "0:1"


def test_steps_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("KZBRAID_STEPS", "32")
    from kzbraid import cli

    parser = cli._build_parser()
    args = parser.parse_args(["compute", "-n", "2", "-w", "1"])
    assert args.steps == 32


def test_bad_steps_env_is_validation_error(capsys, monkeypatch):
    monkeypatch.setenv("KZBRAID_STEPS", "abc")
    code, out, err = run(capsys, "dims", "--strands", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "KZBRAID_STEPS" in err
