import json

import pytest

from cubemorse.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunResult,
    main,
)
from cubemorse import matching
from cubemorse.core import ExplicitComplex, FormatError

REFERENCE_TEXT = "6 2\n0 0 0\n1 3 1\n2 1 2\n3 4 3\n4 2 4\n5 5 5\n"


def test_sphere_human_output(capsys):
    assert main(["sphere", "--kind", "s", "--dim", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "betti [1, 0, 1]" in out
    assert "1 round(s)" in out


def test_sphere_json_output(capsys):
    assert main(["sphere", "--kind", "s", "--dim", "3", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == [1, 0, 0, 1]
    assert data["rounds"] == 1
    assert data["cell_count"] == 80
    assert data["command"] == {"cmd": "sphere", "kind": "s", "dim": 3}
    assert data["conley"] is None


def test_sphere_csv_round_trip(capsys):
    assert main(["sphere", "--kind", "stop", "--dim", "1", "--csv"]) == EXIT_OK
    parsed = RunResult.parse_csv(capsys.readouterr().out)
    assert parsed["betti"] == [1, 1, 0]
    assert parsed["cell_count"] == 48
    assert parsed["rounds"] == 1


def test_parse_csv_rejects_garbage():
    with pytest.raises(FormatError):
        RunResult.parse_csv("just one line\n")


def test_sphere_usage_errors(capsys):
    assert main(["sphere", "--kind", "s", "--dim", "0"]) == EXIT_USAGE
    assert main(["sphere", "--kind", "x", "--dim", "2"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_sphere_size_guard(capsys):
    assert main(["sphere", "--kind", "stop", "--dim", "12"]) == EXIT_GUARD
    assert "guard" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK


def test_cubical_file(tmp_path, capsys):
    f = tmp_path / "squares.txt"
    f.write_text("2 2\n0 0\n1 1\n")
    assert main(["cubical", str(f), "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["cell_count"] == 17
    assert data["betti"] == [1, 0, 0]
    assert data["command"]["file"] == "squares.txt"


def test_cubical_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2 2\n0\n")
    assert main(["cubical", str(f)]) == EXIT_VALIDATION
    assert main(["cubical", str(tmp_path / "missing.txt")]) == EXIT_USAGE


def test_braid_nfold_json(capsys):
    assert main(["braid", "--nfold", "1", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["cell_count"] == 121
    conley = data["conley"]
    assert conley["scc_count"] == 13
    assert conley["tower_height"] == 2
    assert conley["first_round_cells"] == 7
    assert conley["conley_cells"] == 3
    assert conley["cells"] == [[0, 0, 1], [7, 1, 1], [12, 0, 1]]
    assert conley["boundary"] == [[24, 61, 1], [120, 61, 1]]


def test_braid_file_matches_nfold(tmp_path, capsys):
    f = tmp_path / "ref.braid"
    f.write_text(REFERENCE_TEXT)
    assert main(["braid", "--file", str(f), "--json"]) == EXIT_OK
    from_file = json.loads(capsys.readouterr().out)
    assert main(["braid", "--nfold", "1", "--json"]) == EXIT_OK
    from_gen = json.loads(capsys.readouterr().out)
    assert from_file["conley"] == from_gen["conley"]


def test_braid_artifacts(tmp_path, capsys):
    dot = tmp_path / "poset.dot"
    mat = tmp_path / "matrix.json"
    assert (
        main(["braid", "--nfold", "1", "--dot", str(dot), "--matrix", str(mat)])
        == EXIT_OK
    )
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "tops=" in text
    payload = json.loads(mat.read_text())
    final = ExplicitComplex.from_json_dict(payload)
    assert final.cell_count == 3
    assert final.grades == {24: 0, 61: 7, 120: 12}
    assert final.boundary(61) == (24, 120)
    # both vertex grades sit below the connecting 1-cell's grade
    assert payload["poset_edges"] == [[0, 7], [12, 7]]


def test_braid_torus_human(capsys):
    assert main(["braid", "--torus", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cells" in out and "tower" in out


def test_braid_bad_skeleton_file(tmp_path, capsys):
    f = tmp_path / "bad.braid"
    f.write_text("2 2\n0 1 0\n1 1 1\n")
    assert main(["braid", "--file", str(f)]) == EXIT_VALIDATION
    f2 = tmp_path / "short.braid"
    f2.write_text("3 2\n0 0 0\n")
    assert main(["braid", "--file", str(f2)]) == EXIT_VALIDATION
    f3 = tmp_path / "one.braid"
    f3.write_text("1 2\n0 0 0\n")
    assert main(["braid", "--file", str(f3)]) == EXIT_VALIDATION


def test_braid_usage(capsys):
    assert main(["braid"]) == EXIT_USAGE
    assert main(["braid", "--nfold", "0"]) == EXIT_USAGE
    assert main(["braid", "--torus", "2"]) == EXIT_USAGE
    assert main(["braid", "--nfold", "1", "--torus", "5"]) == EXIT_USAGE


def test_verify_generated(capsys):
    assert main(["verify", "--gen", "sphere:2", "--acyclic", "--stable"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "complex: ok" in out
    assert "matching: ok" in out
    assert "acyclic: ok" in out
    assert "stable: ok" in out


def test_verify_full_grid(capsys):
    assert main(["verify", "--gen", "full:2,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "complex: ok" in out


def test_verify_file(tmp_path, capsys):
    f = tmp_path / "tops.txt"
    f.write_text("2 2\n0 0\n")
    assert main(["verify", str(f), "--acyclic"]) == EXIT_OK


def test_verify_usage(capsys):
    assert main(["verify"]) == EXIT_USAGE
    assert main(["verify", "--gen", "sphere:2", "extra.txt"]) == EXIT_USAGE
    assert main(["verify", "--gen", "nope:3"]) == EXIT_USAGE
    assert main(["verify", "--gen", "sphere:x"]) == EXIT_USAGE


@pytest.mark.parametrize("source", ["grid", "explicit"])
@pytest.mark.parametrize("corruption", ["flip-sign", "non-incident"])
def test_verify_checks_the_production_sweep(monkeypatch, capsys, tmp_path, corruption, source):
    # a grid is first swept one fiber at a time, an explicit complex whole
    if source == "grid":
        given = ["--gen", "sphere:3"]
    else:
        f = tmp_path / "cube.txt"
        f.write_text("3 1\n0 0 0\n")  # the closed unit cube of C(1; 3)
        given = [str(f)]
    real_sweep = matching.template_sweep

    def broken_sweep(cx, grade_of=None, ids=None):
        ids, code = real_sweep(cx, grade_of, ids)
        code = code.copy()
        at = {c: i for i, c in enumerate(ids.tolist())}
        if corruption == "flip-sign":
            wrong = {0: -1}  # cell 0 now pairs with the id -1
        else:
            wrong = {2: 1, 3: -1}  # vertex with digits 2,0,... and edge with digits 0,1,...
        for c, k in wrong.items():
            if c in at:
                code[at[c]] = k
        return ids, code

    monkeypatch.setattr(matching, "template_sweep", broken_sweep)
    assert main(["verify", *given, "--acyclic", "--stable"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("complex: ok")
    assert lines[1].startswith("matching: ") and not lines[1].startswith("matching: ok")
    assert "Traceback" not in captured.err
    if corruption == "flip-sign":
        # --acyclic asks the dimension of the non-member partner: exit 2, no traceback
        assert "error: cell -1 is not a member" in captured.err


@pytest.mark.parametrize("flag, check", [("--acyclic", "verify_acyclic"), ("--stable", "verify_stable")])
def test_verify_refuses_oversized_flow_checks_first(capsys, flag, check):
    assert main(["verify", "--gen", "sphere:10", flag]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {check} refuses 177146 cells (limit 100000)\n"


def test_verify_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("not a header\n")
    assert main(["verify", str(f)]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [["cubical"], ["verify"], ["braid", "--file"]])
def test_non_utf8_file_is_a_format_error(tmp_path, capsys, argv):
    f = tmp_path / "binary.txt"
    f.write_bytes(b"\xff\xfe")
    assert main([*argv, str(f)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_human(capsys):
    assert main(["bench", "--repeat", "2", "sphere", "--kind", "s", "--dim", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("bench sphere")
    assert "mean" in out and "2 run(s)" in out


def test_bench_json(capsys):
    assert (
        main(["bench", "--repeat", "3", "--json", "braid", "--nfold", "1"]) == EXIT_OK
    )
    data = json.loads(capsys.readouterr().out)
    assert data["repeat"] == 3
    assert len(data["runs_ms"]) == 3
    assert data["mean_ms"] >= 0


def test_bench_usage(capsys):
    assert main(["bench"]) == EXIT_USAGE
    assert main(["bench", "--repeat", "0", "sphere", "--kind", "s", "--dim", "1"]) == EXIT_USAGE
    assert main(["bench", "verify", "--gen", "sphere:1"]) == EXIT_USAGE


def test_json_csv_flags_conflict(capsys):
    assert main(["sphere", "--kind", "s", "--dim", "1", "--json", "--csv"]) == EXIT_USAGE


def test_import_does_not_load_scipy():
    import os
    import subprocess
    import sys

    import cubemorse

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cubemorse.__file__)))
    code = "import sys, cubemorse; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
