import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubemorse.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from cubemorse import cli, matching
from cubemorse.core import FormatError
from .helpers import from_json_dict, parse_csv, top_cubes

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
    parsed = parse_csv(capsys.readouterr().out)
    assert parsed["betti"] == [1, 1, 0]
    assert parsed["cell_count"] == 48
    assert parsed["rounds"] == 1


def test_parse_csv_rejects_garbage():
    with pytest.raises(FormatError):
        parse_csv("just one line\n")


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


@pytest.mark.parametrize(
    "argv, power",
    [
        (["sphere", "--kind", "s", "--dim", "400000"], "3^400001"),
        (["braid", "--nfold", "20000"], "11^40000"),
        (["cubical", "BIG"], "3^10000"),
        (["verify", "BIG"], "3^10000"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_size_guard_names_huge_estimates_as_powers(tmp_path, capsys, argv, power):
    """An estimate past 64 bits is refused as a power, never written out in
    decimal (which Python refuses past 4,300 digits)."""
    big = tmp_path / "big.txt"
    big.write_text("10000 1\n" + " ".join(["0"] * 10000) + "\n")
    assert main([str(big) if a == "BIG" else a for a in argv]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"about {power} cells (guard " in captured.err and "pass --force" in captured.err


def test_braid_guard_runs_before_the_skeleton_is_built(tmp_path, monkeypatch, capsys):
    def built(*args, **kwargs):
        raise AssertionError("the skeleton was built before the size guard ran")

    for name in ("torus_knot", "nfold_cover", "validate_skeleton"):
        monkeypatch.setattr(cli, name, built)
    wide = tmp_path / "wide.braid"
    wide.write_text("100 5\n" + "0 0 0 0 0 0\n" * 100)  # 199^5 cells, and no permutation
    for argv in (["--torus", "20000"], ["--nfold", "20"], ["--file", str(wide)]):
        assert main(["braid", *argv]) == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.startswith("error: this braid complex would hold about ") and err.count("\n") == 1


def test_cubical_file_beyond_int64(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    for anchor in ("0 0", f"0 {10**19}"):
        f.write_text(f"2 {10**20}\n{anchor}\n")
        assert main(["cubical", str(f)]) == EXIT_GUARD
        assert "exceed int64" in capsys.readouterr().err


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
    final = from_json_dict(payload)
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


@pytest.mark.parametrize("spec, power", [("sphere:10000", "3^10001"), ("sphere:400000", "3^400001")])
def test_verify_gen_guard_runs_before_the_complex_is_built(monkeypatch, capsys, spec, power):
    """``--gen`` refuses a complex above validate_complex's limit before it
    is built, with or without --force, in one line."""
    def built(*args):
        raise AssertionError("the complex was built before the size guard ran")

    for name in ("full", "sphere", "top_sphere"):
        monkeypatch.setattr(cli.CubicalComplex, name, built)
    for force in ([], ["--force"]):
        assert main([*force, "verify", "--gen", spec]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: this complex would hold about {power} cells (guard 1000000)\n"


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
        code = real_sweep(cx, grade_of, ids).copy()
        at = {c: i for i, c in enumerate((cx.member_ids() if ids is None else ids).tolist())}
        if corruption == "flip-sign":
            wrong = {0: -1}  # cell 0 now pairs with the id -1
        else:
            wrong = {2: 1, 3: -1}  # vertex with digits 2,0,... and edge with digits 0,1,...
        for c, k in wrong.items():
            if c in at:
                code[at[c]] = k
        return code

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


@pytest.mark.parametrize(
    "source, wrong",
    [
        ("grid", {8: 1, 9: -1, 10: 0, 17: 0}),  # +1 on digit 2m
        ("grid", {1: 1, 2: -1, 0: 0, 5: 0}),  # +1 on an odd digit
        ("grid", {1: -2, 5: -1}),  # upper codes of the wrong level
        ("dense", {2: 1, 7: -1, 0: 0, 1: 0}),  # a non-member partner
        ("grid", {0: 4}),  # out-of-range codes
        ("dense", {0: -128}),
    ],
)
def test_verify_reports_corrupt_sweeps_as_the_per_cell_path(monkeypatch, capsys, tmp_path, source, wrong):
    """Sweeps that keep the +t and -t codes of each level equal in number,
    on ``sphere:2`` and on a dense explicit complex (two squares of
    C(2; 2)): ``verify`` prints and exits exactly as its per-cell checks
    do, to which the array checks fall back.  A code of -128 indexes past
    the oracle's steps: the matching check reports that as an oracle error
    and the flow checks end in exit code 2."""
    if source == "grid":
        given = ["--gen", "sphere:2"]
    else:
        f = tmp_path / "squares.txt"
        f.write_text("2 2\n0 0\n1 1\n")
        given = [str(f)]
    real_sweep = matching.template_sweep

    def broken_sweep(cx, grade_of=None, ids=None):
        code = real_sweep(cx, grade_of, ids).copy()
        at = {c: i for i, c in enumerate((cx.member_ids() if ids is None else ids).tolist())}
        for c, k in wrong.items():
            if c in at:
                code[at[c]] = k
        return code

    def run():
        try:
            status = main(["verify", *given, "--acyclic", "--stable"])
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            status = type(exc), str(exc)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    monkeypatch.setattr(matching, "template_sweep", broken_sweep)
    got = run()
    monkeypatch.setattr(matching, "_array_view", lambda cx, oracle: None)
    assert got == run()
    assert isinstance(got[0], int), got  # an exit status, never an exception


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


def test_bench_usage(tmp_path, monkeypatch, capsys):
    assert main(["bench"]) == EXIT_USAGE
    assert main(["bench", "--repeat", "0", "sphere", "--kind", "s", "--dim", "1"]) == EXIT_USAGE
    assert main(["bench", "verify", "--gen", "sphere:1"]) == EXIT_USAGE
    # bench prints timings only: the inner command's record and file flags are refused
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for flags in (["--json", "--matrix", "x.json"], ["--csv"], ["--dot", "p.dot"], ["--matrix", "x.json"]):
        assert main(["bench", "--repeat", "1", "braid", "--nfold", "1", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: bench takes no {flags[0]} after the command it times\n"
    assert list(tmp_path.iterdir()) == []


def test_json_csv_flags_conflict(capsys):
    assert main(["sphere", "--kind", "s", "--dim", "1", "--json", "--csv"]) == EXIT_USAGE


def test_import_does_not_load_scipy():
    """``import cubemorse`` loads its five library modules, no other module
    of the package (test fixtures stay in ``tests/``), and not scipy."""
    import json
    import os
    import subprocess
    import sys

    import cubemorse

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cubemorse.__file__)))
    code = (
        "import json, sys, cubemorse; print(json.dumps(['scipy' in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('cubemorse.'))]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    scipy, modules = json.loads(out.stdout)
    assert not scipy
    assert modules == [f"cubemorse.{m}" for m in ("braid", "core", "cubical", "matching", "morse")]


def _run_braid_nfold2(prelude: str) -> str:
    """`braid --nfold 2 --json` in a fresh interpreter after ``prelude``,
    with the ``timing_ms`` line removed."""
    import os
    import re
    import subprocess
    import sys

    import cubemorse

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cubemorse.__file__)))
    code = (
        prelude
        + "from cubemorse.cli import main\n"
        + "raise SystemExit(main(['braid', '--nfold', '2', '--json']))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == EXIT_OK, out.stderr
    return re.sub(r'\n\s*"timing_ms": [^\n]*', "", out.stdout)


def test_braid_runs_with_scipy_blocked():
    block = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('the block let scipy in')\n"
    )
    blocked = _run_braid_nfold2(block)
    assert '"timing_ms"' not in blocked
    assert blocked == _run_braid_nfold2("")


def test_package_depends_on_numpy_alone():
    import ast
    import re
    from pathlib import Path

    import cubemorse

    tomllib = pytest.importorskip("tomllib")
    for path in sorted(Path(cubemorse.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "scipy" for n in names), f"{path.name}:{node.lineno}"
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


# -- properties -------------------------------------------------------------

@st.composite
def _number_files(draw):
    """A header ``a b`` of two small numbers over lines of a or b + 1 small
    numbers: top-cube and strand files, valid or nearly so, so that the
    checks past the parsers run too.  The complexes they make are tiny."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    line = st.sampled_from([a, b + 1]).flatmap(
        lambda k: st.lists(st.integers(-1, 4).map(str), min_size=k, max_size=k)
    )
    lines = draw(st.lists(line, max_size=4))
    return "\n".join(" ".join(x) for x in [[str(a), str(b)], *lines]).encode()


_garbage = st.one_of(
    st.binary(max_size=200),  # any bytes, non-UTF-8 included
    st.text(max_size=200).map(lambda t: t.encode("utf-8", "surrogatepass")),
    _number_files(),
)


def _run_in_process(argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [["cubical"], ["braid", "--file"], ["verify"]], ids=lambda a: a[0])
@settings(max_examples=80, deadline=None, database=None)
@given(data=_garbage)
def test_garbage_files_end_in_an_exit_code(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        code, _, err = _run_in_process([*argv, path])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_GUARD)
    assert "Traceback" not in err


@st.composite
def _gen_specs(draw):
    """``verify --gen`` arguments, valid or not: a kind and up to three
    numbers, or any short text.  A valid spec builds under 10^5 cells or is
    refused by the 10^6 guard, so no example builds a large complex."""
    flags = draw(st.sampled_from([[], ["--acyclic"], ["--stable"]]))
    if draw(st.integers(0, 3)) == 0:
        return [*flags, draw(st.text(max_size=12))]
    kind = draw(st.sampled_from(["sphere", "stop", "full", "cube"]))
    num = st.one_of(st.integers(-2, 12), st.integers(13, 10**6))
    size = 2 if kind == "full" else 1
    nums = draw(st.one_of(st.lists(num, min_size=size, max_size=size), st.lists(num, max_size=3)))
    digits = 0.0  # log10 of the cells a valid spec builds
    if kind in ("sphere", "stop") and len(nums) == 1 and nums[0] >= 1:
        digits = (nums[0] + 1) * math.log10(3 if kind == "sphere" else 7)
    elif kind == "full" and len(nums) == 2 and min(nums) >= 1:
        digits = nums[1] * math.log10(2 * nums[0] + 1)
    assume(digits < 5 or digits > 6)
    return [*flags, f"{kind}:{','.join(map(str, nums))}"]


@settings(max_examples=60, deadline=None, database=None)
@given(_gen_specs())
def test_gen_specs_end_in_an_exit_code(args):
    *flags, spec = args
    code, _, err = _run_in_process(["verify", *flags, "--gen", spec])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_GUARD)
    assert "Traceback" not in err


@settings(max_examples=30, deadline=None, database=None)
@given(top_cubes())
def test_cubical_json_is_stable_across_reruns(tops):
    """Two runs on one top-cube file print the same record, timing aside."""
    m, d, anchors = tops
    text = f"{d} {m}\n" + "".join(" ".join(map(str, a)) + "\n" for a in anchors)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tops.txt")
        with open(path, "w") as fh:
            fh.write(text)
        runs = [_run_in_process(["cubical", path, "--json"]) for _ in range(2)]
    assert runs[0][0] == runs[1][0] == EXIT_OK
    first, second = (re.subn(r'"timing_ms": [^,}]+', "", out) for _, out, _ in runs)
    assert first == second and first[1] == 1 and '"betti"' in first[0]
