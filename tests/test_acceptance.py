"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with the measured values.

Run with ``pytest tests/test_acceptance.py -v``; the long v3 cover case is
marked slow and can be skipped with ``-m "not slow"``.
"""
import json
import math
import random
import time

import pytest

from cubemorse.braid import (
    build_braid_complex,
    crossing_table,
    nfold_cover,
    reference_braid,
    torus_knot,
)
from cubemorse.cli import main
from cubemorse.core import validate_complex
from cubemorse.cubical import CubicalComplex
from cubemorse.matching import (
    TemplateMatching,
    verify_acyclic,
    verify_matching,
    verify_stable,
)
from cubemorse.morse import (
    connection_matrix,
    generic_round,
    homology,
    reduce_round,
    template_round,
)
from .helpers import (
    HypercubeComplex,
    SequenceMatching,
    betti_oracle,
    canonical_form,
    crossing_number,
    mate,
    mate_table,
    morse_complex,
    random_cubical_complex,
    random_hypercube_complex,
    strip_zeros,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_conley(sk):
    bc = build_braid_complex(sk)
    res = connection_matrix(bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts())
    return bc, res


def test_c01_sphere_homology_small_dims(capsys):
    t0 = time.perf_counter()
    bad = []
    for d in range(1, 9):
        cx = CubicalComplex.sphere(d)
        res = homology(cx)
        want = [1] + [0] * (d - 1) + [1]
        if res.betti != want or res.rounds != 1 or res.complex.cell_count != 2:
            bad.append((d, res.betti, res.rounds, res.complex.cell_count))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            1,
            not bad and elapsed < 10.0,
            f"sphere d=1..8 Betti/rounds/criticals exact, {elapsed:.2f}s (< 10 s)"
            + (f"; mismatches {bad}" if bad else ""),
        )


def test_c02_top_sphere_homology(capsys):
    t0 = time.perf_counter()
    bad = []
    for d in range(1, 5):
        cx = CubicalComplex.top_sphere(d)
        res = homology(cx)
        # the ambient grid keeps (d+1)-cells, so one trailing zero is kept
        want = [1] + [0] * (d - 1) + [1, 0]
        if (
            res.betti != want
            or res.rounds != 1
            or res.complex.cell_count != 2
            or cx.cell_count != 7 ** (d + 1) - 1
        ):
            bad.append((d, res.betti, res.rounds))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            2,
            not bad and elapsed < 30.0,
            f"thick sphere d=1..4 Betti/rounds/criticals exact, {elapsed:.2f}s (< 30 s)"
            + (f"; mismatches {bad}" if bad else ""),
        )


def test_c03_near_linear_scaling(capsys):
    pts = []
    for d in range(6, 13):
        cx = CubicalComplex.sphere(d)
        t0 = time.perf_counter()
        homology(cx)
        pts.append((cx.cell_count, time.perf_counter() - t0))
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(t) for _, t in pts]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    with capsys.disabled():
        report(
            3,
            slope <= 1.3,
            f"log-log time/cells slope over sphere d=6..12 is {slope:.3f} (<= 1.3)",
        )


def test_c04_braid_v1(capsys):
    t0 = time.perf_counter()
    bc, res = run_conley(reference_braid())
    elapsed = time.perf_counter() - t0
    ok = (
        bc.cx.cell_count == 121
        and bc.poset.n == 13
        and len([a for a in bc.skeleton.strands]) == 6
        and res.round_sizes[0] == 7
        and res.complex.cell_count == 3
        and res.tower == 2
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            4,
            ok,
            f"v1: {bc.cx.cell_count} cells, {bc.poset.n} classes, "
            f"connection matrix {res.complex.cell_count}, tower {res.tower}, "
            f"{elapsed * 1000:.0f} ms (< 1 s)",
        )


def test_c05_braid_v2(capsys):
    t0 = time.perf_counter()
    bc, res = run_conley(nfold_cover(reference_braid(), 2))
    elapsed = time.perf_counter() - t0
    ok = (
        bc.cx.cell_count == 14641
        and bc.poset.n == 114
        and res.complex.cell_count == 33
        and res.tower == 2
        and elapsed < 30.0
    )
    with capsys.disabled():
        report(
            5,
            ok,
            f"v2: {bc.cx.cell_count} cells, {bc.poset.n} classes, "
            f"connection matrix {res.complex.cell_count}, tower {res.tower}, "
            f"{elapsed:.2f}s (< 30 s)",
        )


@pytest.mark.slow
def test_c06_braid_v3(capsys):
    t0 = time.perf_counter()
    bc, res = run_conley(nfold_cover(reference_braid(), 3))
    elapsed = time.perf_counter() - t0
    ok = (
        bc.cx.cell_count == 1771561
        and bc.poset.n == 879
        and res.complex.cell_count == 197
        and res.tower == 2
        and elapsed < 1800.0
    )
    with capsys.disabled():
        report(
            6,
            ok,
            f"v3: {bc.cx.cell_count} cells, {bc.poset.n} classes, "
            f"connection matrix {res.complex.cell_count}, tower {res.tower}, "
            f"{elapsed:.1f}s (< 30 min)",
        )


def test_c07_torus_braids(capsys):
    t0 = time.perf_counter()
    stats = {}
    forms = {}
    for m in (10, 20):
        sk = torus_knot(m)
        bc = build_braid_complex(sk)
        first = template_round(bc.cx, bc.grades)
        res = connection_matrix(
            bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts()
        )
        stats[m] = (bc.poset.n, res.round_sizes[0], res.complex.cell_count, res.tower)
        forms[m] = canonical_form(first)
    elapsed = time.perf_counter() - t0
    ok = (
        stats[10] == (624, 81, 3, 2)
        and stats[20] == (24154, 81, 3, 2)
        and forms[10] == forms[20]
        and elapsed < 120.0
    )
    with capsys.disabled():
        report(
            7,
            ok,
            f"torus m=10 {stats[10]}, m=20 {stats[20]}, first-round complexes "
            f"identical: {forms[10] == forms[20]}, {elapsed:.1f}s (< 2 min)",
        )


def test_c08_crossing_table(capsys):
    # every crossing count over the reference diagram's top-square grid
    want = [
        [0, 2, 4, 6, 8],
        [2, 4, 6, 4, 6],
        [4, 2, 4, 2, 4],
        [6, 4, 6, 4, 2],
        [8, 6, 4, 2, 0],
    ]
    sk = reference_braid()
    tbl = crossing_table(sk)
    grid_ok = tbl.tolist() == want
    point_ok = all(
        crossing_number(sk, (v1, v2)) == want[v1][v2]
        for v1 in range(5)
        for v2 in range(5)
    )
    with capsys.disabled():
        report(
            8,
            grid_ok and point_ok,
            f"all 25 grid crossing values reproduced (table {grid_ok}, "
            f"pointwise {point_ok})",
        )


def test_c09_randomized_oracle_suite(capsys):
    rng = random.Random(6_1801)
    failures = []

    # 200 face-closed hypercube subcomplexes, n <= 5
    for k in range(200):
        n = rng.randint(1, 5)
        cx = random_hypercube_complex(rng, n)
        entries = cx.template_entries()
        w = SequenceMatching(cx, entries)
        partner, _ = mate_table(cx, entries)
        memo: dict = {}
        if any(mate(c, entries, memo) != partner[c] for c in cx.cells()):
            failures.append(("hypercube-mate", k))
        if not verify_matching(cx, w).ok:
            failures.append(("hypercube-matching", k))
        if not verify_acyclic(cx, w):
            failures.append(("hypercube-acyclic", k))
        if not verify_stable(cx, w, entries, w.provenance):
            failures.append(("hypercube-stable", k))
        E = morse_complex(cx, w)
        if strip_zeros(betti_oracle(E)) != strip_zeros(betti_oracle(cx)):
            failures.append(("hypercube-betti", k))
        if E.euler() != sum((-1) ** cx.dim(c) for c in cx.cells()):
            failures.append(("hypercube-euler", k))

    # 100 cubical complexes inside C(3; d), d <= 3
    for k in range(100):
        d = rng.randint(1, 3)
        cx = random_cubical_complex(rng, d)
        tm = TemplateMatching(cx)
        sm = SequenceMatching(cx, tm.entries())
        if any(tm(c) != sm(c) for c in cx.cells()):
            failures.append(("cubical-mate", k))
        if not verify_matching(cx, tm).ok:
            failures.append(("cubical-matching", k))
        if not verify_acyclic(cx, tm):
            failures.append(("cubical-acyclic", k))
        if not verify_stable(cx, tm, tm.entries(), tm.provenance):
            failures.append(("cubical-stable", k))
        E = template_round(cx)
        if strip_zeros(betti_oracle(E)) != strip_zeros(betti_oracle(cx)):
            failures.append(("cubical-betti", k))
        euler_in = sum((-1) ** cx.dim(c) for c in cx.cells())
        while True:
            if E.euler() != euler_in:
                failures.append(("cubical-euler", k))
                break
            if not E.nonzero_boundary():
                break
            E = reduce_round(E, generic_round(E))

    # graded cases: per-grade Euler characteristic after every round
    for name, sk in (("v1", reference_braid()), ("t5", torus_knot(5))):
        bc = build_braid_complex(sk)
        want: dict[int, int] = {}
        for (g, dm), n in bc.input_counts().items():
            want[g] = want.get(g, 0) + n * (1 if dm % 2 == 0 else -1)
        E = template_round(bc.cx, bc.grades)
        while True:
            got = E.euler_by_grade()
            if any(got.get(g, 0) != x for g, x in want.items()):
                failures.append(("graded-euler", name))
                break
            if not any(
                E.grades[f] == E.grades[c] for f, c in E.boundary_entries()
            ):
                break
            E = reduce_round(E, generic_round(E, graded=True))

    with capsys.disabled():
        report(
            9,
            not failures,
            "random suite (200 hypercube + 100 cubical + graded): "
            + ("zero failures" if not failures else f"failures {failures[:5]}"),
        )


def test_c10_arrow_regression(capsys):
    members = frozenset({0b000, 0b001, 0b010, 0b011, 0b100, 0b101})
    cx = HypercubeComplex(3, members)
    entries = cx.template_entries()
    memo: dict = {}
    got = {c: mate(c, entries, memo) for c in sorted(members) if mate(c, entries, memo) != c}
    arrows = {k: v for k, v in got.items() if cx.dim(v) == cx.dim(k) + 1}
    want = {0b000: 0b100, 0b001: 0b101, 0b010: 0b011}
    partner, _ = mate_table(cx, entries)
    ok = arrows == want and all(partner[c] == got.get(c, c) for c in members)
    with capsys.disabled():
        report(
            10,
            ok,
            f"pairing arrows {{000->100, 001->101, 010->011}} reproduced: {arrows == want}; "
            "recursion and materialized table agree",
        )


def test_acceptance_inputs_are_wellformed(capsys):
    # sanity for the gate itself: the fixtures validate and the CLI agrees
    ok = validate_complex(CubicalComplex.sphere(3)).ok
    code = main(["sphere", "--kind", "s", "--dim", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        report(
            0,
            ok and code == 0 and data["betti"] == [1, 0, 0, 1],
            "fixtures validate and the command line reproduces criterion 1 values",
        )
