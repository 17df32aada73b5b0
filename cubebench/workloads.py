"""The benchmark workloads: inputs, the timed library call, the CLI command
and the correctness gates.

Each workload exposes the same small surface to ``run.py``:

- ``prepare(out_dir)`` writes any input file and returns a description of
  the input (parameters and cell counts) for the result record;
- ``setup_code`` is the input construction run in a fresh interpreter right
  after ``import cubemorse`` (``setup_s``);
- ``build_input(tr)`` builds the input outside the timed region;
- ``compute(inp, tr)`` is the timed library pass, the same calls the CLI's
  ``timing_ms`` covers;
- ``digest(raw)`` and ``cli_digest(stdout)`` reduce a library result and a
  CLI output to the same comparable record;
- ``gate(digest)`` lists what is wrong with a record (empty when correct);
- ``replays(inp, raw, tr)`` re-runs pieces of the pipeline from outside in
  the traced run and returns the per-layer counts.

``tr`` is a :class:`spans.Tracer` or :class:`spans.NullTracer`.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

import numpy as np

from cubemorse import braid as cm_braid
from cubemorse import core as cm_core
from cubemorse import cubical as cm_cubical
from cubemorse import matching as cm_matching
from cubemorse import morse as cm_morse

# Reference the functions the traced run wraps through their modules, so a
# replay can call the unwrapped original while the wrappers are installed.
_ORIG = {
    "fiber_mate": cm_matching.fiber_mate,
    "grade_cells": cm_braid.grade_cells,
    "morse_boundary": cm_morse.morse_boundary,
}

_TIMING = re.compile(rb'\n\s*"timing_ms": [^\n]*')


def stable_bytes(stdout: bytes) -> bytes:
    """CLI output with the ``timing_ms`` line removed (ROADMAP aim 3)."""
    return _TIMING.sub(b"", stdout)


class Workload:
    """See the module docstring for the interface."""

    name = ""
    setup_code = ""
    input_cells = 0

    def replays(self, inp, raw, tr) -> dict:
        return {}


# -- shared replays ---------------------------------------------------------


def _grade_fn(grade_of):
    if grade_of is None or callable(grade_of):
        return grade_of
    return grade_of.__getitem__


def replay_iter_fibers(cx, tr) -> int:
    """Enumerate the fibers alone; returns the number of nonempty fibers."""
    n = 0
    with tr.span("replay.iter_fibers"):
        for _, members in cx.iter_fibers():
            if members:
                n += 1
    return n


def replay_sweep(cx, grade_of, tr) -> int:
    """The round-1 fiber sweep of ``template_round``, without flow counting.

    Returns the number of fixed cells, which must equal round 1's output.
    """
    offs = cx.offsets()
    gfun = _grade_fn(grade_of)
    fiber_mate = _ORIG["fiber_mate"]
    width = cx.d
    fixed = 0
    with tr.span("replay.sweep"):
        for base, members in cx.iter_fibers():
            if not members:
                continue
            grade = None
            if gfun is not None:
                grade = {msk: gfun(base + offs[msk]) for msk in members}
            partner, _ = fiber_mate(members, width, grade)
            for msk in members:
                if partner[msk] == msk:
                    fixed += 1
    return fixed


def replay_flows(cx, grade_of, round1, tr) -> dict:
    """Round-1 flow counting with a fresh oracle, counting calls.

    Counts calls to the oracle, to the boundary callable and to the
    complex's ``fiber_members`` (wrapped on the instance, so only the
    oracle's fiber re-resolutions are seen).  The reduced boundary must
    equal round 1's.
    """
    calls = {"oracle": 0, "boundary": 0, "fibers": 0}
    oracle = cm_matching.TemplateMatching(cx, grade_of)
    fiber_members = cx.fiber_members

    def counted_fiber_members(anchor):
        calls["fibers"] += 1
        return fiber_members(anchor)

    def mate_of(c):
        calls["oracle"] += 1
        return oracle(c)

    def boundary_of(c):
        calls["boundary"] += 1
        return cx.boundary(c)

    cx.fiber_members = counted_fiber_members
    try:
        with tr.span("replay.flows"):
            bdry = _ORIG["morse_boundary"](sorted(round1.dims), boundary_of, mate_of, cx.dim_of)
    finally:
        del cx.fiber_members
    got = sorted((f, c) for c, fs in bdry.items() for f in fs)
    if got != sorted(round1.boundary_entries()):
        raise AssertionError("flow replay disagrees with round 1's boundary")
    return calls


def _round_replays(cx, grade_of, round1, tr) -> dict:
    fibers = replay_iter_fibers(cx, tr)
    fixed = replay_sweep(cx, grade_of, tr)
    if fixed != round1.cell_count:
        raise AssertionError(f"sweep replay keeps {fixed} cells, round 1 kept {round1.cell_count}")
    calls = replay_flows(cx, grade_of, round1, tr)
    return {
        "cubical.fibers": fibers,
        "matching.flow_fiber_resolves": calls["fibers"],
        "matching.refiber_ratio": calls["fibers"] / fibers,
        "morse.flow_oracle_calls": calls["oracle"],
        "morse.flow_boundary_calls": calls["boundary"],
    }


# -- braid-v3 ----------------------------------------------------------------


class Braid(Workload):
    """``braid --nfold N``: crossing table, condensation, grading, input
    tallies and the graded connection-matrix pipeline."""

    def __init__(self, nfold: int, expect: dict):
        self.name = f"braid-v{nfold}"
        self.nfold = nfold
        self.expect = expect
        self.input_cells = expect["cell_count"]
        self.setup_code = (
            "from cubemorse.braid import nfold_cover, reference_braid\n"
            f"nfold_cover(reference_braid(), {nfold})\n"
        )

    def prepare(self, out_dir):
        return {"nfold": self.nfold, "cells": self.input_cells}

    def build_input(self, tr):
        with tr.span("braid.nfold_cover"):
            return cm_braid.nfold_cover(cm_braid.reference_braid(), self.nfold)

    def compute(self, sk, tr):
        with tr.span("braid.build_braid_complex"):
            bc = cm_braid.build_braid_complex(sk)
        with tr.span("braid.BraidComplex.input_counts"):
            counts = bc.input_counts()
        with tr.span("morse.connection_matrix"):
            res = cm_morse.connection_matrix(bc.cx, bc.grades, bc.poset, input_counts=counts)
        return bc, res

    def digest(self, raw):
        bc, res = raw
        return {
            "cell_count": bc.cx.cell_count,
            "conley": {
                "tower_height": res.tower,
                "scc_count": res.scc_count,
                "first_round_cells": res.round_sizes[0],
                "conley_cells": res.complex.cell_count,
                "cells": [[int(g), int(d), int(n)] for (g, d), n in sorted(res.counts.items())],
                "boundary": [[f, c, 1] for f, c in res.complex.boundary_entries()],
            },
        }

    def cli_argv(self):
        return ["braid", "--nfold", str(self.nfold), "--json"]

    def cli_digest(self, stdout):
        data = json.loads(stdout)
        return {"cell_count": data["cell_count"], "conley": data["conley"]}

    def gate(self, dg):
        c = dg["conley"]
        got = {
            "cell_count": dg["cell_count"],
            "scc_count": c["scc_count"],
            "first_round_cells": c["first_round_cells"],
            "conley_cells": c["conley_cells"],
            "tower_height": c["tower_height"],
        }
        return [f"{k}: expected {v}, got {got[k]}" for k, v in self.expect.items() if got[k] != v]

    def replays(self, sk, raw, tr):
        bc, res = raw
        with tr.span("replay.grade_pool"):
            pooled = _ORIG["grade_cells"](bc.skeleton, bc.poset, verify=False)
        if not np.array_equal(pooled, bc.grades):
            raise AssertionError("pool-only grading differs from the verified grading")
        out = _round_replays(bc.cx, bc.grades, tr.last["morse.template_round"], tr)
        out.update({
            "braid.classes": bc.poset.n,
            "braid.dag_edges": len(bc.poset.dag_u),
            "morse.round1_cells": res.round_sizes[0],
            "morse.rounds": res.tower,
            "morse.final_cells": res.complex.cell_count,
        })
        return out


# -- cubical-rand ------------------------------------------------------------------


def generate_top_cells(seed: int, d: int, m: int, keep: float) -> list[tuple[int, ...]]:
    """Anchors of the grid C(m; d) in lexicographic order, each kept with
    probability ``keep`` under ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [a for a in itertools.product(range(m), repeat=d) if rng.random() < keep]


def closure_counts(anchors, d: int, m: int) -> tuple[int, int]:
    """(cells, alternating cell count) of the face closure of the top cubes,
    computed from the anchors alone, without the package."""
    base = 2 * m + 1
    cells: set[int] = set()
    for a in anchors:
        for digits in itertools.product(*[(2 * x, 2 * x + 1, 2 * x + 2) for x in a]):
            code = 0
            for c in reversed(digits):
                code = code * base + c
            cells.add(code)
    euler = 0
    for code in cells:
        odd = 0
        for _ in range(d):
            code, c = divmod(code, base)
            odd += c & 1
        euler += -1 if odd & 1 else 1
    return len(cells), euler


class CubicalRand(Workload):
    """``cubical FILE``: homology of the closure of seeded random top cubes.

    The file is generated from the seed; the program sees only the file.
    """

    def __init__(self, seed: int, d: int, m: int, keep: float, name: str = "cubical-rand"):
        self.name = name
        self.seed, self.d, self.m, self.keep = seed, d, m, keep
        self.path: Path | None = None

    def prepare(self, out_dir):
        anchors = generate_top_cells(self.seed, self.d, self.m, self.keep)
        lines = [f"# seed={self.seed} d={self.d} m={self.m} keep={self.keep}", f"{self.d} {self.m}"]
        lines += [" ".join(map(str, a)) for a in anchors]
        self.path = out_dir / f"{self.name}-seed{self.seed}.txt"
        self.path.write_text("\n".join(lines) + "\n")
        self.input_cells, self.euler = closure_counts(anchors, self.d, self.m)
        self.setup_code = (
            "from cubemorse.cubical import CubicalComplex, parse_top_cell_file\n"
            f"m, d, anchors = parse_top_cell_file(open({str(self.path)!r}).read())\n"
            "CubicalComplex.from_top_cells(m, d, anchors)\n"
        )
        return {
            "generator": {"seed": self.seed, "d": self.d, "m": self.m, "keep": self.keep},
            "tops": len(anchors),
            "cells": self.input_cells,
            "euler": self.euler,
        }

    def build_input(self, tr):
        with tr.span("cubical.parse_top_cell_file"):
            m, d, anchors = cm_cubical.parse_top_cell_file(self.path.read_text())
        with tr.span("cubical.CubicalComplex.from_top_cells"):
            return cm_cubical.CubicalComplex.from_top_cells(m, d, anchors)

    def compute(self, cx, tr):
        with tr.span("morse.homology"):
            return cx, cm_morse.homology(cx)

    def digest(self, raw):
        cx, res = raw
        return {"cell_count": cx.cell_count, "betti": res.betti, "rounds": res.rounds}

    def cli_argv(self):
        return ["cubical", str(self.path), "--json"]

    def cli_digest(self, stdout):
        data = json.loads(stdout)
        return {k: data[k] for k in ("cell_count", "betti", "rounds")}

    def gate(self, dg):
        bad = []
        if dg["cell_count"] != self.input_cells:
            bad.append(f"cell_count: expected {self.input_cells}, got {dg['cell_count']}")
        euler = sum(b if k % 2 == 0 else -b for k, b in enumerate(dg["betti"]))
        if euler != self.euler:
            bad.append(f"Euler characteristic of betti {dg['betti']} is {euler}, closure has {self.euler}")
        return bad

    def replays(self, cx, raw, tr):
        res = raw[1]
        out = _round_replays(cx, None, tr.last["morse.template_round"], tr)
        out.update({
            "morse.round1_cells": res.round_sizes[0],
            "morse.rounds": res.rounds,
            "morse.final_cells": res.complex.cell_count,
        })
        return out


# -- verify-s9 ------------------------------------------------------------------


class Verify(Workload):
    """``verify --gen sphere:D --acyclic --stable``: complex validation and the
    three cell-by-cell checks of the template matching."""

    def __init__(self, dim: int):
        self.name = f"verify-s{dim}"
        self.dim = dim
        self.input_cells = 3 ** (dim + 1) - 1
        self.setup_code = f"cubemorse.CubicalComplex.sphere({dim})\n"

    def prepare(self, out_dir):
        return {"gen": f"sphere:{self.dim}", "cells": self.input_cells}

    def build_input(self, tr):
        with tr.span("cubical.CubicalComplex.sphere"):
            return cm_cubical.CubicalComplex.sphere(self.dim)

    def compute(self, cx, tr):
        with tr.span("core.validate_complex"):
            report = cm_core.validate_complex(cx)
        matching = cm_matching.TemplateMatching(cx)
        oracle = tr.counted("matching.oracle_calls", matching)
        with tr.span("matching.verify_matching"):
            mrep = cm_matching.verify_matching(cx, oracle)
        with tr.span("matching.verify_acyclic"):
            acyclic = cm_matching.verify_acyclic(cx, oracle)
        with tr.span("matching.verify_stable"):
            stable = cm_matching.verify_stable(cx, oracle, matching.entries(), matching.provenance)
        return report, mrep, acyclic, stable

    def digest(self, raw):
        report, mrep, acyclic, stable = raw
        return {
            "exit": 0 if report.ok and mrep.ok and acyclic and stable else 2,
            "lines": [
                f"complex: {report.summary()}",
                f"matching: {mrep.summary()}",
                f"acyclic: {'ok' if acyclic else 'cycle found'}",
                f"stable: {'ok' if stable else 'unstable pair found'}",
            ],
        }

    def cli_argv(self):
        return ["verify", "--gen", f"sphere:{self.dim}", "--acyclic", "--stable"]

    def cli_digest(self, stdout):
        # only called on a zero exit status
        return {"exit": 0, "lines": stdout.decode().splitlines()}

    def gate(self, dg):
        n = self.input_cells
        half = (n - 2) // 2
        want = [
            f"complex: ok: {n} cells checked",
            f"matching: ok: {n} cells: 2 fixed, {half}+{half} paired",
            "acyclic: ok",
            "stable: ok",
        ]
        bad = []
        if dg["exit"] != 0:
            bad.append(f"exit code {dg['exit']}, expected 0")
        if dg["lines"] != want:
            bad.append(f"report {dg['lines']} differs from {want}")
        return bad


# -- registry -------------------------------------------------------------------

BRAID_V3 = {"cell_count": 1_771_561, "scc_count": 879, "first_round_cells": 1825,
            "conley_cells": 197, "tower_height": 2}
BRAID_V1 = {"cell_count": 121, "scc_count": 13, "first_round_cells": 7,
            "conley_cells": 3, "tower_height": 2}


def workloads(seed: int) -> dict:
    """The benchmark's workloads, by name."""
    return {
        "braid-v3": Braid(3, BRAID_V3),
        "cubical-rand": CubicalRand(seed, d=3, m=30, keep=0.5),
        "verify-s9": Verify(9),
    }


def smoke_workloads(seed: int) -> list:
    """Tiny versions of the workloads, for the smoke mode."""
    return [
        Braid(1, BRAID_V1),
        CubicalRand(seed, d=2, m=6, keep=0.5, name="cubical-smoke"),
        Verify(3),
    ]
