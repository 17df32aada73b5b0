"""The array passes of ``validate_complex`` and the ``verify_*`` checks on a
``CubicalComplex``, against their per-cell walks.

On clean inputs the array passes decide alone and must give the per-cell
reports.  Each corruption below makes the array pass find an anomaly, or, for
a template-shaped matching with a flow cycle or an unstable pair, decide
through the flow-edge arrays; either way every result, report and error must
equal the per-cell walk's on the same input.
"""
import random

import numpy as np
import pytest

from cubemorse import matching
from cubemorse.braid import build_braid_complex, reference_braid, torus_knot
from cubemorse.core import validate_complex
from cubemorse.cubical import ARRAY_CHUNK, CubicalComplex, alpha
from cubemorse.matching import TemplateMatching, verify_acyclic, verify_matching, verify_stable
from .helpers import random_cubical_complex


class PerCell:
    """A handle on a cubical complex that is not a ``CubicalComplex``, so
    ``validate_complex`` walks it cell by cell."""

    def __init__(self, cx):
        self._cx = cx

    def __getattr__(self, name):
        return getattr(self._cx, name)


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def both_paths(cx):
    """(array, per-cell) outcomes of validate_complex, verify_matching,
    verify_acyclic and verify_stable; a plain callable oracle forces the
    per-cell checks of the matching."""
    w = TemplateMatching(cx)
    plain = lambda c: w(c)  # noqa: E731
    entries = w.entries()
    arrays = [
        outcome(validate_complex, cx),
        outcome(verify_matching, cx, w),
        outcome(verify_acyclic, cx, w),
        outcome(verify_stable, cx, w, entries, w.provenance),
    ]
    cells = [
        outcome(validate_complex, PerCell(cx)),
        outcome(verify_matching, cx, plain),
        outcome(verify_acyclic, cx, plain),
        outcome(verify_stable, cx, plain, entries, w.provenance),
    ]
    return arrays, cells


def clean_inputs():
    rng = random.Random(11)
    for _ in range(40):
        yield random_cubical_complex(rng, rng.choice((2, 3, 4)))
    for d in range(1, 6):
        yield CubicalComplex.sphere(d)
    for d in (1, 2):
        yield CubicalComplex.top_sphere(d)
    for m, d in ((1, 1), (2, 2), (3, 3), (2, 4)):
        yield CubicalComplex.full(m, d)


def test_array_and_per_cell_paths_agree():
    for cx in clean_inputs():
        assert cx._validates_clean()
        assert TemplateMatching(cx)._clean_sweep is not None
        arrays, cells = both_paths(cx)
        assert arrays == cells
        report, mrep, acyclic, stable = arrays
        assert report.ok and mrep.ok and acyclic is True and stable is True


def test_graded_array_checks_agree_on_braids():
    """A graded matching takes the array path for verify_matching and
    verify_acyclic; verify_stable, given the graded toggles, walks the
    cells on both oracles."""
    for sk in (reference_braid(), torus_knot(5)):
        bc = build_braid_complex(sk)
        cx = bc.cx
        w = TemplateMatching(cx, bc.grades)
        plain = lambda c: w(c)  # noqa: E731
        assert w._clean_sweep is not None
        assert verify_matching(cx, w) == verify_matching(cx, plain)
        assert verify_acyclic(cx, w) is verify_acyclic(cx, plain) is True
        assert verify_stable(cx, w, w.entries()) is verify_stable(cx, plain, w.entries(), w.provenance)


def test_ids_beyond_int64_take_the_per_cell_walk():
    cx = CubicalComplex.from_cells(1, 45, [3 ** 45 - 1])
    assert not cx._validates_clean()
    assert validate_complex(cx) == validate_complex(PerCell(cx))
    assert validate_complex(cx).ok


def kinds(report) -> set:
    return {v.kind if hasattr(v, "kind") else v[0] for v in report.violations}


# -- corruptions of the complex ------------------------------------------------


def patch_row(monkeypatch, cx, cell, change):
    """Make ``cx._boundary_raw(cell)`` return ``change(row)``."""
    real = cx._boundary_raw

    def row(c):
        return change(real(c)) if c == cell else real(c)

    monkeypatch.setattr(cx, "_boundary_raw", row)


@pytest.mark.parametrize(
    "check, kind, change",
    [
        (0, "dimension", lambda row: [0, *row]),  # vertex 0 as a face of a 2-cell
        (0, "boundary-order", lambda row: row[::-1]),
        (0, "dd-nonzero", lambda row: row[1:]),
        # the square pairs with its face 3, which its row no longer lists
        (1, "trichotomy", lambda row: [f for f in row if f != 3]),
    ],
)
def test_corrupted_boundary_rows(monkeypatch, check, kind, change):
    cx = CubicalComplex.sphere(2)
    square = 1 + 3  # digits (1, 1, 0): a 2-cell, the sweep's partner of 3
    patch_row(monkeypatch, cx, square, change)
    arrays, cells = both_paths(cx)
    assert arrays == cells
    assert kind in kinds(arrays[check])


def test_closure_violation_from_members(monkeypatch):
    cx = CubicalComplex.from_top_cells(2, 2, [(0, 0), (1, 1)])
    monkeypatch.setattr(cx, "members", cx.members - {cx.cell_id((2, 2))})
    arrays, cells = both_paths(cx)
    assert arrays == cells
    assert "closure" in kinds(arrays[0])


# -- corruptions of the sweep codes ----------------------------------------------


def patch_codes(monkeypatch, ids, code):
    """Make ``template_sweep`` return ``code`` for the cells ``ids``, for
    any subset of them that a fiber sweep asks about."""

    def sweep(cx, grade_of=None, subset=None):
        if subset is None:
            return ids, code.copy()
        return subset, code[np.searchsorted(ids, subset)]

    monkeypatch.setattr(matching, "template_sweep", sweep)


@pytest.mark.parametrize(
    "kind, wrong",
    [
        ("non-member", {0: -1}),  # cell 0 pairs with the id -1
        ("involution", {0: 2}),  # cell 0 pairs with 3, which pairs with 4
        ("trichotomy", {2: 1, 3: -1}),  # vertex (2, 0, 0) with edge (0, 1, 0)
        # the same pair, with their former partners 5 and 4 left fixed so
        # that only the toggled digit 2 = 2m tells the pair is no face pair
        ("trichotomy", {2: 1, 3: -1, 4: 0, 5: 0}),
    ],
)
def test_corrupted_pairs(monkeypatch, kind, wrong):
    cx = CubicalComplex.sphere(2)
    ids, code = matching.template_sweep(cx)
    code = code.copy()
    for c, k in wrong.items():
        code[np.searchsorted(ids, c)] = k
    patch_codes(monkeypatch, ids, code)
    arrays, cells = both_paths(cx)
    assert arrays == cells
    assert kind in kinds(arrays[1])


def random_template_codes(cx, rng):
    """A template-shaped matching in random order: each pair toggles an even
    digit below 2m of its lower cell, at a random level."""
    ids = cx.member_ids()
    at = {c: i for i, c in enumerate(ids.tolist())}
    code = np.zeros(ids.size, dtype=np.int8)
    order = list(range(ids.size))
    rng.shuffle(order)
    for i in order:
        axes = list(range(cx.d))
        rng.shuffle(axes)
        for a in axes:
            digit = int(ids[i]) // cx.pows[a] % cx.base
            j = at.get(int(ids[i]) + cx.pows[a])
            if code[i] == 0 and digit % 2 == 0 and digit < 2 * cx.m and j is not None and code[j] == 0:
                code[i], code[j] = a + 1, -(a + 1)
    return ids, code


def flow_edges_by_cells(cx, w):
    """The flow edges of :func:`matching._flow_edges`, from the per-cell
    oracle: lower cells in id order, faces of partners in boundary order,
    and an edge unstable when an earlier toggle sends q1 to k0."""
    lower = {}
    for c in cx.cells():
        if w(c) != c and cx.dim(w(c)) == cx.dim(c) + 1:
            lower[c] = w(c)
    index = {q: i for i, q in enumerate(sorted(lower))}
    edges = []
    for q0 in sorted(lower):
        k0 = lower[q0]
        for q1 in cx.boundary(k0):
            if q1 != q0 and q1 in lower:
                top = min(w.provenance(q0), w.provenance(q1))
                unstable = any(alpha(i, q1, cx) == k0 for i in range(1, top))
                edges.append((index[q0], index[q1], unstable))
    return len(lower), edges


def assert_flow_edges_match(cx):
    w = TemplateMatching(cx)
    n, src, dst, unstable = matching._flow_edges(cx, *w._clean_sweep)
    assert (n, list(zip(src.tolist(), dst.tolist(), unstable.tolist()))) == flow_edges_by_cells(cx, w)


def test_flow_edges_match_the_per_cell_relation(monkeypatch):
    for cx in clean_inputs():
        assert_flow_edges_match(cx)
    rng = random.Random(5)
    for _ in range(20):
        cx = CubicalComplex.sphere(2)
        patch_codes(monkeypatch, *random_template_codes(cx, rng))
        assert_flow_edges_match(cx)


@pytest.mark.parametrize("kind", ["cycle", "instability"])
def test_template_shaped_matchings(monkeypatch, kind):
    """Random template-shaped matchings pass the pair checks, so the flow
    arrays decide acyclicity and stability; some have a cycle and some an
    unstable pair."""
    rng = random.Random(3)
    found = 0
    for _ in range(40):
        cx = CubicalComplex.sphere(2)
        patch_codes(monkeypatch, *random_template_codes(cx, rng))
        assert TemplateMatching(cx)._clean_sweep is not None
        arrays, cells = both_paths(cx)
        assert arrays == cells
        found += arrays[2 if kind == "cycle" else 3] is False
    assert found


def test_each_fact_is_computed_once(monkeypatch):
    """validate_complex reads each member's row and dim once and expands
    the face formula once per chunk; the two flow checks share one build of
    the flow edges."""
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("_face_arrays", "_boundary_raw", "dim_of"):
        count(CubicalComplex, name)
    cx = CubicalComplex.sphere(5)
    assert validate_complex(cx).ok
    n = cx.cell_count
    assert calls == {"_face_arrays": -(-n // ARRAY_CHUNK), "_boundary_raw": n, "dim_of": n}

    count(matching, "_flow_edges")
    cx = CubicalComplex.sphere(3)
    w = TemplateMatching(cx)
    assert verify_acyclic(cx, w) is verify_stable(cx, w, w.entries(), w.provenance) is True
    assert calls["_flow_edges"] == 1
