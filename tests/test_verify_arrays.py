"""The array passes of ``validate_complex`` and the ``verify_*`` checks on a
``CubicalComplex``, against their per-cell walks.

On clean inputs the array passes decide alone and must give the per-cell
reports.  Each corruption of what the array passes read (the members and the
sweep codes) makes them find an anomaly, or, for a template-shaped matching
with a flow cycle or an unstable pair, decide through the flow-edge arrays;
either way every result, report and error must equal the per-cell walk's on
the same input.  Corrupted boundary rows, which only the per-cell walk reads,
must be reported by it.
"""
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorse import matching
from cubemorse.braid import build_braid_complex, nfold_cover, reference_braid, torus_knot
from cubemorse.core import validate_complex
from cubemorse.cubical import _WALK_CHUNK, CubicalComplex, alpha
from cubemorse.matching import FLOW_CHECK_LIMIT, TemplateMatching, verify_acyclic, verify_matching, verify_stable
from cubemorse.morse import template_round
from .helpers import dense_top_cube_complexes, from_cells, random_cubical_complex, top_cube_complexes, traced_peak


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


def two_squares():
    """The closure of squares (0, 0) and (1, 1) of C(2; 2): 17 members of 25
    ids, a dense explicit complex."""
    cx = CubicalComplex.from_top_cells(2, 2, [(0, 0), (1, 1)])
    assert cx._member_mask is not None
    return cx


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
    yield two_squares()


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
    cx = from_cells(1, 45, [3 ** 45 - 1])
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
    """The per-cell walk reads the rows of ``boundary`` and reports each
    corruption; the array passes read the face formula instead."""
    cx = CubicalComplex.sphere(2)
    square = 1 + 3  # digits (1, 1, 0): a 2-cell, the sweep's partner of 3
    patch_row(monkeypatch, cx, square, change)
    cells = both_paths(cx)[1]
    assert kind in kinds(cells[check])


@pytest.mark.parametrize("where", ["below", "above", "centre"])
def test_grid_face_out_of_range_or_centre(monkeypatch, where):
    """The chunked closure check of a sparse explicit complex catches a
    face below 0, at total_ids or at the grid's centre, which is no member:
    the array pass reads ``_face_arrays`` and the per-cell walk
    ``_boundary_raw``, both corrupted alike, and the walk reports the face."""
    cx = CubicalComplex.from_top_cells(3, 2, [(0, 0)])  # one square: 9 members of 49 ids
    assert cx._member_mask is None
    bad = {"below": -1, "above": cx.total_ids, "centre": cx.total_ids // 2}[where]
    square = cx.cell_id((1, 1))
    real = cx._face_arrays

    def face_arrays(ids):
        faces, owner, dims = real(ids)
        at = np.flatnonzero(ids == square)
        if at.size:
            faces, owner = np.append(faces, bad), np.append(owner, at[0])
        return faces, owner, dims

    monkeypatch.setattr(cx, "_face_arrays", face_arrays)
    patch_row(monkeypatch, cx, square, lambda row: sorted([*row, bad]))
    assert not cx._validates_clean()
    report = validate_complex(cx)
    assert report == validate_complex(PerCell(cx))
    assert ("closure", square, f"face {bad} not a member") in [(v.kind, v.cell, v.detail) for v in report.violations]


@pytest.mark.parametrize("digits", [(0, 0, 0), (1, 0, 2), (1, 1, 0)])
def test_grid_excluding_a_face(digits):
    """A grid whose excluded cell is no top cell is a face of members: the
    digit-slice closure check refuses it and the walk names the closure."""
    cx = CubicalComplex.sphere(2)
    cx._excluded = cx.cell_id(digits)
    assert not cx._validates_clean()
    report = validate_complex(cx)
    assert report == validate_complex(PerCell(cx))
    assert "closure" in kinds(report)


@st.composite
def closure_inputs(draw):
    """A grid of up to 7^4 ids excluding any cell, a top cell or not, or a
    top-cube closure, dense or sparse, with up to three members removed."""
    kind = draw(st.sampled_from(["grid", "dense", "sparse"]))
    if kind == "grid":
        m, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        cx = CubicalComplex(m, d)
        top = draw(st.booleans())
        digit = st.integers(0, m - 1).map(lambda l: 2 * l + 1) if top else st.integers(0, 2 * m)
        cx._excluded = cx.cell_id(tuple(draw(st.lists(digit, min_size=d, max_size=d))))
        return cx
    if kind == "dense":
        made = draw(dense_top_cube_complexes())
    else:  # one or two cubes of a grid with 4 to 6 intervals per axis
        m, d = draw(st.integers(4, 6)), draw(st.integers(2, 3))
        anchor = st.tuples(*[st.integers(0, m - 1)] * d)
        made = CubicalComplex.from_top_cells(m, d, draw(st.lists(anchor, min_size=1, max_size=2)))
        assert made._member_mask is None
    drop = draw(st.sets(st.sampled_from(made.members.tolist()), max_size=3))
    cx = CubicalComplex(made.m, made.d)
    cx.members = np.setdiff1d(made.members, list(drop)).astype(made.members.dtype)
    cx.members.flags.writeable = False
    return cx


@settings(max_examples=150, deadline=None, database=None)
@given(closure_inputs())
def test_closure_check_equals_every_face_a_member(cx):
    """The digit-slice check of a grid or dense complex, and the chunked one
    of a sparse complex, against "every face of every member is a member"."""
    closed = all(cx.is_member(f) for c in cx.cells() for f in cx._boundary_raw(c))
    assert cx._validates_clean() is closed
    assert validate_complex(cx) == validate_complex(PerCell(cx))


def test_closure_violation_from_members(monkeypatch):
    cx = CubicalComplex.from_top_cells(2, 2, [(0, 0), (1, 1)])
    monkeypatch.setattr(cx, "members", cx.members[cx.members != cx.cell_id((2, 2))])
    arrays, cells = both_paths(cx)
    assert arrays == cells
    assert "closure" in kinds(arrays[0])


# -- corruptions of the sweep codes ----------------------------------------------


def patch_codes(monkeypatch, cx, code):
    """Make ``template_sweep`` return ``code``, the codes by slot of
    ``cx``, for the whole sweep, and their entries at the members that a
    fiber sweep asks about."""

    def sweep(_, grade_of=None, subset=None):
        if subset is None:
            return code.copy()
        return code[cx._locate(subset)[0]]

    monkeypatch.setattr(matching, "template_sweep", sweep)


def sphere2():
    return CubicalComplex.sphere(2)


@pytest.mark.parametrize(
    "make, kind, wrong",
    [
        pytest.param(sphere2, "non-member", {0: -1}, id="non-member-wrong0"),  # cell 0 pairs with the id -1
        # cell 0 pairs with 3, which pairs with 4
        pytest.param(sphere2, "involution", {0: 2}, id="involution-wrong1"),
        # vertex (2, 0, 0) with edge (0, 1, 0)
        pytest.param(sphere2, "trichotomy", {2: 1, 3: -1}, id="trichotomy-wrong2"),
        # the same pair, with their former partners 5 and 4 left fixed so
        # that only the toggled digit 2 = 2m tells the pair is no face pair
        pytest.param(sphere2, "trichotomy", {2: 1, 3: -1, 4: 0, 5: 0}, id="trichotomy-wrong3"),
        # From here on each level keeps as many +t as -t codes, so only the
        # digit-slice counts of the clean-sweep check can refuse them.
        # +1 on digit 2m: 8 = (2, 2, 0) with 9 = (0, 0, 1), former partners fixed
        pytest.param(sphere2, "trichotomy", {8: 1, 9: -1, 10: 0, 17: 0}, id="up-on-digit-2m"),
        # +1 on an odd digit: 1 = (1, 0, 0) with its plus face 2, a valid
        # matching that is not the template's
        pytest.param(sphere2, None, {1: 1, 2: -1, 0: 0, 5: 0}, id="up-on-odd-digit"),
        # upper codes of the wrong level: 0 with 1 at -2, 2 with 5 at -1
        pytest.param(sphere2, "non-member", {1: -2, 5: -1}, id="upper-of-wrong-level"),
        # the partner (3, 0) of (2, 0) is no member; 7 = (2, 1) takes -1
        pytest.param(two_squares, "non-member", {2: 1, 7: -1, 0: 0, 1: 0}, id="dense-non-member-partner"),
        pytest.param(sphere2, "non-member", {0: 4}, id="code-above-d"),
        pytest.param(sphere2, "non-member", {26: -4}, id="code-below-minus-d"),
        # -128 indexes past the oracle's steps: verify_matching reports the
        # queries of cell 0 and of its would-be partner as oracle errors
        pytest.param(two_squares, "oracle-error", {0: -128}, id="dense-code-minus-128"),
        # The slots of no member must hold _TAKEN and nothing else.  The
        # sphere's centre 13 takes the fixed member 26's code 0 and 26
        # takes _TAKEN: the codes below -d still number one, all _TAKEN,
        # but at a member; the oracle then fails on 26.
        pytest.param(sphere2, "oracle-error", {13: 0, 26: -128}, id="centre-swapped-with-a-member"),
        # the same swap of the non-member 3 with the fixed member 24
        pytest.param(two_squares, "oracle-error", {3: 0, 24: -128}, id="dense-non-member-swapped"),
        # a code below -d at the centre that is not _TAKEN
        pytest.param(sphere2, None, {13: -4}, id="centre-below-minus-d"),
        # a code in -d..d at the centre, no code below -d left; its level
        # pairs still count as many as before
        pytest.param(sphere2, None, {13: 1}, id="centre-in-range"),
    ],
)
def test_corrupted_pairs(monkeypatch, make, kind, wrong):
    """The clean-sweep check refuses each corrupted sweep, so every check
    walks the cells and reports as the per-cell path does.  The keys of
    ``wrong`` are slots, which on these complexes are the ids."""
    cx = make()
    code = matching.template_sweep(cx)
    assert cx._by_id
    for at, k in wrong.items():
        code[at] = k
    patch_codes(monkeypatch, cx, code)
    assert TemplateMatching(cx)._clean_sweep is None
    arrays, cells = both_paths(cx)
    assert arrays == cells
    if kind is None:
        assert arrays[1].ok
    else:
        assert kind in kinds(arrays[1])


def random_template_codes(cx, rng):
    """A template-shaped matching in random order, as codes by slot: each
    pair toggles an even digit below 2m of its lower cell, at a random
    level, and the slots of no member keep the sweep's ``_TAKEN``."""
    ids = cx.member_ids().tolist()
    code = matching.template_sweep(cx)
    code[cx._locate(np.array(ids))[0]] = 0
    order = list(range(len(ids)))
    rng.shuffle(order)
    for i in order:
        axes = list(range(cx.d))
        rng.shuffle(axes)
        for a in axes:
            digit = ids[i] // cx.pows[a] % cx.base
            at, j = cx._position(ids[i]), cx._position(ids[i] + cx.pows[a])
            if code[at] == 0 and digit % 2 == 0 and digit < 2 * cx.m and j is not None and code[j] == 0:
                code[at], code[j] = a + 1, -(a + 1)
    return code


def flow_edges_by_cells(cx, w):
    """The flow edges of ``TemplateMatching._flows``, from the per-cell
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


def assert_flow_edges_match(cx, grades=None):
    """The flow edges of the array path equal the per-cell ones; a graded
    matching is compared on the edges alone, since the reference flags
    instability by the ungraded toggles."""
    w = TemplateMatching(cx, grades)
    n, src, dst, unstable = w._flows
    edges = list(zip(src.tolist(), dst.tolist(), unstable.tolist()))
    n_ref, edges_ref = flow_edges_by_cells(cx, w)
    if grades is not None:
        edges, edges_ref = [e[:2] for e in edges], [e[:2] for e in edges_ref]
    assert (n, edges) == (n_ref, edges_ref)


def storage(cx) -> str:
    """How ``cx`` stores its members, which picks the path of its array
    checks: digit slices on a grid or dense explicit complex, the chunked
    search and the walk on a sparse one."""
    if cx.members is None:
        return "grid"
    return "dense" if cx._member_mask is not None else "sparse"


def test_flow_edges_match_the_per_cell_relation(monkeypatch):
    for nfold in (1, 2):
        bc = build_braid_complex(nfold_cover(reference_braid(), nfold))
        assert_flow_edges_match(bc.cx, bc.grades)
    seen = set()
    for cx in clean_inputs():
        assert_flow_edges_match(cx)
        seen.add(storage(cx))
    assert seen == {"grid", "dense", "sparse"}  # both paths of _flows ran
    rng = random.Random(5)
    for _ in range(20):
        cx = CubicalComplex.sphere(2)
        patch_codes(monkeypatch, cx, random_template_codes(cx, rng))
        assert_flow_edges_match(cx)


@settings(max_examples=60, deadline=None, database=None)
@given(top_cube_complexes())
def test_flow_edges_match_the_per_cell_relation_on_top_cube_files(cx):
    assert_flow_edges_match(cx)


@pytest.mark.parametrize("kind", ["cycle", "instability"])
def test_template_shaped_matchings(monkeypatch, kind):
    """Random template-shaped matchings pass the pair checks, so the digit
    slices decide stability, and acyclicity too unless an edge descends,
    when the flow arrays are peeled; some have a cycle and some an unstable
    pair."""
    rng = random.Random(3)
    found = 0
    for _ in range(40):
        cx = CubicalComplex.sphere(2)
        patch_codes(monkeypatch, cx, random_template_codes(cx, rng))
        assert TemplateMatching(cx)._clean_sweep is not None
        arrays, cells = both_paths(cx)
        assert arrays == cells
        found += arrays[2 if kind == "cycle" else 3] is False
    assert found


@pytest.mark.parametrize(
    "pairs, facts",
    [
        # upper (1, 1, 0) = 4 pairs along axis 0 with 3; its - face (1, 0, 0)
        # = 1 along axis 1 pairs up at level 3, so the edge 3 -> 1 descends
        pytest.param({3: 1, 4: -1, 1: 3, 10: -3}, (True, False), id="descends"),
        # upper 4 pairs along axis 1 with 1; its - face (0, 1, 0) = 3 along
        # axis 0 pairs up at level 3, and 1 < min(2, 3): toggle 1 sends 3 to 4
        pytest.param({1: 2, 4: -2, 3: 3, 12: -3}, (False, True), id="unstable"),
    ],
)
def test_slice_facts_on_hand_made_codes(monkeypatch, pairs, facts):
    """Two pairs of ``full(1, 3)``, every other cell fixed: each makes one
    digit-slice fact true, the facts equal the flow edges', and both paths
    agree; the one edge makes no cycle."""
    cx = CubicalComplex.full(1, 3)
    code = np.zeros(cx.total_ids, dtype=np.int8)
    for at, k in pairs.items():
        code[at] = k
    patch_codes(monkeypatch, cx, code)
    w = TemplateMatching(cx)
    assert w._clean_sweep is not None and w._slice_facts == facts
    _, src, dst, unstable = w._flows
    assert ((dst < src).tolist(), unstable.tolist()) == ([facts[0]], [facts[1]])  # one edge, between the lower cells
    arrays, cells = both_paths(cx)
    assert arrays == cells
    assert arrays[2] is True and arrays[3] is not facts[1]


def two_cubes_on_an_edge():
    """The closure of cubes (0, 0, 1) and (1, 0, 0) of C(2; 3), which share
    one edge: 51 members of 125 ids, a dense explicit complex whose sweep
    has a flow edge to a lower id."""
    cx = CubicalComplex.from_top_cells(2, 3, [(0, 0, 1), (1, 0, 0)])
    assert cx._member_mask is not None
    return cx


def test_each_fact_is_computed_once(monkeypatch):
    """validate_complex checks a grid by digit slices alone, and expands the
    face formula of a sparse explicit complex once per chunk; neither reads
    a scalar row or dim.  The two flow checks share one pass over the digit
    slices on a grid or dense explicit complex, which builds no flow edge
    unless an edge descends, and then builds them once by digit slices (no
    face array); they share one walk on a sparse explicit complex.  One
    round builds its flow graph at most once."""
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("_face_arrays", "_boundary_raw", "dim_of"):
        count(CubicalComplex, name)
    assert validate_complex(CubicalComplex.sphere(8)).ok
    assert calls == {}
    # 729 disjoint cubes of 27 cells, spread over a grid of 201^3 ids
    spread = [(4 * i, 4 * j, 4 * k) for i in range(9) for j in range(9) for k in range(9)]
    cx = CubicalComplex.from_top_cells(100, 3, spread)
    assert validate_complex(cx).ok
    n = cx.cell_count
    assert cx._member_mask is None and n > 4 * _WALK_CHUNK and calls == {"_face_arrays": -(-n // _WALK_CHUNK)}

    for name in ("_flow_graph", "_grid_flow_edges", "_flow_facts_by_slices"):
        count(matching, name)
    grids = [CubicalComplex.sphere(3), CubicalComplex.sphere(1)]
    dense, sparse = two_cubes_on_an_edge(), random_cubical_complex(random.Random(9), 3)
    assert sparse._member_mask is None  # a sparse explicit complex, which walks
    calls.clear()
    for cx in grids:
        w = TemplateMatching(cx)
        assert verify_acyclic(cx, w) is verify_stable(cx, w, w.entries(), w.provenance) is True
    assert calls == {"_flow_facts_by_slices": 2}  # no edge descends: no flow edge built
    w = TemplateMatching(dense)
    assert verify_acyclic(dense, w) is verify_stable(dense, w, w.entries(), w.provenance) is True
    assert w._slice_facts == (True, False)
    assert calls == {"_flow_facts_by_slices": 3, "_grid_flow_edges": 1}  # an edge descends: built once, peeled
    w = TemplateMatching(sparse)
    assert verify_acyclic(sparse, w) is verify_stable(sparse, w, w.entries(), w.provenance) is True
    assert sparse.cell_count <= _WALK_CHUNK
    assert calls == {"_flow_facts_by_slices": 3, "_grid_flow_edges": 1, "_flow_graph": 1, "_face_arrays": 1}
    inputs = [*grids, sparse]
    rounds = []
    for cx in inputs:
        calls["_flow_graph"] = 0
        template_round(cx)
        rounds.append(calls["_flow_graph"])
    assert rounds[0] == 0 and rounds[1:] == [1, 1]  # the sphere's flows are all pruned


def test_verify_matching_builds_member_ids_once(monkeypatch):
    """The clean-sweep check reads the member ids the sweep returns, so
    verify_matching on an explicit complex builds them once."""
    calls = []
    real = CubicalComplex.member_ids
    monkeypatch.setattr(CubicalComplex, "member_ids", lambda self: calls.append(self) or real(self))
    cx = random_cubical_complex(random.Random(4), 3)
    assert cx.members is not None
    assert verify_matching(cx, TemplateMatching(cx)).ok
    assert len(calls) == 1


def test_verify_memory_is_a_few_bytes_per_cell():
    """``verify_matching`` on ``sphere(11)`` peaks at 2.00 bytes per cell
    measured: the int8 codes by id, which the pair check reads in place,
    and one level's slice temporaries, next to the sweep's own 1.50.  The
    acyclicity and stability checks of a clean grid sweep read its codes by
    digit slices, two bool masks of one odd slice: 0.87 and 0.69 bytes per
    cell measured on ``sphere(9)``, the largest sphere under
    ``FLOW_CHECK_LIMIT``, and on ``sphere(11)``.  The flow graph, built
    only when an edge descends, peaks at 18.8 bytes per cell measured on
    sphere(9), the edges and two bool masks over the grid; the walk from
    all lower cells took 42.9.  Bounds: 2.2, 2 and 22."""
    cx = CubicalComplex.sphere(11)
    peak = traced_peak(lambda: verify_matching(cx, TemplateMatching(cx)))
    assert peak < 2.2 * cx.cell_count, peak / cx.cell_count

    d = max(d for d in range(1, 12) if 3 ** (d + 1) - 1 <= FLOW_CHECK_LIMIT)
    assert d == 9 and CubicalComplex.sphere(d).cell_count == 59048

    def checks_peak(cx, name):
        w = TemplateMatching(cx)
        assert w._clean_sweep is not None
        tracemalloc.start()
        try:
            getattr(w, name)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for cx, name, bound in (
        (CubicalComplex.sphere(9), "_slice_facts", 2),
        (CubicalComplex.sphere(11), "_slice_facts", 2),
        (CubicalComplex.sphere(9), "_flows", 22),
    ):
        checks_peak(cx, name)  # warms the numpy caches
        peak = checks_peak(cx, name)
        assert peak < bound * cx.cell_count, (name, peak / cx.cell_count)
