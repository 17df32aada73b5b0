"""Round-1 flow counting over the template sweep against the per-cell walk.

``morse_boundary`` builds the flow graph of :func:`template_round` in array
passes when it is given a ``TemplateMatching``, over its whole sweep.
Given a plain lower-only callable built from the same sweep codes, it walks
the cells breadth first.  Both must give the same boundary, or both raise
:class:`AcyclicityError` naming the same lower cell.  The row sums
(``matching._flow_rows``) and the cycle test (``matching._peel``) that both
paths share are checked on random digraphs against a memoized depth-first
search.
"""
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubemorse.braid import build_braid_complex, nfold_cover, reference_braid
from cubemorse.core import AcyclicityError
from cubemorse.cubical import CubicalComplex
from cubemorse import matching
from cubemorse.matching import TemplateMatching, _flow_rows, _index_dtype, _peel, template_sweep
from cubemorse.morse import homology, morse_boundary, template_round
from .helpers import member_codes, nonzero_boundary, random_cubical_complex, top_cube_complexes


def both_paths(cx, code):
    """(array, per-cell) outcomes of ``morse_boundary`` on the fixed cells of
    one sweep's codes by slot, given as the whole sweep of a
    ``TemplateMatching``: the boundary, or, when it raises
    :class:`AcyclicityError`, that class and the lower cell it names."""
    ids, kind = cx.member_ids(), member_codes(cx, code)
    criticals = ids[kind == 0].tolist()
    lower = {c: c + cx.pows[k - 1] for c, k in zip(ids.tolist(), kind.tolist()) if k > 0}
    sweep = TemplateMatching(cx)
    sweep._whole = code
    out = []
    for mate in (sweep, lambda c: lower.get(c, c)):
        try:
            out.append(morse_boundary(criticals, cx._boundary_raw, mate, cx.dim_of))
        except AcyclicityError as err:
            out.append((AcyclicityError, int(re.search(r"lower cell (\d+) ", str(err)).group(1))))
    return out


def assert_paths_agree(cx, grades=None):
    arrays, cells = both_paths(cx, template_sweep(cx, grades))
    assert arrays == cells
    return arrays


def test_random_complexes_ungraded_and_graded():
    rng = random.Random(31)
    rows = 0
    for d in range(1, 5):
        for _ in range(15):
            cx = random_cubical_complex(rng, d, rng.randint(1, 3))
            rows += len(assert_paths_agree(cx))
            grades = np.array([rng.randrange(3) for _ in range(cx.total_ids)])
            assert_paths_agree(cx, grades)
    assert rows  # some complexes keep a nonzero reduced boundary


def test_graded_braids():
    for nfold in (1, 2):
        bc = build_braid_complex(nfold_cover(reference_braid(), nfold))
        assert assert_paths_agree(bc.cx, bc.grades)


def test_grids():
    for d in range(1, 7):
        assert_paths_agree(CubicalComplex.sphere(d))
    for d in range(1, 4):
        assert_paths_agree(CubicalComplex.top_sphere(d))
    for m, d in ((1, 1), (2, 2), (3, 3), (4, 2), (4, 3), (2, 4)):
        assert_paths_agree(CubicalComplex.full(m, d))


@settings(max_examples=60, deadline=None, database=None)
@given(top_cube_complexes())
def test_top_cube_files(cx):
    assert_paths_agree(cx)


def test_array_path_detects_cycles():
    # In the fiber of anchor (1, 1, 1) of the 5^3 grid, three lower edges
    # flow around a hexagon: (2,3,2) -> square (3,3,2) -> edge (3,2,2) ->
    # square (3,2,3) -> edge (2,2,3) -> square (2,3,3) -> edge (2,3,2).
    # Every other cell is fixed; the fixed square (1,3,2) leads into it.
    cx = CubicalComplex.full(2, 3)
    ids = cx.member_ids()
    code = np.zeros(ids.size, dtype=np.int8)
    for edge, axis in (((2, 3, 2), 1), ((3, 2, 2), 3), ((2, 2, 3), 2)):
        q = cx.cell_id(edge)
        code[q], code[q + cx.pows[axis - 1]] = axis, -axis
    assert code[cx.cell_id((1, 3, 2))] == 0
    # both paths name the smallest lower cell on the cycle, never a fixed source
    assert sorted(map(cx.cell_id, [(2, 3, 2), (3, 2, 2), (2, 2, 3)])) == [63, 67, 87]
    assert both_paths(cx, code) == [(AcyclicityError, 63)] * 2


def test_indices_widen_past_int32(monkeypatch):
    """Slots, nodes and flow columns are int32 only while they index fewer
    than 2^31 entries, since a cast past that wraps and indexes from the
    end; beyond it they are intp, and round one and homology are the same
    in intp."""
    assert _index_dtype(2**31 - 1) == np.int32 and _index_dtype(2**31) == np.intp
    rng = random.Random(3)
    anchors = [a for a in itertools.product(range(6), repeat=3) if rng.random() < 0.5]
    cx = CubicalComplex.from_top_cells(6, 3, anchors)
    assert cx._member_mask is not None
    want, betti = assert_paths_agree(cx), homology(cx).betti
    seen = []
    wide = lambda n: seen.append(n) or np.dtype(np.intp)
    monkeypatch.setattr(matching, "_index_dtype", wide)
    cx = CubicalComplex.from_top_cells(6, 3, anchors)
    code = template_sweep(cx)
    at, (src, dst), (fsrc, fat) = matching._flow_graph(code, np.flatnonzero(code == 0), matching._sweep_faces(cx, code))
    assert {x.dtype for x in (at, src, dst, fsrc, fat)} == {np.dtype(np.intp)}
    assert want and assert_paths_agree(cx) == want and homology(cx).betti == betti
    assert cx.total_ids in seen  # the flow graph asked by slot count, one slot per id


def test_flow_pruning_skips_spheres(monkeypatch):
    """The fixed cells of a sphere have dimensions 0 and d only, so for
    d >= 2 round one counts no flow and expands no face."""
    calls = []
    for name in ("_face_arrays", "_boundary_raw"):
        real = getattr(CubicalComplex, name)
        monkeypatch.setattr(
            CubicalComplex, name, lambda self, x, real=real: calls.append(x) or real(self, x)
        )
    for d in range(2, 7):
        cx = CubicalComplex.sphere(d)
        E = template_round(cx)
        assert sorted(E.dims.values()) == [0, d] and not nonzero_boundary(E)
        assert both_paths(cx, template_sweep(cx)) == [{}, {}]
        assert calls == []
    assert homology(CubicalComplex.sphere(6)).betti == [1, 0, 0, 0, 0, 0, 1]
    # a circle keeps adjacent dimensions, so its flows are counted
    template_round(CubicalComplex.sphere(1))
    assert calls


def test_round_one_takes_fixed_dims_in_one_array_pass(monkeypatch):
    """Flow pruning and the reduced complex share one ``_dims`` pass over
    the fixed cells of round one and ask ``dim_of`` nothing."""
    cx = random_cubical_complex(random.Random(0), 3)
    asked, passes = [], []
    real_dim_of, real_dims = cx.dim_of, cx._dims
    monkeypatch.setattr(cx, "dim_of", lambda c: asked.append(c) or real_dim_of(c))
    monkeypatch.setattr(cx, "_dims", lambda ids: passes.append(ids.tolist()) or real_dims(ids))
    E = template_round(cx)
    assert nonzero_boundary(E)  # flows were counted
    assert asked == [] and passes == [sorted(E.dims)]
    assert E.dims == {c: real_dim_of(c) for c in E.dims}


def walk_passes(cx, code):
    """(passes, nodes) of the breadth-first flow walk of round one, walked
    cell by cell: it starts from the fixed cells whose rows count and steps
    from each node to the new lower faces of its partner, or of itself when
    fixed."""
    kind = dict(zip(cx.member_ids().tolist(), member_codes(cx, code).tolist()))
    dims = {c: cx.dim_of(c) for c, k in kind.items() if k == 0}
    front = [c for c in sorted(dims) if dims[c] - 1 in set(dims.values())]
    seen, passes, nodes = set(front), 0, 0
    while front:
        passes += 1
        nodes += len(front)
        nxt = []
        for c in front:
            k = kind[c]
            for f in cx._boundary_raw(c + cx.pows[k - 1] if k > 0 else c):
                if f != c and kind[f] > 0 and f not in seen:
                    seen.add(f)
                    nxt.append(f)
        front = nxt
    return passes, nodes


@pytest.mark.parametrize("chunk", [None, 64])
def test_walk_takes_each_frontier_in_few_chunks(monkeypatch, chunk):
    """The flow walk of one ``template_round`` calls ``_face_arrays`` at most
    once per pass plus once per ``_WALK_CHUNK`` further frontier nodes, on
    at most ``_WALK_CHUNK`` nodes each, and the chunk size does not change
    the reduced boundary."""
    rng = random.Random(5)
    anchors = [a for a in itertools.product(range(12), repeat=3) if rng.random() < 0.5]
    cx = CubicalComplex.from_top_cells(12, 3, anchors)
    want = template_round(cx).rows
    passes, nodes = walk_passes(cx, template_sweep(cx))
    if chunk is not None:
        monkeypatch.setattr(matching, "_WALK_CHUNK", chunk)
    size = matching._WALK_CHUNK
    assert nodes > 4 * 256  # wide enough that chunks of 256 would exceed the bound
    calls = []
    real = CubicalComplex._face_arrays
    monkeypatch.setattr(
        CubicalComplex, "_face_arrays", lambda self, x: calls.append(len(x)) or real(self, x)
    )
    assert template_round(cx).rows == want
    assert passes <= len(calls) <= passes + nodes // size
    assert max(calls) <= size and sum(calls) == nodes


def dfs_rows(n, edges, fixed):
    """Flow rows by memoized depth-first search: (rows, stuck) where a
    node's row is the set of its columns plus its successors' rows, mod 2,
    and stuck holds the nodes that reach a cycle (their rows are None)."""
    succ = [[] for _ in range(n)]
    cols = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    for u, c in fixed:
        cols[u].append(c)
    state, rows, stuck = [0] * n, [None] * n, set()

    def visit(v):
        state[v] = 1  # open
        acc = set()
        for c in cols[v]:
            acc ^= {c}
        for w in succ[v]:
            if state[w] == 0:
                visit(w)
            if state[w] == 1 or w in stuck:
                stuck.add(v)  # an open successor closes a cycle through v
            else:
                acc ^= rows[w]
        state[v] = 2
        if v not in stuck:
            rows[v] = acc

    for v in range(n):
        if not state[v]:
            visit(v)
    return rows, stuck


@st.composite
def flow_graphs(draw):
    """Random digraphs (n, sources, edges, fixed), edges and fixed ascending
    by source.  Each node is a dead end, a chain node with one successor
    (often the next node, so chains run long and, closed around the end,
    form cycles of chain nodes), or a node with a few successors and
    columns; repeats cancel mod 2."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    col = st.integers(0, 9)
    edges, fixed = [], []
    for v in range(n):
        kind = draw(st.sampled_from(["end", "chain", "next", "any"]))
        if kind == "end":
            fixed += [(v, c) for c in draw(st.lists(col, max_size=2))]
        elif kind == "chain":
            edges.append((v, draw(node)))
        elif kind == "next":
            edges.append((v, (v + 1) % n))
        else:
            edges += [(v, w) for w in draw(st.lists(node, max_size=3))]
            fixed += [(v, c) for c in draw(st.lists(col, max_size=3))]
    sources = draw(st.lists(node, min_size=1, max_size=n, unique=True))
    return n, sorted(sources), edges, fixed


@st.composite
def sinkward_graphs(draw):
    """Flow graphs whose every successor is a sink, the shape of a late
    reduction round: nodes 0..k-1 with edges into k..n-1, which have
    columns and no edges, or no node edge at all."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(0, n))
    sink = st.lists(st.integers(k, n - 1), max_size=3) if k < n else st.just([])
    edges = [(v, w) for v in range(k) for w in draw(sink)]
    fixed = [(v, c) for v in range(n) for c in draw(st.lists(st.integers(0, 9), max_size=3))]
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return n, sorted(sources), edges, fixed


def chain_into(n, cycle_from, fixed=()):
    """Nodes 0..n-1 each pointing at the next, the last back at ``cycle_from``
    (None: the last is a dead end), with node 0 the source."""
    edges = [(v, v + 1) for v in range(n - 1)]
    if cycle_from is not None:
        edges.append((n - 1, cycle_from))
    return n, [0], edges, list(fixed)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(flow_graphs(), sinkward_graphs()))
@example(chain_into(30, None, [(29, 3), (29, 5)]))  # a long chain into a dead end
@example(chain_into(30, 10))  # a chain into a cycle of chain nodes
@example(chain_into(30, 0))  # a cycle through the source, whose chain contracts to a loop
@example((4, [3], [(0, 1), (1, 2), (2, 0)], [(3, 1)]))  # a cycle of chain nodes alone
@example((5, [0, 3], [(0, 1), (1, 2), (2, 1), (3, 4)], [(0, 7), (2, 7), (4, 1)]))
@example((4, [0], [(0, 1), (0, 2), (1, 3), (2, 3)], [(3, 0), (3, 2)]))  # rows cancel
@example((3, [0, 2], [], [(0, 4), (0, 4), (1, 3), (2, 1), (2, 0)]))  # no node edge
@example((4, [0, 1], [(0, 2), (0, 3), (1, 3), (1, 3)], [(0, 1), (2, 1), (2, 5), (3, 5), (3, 0)]))  # edges into sinks
def test_flow_rows_match_depth_first_search(graph):
    """``_flow_rows`` gives the rows of a memoized depth-first search on any
    digraph, and marks exactly the nodes that reach a cycle; ``_peel`` finds
    a cycle exactly when some node reaches one."""
    n, sources, edges, fixed = graph
    arr = lambda pairs, i: np.array([p[i] for p in pairs], dtype=np.intp)
    src, dst = arr(edges, 0), arr(edges, 1)
    stuck, indptr, cols = _flow_rows(n, np.array(sources, dtype=np.intp), src, dst, arr(fixed, 0), arr(fixed, 1))
    rows, want_stuck = dfs_rows(n, edges, fixed)
    assert _peel(n, src, dst) == (not want_stuck)
    assert set(np.flatnonzero(stuck).tolist()) == want_stuck
    for i, s in enumerate(sources):
        got = cols[indptr[i]:indptr[i + 1]].tolist()
        assert got == ([] if s in want_stuck else sorted(rows[s]))


@settings(max_examples=100, deadline=None, database=None)
@given(sinkward_graphs())
def test_flow_rows_of_sinkward_graphs_take_no_peel(graph):
    """When every successor is a sink, as in the late reduction rounds,
    ``_flow_rows`` needs no peel beyond its first two layers, the sinks and
    then every other node, and gives the depth-first rows."""
    n, sources, edges, fixed = graph
    arr = lambda pairs, i: np.array([p[i] for p in pairs], dtype=np.intp)
    layers, peel = [], matching._layers

    def counted(*args):
        for layer in peel(*args):
            layers.append(layer)
            yield layer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_layers", counted)
        stuck, indptr, cols = _flow_rows(
            n, np.array(sources, dtype=np.intp), arr(edges, 0), arr(edges, 1), arr(fixed, 0), arr(fixed, 1)
        )
    rows, _ = dfs_rows(n, edges, fixed)
    assert len(layers) <= 2
    assert not stuck.any()
    assert [cols[indptr[i]:indptr[i + 1]].tolist() for i in range(len(sources))] == [sorted(rows[s]) for s in sources]
