import random
import time
import tracemalloc
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubemorse import braid
from cubemorse.braid import (
    BraidComplex,
    BraidSkeleton,
    CondensationPoset,
    SkeletonError,
    build_braid_complex,
    condensation,
    condensation_dot,
    crossing_table,
    grade_cells,
    improper_vertices,
    nfold_cover,
    parse_braid_file,
    reference_braid,
    torus_knot,
    validate_skeleton,
    _strong_components,
)
from cubemorse.core import FormatError, IntegrityError
from cubemorse.cubical import CubicalComplex, alpha, beta
from cubemorse.morse import template_round
from .helpers import braid_skeletons, crossing_number, grade_cell, reachability, traced_peak

REFERENCE_ROWS = [(0, 0, 0), (1, 3, 1), (2, 1, 2), (3, 4, 3), (4, 2, 4), (5, 5, 5)]


def test_reference_skeleton_shape():
    sk = reference_braid()
    assert sk.m == 6 and sk.d == 2
    assert sk.strands == tuple(REFERENCE_ROWS)
    assert sk.tau == (0, 1, 2, 3, 4, 5)


def test_validate_collects_all_violations():
    # heights out of range and a non-permutation column
    rows = [(0, 9, 0), (1, 9, 1)]
    with pytest.raises(SkeletonError) as e:
        validate_skeleton(rows)
    kinds = {k for k, _ in e.value.violations}
    assert "range" in kinds and "cross-section" in kinds


def test_validate_rejects_ragged_and_empty():
    with pytest.raises(SkeletonError):
        validate_skeleton([])
    with pytest.raises(SkeletonError):
        validate_skeleton([(0, 0), (1, 1, 1)])
    with pytest.raises(SkeletonError):
        validate_skeleton([(0,), (1,)])
    with pytest.raises(SkeletonError) as e:
        validate_skeleton([(0, 0, 0)])  # one strand
    assert [k for k, _ in e.value.violations] == ["shape"]


def test_validate_transversality_bounce():
    # strands meet at position 2 and bounce apart: both diagnostics fire
    rows = [(0, 1, 0), (1, 1, 1)]
    with pytest.raises(SkeletonError) as e:
        validate_skeleton(rows)
    kinds = {k for k, _ in e.value.violations}
    assert kinds == {"cross-section", "transversality"}
    # same duplicate column but the strands genuinely cross: only the
    # cross-section complaint remains
    rows = [(0, 1, 1), (1, 1, 0)]
    with pytest.raises(SkeletonError) as e:
        validate_skeleton(rows)
    assert {k for k, _ in e.value.violations} == {"cross-section"}


def test_validate_10000_strands_skips_the_pair_scan():
    """Every cross-section of a valid diagram is a permutation, so no two
    strands meet and the transversality scan runs nowhere: 10,000 strands of
    period 1 (a 19,999-cell grid) validate in 0.02-0.03 s measured on 2
    shared cores, where comparing every pair of strands took 3.0 s."""
    rng = random.Random(10_000)
    heights = list(range(10_000))
    rng.shuffle(heights)
    t0 = time.perf_counter()
    sk = validate_skeleton([(a, h) for a, h in enumerate(heights)])
    assert time.perf_counter() - t0 < 0.5
    assert (2 * (sk.m - 1) + 1) ** sk.d == 19_999
    assert sk.tau == tuple(heights)  # strand a starts at height a


def test_crossing_strands_validate():
    # exchange diagram: strands swap heights once per period
    sk = validate_skeleton([(0, 1, 1), (1, 0, 0)])
    assert sk.tau == (1, 0)
    assert sk.m == 2 and sk.d == 2


def test_nfold_cover_concatenates_periods():
    sk = reference_braid()
    v2 = nfold_cover(sk, 2)
    assert v2.m == 6 and v2.d == 4
    assert v2.strands[1] == (1, 3, 1, 3, 1)
    assert nfold_cover(sk, 1).strands == sk.strands
    with pytest.raises(ValueError):
        nfold_cover(sk, 0)


def test_nfold_cover_follows_tau():
    base = validate_skeleton([(0, 1, 1), (1, 0, 0)])  # tau swaps the strands
    v2 = nfold_cover(base, 2)
    assert v2.strands[0] == (0, 1, 1, 0, 0)
    assert v2.tau == (0, 1)


def test_torus_knot_structure():
    sk = torus_knot(5)
    assert sk.m == 5 and sk.d == 4
    assert sk.strands[3] == (3, 2, 1, 3, 2)
    assert sk.strands[0] == (0, 0, 0, 0, 0)
    assert sk.strands[4] == (4, 4, 4, 4, 4)
    assert sk.tau == (0, 3, 1, 2, 4)
    with pytest.raises(ValueError):
        torus_knot(2)


def test_crossing_number_reference_values():
    sk = reference_braid()
    assert crossing_number(sk, (0, 0)) == 0
    assert crossing_number(sk, (4, 4)) == 0
    assert crossing_number(sk, (0, 4)) == 8
    assert crossing_number(sk, (4, 0)) == 8
    assert crossing_number(sk, (2, 2)) == 4


def test_crossing_table_matches_pointwise_counts():
    for sk in (reference_braid(), torus_knot(5), validate_skeleton([(0, 1), (1, 0)])):
        tbl = crossing_table(sk)
        na = sk.m - 1
        assert tbl.shape == (na,) * sk.d
        for anchor in np.ndindex(tbl.shape):
            assert tbl[anchor] == crossing_number(sk, anchor)


@settings(max_examples=80, deadline=None, database=None)
@given(braid_skeletons(max_m=6))
def test_crossing_table_equals_crossing_number_on_generated_skeletons(sk):
    tbl = crossing_table(sk)
    assert tbl.shape == (sk.m - 1,) * sk.d
    for anchor in np.ndindex(tbl.shape):
        assert tbl[anchor] == crossing_number(sk, anchor)


def test_crossing_table_of_2000_strands_is_quadratic():
    """A 2,000-strand period-1 table counts by cumulative sums, O(m^2) per
    segment: 0.13-0.20 s measured on 2 shared cores, where the outer
    product per strand, O(m^3), took about 38 s."""
    rng = random.Random(2000)
    heights = list(range(2000))
    rng.shuffle(heights)
    sk = validate_skeleton([(a, h) for a, h in enumerate(heights)])
    t0 = time.perf_counter()
    tbl = crossing_table(sk)
    assert time.perf_counter() - t0 < 3.0
    for x in (0, 999, 1998):
        assert tbl[x] == crossing_number(sk, (x,))


def test_improper_vertices_reference():
    sk = reference_braid()
    assert improper_vertices(sk) == [
        (0, 0), (1, 3), (2, 1), (3, 4), (4, 2), (5, 5)
    ]
    # a diagram whose strands all move has none
    assert improper_vertices(validate_skeleton([(0, 1), (1, 0)])) == []


def test_condensation_reference_counts():
    po = condensation(reference_braid())
    assert po.n == 13
    assert int(po.top_counts.sum()) == 25
    assert sorted(po.top_counts.tolist()) == [1] * 9 + [4] * 4


def test_condensation_poset_ranks_sinks_first_and_refuses_a_cycle():
    labels, cross = np.arange(3), np.zeros(3, dtype=np.int64)
    po = CondensationPoset(3, labels, np.array([0, 0, 2]), np.array([1, 2, 1]), cross)
    assert po.rank.tolist() == [2, 0, 1]  # every edge u -> v has rank[v] < rank[u]
    with pytest.raises(IntegrityError, match="^condensation is not acyclic$"):
        CondensationPoset(3, labels, np.array([0, 1, 1]), np.array([1, 0, 2]), cross)


def mutual_reach_classes(n, edges):
    """Brute-force strongly connected classes of a digraph on 0..n-1: a
    boolean transitive closure, classes numbered by their smallest node.
    Returns (labels, set of class edges (p, q) with p != q)."""
    reach = np.eye(n, dtype=bool)
    for u, v in edges:
        reach[u, v] = True
    for w in range(n):
        reach |= reach[:, w : w + 1] & reach[w : w + 1, :]
    smallest = (reach & reach.T).argmax(axis=1)  # first node reached both ways
    _, labels = np.unique(smallest, return_inverse=True)
    dag = {(int(labels[u]), int(labels[v])) for u, v in edges if labels[u] != labels[v]}
    return labels, dag


@st.composite
def mixed_digraphs(draw):
    """Nodes 0..n-1 with one-way edges (self-loops and duplicates allowed),
    a closed walk of one-way edges, and two-way pairs."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    one = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    walk = draw(st.lists(node, max_size=n))
    one += list(zip(walk, walk[1:] + walk[:1]))
    one += draw(st.lists(st.sampled_from(one), max_size=3)) if one else []
    two = draw(st.lists(st.tuples(node, node), max_size=n))
    return n, one, two


def _edge_arrays(pairs):
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


@settings(max_examples=150, deadline=None, database=None)
@given(mixed_digraphs())
@example((5, [(0, 1), (1, 2), (2, 0), (3, 3), (3, 4), (3, 4)], [(4, 1)]))  # one-way cycle
@example((4, [(3, 0), (0, 3)], [(1, 2), (2, 1), (2, 2)]))
def test_strong_components_match_mutual_reachability(graph):
    n, one, two = graph
    labels, dag = mutual_reach_classes(n, one + two + [(b, a) for a, b in two])
    got_n, got_labels, codes = _strong_components(n, _edge_arrays(one), _edge_arrays(two))
    assert got_n == labels.max() + 1
    assert got_labels.tolist() == labels.tolist()
    assert codes.tolist() == sorted(p * got_n + q for p, q in dag)


def crossing_relation_edges(sk):
    """The crossing relation by loops over top cubes, as flat-index pairs:
    adjacent tops point toward the smaller or equal crossing number, and
    adjacent tops around an improper vertex point both ways."""
    na, d = sk.m - 1, sk.d
    tbl = crossing_table(sk)

    def flat(t):
        return sum(k * na**i for i, k in enumerate(t))

    edges = []
    for t in product(range(na), repeat=d):
        for ax in range(d):
            if t[ax] + 1 < na:
                t2 = t[:ax] + (t[ax] + 1,) + t[ax + 1 :]
                if tbl[t2] <= tbl[t]:
                    edges.append((flat(t), flat(t2)))
                if tbl[t] <= tbl[t2]:
                    edges.append((flat(t2), flat(t)))
    for vert in improper_vertices(sk):
        star = set(product(*[[k for k in (v - 1, v) if 0 <= k < na] for v in vert]))
        for t in star:
            for ax in range(d):
                t2 = t[:ax] + (t[ax] + 1,) + t[ax + 1 :]
                if t2 in star:
                    edges += [(flat(t), flat(t2)), (flat(t2), flat(t))]
    return edges


@pytest.mark.parametrize(
    "sk",
    [reference_braid(), nfold_cover(reference_braid(), 2), torus_knot(5)],
    ids=["reference", "nfold2", "torus5"],
)
def test_condensation_matches_mutual_reachability(sk):
    po = condensation(sk)
    labels, dag = mutual_reach_classes((sk.m - 1) ** sk.d, crossing_relation_edges(sk))
    assert po.n == labels.max() + 1
    assert po.labels.tolist() == labels.tolist()  # numbered by smallest top
    assert list(zip(po.dag_u.tolist(), po.dag_v.tolist())) == sorted(dag)


def test_condensation_poset_order_properties():
    po = condensation(reference_braid())
    for p in range(po.n):
        assert po.leq(p, p)
    for p in range(po.n):
        for q in range(po.n):
            if p != q and po.leq(p, q):
                # antisymmetry, and the linear extension separates the pair
                assert not po.leq(q, p)
                assert po.rank[p] != po.rank[q]
    for p in range(po.n):
        for q in range(po.n):
            for r in range(po.n):
                if po.leq(p, q) and po.leq(q, r):
                    assert po.leq(p, r)


def test_condensation_least():
    po = condensation(reference_braid())
    assert po.least([0, 1]) == 0
    assert po.least([5]) == 5
    with pytest.raises(IntegrityError):
        po.least(range(po.n))
    assert not po.leq(0, 8) and not po.leq(8, 0)
    with pytest.raises(IntegrityError):
        po.least([0, 8])


def test_relation_pairs_subset():
    po = condensation(reference_braid())
    assert po.relation_pairs([0, 1, 2]) == [(0, 1), (0, 2), (1, 2)]
    pairs = set(po.relation_pairs(range(po.n)))
    for p in range(po.n):
        for q in range(po.n):
            if p != q:
                assert ((p, q) in pairs) == po.leq(p, q)


def test_crossing_range_per_class():
    sk = reference_braid()
    po = condensation(sk)
    flat = crossing_table(sk).ravel(order="F")
    for p in range(po.n):
        vals = flat[po.labels == p]
        assert int(po.cross_min[p]) == int(vals.min())
        assert int(po.cross_max[p]) == int(vals.max())


def test_grades_match_single_cell_route():
    sk = reference_braid()
    bc = build_braid_complex(sk)
    for cell in bc.cx.cells():
        assert bc.grade_of(cell) == grade_cell(sk, bc.poset, bc.cx, cell)


def test_grades_are_filtered_along_boundary():
    bc = build_braid_complex(reference_braid())
    for cell in bc.cx.cells():
        for face in bc.cx.boundary(cell):
            assert bc.poset.leq(bc.grade_of(face), bc.grade_of(cell))


def test_grade_cells_verify_flag_runs():
    sk = torus_knot(5)
    po = condensation(sk)
    a = grade_cells(sk, po, verify=True)
    b = grade_cells(sk, po, verify=False)
    assert np.array_equal(a, b)


def test_grading_check_of_many_classes_pools_once(monkeypatch):
    """The 2,000-strand period-1 diagram has 3,999 cells and 1,327 classes:
    its check table (1.8 MB) fits the fixed floor, so the grid pools in one
    block, d axis passes.  0.03 s measured on 2 shared cores, where a table
    bounded by 4 bytes per cell pooled 111 blocks in about 3.7 s."""
    rng = random.Random(2000)
    heights = list(range(2000))
    rng.shuffle(heights)
    sk = validate_skeleton([(a, h) for a, h in enumerate(heights)])
    po = condensation(sk)
    assert po.n == 1327
    calls = []
    real = braid._pool_axis
    monkeypatch.setattr(braid, "_pool_axis", lambda *a: calls.append(a[1]) or real(*a))
    t0 = time.perf_counter()
    grades = grade_cells(sk, po)
    assert time.perf_counter() - t0 < 1.0
    assert calls == list(range(sk.d))
    assert np.array_equal(grades, grade_cells(sk, po, verify=False))


def test_input_counts_tally():
    bc = build_braid_complex(reference_braid())
    counts = bc.input_counts()
    assert sum(counts.values()) == bc.cx.cell_count == 121
    by_dim = [0, 0, 0]
    for (_, dm), n in counts.items():
        by_dim[dm] += n
    # cells of C(5;2) by dimension: vertices, edges, squares
    assert by_dim == [36, 60, 25]


def test_input_counts_equal_brute_force_tally():
    for sk in (reference_braid(), torus_knot(5)):
        bc = build_braid_complex(sk)
        want = Counter((bc.grade_of(c), bc.cx.dim_of(c)) for c in bc.cx.cells())
        assert bc.input_counts() == dict(want)


@pytest.mark.parametrize("piece", [1, 16, 200])
def test_input_counts_in_small_pieces_equal_brute_force_tally(monkeypatch, piece):
    """Pieces that split the ids into fast and slow digits, as braid-v3's
    do: one cell, one row of 11 or 9 cells, or several rows per piece."""
    monkeypatch.setattr(braid, "_PIECE", piece)
    for sk in (reference_braid(), torus_knot(5)):
        bc = build_braid_complex(sk)
        want = Counter((bc.grade_of(c), bc.cx.dim_of(c)) for c in bc.cx.cells())
        assert bc.input_counts() == dict(want)


def test_input_counts_widen_int16_grades():
    """int16 grades are widened before ``grade * (d + 1)``, which exceeds
    32,767 here: the tally equals a per-cell count of (grade, dimension)."""
    cx = CubicalComplex.full(2, 3)
    grades = np.random.default_rng(4).integers(29_000, 30_000, cx.total_ids).astype(np.int16)
    bc = BraidComplex(None, cx, SimpleNamespace(n=30_000), grades, None)
    want = Counter(zip(grades.tolist(), cx._dims(np.arange(cx.total_ids)).tolist()))
    assert int(grades.max()) * (cx.d + 1) > np.iinfo(np.int16).max
    assert bc.input_counts() == dict(want)


@pytest.mark.parametrize("n, dtype", [(32_767, np.int16), (32_768, np.int32)])
def test_grades_are_int16_up_to_32767_classes(n, dtype):
    """Every top cube in the last class: each cell's grade is n - 1, held as
    int16 while the classes fit it and as int32 past that."""
    labels = np.full(4, n - 1)
    poset = CondensationPoset(n, labels, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(4, np.int64))
    grades = grade_cells(SimpleNamespace(m=3, d=2), poset)
    assert grades.dtype == dtype and grades.tolist() == [n - 1] * 25


def test_braid_v3_round_one_is_a_few_bytes_per_cell():
    """On braid-v3 (879 classes) ``grade_cells`` pools int16 ranks and peaks
    below 4.5 bytes per cell (4.09 measured), and ``template_round`` peaks
    below 2.95 (2.68 measured): the int8 codes by id and the flow walk's
    visited mask."""
    sk = nfold_cover(reference_braid(), 3)
    po = condensation(sk)
    bc = build_braid_complex(sk)
    n = bc.cx.cell_count
    assert n == 11**6 and bc.grades.dtype == np.int16
    assert traced_peak(lambda: grade_cells(sk, po)) < 4.5 * n
    assert traced_peak(lambda: template_round(bc.cx, bc.grades)) < 2.95 * n


class ChainPoset:
    """Classes 0 < 1 < ... < n-1, ranked by class, over a top grid whose
    classes are ``labels[x0][x1]``; ``leq`` drops the relations in ``drop``
    and answers int arrays elementwise."""

    def __init__(self, labels, n=4, drop=()):
        self.n = n
        self.labels = np.asarray(labels).ravel(order="F")  # flat top index x0 + na * x1
        self.rank = np.arange(n)
        self.drop = set(drop)

    def leq(self, p, q):
        p, q = np.asarray(p), np.asarray(q)
        kept = [(a, b) not in self.drop for a, b in zip(p.ravel().tolist(), q.ravel().tolist())]
        return (p <= q) & np.array(kept, dtype=bool).reshape(p.shape)


class DroppedRelations:
    """A condensation poset whose ``leq`` drops the relations in ``drop``
    and records every pair of the arrays it is asked about."""

    def __init__(self, poset, drop=()):
        self.poset = poset
        self.n, self.rank, self.labels = poset.n, poset.rank, poset.labels
        self.drop = set(drop)
        self.asked = []

    def leq(self, p, q):
        p, q = np.asarray(p), np.asarray(q)
        pairs = list(zip(p.ravel().tolist(), q.ravel().tolist()))
        self.asked += pairs
        kept = np.array([pair not in self.drop for pair in pairs], dtype=bool).reshape(p.shape)
        return kept & self.poset.leq(p, q)


def coface_scan_pairs(grades, base, d):
    """Distinct unequal (face grade, coface grade) pairs over a (base,)^d grid."""
    grid = grades.reshape((base,) * d, order="F")
    pairs = set()
    for ax in range(d):
        odd = np.take(grid, range(1, base, 2), axis=ax)
        for even in (np.take(grid, range(0, base - 1, 2), axis=ax), np.take(grid, range(2, base, 2), axis=ax)):
            pick = even != odd
            pairs |= set(zip(even[pick].tolist(), odd[pick].tolist()))
    return pairs


@pytest.mark.parametrize(
    "labels",
    [[[1, 1], [2, 2]], [[2, 2], [1, 1]], [[1, 2], [1, 2]], [[2, 1], [2, 1]]],
    ids=["axis0-lower", "axis0-upper", "axis1-lower", "axis1-upper"],
)
def test_verify_grading_catches_each_direction(labels):
    # C(2; 2) over two top cubes of class 1 and two of class 2, split across
    # one axis: the cells between them pool to grade 1 from the lower or the
    # upper side, along the first axis pooled or the second.  Dropping 1 <= 2
    # leaves those stars without a least class.
    sk = SimpleNamespace(m=3, d=2)
    cx = CubicalComplex.full(2, 2)
    grades = grade_cells(sk, ChainPoset(labels))
    assert grades.tolist().count(1) == 15 and grades.tolist().count(2) == 10
    assert grades[cx.cell_id((2, 2))] == 1  # the centre vertex, in all four stars
    with pytest.raises(IntegrityError, match="^grade 1 is not below coface grade 2: star has no least class$"):
        grade_cells(sk, ChainPoset(labels, drop={(1, 2)}))


def test_verify_grading_agrees_with_coface_scan():
    """For an order with one or two relations dropped, ``grade_cells`` raises
    exactly when a brute coface scan finds a face grade not below a coface
    grade, and names the smallest such pair."""
    bc = build_braid_complex(reference_braid())
    cx, po = bc.cx, bc.poset
    relations = po.relation_pairs(range(po.n))
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        poset = DroppedRelations(po, rng.sample(relations, rng.randint(1, 2)))
        bad = sorted(
            (bc.grade_of(c), bc.grade_of(k))
            for c in cx.cells()
            for k in cx.coboundary(c)
            if not poset.leq(bc.grade_of(c), bc.grade_of(k))
        )
        outcomes.add(bool(bad))
        if bad:
            p, q = bad[0]
            with pytest.raises(IntegrityError, match=rf"^grade {p} is not below coface grade {q}:"):
                grade_cells(bc.skeleton, poset)
        else:
            assert np.array_equal(grade_cells(bc.skeleton, poset), bc.grades)
    assert outcomes == {False, True}


def test_verify_grading_fills_its_table_in_blocks(monkeypatch):
    """A poset with n * n above the grade array's bytes is checked in blocks
    of table rows, pooling once per block, each table at most those bytes;
    a violation in a later block is found, and the smallest failing pair over
    all blocks is the one a single table names.  The fixed table floor is
    lifted, so that 25 cells reach the blocks."""
    monkeypatch.setattr(braid, "_TABLE_FLOOR", 0)
    sk = SimpleNamespace(m=3, d=2)  # 25 cells, 100 grade bytes
    # checked pairs: (0, 1) and (2, 3) along the first axis, then (0, 2) and (1, 3)
    labels = [[0, 2], [1, 3]]

    tables = []
    real_zeros = np.zeros

    def zeros(*args, **kwargs):
        out = real_zeros(*args, **kwargs)
        if out.dtype == bool:
            tables.append(out.nbytes)
        return out

    monkeypatch.setattr(np, "zeros", zeros)
    for drop, p in (({(2, 3)}, 2), ({(2, 3), (1, 3)}, 1)):
        for n, blocks in ((4, [16]), (50, [100] * 25)):  # rows of 2 classes: (2, 3) sits in the second
            tables.clear()
            with pytest.raises(IntegrityError, match=f"^grade {p} is not below coface grade 3:"):
                grade_cells(sk, ChainPoset(labels, n=n, drop=drop))
            assert tables == blocks


@pytest.mark.parametrize(
    "sk",
    [nfold_cover(reference_braid(), 1), nfold_cover(reference_braid(), 2)]
    + [torus_knot(m) for m in range(3, 9)],
    ids=["v1", "v2"] + [f"torus{m}" for m in range(3, 9)],
)
def test_verify_grading_asks_the_coface_pairs(sk):
    """The pairs ``grade_cells`` hands to ``leq`` are the distinct unequal
    (face grade, coface grade) pairs of a coface scan, each asked once."""
    po = DroppedRelations(condensation(sk))
    grades = grade_cells(sk, po)
    assert sorted(po.asked) == sorted(coface_scan_pairs(grades, 2 * sk.m - 1, sk.d))


@st.composite
def graded_top_grids(draw):
    """A small top grid (d <= 3, at most 4 intervals per axis) with random
    classes, ordered by a random DAG on them."""
    d = draw(st.integers(1, 3))
    na = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    edges = sorted(
        (order[j], order[i])  # u -> v: v below u, so the DAG follows ``order``
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    )
    labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=na**d, max_size=na**d)))
    dag_u = np.array([u for u, _ in edges], dtype=np.int64)
    dag_v = np.array([v for _, v in edges], dtype=np.int64)
    poset = CondensationPoset(n, labels, dag_u, dag_v, np.zeros(labels.size, dtype=np.int64))
    return SimpleNamespace(m=na + 1, d=d), poset


@settings(max_examples=150, deadline=None)
@given(graded_top_grids())
def test_grade_cells_equals_grade_cell(case):
    """``grade_cells`` raises exactly when some cell's star has no least
    class, and otherwise grades every cell as ``grade_cell`` does."""
    sk, poset = case
    cx = CubicalComplex.full(sk.m - 1, sk.d)
    want = []
    for cell in cx.cells():
        try:
            want.append(grade_cell(sk, poset, cx, cell))
        except IntegrityError:
            with pytest.raises(IntegrityError, match="^grade [0-9]+ is not below coface grade [0-9]+:"):
                grade_cells(sk, poset)
            return
    assert grade_cells(sk, poset).tolist() == want


def test_verify_grading_adds_under_a_byte_per_cell():
    """On braid-v3 the check marks its pairs slice by slice in a classes x
    classes table, over the core digits of the pooled axes: it peaks within
    0.9 bytes per cell of the pooling alone (0.72 above it measured, where
    contiguous copies of the digit slices took 8)."""
    sk = nfold_cover(reference_braid(), 3)
    po = condensation(sk)
    grade_cells(sk, po)  # the order's bitsets and numpy's caches, outside the trace
    peaks = {}
    for verify in (False, True):
        tracemalloc.start()
        try:
            grades = grade_cells(sk, po, verify=verify)
            peaks[verify] = tracemalloc.get_traced_memory()[1] / grades.size
        finally:
            tracemalloc.stop()
    assert grades.size == 11**6
    assert peaks[True] < peaks[False] + 0.9, peaks


def test_input_counts_memory_is_one_piece(monkeypatch):
    """On braid-v3 the tally keeps one piece of ``_PIECE`` int keys at a
    time, where the last axis's slab of 11^5 cells would take 1.29 MB of
    keys: every ``bincount`` counts at most ``_PIECE`` keys, and
    ``input_counts`` peaks at 1.61 MB measured, below a fixed 2 MB, the
    returned dict of 5,598 entries (0.66 MB) and its construction included."""
    bc = build_braid_complex(nfold_cover(reference_braid(), 3))
    bc.input_counts()  # numpy's caches, outside the trace
    assert traced_peak(bc.input_counts) < 2_000_000
    counted = []
    real_bincount = np.bincount

    def bincount(keys, *args, **kwargs):
        counted.append(keys.size)
        return real_bincount(keys, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    bc.input_counts()
    assert counted and max(counted) <= braid._PIECE


def end_slices_repeat(grades: np.ndarray, na: int, d: int) -> bool:
    """Whether digit slices 0 and 2na of every axis of a (2na + 1)^d grade
    grid equal slices 1 and 2na - 1, the lemma that lets the grading check
    skip them."""
    side = 2 * na + 1
    grid = grades.reshape((side,) * d, order="F")
    return all(
        np.array_equal(np.take(grid, end, axis=ax), np.take(grid, inner, axis=ax))
        for ax in range(d)
        for end, inner in ((0, 1), (side - 1, side - 2))
    )


@pytest.mark.parametrize(
    "sk",
    [nfold_cover(reference_braid(), n) for n in (1, 2, 3)] + [torus_knot(m) for m in range(3, 9)],
    ids=["v1", "v2", "v3"] + [f"torus{m}" for m in range(3, 9)],
)
def test_graded_end_slices_repeat_their_neighbours(sk):
    assert end_slices_repeat(grade_cells(sk, condensation(sk)), sk.m - 1, sk.d)


@settings(max_examples=100, deadline=None)
@given(graded_top_grids())
def test_pooled_end_slices_repeat_their_neighbours(case):
    """Pooling alone, so a grading the check refuses counts too."""
    sk, poset = case
    assert end_slices_repeat(grade_cells(sk, poset, verify=False), sk.m - 1, sk.d)


def assert_order_is_reachability(po) -> None:
    """``leq`` of every pair equals a breadth-first search over the DAG, in
    scalar form, in one array call, and for int16 arrays of any shape."""
    below = reachability(po.n, po.dag_u, po.dag_v)
    p, q = np.meshgrid(np.arange(po.n), np.arange(po.n), indexing="ij")
    got = po.leq(p, q)
    assert got.dtype == bool and np.array_equal(got, below.T)
    assert np.array_equal(po.leq(p.astype(np.int16).ravel(), q.astype(np.int16).ravel()), below.T.ravel())
    scalar = [po.leq(a, b) for a in range(po.n) for b in range(po.n)]
    assert all(type(x) is bool for x in scalar) and scalar == below.T.ravel().tolist()


@pytest.mark.parametrize(
    "sk",
    [nfold_cover(reference_braid(), 1), nfold_cover(reference_braid(), 2), torus_knot(10)],
    ids=["v1", "v2", "torus10"],
)
def test_order_test_equals_breadth_first_reachability(sk):
    assert_order_is_reachability(condensation(sk))


@settings(max_examples=100, deadline=None)
@given(graded_top_grids())
def test_order_test_equals_reachability_on_random_dags(case):
    assert_order_is_reachability(case[1])


def test_build_braid_complex_fields():
    sk = torus_knot(5)
    bc = build_braid_complex(sk)
    assert bc.cx.m == 4 and bc.cx.d == 4
    assert bc.grades.size == bc.cx.cell_count
    assert bc.cross_flat.size == (sk.m - 1) ** sk.d


def test_condensation_dot_format():
    po = condensation(reference_braid())
    dot = condensation_dot(po)
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert dot.count("label=") == po.n
    assert dot.count("->") == len(po.dag_u)
    assert "tops=4" in dot and "cross=" in dot


def test_parse_braid_file_round_trip():
    text = "6 2  # reference diagram\n" + "\n".join(
        " ".join(str(x) for x in row) for row in REFERENCE_ROWS
    )
    rows = parse_braid_file(text)
    assert validate_skeleton(rows).strands == reference_braid().strands


@pytest.mark.parametrize(
    "text",
    [
        "",
        "6\n",
        "a 2\n",
        "2 2\n0 0 0\n",
        "2 1\n0 1\n1 0\n2 2\n",
        "2 1\n0 1\n1 x\n",
        "0 1\n",
    ],
)
def test_parse_braid_file_rejects(text):
    with pytest.raises(FormatError):
        parse_braid_file(text)


@pytest.mark.parametrize(
    "text, error",
    [
        ("3 1\n0 1\nx\n", "expected 3 strand lines, found 2"),  # the count is named before the bad line
        ("2 1\n# 0 1\n  # 1 0\n", "expected 2 strand lines, found 0"),
        ("2 1\n0 1\n0\n", "expected 2 heights per strand, got '0'"),
        ("2 1\n0 1 # a\n1 y # b\n", "non-integer height in '1 y'"),
    ],
)
def test_parse_braid_file_names_the_count_first(text, error):
    with pytest.raises(FormatError, match=f"^{error}$"):
        parse_braid_file(text)


def test_parse_braid_file_strips_comments_and_blank_lines():
    rows = parse_braid_file("# strands\n2 1 # m d\n\n0 1 # first\n  \t\n1 0#second\n")
    assert rows.dtype == np.int64 and rows.tolist() == [[0, 1], [1, 0]]


def test_skeleton_error_message_lists_violations():
    try:
        validate_skeleton([(0, 9, 0), (1, 9, 1)])
    except SkeletonError as e:
        assert e.violations
        assert "range" in str(e)
    else:
        pytest.fail("expected SkeletonError")


def test_beta_moves_exactly_the_same_grade_pairs():
    bc = build_braid_complex(reference_braid())
    cx, g = bc.cx, bc.grade_of
    moved = blocked = 0
    for cell in cx.cells():
        for i in range(1, cx.d + 1):
            a = alpha(i, cell, cx)
            b = beta(i, cell, cx, g)
            if a != cell and g(a) != g(cell):
                assert b == cell
                blocked += 1
            else:
                assert b == a
                moved += a != cell
            assert beta(i, b, cx, g) == cell  # involution either way
    assert moved and blocked


def test_improper_star_tops_collapse_to_one_class():
    sk = reference_braid()
    poset = condensation(sk)
    side = sk.m - 1
    # the four top squares around the interior improper vertex (2, 1)
    stars = {poset.labels[v1 + side * v2] for v1, v2 in
             [(1, 0), (2, 0), (1, 1), (2, 1)]}
    assert len(stars) == 1


def test_adjacent_tops_order_toward_smaller_crossing():
    sk = reference_braid()
    bc = build_braid_complex(sk)
    poset, cx, side = bc.poset, bc.cx, sk.m - 1
    tbl = crossing_table(sk)

    # [1,2]x[0,1] and [2,3]x[0,1] (cross 2 and 4) share an improper
    # endpoint (2,1), so they sit in one class; the edge between them
    # grades into that class, the one holding the cross-2 cube.
    assert tbl[1, 0] == 2 and tbl[2, 0] == 4
    lo, hi = poset.labels[1 + side * 0], poset.labels[2 + side * 0]
    assert lo == hi
    edge = cx.cell_id((4, 1))  # [2,2] x [0,1]
    assert grade_cell(sk, poset, cx, edge) == lo

    # [0,1]x[0,1] (cross 0) vs [1,2]x[0,1] (cross 2): no improper contact,
    # so the order is strict and points at the smaller crossing count.
    assert tbl[0, 0] == 0
    c0, c2 = poset.labels[0 + side * 0], poset.labels[1 + side * 0]
    assert c0 != c2
    assert poset.leq(c0, c2) and not poset.leq(c2, c0)
    edge = cx.cell_id((2, 1))  # [1,1] x [0,1]
    assert grade_cell(sk, poset, cx, edge) == c0
