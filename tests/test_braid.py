import random
from collections import Counter

import numpy as np
import pytest

from cubemorse.braid import (
    BraidSkeleton,
    CondensationPoset,
    SkeletonError,
    build_braid_complex,
    condensation,
    condensation_dot,
    crossing_number,
    crossing_table,
    grade_cell,
    grade_cells,
    improper_vertices,
    nfold_cover,
    parse_braid_file,
    reference_braid,
    torus_knot,
    validate_skeleton,
    _verify_grading,
)
from cubemorse.core import FormatError, IntegrityError
from cubemorse.cubical import CubicalComplex, alpha, beta

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


class ChainPoset:
    """Classes 0 < 1 < ... < n-1."""

    n = 4

    def leq(self, p, q):
        return p <= q


@pytest.mark.parametrize("vertex, coface", [((0, 2), (1, 2)), ((4, 2), (3, 2))])
def test_verify_grading_catches_each_direction(vertex, coface):
    # C(2; 2), digits 0..4: vertices 0, edges 2, squares 3, except that one
    # edge next to the vertex has grade 1.  Raising the vertex to grade 2 then
    # breaks only the pair with that edge: at digit 0 through the +1
    # neighbour, at digit 2m = 4 through the -1 neighbour.
    cx = CubicalComplex.full(2, 2)
    grades = np.array([[0, 2, 3][cx.dim_of(c)] for c in cx.cells()], dtype=np.int32)
    grades[cx.cell_id(coface)] = 1
    _verify_grading(grades, cx.base, cx.d, ChainPoset())
    grades[cx.cell_id(vertex)] = 2
    with pytest.raises(IntegrityError, match="grade 2 is not below coface grade 1"):
        _verify_grading(grades, cx.base, cx.d, ChainPoset())


def test_verify_grading_agrees_with_coface_scan():
    bc = build_braid_complex(reference_braid())
    cx, po = bc.cx, bc.poset
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        grades = bc.grades.copy()
        grades[rng.randrange(grades.size)] = rng.randrange(po.n)
        bad = any(
            not po.leq(int(grades[c]), int(grades[k]))
            for c in cx.cells()
            for k in cx.coboundary(c)
        )
        outcomes.add(bad)
        if bad:
            with pytest.raises(IntegrityError):
                _verify_grading(grades, cx.base, cx.d, po)
        else:
            _verify_grading(grades, cx.base, cx.d, po)
    assert outcomes == {False, True}


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
