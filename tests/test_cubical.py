import itertools
import random

import pytest

from cubemorse.core import FormatError, NonMemberCellError, SizeGuardError, validate_complex
from cubemorse.cubical import (
    CubicalComplex,
    alpha,
    beta,
    parse_top_cell_file,
)
from cubemorse.hypercube import hboundary
from cubemorse.matching import TemplateMatching
from cubemorse.morse import _input_euler, homology, template_round
from .helpers import random_cubical_complex


def test_digit_codec_round_trip():
    cx = CubicalComplex.full(2, 2)
    assert cx.base == 5
    assert cx.cell_id((1, 4)) == 21
    assert cx.digits(21) == (1, 4)
    for cell in range(cx.base**cx.d):
        assert cx.cell_id(cx.digits(cell)) == cell


def test_intervals_and_dim():
    cx = CubicalComplex.full(2, 2)
    # even digit 2l is the point [l,l], odd digit 2l+1 the edge [l,l+1]
    assert cx.intervals(21) == ((0, 1), (2, 2))
    assert cx.dim_of(21) == 1
    assert cx.dim_of(0) == 0
    assert cx.dim_of(cx.cell_id((3, 3))) == 2
    for cell in range(25):
        assert cx.dim_of(cell) == sum(c & 1 for c in cx.digits(cell))


def test_anchor_extent_offsets_decompose_cells():
    cx = CubicalComplex.full(3, 3)
    offs = cx.offsets()
    for cell in random.Random(3).sample(range(cx.base**3), 60):
        base, mask = cx.anchor_and_mask(cell)
        assert cell == base + offs[mask]
        assert bin(mask).count("1") == cx.dim_of(cell)
        for i, c in enumerate(cx.digits(cell)):
            assert bool(mask >> i & 1) == bool(c & 1)
            assert cx.anchor(cell)[i] == c // 2


def test_boundary_faces_drop_one_dimension():
    cx = CubicalComplex.full(2, 3)
    for cell in range(cx.base**3):
        faces = cx.boundary(cell)
        assert list(faces) == sorted(set(faces))
        for f in faces:
            assert cx.dim_of(f) == cx.dim_of(cell) - 1
        assert len(faces) == 2 * cx.dim_of(cell)


def test_coboundary_is_boundary_transpose():
    for cx in (CubicalComplex.full(2, 2), CubicalComplex.sphere(2)):
        pairs = set()
        for c in cx.cells():
            for f in cx.boundary(c):
                pairs.add((f, c))
        for c in cx.cells():
            for co in cx.coboundary(c):
                assert (c, co) in pairs
                pairs.discard((c, co))
        assert not pairs


def test_kind_cell_counts():
    assert CubicalComplex.full(2, 2).cell_count == 25
    assert CubicalComplex.full(1, 4).cell_count == 81
    for d in (1, 2, 3):
        assert CubicalComplex.sphere(d).cell_count == 3 ** (d + 1) - 1
        assert CubicalComplex.top_sphere(d).cell_count == 7 ** (d + 1) - 1


def test_sphere_excludes_only_the_center():
    cx = CubicalComplex.sphere(1)
    center = cx.cell_id((1, 1))
    assert not cx.is_member(center)
    assert sorted(cx.cells()) == [c for c in range(9) if c != center]
    with pytest.raises(NonMemberCellError):
        cx.boundary(center)
    # faces of the missing square are all still there
    assert validate_complex(cx).ok


def test_top_sphere_excludes_central_cube_closure():
    cx = CubicalComplex.top_sphere(1)
    assert cx.m == 3 and cx.d == 2
    missing = [c for c in range(7**2) if not cx.is_member(c)]
    assert missing == [cx.cell_id((3, 3))]
    assert validate_complex(cx).ok


def test_max_cell_dim():
    assert CubicalComplex.full(2, 3).max_cell_dim == 3
    # the one top cell is gone, so the sphere tops out one lower
    assert CubicalComplex.sphere(2).max_cell_dim == 2
    # other top squares survive around the removed central one
    assert CubicalComplex.top_sphere(1).max_cell_dim == 2
    assert CubicalComplex.from_cells(2, 2, [21]).max_cell_dim == 1


def test_from_top_cells_closure():
    cx = CubicalComplex.from_top_cells(2, 2, [(0, 0)])
    # one unit square: 4 vertices + 4 edges + 1 square
    assert cx.cell_count == 9
    assert cx.members is not None
    assert validate_complex(cx).ok
    two = CubicalComplex.from_top_cells(2, 2, [(0, 0), (1, 1)])
    assert two.cell_count == 17  # squares share one corner vertex
    with pytest.raises(FormatError):
        CubicalComplex.from_top_cells(2, 2, [(2, 0)])
    with pytest.raises(FormatError):
        CubicalComplex.from_top_cells(2, 2, [(0, 0, 0)])


def test_from_top_cells_guard():
    anchor = tuple([0] * 17)  # 3^17 closure cells
    with pytest.raises(SizeGuardError):
        CubicalComplex.from_top_cells(1, 17, [anchor])


def test_from_cells_closes_downward():
    cx = CubicalComplex.from_cells(2, 2, [21])
    assert cx.cell_count == 3
    assert sorted(cx.cells()) == [20, 21, 22]
    assert validate_complex(cx).ok
    with pytest.raises(NonMemberCellError):
        CubicalComplex.from_cells(2, 2, [25])


def test_fibers_partition_the_complex():
    for cx in (
        CubicalComplex.full(2, 2),
        CubicalComplex.sphere(2),
        CubicalComplex.top_sphere(1),
        CubicalComplex.from_top_cells(2, 2, [(0, 0), (1, 1)]),
    ):
        seen: list[int] = []
        for base, members in cx.iter_fibers():
            assert members, "fibers are nonempty"
            offs = cx.offsets()
            cells = [base + offs[msk] for msk in members]
            seen.extend(cells)
            anchors = {cx.anchor(c) for c in cells}
            assert len(anchors) == 1
        assert sorted(seen) == sorted(cx.cells())


def test_fiber_members_matches_iteration():
    # iter_fibers and the per-anchor query agree on the extent masks
    for cx in (CubicalComplex.sphere(2), CubicalComplex.from_cells(2, 2, [21, 13])):
        for base, members in cx.iter_fibers():
            assert cx.fiber_members(cx.anchor(base)) == members


def test_sphere_fiber_drops_the_excluded_mask():
    cx = CubicalComplex.sphere(1)
    assert cx.fiber_members((0, 0)) == [0, 1, 2]  # full mask 3 is the hole
    assert cx.fiber_members((1, 1)) == [0]
    top = CubicalComplex.top_sphere(1)
    assert top.fiber_members((1, 1)) == [0, 1, 2]
    assert top.fiber_members((0, 0)) == [0, 1, 2, 3]


def test_alpha_toggles_extent():
    cx = CubicalComplex.full(2, 2)
    assert alpha(1, 0, cx) == cx.cell_id((1, 0))
    assert alpha(1, cx.cell_id((1, 0)), cx) == 0
    assert alpha(2, cx.cell_id((1, 2)), cx) == cx.cell_id((1, 3))
    assert alpha(2, cx.cell_id((1, 3)), cx) == cx.cell_id((1, 2))
    # the boundary vertex 2m has no interval above it
    edge = cx.cell_id((4, 0))
    assert alpha(1, edge, cx) == edge
    with pytest.raises(ValueError):
        alpha(0, 0, cx)
    with pytest.raises(ValueError):
        alpha(3, 0, cx)


def test_alpha_respects_membership():
    cx = CubicalComplex.sphere(1)
    center = cx.cell_id((1, 1))
    below = cx.cell_id((1, 0))
    assert alpha(2, below, cx) == below  # toggling up would enter the hole
    assert not cx.is_member(center)


def test_beta_respects_grades():
    cx = CubicalComplex.full(2, 2)
    grade = lambda c: 0 if c < 5 else 1  # noqa: E731 - tiny test fixture
    cell = cx.cell_id((1, 0))  # alpha(1) drops it to cell 0, same grade
    assert beta(1, cell, cx, grade) == 0
    assert grade(alpha(2, 0, cx)) != grade(0)
    assert beta(2, 0, cx, grade) == 0  # the toggle would change grade
    assert beta(1, cx.cell_id((1, 1)), cx, grade) == cx.cell_id((0, 1))


def test_parse_top_cell_file():
    text = """
    # anchors of two unit squares
    2 2
    0 0   # lower left
    1 1
    """
    m, d, anchors = parse_top_cell_file(text)
    assert (m, d) == (2, 2)
    assert anchors == [(0, 0), (1, 1)]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n",
        "2\n0 0\n",
        "x 2\n0 0\n",
        "2 2\n0\n",
        "2 2\n0 y\n",
        "2 2\n",
        "0 2\n0 0\n",
    ],
)
def test_parse_top_cell_file_rejects(text):
    with pytest.raises(FormatError):
        parse_top_cell_file(text)


def test_random_complexes_validate():
    rng = random.Random(20260815)
    for _ in range(30):
        cx = random_cubical_complex(rng, rng.randint(1, 3))
        report = validate_complex(cx)
        assert report.ok, report.summary()


def test_codec_round_trip_on_random_ids():
    cx = CubicalComplex.full(5, 4)
    rng = random.Random(184)
    for _ in range(10_000):
        cell = rng.randrange(cx.total_ids)
        assert cx.cell_id(cx.digits(cell)) == cell


def test_face_anchors_dominate_the_cell_anchor():
    cx = CubicalComplex.full(4, 3)
    cubes = [c for c in cx.cells() if cx.dim(c) == 3]
    assert len(cubes) == 4 ** 3
    for cell in cubes:
        top = cx.anchor(cell)
        for face in cx.boundary(cell):
            assert all(a >= b for a, b in zip(cx.anchor(face), top))


def test_extent_masks_preserve_incidence_within_a_fiber():
    cx = CubicalComplex.full(4, 2)
    base = cx.cell_id((2, 6))  # anchor (1, 3)
    masks = cx.fiber_members((1, 3))
    assert len(masks) == 4
    offs = cx.offsets()
    cells = [base + offs[m] for m in masks]
    assert all(cx.anchor_and_mask(c) == (base, m) for c, m in zip(cells, masks))
    for a, ma in zip(cells, masks):
        for b, mb in zip(cells, masks):
            assert (a in cx.boundary(b)) == (ma in hboundary(mb))


def test_alpha_is_an_involution():
    rng = random.Random(211)
    for cx in (
        CubicalComplex.full(5, 4),
        CubicalComplex.sphere(3),
        CubicalComplex.top_sphere(1),
    ):
        members = list(cx.cells())
        for _ in range(3400):
            cell = rng.choice(members)
            i = rng.randrange(1, cx.d + 1)
            once = alpha(i, cell, cx)
            assert alpha(i, once, cx) == cell


def _digit_loop_codec(cx, cell):
    """Reference decode, one digit at a time: (dim, extent mask, anchor
    base, sorted raw boundary)."""
    digits = cx.digits(cell)
    odd = [i for i, c in enumerate(digits) if c & 1]
    base = sum((c & ~1) * p for c, p in zip(digits, cx.pows))
    faces = sorted(cell + s * cx.pows[i] for i in odd for s in (-1, 1))
    return len(odd), sum(1 << i for i in odd), base, faces


@pytest.mark.parametrize(
    "cx",
    [
        CubicalComplex.full(1, 5),  # base 3, one chunk
        CubicalComplex.sphere(9),  # base 3, chunks of 7 + 3 digits
        CubicalComplex.sphere(20),  # base 3, three chunks of 7
        CubicalComplex.full(5, 7),  # base 11, chunks of 3 + 3 + 1 digits
        CubicalComplex.full(30, 3),  # base 61, chunks of 2 + 1 digits
        CubicalComplex.from_cells(1000, 3, [2001**3 - 2]),  # ids above 2^32
        CubicalComplex.full(5000, 2),  # base 10001: one-digit parity chunks
    ],
    ids=["b3d5", "sphere9", "sphere20", "b11d7", "b61d3", "b2001-int64", "b10001"],
)
def test_table_codec_matches_digit_loop(cx):
    rng = random.Random(cx.base * 31 + cx.d)
    cells = [0, cx.total_ids - 1] + [rng.randrange(cx.total_ids) for _ in range(3000)]
    for cell in cells:
        dim, mask, base, faces = _digit_loop_codec(cx, cell)
        assert cx.dim_of(cell) == dim
        assert cx.anchor_and_mask(cell) == (base, mask)
        assert cx._boundary_raw(cell) == faces


def test_codec_tables_do_not_grow_with_m():
    m, d, anchors = parse_top_cell_file("3 1000000\n0 0 0\n999999 5 7\n")
    cx = CubicalComplex.from_top_cells(m, d, anchors)
    assert cx.cell_count == 54
    assert cx.dim_of(cx.cell_id((1, 1, 2 * m))) == 2
    assert homology(cx).betti == [2, 0, 0, 0]
    for low, top in (cx._tabs.odd, cx._tabs.bits, cx._tabs.offs, cx._tabs.pows):
        for tab in low + [top]:
            assert not isinstance(tab, list) or len(tab) <= 4096
    for cx in (CubicalComplex.full(30, 3), CubicalComplex.sphere(20)):
        cx.dim_of(0)
        for low, top in (cx._tabs.odd, cx._tabs.pows):
            assert all(len(tab) <= 4096 for tab in low + [top])


def test_from_top_cells_equals_product_closure():
    rng = random.Random(77)
    for d, m in ((1, 4), (2, 3), (3, 5), (4, 2)):
        anchors = [tuple(rng.randrange(m) for _ in range(d)) for _ in range(rng.randint(1, 12))]
        cx = CubicalComplex.from_top_cells(m, d, anchors)
        want = set()
        for a in anchors:
            for digits in itertools.product(*[(2 * x, 2 * x + 1, 2 * x + 2) for x in a]):
                want.add(sum(c * p for c, p in zip(digits, cx.pows)))
        assert cx.members == frozenset(want)


def test_counts_by_dim_match_brute_force():
    rng = random.Random(4242)
    cases = [random_cubical_complex(rng, rng.randint(1, 4)) for _ in range(25)]
    cases += [
        CubicalComplex.full(2, 3),
        CubicalComplex.sphere(3),
        CubicalComplex.top_sphere(2),
        CubicalComplex.from_top_cells(3, 2, []),
    ]
    for cx in cases:
        want = [0] * (cx.d + 1)
        for c in cx.cells():
            want[sum(x & 1 for x in cx.digits(c))] += 1
        while want and want[-1] == 0:
            want.pop()
        assert cx.counts_by_dim() == want
        assert cx.max_cell_dim == len(want) - 1
        assert _input_euler(cx) == sum((-1) ** k * n for k, n in enumerate(want))


def test_sphere_grids_equal_their_explicit_closures():
    # the grid-minus-centre layout and the member-set layout answer alike
    cases = [CubicalComplex.sphere(d) for d in range(1, 6)]
    cases += [CubicalComplex.top_sphere(d) for d in range(1, 4)]
    for grid in cases:
        assert grid.members is None
        explicit = CubicalComplex.from_cells(grid.m, grid.d, list(grid.cells()))
        assert list(explicit.cells()) == list(grid.cells())
        assert explicit.member_ids().tolist() == grid.member_ids().tolist()
        assert explicit.counts_by_dim() == grid.counts_by_dim()
        for anchor in itertools.product(range(grid.m + 1), repeat=grid.d):
            assert explicit.fiber_members(anchor) == grid.fiber_members(anchor)
        a, b = template_round(explicit), template_round(grid)
        assert a.dims == b.dims
        assert list(a.boundary_entries()) == list(b.boundary_entries())


def _mate_after_sweep(cx, cell):
    w = TemplateMatching(cx)
    w(next(cx.cells()))  # the sweep codes exist before the non-member query
    return w(cell)


NON_MEMBER_QUERIES = {
    "dim": lambda cx, c: cx.dim(c),
    "boundary": lambda cx, c: cx.boundary(c),
    "coboundary": lambda cx, c: cx.coboundary(c),
    "alpha": lambda cx, c: alpha(1, c, cx),
    "matching": lambda cx, c: TemplateMatching(cx)(c),
    "matching-after-sweep": _mate_after_sweep,
    "provenance": lambda cx, c: TemplateMatching(cx).provenance(c),
}
_SPHERE = CubicalComplex.sphere(2)
_TOPS = CubicalComplex.from_top_cells(2, 2, [(0, 0)])
NON_MEMBERS = {
    "sphere-centre": (_SPHERE, _SPHERE.total_ids // 2),
    "out-of-range": (_SPHERE, _SPHERE.total_ids),
    "negative": (_SPHERE, -1),
    "top-cells-non-member": (_TOPS, _TOPS.cell_id((4, 4))),
}


@pytest.mark.parametrize("where", NON_MEMBERS)
@pytest.mark.parametrize("query", NON_MEMBER_QUERIES)
def test_non_member_queries_raise(query, where):
    cx, cell = NON_MEMBERS[where]
    assert not cx.is_member(cell)
    with pytest.raises(NonMemberCellError):
        NON_MEMBER_QUERIES[query](cx, cell)
