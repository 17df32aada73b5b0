import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubemorse.core import FormatError, NonMemberCellError, SizeGuardError, _distinct, validate_complex
from cubemorse.cubical import (
    _DENSE_SPAN,
    CubicalComplex,
    alpha,
    beta,
    parse_top_cell_file,
)
from cubemorse.matching import TemplateMatching
from cubemorse.morse import _input_euler, homology, template_round
from .helpers import (
    HypercubeComplex,
    dense_top_cube_complexes,
    from_cells,
    random_cubical_complex,
    sparse_cubical_complexes,
    top_cube_complexes,
)


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
    assert from_cells(2, 2, [21]).max_cell_dim == 1


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
    cx = from_cells(2, 2, [21])
    assert cx.cell_count == 3
    assert sorted(cx.cells()) == [20, 21, 22]
    assert validate_complex(cx).ok
    with pytest.raises(NonMemberCellError):
        from_cells(2, 2, [25])


def test_fibers_partition_the_complex():
    for cx in (
        CubicalComplex.full(2, 2),
        CubicalComplex.sphere(2),
        CubicalComplex.top_sphere(1),
        CubicalComplex.from_top_cells(2, 2, [(0, 0), (1, 1)]),
    ):
        seen: list[int] = []
        bases = []
        for base, members in cx.iter_fibers():
            assert members, "fibers are nonempty"
            offs = cx.offsets()
            cells = [base + offs[msk] for msk in members]
            seen.extend(cells)
            bases.append(base)
            anchors = {cx.anchor(c) for c in cells}
            assert len(anchors) == 1
        assert sorted(seen) == sorted(cx.cells())
        assert bases == sorted(bases), "fibers come in ascending anchor id order"


def test_fiber_members_matches_iteration():
    # iter_fibers and the per-anchor query agree on the extent masks
    for cx in (CubicalComplex.sphere(2), from_cells(2, 2, [21, 13])):
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
    assert anchors.dtype == np.int64 and anchors.tolist() == [[0, 0], [1, 1]]


def test_parse_top_cell_file_keeps_coordinates_beyond_int64():
    """Lines that only Python's ``int`` reads, or coordinates past int64,
    come back as tuples; a grid that large is then refused by size."""
    assert parse_top_cell_file("2 3\n1_0 2\n")[2] == [(10, 2)]
    m, d, anchors = parse_top_cell_file(f"2 {10**20}\n0 {10**19}\n")
    assert anchors == [(0, 10**19)]
    with pytest.raises(SizeGuardError, match="exceed int64"):
        CubicalComplex.from_top_cells(m, d, anchors)
    with pytest.raises(FormatError, match=r"^anchor \(0, 5\) out of range 0..1$"):
        CubicalComplex.from_top_cells(*parse_top_cell_file("2 2\n0 0\n0 5\n"))


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


def line_by_line_parse(text):
    """The top-cube parse that strips every line's comment in Python first,
    then reads the stripped lines with ``np.loadtxt``, or with ``int`` when
    it refuses them: the reference for the parse that lets ``np.loadtxt``
    strip the comments."""
    lines = [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise FormatError("empty top-cube file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'd m', got {lines[0]!r}")
    try:
        d, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"header must be two integers, got {lines[0]!r}") from exc
    if d < 1 or m < 1:
        raise FormatError(f"need d >= 1 and m >= 1, got d={d} m={m}")
    if not lines[1:]:
        raise FormatError("no top cubes listed")
    try:
        rows = np.loadtxt(lines[1:], dtype=np.int64, ndmin=2)
        if rows.shape[1] == d:
            return m, d, rows
    except ValueError:
        pass
    out = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != d:
            raise FormatError(f"expected {d} coordinates per line, got {line!r}")
        try:
            out.append(tuple(int(x) for x in parts))
        except ValueError as exc:
            raise FormatError(f"non-integer coordinate in {line!r}") from exc
    return m, d, out


def parsed(parse, text):
    """What ``parse(text)`` returns, arrays as (dtype, rows), or the type
    and text of what it raises."""
    try:
        m, d, rows = parse(text)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return m, d, (rows.dtype, rows.tolist()) if isinstance(rows, np.ndarray) else rows


SPACE = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003", ""])
ODD_TOKEN = st.sampled_from([str(2**63), str(-(2**63) - 1), "+2", "1_0", "1.5", "x", "0x1", "٣", ""])
COMMENT = st.text(st.sampled_from("ab #\t1"), max_size=6).map(lambda t: "#" + t)


@st.composite
def top_cube_texts(draw):
    """Top-cube files: a header among comment and blank lines, then lines
    of mostly d small ints, with blanks, inline or whole-line comments, and
    now and then a token or a count that ``np.loadtxt`` refuses."""
    d = draw(st.integers(1, 3))

    def line():
        words = [
            draw(ODD_TOKEN) if draw(st.integers(0, 11)) == 0 else str(draw(st.integers(-1, 9)))
            for _ in range(d if draw(st.integers(0, 5)) else draw(st.integers(0, 4)))
        ]
        gaps = [draw(SPACE) for _ in range(len(words) + 1)]
        body = "".join(g + w for g, w in zip(gaps, words)) + gaps[-1]
        return body + (draw(COMMENT) if draw(st.booleans()) else "")

    good, bad = [f"{d} 3", f" {d} 2 # d m", f"{d}\t9"], ["0 2", f"{d}", "x 2", f"{d} 2 7"]
    head = draw(st.sampled_from(good if draw(st.integers(0, 5)) else bad))
    before = [draw(st.sampled_from(["", "  ", "\t"])) + draw(COMMENT) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 5)) == 0:
        before.append(line())  # a data line before the header
    body = [line() if draw(st.integers(0, 3)) else draw(COMMENT) for _ in range(draw(st.integers(0, 6)))]
    return draw(st.sampled_from(["\n", "\r\n"])).join([*before, head, *body])


@settings(max_examples=400, deadline=None, database=None)
@given(top_cube_texts())
def test_parse_equals_the_line_by_line_strip(text):
    assert parsed(parse_top_cell_file, text) == parsed(line_by_line_parse, text)


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
    cube = HypercubeComplex(2)
    assert all(cx.anchor_and_mask(c) == (base, m) for c, m in zip(cells, masks))
    for a, ma in zip(cells, masks):
        for b, mb in zip(cells, masks):
            assert (a in cx.boundary(b)) == (ma in cube.boundary(mb))


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


def _interval_codec(cx, cell):
    """Reference decode from the intervals: (dim, extent mask, anchor id,
    faces ascending).  A face replaces one edge [l, l+1] by the vertex
    [l, l] or [l+1, l+1]; cells are encoded back by ``cell_id``."""
    iv = cx.intervals(cell)
    encode = lambda ivs: cx.cell_id(tuple(l + u for l, u in ivs))  # noqa: E731 - [l, u] has digit l + u
    edges = [i for i, (l, u) in enumerate(iv) if u > l]
    anchor = encode((l, l) for l, _ in iv)
    faces = sorted(encode(iv[:i] + ((v, v),) + iv[i + 1:]) for i in edges for v in iv[i])
    return len(edges), sum(1 << i for i in edges), anchor, faces


@pytest.mark.parametrize(
    "cx",
    [
        CubicalComplex.full(1, 5),  # base 3
        CubicalComplex.sphere(9),  # base 3, 10 digits
        CubicalComplex.sphere(20),  # base 3, 21 digits, ids above 2^32
        CubicalComplex.full(5, 7),  # base 11
        CubicalComplex.full(30, 3),  # base 61
        from_cells(1000, 3, [2001**3 - 2]),  # int64 ids
        CubicalComplex.full(5000, 2),  # base 10001
    ],
    ids=["b3d5", "sphere9", "sphere20", "b11d7", "b61d3", "b2001-int64", "b10001"],
)
def test_table_codec_matches_digit_loop(cx):
    """The codec's scalar queries and array passes against the decode from
    the intervals."""
    rng = random.Random(cx.base * 31 + cx.d)
    cells = [0, cx.total_ids - 1] + [rng.randrange(cx.total_ids) for _ in range(3000)]
    want = [_interval_codec(cx, cell) for cell in cells]
    for cell, (dim, mask, anchor, faces) in zip(cells, want):
        assert cx.dim_of(cell) == dim
        assert cx.anchor_and_mask(cell) == (anchor, mask)
        assert cx._boundary_raw(cell) == faces
    ids = np.array(cells, dtype=cx._id_dtype)  # as the member ids hold them
    dims = [w[0] for w in want]
    assert cx._dims(ids).tolist() == dims
    faces, owner, got_dims = cx._face_arrays(ids)
    assert faces.tolist() == [f for w in want for f in w[3]]
    assert owner.tolist() == [i for i, w in enumerate(want) for _ in w[3]]
    assert got_dims.tolist() == dims


INT64_MAX = np.iinfo(np.int64).max


def face_reference(cx, ids):
    """The face-array triple of ``ids`` from the scalar ``_boundary_raw`` and ``dim_of``."""
    rows = [cx._boundary_raw(c) for c in ids]
    return [[f for r in rows for f in r], [i for i, r in enumerate(rows) for _ in r], [cx.dim_of(c) for c in ids]]


@st.composite
def grid_ids(draw):
    """(grid, ids): d in 1..20 and base 3..61 whose ids fit int64, and up to
    40 random ids of it."""
    m = draw(st.integers(1, 30))
    base = 2 * m + 1
    d = draw(st.integers(1, max(k for k in range(1, 21) if base**k <= INT64_MAX)))
    cx = CubicalComplex(m, d)
    return cx, draw(st.lists(st.integers(0, cx.total_ids - 1), min_size=1, max_size=40))


TOP = CubicalComplex(1, 39)  # base 3 in 39 digits: the largest grid whose ids fit int64
assert TOP.total_ids <= INT64_MAX < 3 * TOP.total_ids


@settings(max_examples=200, deadline=None, database=None)
@given(grid_ids())
@example((TOP, [TOP.total_ids - k for k in range(1, 200)]))  # the largest digits and faces
def test_face_arrays_and_dims_equal_the_scalar_rows(case):
    """The array face formula, by the parity of ``q_i ^ q_{i+1}`` and one
    ``flatnonzero``, against the per-cell digit loop."""
    cx, cells = case
    ids = np.array(cells, dtype=cx._id_dtype)
    faces, owner, dims = cx._face_arrays(ids)
    assert [faces.tolist(), owner.tolist(), dims.tolist()] == face_reference(cx, cells)
    assert cx._dims(ids).tolist() == dims.tolist()


def test_codec_handles_any_m():
    """The codec decodes ids of a grid with m = 10^6 intervals per axis."""
    m, d, anchors = parse_top_cell_file("3 1000000\n0 0 0\n999999 5 7\n")
    cx = CubicalComplex.from_top_cells(m, d, anchors)
    assert cx.cell_count == 54
    assert cx.dim_of(cx.cell_id((1, 1, 2 * m))) == 2
    assert homology(cx).betti == [2, 0, 0, 0]


def test_from_top_cells_equals_product_closure():
    rng = random.Random(77)
    for d, m in ((1, 4), (2, 3), (3, 5), (4, 2)):
        anchors = [tuple(rng.randrange(m) for _ in range(d)) for _ in range(rng.randint(1, 12))]
        cx = CubicalComplex.from_top_cells(m, d, anchors)
        want = set()
        for a in anchors:
            for digits in itertools.product(*[(2 * x, 2 * x + 1, 2 * x + 2) for x in a]):
                want.add(sum(c * p for c, p in zip(digits, cx.pows)))
        assert set(cx.members.tolist()) == want


@st.composite
def closure_inputs(draw):
    """(m, d, anchors) with d = 2..8: at least half the top cubes of a grid
    with m <= 2 (m = 1 above d = 5), whose closure is dense, or one to
    three top cubes of a grid with m = 6, whose closure is sparse."""
    d = draw(st.integers(2, 8))
    if draw(st.booleans()):
        m = 1 if d > 5 else draw(st.integers(1, 2))
        every = list(itertools.product(range(m), repeat=d))
        anchors = draw(st.lists(st.sampled_from(every), min_size=(len(every) + 1) // 2, unique=True))
    else:
        m = 6
        anchors = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * d), min_size=1, max_size=3))
    return m, d, anchors


@settings(max_examples=40, deadline=None, database=None)
@given(closure_inputs())
def test_from_top_cells_equals_product_closure_up_to_d8(case):
    """The closure, by dilation of a member mask or by listing every top
    cube's faces, is the product of each anchor's digit choices 2a, 2a + 1,
    2a + 2, and the complex is dense exactly when its ids number at most
    ``_DENSE_SPAN`` times its members."""
    m, d, anchors = case
    cx = CubicalComplex.from_top_cells(m, d, anchors)
    want = set()
    for a in anchors:
        for digits in itertools.product(*[(2 * x, 2 * x + 1, 2 * x + 2) for x in a]):
            want.add(sum(c * p for c, p in zip(digits, cx.pows)))
    assert cx.members.tolist() == sorted(want)
    assert cx.members.dtype == np.int32 and not cx.members.flags.writeable
    assert (cx._member_mask is not None) is (cx.total_ids <= _DENSE_SPAN * len(want))


def test_members_is_one_sorted_read_only_array():
    rng = random.Random(13)
    anchors = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(20)]
    cases = [
        CubicalComplex.from_top_cells(4, 3, anchors),
        CubicalComplex.from_top_cells(3, 2, []),
        random_cubical_complex(rng, 3),
    ]
    for cx in cases:
        ids = cx.members
        assert ids.dtype == np.int32
        assert np.all(np.diff(ids) > 0)
        assert not ids.flags.writeable
        assert cx.member_ids() is ids
        assert cx.cell_count == ids.size
        assert list(cx.cells()) == ids.tolist()
        with pytest.raises(ValueError):
            ids[:1] = 0
    assert CubicalComplex.sphere(3).members is None


def test_from_top_cells_retains_a_few_bytes_per_cell():
    """The finished complex holds its members as one int32 array, 4 bytes
    per cell, where a frozenset of Python ints held about 78."""
    rng = random.Random(5)
    anchors = [a for a in itertools.product(range(20), repeat=3) if rng.random() < 0.5]
    CubicalComplex.from_top_cells(20, 3, anchors[:10])  # warm the numpy caches outside the trace
    tracemalloc.start()
    try:
        cx = CubicalComplex.from_top_cells(20, 3, anchors)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cx.cell_count > 50_000
    assert held < 8 * cx.cell_count, held / cx.cell_count


def test_dense_explicit_peaks_per_cell():
    """A dense explicit complex (half the top cubes of C(30; 3)) is closed by
    dilating a bool mask, which peaks at 15.3 bytes per cell where listing
    every top cube's 27 faces and sorting them peaked at 40.1; its
    ``homology``, the member mask built inside the trace, peaks at 19.0
    bytes per cell, where searching the members peaked at 27.8."""
    rng = random.Random(5)
    anchors = [a for a in itertools.product(range(30), repeat=3) if rng.random() < 0.5]
    homology(CubicalComplex.from_top_cells(30, 3, anchors[:200]))  # warm the numpy caches outside the trace
    tracemalloc.start()
    try:
        cx = CubicalComplex.from_top_cells(30, 3, anchors)
        closure = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "_member_mask" not in vars(cx)  # not built yet
    tracemalloc.start()
    try:
        assert homology(cx).betti == [1, 1961, 186, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cx._member_mask is not None
    n = cx.cell_count
    assert closure < 17 * n, closure / n
    assert peak < 21 * n, peak / n


def test_sphere_member_ids_peak_near_4_bytes_per_cell():
    """The ids of a centre-removed grid are built in one int32 array, with
    no second array to delete the centre from."""
    cx = CubicalComplex.sphere(11)
    cx.member_ids()  # warm the numpy caches outside the trace
    tracemalloc.start()
    try:
        ids = cx.member_ids()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ids.dtype == np.int32 and ids.size == cx.cell_count
    assert ids[0] == 0 and ids[-1] == cx.total_ids - 1 and cx._excluded not in ids
    assert np.all(np.diff(ids) > 0)
    assert peak < 4.5 * cx.cell_count, peak / cx.cell_count


def _closure_of_tops(cx):
    """Face closure, as a set, of the top cubes among the members, from
    their digits alone."""
    out = set()
    for c in cx.members.tolist():
        digits = cx.digits(c)
        if all(x & 1 for x in digits):
            for ds in itertools.product(*[(x - 1, x, x + 1) for x in digits]):
                out.add(sum(x * p for x, p in zip(ds, cx.pows)))
    return out


@settings(max_examples=60, deadline=None, database=None)
@given(top_cube_complexes())
def test_is_member_agrees_with_the_closure_set(cx):
    want = _closure_of_tops(cx)
    assert set(cx.members.tolist()) == want
    for c in range(-2, cx.total_ids + 2):
        assert cx.is_member(c) is (c in want), c


@st.composite
def located_complexes(draw):
    """A grid, ``full(m, d)``, ``sphere(d)`` or ``top_sphere(d)``, the
    closure of random top cubes, or an explicit complex drawn on either side
    of the density rule: dense, with a member mask, or sparse, without."""
    kind = draw(st.sampled_from(["full", "sphere", "top_sphere", "explicit", "dense", "sparse"]))
    if kind == "full":
        return CubicalComplex.full(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    if kind == "sphere":
        return CubicalComplex.sphere(draw(st.integers(1, 5)))
    if kind == "top_sphere":
        return CubicalComplex.top_sphere(draw(st.integers(1, 2)))
    if kind == "dense":
        return draw(dense_top_cube_complexes())
    if kind == "sparse":
        return draw(sparse_cubical_complexes())
    return draw(top_cube_complexes())


@settings(max_examples=80, deadline=None, database=None)
@given(located_complexes(), st.lists(st.integers(-3, 3 ** 6), max_size=40))
def test_locate_agrees_with_the_members(cx, extra):
    """``_locate`` gives each member key its slot, the key itself on a grid
    or dense explicit complex and its index in ``member_ids()`` on a sparse
    one, and misses exactly the non-members, whatever the key dtype;
    ``_position`` is its scalar form and ``_ids_at`` its inverse.  The keys
    span -1, the centre, total_ids and int64 keys beyond the int32 range,
    next to every member."""
    ids = cx.member_ids()
    keys = np.array(
        [-1, cx.total_ids // 2, cx.total_ids - 1, cx.total_ids, 2 ** 31, 2 ** 40 + 5, *extra, *ids.tolist()],
        dtype=np.int64,
    )
    slots, at = (cx.total_ids, ids) if cx._by_id else (ids.size, np.arange(ids.size))  # the members' slots
    pos, hit = cx._locate(keys)
    assert hit.tolist() == [cx.is_member(k) for k in keys.tolist()]
    assert [cx._position(k) for k in keys.tolist()] == [p if h else None for p, h in zip(pos.tolist(), hit.tolist())]
    assert np.all((0 <= pos) & (pos < slots))  # a missed key still indexes
    assert np.array_equal(pos[hit], at[ids.searchsorted(keys[hit])])
    assert np.array_equal(cx._ids_at(pos[hit]), keys[hit])
    assert np.array_equal(cx._ids_at(at), ids)
    narrow = ids.astype(np.int32)  # keys of the members' own dtype locate alike
    assert np.array_equal(cx._locate(narrow)[0], at) and cx._locate(narrow)[1].all()


def test_is_member_beyond_int64():
    top = 3 ** 45 - 1
    cx = from_cells(1, 45, [top - 1])  # an edge and its two end vertices
    assert cx.members.dtype == object and cx.members.tolist() == [top - 2, top - 1, top]
    want = {top - 2, top - 1, top}
    for c in [-1, 0, 1, top - 3, *want, top + 1, 2 ** 64]:
        assert cx.is_member(c) is (c in want), c
    with pytest.raises(SizeGuardError):
        cx.member_ids()
    assert TemplateMatching(cx)._clean_sweep is None  # the checks walk the cells
    assert TemplateMatching(CubicalComplex.full(1, 45))._clean_sweep is None


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
        explicit = from_cells(grid.m, grid.d, list(grid.cells()))
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


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(-5, 40), max_size=60), st.sampled_from([np.int32, np.int64]))
def test_distinct_is_unique_with_counts(values, dtype):
    keys = np.array(values, dtype=dtype)
    want, count = np.unique(keys, return_counts=True)
    got = _distinct(keys)
    assert got.dtype == keys.dtype and np.array_equal(got, want)
    got, got_count = _distinct(keys, counts=True)
    assert np.array_equal(got, want) and np.array_equal(got_count, count)

