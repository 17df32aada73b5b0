import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorse.braid import build_braid_complex, nfold_cover, reference_braid, torus_knot
from cubemorse.core import (
    ExplicitComplex,
    NonMemberCellError,
    SizeGuardError,
    TrichotomyError,
    validate_complex,
)
from cubemorse.cubical import CubicalComplex
from cubemorse import matching
from cubemorse.morse import homology, template_round
from cubemorse.matching import (
    TemplateMatching,
    fiber_mate,
    template_sweep,
    verify_acyclic,
    verify_matching,
    verify_stable,
)
from .helpers import (
    HypercubeComplex,
    SequenceMatching,
    betti_oracle,
    classify,
    dense_top_cube_complexes,
    from_cells,
    mate,
    mate_table,
    member_codes,
    nonzero_boundary,
    random_cubical_complex,
    random_hypercube_members,
    sparse_cubical_complexes,
    top_cube_complexes,
    traced_peak,
    unstable_edges,
)


def arrow_complex() -> HypercubeComplex:
    """Six cells of H_3: the square on bits 2,3 plus the 100-101 flap."""
    members = frozenset({0b000, 0b001, 0b010, 0b011, 0b100, 0b101})
    return HypercubeComplex(3, members)


def test_mate_on_arrow_complex():
    cx = arrow_complex()
    entries = cx.template_entries()
    memo: dict = {}
    pairs = {c: mate(c, entries, memo) for c in cx.cells()}
    assert pairs == {
        0b000: 0b100,
        0b100: 0b000,
        0b001: 0b101,
        0b101: 0b001,
        0b010: 0b011,
        0b011: 0b010,
    }


def test_mate_table_levels_on_arrow_complex():
    cx = arrow_complex()
    partner, level = mate_table(cx, cx.template_entries())
    assert partner[0b000] == 0b100 and level[0b000] == 1
    assert partner[0b001] == 0b101 and level[0b001] == 1
    assert partner[0b010] == 0b011 and level[0b010] == 3
    assert level[0b100] == 1 and level[0b011] == 3


def test_mate_equals_mate_table_random():
    # recursive evaluation against the level-by-level materialization
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(1, 5)
        cx = HypercubeComplex(n, random_hypercube_members(rng, n))
        entries = cx.template_entries()
        partner, _ = mate_table(cx, entries)
        memo: dict = {}
        for c in cx.cells():
            assert mate(c, entries, memo) == partner[c]


def _stable(cx):
    w = TemplateMatching(cx)
    return verify_stable(cx, w, w.entries(), w.provenance)


GUARDED = [
    ("validate_complex", 10**6, CubicalComplex.full(1, 13), validate_complex),
    ("ExplicitComplex.from_complex", 10**6, CubicalComplex.full(1, 13), ExplicitComplex.from_complex),
    ("verify_matching", 10**6, CubicalComplex.full(1, 13), lambda cx: verify_matching(cx, TemplateMatching(cx))),
    ("betti_oracle", 10**5, CubicalComplex.sphere(10), betti_oracle),
    ("verify_acyclic", 10**5, CubicalComplex.sphere(10), lambda cx: verify_acyclic(cx, TemplateMatching(cx))),
    ("verify_stable", 10**5, CubicalComplex.sphere(10), _stable),
    ("mate_table", 10**4, HypercubeComplex(14), lambda cx: mate_table(cx, cx.template_entries())),
]


@pytest.mark.parametrize("what, limit, cx, call", GUARDED, ids=[g[0] for g in GUARDED])
def test_guarded_entry_points_refuse_above_fixed_limits(what, limit, cx, call):
    """Each guarded entry point refuses a complex just above its fixed
    limit (1,594,323, 177,146 and 16,384 cells), in one wording."""
    assert limit < cx.cell_count < 2 * limit
    with pytest.raises(SizeGuardError) as err:
        call(cx)
    assert str(err.value) == f"{what} refuses {cx.cell_count} cells (limit {limit})"


def test_refusals_name_counts_past_64_bits_as_powers():
    cx = CubicalComplex.full(1, 45)  # 3^45 cells
    with pytest.raises(SizeGuardError, match=r"^validate_complex refuses over 2\^71 cells \(limit 1000000\)$"):
        validate_complex(cx)


def test_fiber_mate_matches_mate_table():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(1, 5)
        members = random_hypercube_members(rng, n)
        cx = HypercubeComplex(n, members)
        t_partner, t_level = mate_table(cx, cx.template_entries())
        # fiber_mate works on lsb-first masks; mirror the bit order
        flip = {
            c: int(format(c, f"0{n}b")[::-1], 2) for c in members
        }
        partner, level = fiber_mate(sorted(flip.values()), n)
        for c in members:
            assert flip[t_partner[c]] == partner[flip[c]]
            assert t_level.get(c) == level.get(flip[c])


def test_fiber_mate_grade_blocks_pairs():
    # both cells free, but different grades: stay fixed
    members = [0b0, 0b1]
    partner, level = fiber_mate(members, 1, grade={0b0: 0, 0b1: 1})
    assert partner == {0b0: 0b0, 0b1: 0b1}
    partner, _ = fiber_mate(members, 1, grade={0b0: 0, 0b1: 0})
    assert partner == {0b0: 0b1, 0b1: 0b0}


def test_sequence_matching_provenance():
    cx = arrow_complex()
    w = SequenceMatching(cx, cx.template_entries())
    assert w(0b000) == 0b100
    assert w.provenance(0b000) == 1
    assert w.provenance(0b010) == 3
    assert w.provenance(0b011) == 3


def test_sequence_matching_full_cube_is_first_template():
    cx = HypercubeComplex(3)
    w = SequenceMatching(cx, cx.template_entries())
    for x in range(8):
        assert w(x) == x ^ 0b100
        assert w.provenance(x) == 1


def test_classify_labels():
    cx = arrow_complex()
    w = SequenceMatching(cx, cx.template_entries())
    assert classify(0b000, w, cx) == "Q"
    assert classify(0b100, w, cx) == "K"
    fixed = HypercubeComplex(1, frozenset({0}))
    assert classify(0, lambda c: c, fixed) == "A"


def test_classify_rejects_non_incident_partner():
    cx = HypercubeComplex(2)
    swap = {0b00: 0b11, 0b11: 0b00, 0b01: 0b01, 0b10: 0b10}
    with pytest.raises(TrichotomyError):
        classify(0b00, swap.__getitem__, cx)


def test_template_matching_full_grid():
    cx = CubicalComplex.full(2, 2)
    w = TemplateMatching(cx)
    fixed = [c for c in cx.cells() if w(c) == c]
    assert fixed == [24]  # the top corner vertex
    rep = verify_matching(cx, w)
    assert rep.ok, rep.summary()
    assert rep.n_fixed == 1
    assert rep.n_lower == rep.n_upper == 12
    assert verify_acyclic(cx, w)
    assert verify_stable(cx, w, w.entries(), w.provenance)


def test_template_matching_equals_sequence_over_alpha():
    # the production sweep against the one-shot recursion over the whole grid
    rng = random.Random(5)
    for _ in range(40):
        cx = random_cubical_complex(rng, rng.randint(1, 3))
        tm = TemplateMatching(cx)
        sm = SequenceMatching(cx, tm.entries())
        for c in cx.cells():
            assert tm(c) == sm(c)
            assert tm.provenance(c) == sm.provenance(c)


def test_graded_template_matching_stays_in_grade():
    cx = CubicalComplex.full(2, 2)
    grade = (np.arange(cx.total_ids) >= 13).astype(np.int64)  # arbitrary split
    w = TemplateMatching(cx, grade)
    for c in cx.cells():
        assert grade[w(c)] == grade[c]
    rep = verify_matching(cx, w)
    assert rep.ok, rep.summary()


def test_verify_matching_reports_bad_oracles():
    cx = HypercubeComplex(2)
    not_involution = {0b00: 0b01, 0b01: 0b11, 0b11: 0b10, 0b10: 0b00}
    rep = verify_matching(cx, not_involution.__getitem__)
    assert not rep.ok
    assert any(kind == "involution" for kind, _, _ in rep.violations)

    non_member = lambda c: 9 if c == 0 else c  # noqa: E731
    rep = verify_matching(cx, non_member)
    assert any(kind == "non-member" for kind, _, _ in rep.violations)

    swap = {0b00: 0b11, 0b11: 0b00, 0b01: 0b01, 0b10: 0b10}
    rep = verify_matching(cx, swap.__getitem__)
    assert any(kind == "trichotomy" for kind, _, _ in rep.violations)


def test_verify_matching_counts_cells_up_to_the_cap():
    # every cell's oracle call fails, so the 200-violation cap stops the scan
    cx = CubicalComplex.full(3, 3)

    def broken(c):
        raise ValueError("no partner")

    rep = verify_matching(cx, broken)
    assert len(rep.violations) == 200
    assert rep.checked_cells == 200


def test_verify_acyclic_detects_flow_cycle():
    # pair every vertex of the circle with the next edge around it
    cx = CubicalComplex.sphere(1)
    cyclic = {0: 1, 1: 0, 2: 5, 5: 2, 8: 7, 7: 8, 6: 3, 3: 6}
    rep = verify_matching(cx, cyclic.__getitem__)
    assert rep.ok
    assert not verify_acyclic(cx, cyclic.__getitem__)
    # the aggregated template matching on the same complex is acyclic
    assert verify_acyclic(cx, TemplateMatching(cx))


def test_verify_stable_flags_late_preference():
    # hand-built matching on the full 3-cube that skips the level-1 pairing
    # for half the cells; 001 would rather take 101 at level 1 than keep
    # its level-2 partner, so the pair (100, 101) is unstable
    cx = HypercubeComplex(3)
    w = {
        0b000: 0b010, 0b010: 0b000,
        0b001: 0b011, 0b011: 0b001,
        0b100: 0b101, 0b101: 0b100,
        0b110: 0b111, 0b111: 0b110,
    }
    level = {
        0b000: 2, 0b010: 2, 0b001: 2, 0b011: 2,
        0b100: 3, 0b101: 3, 0b110: 3, 0b111: 3,
    }
    rep = verify_matching(cx, w.__getitem__)
    assert rep.ok
    assert verify_acyclic(cx, w.__getitem__)
    assert not verify_stable(
        cx, w.__getitem__, cx.template_entries(), level.__getitem__
    )


def test_verify_stable_passes_aggregated_matchings():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 5)
        cx = HypercubeComplex(n, random_hypercube_members(rng, n))
        w = SequenceMatching(cx, cx.template_entries())
        assert verify_stable(cx, w, cx.template_entries(), w.provenance)
        assert verify_acyclic(cx, w)


def test_verify_size_guards():
    cx = CubicalComplex.full(6, 6)
    w = TemplateMatching(cx)
    with pytest.raises(SizeGuardError):
        verify_matching(cx, w)
    with pytest.raises(SizeGuardError):
        verify_acyclic(cx, w)
    with pytest.raises(SizeGuardError):
        verify_stable(cx, w, w.entries(), w.provenance)


def test_template_matching_is_clean_on_spheres():
    for d in range(1, 7):
        cx = CubicalComplex.sphere(d)
        w = TemplateMatching(cx)
        report = verify_matching(cx, w)
        assert report.ok, report.violations[:3]
        assert report.n_fixed == 2  # one cell per surviving Betti generator


def fiber_oracle(cx, grades=None):
    """(partner, level) of every member, from :func:`fiber_mate` run on each
    fiber of ``cx.iter_fibers()`` independently of the array sweep."""
    offs = cx.offsets()
    partner, level = {}, {}
    for base, members in cx.iter_fibers():
        grade = None if grades is None else {msk: grades[base + offs[msk]] for msk in members}
        fp, fl = fiber_mate(members, cx.d, grade)
        for msk in members:
            partner[base + offs[msk]] = base + offs[fp[msk]]
            level[base + offs[msk]] = fl.get(msk)
    return partner, level


def assert_sweep_matches_oracle(cx, grades=None):
    """The array sweep, and the TemplateMatching view of it, per cell and
    as the whole-sweep codes round one reads, pair every member exactly as
    the per-fiber oracle does."""
    code = template_sweep(cx, grades)
    ids = cx.member_ids()
    assert ids.tolist() == list(cx.cells())
    assert code.dtype == np.int8
    partner, level = fiber_oracle(cx, grades)
    w = TemplateMatching(cx, grades)
    for c, k in zip(ids.tolist(), member_codes(cx, code).tolist()):
        step = 0 if k == 0 else (cx.pows[k - 1] if k > 0 else -cx.pows[-k - 1])
        assert c + step == partner[c] == w(c), c
        assert (abs(k) if k else None) == level[c] == w.provenance(c), c
    assert np.array_equal(TemplateMatching(cx, grades)._whole, code)


def test_template_sweep_matches_oracle_on_random_complexes():
    rng = random.Random(21)
    for _ in range(40):
        cx = random_cubical_complex(rng, rng.randint(1, 4), rng.randint(1, 3))
        assert_sweep_matches_oracle(cx)
        assert_sweep_matches_oracle(cx, np.array([rng.randrange(3) for _ in range(cx.total_ids)]))


def test_template_sweep_matches_oracle_around_excluded_cell():
    # the excluded top cell shifts the position of every later member
    for d in range(1, 6):
        assert_sweep_matches_oracle(CubicalComplex.sphere(d))
    for d in range(1, 4):
        assert_sweep_matches_oracle(CubicalComplex.top_sphere(d))


def test_template_sweep_matches_oracle_on_braid_gradings():
    for sk in (reference_braid(), torus_knot(5)):
        bc = build_braid_complex(sk)
        assert_sweep_matches_oracle(bc.cx, bc.grades)


def test_template_matching_sweeps_fibers_then_whole(monkeypatch):
    """Queries in any order agree with the whole-complex sweep.  A grid is
    swept one anchor fiber at a time, through ``cx.fiber_members``, until
    1/16 of its fibers are swept, and then whole; an explicit complex is
    swept whole on the first query."""
    real_sweep = matching.template_sweep
    sweeps = []

    def counted_sweep(cx, grade_of=None, ids=None):
        sweeps.append("whole" if ids is None else "fiber")
        return real_sweep(cx, grade_of, ids)

    monkeypatch.setattr(matching, "template_sweep", counted_sweep)
    rng = random.Random(5)
    grids = [CubicalComplex.sphere(3), CubicalComplex.full(2, 3), CubicalComplex.full(3, 3)]
    for cx in grids + [random_cubical_complex(rng, 3) for _ in range(5)]:
        n_fibers = sum(1 for _ in cx.iter_fibers())
        ids = cx.member_ids()
        whole = dict(zip(ids.tolist(), member_codes(cx, real_sweep(cx)).tolist()))
        anchors = []
        fiber_members = cx.fiber_members

        def counted(anchor, fiber_members=fiber_members):
            anchors.append(anchor)
            return fiber_members(anchor)

        monkeypatch.setattr(cx, "fiber_members", counted)
        sweeps.clear()
        w = TemplateMatching(cx)
        cells = ids.tolist()
        rng.shuffle(cells)
        for c in cells + cells:
            k = whole[c]
            assert w.provenance(c) == (abs(k) or None), c
            assert w(c) == c + (0 if k == 0 else (cx.pows[k - 1] if k > 0 else -cx.pows[-k - 1])), c
        n_fiber_sweeps = n_fibers // 16 if cx.members is None else 0
        assert sweeps == ["fiber"] * n_fiber_sweeps + ["whole"]
        assert len(anchors) == len(set(anchors)) == n_fiber_sweeps


def test_template_sweep_on_sparse_grid():
    # ids beyond int32 on a grid far too large for a bitmap over all ids
    cx = from_cells(1000, 3, [1_234_567_891, 7_999_999_999])
    assert cx.total_ids > 2**32
    code = template_sweep(cx)
    assert cx.member_ids().dtype == np.int64
    assert_sweep_matches_oracle(cx)
    assert int((code == 0).sum()) == 2  # two disjoint contractible closures


@st.composite
def graded_grids(draw):
    """A whole grid, ``full(m, d)`` (m <= 3, d <= 4), ``sphere(d)`` or
    ``top_sphere(d)``, with no grade or random grades over all ids."""
    kind = draw(st.sampled_from(["full", "sphere", "top_sphere"]))
    if kind == "full":
        cx = CubicalComplex.full(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    elif kind == "sphere":
        cx = CubicalComplex.sphere(draw(st.integers(1, 5)))
    else:
        cx = CubicalComplex.top_sphere(draw(st.integers(1, 2)))
    if draw(st.booleans()):
        return cx, None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cx, rng.integers(0, draw(st.integers(1, 3)), cx.total_ids).astype(np.int32)


@settings(max_examples=40, deadline=None, database=None)
@given(graded_grids())
def test_grid_sweep_equals_member_id_sweep(case):
    """The flat passes of a whole grid give the member-id sweep's result at
    the members' slots, ``_TAKEN`` at a sphere's centre."""
    cx, grades = case
    code = template_sweep(cx, grades)
    want = template_sweep(cx, grades, ids=cx.member_ids())
    assert code.dtype == want.dtype and np.array_equal(member_codes(cx, code), want)
    assert_sweep_matches_oracle(cx, grades)


class CountingIds(np.ndarray):
    """A member-id array that counts its ``searchsorted`` calls, the method's
    and ``np.searchsorted``'s, which calls it."""

    calls = 0

    def searchsorted(self, *args, **kwargs):
        CountingIds.calls += 1
        return np.asarray(self).searchsorted(*args, **kwargs)


def counting_members(cx):
    """``cx`` with its members viewed as :class:`CountingIds`."""
    cx.members = cx.members.view(CountingIds)
    return cx


def dense_explicit():
    """The closure of three quarters of the top cubes of C(3; 3), by a
    fixed draw: a dense explicit complex."""
    rng = random.Random(8)
    cx = CubicalComplex.from_top_cells(3, 3, [a for a in itertools.product(range(3), repeat=3) if rng.random() < 0.75])
    assert cx._member_mask is not None
    return cx


def test_grid_sweep_searches_nothing(monkeypatch):
    """A whole-grid or dense explicit sweep finds partners by id: no
    member lookup and no ``searchsorted``.  A sparse explicit complex and a
    fiber still search."""
    calls = {"lookup": 0, "searchsorted": 0}
    real_lookup, real_search = matching._lookup, np.searchsorted

    def lookup(ids, keys):
        calls["lookup"] += 1
        return real_lookup(ids, keys)

    def searchsorted(*args, **kwargs):
        calls["searchsorted"] += 1
        return real_search(*args, **kwargs)

    bc = build_braid_complex(reference_braid())  # before patching: only the sweeps count
    dense = counting_members(dense_explicit())
    CountingIds.calls = 0
    monkeypatch.setattr(matching, "_lookup", lookup)
    monkeypatch.setattr(np, "searchsorted", searchsorted)
    for cx, grades in [
        (CubicalComplex.full(3, 3), None),
        (CubicalComplex.sphere(4), None),
        (CubicalComplex.top_sphere(2), np.arange(7**3) % 3),
        (bc.cx, bc.grades),
        (dense, None),
        (dense, np.arange(dense.total_ids) % 3),
    ]:
        template_sweep(cx, grades)
        assert calls == {"lookup": 0, "searchsorted": 0} and CountingIds.calls == 0
    sparse = random_cubical_complex(random.Random(3), 3)
    assert sparse._member_mask is None
    template_sweep(sparse)
    assert calls["lookup"] == 3 and calls["searchsorted"] == 3
    cx = CubicalComplex.full(2, 2)
    template_sweep(cx, ids=cx.member_ids())
    assert calls["lookup"] == 5


def test_grid_round_one_and_verify_search_nothing(monkeypatch):
    """Round one and the array checks of ``verify`` address the members of a
    grid by id, with no member id array and no ``searchsorted``, the graded
    braid's per-cell stability walk included; those of a dense explicit
    complex by id and its member mask, with no ``searchsorted`` either,
    per-cell matching queries included.  A sparse
    explicit complex still searches its members."""
    calls = {"member_ids": 0, "searchsorted": 0}
    real_ids, real_search = CubicalComplex.member_ids, np.searchsorted

    def member_ids(self):
        calls["member_ids"] += 1
        return real_ids(self)

    def searchsorted(*args, **kwargs):
        calls["searchsorted"] += 1
        return real_search(*args, **kwargs)

    def run(cx, grades=None):
        E = template_round(cx, grades)
        assert validate_complex(cx).ok
        w = TemplateMatching(cx, grades)
        assert verify_matching(cx, w).ok and verify_acyclic(cx, w)
        verify_stable(cx, w, w.entries(), w.provenance)
        assert all(w(w(c)) == c for c in cx.cells())
        return E

    bc = build_braid_complex(reference_braid())  # before patching: only the checks count
    dense = counting_members(dense_explicit())
    sparse = counting_members(random_cubical_complex(random.Random(3), 3))
    assert sparse._member_mask is None
    CountingIds.calls = 0
    monkeypatch.setattr(CubicalComplex, "member_ids", member_ids)
    monkeypatch.setattr(np, "searchsorted", searchsorted)
    for cx, grades in [
        (CubicalComplex.full(3, 3), None),
        (CubicalComplex.sphere(4), None),
        (bc.cx, bc.grades),
    ]:
        assert cx.members is None
        E = run(cx, grades)
        assert calls == {"member_ids": 0, "searchsorted": 0}
    assert nonzero_boundary(E)  # the braid's round-one flows were counted
    assert nonzero_boundary(run(dense))
    assert calls["searchsorted"] == 0 and CountingIds.calls == 0
    run(sparse)
    assert calls["searchsorted"] > 0 and CountingIds.calls > calls["searchsorted"]


@st.composite
def graded_explicit(draw, complexes):
    """An explicit complex drawn from ``complexes``, with no grade or random
    grades over all ids."""
    cx = draw(complexes)
    if draw(st.booleans()):
        return cx, None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cx, rng.integers(0, draw(st.integers(1, 3)), cx.total_ids).astype(np.int32)


@settings(max_examples=40, deadline=None, database=None)
@given(graded_explicit(dense_top_cube_complexes()))
def test_dense_explicit_sweep_equals_member_id_sweep(case):
    """The flat passes of a dense explicit complex, whose non-members start
    taken and keep ``_TAKEN``, give the member-id sweep's codes at the
    members' slots and the per-fiber oracle's pairs."""
    cx, grades = case
    code = template_sweep(cx, grades)
    want = template_sweep(cx, grades, ids=cx.member_ids())
    assert code.dtype == want.dtype and np.array_equal(member_codes(cx, code), want)
    assert_sweep_matches_oracle(cx, grades)


@settings(max_examples=60, deadline=None, database=None)
@given(graded_grids() | graded_explicit(dense_top_cube_complexes()), st.sampled_from([1, 2, 7, 64]))
def test_flat_sweep_in_smallest_blocks_equals_member_id_sweep(case, block):
    """With ``_FLAT_BLOCK`` at 1, 2, 7 or 64, a flat pass runs in blocks of
    whole periods of its digit pattern, of pieces of one period or of
    pieces of one even digit's run of p cells, so it crosses a block
    boundary at every other digit or inside a run: the codes still equal
    the member-id sweep's."""
    cx, grades = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_FLAT_BLOCK", block)
        code = template_sweep(cx, grades)
    want = template_sweep(cx, grades, ids=cx.member_ids())
    assert code.dtype == np.int8 and np.array_equal(member_codes(cx, code), want)


def test_flat_sweep_in_smallest_blocks_under_braid_grades(monkeypatch):
    """With ``_FLAT_BLOCK`` at 1, 2, 7 and 64, the grid sweep equals the
    member-id sweep on spheres and ``top_sphere``, whose excluded centres
    start taken, on a dense explicit complex with and without grades, and
    under braid v2's grades (base 11, d = 4)."""
    bc = build_braid_complex(nfold_cover(reference_braid(), 2))
    assert bc.grades.dtype == np.int16 and bc.cx.pows == [1, 11, 121, 1331]
    rng = np.random.default_rng(5)
    dense = dense_explicit()
    cases = [
        *((CubicalComplex.sphere(d), None) for d in range(1, 6)),
        *((CubicalComplex.top_sphere(d), None) for d in (1, 2, 3)),
        (dense, None),
        (dense, rng.integers(0, 3, dense.total_ids).astype(np.int16)),
        (bc.cx, bc.grades),
    ]
    for block, (cx, grades) in itertools.product([1, 2, 7, 64], cases):
        monkeypatch.setattr(matching, "_FLAT_BLOCK", block)
        code = template_sweep(cx, grades)
        want = template_sweep(cx, grades, ids=cx.member_ids())
        assert code.dtype == np.int8 and np.array_equal(member_codes(cx, code), want)


def assert_slice_flows_equal_the_walk(cx, grades):
    """Verify's flow graph by digit slices of the sweep by id, as
    ``TemplateMatching._flows`` builds it on a grid or dense explicit
    complex, equals the :func:`matching._flow_graph` walk from all lower
    cells array for array, dtypes and order included."""
    w = TemplateMatching(cx, grades)
    code = w._clean_sweep
    assert code is not None and cx._by_id
    at, (src, dst), _ = matching._flow_graph(code, np.flatnonzero(code > 0), matching._sweep_faces(cx, code))
    n, s, t = w._flows
    assert n == at.size == np.count_nonzero(code > 0)
    for got, want in ((s, src), (t, dst)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=40, deadline=None, database=None)
@given(graded_grids() | graded_explicit(dense_top_cube_complexes()))
def test_slice_flow_graph_equals_the_walk(case):
    assert_slice_flows_equal_the_walk(*case)


@pytest.mark.parametrize("nfold", [1, 2])
def test_slice_flow_graph_equals_the_walk_under_braid_grades(nfold):
    bc = build_braid_complex(nfold_cover(reference_braid(), nfold))
    assert bc.cx.members is None
    assert_slice_flows_equal_the_walk(bc.cx, bc.grades)


def assert_slice_facts_equal_the_edges(cx, grades):
    """The digit-slice facts of a clean sweep equal those of its flow
    edges: whether some edge runs to a lower slot and whether some edge is
    unstable by the tests' rule (:func:`unstable_edges`); and
    ``verify_acyclic``, which peels only when an edge descends, equals the
    peel of the edges.  Returns whether one descends."""
    w = TemplateMatching(cx, grades)
    code = w._clean_sweep
    assert code is not None
    n, src, dst = w._flows
    descends = bool((dst < src).any())
    assert w._slice_facts == (descends, bool(unstable_edges(cx, code, src, dst).any()))
    assert verify_acyclic(cx, w) is matching._peel(n, src, dst)
    return descends


@settings(max_examples=60, deadline=None, database=None)
@given(
    graded_grids()
    | graded_explicit(dense_top_cube_complexes())
    | graded_explicit(sparse_cubical_complexes())
    | graded_explicit(top_cube_complexes())
)
def test_slice_facts_equal_the_flow_edges(case):
    """On every storage: grids, dense and sparse explicit complexes, and
    the closures of top-cube files, which are either."""
    assert_slice_facts_equal_the_edges(*case)


@pytest.mark.parametrize("nfold", [1, 2])
def test_slice_facts_equal_the_flow_edges_under_braid_grades(nfold):
    """Braid v2's graded sweep has an edge to a lower id, so its acyclicity
    is decided by the peel."""
    bc = build_braid_complex(nfold_cover(reference_braid(), nfold))
    assert assert_slice_facts_equal_the_edges(bc.cx, bc.grades) is (nfold == 2)


@pytest.mark.parametrize("size", [0, 1, 254, 255, 256, 510])
@pytest.mark.parametrize("density", [0.0, 0.03, 0.5, 1.0])
def test_mask_rank_at_block_edges(size, density):
    """The rank of every set position is its index among the set positions,
    at lengths about one block of 255, for masks sparse enough to be counted
    at their set positions and for the block sums of denser ones."""
    mask = np.random.default_rng(size).random(size) < density
    want = np.flatnonzero(mask)
    assert np.array_equal(matching._mask_rank(mask.copy())(want), np.arange(want.size))


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 5000), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_mask_rank_is_the_index_among_set_positions(size, density, seed):
    """Also when the caller passes the set positions it holds."""
    mask = np.random.default_rng(seed).random(size) < density
    want = np.flatnonzero(mask)
    assert np.array_equal(matching._mask_rank(mask.copy())(want), np.arange(want.size))
    assert np.array_equal(matching._mask_rank(mask.copy(), want)(want), np.arange(want.size))


def test_template_matching_rejects_non_members():
    """The matching round one reads raises on a cell outside the complex:
    the centre, -1 and total_ids of a sphere, and a gap between two members
    of an explicit complex, also once its whole sweep is cached."""
    cx = CubicalComplex.sphere(2)
    mate = TemplateMatching(cx)
    mate._whole
    for c in (cx._excluded, -1, cx.total_ids):
        with pytest.raises(NonMemberCellError):
            mate(c)
    assert [mate(c) for c in (0, 1, cx.total_ids - 1)] == [1, 0, cx.total_ids - 1]
    explicit = CubicalComplex.from_top_cells(2, 2, [(0, 0), (1, 1)])
    gap = explicit.cell_id((3, 0))
    assert explicit.members[0] < gap < explicit.members[-1] and not explicit.is_member(gap)
    mate = TemplateMatching(explicit)
    mate._whole
    with pytest.raises(NonMemberCellError):
        mate(gap)
    for c in explicit.cells():
        assert explicit.is_member(mate(c))


def test_grid_sweep_memory_is_a_few_bytes_per_cell():
    """Peak memory of a graded full-grid sweep stays below 1.7 bytes per
    cell (1.54 measured): the int8 codes, which are their own taken mask,
    and the flat passes' block buffers, with no id array."""
    cx = CubicalComplex.full(3, 6)
    grades = (np.arange(cx.total_ids) % 5).astype(np.int32)
    assert template_sweep(cx, grades).dtype == np.int8
    peak = traced_peak(lambda: template_sweep(cx, grades))
    assert peak < 1.7 * cx.total_ids, peak / cx.total_ids


@pytest.mark.parametrize(
    "cx, betti, bound",
    [(CubicalComplex.sphere(11), [1] + [0] * 10 + [1], 1.65), (CubicalComplex.full(20, 4), [1, 0, 0, 0, 0], 1.5)],
    ids=["sphere11", "full20x4"],
)
def test_grid_homology_memory_is_a_few_bytes_per_cell(cx, betti, bound):
    """The peak of ``homology`` on a grid, 1.50 and 1.13 bytes per cell
    measured, stays below the 4 bytes an int32 id array would take alone:
    the sweep holds one int8 code per id, which marks the taken cells too,
    and buffers of at most ``_FLAT_BLOCK`` cells, and round one scans the
    codes for fixed cells in pieces of at most 1/8 of them."""
    assert homology(cx).betti == betti
    peak = traced_peak(lambda: homology(cx))
    assert peak < bound * cx.cell_count, peak / cx.cell_count
