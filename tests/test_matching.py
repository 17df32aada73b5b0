import random

import numpy as np
import pytest

from cubemorse.braid import build_braid_complex, reference_braid, torus_knot
from cubemorse.core import SizeGuardError, TrichotomyError
from cubemorse.cubical import CubicalComplex
from cubemorse.hypercube import HypercubeComplex
from cubemorse.matching import (
    SequenceMatching,
    TemplateMatching,
    classify,
    fiber_mate,
    mate,
    mate_table,
    template_sweep,
    verify_acyclic,
    verify_matching,
    verify_stable,
)
from .helpers import random_cubical_complex, random_hypercube_members


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


def test_mate_table_size_guard():
    cx = HypercubeComplex(4)
    with pytest.raises(SizeGuardError):
        mate_table(cx, cx.template_entries(), max_cells=3)


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


def test_template_matching_small_cache_same_answers():
    cx = CubicalComplex.sphere(2)
    big = TemplateMatching(cx)
    tiny = TemplateMatching(cx, cache_fibers=2)
    for c in cx.cells():
        assert big(c) == tiny(c)
        assert big.provenance(c) == tiny.provenance(c)


def test_template_matching_equals_sequence_over_alpha():
    # fiber-local tables against the one-shot recursion over the whole grid
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
    grade = lambda c: 0 if c < 13 else 1  # noqa: E731 - arbitrary split
    w = TemplateMatching(cx, grade)
    for c in cx.cells():
        assert grade(w(c)) == grade(c)
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


def assert_sweep_matches_oracle(cx, grades=None):
    """The array sweep pairs every member exactly as the fiber oracle does."""
    ids, code = template_sweep(cx, grades)
    assert ids.tolist() == list(cx.cells())
    assert code.dtype == np.int8
    w = TemplateMatching(cx, grades)
    for c, k in zip(ids.tolist(), code.tolist()):
        step = 0 if k == 0 else (cx.pows[k - 1] if k > 0 else -cx.pows[-k - 1])
        assert c + step == w(c), c
        assert w.provenance(c) == (abs(k) if k else None), c


def test_template_sweep_matches_oracle_on_random_complexes():
    rng = random.Random(21)
    for _ in range(40):
        cx = random_cubical_complex(rng, rng.randint(1, 4), rng.randint(1, 3))
        assert_sweep_matches_oracle(cx)
        # a list is indexable by id but neither an array nor callable
        assert_sweep_matches_oracle(cx, [rng.randrange(3) for _ in range(cx.total_ids)])


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
        assert_sweep_matches_oracle(bc.cx, bc.grade_of)


def test_template_sweep_on_sparse_grid():
    # ids beyond int32 on a grid far too large for a bitmap over all ids
    cx = CubicalComplex.from_cells(1000, 3, [1_234_567_891, 7_999_999_999])
    assert cx.total_ids > 2**32
    ids, code = template_sweep(cx)
    assert ids.dtype == np.int64
    assert_sweep_matches_oracle(cx)
    assert int((code == 0).sum()) == 2  # two disjoint contractible closures
