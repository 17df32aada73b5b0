import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorse import morse
from cubemorse.braid import build_braid_complex, nfold_cover, reference_braid, torus_knot
from cubemorse.core import AcyclicityError, ExplicitComplex, IntegrityError
from cubemorse.cubical import CubicalComplex
from cubemorse.matching import TemplateMatching, verify_acyclic
from cubemorse.morse import (
    connection_matrix,
    generic_round,
    homology,
    morse_boundary,
    reduce_round,
    template_round,
)
from .helpers import (
    HypercubeComplex,
    SequenceMatching,
    betti_oracle,
    cubical_boundaries,
    generic_round_reference,
    lower_star_graded,
    morse_complex,
    random_boundaries,
    random_cubical_complex,
    random_hypercube_complex,
    strip_zeros,
    top_cube_complexes,
)


def test_morse_boundary_counts_flowlines_mod_2():
    # circle: both critical cells survive with zero boundary (two flowlines)
    cx = CubicalComplex.sphere(1)
    w = TemplateMatching(cx)
    criticals = [c for c in cx.cells() if w(c) == c]
    assert sorted(criticals) == [3, 8]
    bdry = morse_boundary(criticals, cx.boundary, w, cx.dim)
    assert bdry == {}


def test_morse_boundary_detects_cycles():
    # edges 1 and 2 each flow into the other through their partner squares;
    # the fixed edge 3 gives the fixed square 13 a row to count
    dims = {1: 1, 2: 1, 3: 1, 11: 2, 12: 2, 13: 2}
    E = ExplicitComplex(dims, {11: (1, 2), 12: (1, 2), 13: (1, 2, 3)})
    w = {1: 11, 11: 1, 2: 12, 12: 2, 3: 3, 13: 13}
    with pytest.raises(AcyclicityError, match="lower cell 1 "):
        morse_boundary([3, 13], E.boundary, w.__getitem__, E.dim)


def vpath_boundary(fixed, boundary_of, mate_of, dim_of):
    """The reduced boundary by brute force, the independent oracle of
    ``morse_boundary``: every alternating path from a fixed cell a is
    enumerated, without memoization.  A path steps to a face f of its
    current cell other than the lower cell it came from; a fixed f ends it
    and counts once, a lower f (paired with a coface one dimension up)
    continues from that coface, and any other f ends it uncounted.  Counts
    are taken mod 2."""
    fixed = set(fixed)
    out = {}
    for a in fixed:
        count = {}
        stack = [(a, None)]
        while stack:
            cell, came = stack.pop()
            for f in boundary_of(cell):
                if f == came:
                    continue
                if f in fixed:
                    count[f] = count.get(f, 0) ^ 1
                    continue
                k = mate_of(f)
                if k != f and dim_of(k) == dim_of(f) + 1:
                    stack.append((k, f))
        row = tuple(sorted(f for f, odd in count.items() if odd))
        if row:
            out[a] = row
    return out


def test_morse_boundary_matches_vpaths_on_hypercube_subcomplexes():
    rng = random.Random(77)
    rows = 0
    for _ in range(60):
        cx = random_hypercube_complex(rng, rng.randint(1, 5))
        entries = cx.template_entries()  # some of the toggles, in any order
        w = SequenceMatching(cx, rng.sample(entries, rng.randint(1, len(entries))))
        assert verify_acyclic(cx, w)
        fixed = [c for c in cx.cells() if w(c) == c]
        got = morse_boundary(fixed, cx.boundary, w, cx.dim)
        assert got == vpath_boundary(fixed, cx.boundary, w, cx.dim)
        rows += len(got)
    assert rows  # some subcomplexes keep a nonzero reduced boundary


def test_morse_complex_full_cube_collapses_to_nothing():
    # H_n is the augmented simplex: every Betti number vanishes
    cx = HypercubeComplex(3)
    w = SequenceMatching(cx, cx.template_entries())
    E = morse_complex(cx, w)
    assert E.cell_count == 0
    assert betti_oracle(cx) == [0, 0, 0, 0]


def test_template_round_single_critical_vertex():
    cx = CubicalComplex.full(2, 2)
    E = template_round(cx)
    assert sorted(E.dims) == [24]
    assert E.dims[24] == 0
    assert not E.nonzero_boundary()


def test_template_round_matches_morse_complex():
    rng = random.Random(11)
    for _ in range(30):
        cx = random_cubical_complex(rng, rng.randint(1, 3))
        w = TemplateMatching(cx)
        a = template_round(cx)
        b = morse_complex(cx, w.__call__)  # a bound method: the per-cell flow walk
        assert a.dims == b.dims
        assert {c: a.boundary(c) for c in a.cells()} == {
            c: b.boundary(c) for c in b.cells()
        }


def test_graded_template_round_matches_morse_complex():
    for sk in (reference_braid(), torus_knot(5)):
        bc = build_braid_complex(sk)
        a = template_round(bc.cx, bc.grades)
        b = morse_complex(bc.cx, TemplateMatching(bc.cx, bc.grades).__call__, bc.grade_of)
        assert a.dims == b.dims
        assert a.grades == b.grades
        assert sorted(a.boundary_entries()) == sorted(b.boundary_entries())


def test_template_round_preserves_euler_and_betti():
    rng = random.Random(12)
    for _ in range(30):
        cx = random_cubical_complex(rng, rng.randint(1, 3))
        E = template_round(cx)
        euler_in = sum((-1) ** cx.dim(c) for c in cx.cells())
        assert E.euler() == euler_in
        assert strip_zeros(betti_oracle(E)) == strip_zeros(betti_oracle(cx))


def partner_dict(E: ExplicitComplex, mate: np.ndarray) -> dict[int, int]:
    """The matching ``generic_round`` gives as positions, as a dict from
    each cell's id to its partner's."""
    ids = E.rows.ids
    return dict(zip(ids.tolist(), ids[mate].tolist()))


def test_generic_round_pairs_everything_possible():
    # one round of coreduction on the interval leaves a single vertex
    E = ExplicitComplex({0: 0, 1: 0, 2: 1}, {2: (0, 1)})
    mate = generic_round(E)
    partner = partner_dict(E, mate)
    fixed = [c for c in E.dims if partner[c] == c]
    assert len(fixed) == 1
    out = reduce_round(E, mate)
    assert out.cell_count == 1
    assert not out.nonzero_boundary()


def test_generic_round_is_deterministic_smallest_id():
    E = ExplicitComplex({0: 0, 1: 0, 10: 1, 11: 1}, {10: (0, 1), 11: (0, 1)})
    mate = generic_round(E)
    partner = partner_dict(E, mate)
    # free-cell excision takes vertex 0 first, then 1 matches upward
    assert partner[0] == 0
    assert partner[1] == 10
    out = reduce_round(E, mate)
    assert sorted(out.dims) == [0, 11]
    assert betti_oracle(out) == [1, 1]


def test_generic_round_graded_respects_grades():
    dims = {0: 0, 1: 0, 2: 1}
    E = ExplicitComplex(dims, {2: (0, 1)}, grades={0: 0, 1: 1, 2: 1})
    mate = generic_round(E, graded=True)
    partner = partner_dict(E, mate)
    assert partner[0] == 0  # the grade-0 vertex cannot pair across grades
    assert partner[1] == 2 and partner[2] == 1
    out = reduce_round(E, mate)
    assert sorted(out.dims) == [0]
    assert out.grades == {0: 0}


def test_reduce_round_keeps_grades():
    dims = {0: 0, 1: 0, 2: 1}
    E = ExplicitComplex(dims, {2: (0, 1)}, grades={0: 0, 1: 0, 2: 0})
    out = reduce_round(E, generic_round(E, graded=True))
    assert out.grades is not None
    assert set(out.grades.values()) <= {0}


@pytest.mark.parametrize(
    "mate",
    [[1, 2, 0], [0, 2, 2], [0, 1, 3], [-1, 1, 2], [0, 1], [0, 1, 2, 3]],
    ids=["three-cycle", "not-injective", "past-the-end", "negative", "short", "long"],
)
def test_reduce_round_rejects_a_mate_that_is_no_involution(mate):
    E = ExplicitComplex({0: 0, 1: 0, 2: 1}, {2: (0, 1)})
    with pytest.raises(IntegrityError, match="not an involution"):
        reduce_round(E, np.array(mate))


def test_homology_spheres():
    for d in (1, 2, 3):
        res = homology(CubicalComplex.sphere(d))
        assert res.betti == [1] + [0] * (d - 1) + [1]
        assert res.rounds == 1
        assert res.round_sizes == [2]
        assert res.complex.cell_count == 2


def test_homology_contractible_grids():
    for m, d in ((1, 1), (2, 2), (3, 2), (2, 3)):
        res = homology(CubicalComplex.full(m, d))
        assert res.betti == [1] + [0] * d
        assert res.rounds == 1


def test_homology_top_sphere_keeps_ambient_length():
    res = homology(CubicalComplex.top_sphere(2))
    assert res.betti == [1, 0, 1, 0]


def test_homology_matches_oracle_on_random_complexes():
    rng = random.Random(13)
    for _ in range(40):
        cx = random_cubical_complex(rng, rng.randint(1, 3))
        res = homology(cx)
        assert strip_zeros(res.betti) == strip_zeros(betti_oracle(cx))
        assert res.rounds == len(res.round_sizes)
        sizes = res.round_sizes
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_connection_matrix_reference_diagram():
    bc = build_braid_complex(reference_braid())
    res = connection_matrix(bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts())
    assert res.scc_count == 13
    assert res.tower == 2
    assert res.round_sizes == [7, 3]
    assert res.complex.cell_count == 3
    assert res.counts == {(0, 0): 1, (7, 1): 1, (12, 0): 1}
    assert {c: res.complex.boundary(c) for c in res.complex.cells() if res.complex.boundary(c)} == {
        61: (24, 120)
    }


def test_connection_matrix_boundary_strictly_drops_grade():
    bc = build_braid_complex(torus_knot(5))
    res = connection_matrix(bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts())
    final = res.complex
    assert final.grades is not None
    for face, cell in final.boundary_entries():
        assert final.grades[face] != final.grades[cell]
        assert bc.poset.leq(final.grades[face], final.grades[cell])


def test_connection_matrix_preserves_graded_euler():
    for sk in (reference_braid(), torus_knot(5)):
        bc = build_braid_complex(sk)
        res = connection_matrix(
            bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts()
        )
        by_grade: dict[int, int] = {}
        for (g, dm), n in bc.input_counts().items():
            by_grade[g] = by_grade.get(g, 0) + n * (1 if dm % 2 == 0 else -1)
        final = {g: x for g, x in res.complex.euler_by_grade().items()}
        for g, x in by_grade.items():
            assert final.get(g, 0) == x


def test_connection_matrix_counts_sum_to_final_cells():
    bc = build_braid_complex(reference_braid())
    res = connection_matrix(bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts())
    assert sum(res.counts.values()) == res.complex.cell_count


def test_filtered_boundary_violation_raises():
    # grades that rise along the boundary cannot pass the filtered check
    class Chain:
        def leq(self, p, q):
            return p <= q

    dims = {0: 0, 1: 0, 2: 1}
    E = ExplicitComplex(dims, {2: (0, 1)}, grades={0: 5, 1: 0, 2: 0})
    from cubemorse.morse import _check_filtered

    with pytest.raises(IntegrityError):
        _check_filtered(E, Chain())

    # two failing pairs: the message names the first failing entry in row
    # order, (1, 3), although its pair (9, 2) sorts after the other, (5, 0)
    dims = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    E = ExplicitComplex(dims, {3: (0, 1), 4: (0, 2)}, grades={0: 0, 1: 9, 2: 5, 3: 2, 4: 0})
    with pytest.raises(IntegrityError, match=r"^boundary entry \(1, 3\) does not descend the grading \(9 vs 2\)$"):
        _check_filtered(E, Chain())


def test_homology_via_rounds_on_hypercube_subcomplexes():
    rng = random.Random(14)
    for _ in range(40):
        cx = random_hypercube_complex(rng, rng.randint(1, 5))
        w = SequenceMatching(cx, cx.template_entries())
        E = morse_complex(cx, w)
        assert strip_zeros(betti_oracle(E)) == strip_zeros(betti_oracle(cx))
        while E.nonzero_boundary():
            E2 = reduce_round(E, generic_round(E))
            assert E2.cell_count < E.cell_count
            E = E2
        assert strip_zeros(E.counts_by_dim()) == strip_zeros(betti_oracle(cx))


def test_generic_rounds_reduce_square_boundary_to_two_cells():
    dims = {0: 0, 1: 0, 2: 0, 3: 0, 10: 1, 11: 1, 12: 1, 13: 1}
    bdry = {10: (0, 1), 11: (1, 2), 12: (2, 3), 13: (0, 3)}
    E = ExplicitComplex(dims, bdry)
    assert betti_oracle(E) == [1, 1]
    for _ in range(10):
        mate = generic_round(E)
        partner = partner_dict(E, mate)
        if all(partner[c] == c for c in partner):
            break
        E = reduce_round(E, mate)
    assert len(E.dims) == 2
    assert betti_oracle(E) == [1, 1]


def test_homology_is_the_one_grade_connection_matrix():
    # homology runs the graded loop with every cell in a single grade
    rng = random.Random(31)
    for _ in range(30):
        cx = random_cubical_complex(rng, rng.randint(1, 4), rng.randint(1, 3))
        h = homology(cx)
        c = connection_matrix(cx, np.zeros(cx.total_ids, dtype=int))
        assert h.complex.dims == c.complex.dims
        assert list(h.complex.boundary_entries()) == list(c.complex.boundary_entries())
        assert h.round_sizes == c.round_sizes
        assert h.rounds == c.tower == len(h.round_sizes)


@st.composite
def round_one_complexes(draw):
    """(cx, round-1 complex, graded): ungraded top-cube complexes, or
    lower-star graded ones so that the round-1 boundary descends."""
    if draw(st.booleans()):
        cx, grades = draw(lower_star_graded())
        return cx, template_round(cx, grades), True
    cx = draw(top_cube_complexes())
    return cx, template_round(cx), False


@settings(max_examples=80, deadline=None, database=None)
@given(round_one_complexes())
def test_generic_round_is_an_acyclic_matching(case):
    cx, E, graded = case
    mate = generic_round(E, graded=graded)
    partner = partner_dict(E, mate)
    assert sorted(partner) == sorted(E.dims)
    for c, k in partner.items():
        assert partner[k] == c
        if E.dims[k] == E.dims[c] + 1:
            assert c in E.boundary(k)
            if graded:
                assert E.grades[c] == E.grades[k]
        else:
            assert k == c or E.dims[c] == E.dims[k] + 1
    assert verify_acyclic(E, partner.__getitem__)
    assert strip_zeros(betti_oracle(reduce_round(E, mate))) == strip_zeros(betti_oracle(cx))
    assert strip_zeros(homology(cx).betti) == strip_zeros(betti_oracle(cx))


def assert_later_round_matches_vpaths(E, graded):
    """``reduce_round``'s flow count, the per-cell walk of ``morse_boundary``
    along ``generic_round`` partners, equals the brute-force V-path count."""
    mate = generic_round(E, graded=graded)
    partner = partner_dict(E, mate)
    fixed = [c for c in E.dims if partner[c] == c]
    args = (E.boundary, partner.__getitem__, E.dim)
    want = vpath_boundary(fixed, *args)
    assert morse_boundary(fixed, *args) == want
    assert reduce_round(E, mate).rows == want
    return want


@settings(max_examples=80, deadline=None, database=None)
@given(round_one_complexes())
def test_later_round_boundary_matches_vpaths(case):
    _, E, graded = case
    assert_later_round_matches_vpaths(E, graded)


def test_later_round_boundary_matches_vpaths_on_braids():
    # round one of the graded braid covers leaves cells up to dimension 4,
    # so paths pass upper cells whose partners have fixed faces
    rows = 0
    for nfold in (1, 2):
        bc = build_braid_complex(nfold_cover(reference_braid(), nfold))
        E = template_round(bc.cx, bc.grades)
        for graded in (True, False):
            rows += len(assert_later_round_matches_vpaths(E, graded))
    assert rows


def test_generic_round_prefers_a_collapse_to_a_fixed_cell():
    # a path of two edges: no edge has one face, but vertex 0 has the one
    # coface 10, so the collapse (0, 10) comes before any fixed cell
    E = ExplicitComplex({0: 0, 1: 0, 2: 0, 10: 1, 11: 1}, {10: (0, 1), 11: (1, 2)})
    partner = partner_dict(E, generic_round(E))
    assert partner[0] == 10 and partner[10] == 0
    assert partner[1] == 11 and partner[11] == 1
    assert partner[2] == 2


def seeded_closure(m: int) -> CubicalComplex:
    """The closure of random top cubes in C(m; 3), drawn as the benchmark's
    cubical-rand draws them: lexicographic anchors, each kept with
    probability 0.5 under ``random.Random(1)``."""
    rng = random.Random(1)
    anchors = [a for a in itertools.product(range(m), repeat=3) if rng.random() < 0.5]
    return CubicalComplex.from_top_cells(m, 3, anchors)


def boundary_entries_by_round(monkeypatch, m: int) -> list[int]:
    """Boundary entries of round 1 and of every later round of ``homology``
    on :func:`seeded_closure`."""
    cx = seeded_closure(m)
    entries: list[int] = []
    real_round = morse.reduce_round

    def counted(E, mate):
        if not entries:
            entries.append(sum(1 for _ in E.boundary_entries()))
        out = real_round(E, mate)
        entries.append(sum(1 for _ in out.boundary_entries()))
        return out

    monkeypatch.setattr(morse, "reduce_round", counted)
    homology(cx)
    return entries


def test_later_rounds_do_not_fill_in(monkeypatch):
    entries = boundary_entries_by_round(monkeypatch, 36)
    assert len(entries) >= 2 and entries[-1] == 0
    assert all(b <= a for a, b in zip(entries, entries[1:])), entries


@pytest.mark.slow
def test_later_rounds_do_not_fill_in_at_m60(monkeypatch):
    entries = boundary_entries_by_round(monkeypatch, 60)
    assert all(b <= a for a, b in zip(entries, entries[1:])), entries


@pytest.mark.slow
def test_homology_at_m60_keeps_its_rounds_and_betti_numbers():
    """Round sizes and Betti numbers of the seed-1 closure at d = 3, m = 60,
    as the dict-based reduced complexes gave them."""
    res = homology(seeded_closure(60))
    assert res.round_sizes == [43170, 17724, 17582, 17576]
    assert res.betti == [1, 15902, 1673, 0]


@st.composite
def generic_round_inputs(draw):
    """(complex, graded): random rows with ids up to past 2^64, or a
    top-cube boundary with at most one entry flipped, each with random
    grades; or the round one of a lower-star graded complex."""
    kind = draw(st.sampled_from(["random", "cubical", "lower-star"]))
    if kind == "lower-star":
        cx, grades = draw(lower_star_graded())
        E = template_round(cx, grades)
    else:
        E = draw(random_boundaries() if kind == "random" else cubical_boundaries())
        grades = draw(st.lists(st.integers(0, 2), min_size=E.cell_count, max_size=E.cell_count))
        E = ExplicitComplex(E.dims, E.rows, dict(zip(E.dims, grades)))
    return E, draw(st.booleans())


@settings(max_examples=150, deadline=None, database=None)
@given(generic_round_inputs())
def test_generic_round_equals_the_dict_reference(case):
    """The array ``generic_round`` (faces from the CSR, cofaces from its
    transpose, active cells only) gives, read as ids, the partner dict of
    the dict implementation it replaced."""
    E, graded = case
    assert partner_dict(E, generic_round(E, graded=graded)) == generic_round_reference(E, graded=graded)


def test_round_one_reads_as_the_benchmark_reads_it():
    """The benchmark's flow replay takes ``sorted(E.dims)`` as the fixed
    cells, reads ``morse_boundary``'s rows through ``items()`` and compares
    them with ``boundary_entries()``, whose ids it also writes as JSON."""
    cx = seeded_closure(8)
    E = template_round(cx)
    w = TemplateMatching(cx)
    assert list(E.dims) == [c for c in cx.cells() if w(c) == c]
    for mate_of in (TemplateMatching(cx), lambda c: w(c)):
        bdry = morse_boundary(sorted(E.dims), cx.boundary, mate_of, cx.dim_of)
        assert [(f, c) for c, fs in bdry.items() for f in fs] == list(E.boundary_entries())
    entries = list(E.boundary_entries())
    assert entries and all(type(x) is int for e in entries for x in e)
    assert json.loads(json.dumps(entries)) == [list(e) for e in entries]
