import random

import pytest

from cubemorse.braid import build_braid_complex, reference_braid, torus_knot
from cubemorse.core import AcyclicityError, ExplicitComplex, IntegrityError, betti_oracle
from cubemorse.cubical import CubicalComplex
from cubemorse.hypercube import HypercubeComplex
from cubemorse.matching import SequenceMatching, TemplateMatching
from cubemorse.morse import (
    connection_matrix,
    generic_round,
    homology,
    morse_boundary,
    morse_complex,
    reduce_round,
    template_round,
)
from .helpers import random_cubical_complex, random_hypercube_complex, strip_zeros


def test_morse_boundary_counts_flowlines_mod_2():
    # circle: both critical cells survive with zero boundary (two flowlines)
    cx = CubicalComplex.sphere(1)
    w = TemplateMatching(cx)
    criticals = [c for c in cx.cells() if w(c) == c]
    assert sorted(criticals) == [3, 8]
    bdry = morse_boundary(criticals, cx.boundary, w, cx.dim)
    assert bdry == {}


def test_morse_boundary_detects_cycles():
    # edges 1 and 2 each flow into the other through their partner squares
    dims = {1: 1, 2: 1, 11: 2, 12: 2, 13: 2}
    E = ExplicitComplex(dims, {11: (1, 2), 12: (1, 2), 13: (1, 2)})
    w = {1: 11, 11: 1, 2: 12, 12: 2, 13: 13}
    with pytest.raises(AcyclicityError):
        morse_boundary([13], E.boundary, w.__getitem__, E.dim)


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
        b = morse_complex(cx, w)
        assert a.dims == b.dims
        assert {c: a.boundary(c) for c in a.cells()} == {
            c: b.boundary(c) for c in b.cells()
        }


def test_graded_template_round_matches_morse_complex():
    for sk in (reference_braid(), torus_knot(5)):
        bc = build_braid_complex(sk)
        a = template_round(bc.cx, bc.grades)
        b = morse_complex(bc.cx, TemplateMatching(bc.cx, bc.grades), bc.grade_of)
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


def test_generic_round_pairs_everything_possible():
    # one round of coreduction on the interval leaves a single vertex
    E = ExplicitComplex({0: 0, 1: 0, 2: 1}, {2: (0, 1)})
    partner = generic_round(E)
    fixed = [c for c in E.dims if partner[c] == c]
    assert len(fixed) == 1
    out = reduce_round(E, partner)
    assert out.cell_count == 1
    assert not out.nonzero_boundary()


def test_generic_round_is_deterministic_smallest_id():
    E = ExplicitComplex({0: 0, 1: 0, 10: 1, 11: 1}, {10: (0, 1), 11: (0, 1)})
    partner = generic_round(E)
    # free-cell excision takes vertex 0 first, then 1 matches upward
    assert partner[0] == 0
    assert partner[1] == 10
    out = reduce_round(E, partner)
    assert sorted(out.dims) == [0, 11]
    assert betti_oracle(out) == [1, 1]


def test_generic_round_graded_respects_grades():
    dims = {0: 0, 1: 0, 2: 1}
    E = ExplicitComplex(dims, {2: (0, 1)}, grades={0: 0, 1: 1, 2: 1})
    partner = generic_round(E, graded=True)
    assert partner[0] == 0  # the grade-0 vertex cannot pair across grades
    assert partner[1] == 2 and partner[2] == 1
    out = reduce_round(E, partner)
    assert sorted(out.dims) == [0]
    assert out.grades == {0: 0}


def test_reduce_round_keeps_grades():
    dims = {0: 0, 1: 0, 2: 1}
    E = ExplicitComplex(dims, {2: (0, 1)}, grades={0: 0, 1: 0, 2: 0})
    out = reduce_round(E, generic_round(E, graded=True))
    assert out.grades is not None
    assert set(out.grades.values()) <= {0}


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
        _check_filtered(E, Chain(), strict=False)


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
        partner = generic_round(E)
        if all(partner[c] == c for c in partner):
            break
        E = reduce_round(E, partner)
    assert len(E.dims) == 2
    assert betti_oracle(E) == [1, 1]
