import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorse.core import (
    ExplicitComplex,
    IntegrityError,
    NonMemberCellError,
    SizeGuardError,
    validate_complex,
)
from cubemorse.cubical import CubicalComplex
from .helpers import (
    betti_oracle,
    canonical_form,
    cubical_boundaries,
    dd_nonzero,
    gf2_rank,
    random_boundaries,
    random_hypercube_complex,
)


class StubComplex:
    """Minimal handle that can hold deliberately broken data."""

    def __init__(self, dims, bdry):
        self._dims = dims
        self._bdry = bdry

    @property
    def cell_count(self):
        return len(self._dims)

    @property
    def max_cell_dim(self):
        return max(self._dims.values(), default=-1)

    def cells(self):
        return iter(sorted(self._dims))

    def is_member(self, c):
        return c in self._dims

    def dim(self, c):
        return self._dims[c]

    def boundary(self, c):
        return self._bdry.get(c, ())

    def coboundary(self, c):
        return ()


def interval_complex() -> ExplicitComplex:
    # two vertices joined by an edge
    return ExplicitComplex({0: 0, 1: 0, 2: 1}, {2: (0, 1)})


def circle_complex() -> ExplicitComplex:
    dims = {0: 0, 1: 0, 10: 1, 11: 1}
    bdry = {10: (0, 1), 11: (0, 1)}
    return ExplicitComplex(dims, bdry)


def test_accessors_and_counts():
    E = interval_complex()
    assert E.cell_count == 3
    assert E.max_cell_dim == 1
    assert sorted(E.cells()) == [0, 1, 2]
    assert E.is_member(1) and not E.is_member(5)
    assert E.dim(2) == 1
    assert E.boundary(2) == (0, 1)
    assert E.boundary(0) == ()
    assert E.counts_by_dim() == [2, 1]
    assert E.euler() == 1


def test_constructor_rejects_unknown_faces():
    with pytest.raises(NonMemberCellError):
        ExplicitComplex({2: 1, 0: 0}, {2: (0, 1)})
    with pytest.raises(NonMemberCellError):
        ExplicitComplex({0: 0}, {9: (0,)})


def test_non_member_lookups_raise():
    E = interval_complex()
    with pytest.raises(NonMemberCellError):
        E.boundary(42)
    with pytest.raises(NonMemberCellError):
        E.dim(42)
    with pytest.raises(NonMemberCellError):
        E.coboundary(42)


def test_coboundary_is_transpose():
    E = circle_complex()
    assert E.coboundary(0) == (10, 11)
    assert E.coboundary(10) == ()
    for c in E.cells():
        for co in E.coboundary(c):
            assert c in E.boundary(co)


def test_grades_and_euler_by_grade():
    dims = {0: 0, 1: 0, 2: 1}
    E = ExplicitComplex(dims, {2: (0, 1)}, grades={0: 0, 1: 1, 2: 1})
    assert E.grade(2) == 1
    assert E.euler_by_grade() == {0: 1, 1: 0}
    ungraded = interval_complex()
    with pytest.raises(IntegrityError):
        ungraded.grade(0)
    with pytest.raises(IntegrityError):
        ungraded.euler_by_grade()


def test_boundary_entries_and_nonzero():
    E = circle_complex()
    assert sorted(E.boundary_entries()) == [(0, 10), (0, 11), (1, 10), (1, 11)]
    assert E.nonzero_boundary()
    assert not ExplicitComplex({7: 0}, {}).nonzero_boundary()


def test_check_dd_zero():
    circle_complex().check_dd_zero()
    bad = ExplicitComplex(
        {0: 0, 1: 0, 2: 1, 3: 1, 4: 2},
        {2: (0, 1), 3: (0, 1), 4: (2,)},
    )
    with pytest.raises(IntegrityError):
        bad.check_dd_zero()


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(random_boundaries(), cubical_boundaries()))
def test_check_dd_zero_agrees_with_the_counts(E):
    """``check_dd_zero`` raises exactly when some cell's faces of faces
    occur an odd number of times, and names such a cell with its first four
    faces of faces."""
    bad = dd_nonzero(E)
    if not bad:
        E.check_dd_zero()
        return
    with pytest.raises(IntegrityError) as err:
        E.check_dd_zero()
    c = int(re.search(r"cell (\d+) ", str(err.value)).group(1))
    assert str(err.value) == f"boundary of boundary of cell {c} is nonzero at {bad[c][:4]}"


def test_canonical_form_ignores_ids_and_grades():
    a = circle_complex()
    shifted = ExplicitComplex(
        {100: 0, 200: 0, 300: 1, 400: 1},
        {300: (100, 200), 400: (100, 200)},
        grades={100: 3, 200: 3, 300: 5, 400: 5},
    )
    assert canonical_form(a) == canonical_form(shifted)
    assert canonical_form(a) != canonical_form(interval_complex())


def test_json_round_trip():
    E = ExplicitComplex(
        {0: 0, 1: 0, 2: 1}, {2: (0, 1)}, grades={0: 0, 1: 0, 2: 2}
    )
    data = E.to_json_dict(poset_pairs=[(0, 2)])
    assert data["poset_edges"] == [[0, 2]]
    back = ExplicitComplex.from_json_dict(data)
    assert back.dims == E.dims
    assert back.grades == E.grades
    assert {c: back.boundary(c) for c in back.cells()} == {
        c: E.boundary(c) for c in E.cells()
    }
    # grade key is omitted entirely for ungraded complexes
    plain = ExplicitComplex.from_json_dict(interval_complex().to_json_dict())
    assert plain.grades is None


def test_from_complex_matches_handle():
    cx = CubicalComplex.sphere(1)
    E = ExplicitComplex.from_complex(cx)
    assert E.cell_count == cx.cell_count
    for c in cx.cells():
        assert E.dim(c) == cx.dim(c)
        assert E.boundary(c) == cx.boundary(c)


def test_validate_complex_flags_defects():
    rep = validate_complex(StubComplex({2: 1}, {2: (0, 1)}))
    assert not rep.ok
    assert {v.kind for v in rep.violations} == {"closure"}

    rep = validate_complex(StubComplex({0: 0, 9: 2}, {9: (0,)}))
    assert any(v.kind == "dimension" for v in rep.violations)

    rep = validate_complex(StubComplex({0: 0, 1: 0, 2: 1}, {2: (1, 0)}))
    assert any(v.kind == "boundary-order" for v in rep.violations)

    bad = ExplicitComplex(
        {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}, {2: (0, 1), 3: (0, 1), 4: (2,)}
    )
    rep = validate_complex(bad)
    assert any(v.kind == "dd-nonzero" for v in rep.violations)
    assert "violation" in rep.summary()


def test_validate_complex_counts_cells_up_to_the_cap():
    # 300 edges, each with one missing face: the 200-violation cap stops the scan
    stub = StubComplex({c: 1 for c in range(1000, 1300)}, {c: (c - 1000,) for c in range(1000, 1300)})
    rep = validate_complex(stub)
    assert len(rep.violations) == 200
    assert rep.checked_cells == 200


def test_validate_complex_passes_good_inputs():
    assert validate_complex(circle_complex()).ok
    assert validate_complex(CubicalComplex.full(2, 2)).ok
    assert validate_complex(CubicalComplex.top_sphere(1)).ok
    assert "ok" in validate_complex(circle_complex()).summary()


def test_validate_size_guard():
    cx = CubicalComplex.full(6, 6)  # 13^6 cells, never materialized
    with pytest.raises(SizeGuardError):
        validate_complex(cx)
    with pytest.raises(SizeGuardError):
        betti_oracle(cx)
    with pytest.raises(SizeGuardError):
        ExplicitComplex.from_complex(cx)


def test_gf2_rank_known_values():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b1, 0b10, 0b100]) == 3
    assert gf2_rank([0b11, 0b01, 0b10]) == 2
    assert gf2_rank([0b101, 0b101]) == 1
    assert gf2_rank([0]) == 0


def test_gf2_rank_random_invariants():
    rng = random.Random(7)
    for _ in range(50):
        rows = [rng.getrandbits(8) for _ in range(rng.randint(1, 10))]
        r = gf2_rank(rows)
        assert 0 <= r <= min(len(rows), 8)
        # appending a linear combination never raises the rank
        combo = 0
        for row in rows:
            if rng.random() < 0.5:
                combo ^= row
        assert gf2_rank(rows + [combo]) == r
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert gf2_rank(shuffled) == r


def test_gf2_rank_equals_elimination_by_leading_bit():
    rng = random.Random(8)
    for _ in range(200):
        width = rng.randint(1, 12)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 14))]
        basis: list[int] = []  # distinct leading bits, descending
        for row in rows:
            for b in basis:
                row = min(row, row ^ b)
            if row:
                basis.append(row)
                basis.sort(reverse=True)
        assert gf2_rank(rows) == len(basis)


def test_betti_oracle_known_spaces():
    assert betti_oracle(interval_complex()) == [1, 0]
    assert betti_oracle(circle_complex()) == [1, 1]
    assert betti_oracle(CubicalComplex.full(2, 2)) == [1, 0, 0]
    assert betti_oracle(CubicalComplex.sphere(2)) == [1, 0, 1]


def test_betti_oracle_random_hypercube_euler():
    # rank-nullity: alternating Betti sum equals the Euler characteristic
    rng = random.Random(99)
    for _ in range(40):
        cx = random_hypercube_complex(rng, rng.randint(1, 5))
        betti = betti_oracle(cx)
        euler = sum((-1) ** cx.dim(c) for c in cx.cells())
        assert sum(b * (-1) ** i for i, b in enumerate(betti)) == euler
