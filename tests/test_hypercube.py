"""The ``HypercubeComplex`` fixture of ``tests/helpers.py``: the matching,
Morse and oracle tests take it as an input complex, so it must be one."""
import random

import pytest

from cubemorse.core import NonMemberCellError, validate_complex
from .helpers import HypercubeComplex, random_hypercube_members


def test_dim_is_popcount():
    cx = HypercubeComplex(7)
    assert cx.dim(0b000) == 0
    assert cx.dim(0b101) == 2
    assert cx.dim(0b1111111) == 7


def test_boundary_clears_one_bit_each():
    cx = HypercubeComplex(4)
    assert cx.boundary(0b110) == (0b010, 0b100)
    assert cx.boundary(0b000) == ()
    faces = cx.boundary(0b1011)
    assert faces == (0b0011, 0b1001, 0b1010)
    assert all(cx.dim(f) == cx.dim(0b1011) - 1 for f in faces)


def test_coboundary_sets_one_bit_each():
    cx = HypercubeComplex(3)
    assert cx.coboundary(0b010) == (0b011, 0b110)
    assert cx.coboundary(0b111) == ()
    for x in range(8):
        for y in cx.coboundary(x):
            assert x in cx.boundary(y)


def test_dd_zero_full_cube():
    # over GF(2) every codim-2 face is hit an even number of times
    for n in range(1, 7):
        HypercubeComplex(n).check_dd_zero()


def test_template_flips_coordinate_i():
    # coordinate 1 is the most significant of the n bits; on the full cube
    # every entry is a perfect pairing
    entries = HypercubeComplex(3).template_entries()
    assert entries[0](0b000) == 0b100
    assert entries[2](0b110) == 0b111
    assert entries[1](0b010) == 0b000
    for t in entries:
        for x in range(8):
            assert t(x) != x and t(t(x)) == x


def test_full_complex_counts():
    cx = HypercubeComplex(4)
    assert cx.cell_count == 16
    assert cx.max_cell_dim == 4
    assert sorted(cx.cells()) == list(range(16))
    assert validate_complex(cx).ok


def test_member_set_must_be_face_closed():
    with pytest.raises(NonMemberCellError):
        HypercubeComplex(3, frozenset({0b110}))
    HypercubeComplex(3, frozenset({0b110, 0b100, 0b010, 0b000}))


def test_subcomplex_boundary_and_membership():
    members = frozenset({0b000, 0b001, 0b010, 0b011, 0b100, 0b101})
    cx = HypercubeComplex(3, members)
    assert cx.cell_count == 6
    assert cx.max_cell_dim == 2
    assert not cx.is_member(0b111)
    assert cx.boundary(0b011) == (0b001, 0b010)
    assert cx.coboundary(0b001) == (0b011, 0b101)
    assert cx.coboundary(0b100) == (0b101,)
    with pytest.raises(NonMemberCellError):
        cx.boundary(0b111)


def test_template_entries_fix_cells_leaving_the_complex():
    members = frozenset({0b000, 0b001, 0b010, 0b011, 0b100, 0b101})
    cx = HypercubeComplex(3, members)
    entries = cx.template_entries()
    assert len(entries) == 3
    assert entries[0](0b000) == 0b100
    # 010 ^ 100 = 110 is outside, so the entry leaves 010 in place
    assert entries[0](0b010) == 0b010
    assert entries[2](0b010) == 0b011


def test_random_subcomplexes_validate():
    # closure and d(d) = 0, checked by the cell-by-cell walk
    rng = random.Random(20260815)
    for _ in range(60):
        n = rng.randint(1, 5)
        cx = HypercubeComplex(n, random_hypercube_members(rng, n))
        report = validate_complex(cx)
        assert report.ok, report.summary()
        assert report.checked_cells == cx.cell_count
