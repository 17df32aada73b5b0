"""The Conley complex against an independent Conley-index oracle.

For each grade p, the final cells of grade p and dimension k must number
dim H_k of C_{<=p}/C_{<p}: the grade-p cells of the input, with the
boundary restricted to grade p, whose Betti numbers ``betti_oracle``
computes by dense GF(2) ranks, one class at a time.  The whole Conley
complex must keep the input's Betti numbers.
"""
import pytest
from hypothesis import given, settings

from cubemorse.braid import build_braid_complex, grade_cell, nfold_cover, reference_braid, torus_knot
from cubemorse.core import ExplicitComplex, IntegrityError, betti_oracle
from cubemorse.morse import connection_matrix
from .helpers import braid_skeletons, lower_star_graded, strip_zeros


def conley_index_mismatches(cx, grades, counts) -> list[tuple[int, int, int, int]]:
    """(grade, dim, oracle count, final count) wherever they differ."""
    by_grade: dict[int, list[int]] = {}
    for c in cx.cells():
        by_grade.setdefault(int(grades[c]), []).append(c)
    want: dict[tuple[int, int], int] = {}
    for p, cells in by_grade.items():
        dims = {c: cx.dim(c) for c in cells}
        bdry = {c: tuple(f for f in cx.boundary(c) if grades[f] == p) for c in cells}
        for k, b in enumerate(betti_oracle(ExplicitComplex(dims, bdry))):
            if b:
                want[p, k] = b
    return [
        (p, k, want.get((p, k), 0), counts.get((p, k), 0))
        for p, k in sorted(set(want) | set(counts))
        if want.get((p, k), 0) != counts.get((p, k), 0)
    ]


def check_braid(sk) -> None:
    bc = build_braid_complex(sk)
    res = connection_matrix(bc.cx, bc.grades, bc.poset, input_counts=bc.input_counts())
    assert conley_index_mismatches(bc.cx, bc.grades, res.counts) == []
    # a full grid is contractible
    assert strip_zeros(betti_oracle(res.complex)) == [1]


@pytest.mark.parametrize(
    "sk", [reference_braid(), nfold_cover(reference_braid(), 2)], ids=["v1", "v2"]
)
def test_braid_conley_complex_matches_index_oracle(sk):
    check_braid(sk)


@settings(max_examples=60, deadline=None, database=None)
@given(braid_skeletons())
def test_generated_braid_conley_complexes_match_index_oracle(sk):
    """Every generated skeleton either grades, with each cell's pooled grade
    its star's least class, and passes the index oracle, or is refused by
    the documented grading error."""
    try:
        bc = build_braid_complex(sk)
    except IntegrityError as err:
        assert "star has no least class" in str(err)
        return
    assert bc.grades.tolist() == [grade_cell(sk, bc.poset, bc.cx, c) for c in bc.cx.cells()]
    check_braid(sk)


@pytest.mark.slow
def test_torus_knot_conley_complex_matches_index_oracle():
    check_braid(torus_knot(10))


class Chain:
    """The poset of a lower-star grading: grades in their integer order."""

    def leq(self, p: int, q: int) -> bool:
        return p <= q


@settings(max_examples=60, deadline=None, database=None)
@given(lower_star_graded())
def test_lower_star_conley_complex_matches_index_oracle(case):
    cx, grades = case
    res = connection_matrix(cx, grades, Chain())
    assert conley_index_mismatches(cx, grades, res.counts) == []
    assert strip_zeros(betti_oracle(res.complex)) == strip_zeros(betti_oracle(cx))
