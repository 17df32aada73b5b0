"""Round-1 flow counting over the template sweep against the per-cell walk.

``morse_boundary`` counts the flows of :func:`template_round` in array passes
when it is given the sweep's own mate (``matching._SweepMate``).  Given a plain
lower-only callable built from the same sweep codes, it walks the cells
depth first.  Both must give the same boundary, or both raise
:class:`AcyclicityError`.
"""
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings

from cubemorse.braid import build_braid_complex, nfold_cover, reference_braid
from cubemorse.core import AcyclicityError
from cubemorse.cubical import CubicalComplex
from cubemorse.matching import _SweepMate, template_sweep
from cubemorse.morse import homology, morse_boundary, template_round
from .helpers import random_cubical_complex, top_cube_complexes


def both_paths(cx, ids, code):
    """(array, per-cell) outcomes of ``morse_boundary`` on the fixed cells of
    one sweep: the boundary, or :class:`AcyclicityError` when it raises that."""
    criticals = ids[code == 0].tolist()
    lower = {c: c + cx.pows[k - 1] for c, k in zip(ids.tolist(), code.tolist()) if k > 0}
    out = []
    for mate in (_SweepMate(cx, ids, code), lambda c: lower.get(c, c)):
        try:
            out.append(morse_boundary(criticals, cx._boundary_raw, mate, cx.dim_of))
        except AcyclicityError:
            out.append(AcyclicityError)
    return out


def assert_paths_agree(cx, grades=None):
    arrays, cells = both_paths(cx, *template_sweep(cx, grades))
    assert arrays == cells
    return arrays


def test_random_complexes_ungraded_and_graded():
    rng = random.Random(31)
    rows = 0
    for d in range(1, 5):
        for _ in range(15):
            cx = random_cubical_complex(rng, d, rng.randint(1, 3))
            rows += len(assert_paths_agree(cx))
            grades = np.array([rng.randrange(3) for _ in range(cx.total_ids)])
            assert_paths_agree(cx, grades)
    assert rows  # some complexes keep a nonzero reduced boundary


def test_graded_braids():
    for nfold in (1, 2):
        bc = build_braid_complex(nfold_cover(reference_braid(), nfold))
        assert assert_paths_agree(bc.cx, bc.grades)


def test_grids():
    for d in range(1, 7):
        assert_paths_agree(CubicalComplex.sphere(d))
    for d in range(1, 4):
        assert_paths_agree(CubicalComplex.top_sphere(d))
    for m, d in ((1, 1), (2, 2), (3, 3), (4, 2), (4, 3), (2, 4)):
        assert_paths_agree(CubicalComplex.full(m, d))


@settings(max_examples=60, deadline=None, database=None)
@given(top_cube_complexes())
def test_top_cube_files(cx):
    assert_paths_agree(cx)


def test_array_path_detects_cycles():
    # In the fiber of anchor (1, 1, 1) of the 5^3 grid, three lower edges
    # flow around a hexagon: (2,3,2) -> square (3,3,2) -> edge (3,2,2) ->
    # square (3,2,3) -> edge (2,2,3) -> square (2,3,3) -> edge (2,3,2).
    # Every other cell is fixed; the fixed square (1,3,2) leads into it.
    cx = CubicalComplex.full(2, 3)
    ids = cx.member_ids()
    code = np.zeros(ids.size, dtype=np.int8)
    for edge, axis in (((2, 3, 2), 1), ((3, 2, 2), 3), ((2, 2, 3), 2)):
        q = cx.cell_id(edge)
        code[q], code[q + cx.pows[axis - 1]] = axis, -axis
    assert code[cx.cell_id((1, 3, 2))] == 0
    assert both_paths(cx, ids, code) == [AcyclicityError, AcyclicityError]
    # the array path names a lower cell on the cycle, never a fixed source
    with pytest.raises(AcyclicityError) as err:
        morse_boundary(ids[code == 0].tolist(), cx._boundary_raw, _SweepMate(cx, ids, code), cx.dim_of)
    assert re.search(r"lower cell (\d+) ", str(err.value)).group(1) in {"67", "63", "87"}


def test_flow_pruning_skips_spheres(monkeypatch):
    """The fixed cells of a sphere have dimensions 0 and d only, so for
    d >= 2 round one counts no flow and expands no face."""
    calls = []
    for name in ("_face_arrays", "_boundary_raw"):
        real = getattr(CubicalComplex, name)
        monkeypatch.setattr(
            CubicalComplex, name, lambda self, x, real=real: calls.append(x) or real(self, x)
        )
    for d in range(2, 7):
        cx = CubicalComplex.sphere(d)
        E = template_round(cx)
        assert sorted(E.dims.values()) == [0, d] and not E.nonzero_boundary()
        assert both_paths(cx, *template_sweep(cx)) == [{}, {}]
        assert calls == []
    assert homology(CubicalComplex.sphere(6)).betti == [1, 0, 0, 0, 0, 0, 1]
    # a circle keeps adjacent dimensions, so its flows are counted
    template_round(CubicalComplex.sphere(1))
    assert calls




def test_round_one_asks_dim_of_once_per_fixed_cell(monkeypatch):
    """Flow pruning and the reduced complex share one ``dim_of`` call per
    fixed cell of round one."""
    cx = random_cubical_complex(random.Random(0), 3)
    asked = []
    real = cx.dim_of
    monkeypatch.setattr(cx, "dim_of", lambda c: asked.append(c) or real(c))
    E = template_round(cx)
    assert E.nonzero_boundary()  # flows were counted
    assert sorted(asked) == sorted(E.dims)
