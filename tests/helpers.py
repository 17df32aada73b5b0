"""Random complex generators shared by the unit and acceptance suites."""
from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from cubemorse.braid import SkeletonError, validate_skeleton
from cubemorse.core import ExplicitComplex
from cubemorse.cubical import CubicalComplex


class HypercubeComplex(ExplicitComplex):
    """The cells of the n-cube as n-bit vectors, all of them or a face-closed
    set ``members``: the dimension is the popcount, and the faces clear one
    set bit each.  A face outside ``members`` raises NonMemberCellError."""

    def __init__(self, n: int, members=None):
        self.n = n
        cells = range(1 << n) if members is None else members
        bits = [1 << p for p in range(n)]
        super().__init__(
            {x: x.bit_count() for x in cells},
            {x: tuple(x ^ b for b in bits if x & b) for x in cells},
        )

    def template_entries(self):
        """Entry i flips bit i, counted from the left (the most significant
        of the n), when the result is a member, and fixes the cell otherwise."""

        def entry(b):
            return lambda x: x ^ b if x ^ b in self.dims else x

        return [entry(1 << (self.n - i)) for i in range(1, self.n + 1)]


def random_hypercube_members(rng: random.Random, n: int) -> frozenset[int]:
    """Downward-closed cell set of H_n: every submask of a seed is kept."""
    seeds = rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
    members: set[int] = set()
    for s in seeds:
        sub = s
        while True:
            members.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & s
    return frozenset(members)


def random_hypercube_complex(rng: random.Random, n: int) -> HypercubeComplex:
    return HypercubeComplex(n, random_hypercube_members(rng, n))


def random_cubical_complex(rng: random.Random, d: int, m: int = 3) -> CubicalComplex:
    """Face closure of a few random seed cells inside C(m; d)."""
    base = 2 * m + 1
    total = base**d
    seeds = rng.sample(range(total), rng.randint(1, min(15, total)))
    return CubicalComplex.from_cells(m, d, seeds)


@st.composite
def top_cubes(draw):
    """(m, d, anchors): up to 12 distinct top cubes in C(m; d), d <= 3, m <= 4."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    anchor = st.tuples(*[st.integers(0, m - 1)] * d)
    return m, d, draw(st.lists(anchor, min_size=1, max_size=12, unique=True))


def top_cube_complexes():
    """Face closures of :func:`top_cubes`."""
    return top_cubes().map(lambda t: CubicalComplex.from_top_cells(*t))


@st.composite
def dense_top_cube_complexes(draw):
    """The face closure of all top cubes of C(m; d), d <= 4, m <= 3, but at
    most a quarter of them: a dense explicit complex, with a rank table."""
    m, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    every = list(itertools.product(range(m), repeat=d))
    drop = draw(st.sets(st.sampled_from(every), max_size=len(every) // 4))
    cx = CubicalComplex.from_top_cells(m, d, [a for a in every if a not in drop])
    assert cx._rank is not None
    return cx


@st.composite
def sparse_cubical_complexes(draw):
    """The face closure of one to three cells of C(m; d), 3 <= m, d <= 4,
    whose ids outnumber its members more than three times: a sparse explicit
    complex, with no rank table."""
    m, d = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    seeds = draw(st.lists(st.integers(0, (2 * m + 1) ** d - 1), min_size=1, max_size=3))
    cx = CubicalComplex.from_cells(m, d, seeds)
    assert cx._rank is None
    return cx


@st.composite
def lower_star_graded(draw):
    """A top-cube complex whose cells take the maximum of a vertex function
    over their vertices."""
    cx = draw(top_cube_complexes())
    cells = sorted(cx.cells(), key=cx.dim)
    verts = [c for c in cells if cx.dim(c) == 0]
    values = draw(st.lists(st.integers(0, 3), min_size=len(verts), max_size=len(verts)))
    grades = np.zeros(cx.total_ids, dtype=np.int64)
    grades[verts] = values
    for c in cells:
        if cx.dim(c):
            grades[c] = max(grades[f] for f in cx.boundary(c))
    return cx, grades


@st.composite
def braid_skeletons(draw, max_m: int = 5, max_d: int = 3):
    """A braid skeleton whose d + 1 cross-sections are random permutations
    of its m strands' heights (2 <= m <= max_m, 1 <= d <= max_d), kept
    when :func:`validate_skeleton` accepts it."""
    m, d = draw(st.integers(2, max_m)), draw(st.integers(1, max_d))
    columns = [draw(st.permutations(range(m))) for _ in range(d + 1)]
    try:
        return validate_skeleton([[col[a] for col in columns] for a in range(m)])
    except SkeletonError:
        assume(False)


def dd_nonzero(E) -> dict[int, list[int]]:
    """The cells of an explicit complex whose boundary of boundary is
    nonzero, each with its faces of faces of odd count, ascending, counted
    by a ``Counter`` per cell: the oracle of ``check_dd_zero``."""
    out = {}
    for c, faces in E._bdry.items():
        count = Counter(g for f in faces for g in E._bdry.get(f, ()))
        odd = sorted(g for g, k in count.items() if k % 2)
        if odd:
            out[c] = odd
    return out


def strip_zeros(betti: list[int]) -> list[int]:
    out = list(betti)
    while out and out[-1] == 0:
        out.pop()
    return out


def traced_peak(fn) -> int:
    """Peak traced bytes of ``fn()``, run once before the trace to warm the
    numpy caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
