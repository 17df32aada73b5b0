"""Random complex generators shared by the unit and acceptance suites."""
from __future__ import annotations

import heapq
import itertools
import random
import tracemalloc
from collections import Counter, deque
from itertools import product
from typing import Callable, Sequence

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from cubemorse.braid import BraidSkeleton, CondensationPoset, SkeletonError, validate_skeleton
from cubemorse.core import CellComplexLike, ExplicitComplex, IntegrityError, NonMemberCellError, _id_array, _refuse_above
from cubemorse.cubical import CubicalComplex
from cubemorse.matching import _TAKEN, _classify
from cubemorse.morse import _collapse, morse_boundary


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


# The aggregated matching of a sequence of entries, by structural recursion
# (``mate``, ``SequenceMatching``) and level by level (``mate_table``): the
# independent oracles of ``cubemorse.matching``'s sweeps.


def _mate_helper(x: int, i: int, entries: Sequence[Callable[[int], int]], memo: dict) -> int:
    """Partner of x after aggregating the first i entries."""
    if i == 0:
        return x
    key = (x, i)
    got = memo.get(key)
    if got is not None:
        return got
    res = _mate_helper(x, i - 1, entries, memo)
    if res == x:
        y = entries[i - 1](x)
        if y != x and _mate_helper(y, i - 1, entries, memo) == y:
            res = y
    memo[key] = res
    return res


def mate(cell: int, entries: Sequence[Callable[[int], int]], memo: dict | None = None) -> int:
    """Resolve one cell's partner under the aggregated matching.

    Args:
        cell: cell id.
        entries: the elementary pairings, earliest first.
        memo: optional shared cache of (cell, level) results.

    Returns:
        The partner cell, or ``cell`` itself when it stays unmatched.
    """
    if memo is None:
        memo = {}
    return _mate_helper(cell, len(entries), entries, memo)


def mate_table(cx: CellComplexLike, entries: Sequence[Callable[[int], int]]) -> tuple[dict[int, int], dict[int, int]]:
    """Materialize the aggregated matching over a whole complex.

    Runs the level-by-level construction directly: at level i every pair
    (x, w_i(x)) with both sides still unclaimed after the previous levels is
    matched.  Serves as the independent oracle for :func:`mate`, on at most
    10,000 cells.

    Returns:
        (partner, level): partner[c] is c's match (c itself when unmatched),
        level[c] the 1-based entry index at which the pair formed.
    """
    _refuse_above("mate_table", cx, 10_000)
    partner = {c: c for c in cx.cells()}
    level: dict[int, int] = {}
    avail = set(partner)
    for i, entry in enumerate(entries, start=1):
        matched_now: list[int] = []
        for x in sorted(avail):
            if partner[x] != x:
                continue
            y = entry(x)
            if y == x or y not in avail or partner.get(y) != y:
                continue
            if entry(y) != x:
                raise IntegrityError(
                    f"entry {i} is not involutive on pair ({x}, {y})"
                )
            partner[x] = y
            partner[y] = x
            level[x] = level[y] = i
            matched_now.append(x)
            matched_now.append(y)
        avail.difference_update(matched_now)
    return partner, level


class SequenceMatching:
    """Matching oracle for an arbitrary complex, backed by the recursion."""

    def __init__(self, cx: CellComplexLike, entries: Sequence[Callable[[int], int]]):
        self.cx = cx
        self.entries = list(entries)
        self._memo: dict = {}

    def __call__(self, cell: int) -> int:
        if not self.cx.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        return _mate_helper(cell, len(self.entries), self.entries, self._memo)

    def provenance(self, cell: int) -> int | None:
        """1-based entry index at which the cell pairs; None if unmatched."""
        if self(cell) == cell:
            return None
        for i in range(1, len(self.entries) + 1):
            if _mate_helper(cell, i, self.entries, self._memo) != cell:
                return i
        return None


# Per-cell oracles: one cell, one query at a time, the way the paper states
# them, against the array passes of ``cubemorse``.


def classify(cell: int, oracle: Callable[[int], int], cx: CellComplexLike) -> str:
    """'A' for fixed, 'Q' for lower (paired upward), 'K' for upper cells.

    Raises TrichotomyError when the partner is not an incident cell one
    dimension away.
    """
    return _classify(cell, oracle(cell), cx)


def morse_complex(
    cx,
    oracle: Callable[[int], int],
    grade_of: Callable[[int], int] | None = None,
) -> ExplicitComplex:
    """Reduce any complex handle along a matching oracle.

    Streams all cells to find the fixed ones, then counts flows.  For large
    cubical complexes prefer :func:`template_round`, which matches all cells
    in a few array passes instead of querying the oracle cell by cell.
    """
    ids = _id_array(sorted(c for c in cx.cells() if oracle(c) == c))
    dims = np.array([cx.dim(c) for c in ids.tolist()], dtype=np.int64)
    grades = None if grade_of is None else np.array([grade_of(c) for c in ids.tolist()], dtype=np.int64)
    return _collapse(morse_boundary(ids, cx.boundary, oracle, cx.dim, dims), dims, grades)


def _top_flat(anchor: Sequence[int], na: int) -> int:
    """Flat index of the top cube with the given anchor, axis 0 fastest."""
    out = 0
    for i, k in enumerate(anchor):
        out += k * na**i
    return out


def reachability(n: int, dag_u: np.ndarray, dag_v: np.ndarray) -> np.ndarray:
    """``below[q, p]``: whether class p is reached from class q along the
    edges ``dag_u -> dag_v``, q itself included, by a breadth-first search
    from every class.  Independent of :class:`CondensationPoset`'s bit array."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(dag_u.tolist(), dag_v.tolist()):
        succ[u].append(v)
    below = np.zeros((n, n), dtype=bool)
    for q in range(n):
        seen, queue = {q}, deque([q])
        while queue:
            for v in succ[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        below[q, sorted(seen)] = True
    return below


def grade_cell(
    sk: BraidSkeleton, poset: CondensationPoset, cx: CubicalComplex, cell: int
) -> int:
    """Single-cell grade by enumerating the star's top cubes directly.

    Independent of :func:`grade_cells`; used to spot-check the pooled array.
    """
    na = sk.m - 1
    opts = []
    for c in cx.digits(cell):
        if c & 1:
            opts.append((c // 2,))
        else:
            k = c // 2
            opts.append(tuple(x for x in (k - 1, k) if 0 <= x <= na - 1))
    classes = set()
    for combo in product(*opts):
        classes.add(int(poset.labels[_top_flat(combo, na)]))
    return poset.least(classes)


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
    return from_cells(m, d, seeds)


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


def member_codes(cx: CubicalComplex, code: np.ndarray) -> np.ndarray:
    """The codes of a whole sweep at the members' slots (``cx._locate``),
    in ascending id order, after checking that the sweep has one slot per
    id on a grid or dense explicit complex, one per member on a sparse one,
    and ``_TAKEN`` at exactly the slots of no member."""
    at, hit = cx._locate(cx.member_ids())
    assert hit.all() and code.shape == ((cx.total_ids if cx._by_id else at.size),)
    rest = np.ones(code.size, dtype=bool)
    rest[at] = False
    assert np.all(code[rest] == _TAKEN) and not np.any(code[at] == _TAKEN)
    return code[at]


@st.composite
def dense_top_cube_complexes(draw):
    """The face closure of all top cubes of C(m; d), d <= 4, m <= 3, but at
    most a quarter of them: a dense explicit complex, with a member mask."""
    m, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    every = list(itertools.product(range(m), repeat=d))
    drop = draw(st.sets(st.sampled_from(every), max_size=len(every) // 4))
    cx = CubicalComplex.from_top_cells(m, d, [a for a in every if a not in drop])
    assert cx._member_mask is not None
    return cx


@st.composite
def sparse_cubical_complexes(draw):
    """The face closure of one to three cells of C(m; d), 3 <= m, d <= 4,
    whose ids outnumber its members more than three times: a sparse explicit
    complex, with no member mask."""
    m, d = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    seeds = draw(st.lists(st.integers(0, (2 * m + 1) ** d - 1), min_size=1, max_size=3))
    cx = from_cells(m, d, seeds)
    assert cx._member_mask is None
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


@st.composite
def random_boundaries(draw):
    """An explicit complex with random boundary rows, which may or may not
    square to zero: each cell of dimension k > 0 lists a random set of the
    cells of dimension k - 1.  Ids are spread by a random stride, up to
    beyond 2^64, so they need not fit any numpy int."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=14))
    stride = draw(st.sampled_from([1, 7, 2 ** 40 + 3, 2 ** 58 + 1, 2 ** 64]))
    ids = [i * stride for i in range(len(dims))]
    bdry = {}
    for c, k in zip(ids, dims):
        below = [f for f, j in zip(ids, dims) if j == k - 1]
        if below:
            bdry[c] = tuple(draw(st.sets(st.sampled_from(below))))
    return ExplicitComplex(dict(zip(ids, dims)), bdry)


@st.composite
def cubical_boundaries(draw):
    """The boundary of a top-cube complex, which squares to zero, with
    optionally one face added to or removed from one row, which breaks it
    unless the row is a vertex's."""
    E = ExplicitComplex.from_complex(draw(top_cube_complexes()))
    if draw(st.booleans()):
        c = draw(st.sampled_from(sorted(E.rows)))
        below = [f for f in E.dims if E.dims[f] == E.dims[c] - 1]
        row = set(E.rows[c]) ^ {draw(st.sampled_from(below))}
        E = ExplicitComplex(E.dims, {**E.rows, c: tuple(row)})
    return E


def generic_round_reference(E: ExplicitComplex, graded: bool = False) -> dict[int, int]:
    """The dict implementation of ``morse.generic_round``, the oracle of the
    array one: face tuples and coface lists built from the rows of every
    cell, positions looked up in a dict, the same heap loop.  Returns the
    partner dict over all cells."""
    grades = E.grades if graded else None
    bdry = E.rows
    cells = sorted(E.dims)
    n = len(cells)
    at = {c: i for i, c in enumerate(cells)}.__getitem__
    faces: list[tuple[int, ...]] = [()] * n
    cofaces: list = [()] * n  # a list once a cell has a coface
    for c, fs in bdry.items():
        if grades is not None:
            g = grades[c]
            fs = [f for f in fs if grades[f] == g]
        i = at(c)
        row = faces[i] = tuple(map(at, fs))
        for f in row:
            if cofaces[f]:
                cofaces[f].append(i)
            else:
                cofaces[f] = [i]
    del at
    nf = [len(r) for r in faces]
    nc = [len(r) for r in cofaces]

    # ascending lists are already heaps; a cell with neither faces nor
    # cofaces touches nothing, so it stays fixed without a step of its own
    core_heap = [i for i, x in enumerate(nf) if x == 1]
    coll_heap = [i for i, x in enumerate(nc) if x == 1]
    free_heap = [i for i, x in enumerate(nf) if x == 0 and nc[i]]
    push, pop = heapq.heappush, heapq.heappop
    partner = list(range(n))

    remaining = sum(1 for a, b in zip(nf, nc) if a or b)
    while remaining:
        k = q = -1
        while core_heap:
            cand = pop(core_heap)
            if nf[cand] == 1:
                k = cand
                q = next(f for f in faces[k] if nf[f] >= 0)
                break
        else:
            while coll_heap:
                cand = pop(coll_heap)
                if nc[cand] == 1 and nf[cand] >= 0:
                    q = cand
                    k = next(c for c in cofaces[q] if nf[c] >= 0)
                    break
        if k >= 0:
            partner[q] = k
            partner[k] = q
            nf[q] = nf[k] = -1
            remaining -= 2
            gone: tuple[int, ...] = (q, k)
        else:
            while free_heap:
                cand = pop(free_heap)
                if nf[cand] == 0:
                    q = cand
                    break
            if q < 0:
                raise IntegrityError("coreduction stalled with cells remaining")
            nf[q] = -1
            remaining -= 1
            gone = (q,)
        for x in gone:
            for co in cofaces[x]:
                m = nf[co] - 1
                if m < 0:
                    continue  # removed
                nf[co] = m
                if m == 1:
                    push(core_heap, co)
                elif m == 0:
                    push(free_heap, co)
            for f in faces[x]:
                if nf[f] >= 0:
                    nc[f] -= 1
                    if nc[f] == 1:
                        push(coll_heap, f)
    return dict(zip(cells, [cells[p] for p in partner]))


def dd_nonzero(E) -> dict[int, list[int]]:
    """The cells of an explicit complex whose boundary of boundary is
    nonzero, each with its faces of faces of odd count, ascending, counted
    by a ``Counter`` per cell: the oracle of ``check_dd_zero``."""
    out = {}
    for c, faces in E.rows.items():
        count = Counter(g for f in faces for g in E.rows.get(f, ()))
        odd = sorted(g for g, k in count.items() if k % 2)
        if odd:
            out[c] = odd
    return out


# The test-only oracles: dense GF(2) Betti numbers, crossing counts of one
# free strand, the closure of arbitrary cells and a relabelled boundary.


def gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix whose rows are given as int bitmasks.

    Each pivot is keyed by its lowest set bit.  Adding the pivot keyed by a
    row's lowest bit clears that bit and changes only higher ones, so every
    row ends as zero or as the pivot of a new key.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            p = pivots.get(low)
            if p is None:
                pivots[low] = row
                break
            row ^= p
    return len(pivots)


def betti_oracle(cx: CellComplexLike) -> list[int]:
    """Betti numbers over GF(2) by straight Gaussian elimination.

    Independent of the Morse machinery: builds each boundary matrix and uses
    rank-nullity.  Intended as a test oracle, so it refuses more than
    100,000 cells.

    Returns:
        List ``b`` with ``b[k]`` the k-th GF(2) Betti number, for k in
        0..max_cell_dim of the complex.
    """
    _refuse_above("betti_oracle", cx, 100_000)
    by_dim: dict[int, list[int]] = {}
    for c in cx.cells():
        by_dim.setdefault(cx.dim(c), []).append(c)
    if not by_dim:
        return []
    top = max(by_dim)
    index: dict[int, dict[int, int]] = {
        d: {c: i for i, c in enumerate(sorted(ids))} for d, ids in by_dim.items()
    }
    ranks: dict[int, int] = {}
    for d in range(1, top + 1):
        rows = []
        lower = index.get(d - 1, {})
        for c in sorted(by_dim.get(d, [])):
            mask = 0
            for f in cx.boundary(c):
                mask |= 1 << lower[f]
            rows.append(mask)
        ranks[d] = gf2_rank(rows)
    betti = []
    for d in range(top + 1):
        n = len(by_dim.get(d, []))
        betti.append(n - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return betti


def crossing_number(sk: BraidSkeleton, anchor: Sequence[int]) -> int:
    """Crossings between the skeleton and a free strand through one top cube.

    The free strand takes the midpoint height anchor[i] + 1/2 at every
    position (wrapping at the seam), so each segment pair contributes when
    the height differences flip sign.  Values are doubled to stay integral.
    """
    d = sk.d
    if len(anchor) != d:
        raise ValueError(f"anchor needs {d} coordinates")
    if any(not 0 <= a <= sk.m - 2 for a in anchor):
        raise ValueError(f"anchor {tuple(anchor)} outside the top-cube grid")
    total = 0
    for s in sk.strands:
        for j in range(d):
            a = 2 * anchor[j] + 1 - 2 * s[j]
            b = 2 * anchor[(j + 1) % d] + 1 - 2 * s[j + 1]
            if a * b < 0:
                total += 1
    return total


def from_cells(m: int, d: int, cells: list[int]) -> CubicalComplex:
    """Closure (under taking faces) of an arbitrary set of cell ids."""
    cx = CubicalComplex(m, d)
    members: set[int] = set()
    stack = list(cells)
    while stack:
        c = stack.pop()
        if c in members:
            continue
        if not 0 <= c < cx.total_ids:
            raise NonMemberCellError(f"cell id {c} out of range for this grid")
        members.add(c)
        stack.extend(cx._boundary_raw(c))
    cx.members = np.array(sorted(members), dtype=cx._id_dtype)
    cx.members.flags.writeable = False
    return cx


def canonical_form(E: ExplicitComplex) -> tuple:
    """Relabel cells 0..n-1 in ascending id order; grades are not included."""
    entries = tuple(zip(E.rows.owners().tolist(), E.rows.cols.tolist()))
    return tuple(E._dim.tolist()), entries


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
