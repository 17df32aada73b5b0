"""Braid diagrams on a cubical grid and the grading they induce.

A skeleton is a set of m piecewise-linear strands sampled at integer
positions 1..d+1 with values in 0..m-1; position d+1 wraps around to
position 1 of some strand (the permutation tau), strands may only touch
transversally, and every cross-section is a permutation.  A free strand
threading the top cubes of the grid C(m-1; d) picks up a crossing number
against the skeleton; comparing crossing numbers of adjacent top cubes
(with ties forced around improper vertices, where a strand returns to its
starting height) yields a relation whose condensation is a finite poset.
Every cell of the grid is graded by the least condensation class among the
top cubes containing it, which is what the connection-matrix pipeline
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import FormatError, IntegrityError, _distinct, _row_starts, _rows
from .cubical import CubicalComplex, _read_header, _read_rows
from .matching import _layers


class SkeletonError(ValueError):
    """Raised when strand data violates the braid-diagram axioms."""

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        head = "; ".join(f"{kind}: {msg}" for kind, msg in violations[:4])
        super().__init__(f"{len(violations)} skeleton violation(s): {head}")


@dataclass(frozen=True)
class BraidSkeleton:
    """Validated strand data.

    Attributes:
        m: number of strands (also the value range 0..m-1).
        d: period length; strands store d+1 values, the last wrapping onto
            position 1 of the strand ``tau`` points to.
        strands: the strand rows.
        tau: strand index -> index of the strand it continues into.
    """

    m: int
    d: int
    strands: tuple[tuple[int, ...], ...]
    tau: tuple[int, ...]


def validate_skeleton(rows: Sequence[Sequence[int]]) -> BraidSkeleton:
    """Check the braid-diagram axioms and build a :class:`BraidSkeleton`.

    Checks, in order: at least two strands of rectangular integer data with
    values in range, every cross-section a permutation of 0..m-1, a
    well-defined wrap-around permutation, and transversality (strands
    meeting at a point must cross), checked only where a cross-section is
    not a permutation.  All violations are collected into one
    :class:`SkeletonError`.
    """
    bad: list[tuple[str, str]] = []
    m = len(rows)
    if m < 2:
        raise SkeletonError([("shape", f"need at least 2 strands, got {m}")])
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise SkeletonError([("shape", f"strand lengths differ: {sorted(lengths)}")])
    d = lengths.pop() - 1
    if d < 1:
        raise SkeletonError([("shape", "strands need at least 2 positions")])
    strands = tuple(tuple(int(x) for x in r) for r in rows)
    for a, s in enumerate(strands):
        for x in s:
            if not 0 <= x <= m - 1:
                bad.append(("range", f"strand {a} value {x} outside 0..{m - 1}"))
    clash = []  # positions where two strands may share a height
    for j in range(d + 1):
        col = sorted(s[j] for s in strands)
        if col != list(range(m)):
            clash.append(j)
            bad.append(
                ("cross-section", f"position {j + 1} is not a permutation: {col}")
            )
    # Two strands share a height only where a cross-section failed, which
    # leaves tau undefined, so a meeting at the seam (position 1) cannot be
    # resolved and is not checked.
    for j in clash:
        if not 0 < j < d:
            continue
        for a in range(m):
            for b in range(a + 1, m):
                if strands[a][j] != strands[b][j]:
                    continue
                pa, pb = strands[a][j - 1], strands[b][j - 1]
                na_, nb_ = strands[a][j + 1], strands[b][j + 1]
                if (pa - pb) * (na_ - nb_) >= 0:
                    bad.append(
                        (
                            "transversality",
                            f"strands {a} and {b} touch at position {j + 1} "
                            "without crossing",
                        )
                    )
    if bad:
        raise SkeletonError(bad)
    by_start = {s[0]: a for a, s in enumerate(strands)}
    tau = tuple(by_start[s[d]] for s in strands)
    return BraidSkeleton(m=m, d=d, strands=strands, tau=tau)


def reference_braid() -> BraidSkeleton:
    """The 6-strand, period-2 sample diagram used throughout the tests."""
    return validate_skeleton(
        [(0, 0, 0), (1, 3, 1), (2, 1, 2), (3, 4, 3), (4, 2, 4), (5, 5, 5)]
    )


def nfold_cover(sk: BraidSkeleton, n: int) -> BraidSkeleton:
    """Concatenate n periods of the diagram; strand count stays m, period n*d."""
    if n < 1:
        raise ValueError("cover multiplicity must be >= 1")
    rows = []
    for a in range(sk.m):
        vals: list[int] = []
        cur = a
        for _ in range(n):
            vals.extend(sk.strands[cur][: sk.d])
            cur = sk.tau[cur]
        vals.append(sk.strands[cur][0])
        rows.append(vals)
    return validate_skeleton(rows)


def torus_knot(m: int) -> BraidSkeleton:
    """Period-4 diagram with two constant strands and m-2 cascading strands.

    A moving strand drops by one each step and wraps from 1 back to m-2;
    together with the constant strands 0 and m-1 every cross-section is a
    permutation.
    """
    if m < 3:
        raise ValueError("need at least 3 strands")
    d = 4

    def nxt(x: int) -> int:
        return x - 1 if x > 1 else m - 2

    rows: list[list[int]] = [[0] * (d + 1)]
    for s in range(1, m - 1):
        vals = [s]
        for _ in range(d):
            vals.append(nxt(vals[-1]))
        rows.append(vals)
    rows.append([m - 1] * (d + 1))
    return validate_skeleton(rows)


def crossing_table(sk: BraidSkeleton) -> np.ndarray:
    """Crossing numbers of all top cubes; axis i indexes coordinate i+1.

    A strand crosses the free strand on segment j exactly when
    ``s[j] <= x`` and ``s[j+1] > y`` or the other way round, x and y the
    free strand's anchors at the two ends.  So the counts of segment j over
    all (x, y) come from the 2-D cumulative sums ``C`` of the m x m table of
    strand counts by ``(s[j], s[j+1])``:
    ``C[x, m-1] - C[x, y] + C[m-1, y] - C[x, y]``, in O(m^2) per segment.
    """
    m, na, d = sk.m, sk.m - 1, sk.d
    shape = (na,) * d
    tbl = np.zeros(shape, dtype=np.int64)
    heights = np.array(sk.strands, dtype=np.int64)
    for j in range(d):
        C = np.bincount(heights[:, j] * m + heights[:, j + 1], minlength=m * m).reshape(m, m)
        C = C.cumsum(axis=0).cumsum(axis=1)
        g = C[:na, m - 1:] + C[m - 1:, :na] - 2 * C[:na, :na]
        i2 = (j + 1) % d
        if i2 == j:  # d == 1: both segment ends read the same coordinate
            tbl += np.diagonal(g).reshape(shape)
        else:
            ia = np.arange(na).reshape([na if ax == j else 1 for ax in range(d)])
            ja = np.arange(na).reshape([na if ax == i2 else 1 for ax in range(d)])
            tbl = tbl + g[ia, ja]
    return tbl


def improper_vertices(sk: BraidSkeleton) -> list[tuple[int, ...]]:
    """Vertices traced by strands that return to their starting height."""
    out = [tuple(s[: sk.d]) for s in sk.strands if s[0] == s[sk.d]]
    return sorted(out)


def _relation_edge_arrays(
    sk: BraidSkeleton, cross_flat: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Edges of the crossing relation on flat top-cube indices, split by kind.

    Adjacent top cubes are related toward the one with the smaller crossing
    number, and both ways when the numbers tie; around an improper vertex all
    adjacent pairs of its star are related both ways regardless of crossing
    numbers.  Returns ``((one_u, one_v), (two_a, two_b))``: the strict
    one-way edges u -> v, and the two-way pairs, each listed once.
    """
    na = sk.m - 1
    d = sk.d
    T = cross_flat.size
    idx = np.arange(T, dtype=np.int64)
    one_u: list[np.ndarray] = []
    one_v: list[np.ndarray] = []
    two_a: list[np.ndarray] = []
    two_b: list[np.ndarray] = []
    # The improper stars go first, so that their small arrays do not sit
    # above the large per-axis temporaries and keep the freed heap resident.
    for vert in improper_vertices(sk):
        # the star's tops form one box: on axis i, the intervals v_i - 1 and
        # v_i that lie in 0..na-1, whose flat indices sum over the axes
        box = np.zeros((1,) * d, dtype=np.int64)
        for ax, v in enumerate(vert):
            k = np.arange(max(v - 1, 0), min(v, na - 1) + 1, dtype=np.int64)
            box = box + (k * na**ax).reshape([-1 if a == ax else 1 for a in range(d)])
        for ax in range(d):
            if box.shape[ax] == 2:
                two_a.append(np.take(box, 0, axis=ax).ravel())
                two_b.append(np.take(box, 1, axis=ax).ravel())
    for ax in range(d):
        stride = na**ax
        k = (idx // stride) % na
        sel = idx[k < na - 1]
        nb = sel + stride
        cu = cross_flat[sel]
        cv = cross_flat[nb]
        down = cv < cu
        up = cu < cv
        tie = cu == cv
        one_u += [sel[down], nb[up]]
        one_v += [nb[down], sel[up]]
        two_a.append(sel[tie])
        two_b.append(nb[tie])
    return (
        (np.concatenate(one_u), np.concatenate(one_v)),
        (np.concatenate(two_a), np.concatenate(two_b)),
    )


def _two_way_components(T: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of the undirected pairs (a, b) on nodes 0..T-1.

    Returns, per node, the smallest node of its component.  Each pass hooks
    the larger of the two labels of every pair still split onto the smaller
    (``np.minimum.at``), then jumps pointers until every label is a root;
    labels only ever point to smaller nodes, so the root of a component is
    its smallest node.  Pairs whose labels agree stay joined and are dropped.
    """
    lab = np.arange(T, dtype=np.int64)
    while True:
        la, lb = lab[a], lab[b]
        split = la != lb
        if not split.any():
            return lab
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


def _tarjan(n: int, indptr: list[int], succ: list[int]) -> list[int]:
    """Strongly connected component id per node of a CSR digraph.

    Iterative Tarjan: ``work`` holds (node, next successor offset) for the
    depth-first path, ``stack`` the nodes not yet assigned a component.
    Component ids come out in reverse topological order.
    """
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    count = ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, indptr[root])]
        while work:
            v, i = work[-1]
            end = indptr[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    work[-1] = (v, i)
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, indptr[w]))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comp


def _strong_components(
    T: int, one: tuple[np.ndarray, np.ndarray], two: tuple[np.ndarray, np.ndarray]
) -> tuple[int, np.ndarray, np.ndarray]:
    """Strongly connected components of a digraph on nodes 0..T-1.

    ``one`` holds edges u -> v, ``two`` pairs joined both ways.  The two-way
    pairs are contracted first (:func:`_two_way_components`); Tarjan then
    runs on the contracted graph of the one-way edges, whose cycles merge
    contracted nodes further.  Returns ``(n, labels, codes)``: components
    are numbered by their smallest node, and ``codes`` lists the edges
    between distinct components once each, as ``p * n + q``, ascending.
    """
    roots, node = np.unique(_two_way_components(T, *two), return_inverse=True)
    k = roots.size
    cu, cv = node[one[0]], node[one[1]]
    keep = cu != cv
    codes = _distinct(cu[keep] * np.int64(k) + cv[keep])
    cu, cv = codes // k, codes % k
    indptr = _row_starts(k, cu)
    # contracted nodes are numbered by their smallest node, so numbering the
    # components in order of first appearance numbers them by smallest node
    renum: dict[int, int] = {}
    scc = [renum.setdefault(c, len(renum)) for c in _tarjan(k, indptr.tolist(), cv.tolist())]
    n = len(renum)
    scc = np.asarray(scc, dtype=np.int64)
    lu, lv = scc[cu], scc[cv]
    keep = lu != lv
    return n, scc[node], _distinct(lu[keep] * np.int64(n) + lv[keep])


class CondensationPoset:
    """Strongly connected classes of the crossing relation, ordered by
    reachability: p <= q when p can be reached from q.

    Classes are numbered by their smallest contained top-cube index, so runs
    are reproducible.  ``labels`` maps each top cube to its class; the DAG
    edges ``dag_u[i] -> dag_v[i]`` join distinct classes, once each, in
    ascending (u, v) order.  ``rank`` is the order of the Kahn peel
    (:func:`~cubemorse.matching._layers`) of the reversed DAG, sinks first,
    so a linear extension: it serves the least-element queries and the
    grade pooling.  The layers of the same peel build the reachability, on
    the first order question, as one packed bit array of n rows of
    ceil(n / 64) words: a class's row is its own bit or'ed with the rows of
    its DAG successors, which all sit in earlier layers, one
    ``bitwise_or.reduceat`` per layer.
    """

    def __init__(
        self,
        n: int,
        labels: np.ndarray,
        dag_u: np.ndarray,
        dag_v: np.ndarray,
        cross_flat: np.ndarray,
    ):
        self.n = n
        self.labels = labels
        self.dag_u = dag_u
        self.dag_v = dag_v
        self.top_counts = np.bincount(labels, minlength=n)
        self.cross_min = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        self.cross_max = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(self.cross_min, labels, cross_flat)
        np.maximum.at(self.cross_max, labels, cross_flat)
        order = np.argsort(dag_v, kind="stable")
        self._peel = list(_layers(n, dag_v[order], dag_u[order]))
        peel = np.concatenate([np.empty(0, np.int64), *self._peel])
        if peel.size != n:
            raise IntegrityError("condensation is not acyclic")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[peel] = np.arange(n)

    @cached_property
    def _reach(self) -> np.ndarray:
        """Bit p of row q (byte p >> 3, bit p & 7) is set when p <= q: the
        rows of each layer of the peel or'ed from those of earlier ones."""
        n, dag_u, dag_v = self.n, self.dag_u, self.dag_v
        every = np.arange(n)
        reach = np.zeros((n, 8 * -(-n // 64)), dtype=np.uint8)
        reach[every, every >> 3] = 1 << (every & 7)
        words = reach.view(np.uint64)  # or-ed eight bytes at a time, which is bytewise
        start = _row_starts(n, dag_u)  # the out-edges of each class, dag_u ascending
        for layer in self._peel:
            count = start[layer + 1] - start[layer]
            has = count > 0
            if has.any():
                first = np.cumsum(count) - count
                below = words[dag_v[_rows(start, layer)]]
                words[layer[has]] |= np.bitwise_or.reduceat(below, first[has], axis=0)
        return reach

    def leq(self, p, q):
        """Whether p <= q, elementwise over int arrays of any matching shape;
        a bool for two ints."""
        p, q = np.asarray(p), np.asarray(q)
        out = (self._reach[q, p >> 3] >> (p & 7) & 1).astype(bool)
        return out if out.ndim else bool(out)

    def least(self, classes: Iterable[int]) -> int:
        """The unique class below all the given ones; IntegrityError if none."""
        cs = sorted(set(int(c) for c in classes))
        if not cs:
            raise IntegrityError("least element of an empty set requested")
        best = min(cs, key=lambda c: self.rank[c])
        if not self.leq(best, np.array(cs)).all():
            raise IntegrityError(f"classes {cs} have no least element")
        return best

    def relation_pairs(self, subset: Iterable[int]) -> list[tuple[int, int]]:
        """All strict order pairs (p, q) with p < q within a subset, by p and
        then q, asked one row of the subset at a time."""
        sub = np.array(sorted(set(int(c) for c in subset)), dtype=np.int64)
        out = []
        for p in sub.tolist():
            out += [(p, q) for q in sub[self.leq(p, sub) & (sub != p)].tolist()]
        return out


def condensation(sk: BraidSkeleton, cross_flat: np.ndarray | None = None) -> CondensationPoset:
    """Build the condensation poset of the crossing relation.

    The strongly connected classes come from :func:`_strong_components`
    over the edges of :func:`_relation_edge_arrays`; ``cross_flat`` is the
    crossing table raveled in Fortran order, computed when not given.
    """
    if cross_flat is None:
        cross_flat = crossing_table(sk).ravel(order="F")
    n, labels, codes = _strong_components(
        cross_flat.size, *_relation_edge_arrays(sk, cross_flat)
    )
    return CondensationPoset(n, labels, codes // n, codes % n, cross_flat)


def _pool_axis(
    cur: np.ndarray, ax: int, na: int, seen: np.ndarray | None = None, r0: int = 0
) -> np.ndarray:
    """Expand one top-grid axis to digit resolution, taking minima on vertices.

    The result is allocated in Fortran order, the order of cell ids, so the
    fully pooled grid ravels into per-cell grades without a copy.  Given a
    bool table ``seen`` of n columns, each vertex's two neighbouring ranks
    ``lo <= hi`` are marked at ``seen[lo - r0, hi]`` if ``lo`` has a row,
    one vertex slice at a time, over the core digits 1..2na-1 of the axes
    already pooled: pooling copies digit 1 to digit 0 and digit 2na-1 to
    digit 2na, so those slices repeat the pairs of their neighbours.
    """
    side = 2 * na + 1
    shape = list(cur.shape)
    shape[ax] = side
    out = np.empty(shape, dtype=cur.dtype, order="F")

    def sl(a: int, b: int, step: int | None = None) -> tuple:
        return (slice(None),) * ax + (slice(a, b, step),)

    out[sl(1, side, 2)] = cur
    out[sl(0, 1)] = cur[sl(0, 1)]
    out[sl(side - 1, side)] = cur[sl(na - 1, na)]
    core = (slice(1, side - 1),) * ax
    for k in range(na - 1):
        a, b, lo = cur[sl(k, k + 1)], cur[sl(k + 1, k + 2)], out[sl(2 * k + 2, 2 * k + 3)]
        np.minimum(a, b, out=lo)
        if seen is not None:
            a, b, lo = a[core], b[core], lo[core]
            rows, n = seen.shape
            key = np.multiply(lo, n - 1, dtype=np.int32 if n * n < 2**31 else np.int64)  # int16 ranks would wrap
            key += a  # key = lo * n + hi, as hi = a + b - lo
            key += b
            if rows < n:
                key = key[(lo >= r0) & (lo < r0 + rows)] - r0 * n
            seen.reshape(-1)[key] = True
    return out


_TABLE_FLOOR = 1 << 24  # bytes the grading check's table may take however few cells the grid has
_PIECE = 1 << 16  # cells per step of the rank remap and the tally, so their temporaries fit in cache


def grade_cells(sk: BraidSkeleton, poset: CondensationPoset, verify: bool = True) -> np.ndarray:
    """Grade of every cell of C(m-1; d): least class among its star's tops.

    Pools the tops' linear-extension ranks axis by axis, as int16 while
    the poset has at most 32,767 classes and int32 above that
    (:func:`_pool_axis`).  At stage k a cell with an even digit on axis k
    and odd digits on every later axis takes the smaller rank of its two
    cofaces along axis k.  Its star is the union of theirs, whose least
    classes those ranks are by induction, so it has a least class exactly
    when the smaller rank's class is below the larger's.  ``verify`` marks
    every such unequal pair over the core digit slices of the pooled axes,
    asks the poset about all of them in one ``leq`` call, and raises
    :class:`IntegrityError` naming the smallest failing (face grade, coface
    grade) pair; passing certifies every cell's grade.  The pairs are
    marked in a rank x rank bool table of at most 4 bytes per cell or
    ``_TABLE_FLOOR``, pooling once per block of its rows beyond that.  The
    ranks become classes in place, ``_PIECE`` cells at a time, so the index
    temporary stays in cache.
    """
    na, d, n = sk.m - 1, sk.d, poset.n
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    top = poset.rank.astype(dtype)[poset.labels].reshape((na,) * d, order="F")
    scc_by_rank = np.argsort(poset.rank).astype(dtype)
    rows = max(1, max(4 * (2 * na + 1) ** d, _TABLE_FLOOR) // n) if verify else n
    keys = []
    for r0 in range(0, n, rows):
        seen = np.zeros((min(rows, n - r0), n), dtype=bool) if verify else None
        cur = top
        for ax in range(d):
            cur = _pool_axis(cur, ax, na, seen, r0)
        if verify:
            keys.append(np.flatnonzero(seen) + r0 * n)
    if verify:
        key = np.concatenate(keys)
        p, q = scc_by_rank[key // n].astype(np.int64), scc_by_rank[key % n]
        key = np.sort((p * n + q)[p != q])
        p, q = np.divmod(key, n)
        bad = np.flatnonzero(~np.asarray(poset.leq(p, q), dtype=bool))
        if bad.size:
            p, q = int(p[bad[0]]), int(q[bad[0]])
            raise IntegrityError(
                f"grade {p} is not below coface grade {q}: star has no least class"
            )
    grades = cur.reshape(-1, order="F")  # a view: ranks become classes in place
    for s in range(0, grades.size, _PIECE):
        piece = grades[s : s + _PIECE]
        np.take(scc_by_rank, piece, out=piece, mode="clip")  # "raise" would copy out first; ranks are in range
    return grades


@dataclass
class BraidComplex:
    """Everything the connection-matrix pipeline needs for one diagram."""

    skeleton: BraidSkeleton
    cx: CubicalComplex
    poset: CondensationPoset
    grades: np.ndarray
    cross_flat: np.ndarray

    def grade_of(self, cell: int) -> int:
        return int(self.grades[cell])

    def input_counts(self) -> dict[tuple[int, int], int]:
        """Cell tally per (grade, dimension), for Euler bookkeeping.

        A cell's dimension is its count of odd digits.  Split its id as
        ``lo + B * hi`` with B = base**k the largest power at most
        ``_PIECE``: the dimension is the count over the k fast digits of
        ``lo`` plus the count over the other digits of ``hi``, each a small
        table.  The tally runs over pieces of ``_PIECE // B`` rows of B
        cells, one key ``grade * (d + 1) + dim`` per cell in one reused
        intp buffer and one ``bincount`` per piece, so its memory does not
        grow with the grid.
        """
        base, d = self.cx.base, self.cx.d
        k = 0
        while k < d and base ** (k + 1) <= _PIECE:
            k += 1
        parity = (np.arange(base) & 1).astype(np.intp)

        def dims(axes: int) -> np.ndarray:  # odd-digit counts of 0..base**axes - 1
            out = np.zeros((1,) * axes, dtype=np.intp)
            for ax in range(axes):
                out = out + parity.reshape([base if a == ax else 1 for a in range(axes)])
            return out.ravel(order="F")

        lo, hi = dims(k), dims(d - k)
        rows = _PIECE // lo.size
        buf = np.empty((rows, lo.size), dtype=np.intp)
        grades = self.grades.reshape(hi.size, lo.size)
        tally = np.zeros(self.poset.n * (d + 1), dtype=np.int64)
        for r in range(0, hi.size, rows):
            g = grades[r : r + rows]
            key = buf[: g.shape[0]]
            np.multiply(g, d + 1, out=key, dtype=np.intp)  # widened first: int16 grade * (d + 1) may wrap
            key += lo
            key += hi[r : r + rows, None]
            tally += np.bincount(key.reshape(-1), minlength=tally.size)
        u = np.flatnonzero(tally)
        return dict(zip(zip((u // (d + 1)).tolist(), (u % (d + 1)).tolist()), tally[u].tolist()))


def build_braid_complex(sk: BraidSkeleton) -> BraidComplex:
    """Crossing table, condensation poset, and per-cell grades for a diagram."""
    cross_flat = crossing_table(sk).ravel(order="F")
    poset = condensation(sk, cross_flat)
    grades = grade_cells(sk, poset)
    cx = CubicalComplex.full(sk.m - 1, sk.d)
    return BraidComplex(
        skeleton=sk, cx=cx, poset=poset, grades=grades, cross_flat=cross_flat
    )


def condensation_dot(poset: CondensationPoset) -> str:
    """Graphviz DOT text: one node per class with top count and crossing range."""
    lines = ["digraph condensation {"]
    for p in range(poset.n):
        label = (
            f"{p}\\ntops={int(poset.top_counts[p])}"
            f"\\ncross={int(poset.cross_min[p])}..{int(poset.cross_max[p])}"
        )
        lines.append(f'  n{p} [label="{label}"];')
    for u, v in zip(poset.dag_u.tolist(), poset.dag_v.tolist()):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_braid_file(text: str) -> np.ndarray | list[tuple[int, ...]]:
    """Parse the strand-list format.

    Line 1 holds ``m d``; each of the following m non-comment lines holds
    the d+1 integer heights of one strand.  ``#`` starts a comment.  The
    rows come back as an (m, d+1) int64 array, or as a list of tuples when
    only Python's ``int`` reads them.
    """
    m, d, body = _read_header(text, "braid", "m d")
    miscount = lambda n: None if n == m else f"expected {m} strand lines, found {n}"
    return _read_rows(body, d + 1, "heights per strand", "height", miscount)
