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
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .core import FormatError, IntegrityError
from .cubical import CubicalComplex


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

    Checks, in order: rectangular integer data with values in range, every
    cross-section a permutation of 0..m-1, a well-defined wrap-around
    permutation, and transversality (strands meeting at a point must cross,
    with cyclic indexing at the seam).  All violations are collected into
    one :class:`SkeletonError`.
    """
    bad: list[tuple[str, str]] = []
    m = len(rows)
    if m == 0:
        raise SkeletonError([("shape", "no strands")])
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
    perm_ok = True
    for j in range(d + 1):
        col = sorted(s[j] for s in strands)
        if col != list(range(m)):
            perm_ok = False
            bad.append(
                ("cross-section", f"position {j + 1} is not a permutation: {col}")
            )
    tau: tuple[int, ...] | None = None
    if perm_ok:
        by_start = {s[0]: a for a, s in enumerate(strands)}
        tau = tuple(by_start[s[d]] for s in strands)
    inv_tau = None
    if tau is not None:
        inv_tau = [0] * m
        for a, b in enumerate(tau):
            inv_tau[b] = a
    for j in range(d):
        for a in range(m):
            for b in range(a + 1, m):
                if strands[a][j] != strands[b][j]:
                    continue
                if j == 0:
                    if inv_tau is None:
                        continue  # cannot resolve the seam without tau
                    pa = strands[inv_tau[a]][d - 1]
                    pb = strands[inv_tau[b]][d - 1]
                else:
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
    assert tau is not None
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


def crossing_table(sk: BraidSkeleton) -> np.ndarray:
    """Crossing numbers of all top cubes; axis i indexes coordinate i+1."""
    na = sk.m - 1
    d = sk.d
    shape = (na,) * d
    tbl = np.zeros(shape, dtype=np.int64)
    two_x = 2 * np.arange(na) + 1
    for j in range(d):
        g = np.zeros((na, na), dtype=np.int64)
        for s in sk.strands:
            a = two_x - 2 * s[j]
            b = two_x - 2 * s[j + 1]
            g += (a[:, None] * b[None, :]) < 0
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


def _star_tops(vertex: Sequence[int], na: int) -> list[tuple[int, ...]]:
    opts = []
    for vi in vertex:
        opts.append(tuple(k for k in (vi - 1, vi) if 0 <= k <= na - 1))
    return [t for t in product(*opts)]


def _top_flat(anchor: Sequence[int], na: int) -> int:
    out = 0
    for i, k in enumerate(anchor):
        out += k * na**i
    return out


def _relation_edge_arrays(
    sk: BraidSkeleton, cross_flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges of the crossing relation on flat top-cube indices.

    Adjacent top cubes get an edge toward the one with the smaller or equal
    crossing number (both ways on ties); around an improper vertex all
    adjacent pairs of its star are linked both ways regardless of crossing
    numbers.
    """
    na = sk.m - 1
    d = sk.d
    T = cross_flat.size
    idx = np.arange(T, dtype=np.int64)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for ax in range(d):
        stride = na**ax
        k = (idx // stride) % na
        sel = idx[k < na - 1]
        nb = sel + stride
        cu = cross_flat[sel]
        cv = cross_flat[nb]
        down = cv <= cu
        up = cu <= cv
        us.append(sel[down])
        vs.append(nb[down])
        us.append(nb[up])
        vs.append(sel[up])
    extra_u: list[int] = []
    extra_v: list[int] = []
    for vert in improper_vertices(sk):
        tops = set(_star_tops(vert, na))
        for t in tops:
            for ax in range(d):
                t2 = t[:ax] + (t[ax] + 1,) + t[ax + 1 :]
                if t2 in tops:
                    f1, f2 = _top_flat(t, na), _top_flat(t2, na)
                    extra_u.extend((f1, f2))
                    extra_v.extend((f2, f1))
    if extra_u:
        us.append(np.asarray(extra_u, dtype=np.int64))
        vs.append(np.asarray(extra_v, dtype=np.int64))
    return np.concatenate(us), np.concatenate(vs)


class CondensationPoset:
    """Strongly connected classes of the crossing relation, ordered by
    reachability: p <= q when p can be reached from q.

    Classes are numbered by their smallest contained top-cube index, so runs
    are reproducible.  ``rank`` is a linear extension (sinks get low ranks),
    used both for least-element queries and the grade pooling.
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
        self.rank = self._linear_extension()
        self._desc: list[int] | None = None

    def _linear_extension(self) -> np.ndarray:
        import heapq

        n = self.n
        outdeg = np.bincount(self.dag_u, minlength=n).astype(np.int64)
        in_adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(self.dag_u.tolist(), self.dag_v.tolist()):
            in_adj[v].append(u)
        heap = [p for p in range(n) if outdeg[p] == 0]
        heapq.heapify(heap)
        rank = np.full(n, -1, dtype=np.int64)
        r = 0
        while heap:
            v = heapq.heappop(heap)
            rank[v] = r
            r += 1
            for u in in_adj[v]:
                outdeg[u] -= 1
                if outdeg[u] == 0:
                    heapq.heappush(heap, u)
        if r != n:
            raise IntegrityError("condensation is not acyclic")
        return rank

    @property
    def desc(self) -> list[int]:
        """Per class, the bitset of classes below or equal to it."""
        if self._desc is None:
            n = self.n
            out_adj: list[list[int]] = [[] for _ in range(n)]
            for u, v in zip(self.dag_u.tolist(), self.dag_v.tolist()):
                out_adj[u].append(v)
            order = np.argsort(self.rank, kind="stable")
            desc = [0] * n
            for p in order.tolist():
                x = 1 << p
                for q in out_adj[p]:
                    x |= desc[q]
                desc[p] = x
            self._desc = desc
        return self._desc

    def leq(self, p: int, q: int) -> bool:
        if p == q:
            return True
        return bool((self.desc[q] >> p) & 1)

    def least(self, classes: Iterable[int]) -> int:
        """The unique class below all the given ones; IntegrityError if none."""
        cs = sorted(set(int(c) for c in classes))
        if not cs:
            raise IntegrityError("least element of an empty set requested")
        best = min(cs, key=lambda c: self.rank[c])
        for c in cs:
            if not self.leq(best, c):
                raise IntegrityError(f"classes {cs} have no least element")
        return best

    def relation_pairs(self, subset: Iterable[int]) -> list[tuple[int, int]]:
        """All strict order pairs (p, q) with p < q within a subset."""
        sub = sorted(set(int(c) for c in subset))
        out = []
        for p in sub:
            for q in sub:
                if p != q and self.leq(p, q):
                    out.append((p, q))
        return out


def condensation(sk: BraidSkeleton, cross_flat: np.ndarray | None = None) -> CondensationPoset:
    """Build the condensation poset of the crossing relation."""
    # scipy.sparse takes most of the package's import time; only this needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if cross_flat is None:
        cross_flat = crossing_table(sk).ravel(order="F")
    T = cross_flat.size
    u, v = _relation_edge_arrays(sk, cross_flat)
    graph = csr_matrix(
        (np.ones(len(u), dtype=np.int8), (u, v)), shape=(T, T)
    )
    ncomp, lab = connected_components(graph, directed=True, connection="strong")
    first = np.full(ncomp, T, dtype=np.int64)
    np.minimum.at(first, lab, np.arange(T, dtype=np.int64))
    order = np.argsort(first, kind="stable")
    renum = np.empty(ncomp, dtype=np.int64)
    renum[order] = np.arange(ncomp, dtype=np.int64)
    labels = renum[lab]
    lu, lv = labels[u], labels[v]
    keep = lu != lv
    codes = np.unique(lu[keep] * np.int64(ncomp) + lv[keep])
    dag_u = codes // ncomp
    dag_v = codes % ncomp
    return CondensationPoset(ncomp, labels, dag_u, dag_v, cross_flat)


def _pool_axis(cur: np.ndarray, ax: int, na: int) -> np.ndarray:
    """Expand one top-grid axis to digit resolution, taking minima on vertices."""
    side = 2 * na + 1
    shape = list(cur.shape)
    shape[ax] = side
    out = np.empty(shape, dtype=cur.dtype)

    def sl(a: int, b: int, step: int | None = None) -> tuple:
        ix: list = [slice(None)] * cur.ndim
        ix[ax] = slice(a, b, step)
        return tuple(ix)

    out[sl(1, side, 2)] = cur
    out[sl(0, 1)] = cur[sl(0, 1)]
    out[sl(side - 1, side)] = cur[sl(na - 1, na)]
    if na > 1:
        out[sl(2, side - 1, 2)] = np.minimum(cur[sl(0, na - 1)], cur[sl(1, na)])
    return out


def grade_cells(sk: BraidSkeleton, poset: CondensationPoset, verify: bool = True) -> np.ndarray:
    """Grade of every cell of C(m-1; d): least class among its star's tops.

    Pooled axis by axis over the linear-extension ranks: the minimum rank in
    a star is the least class whenever a least exists.  ``verify`` then
    checks, for every vertex-interval coordinate, that each cell's grade is
    below the grade of both cofaces along that axis; by transitivity this
    certifies leastness for every cell and raises otherwise.
    """
    na = sk.m - 1
    d = sk.d
    cur = poset.rank[poset.labels].reshape((na,) * d, order="F")
    for ax in range(d):
        cur = _pool_axis(cur, ax, na)
    rank_flat = cur.ravel(order="F")
    scc_by_rank = np.empty(poset.n, dtype=np.int64)
    scc_by_rank[poset.rank] = np.arange(poset.n, dtype=np.int64)
    grades = scc_by_rank[rank_flat].astype(np.int32)
    if verify:
        _verify_grading(grades, 2 * na + 1, d, poset)
    return grades


def _verify_grading(grades: np.ndarray, base: int, d: int, poset: CondensationPoset) -> None:
    grid = grades.reshape((base,) * d, order="F")
    n = poset.n
    codes: set[int] = set()

    def digits(ax: int, start: int, stop: int) -> np.ndarray:
        ix: list = [slice(None)] * d
        ix[ax] = slice(start, stop, 2)
        return grid[tuple(ix)]

    for ax in range(d):
        # each odd digit 2l+1 against its even faces 2l (below) and 2l+2 (above)
        odd = digits(ax, 1, base)
        for even in (digits(ax, 0, base - 1), digits(ax, 2, base)):
            ne = even != odd
            pair = even[ne].astype(np.int64) * n + odd[ne]
            codes.update(np.unique(pair).tolist())
    for code in sorted(codes):
        p, q = divmod(code, n)
        if not poset.leq(p, q):
            raise IntegrityError(
                f"grade {p} is not below coface grade {q}: star has no least class"
            )


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
        """Cell tally per (grade, dimension), for Euler bookkeeping."""
        base = self.cx.base
        d = self.cx.d
        # a cell's dimension is its count of odd digits; the sum over all axes
        # is symmetric, so the axis order of the grid does not matter
        parity = (np.arange(base) & 1).astype(np.int8)
        dims = np.zeros((1,) * d, dtype=np.int8)
        for ax in range(d):
            dims = dims + parity.reshape([base if a == ax else 1 for a in range(d)])
        tally = np.bincount(self.grades * (d + 1) + dims.ravel(), minlength=self.poset.n * (d + 1))
        return {
            (int(u) // (d + 1), int(u) % (d + 1)): int(tally[u])
            for u in np.flatnonzero(tally)
        }


def build_braid_complex(sk: BraidSkeleton, verify_grading: bool = True) -> BraidComplex:
    """Crossing table, condensation poset, and per-cell grades for a diagram."""
    cross_flat = crossing_table(sk).ravel(order="F")
    poset = condensation(sk, cross_flat)
    grades = grade_cells(sk, poset, verify=verify_grading)
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


def parse_braid_file(text: str) -> list[tuple[int, ...]]:
    """Parse the strand-list format.

    Line 1 holds ``m d``; each of the following m non-comment lines holds
    the d+1 integer heights of one strand.  ``#`` starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty braid file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'm d', got {lines[0]!r}")
    try:
        m, d = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"header must be two integers, got {lines[0]!r}") from exc
    if m < 1 or d < 1:
        raise FormatError(f"need m >= 1 and d >= 1, got m={m} d={d}")
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} strand lines, found {len(body)}")
    rows = []
    for line in body:
        parts = line.split()
        if len(parts) != d + 1:
            raise FormatError(f"expected {d + 1} heights per strand, got {line!r}")
        try:
            rows.append(tuple(int(x) for x in parts))
        except ValueError as exc:
            raise FormatError(f"non-integer height in {line!r}") from exc
    return rows
