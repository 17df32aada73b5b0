"""Aggregating a sequence of elementary pairings into one acyclic matching.

An *entry* is an involution on cells that fixes everything it cannot pair
(e.g. an extent toggle restricted to a subcomplex).  Given entries
w_1, ..., w_n, a cell takes the partner offered by the earliest entry under
which both sides are still unclaimed.  :func:`mate` resolves one cell by
structural recursion; :func:`mate_table` materializes the same function by
sweeping the whole complex level by level and exists as an independent
cross-check.  On cubical complexes, where entries are single-bit extent
toggles, :func:`template_sweep` is the production evaluation, one array pass
per axis, and :class:`TemplateMatching` wraps it, so ``verify`` checks the
matching the reduction rounds use.  :func:`fiber_mate` evaluates it on one
anchor fiber in pure Python, as the tests' independent oracle and the
benchmark's fiber replay.

A matching w partitions cells into fixed cells, lower cells (paired upward),
and upper cells.  ``verify_*`` check the matching axioms, acyclicity of the
induced flow relation, and the pair-stability property that guarantees
acyclicity for aggregated matchings.

Given a :class:`TemplateMatching`, the checks run as numpy passes over one
whole sweep.  Partners are ``ids + step[code]``; each must be a member (a
``searchsorted`` in the member ids) that maps back.  The pair checks
compare the codes with the codec's digits, and the ``dim_of`` and
``_boundary_raw`` rows of the matched cells with the array face formula,
once per cell, ``ARRAY_CHUNK`` cells at a time.  The flow-edge arrays are
built once per matching (``TemplateMatching._flows``): acyclicity is a
Kahn peel over them and stability a test on the same edges.  The passes
only decide that all is clean.  On any anomaly, and for every other oracle,
the checks walk the cells and query the oracle one cell at a time, which
writes the exact report or raises the exact error.  Memory beyond the
sweep codes is bounded by the chunk size, except for the flow-edge arrays,
whose complexes ``FLOW_CHECK_LIMIT`` bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .core import (
    CellComplexLike,
    IntegrityError,
    NonMemberCellError,
    SizeGuardError,
    TrichotomyError,
)
from .cubical import ARRAY_CHUNK, CubicalComplex, alpha, beta

Entry = Callable[[int], int]

FLOW_CHECK_LIMIT = 100_000  # default cell limit of verify_acyclic and verify_stable


def _refuse_above(name: str, cx: CellComplexLike, max_cells: int) -> None:
    """Raise :class:`SizeGuardError` when ``cx`` has more than ``max_cells`` cells."""
    if cx.cell_count > max_cells:
        raise SizeGuardError(f"{name} refuses {cx.cell_count} cells (limit {max_cells})")


def _mate_helper(x: int, i: int, entries: Sequence[Entry], memo: dict) -> int:
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


def mate(cell: int, entries: Sequence[Entry], memo: dict | None = None) -> int:
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


def mate_table(
    cx: CellComplexLike,
    entries: Sequence[Entry],
    max_cells: int = 10_000,
) -> tuple[dict[int, int], dict[int, int]]:
    """Materialize the aggregated matching over a whole complex.

    Runs the level-by-level construction directly: at level i every pair
    (x, w_i(x)) with both sides still unclaimed after the previous levels is
    matched.  Serves as the independent oracle for :func:`mate`.

    Returns:
        (partner, level): partner[c] is c's match (c itself when unmatched),
        level[c] the 1-based entry index at which the pair formed.
    """
    _refuse_above("mate_table", cx, max_cells)
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


def fiber_mate(
    members: Sequence[int],
    width: int,
    grade: dict | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Aggregated single-bit-toggle matching over one fiber.

    This is the memoized evaluation of the pairing recursion in level order:
    at level i the entry toggles bit i-1 of the extent mask when the result
    is a member (and, if ``grade`` is given, has equal grade).  Orbits of a
    single toggle are disjoint transpositions, so an in-place sweep over the
    members reproduces the level construction exactly.

    Args:
        members: extent masks present in the fiber, ascending.
        width: number of toggle levels (the ambient coordinate count).
        grade: optional mask -> grade; pairs must not cross grades.

    Returns:
        (partner, level) keyed by extent mask.
    """
    state = {x: x for x in members}
    level: dict[int, int] = {}
    for i in range(width):
        b = 1 << i
        for x in members:
            if state[x] == x:
                y = x ^ b
                if state.get(y) == y and (grade is None or grade[x] == grade[y]):
                    state[x] = y
                    state[y] = x
                    level[x] = level[y] = i + 1
    return state, level


def template_sweep(cx: CubicalComplex, grade_of=None, ids=None) -> tuple[np.ndarray, np.ndarray]:
    """The template matching of a cubical complex, one array pass per axis.

    Level i toggles the extent of coordinate i, which moves a cell id by
    ``pows[i-1]`` between an even digit 2l < 2m and the odd digit 2l + 1 of
    the same fiber.  The orbits of one toggle are disjoint transpositions,
    so pairing every still-unmatched member with an even digit against its
    unmatched odd neighbour (of equal grade, if graded) all at once
    reproduces the level construction of :func:`fiber_mate` exactly.

    Args:
        cx: the cubical complex.
        grade_of: optional per-cell grade (numpy array, callable or
            indexable by id); pairs must not cross grades.
        ids: ascending member ids closed under the toggles, such as one
            anchor fiber; all members when None.

    Returns:
        (ids, code): the ascending member ids and, per member, the signed
        level of its pair as int8: +i when it pairs upward with
        ``id + pows[i-1]``, -i when it pairs downward with
        ``id - pows[i-1]``, 0 when it stays fixed.
    """
    ids = cx.member_ids() if ids is None else ids
    n = ids.size
    grade = None
    if isinstance(grade_of, np.ndarray):
        grade = grade_of[ids]
    elif grade_of is not None:
        gfun = grade_of if callable(grade_of) else grade_of.__getitem__
        grade = np.fromiter(map(gfun, ids.tolist()), dtype=np.int64, count=n)
    code = np.zeros(n, dtype=np.int8)
    free = np.ones(n, dtype=bool)
    last = n - 1
    for level, p in enumerate(cx.pows, start=1):
        digit = ids // p % cx.base
        src = np.flatnonzero(free & (digit & 1 == 0) & (digit < 2 * cx.m))
        want = ids[src] + p
        dst = np.minimum(np.searchsorted(ids, want), last)
        ok = (ids[dst] == want) & free[dst]
        if grade is not None:
            ok &= grade[src] == grade[dst]
        src, dst = src[ok], dst[ok]
        code[src] = level
        code[dst] = -level
        free[src] = False
        free[dst] = False
    return ids, code


class SequenceMatching:
    """Matching oracle for an arbitrary complex, backed by the recursion."""

    def __init__(self, cx: CellComplexLike, entries: Sequence[Entry]):
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


class TemplateMatching:
    """The production matching of :func:`template_sweep`, per cell and, for
    the ``verify_*`` checks, as one whole-sweep array view.

    Per-cell queries sweep a grid one anchor fiber at a time as they reach
    its fibers, and whole once 1/16 of them are swept: by then the small
    sweeps, about 0.1 ms each, cost about one whole sweep.  An explicit
    complex, whose fibers are often a few cells each, is swept whole on the
    first query.
    Pairs never leave a fiber, so the codes are the whole sweep's.  Code k
    maps a cell to ``cell + pows[k-1]`` when k > 0, to ``cell - pows[-k-1]``
    when k < 0 and to itself when k = 0; the pair forms at level |k|.
    Non-members raise :class:`NonMemberCellError`.

    Args:
        cx: the cubical complex.
        grade_of: optional per-cell grade (numpy array, callable or
            indexable by id); when given, pairs are restricted to one
            grade class.
    """

    def __init__(self, cx: CubicalComplex, grade_of=None):
        self.cx = cx
        self._grade_of = grade_of
        self._codes: dict[int, int] = {}  # member id -> sweep code, for swept members
        self._step = [0, *cx.pows, *(-p for p in reversed(cx.pows))]  # step[k]: delta of code k
        self._fibers_left = 0 if cx.members is not None else (cx.m + 1) ** cx.d // 16

    def _code(self, cell: int) -> int:
        code = self._codes.get(cell)
        if code is None:
            cx = self.cx
            if not cx.is_member(cell):
                raise NonMemberCellError(f"cell {cell} is not a member")
            keys = None  # all members
            if self._fibers_left:
                self._fibers_left -= 1
                anchor = cx.anchor(cell)
                base, offs = cx.cell_id(tuple(2 * l for l in anchor)), cx.offsets()
                keys = [base + offs[s] for s in cx.fiber_members(anchor)]
            ids = None if keys is None else np.array(keys, dtype=np.int64)
            codes = template_sweep(cx, self._grade_of, ids)[1]
            # cells() lists the swept ids, reusing an explicit complex's member ints
            self._codes.update(zip(cx.cells() if keys is None else keys, codes.tolist()))
            code = self._codes[cell]
        return code

    def __call__(self, cell: int) -> int:
        return cell + self._step[self._code(cell)]

    @cached_property
    def _clean_sweep(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(ids, code) of one whole :func:`template_sweep` when
        :func:`verify_matching` would find nothing wrong with it, else None.

        Every partner ``ids + step[code]`` must be a member whose partner is
        the cell again, and every pair must toggle an even digit below 2m of
        its lower cell up to the odd digit of its upper cell, so the two are
        face and coface one dimension apart.  ``dim_of`` of every matched
        cell and ``_boundary_raw`` of every upper cell, which the per-cell
        checks read, are compared with the codec formula in chunks of
        ``ARRAY_CHUNK`` cells (``CubicalComplex._checked_faces``).
        Computed once.
        """
        cx = self.cx
        if cx.total_ids > np.iinfo(np.int64).max:
            return None
        ids = cx.member_ids()
        try:
            code = np.asarray(template_sweep(cx, self._grade_of)[1])
        except Exception:  # noqa: BLE001 - the per-cell checks report it per cell
            return None
        if code.shape != ids.shape or code.dtype.kind not in "iu":
            return None
        if np.any(np.abs(code.astype(np.int64)) > cx.d):
            return None
        step = np.array(self._step, dtype=np.int64)
        partner = ids + step[code]
        at = np.minimum(np.searchsorted(ids, partner), ids.size - 1)
        up = code > 0
        toggled = ids[up] // step[code[up]] % cx.base
        if not (
            np.array_equal(ids[at], partner)
            and np.array_equal(code[at], -code)
            and np.all(toggled % 2 == 0)
            and np.all(toggled < 2 * cx.m)
        ):
            return None
        for cells, rows in ((ids[code > 0], False), (ids[code < 0], True)):
            for lo in range(0, cells.size, ARRAY_CHUNK):
                if cx._checked_faces(cells[lo:lo + ARRAY_CHUNK], rows) is None:
                    return None
        return ids, code

    @cached_property
    def _flows(self):
        """:func:`_flow_edges` of the clean sweep, built once for both
        :func:`verify_acyclic` and :func:`verify_stable`."""
        return _flow_edges(self.cx, *self._clean_sweep)

    def provenance(self, cell: int) -> int | None:
        """1-based level at which the cell pairs; None if unmatched."""
        return abs(self._code(cell)) or None

    def entries(self) -> list[Entry]:
        """The underlying elementary pairings as callables on cell ids."""
        cx = self.cx
        if self._grade_of is None:
            return [partial(alpha, i, cx=cx) for i in range(1, cx.d + 1)]
        gf = self._grade_of if callable(self._grade_of) else self._grade_of.__getitem__
        return [partial(beta, i, cx=cx, grade_of=gf) for i in range(1, cx.d + 1)]

    def _own_toggles(self, entries: Sequence[Entry]) -> bool:
        """Whether ``entries`` are exactly what :meth:`entries` returns on an
        ungraded complex: ``alpha`` of levels 1..d on this complex."""
        return self._grade_of is None and len(entries) == self.cx.d and all(
            isinstance(e, partial) and e.func is alpha and e.args == (i,) and e.keywords == {"cx": self.cx}
            for i, e in enumerate(entries, start=1)
        )


def classify(cell: int, oracle: Callable[[int], int], cx: CellComplexLike) -> str:
    """'A' for fixed, 'Q' for lower (paired upward), 'K' for upper cells.

    Raises TrichotomyError when the partner is not an incident cell one
    dimension away.
    """
    return _classify(cell, oracle(cell), cx)


def _classify(cell: int, m: int, cx: CellComplexLike) -> str:
    """:func:`classify` of a cell whose partner ``m`` is already known."""
    if m == cell:
        return "A"
    dc = cx.dim(cell)
    dm = cx.dim(m)
    if dm == dc + 1 and cell in cx.boundary(m):
        return "Q"
    if dm == dc - 1 and m in cx.boundary(cell):
        return "K"
    raise TrichotomyError(
        f"cells {cell} (dim {dc}) and {m} (dim {dm}) are matched but not incident"
    )


@dataclass
class MatchingReport:
    checked_cells: int
    n_fixed: int = 0
    n_lower: int = 0
    n_upper: int = 0
    violations: list[tuple[str, int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        base = (
            f"{self.checked_cells} cells: {self.n_fixed} fixed, "
            f"{self.n_lower}+{self.n_upper} paired"
        )
        if self.ok:
            return "ok: " + base
        return f"{len(self.violations)} violation(s); " + base


def verify_matching(
    cx: CellComplexLike,
    oracle: Callable[[int], int],
    max_cells: int = 1_000_000,
) -> MatchingReport:
    """Check that the oracle is an involution pairing incident cells.

    Each cell must be fixed or matched to an incident cell one dimension
    away, with the partner pointing back.
    """
    _refuse_above("verify_matching", cx, max_cells)
    view = _array_view(cx, oracle)
    if view is not None:
        code = view._clean_sweep[1]
        n_lower = int(np.count_nonzero(code > 0))
        return MatchingReport(code.size, code.size - 2 * n_lower, n_lower, n_lower)
    rep = MatchingReport(checked_cells=0)
    cap = 200
    for c in cx.cells():
        if len(rep.violations) >= cap:
            break
        rep.checked_cells += 1
        try:
            m = oracle(c)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            rep.violations.append(("oracle-error", c, str(exc)))
            continue
        if m == c:
            rep.n_fixed += 1
            continue
        if not cx.is_member(m):
            rep.violations.append(("non-member", c, f"partner {m} not a member"))
            continue
        back = oracle(m)
        if back != c:
            rep.violations.append(("involution", c, f"partner {m} maps to {back}"))
            continue
        try:
            kind = _classify(c, m, cx)
        except TrichotomyError as exc:
            rep.violations.append(("trichotomy", c, str(exc)))
            continue
        if kind == "Q":
            rep.n_lower += 1
        else:
            rep.n_upper += 1
    if rep.ok and rep.n_lower != rep.n_upper:
        rep.violations.append(
            ("pairing", -1, f"{rep.n_lower} lower vs {rep.n_upper} upper cells")
        )
    return rep


def _array_view(cx: CellComplexLike, oracle) -> TemplateMatching | None:
    """``oracle`` when it is a :class:`TemplateMatching` of ``cx`` with a
    clean sweep; None when the per-cell path must run (another oracle, or
    any anomaly)."""
    if type(oracle) is TemplateMatching and oracle.cx is cx and oracle._clean_sweep is not None:
        return oracle
    return None


def _flow_edges(cx: CubicalComplex, ids: np.ndarray, code: np.ndarray):
    """Flow edges of a clean sweep, built ``ARRAY_CHUNK`` lower cells at a time.

    An edge runs from lower cell q0, with partner k0, to each other lower
    cell q1 among the faces of k0.  It is unstable when q1 = k0 - pows[t]
    with t + 1 < min(code(q0), code(q1)): toggle t + 1 changes digit t
    alone, so it sends q1 to k0 exactly then, at a level below both pairs.

    Returns:
        (n, src, dst, unstable): the number of lower cells, the edges as
        indices of lower cells in id order (src ascending) and a flag per
        edge.
    """
    pows = np.array(cx.pows, dtype=np.int64)
    lower = np.flatnonzero(code > 0)
    rank = np.cumsum(code > 0) - 1  # index among the lower cells
    last = ids.size - 1
    parts = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0, dtype=bool),)]
    for lo in range(0, lower.size, ARRAY_CHUNK):
        at = lower[lo:lo + ARRAY_CHUNK]
        partner = ids[at] + pows[code[at] - 1]
        faces, owner, _ = cx._face_arrays(partner)
        hit = np.minimum(np.searchsorted(ids, faces), last)
        keep = (ids[hit] == faces) & (code[hit] > 0) & (faces != ids[at][owner])
        owner, hit, gap = owner[keep], hit[keep], (partner[owner] - faces)[keep]
        t = np.searchsorted(pows, gap)
        unstable = (gap > 0) & (t + 1 < np.minimum(code[at][owner], code[hit]))
        parts.append((lo + owner, rank[hit], unstable))
    src, dst, unstable = (np.concatenate(p) for p in zip(*parts))
    return lower.size, src, dst, unstable


def _peel(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Kahn's topological peel of the graph on nodes 0..n-1 with edges
    src -> dst, src ascending: True when every node peels off, i.e. the
    graph has no directed cycle."""
    indeg = np.bincount(dst, minlength=n)
    start = np.searchsorted(src, np.arange(n + 1))
    frontier = np.flatnonzero(indeg == 0)
    peeled = 0
    while frontier.size:
        peeled += frontier.size
        first, count = start[frontier], start[frontier + 1] - start[frontier]
        out = dst[np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)]
        np.subtract.at(indeg, out, 1)
        out = np.unique(out)
        frontier = out[indeg[out] == 0]
    return peeled == n


def _lower_cells(cx, oracle):
    out = {}
    for c in cx.cells():
        m = oracle(c)
        if m != c and out.get(m) != c and cx.dim(m) == cx.dim(c) + 1:
            out[c] = m
    return out


def verify_acyclic(
    cx: CellComplexLike,
    oracle: Callable[[int], int],
    max_cells: int = FLOW_CHECK_LIMIT,
) -> bool:
    """True when the flow relation on lower cells has no directed cycle.

    The relation steps from a lower cell q to every other lower cell in the
    boundary of q's partner.  A clean :class:`TemplateMatching` is checked
    by a Kahn peel over the flow-edge arrays; otherwise an iterative
    three-color depth-first search walks the cells.
    """
    _refuse_above("verify_acyclic", cx, max_cells)
    view = _array_view(cx, oracle)
    if view is not None:
        return _peel(*view._flows[:3])
    lower = _lower_cells(cx, oracle)
    color: dict[int, int] = {}  # 1 open, 2 done
    for start in sorted(lower):
        if color.get(start):
            continue
        stack: list[tuple[int, object]] = [(start, None)]
        color[start] = 1
        while stack:
            q, it = stack[-1]
            if it is None:
                it = iter(
                    f for f in cx.boundary(lower[q]) if f != q and f in lower
                )
                stack[-1] = (q, it)
            advanced = False
            for nxt in it:  # type: ignore[union-attr]
                cc = color.get(nxt, 0)
                if cc == 1:
                    return False
                if cc == 0:
                    color[nxt] = 1
                    stack.append((nxt, None))
                    advanced = True
                    break
            if not advanced:
                color[q] = 2
                stack.pop()
    return True


def verify_stable(
    cx: CellComplexLike,
    oracle: Callable[[int], int],
    entries: Sequence[Entry],
    provenance: Callable[[int], int | None] | None = None,
    max_cells: int = FLOW_CHECK_LIMIT,
) -> bool:
    """Check pair stability of a matching built from the given entries.

    For lower cells q0, q1 with q1 in the boundary of q0's partner, let j
    and j' be the entry levels that formed the two pairs.  The pair is
    unstable when some earlier entry i < min(j, j') would have sent q1 to
    q0's partner; an aggregated matching never produces this.

    A clean ungraded :class:`TemplateMatching`, passed with its own
    :meth:`~TemplateMatching.entries` and provenance, is checked over the
    flow-edge arrays (see :func:`_flow_edges`); any other input walks the
    cells.

    Args:
        provenance: level lookup for matched cells; defaults to
            ``oracle.provenance``.
    """
    _refuse_above("verify_stable", cx, max_cells)
    view = _array_view(cx, oracle)
    if view is not None and provenance in (None, view.provenance) and view._own_toggles(entries):
        return not view._flows[3].any()
    if provenance is None:
        provenance = oracle.provenance  # type: ignore[attr-defined]
    lower = _lower_cells(cx, oracle)
    for q0 in sorted(lower):
        k0 = lower[q0]
        j0 = provenance(q0)
        if j0 is None:
            raise IntegrityError(f"matched cell {q0} has no pairing level")
        for q1 in cx.boundary(k0):
            if q1 == q0 or q1 not in lower:
                continue
            j1 = provenance(q1)
            if j1 is None:
                raise IntegrityError(f"matched cell {q1} has no pairing level")
            for i in range(1, min(j0, j1)):
                if entries[i - 1](q1) == k0:
                    return False
    return True
