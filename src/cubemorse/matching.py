"""Aggregating a sequence of elementary pairings into one acyclic matching.

An *entry* is an involution on cells that fixes everything it cannot pair
(e.g. an extent toggle restricted to a subcomplex).  Given entries
w_1, ..., w_n, a cell takes the partner offered by the earliest entry under
which both sides are still unclaimed.  :func:`mate` resolves one cell by
structural recursion; :func:`mate_table` materializes the same function by
sweeping the whole complex level by level and exists as an independent
cross-check.  On cubical complexes, where entries are single-bit extent
toggles, :func:`template_sweep` is the production evaluation: one array pass
per axis over all member ids.  :func:`fiber_mate` evaluates the same
matching on one anchor fiber and backs :class:`TemplateMatching`, the
per-cell oracle that ``verify`` and the tests check the sweep against.

A matching w partitions cells into fixed cells, lower cells (paired upward),
and upper cells.  ``verify_*`` check the matching axioms, acyclicity of the
induced flow relation, and the pair-stability property that guarantees
acyclicity for aggregated matchings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    CellComplexLike,
    IntegrityError,
    NonMemberCellError,
    SizeGuardError,
    TrichotomyError,
)
from .cubical import CubicalComplex

Entry = Callable[[int], int]


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
    if cx.cell_count > max_cells:
        raise SizeGuardError(
            f"mate_table refuses {cx.cell_count} cells (limit {max_cells})"
        )
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


def template_sweep(cx: CubicalComplex, grade_of=None) -> tuple[np.ndarray, np.ndarray]:
    """The template matching of a whole cubical complex, one array pass per axis.

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

    Returns:
        (ids, code): the ascending member ids and, per member, the signed
        level of its pair as int8: +i when it pairs upward with
        ``id + pows[i-1]``, -i when it pairs downward with
        ``id - pows[i-1]``, 0 when it stays fixed.
    """
    ids = cx.member_ids()
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
    """Template matching of a cubical complex, resolved fiber by fiber.

    The per-cell oracle for ``verify`` and the tests; reduction rounds use
    :func:`template_sweep`.  The aggregated extent-toggle matching never
    pairs cells across fibers, so each anchor's table is computed
    independently with :func:`fiber_mate` and kept in a bounded LRU cache.

    Args:
        cx: the cubical complex.
        grade_of: optional per-cell grade (callable or indexable by id);
            when given, pairs are restricted to one grade class.
        cache_fibers: maximum number of fiber tables retained.
    """

    def __init__(self, cx: CubicalComplex, grade_of=None, cache_fibers: int = 1 << 16):
        self.cx = cx
        if grade_of is None or callable(grade_of):
            self._grade = grade_of
        else:
            self._grade = grade_of.__getitem__
        self.cache_fibers = cache_fibers
        self._cache: OrderedDict[int, tuple[dict, dict]] = OrderedDict()

    def _fiber(self, base: int) -> tuple[dict[int, int], dict[int, int]]:
        tab = self._cache.get(base)
        if tab is not None:
            self._cache.move_to_end(base)
            return tab
        cx = self.cx
        anchor = tuple(c // 2 for c in cx.digits(base))
        members = cx.fiber_members(anchor)
        grade = None
        if self._grade is not None:
            offs = cx.offsets()
            gf = self._grade
            grade = {msk: gf(base + offs[msk]) for msk in members}
        tab = fiber_mate(members, cx.d, grade)
        self._cache[base] = tab
        if len(self._cache) > self.cache_fibers:
            self._cache.popitem(last=False)
        return tab

    def __call__(self, cell: int) -> int:
        cx = self.cx
        if not cx.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        offs = cx.offsets()
        mask = cx.extent_mask(cell)
        base = cell - offs[mask]
        partner, _ = self._fiber(base)
        pm = partner[mask]
        return cell if pm == mask else base + offs[pm]

    def provenance(self, cell: int) -> int | None:
        cx = self.cx
        if not cx.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        offs = cx.offsets()
        mask = cx.extent_mask(cell)
        _, level = self._fiber(cell - offs[mask])
        return level.get(mask)

    def entries(self) -> list[Entry]:
        """The underlying elementary pairings as callables on cell ids."""
        from .cubical import alpha, beta

        cx = self.cx
        if self._grade is None:
            return [
                (lambda c, i=i: alpha(i, c, cx)) for i in range(1, cx.d + 1)
            ]
        gf = self._grade
        return [
            (lambda c, i=i: beta(i, c, cx, gf)) for i in range(1, cx.d + 1)
        ]


def classify(cell: int, oracle: Callable[[int], int], cx: CellComplexLike) -> str:
    """'A' for fixed, 'Q' for lower (paired upward), 'K' for upper cells.

    Raises TrichotomyError when the partner is not an incident cell one
    dimension away.
    """
    m = oracle(cell)
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
    if cx.cell_count > max_cells:
        raise SizeGuardError(
            f"verify_matching refuses {cx.cell_count} cells (limit {max_cells})"
        )
    rep = MatchingReport(checked_cells=0)
    cap = 200
    for c in cx.cells():
        rep.checked_cells += 1
        if len(rep.violations) >= cap:
            break
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
        if oracle(m) != c:
            rep.violations.append(("involution", c, f"partner {m} maps to {oracle(m)}"))
            continue
        try:
            kind = classify(c, oracle, cx)
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


def _lower_cells(cx, oracle):
    out = {}
    for c in cx.cells():
        m = oracle(c)
        if m != c and cx.dim(m) == cx.dim(c) + 1:
            out[c] = m
    return out


def verify_acyclic(
    cx: CellComplexLike,
    oracle: Callable[[int], int],
    max_cells: int = 100_000,
) -> bool:
    """True when the flow relation on lower cells has no directed cycle.

    The relation steps from a lower cell q to every other lower cell in the
    boundary of q's partner.  Iterative three-color depth-first search.
    """
    if cx.cell_count > max_cells:
        raise SizeGuardError(
            f"verify_acyclic refuses {cx.cell_count} cells (limit {max_cells})"
        )
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
    max_cells: int = 100_000,
) -> bool:
    """Check pair stability of a matching built from the given entries.

    For lower cells q0, q1 with q1 in the boundary of q0's partner, let j
    and j' be the entry levels that formed the two pairs.  The pair is
    unstable when some earlier entry i < min(j, j') would have sent q1 to
    q0's partner; an aggregated matching never produces this.

    Args:
        provenance: level lookup for matched cells; defaults to
            ``oracle.provenance``.
    """
    if cx.cell_count > max_cells:
        raise SizeGuardError(
            f"verify_stable refuses {cx.cell_count} cells (limit {max_cells})"
        )
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
