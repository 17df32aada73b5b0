"""Aggregating a sequence of elementary pairings into one acyclic matching.

An *entry* is an involution on cells that fixes everything it cannot pair
(e.g. an extent toggle restricted to a subcomplex).  Given entries
w_1, ..., w_n, a cell takes the partner offered by the earliest entry under
which both sides are still unclaimed.  On cubical complexes, where entries
are single-bit extent toggles, :func:`template_sweep` evaluates it in one
array pass per axis, and :class:`TemplateMatching` wraps it, so ``verify``
checks the matching the reduction rounds use.  On a whole grid or a dense
explicit complex, where a cell's id is its index in the grid's digit array,
a pass compares each cell with the one a stride on, in contiguous blocks of
one int8 code array over all ids whose nonzero codes mark the taken cells;
elsewhere it looks each partner up among the member ids.
:func:`fiber_mate` evaluates it on one anchor fiber in pure Python, as the
tests' independent oracle and the benchmark's fiber replay.

A matching w partitions cells into fixed cells, lower cells (paired upward),
and upper cells.  ``verify_*`` check the matching axioms, acyclicity of the
induced flow relation, and the pair-stability property that guarantees
acyclicity for aggregated matchings.

This module alone reads the sweep's encoding, one code per *slot*: on a
grid or dense explicit complex a cell's slot is its id, and the ids of no
member hold ``_TAKEN``; on a sparse explicit complex it is the cell's
position in ``members``.  The member at slot i has id ``cx._ids_at(i)``
and partner ``id + step[code[i]]`` (:func:`_steps`), and ``cx._locate``
maps ids back to slots, the ids themselves where they address the slots
and by ``searchsorted`` among the ``members`` of a sparse complex.  The
passes take ids only for the slots they touch, one chunk at a time, so a
grid gets no id array.  Given a :class:`TemplateMatching`, the checks run
as numpy passes over one whole sweep, and read its codes by the digit
slices of the complex (:meth:`CubicalComplex._face_slices`), whatever its
storage: the pairs by counting (:func:`_pairs_by_slices`), and whether
some flow edge descends by id or is unstable by testing each upper cell's
faces (:func:`_flow_facts_by_slices`), with no edge built.  A pair toggles
an odd digit with the even one below it, so by the face formula its lower
cell is a face of its upper cell, one dimension down.  Slots ascend with
the ids, so when no edge descends the slot order is a topological order
and the flow relation is acyclic; only when one does are the flow edges
built and peeled (``TemplateMatching._flows``).

One walk builds every other array flow graph (:func:`_flow_graph`),
breadth first over slots, ``_WALK_CHUNK`` frontier nodes at a
time: ``verify``'s on a sparse explicit complex from all lower cells of a
sweep, round one's from its fixed cells (:func:`_sweep_graph`), and the
later rounds' over the CSR of an explicit complex
(:func:`cubemorse.morse.reduce_round`).  :func:`_flow_rows` sums the flow
rows mod 2 of every such graph by one path, chains contracted and then a
layered peel from the sinks, and :func:`_peel` decides acyclicity where no
order already shows it.
The ``verify`` passes only decide that all is clean; on any anomaly, and
for every other oracle, the checks walk the cells one at a time, which
writes the exact report or raises the exact error.  ``FLOW_CHECK_LIMIT``
bounds the flow graphs of ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .core import (
    VALIDATE_LIMIT,
    CellComplexLike,
    IntegrityError,
    NonMemberCellError,
    TrichotomyError,
    _distinct,
    _refuse_above,
    _row_starts,
    _rows,
)
from .cubical import _WALK_CHUNK, CubicalComplex, _digit_slices, _lookup, alpha, beta

Entry = Callable[[int], int]

FLOW_CHECK_LIMIT = 100_000  # cell limit of verify_acyclic and verify_stable


def _index_dtype(n: int) -> np.dtype:
    """int32 for indices into an array of n entries when they all fit, else
    intp: a cast to int32 past 2^31 wraps and indexes from the end."""
    return np.dtype(np.int32 if n <= np.iinfo(np.int32).max else np.intp)


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


def template_sweep(cx: CubicalComplex, grade_of=None, ids=None) -> np.ndarray:
    """The template matching of a cubical complex, one array pass per axis.

    Level i toggles the extent of coordinate i, which moves a cell id by
    ``pows[i-1]`` between an even digit 2l < 2m and the odd digit 2l + 1 of
    the same fiber.  The orbits of one toggle are disjoint transpositions,
    so pairing every still-unmatched member with an even digit against its
    unmatched odd neighbour (of equal grade, if graded) all at once
    reproduces the level construction of :func:`fiber_mate` exactly.

    A whole grid or dense explicit complex (``ids`` None) is swept by id:
    a cell's slot is its index in the ``(base,) * d`` Fortran-order array
    of all ids, so level i compares each cell x whose digit i - 1 is even
    and below 2m with x + ``pows[i-1]``, with the excluded centre or the
    non-members marked taken beforehand; no id is searched.  Each level
    is one contiguous pass over an int8 code array of all ids, in blocks
    under a periodic mask of those digits, and a nonzero code marks a cell
    taken, so beyond the codes memory is bounded by the blocks
    (:func:`_grid_sweep`).  Any other sweep finds each partner among
    ``ids`` by ``searchsorted``, with the codes as its taken mask too.

    Args:
        cx: the cubical complex.
        grade_of: None, or an int array of ``cx.total_ids`` grades indexed
            by id; pairs must not cross grades.
        ids: ascending member ids closed under the toggles, such as one
            anchor fiber; all members when None.

    Returns:
        code: per slot (per entry of ``ids`` when given), the signed level
        of the member's pair as int8: +i when it pairs upward with
        ``id + pows[i-1]``, -i when it pairs downward with ``id - pows[i-1]``,
        0 when it stays fixed; ``_TAKEN`` at the ids of no member of a grid
        or dense explicit complex.
    """
    if ids is None and cx._by_id:
        return _grid_sweep(cx, grade_of)
    ids = cx.member_ids() if ids is None else ids
    grade = None if grade_of is None else grade_of[ids]
    code = np.zeros(ids.size, dtype=np.int8)  # 0 while a member is free
    for level, p in enumerate(cx.pows, start=1):
        digit = ids // p % cx.base
        src = np.flatnonzero((code == 0) & (digit & 1 == 0) & (digit < 2 * cx.m))
        dst, ok = _lookup(ids, ids[src] + p)
        ok &= code[dst] == 0
        if grade is not None:
            ok &= grade[src] == grade[dst]
        src, dst = src[ok], dst[ok]
        code[src] = level
        code[dst] = -level
    return code


_TAKEN = -128  # the code of an id no sweep level pairs, a non-member or the excluded centre: below -d
# A flat pass's blocks span at most _FLAT_BLOCK cells (any value >= 1 is exact) and 1/8 of
# the grid: blocks of 32-64k cells sweep braid-v3 fastest, 4k-cell ones 2.5 times slower.
_FLAT_BLOCK = 1 << 16
# Nor less than _FLAT_FLOOR cells, where _FLAT_BLOCK allows: a block costs about six numpy
# calls: sphere(9)'s 59,049 ids swept in 78 blocks of <= 1/8 in 0.73 ms, in 38 of <= 16k in 0.53.
_FLAT_FLOOR = 1 << 14


def _grid_sweep(cx: CubicalComplex, grade_of) -> np.ndarray:
    """:func:`template_sweep` of a whole grid or dense explicit complex, as
    one flat pass per level (:func:`_flat_level`) over an int8 code array
    of all ids, in which a nonzero code means taken: the non-members and
    the excluded centre start at ``_TAKEN`` and keep it.  The grade array
    over all ids is read in place, so beyond the codes only the passes'
    small buffers are held."""
    mask = cx._member_mask
    code = np.zeros(cx.total_ids, np.int8) if mask is None else np.where(mask, np.int8(0), np.int8(_TAKEN))
    if cx._excluded is not None:
        code[cx._excluded] = _TAKEN
    for level, p in enumerate(cx.pows, start=1):
        _flat_level(code, grade_of, level, p, cx.base)
    return code


def _flat_level(code, grade, level, p, n) -> None:
    """One level of :func:`_grid_sweep` as contiguous passes over the flat
    arrays.  Cell x pairs with x + p when digit ``x // p % n`` of its axis
    is even and below n - 1 and both codes are 0, untaken (and the grades
    equal).  The pattern has period ``p * n``, and no pair crosses a period
    or, within one, a multiple of 2p, so blocks of whole periods, or of
    pieces of one period that start at even digits, all share one mask;
    when 2p exceeds a block, each even digit's run of p cells pairs in
    pieces of at most a block.  An untaken cell's code is 0, so the int8
    adds write the codes exactly, without a branch per cell.  Blocks span
    at most ``_FLAT_BLOCK`` cells and 1/8 of the grid, or ``_FLAT_FLOOR``
    cells if that is more, so the buffers, freed on return, stay small
    next to a large grid and a small one is not swept in tiny blocks."""
    size, period = code.size, p * n
    target = min(_FLAT_BLOCK, max(_FLAT_FLOOR, size >> 3))
    digit = np.arange(n)
    even = (digit % 2 == 0) & (digit < n - 1)
    if period <= target:  # whole periods; a block's pairs x, x + p have s <= x < s + k
        block = target // period * period
        pieces = ((s, min(s + block, size) - s - p) for s in range(0, size, block))
    elif 2 * p <= target:  # pieces of one period
        block = target // (2 * p) * 2 * p
        pieces = (
            (s, min(s + block, q + period) - s - p) for q in range(0, size, period) for s in range(q, q + period, block)
        )
    else:  # pieces of the run of p cells at each even digit
        block = min(target, p)
        runs = (x for x in range(0, size, p) if even[x // p % n])
        pieces = ((s, min(s + block, x + p) - s) for x in runs for s in range(x, x + p, block))
    run = min(p, block)  # the cells of one digit in a block
    pattern = np.repeat(np.tile(even, -(-block // period))[: block // run], run)
    ok, same, step = np.empty(block, bool), np.empty(block, bool), np.empty(block, np.int8)
    for s, k in pieces:
        if k <= 0:
            continue
        lo, hi, o, up = slice(s, s + k), slice(s + p, s + p + k), ok[:k], step[:k]
        np.bitwise_or(code[lo], code[hi], out=up)
        np.equal(up, 0, out=o)  # both untaken
        o &= pattern[:k]
        if grade is not None:
            o &= np.equal(grade[lo], grade[hi], out=same[:k])
        np.multiply(o.view(np.int8), level, out=up)
        code[lo] += up
        code[hi] -= up


def _steps(cx: CubicalComplex) -> list[int]:
    """step[k]: the id change from a cell of sweep code k to its partner,
    ``pows[k-1]`` for k > 0, ``-pows[-k-1]`` for k < 0 and 0 for k = 0."""
    return [0, *cx.pows, *(-p for p in reversed(cx.pows))]


class TemplateMatching:
    """The production matching of :func:`template_sweep`, per cell and, for
    the ``verify_*`` checks, as one whole-sweep array view.

    Per-cell queries sweep a grid one anchor fiber at a time as they reach
    its fibers, and whole once 1/16 of them are swept: by then the small
    sweeps, about 0.1 ms each, cost about one whole sweep.  An explicit
    complex, whose fibers are often a few cells each, is swept whole on the
    first query, and so is any complex whose whole sweep the array checks
    have found clean; queries then read the whole sweep's codes by slot.
    Pairs never leave a fiber, so the codes are the whole sweep's.  Code k
    maps a cell to ``cell + pows[k-1]`` when k > 0, to ``cell - pows[-k-1]``
    when k < 0 and to itself when k = 0; the pair forms at level |k|.
    Non-members raise :class:`NonMemberCellError`.

    Round one (:func:`cubemorse.morse.template_round`) reads the whole
    sweep's codes (``_whole``), and :func:`cubemorse.morse.morse_boundary`
    counts its flows over them in array passes (:func:`_sweep_graph`).

    Args:
        cx: the cubical complex.
        grade_of: None, or an int array of ``cx.total_ids`` grades indexed
            by id; when given, pairs are restricted to one grade class.
    """

    def __init__(self, cx: CubicalComplex, grade_of=None):
        self.cx = cx
        self._grade_of = grade_of
        self._codes: dict[int, int] = {}  # member id -> sweep code, for the members of swept fibers
        self._step = _steps(cx)
        self._fibers_left = 0 if cx.members is not None else (cx.m + 1) ** cx.d // 16

    @cached_property
    def _whole(self) -> np.ndarray:
        """The codes of the whole :func:`template_sweep`, by slot."""
        return template_sweep(self.cx, self._grade_of)

    def _code(self, cell: int) -> int:
        code = self._codes.get(cell)
        if code is not None:
            return code
        cx = self.cx
        pos = cx._position(cell)
        if pos is None:
            raise NonMemberCellError(f"cell {cell} is not a member")
        if not self._fibers_left:
            return int(self._whole[pos])
        self._fibers_left -= 1
        anchor = cx.anchor(cell)
        base, offs = cx.cell_id(tuple(2 * l for l in anchor)), cx.offsets()
        ids = np.array([base + offs[s] for s in cx.fiber_members(anchor)], dtype=np.int64)
        self._codes.update(zip(ids.tolist(), template_sweep(cx, self._grade_of, ids).tolist()))
        return self._codes[cell]

    def __call__(self, cell: int) -> int:
        return cell + self._step[self._code(cell)]

    @cached_property
    def _clean_sweep(self) -> np.ndarray | None:
        """The codes of the whole :func:`template_sweep`, by slot, when
        :func:`verify_matching` would find nothing wrong with them, else
        None.  The sweep is the one round one runs, over all members.

        The codes must lie in -d..d, but for the slots of no member of a
        grid or dense explicit complex: exactly ``total_ids - cell_count``
        codes lie below -d, all ``_TAKEN`` and none at a member.  Every
        partner ``id + step[code]`` must be a member whose partner is the
        cell again, and every pair must toggle an even digit below 2m of
        its lower cell up to the odd digit of its upper cell.  By the face
        formula, which is the complex's ``dim`` and ``boundary``, the two
        are then face and coface one dimension apart.  The pairs are
        counted in the digit slices of the codes (:func:`_pairs_by_slices`).
        Computed once; when clean, per-cell queries read these codes too.
        """
        cx = self.cx
        try:  # ids beyond int64 raise here too
            code = np.asarray(self._whole)
        except Exception:  # noqa: BLE001 - the per-cell checks report it per cell
            return None
        n = cx.cell_count
        if code.shape != (cx.total_ids if cx._by_id else n,) or code.dtype.kind not in "iu":
            return None
        taken = np.flatnonzero(code < -cx.d)
        if taken.size != code.size - n or (n and code.max() > cx.d):
            return None
        if taken.size and ((code[taken] != _TAKEN).any() or cx._locate(taken)[1].any()):
            return None
        if not _pairs_by_slices(cx, code):
            return None
        self._fibers_left = 0
        return code

    @cached_property
    def _slice_facts(self) -> tuple[bool, bool]:
        """(descends, unstable) of the clean sweep, by one pass over the
        digit slices of its codes (:func:`_flow_facts_by_slices`): whether
        some flow edge runs to a lower id, and whether some edge is
        unstable.  Computed once for both :func:`verify_acyclic` and
        :func:`verify_stable`."""
        return _flow_facts_by_slices(self.cx, self._clean_sweep)

    @cached_property
    def _flows(self):
        """The flow edges of the clean sweep, over all lower cells as nodes,
        numbered by slot, built once, for :func:`verify_acyclic` to peel when
        some edge descends: by digit slices of the sweep
        (:func:`_grid_flow_edges`) when the slots are the ids, else by the
        :func:`_flow_graph` walk from all lower cells.  Both give the same
        arrays.  An edge runs from lower cell q0, with partner k0, to each
        other lower cell q1 among the faces of k0.

        Returns:
            (n, src, dst): the number of lower cells and the edges, src
            ascending, faces in boundary order.
        """
        cx, code = self.cx, self._clean_sweep
        if cx._by_id:
            src, dst = _grid_flow_edges(cx, code)
        else:
            _, (src, dst), _ = _flow_graph(code, np.flatnonzero(code > 0), _sweep_faces(cx, code))
        return int(np.count_nonzero(code > 0)), src, dst

    def provenance(self, cell: int) -> int | None:
        """1-based level at which the cell pairs; None if unmatched."""
        return abs(self._code(cell)) or None

    def entries(self) -> list[Entry]:
        """The underlying elementary pairings as callables on cell ids."""
        cx = self.cx
        if self._grade_of is None:
            return [partial(alpha, i, cx=cx) for i in range(1, cx.d + 1)]
        return [partial(beta, i, cx=cx, grade_of=self._grade_of.__getitem__) for i in range(1, cx.d + 1)]

    def _own_toggles(self, entries: Sequence[Entry]) -> bool:
        """Whether ``entries`` are exactly what :meth:`entries` returns on an
        ungraded complex: ``alpha`` of levels 1..d on this complex."""
        return self._grade_of is None and len(entries) == self.cx.d and all(
            isinstance(e, partial) and e.func is alpha and e.args == (i,) and e.keywords == {"cx": self.cx}
            for i, e in enumerate(entries, start=1)
        )


def _classify(cell: int, m: int, cx: CellComplexLike) -> str:
    """'A' for fixed, 'Q' for lower (paired upward), 'K' for upper cells,
    given the cell's partner ``m``.

    Raises TrichotomyError when the partner is not an incident cell one
    dimension away.
    """
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


def verify_matching(cx: CellComplexLike, oracle: Callable[[int], int]) -> MatchingReport:
    """Check that the oracle is an involution pairing incident cells.

    Each cell must be fixed or matched to an incident cell one dimension
    away, with the partner pointing back.  Refuses more than
    ``VALIDATE_LIMIT`` cells.
    """
    _refuse_above("verify_matching", cx, VALIDATE_LIMIT)
    view = _array_view(cx, oracle)
    if view is not None:
        code, n = view._clean_sweep, cx.cell_count
        n_lower = (int(np.count_nonzero(code)) - (code.size - n)) // 2  # less the _TAKENs; a pair's codes are +t, -t
        return MatchingReport(n, n - 2 * n_lower, n_lower, n_lower)
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
        try:
            back = oracle(m)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            rep.violations.append(("oracle-error", c, f"partner {m}: {exc}"))
            continue
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


def _pairs_by_slices(cx: CubicalComplex, code: np.ndarray) -> bool:
    """Whether the codes of a sweep by slot, in -d..d at the members and
    ``_TAKEN`` at the slots of no member, pair as :func:`template_sweep`
    does: for each level t, every cell of code +t has an even digit t - 1
    below 2m and code -t at that digit plus one, and every cell of code -t
    is such a partner.  By the digit slices of axis t - 1
    (:meth:`CubicalComplex._face_slices`), the pairs of a -t cell at an odd
    digit with a +t cell at its lower face are counted.  No member lies in
    two of them, and each holds two members of nonzero code, so they hold
    every such member exactly when they number half of them."""
    pairs = 0
    for i, odd, lo, _ in cx._face_slices(code, 0, hi=False):
        paired = lo == i + 1
        paired &= odd == -(i + 1)
        pairs += np.count_nonzero(paired)
    return 2 * pairs == np.count_nonzero(code) - (code.size - cx.cell_count)  # less the _TAKENs


def _flow_facts_by_slices(cx: CubicalComplex, code: np.ndarray) -> tuple[bool, bool]:
    """(descends, unstable) of the flow edges of a clean sweep, from the
    digit slices of its codes (:meth:`CubicalComplex._face_slices`) with no
    edge built: whether some edge runs to a lower id, and whether some edge
    is unstable: whether a toggle of a level below both pairs sends q1 to
    k0, for lower cells q0, q1 with q1 a face of q0's partner k0.

    An edge runs from q0 to a lower face q1 = k - pows[i] or k + pows[i] of
    q0's partner k, an upper cell in the odd slice of axis i whose code -t0
    gives q0 = k - pows[t0 - 1].  The + face ascends by id.  The - face, in
    the slice ``f`` below, is q0 itself when t0 = i + 1 and descends when
    t0 < i + 1; the edge to it is unstable when i + 1 < min(t0, code(q1)),
    and the + face's never is.  So with ``k`` the odd slice's codes, an
    edge descends where ``-(i+1) < k < 0`` and ``f > 0``, and is unstable
    where ``-d <= k < -(i+1)`` and ``f > i+1``.  Each test holds two bool
    masks of one odd slice, and stops once its fact is found."""
    descends = unstable = False
    for i, k, f, _ in cx._face_slices(code, 0, hi=False):
        if not descends:
            hit = k > -(i + 1)
            hit &= k < 0
            hit &= f > 0
            descends = bool(hit.any())
        if not unstable:
            hit = k >= -cx.d
            hit &= k < -(i + 1)
            hit &= f > i + 1
            unstable = bool(hit.any())
    return descends, unstable


def _grid_flow_edges(cx: CubicalComplex, grid: np.ndarray):
    """The node edges of :func:`_flow_graph` from all lower cells of a clean
    sweep by id, by digit slices of its codes: nodes are the lower cells
    by slot, and an edge runs from lower cell q0 to each other lower face
    of its partner k0.  For axis i, an upper cell k in the odd slice of i
    has the faces k - pows[i] and k + pows[i] in the slices on either side,
    the first of them q0 itself when k pairs along i.  The faces of a cell
    ascend by id in :meth:`CubicalComplex._face_arrays` order, and nodes by
    slot, so sorting the edges by (src, dst) gives the walk's arrays.

    Returns:
        (src, dst): the edges, src ascending and each node's faces in
        boundary order, in the walk's index dtype.
    """
    shape, d = (cx.base,) * cx.d, cx.d
    cells = grid.reshape(shape, order="F")
    lower = grid > 0
    low = lower.reshape(shape, order="F")
    hit = np.zeros(grid.size, dtype=bool)  # the upper cells with a lower face on one side of one axis
    marks = hit.reshape(shape, order="F")
    step = np.array([0, *cx.pows], dtype=np.int64)  # per level
    tails, heads = [], []
    for i, (odd, lo, hi) in enumerate(_digit_slices(cx.m, d)):
        k = cells[odd]
        upper = (k < 0) & (k >= -d)  # not a non-member
        for face, p in ((lo, -cx.pows[i]), (hi, cx.pows[i])):
            edge = upper & low[face]
            if p < 0:
                edge &= k != -1 - i  # else the face is k's partner
            marks[odd] = edge
            at = np.flatnonzero(hit)
            hit[at] = False
            tails.append(at - step[-grid[at]])
            heads.append(at + p)
    n = max(1, np.count_nonzero(lower))
    rank = _mask_rank(lower)
    key = rank(np.concatenate(tails)).astype(np.int64) * n + rank(np.concatenate(heads))
    key.sort()
    idx = _index_dtype(grid.size)
    return tuple(part.astype(idx) for part in np.divmod(key, n))


def _flow_graph(code: np.ndarray, front: np.ndarray, faces_of):
    """The flow graph of a matching over the slots of its codes, walked
    breadth first from the slots ``front``.  ``code[i]`` is positive for a
    lower cell, 0 for a fixed one and negative for an upper one, and
    ``faces_of(chunk)`` gives (owner, pos): the slots of the member
    faces of the cells that the nodes ``chunk`` step into (a lower cell's
    partner, a fixed cell itself), each with the index in ``chunk`` of its
    node.  One pass per frontier takes its nodes ``_WALK_CHUNK`` at a time,
    so the transient face arrays stay bounded however wide it grows.

    A lower face other than the node itself is a node, visited in the next
    frontier if new; a fixed face ends the flow; an upper face has no flow.
    Nodes are numbered in visit order, ``front`` first, each later frontier
    ascending by slot.  Slots, nodes and edges are int32 while the slots
    fit (:func:`_index_dtype`).  Memory beyond the edges is one byte per
    slot, the mask of visited slots, whose rank (:func:`_mask_rank`, given
    the visited slots, so that a walk of few nodes makes no pass over all
    slots) numbers the nodes at the end.

    Returns:
        (at, (src, dst), (fsrc, fat)): the slot of each node; the edges
        from nodes to the nodes of their lower faces; and the edges from
        nodes to the slots of their fixed faces.  Both edge lists run
        src ascending, faces in ``faces_of`` order.
    """
    idx = _index_dtype(code.size)
    seen = np.zeros(code.size, dtype=bool)  # the slots of the nodes
    seen[front] = True
    visited, done = [front], 0
    src, at = [np.zeros(0, dtype=idx)], [np.zeros(0, dtype=idx)]  # edges to faces
    while front.size:
        first = len(at)
        for lo in range(0, front.size, _WALK_CHUNK):
            chunk = front[lo:lo + _WALK_CHUNK]
            owner, pos = faces_of(chunk)
            hit = (pos != chunk[owner]) & (code[pos] >= 0)
            src.append((owner[hit] + done).astype(idx))
            at.append(pos[hit].astype(idx, copy=False))
            done += chunk.size
        reached = np.concatenate(at[first:])
        reached = reached[code[reached] > 0]
        front = _distinct(reached[~seen[reached]])
        seen[front] = True
        visited.append(front)
    src, at, order = np.concatenate(src), np.concatenate(at), np.concatenate(visited)
    low = code[at] > 0
    rank = _mask_rank(seen, np.sort(order))
    node = np.empty(order.size, dtype=idx)  # rank of a node's slot -> node
    node[rank(order)] = np.arange(order.size)
    return order, (src[low], node[rank(at[low])]), (src[~low], at[~low])


def _sweep_faces(cx: CubicalComplex, code: np.ndarray):
    """The ``faces_of`` of :func:`_flow_graph` for a sweep's codes: the node
    at slot i steps into ``cx._ids_at(i) + step[code[i]]``, whose faces
    :meth:`CubicalComplex._face_arrays` lists and ``cx._locate`` finds."""
    step = np.array(_steps(cx), dtype=np.int64)

    def faces_of(chunk):
        faces, owner, _ = cx._face_arrays(cx._ids_at(chunk) + step[code[chunk]])
        pos, hit = cx._locate(faces)
        return owner[hit], pos[hit]

    return faces_of


def _mask_rank(mask: np.ndarray, at: np.ndarray | None = None):
    """``rank(pos)``: the index of each set position ``pos`` of a bool mask
    in ``np.flatnonzero(mask)``, with no sort and no search.  The mask's own
    bytes take the running count of set entries within each block of 255
    (at the set entries alone when they are few), and one prefix count per
    block adds the set entries of the blocks before it.  A caller that holds
    the set positions passes them ascending as ``at``, so that few set
    entries cost no pass over the whole mask."""
    run = mask.view(np.uint8)
    before = np.zeros(run.size // 255 + 2, dtype=_index_dtype(run.size))  # per block, then one spare
    if at is None and 16 * np.count_nonzero(mask) < run.size:
        at = np.flatnonzero(mask)
    if at is not None and 16 * at.size < run.size:
        block = at // 255
        np.cumsum(np.bincount(block, minlength=before.size - 1), out=before[1:])
        run[at] = np.arange(1, at.size + 1) - before[block]
    else:
        whole = run.size - run.size % 255
        blocks = run[:whole].reshape(-1, 255)
        np.cumsum(blocks, axis=1, dtype=np.uint8, out=blocks)
        np.cumsum(run[whole:], dtype=np.uint8, out=run[whole:])
        np.cumsum(blocks[:, -1], dtype=before.dtype, out=before[1:-1])
    return lambda pos: before[pos // 255] + run[pos] - 1


def _layers(n: int, src: np.ndarray, dst: np.ndarray):
    """Kahn's topological peel of the graph on nodes 0..n-1 with edges
    src -> dst, src ascending, one layer at a time: yields, ascending, the
    nodes whose in-edges all come from earlier layers.  Every node is
    yielded exactly when the graph has no directed cycle.  Each layer sorts
    the out-edges of the last one and subtracts each target's run length
    from its in-degree."""
    indeg = np.bincount(dst, minlength=n)
    start = _row_starts(n, src)
    frontier = np.flatnonzero(indeg == 0)
    while frontier.size:
        yield frontier
        out, count = _distinct(dst[_rows(start, frontier)], counts=True)
        indeg[out] -= count
        frontier = out[indeg[out] == 0]


def _peel(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """True when the graph of :func:`_layers` has no directed cycle."""
    return sum(layer.size for layer in _layers(n, src, dst)) == n


def _flow_rows(n: int, sources: np.ndarray, src: np.ndarray, dst: np.ndarray,
               fsrc: np.ndarray, fat: np.ndarray):
    """The flow rows of the nodes ``sources`` of a flow graph on nodes
    0..n-1 with edges ``src -> dst`` between nodes and ``fsrc -> fat`` from
    nodes to columns, both src ascending: the row of a node is its columns
    plus the rows of its successors, mod 2.

    A *chain node*, one other than the sources with exactly one successor
    and no column, has its successor's row.  Pointer jumping
    (``end = end[end]``) sends every chain node to the end of its chain, and
    the edges into chain nodes are redirected there, so the chains leave
    the graph.  A chain node that reaches no end lies on, or leads into, a
    cycle of chain nodes and stays.  A Kahn peel from the sinks of what is
    left (:func:`_layers`) then fills the rows one layer at a time into a
    CSR in peel order.

    Returns:
        (stuck, indptr, cols): the mask of the nodes that reach a cycle,
        chain nodes through their chain end; and the rows of ``sources`` as
        a CSR, columns ascending, the rows of stuck sources empty.
    """
    start = _row_starts(n, src)
    ncol = int(fat.max()) + 1 if fat.size else 1
    chain = (np.diff(start) == 1) & (np.bincount(fsrc, minlength=n) == 0)
    chain[sources] = False
    end = np.arange(n, dtype=_index_dtype(n))
    live = np.flatnonzero(chain)
    end[live] = dst[start[live]]
    for _ in range(n.bit_length() + 1):  # chains are shorter than 2**that
        live = live[chain[end[live]]]
        if not live.size:
            break
        end[live] = end[end[live]]
    chain[live] = False  # never ended: on or into a cycle of chain nodes, all kept
    keep = ~chain
    new = np.cumsum(keep, dtype=end.dtype)  # node -> node of the contracted graph, after -1
    new -= 1
    m = int(keep.sum())
    e = keep[src]
    src, dst, fsrc = new[src[e]], new[end[dst[e]]], new[fsrc]
    del start, chain, keep, e  # freed before the peel, the peak of round one

    fix_start, succ_start = _row_starts(m, fsrc), _row_starts(m, src)
    indptr = np.zeros(m + 1, dtype=np.int64)  # flow rows in peel order
    slot = np.full(m, -1, dtype=np.int64)  # node -> its flow row
    data = np.empty(max(m, 16), dtype=_index_dtype(ncol))  # columns
    done = 0
    order = np.argsort(dst)
    layers = _layers(m, dst[order], src[order])  # sinks first
    del order  # the peel holds the sorted copies
    for layer in layers:
        e, s = _rows(fix_start, layer), _rows(succ_start, layer)
        v = slot[dst[s]]
        keys = np.concatenate([
            fsrc[e].astype(np.int64) * ncol + fat[e],
            np.repeat(src[s].astype(np.int64), indptr[v + 1] - indptr[v]) * ncol + data[_rows(indptr, v)],
        ])
        keys, count = _distinct(keys, counts=True)
        keys = keys[count % 2 == 1]
        slot[layer] = np.arange(done, done + layer.size)
        ends = indptr[done] + _row_starts(layer.size, slot[keys // ncol] - done)[1:]
        indptr[done + 1:done + layer.size + 1] = ends
        if ends[-1] > data.size:
            data = np.concatenate([data, np.empty(ends[-1], dtype=data.dtype)])
        data[indptr[done]:ends[-1]] = keys % ncol
        done += layer.size
    stuck = slot < 0
    slot[stuck] = done  # one empty row for every stuck node
    indptr[done + 1:] = indptr[done]
    rows = slot[new[sources]]
    count = indptr[rows + 1] - indptr[rows]
    return stuck[new[end]], np.concatenate(([0], np.cumsum(count))), data[_rows(indptr, rows)]


def _sweep_graph(mate: TemplateMatching, fixed: np.ndarray, sources: np.ndarray):
    """The :func:`_flow_graph` of a matching's whole sweep from the fixed
    cells ``fixed[sources]``, for :func:`cubemorse.morse.morse_boundary`,
    ``fixed`` the ascending ids of all the sweep's fixed cells: (node ids,
    node edges, edges to the columns of fixed faces), a fixed face's column
    its index in ``fixed`` (:func:`_mask_rank` over their slots)."""
    cx, code = mate.cx, mate._whole
    pos = cx._locate(fixed)[0]
    at, edges, (fsrc, fat) = _flow_graph(code, pos[sources], _sweep_faces(cx, code))
    mask = np.zeros(code.size, dtype=bool)
    mask[pos] = True
    return cx._ids_at(at), edges, (fsrc, _mask_rank(mask, pos)(fat))


def _lower_cells(cx, oracle):
    """Lower cell -> its partner, for the per-cell flow checks.  An oracle
    that raises on a cell ends the check in an :class:`IntegrityError`
    naming the cell, which the command line reports with exit code 2."""
    out = {}
    for c in cx.cells():
        try:
            m = oracle(c)
        except Exception as exc:  # noqa: BLE001 - reported as the check's failure
            raise IntegrityError(f"matching oracle fails on cell {c}: {exc}") from exc
        if m != c and out.get(m) != c and cx.dim(m) == cx.dim(c) + 1:
            out[c] = m
    return out


def verify_acyclic(cx: CellComplexLike, oracle: Callable[[int], int]) -> bool:
    """True when the flow relation on lower cells has no directed cycle.

    The relation steps from a lower cell q to every other lower cell in the
    boundary of q's partner.  A clean :class:`TemplateMatching` numbers
    its lower cells by slot, in id order, so it is acyclic at once when no
    step lowers the id, which the digit slices of its sweep tell
    (``TemplateMatching._slice_facts``); else a Kahn peel (:func:`_peel`)
    of the flow graph of its sweep (``TemplateMatching._flows``) decides.
    Any other oracle is peeled over the edges found by walking the cells.
    Refuses more than ``FLOW_CHECK_LIMIT`` cells.
    """
    _refuse_above("verify_acyclic", cx, FLOW_CHECK_LIMIT)
    view = _array_view(cx, oracle)
    if view is not None:
        return not view._slice_facts[0] or _peel(*view._flows)
    lower = _lower_cells(cx, oracle)
    node = {q: i for i, q in enumerate(lower)}
    src, dst = [], []
    for i, (q, k) in enumerate(lower.items()):
        for f in cx.boundary(k):
            j = node.get(f)
            if j is not None and j != i:
                src.append(i)
                dst.append(j)
    return _peel(len(node), np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp))


def verify_stable(
    cx: CellComplexLike,
    oracle: Callable[[int], int],
    entries: Sequence[Entry],
    provenance: Callable[[int], int | None] | None = None,
) -> bool:
    """Check pair stability of a matching built from the given entries.

    For lower cells q0, q1 with q1 in the boundary of q0's partner, let j
    and j' be the entry levels that formed the two pairs.  The pair is
    unstable when some earlier entry i < min(j, j') would have sent q1 to
    q0's partner; an aggregated matching never produces this.

    A clean ungraded :class:`TemplateMatching`, passed with its own
    :meth:`~TemplateMatching.entries` and provenance, is checked by the
    digit slices of its sweep (:func:`_flow_facts_by_slices`), with no
    flow edge built; any other input walks the cells.  Refuses more than
    ``FLOW_CHECK_LIMIT`` cells.

    Args:
        provenance: level lookup for matched cells; defaults to
            ``oracle.provenance``.
    """
    _refuse_above("verify_stable", cx, FLOW_CHECK_LIMIT)
    view = _array_view(cx, oracle)
    if view is not None and provenance in (None, view.provenance) and view._own_toggles(entries):
        return not view._slice_facts[1]
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
