"""Morse reduction: collapse a matched complex onto its unmatched cells.

Given an acyclic matching, the reduced complex has the fixed cells as its
cells and, over GF(2), a boundary that counts alternating paths: a path
steps from a face of a cell into the partner of a lower cell and onward.
:func:`morse_boundary` performs the count and returns it as a CSR over the
fixed cells, the storage of :class:`~cubemorse.core.ExplicitComplex`.
:func:`template_round` runs round one of a cubical complex under the
template matching (:func:`cubemorse.matching.template_sweep`).  Later
rounds read the CSR: :func:`generic_round` matches the cells that touch an
entry by coreductions and, when none is left, free-face collapses, so a
round does not fill the next boundary in, and hands the matching over as
partner positions, which :func:`reduce_round` reads as they are to walk
the flow graph over the CSR.  :func:`homology` and
:func:`connection_matrix` share one reduction loop: homology is the
connection matrix over a one-element poset, so it runs the loop ungraded
and stops at a zero boundary, while :func:`connection_matrix` runs it
graded and stops once no boundary entry joins equal grades.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (
    AcyclicityError,
    BoundaryRows,
    ExplicitComplex,
    IntegrityError,
    _distinct,
    _id_array,
    _row_starts,
    _rows,
)
from .cubical import CubicalComplex
from .matching import TemplateMatching, _flow_graph, _flow_rows, _sweep_graph


def morse_boundary(
    criticals: Iterable[int],
    boundary_of: Callable[[int], Iterable[int]],
    mate_of: Callable[[int], int],
    dim_of: Callable[[int], int],
    dims: np.ndarray | None = None,
) -> BoundaryRows:
    """GF(2) boundary of the reduced complex on the given fixed cells, as
    :class:`~cubemorse.core.BoundaryRows` over them, ascending.

    A reduced boundary entry joins dimensions k and k - 1 only, so a fixed
    cell of dimension k is skipped when no fixed cell has dimension k - 1.
    Given a :class:`~cubemorse.matching.TemplateMatching`, whose fixed cells
    must be ``criticals``, the flow graph is built in array passes over its
    sweep (:func:`cubemorse.matching._sweep_graph`); any other ``mate_of``
    is walked cell by cell (:func:`_cell_graph`).  :func:`_reduced_rows`
    sums the rows.

    ``mate_of`` must return the partner of every lower cell (one paired with
    a coface) and may map any other cell, upper cells included, to itself;
    ``dim_of`` is only asked about fixed cells and cells ``mate_of`` moves,
    and not about the fixed cells when ``criticals`` is an ascending int
    array given with the array ``dims`` of their dimensions.
    """
    ids = criticals if isinstance(criticals, np.ndarray) else _id_array(sorted(criticals))
    if dims is None:
        dims = np.array([dim_of(c) for c in ids.tolist()], dtype=np.int64)
    sources = np.flatnonzero(np.isin(dims - 1, dims))
    if not sources.size:
        return BoundaryRows(ids, np.zeros(ids.size + 1, dtype=np.int64), np.zeros(0, dtype=np.intp))
    if type(mate_of) is TemplateMatching:
        nodes, edges, fixed = _sweep_graph(mate_of, ids, sources)
    else:
        nodes, edges, fixed = _cell_graph(ids.tolist(), ids[sources].tolist(), boundary_of, mate_of, dim_of)
    return _reduced_rows(ids, sources, nodes, edges, fixed)


def _reduced_rows(ids, sources, nodes, edges, fixed) -> BoundaryRows:
    """The flow rows of the nodes 0..s-1 of a flow graph, the fixed cells at
    the positions ``sources`` among ``ids``, as rows over ``ids``: summed
    mod 2 by :func:`cubemorse.matching._flow_rows`.  A flow that reaches a
    cycle means the matching is cyclic (:class:`AcyclicityError`, naming the
    smallest lower cell, of the ids ``nodes``, that reaches one)."""
    s = sources.size
    stuck, indptr, cols = _flow_rows(len(nodes), np.arange(s), *edges, *fixed)
    if stuck.any():  # sources have no in-edges, so a cycle holds lower cells only
        lower = min(int(nodes[i]) for i in np.flatnonzero(stuck[s:]) + s)
        raise AcyclicityError(f"flow from lower cell {lower} runs into a cycle: matching is cyclic")
    count = np.zeros(ids.size, dtype=np.int64)
    count[sources] = np.diff(indptr)
    return BoundaryRows(ids, np.concatenate(([0], np.cumsum(count))), cols)


_NEW = object()  # not yet reached by :func:`_cell_graph`


def _cell_graph(order, sources, boundary_of, mate_of, dim_of):
    """The flow graph of :func:`morse_boundary` walked cell by cell,
    breadth first from ``sources``, as :func:`cubemorse.matching._flow_graph`
    walks it over slots.  A fixed face is the column of its rank in the
    ascending ``order``; a face ``mate_of`` pairs with a coface one
    dimension up is a lower cell, a node.  Each reached cell costs one
    ``mate_of`` and two ``dim_of`` calls, each node one ``boundary_of`` call.

    Returns:
        (nodes, (src, dst), (fsrc, fcol)): the node cells in visit order,
        sources first; the edges from nodes to the nodes of their lower
        faces; and the edges from nodes to the columns of their fixed faces,
        both src ascending.
    """
    # a fixed cell -> ~its column, a node -> its index, a cell with no flow -> None
    look = dict(zip(order, range(-1, -len(order) - 1, -1)))
    get = look.get
    nodes, ups = list(sources), list(sources)  # node cells; the cells whose faces they step to
    src, dst, fsrc, fcol = [], [], [], []
    for i, k in enumerate(ups):  # ups grows as the walk reaches new lower cells
        for f in boundary_of(k):
            got = get(f, _NEW)
            if got is _NEW:
                m = mate_of(f)
                if m != f and dim_of(m) == dim_of(f) + 1:
                    got = look[f] = len(nodes)
                    nodes.append(f)
                    ups.append(m)
                else:
                    look[f] = None
                    continue
            elif got is None or got == i:  # no flow, or the node itself
                continue
            if got >= 0:
                src.append(i)
                dst.append(got)
            else:
                fsrc.append(i)
                fcol.append(~got)
    src, dst, fsrc, fcol = (np.array(x, dtype=np.intp) for x in (src, dst, fsrc, fcol))
    return nodes, (src, dst), (fsrc, fcol)


_SCAN = 1 << 20  # slots per piece of round one's scan for fixed cells, and at most 1/8 of them


def template_round(cx: CubicalComplex, grade_of=None) -> ExplicitComplex:
    """One reduction round of a cubical complex under the template matching.

    The whole :func:`cubemorse.matching.template_sweep` gives a code per
    slot; the members it leaves fixed, code 0, are the critical cells,
    whose ids come from their slots (``CubicalComplex._ids_at``, the slots
    themselves on a grid or dense explicit complex) and dimensions from one
    odd-digit count, and :func:`morse_boundary` counts the flows over the
    same codes.
    ``grade_of`` is None or an int array of ``cx.total_ids`` grades by id.
    """
    mate = TemplateMatching(cx, grade_of)
    code = mate._whole  # scanned in pieces: no bool array over all slots at the round's peak
    piece = max(1, min(_SCAN, code.size >> 3))
    at = [np.flatnonzero(code[s : s + piece] == 0) + s for s in range(0, code.size, piece)]
    fixed = cx._ids_at(np.concatenate([np.empty(0, np.intp), *at])).astype(np.int64, copy=False)
    dims = cx._dims(fixed)
    rows = morse_boundary(fixed, cx._boundary_raw, mate, cx.dim_of, dims)
    return _collapse(rows, dims, None if grade_of is None else grade_of[fixed])


def _collapse(rows: BoundaryRows, dims: np.ndarray, grades: np.ndarray | None) -> ExplicitComplex:
    """The tail of every round: the reduced complex of the rows over the
    fixed cells, with their dimensions (and grades), and d^2 = 0 checked."""
    out = ExplicitComplex.of_rows(rows, dims, grades)
    out.check_dd_zero()
    return out


def _same_grade(E: ExplicitComplex, graded: bool) -> tuple[np.ndarray, np.ndarray]:
    """(cells, faces): the positions of the boundary entries that join equal
    grades, all of them when ungraded, in row order."""
    cells, faces = E.rows.owners(), E.rows.cols
    if graded:
        same = E._grade[cells] == E._grade[faces]
        cells, faces = cells[same], faces[same]
    return cells, faces


def generic_round(E: ExplicitComplex, graded: bool = False) -> np.ndarray:
    """Deterministic acyclic matching on an explicit complex by coreductions
    and collapses.

    Faces and cofaces count only the remaining cells (of the same grade, if
    graded).  Each step removes, in this order of preference:

    - a *coreduction pair*: the smallest cell k with exactly one face q,
      matched with q;
    - a *collapse pair*: the smallest cell q with exactly one coface k,
      matched with k;
    - the smallest cell with no faces, set aside as fixed.

    Smallest id wins every choice, so the matching is reproducible.
    Collapses keep the next round from filling in: a coreduction (q, k) adds
    k's row to every other coface of q, while a free face q adds nothing.

    The matching is acyclic.  Take a V-path cycle and its earliest removed
    pair (q0, k0).  It was not a coreduction, since k0 still had the cycle's
    next lower face; nor a collapse, since q0 was still a face of the
    previous pair's upper cell.

    Only the cells that touch an entry (of equal grades, if graded) take
    part, by their ranks, which sort as the ids do: face lists from the CSR,
    coface lists from its transpose, and a removed cell's face count -1.

    Returns:
        the matching as the int array ``mate`` over E's positions: the
        position of each cell's partner, a fixed cell's own.
    """
    cells, faces = _same_grade(E, graded)
    touch = np.zeros(E.cell_count, dtype=bool)
    touch[cells] = touch[faces] = True
    act = np.flatnonzero(touch)
    n = act.size
    rank = np.cumsum(touch) - 1
    cells, faces = rank[cells], rank[faces]
    nf, nc = np.bincount(cells, minlength=n), np.bincount(faces, minlength=n)
    # tuples, which the garbage collector stops tracking; it walks lists at
    # every collection (at m = 100 this call takes 1.19 s with lists, 0.99 s)
    fs, ff = _row_starts(n, cells).tolist(), faces.tolist()
    faces_of = [tuple(ff[lo:hi]) for lo, hi in zip(fs, fs[1:])]
    keys = np.sort(faces * n + cells)  # the transpose, by face, then cell
    cs, cf = _row_starts(n, keys // n).tolist(), (keys % n).tolist()
    cofaces = [tuple(cf[lo:hi]) for lo, hi in zip(cs, cs[1:])]

    # ascending lists are already heaps; every active cell has a face or a coface
    core_heap = np.flatnonzero(nf == 1).tolist()
    coll_heap = np.flatnonzero(nc == 1).tolist()
    free_heap = np.flatnonzero(nf == 0).tolist()
    nf, nc = nf.tolist(), nc.tolist()
    push, pop = heapq.heappush, heapq.heappop
    partner = list(range(n))

    remaining = n
    while remaining:
        k = q = -1
        while core_heap:
            cand = pop(core_heap)
            if nf[cand] == 1:
                k = cand
                q = next(f for f in faces_of[k] if nf[f] >= 0)
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
            for f in faces_of[x]:
                if nf[f] >= 0:
                    nc[f] -= 1
                    if nc[f] == 1:
                        push(coll_heap, f)
    mate = np.arange(E.cell_count)
    mate[act] = act[partner]
    return mate


def reduce_round(E: ExplicitComplex, mate: np.ndarray) -> ExplicitComplex:
    """Collapse an explicit complex along a matching given as the int array
    ``mate`` of :func:`generic_round`, an involution of E's positions, over
    the :func:`cubemorse.matching._flow_graph` of its CSR: a node steps into
    the row of its partner, or its own for a fixed cell."""
    rows, dim = E.rows, E._dim
    ptr = rows.indptr
    pos = np.arange(E.cell_count)
    if not (mate.shape == pos.shape and ((mate >= 0) & (mate < pos.size)).all() and (mate[mate] == pos).all()):
        raise IntegrityError("the matching is not an involution of the cell positions")
    fixed = mate == pos
    code = (dim[mate] == dim + 1).astype(np.int8)  # 1 for a lower cell
    code[~fixed & (code == 0)] = -1
    keep = np.flatnonzero(fixed)
    sources = np.flatnonzero(np.isin(dim[keep] - 1, dim[keep]))

    def faces_of(chunk):
        up = mate[chunk]
        return np.repeat(np.arange(chunk.size), ptr[up + 1] - ptr[up]), rows.cols[_rows(ptr, up)]

    at, edges, (fsrc, fat) = _flow_graph(code, keep[sources], faces_of)
    out = _reduced_rows(rows.ids[keep], sources, rows.ids[at], edges, (fsrc, np.cumsum(fixed)[fat] - 1))
    return _collapse(out, dim[keep], None if E._grade is None else E._grade[keep])


@dataclass
class HomologyResult:
    betti: list[int]
    rounds: int
    round_sizes: list[int]
    complex: ExplicitComplex


@dataclass
class ConleyResult:
    complex: ExplicitComplex
    tower: int
    round_sizes: list[int]
    counts: dict[tuple[int, int], int]  # (grade, dim) -> cells
    scc_count: int | None = None


def _input_euler(cx: CubicalComplex) -> int:
    return sum(-n if k % 2 else n for k, n in enumerate(cx.counts_by_dim()))


def _reduce(
    cx: CubicalComplex, grade_of, check: Callable[[ExplicitComplex], None]
) -> tuple[ExplicitComplex, list[int]]:
    """The reduction loop of :func:`homology` and :func:`connection_matrix`.

    Round one is :func:`template_round`; later rounds reduce along
    :func:`generic_round` until no boundary entry joins equal grades (an
    ungraded complex is one grade).  ``check`` runs after every round.
    Returns the final complex and the cell count after each round.
    """
    E = template_round(cx, grade_of)
    check(E)
    sizes = [E.cell_count]
    graded = E._grade is not None
    while _same_grade(E, graded)[0].size:
        nxt = reduce_round(E, generic_round(E, graded=graded))
        if nxt.cell_count >= E.cell_count:
            raise IntegrityError("reduction round made no progress")
        check(nxt)
        sizes.append(nxt.cell_count)
        E = nxt
    return E, sizes


def homology(cx: CubicalComplex) -> HomologyResult:
    """Betti numbers over GF(2) by iterated Morse reduction.

    Runs the reduction loop ungraded, i.e. the connection matrix over a
    one-element poset: the final boundary is zero and the cell counts per
    dimension are the Betti numbers.  The Euler characteristic is asserted
    after every round.
    """
    euler_in = _input_euler(cx)

    def check(E: ExplicitComplex) -> None:
        if E.euler() != euler_in:
            raise IntegrityError(
                f"reduction round changed the Euler characteristic ({euler_in} -> {E.euler()})"
            )

    E, sizes = _reduce(cx, None, check)
    betti = E.counts_by_dim()
    betti += [0] * (cx.max_cell_dim + 1 - len(betti))
    return HomologyResult(betti=betti, rounds=len(sizes), round_sizes=sizes, complex=E)


def _pair_keys(a: np.ndarray, b: np.ndarray):
    """One int64 key per pair (a[i], b[i]) of ints, ordered as the pairs
    are, and the function that maps an array of keys back to the pairs, as
    two int64 arrays."""
    lo = int(min(a.min(), b.min())) if a.size else 0
    span = int(max(a.max(), b.max())) - lo + 1 if a.size else 1
    keys = (a.astype(np.int64) - lo) * span + (b.astype(np.int64) - lo)
    return keys, lambda k: (k // span + lo, k % span + lo)


def _check_filtered(E: ExplicitComplex, poset) -> None:
    """Every boundary entry between distinct grades descends the poset,
    asked in one ``leq`` call over the distinct (face grade, cell grade)
    pairs; a failure names the first entry of a failing pair in row order."""
    cells, faces = E.rows.owners(), E.rows.cols
    g = E._grade
    cross = np.flatnonzero(g[faces] != g[cells])
    keys, pairs = _pair_keys(g[faces[cross]], g[cells[cross]])
    distinct = _distinct(keys)
    bad = distinct[~np.asarray(poset.leq(*pairs(distinct)), dtype=bool)]
    if bad.size:
        e = cross[np.isin(keys, bad).argmax()]
        f, c = E.rows.ids[[faces[e], cells[e]]].tolist()
        raise IntegrityError(
            f"boundary entry ({f}, {c}) does not descend the grading "
            f"({int(g[faces[e]])} vs {int(g[cells[e]])})"
        )


def connection_matrix(
    cx: CubicalComplex,
    grade_of,
    poset=None,
    input_counts: dict[tuple[int, int], int] | None = None,
) -> ConleyResult:
    """Graded Morse reduction until no boundary entry joins equal grades.

    Runs the reduction loop graded: round one restricts the template
    matching to the grade classes of ``grade_of``, an int array of
    ``cx.total_ids`` grades indexed by id; later rounds use the graded
    coreduction matching.  After every round the boundary must descend the
    grading (checked against ``poset`` when given) and the per-grade Euler
    characteristics must match ``input_counts`` when given.  The tower
    height is the number of rounds executed.
    """

    want = None if input_counts is None else _euler_by_grade(input_counts)

    def check(E: ExplicitComplex) -> None:
        if want is not None:
            _check_graded_euler(E, want)
        if poset is not None:
            _check_filtered(E, poset)

    E, sizes = _reduce(cx, grade_of, check)
    keys, pairs = _pair_keys(E._grade, E._dim)
    keys, n = _distinct(keys, counts=True)
    grade, dim = pairs(keys)
    counts = dict(zip(zip(grade.tolist(), dim.tolist()), n.tolist()))
    scc_count = getattr(poset, "n", None)
    return ConleyResult(
        complex=E, tower=len(sizes), round_sizes=sizes, counts=counts, scc_count=scc_count
    )


def _euler_by_grade(input_counts: dict[tuple[int, int], int]) -> dict[int, int]:
    """grade -> Euler characteristic of a (grade, dimension) cell tally."""
    want: dict[int, int] = {}
    for (g, d), n in input_counts.items():
        want[g] = want.get(g, 0) + (n if d % 2 == 0 else -n)
    return want


def _check_graded_euler(E: ExplicitComplex, want: dict[int, int]) -> None:
    got = E.euler_by_grade()
    for g in set(want) | set(got):
        if want.get(g, 0) != got.get(g, 0):
            raise IntegrityError(
                f"per-grade Euler characteristic changed at grade {g}: "
                f"{want.get(g, 0)} -> {got.get(g, 0)}"
            )
