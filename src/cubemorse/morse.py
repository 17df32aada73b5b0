"""Morse reduction: collapse a matched complex onto its unmatched cells.

Given an acyclic matching, the reduced complex has the fixed cells as its
cells and, over GF(2), a boundary that counts alternating paths: a path
steps from a face of a cell into the partner of a lower cell and onward.
:func:`morse_boundary` performs the count, skipping cells whose entries
could only join fixed cells of a dimension that has none.
:func:`template_round` runs one reduction round of a cubical complex under
the template matching, evaluated as an array sweep over the members by
position (:func:`cubemorse.matching.template_sweep`); its flow graph is
built in array passes in :mod:`cubemorse.matching`, the one module that
reads the sweep's encoding.  Later rounds walk their flow graph cell by
cell, and every round sums the flow rows over its graph with one algorithm
(:func:`cubemorse.matching._flow_rows`).  :func:`generic_round` produces
the later rounds' deterministic acyclic matching on an already-explicit
complex from coreductions and, when none is left, free-face collapses, so
a round does not fill the next complex's boundary in.  Every round ends in
the same collapse onto the fixed cells.  :func:`homology` and
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
    ExplicitComplex,
    IntegrityError,
)
from .cubical import CubicalComplex
from .matching import TemplateMatching, _flow_rows, _sweep_graph


def morse_boundary(
    criticals: Iterable[int],
    boundary_of: Callable[[int], Iterable[int]],
    mate_of: Callable[[int], int],
    dim_of: Callable[[int], int],
) -> dict[int, tuple[int, ...]]:
    """GF(2) boundary of the reduced complex on the given fixed cells.

    A reduced boundary entry joins dimensions k and k - 1 only, so a fixed
    cell of dimension k is skipped when no fixed cell has dimension k - 1.

    The flows are counted over a flow graph from the fixed cells whose rows
    count.  Given a :class:`~cubemorse.matching.TemplateMatching`, whose
    fixed cells must be ``criticals``, the graph is built in array passes
    over its whole sweep (:func:`cubemorse.matching._sweep_graph`);
    any other ``mate_of`` is walked cell by cell (:func:`_cell_graph`).
    Either way :func:`cubemorse.matching._flow_rows` sums the rows mod 2,
    and a flow that reaches a cycle means the matching is cyclic
    (:class:`AcyclicityError`, naming the smallest lower cell that reaches
    one).

    ``mate_of`` must return the partner of every lower cell (one paired with
    a coface) and may map any other cell, upper cells included, to itself;
    ``dim_of`` is only asked about fixed cells and cells ``mate_of`` moves.
    ``criticals`` may be a dict from each fixed cell to its dimension, which
    is then read instead of asking ``dim_of`` about the fixed cells.
    """
    if not isinstance(criticals, dict):
        criticals = {c: dim_of(c) for c in criticals}
    order = sorted(criticals)
    have = set(criticals.values())
    sources = [a for a in order if criticals[a] - 1 in have]
    if not sources:
        return {}
    if type(mate_of) is TemplateMatching:
        nodes, edges, fixed, ids = _sweep_graph(mate_of, sources)
    else:
        nodes, edges, fixed, ids = _cell_graph(order, sources, boundary_of, mate_of, dim_of)
    s = len(sources)
    stuck, indptr, cols = _flow_rows(len(nodes), np.arange(s), *edges, *fixed)
    if stuck.any():  # sources have no in-edges, so a cycle holds lower cells only
        lower = min(int(nodes[i]) for i in np.flatnonzero(stuck[s:]) + s)
        raise AcyclicityError(f"flow from lower cell {lower} runs into a cycle: matching is cyclic")
    cols = [ids[j] for j in cols.tolist()]
    out: dict[int, tuple[int, ...]] = {}
    for c, lo, hi in zip(sources, indptr[:-1].tolist(), indptr[1:].tolist()):
        if hi > lo:
            out[c] = tuple(cols[lo:hi])
    return out


_NEW = object()  # not yet reached by :func:`_cell_graph`


def _cell_graph(order, sources, boundary_of, mate_of, dim_of):
    """The flow graph of :func:`morse_boundary` walked cell by cell,
    breadth first from ``sources``, in the shape of
    :func:`cubemorse.matching._flow_graph`.

    A node steps to the faces, other than itself, of its partner for a
    lower cell, of itself for a source.  A fixed face ends the flow, as the
    column of its rank in the ascending ``order``; a face ``mate_of`` pairs
    with a coface one dimension up is a lower cell, a node; any other face
    has no flow.  Each reached cell costs one ``mate_of`` and two ``dim_of``
    calls (for it and its partner), each node one ``boundary_of`` call, and
    each face one dict lookup.

    Returns:
        (nodes, (src, dst), (fsrc, fcol), order): the node cells in visit
        order, sources first; the edges from nodes to the nodes of their
        lower faces; the edges from nodes to the columns of their fixed
        faces, both src ascending; and the id of each column.
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
    return nodes, (src, dst), (fsrc, fcol), order


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
    dims = {c: cx.dim(c) for c in cx.cells() if oracle(c) == c}
    return _collapse(dims, cx.boundary, oracle, cx.dim, grade_of)


def template_round(cx: CubicalComplex, grade_of=None) -> ExplicitComplex:
    """One reduction round of a cubical complex under the template matching.

    The whole :func:`cubemorse.matching.template_sweep` of a
    :class:`~cubemorse.matching.TemplateMatching` matches all members in one
    array pass per axis and gives a code per member position; the members
    it leaves fixed are the critical cells, whose ids are taken from their
    positions alone (``CubicalComplex._ids_at``, arithmetic on a grid, so no
    id array of all members is built) and whose dimensions come from one
    array odd-digit count (``CubicalComplex._dims``).  :func:`morse_boundary`
    counts the flows over the same codes in array passes.  ``grade_of`` is
    None or an int array of ``cx.total_ids`` grades indexed by id.
    """
    mate = TemplateMatching(cx, grade_of)
    fixed = cx._ids_at((mate._whole == 0).nonzero()[0])
    dims = dict(zip(fixed.tolist(), cx._dims(fixed).tolist()))
    grade = None if grade_of is None else grade_of.__getitem__
    return _collapse(dims, cx._boundary_raw, mate, cx.dim_of, grade)


def _collapse(dims, boundary_of, mate_of, dim_of, grade_of) -> ExplicitComplex:
    """The tail of every round: the reduced complex on the fixed cells, the
    keys of ``dims`` (cell -> dimension), with grades when ``grade_of`` is
    given, and d^2 = 0 checked."""
    bdry = morse_boundary(dims, boundary_of, mate_of, dim_of)
    grades = None if grade_of is None else {c: int(grade_of(c)) for c in dims}
    out = ExplicitComplex(dims, bdry, grades)
    out.check_dd_zero()
    return out


def generic_round(E: ExplicitComplex, graded: bool = False) -> dict[int, int]:
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

    The bookkeeping is lists over positions in the sorted cells, which sort
    as the ids do; a removed cell's face count is -1.

    Returns:
        partner dict over all cells; fixed cells map to themselves.
    """
    grades = E.grades if graded else None
    bdry = E._bdry  # every cell is a member: no per-cell check
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


def reduce_round(E: ExplicitComplex, partner: dict[int, int]) -> ExplicitComplex:
    """Collapse an explicit complex along a matching given as a partner dict."""
    dims = {c: k for c, k in E.dims.items() if partner[c] == c}
    grade_of = None if E.grades is None else E.grades.__getitem__
    return _collapse(dims, lambda c: E._bdry.get(c, ()), partner.__getitem__, E.dims.__getitem__, grade_of)


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
    graded = E.grades is not None
    while (
        any(E.grades[f] == E.grades[c] for f, c in E.boundary_entries())
        if graded
        else E.nonzero_boundary()
    ):
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


def _check_filtered(E: ExplicitComplex, poset) -> None:
    """Every boundary entry between distinct grades descends the poset."""
    g = E.grades
    assert g is not None
    for f, c in E.boundary_entries():
        gf, gc = g[f], g[c]
        if gf != gc and not poset.leq(gf, gc):
            raise IntegrityError(
                f"boundary entry ({f}, {c}) does not descend the grading "
                f"({gf} vs {gc})"
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

    def check(E: ExplicitComplex) -> None:
        if input_counts is not None:
            _check_graded_euler(E, input_counts)
        if poset is not None:
            _check_filtered(E, poset)

    E, sizes = _reduce(cx, grade_of, check)
    counts: dict[tuple[int, int], int] = {}
    assert E.grades is not None
    for c, d in E.dims.items():
        key = (E.grades[c], d)
        counts[key] = counts.get(key, 0) + 1
    scc_count = getattr(poset, "n", None)
    return ConleyResult(
        complex=E, tower=len(sizes), round_sizes=sizes, counts=counts, scc_count=scc_count
    )


def _check_graded_euler(E: ExplicitComplex, input_counts: dict[tuple[int, int], int]) -> None:
    want: dict[int, int] = {}
    for (g, d), n in input_counts.items():
        want[g] = want.get(g, 0) + (n if d % 2 == 0 else -n)
    got = E.euler_by_grade()
    for g in set(want) | set(got):
        if want.get(g, 0) != got.get(g, 0):
            raise IntegrityError(
                f"per-grade Euler characteristic changed at grade {g}: "
                f"{want.get(g, 0)} -> {got.get(g, 0)}"
            )
