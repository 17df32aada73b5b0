"""Morse reduction: collapse a matched complex onto its unmatched cells.

Given an acyclic matching, the reduced complex has the fixed cells as its
cells and, over GF(2), a boundary that counts alternating paths: a path
steps from a face of a cell into the partner of a lower cell and onward.
:func:`morse_boundary` performs the count with memoized depth-first
propagation, :func:`template_round` runs one reduction round of a cubical
complex under the template matching, evaluated as an array sweep over the
member ids (:func:`cubemorse.matching.template_sweep`), and
:func:`generic_round` produces a deterministic acyclic matching on an
already-explicit complex so rounds can be iterated until the boundary (or
its same-grade part) vanishes.  :func:`homology` and
:func:`connection_matrix` are the two iterated pipelines.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    AcyclicityError,
    ExplicitComplex,
    IntegrityError,
)
from .cubical import CubicalComplex
from .matching import template_sweep


def morse_boundary(
    criticals: Iterable[int],
    boundary_of: Callable[[int], Iterable[int]],
    mate_of: Callable[[int], int],
    dim_of: Callable[[int], int],
) -> dict[int, tuple[int, ...]]:
    """GF(2) boundary of the reduced complex on the given fixed cells.

    Flow sets (the fixed cells reachable from a lower cell, counted mod 2)
    are memoized, and the traversal is an explicit stack so path length is
    not limited by the interpreter recursion depth.  Revisiting a lower cell
    that is still open means the matching flows in a cycle.
    """
    crit = set(criticals)
    memo: dict[int, frozenset[int]] = {}

    def partner_up(c: int) -> int | None:
        m = mate_of(c)
        if m != c and dim_of(m) == dim_of(c) + 1:
            return m
        return None

    def flow(q0: int, k0: int) -> None:
        stack: list[tuple[int, object, set[int]]] = [(q0, iter(boundary_of(k0)), set())]
        open_cells = {q0}
        while stack:
            q, faces, acc = stack[-1]
            advanced = False
            for f in faces:  # type: ignore[union-attr]
                if f == q:
                    continue
                if f in crit:
                    if f in acc:
                        acc.discard(f)
                    else:
                        acc.add(f)
                    continue
                got = memo.get(f)
                if got is not None:
                    acc.symmetric_difference_update(got)
                    continue
                k = partner_up(f)
                if k is None:
                    continue  # upper cell: no outgoing flow
                if f in open_cells:
                    raise AcyclicityError(
                        f"flow from cell {q0} revisits open cell {f}: matching is cyclic"
                    )
                open_cells.add(f)
                stack.append((f, iter(boundary_of(k)), set()))
                advanced = True
                break
            if advanced:
                continue
            memo[q] = frozenset(acc)
            open_cells.discard(q)
            stack.pop()
            if stack:
                stack[-1][2].symmetric_difference_update(acc)

    out: dict[int, tuple[int, ...]] = {}
    for a in sorted(crit):
        acc: set[int] = set()
        for f in boundary_of(a):
            if f in crit:
                if f in acc:
                    acc.discard(f)
                else:
                    acc.add(f)
                continue
            k = partner_up(f)
            if k is None:
                continue
            if f not in memo:
                flow(f, k)
            acc.symmetric_difference_update(memo[f])
        if acc:
            out[a] = tuple(sorted(acc))
    return out


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
    criticals = [c for c in cx.cells() if oracle(c) == c]
    bdry = morse_boundary(criticals, cx.boundary, oracle, cx.dim)
    dims = {c: cx.dim(c) for c in criticals}
    grades = None
    if grade_of is not None:
        grades = {c: int(grade_of(c)) for c in criticals}
    out = ExplicitComplex(dims, bdry, grades)
    out.check_dd_zero()
    return out


def template_round(cx: CubicalComplex, grade_of=None) -> ExplicitComplex:
    """One reduction round of a cubical complex under the template matching.

    :func:`cubemorse.matching.template_sweep` matches all member ids in one
    array pass per axis; the members it leaves fixed are the critical cells,
    and flow counting reads each partner from the sweep's code array.
    """
    ids, code = template_sweep(cx, grade_of)
    criticals = ids[code == 0].tolist()
    bdry = morse_boundary(criticals, cx._boundary_raw, _sweep_mate(cx, ids, code), cx.dim_of)
    dims = {c: cx.dim_of(c) for c in criticals}
    grades = None
    if grade_of is not None:
        gfun = grade_of if callable(grade_of) else grade_of.__getitem__
        grades = {c: int(gfun(c)) for c in criticals}
    out = ExplicitComplex(dims, bdry, grades)
    out.check_dd_zero()
    return out


def _sweep_mate(cx: CubicalComplex, ids, code) -> Callable[[int], int]:
    """Partner lookup for member cells over a :func:`template_sweep` result."""
    step = [0] * (2 * cx.d + 1)  # step[level] = -step[-level] = pows[level - 1]
    for level, p in enumerate(cx.pows, start=1):
        step[level] = p
        step[-level] = -p
    codes = code.tolist()
    if cx.kind == "explicit":
        keys = ids.tolist()
        return lambda c: c + step[codes[bisect_left(keys, c)]]
    excl = cx._excluded
    if excl is None:
        return lambda c: c + step[codes[c]]
    return lambda c: c + step[codes[c - (c > excl)]]


def generic_round(E: ExplicitComplex, graded: bool = False) -> dict[int, int]:
    """Deterministic acyclic matching on an explicit complex by coreduction.

    A cell whose remaining (same-grade, if graded) faces number exactly one
    is matched with that face; when no such cell exists, the smallest cell
    with no remaining faces is set aside as fixed.  Smallest id wins every
    choice, so the matching is reproducible.  Removal order makes the flow
    relation acyclic: a step can only move to a pair removed strictly
    earlier.

    Returns:
        partner dict over all cells; fixed cells map to themselves.
    """
    grades = E.grades if graded else None
    faces: dict[int, tuple[int, ...]] = {}
    counts: dict[int, int] = {}
    cofaces: dict[int, list[int]] = {}
    cells = sorted(E.dims)
    for c in cells:
        fs = E.boundary(c)
        if grades is not None:
            fs = tuple(f for f in fs if grades[f] == grades[c])
        faces[c] = fs
        counts[c] = len(fs)
        for f in fs:
            cofaces.setdefault(f, []).append(c)

    match_heap = [c for c in cells if counts[c] == 1]
    free_heap = [c for c in cells if counts[c] == 0]
    heapq.heapify(match_heap)
    heapq.heapify(free_heap)
    removed: set[int] = set()
    partner = {c: c for c in cells}

    def on_removed(x: int) -> None:
        for co in cofaces.get(x, ()):
            if co in removed:
                continue
            counts[co] -= 1
            if counts[co] == 1:
                heapq.heappush(match_heap, co)
            elif counts[co] == 0:
                heapq.heappush(free_heap, co)

    remaining = len(cells)
    while remaining:
        k = None
        while match_heap:
            cand = heapq.heappop(match_heap)
            if cand not in removed and counts[cand] == 1:
                k = cand
                break
        if k is not None:
            q = next(f for f in faces[k] if f not in removed)
            partner[q] = k
            partner[k] = q
            removed.add(q)
            removed.add(k)
            remaining -= 2
            on_removed(q)
            on_removed(k)
            continue
        c0 = None
        while free_heap:
            cand = heapq.heappop(free_heap)
            if cand not in removed and counts[cand] == 0:
                c0 = cand
                break
        if c0 is None:
            raise IntegrityError("coreduction stalled with cells remaining")
        removed.add(c0)
        remaining -= 1
        on_removed(c0)
    return partner


def reduce_round(E: ExplicitComplex, partner: dict[int, int]) -> ExplicitComplex:
    """Collapse an explicit complex along a matching given as a partner dict."""
    criticals = [c for c in E.dims if partner[c] == c]
    bdry = morse_boundary(
        criticals, lambda c: E._bdry.get(c, ()), partner.__getitem__, E.dims.__getitem__
    )
    dims = {c: E.dims[c] for c in criticals}
    grades = None
    if E.grades is not None:
        grades = {c: E.grades[c] for c in criticals}
    out = ExplicitComplex(dims, bdry, grades)
    out.check_dd_zero()
    return out


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
    if cx.kind == "explicit":
        return sum(1 if cx.dim_of(c) % 2 == 0 else -1 for c in cx.cells())
    # the full grid is a product of contractible intervals
    total = 1
    if cx.kind in ("sphere", "top_sphere"):
        # one top cell (all coordinates odd, dimension cx.d) is excluded
        total -= (-1) ** cx.d
    return total


def homology(cx: CubicalComplex) -> HomologyResult:
    """Betti numbers over GF(2) by iterated Morse reduction.

    Round one applies the template matching as an array sweep; later rounds use
    :func:`generic_round` on the explicit remainder until the boundary is
    zero, at which point the cell counts per dimension are the Betti
    numbers.  Euler characteristic is asserted after every round.
    """
    euler_in = _input_euler(cx)
    E = template_round(cx)
    rounds = 1
    sizes = [E.cell_count]
    if E.euler() != euler_in:
        raise IntegrityError(
            f"round 1 changed the Euler characteristic ({euler_in} -> {E.euler()})"
        )
    while E.nonzero_boundary():
        partner = generic_round(E)
        nxt = reduce_round(E, partner)
        rounds += 1
        sizes.append(nxt.cell_count)
        if nxt.cell_count >= E.cell_count:
            raise IntegrityError("reduction round made no progress")
        if nxt.euler() != euler_in:
            raise IntegrityError("reduction round changed the Euler characteristic")
        E = nxt
    betti = E.counts_by_dim()
    betti += [0] * (cx.max_cell_dim + 1 - len(betti))
    return HomologyResult(betti=betti, rounds=rounds, round_sizes=sizes, complex=E)


def _same_grade_entry(E: ExplicitComplex) -> bool:
    g = E.grades
    assert g is not None
    return any(g[f] == g[c] for f, c in E.boundary_entries())


def _check_filtered(E: ExplicitComplex, poset, strict: bool) -> None:
    g = E.grades
    assert g is not None
    for f, c in E.boundary_entries():
        gf, gc = g[f], g[c]
        if gf == gc:
            if strict:
                raise IntegrityError(
                    f"boundary entry ({f}, {c}) joins equal grades {gf}"
                )
            continue
        if poset is not None and not poset.leq(gf, gc):
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

    Round one restricts the template matching to grade classes; later rounds
    use the graded coreduction matching.  After every round the boundary
    must descend the grading (checked against ``poset`` when given), the
    per-grade Euler characteristics must match ``input_counts`` when given,
    and the tower height is the number of rounds executed.
    """
    E = template_round(cx, grade_of)
    tower = 1
    sizes = [E.cell_count]
    if input_counts is not None:
        _check_graded_euler(E, input_counts)
    _check_filtered(E, poset, strict=False)
    while _same_grade_entry(E):
        partner = generic_round(E, graded=True)
        nxt = reduce_round(E, partner)
        tower += 1
        sizes.append(nxt.cell_count)
        if nxt.cell_count >= E.cell_count:
            raise IntegrityError("graded reduction round made no progress")
        if input_counts is not None:
            _check_graded_euler(nxt, input_counts)
        _check_filtered(nxt, poset, strict=False)
        E = nxt
    _check_filtered(E, poset, strict=True)
    counts: dict[tuple[int, int], int] = {}
    assert E.grades is not None
    for c, d in E.dims.items():
        key = (E.grades[c], d)
        counts[key] = counts.get(key, 0) + 1
    scc_count = getattr(poset, "n", None)
    return ConleyResult(
        complex=E, tower=tower, round_sizes=sizes, counts=counts, scc_count=scc_count
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
