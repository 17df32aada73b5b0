"""Cell complexes over GF(2): contracts, validation, and a brute-force homology oracle.

A complex is a finite set of integer cell ids with a dimension function and a
boundary operator over GF(2).  The boundary of a cell is returned as the tuple
of its faces with nonzero incidence (the coefficient is implicitly 1), sorted
ascending.  Concrete complexes either enumerate their structure explicitly
(:class:`ExplicitComplex`) or answer membership/boundary queries from a codec
without materializing cells (see :mod:`cubemorse.cubical`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2
from typing import Iterable, Iterator, Protocol, runtime_checkable


class NonMemberCellError(ValueError):
    """An operation was asked about a cell id outside the complex."""


class SizeGuardError(RuntimeError):
    """A guarded operation refused to run on an input above its size threshold."""


def _guard_size(what: str, count: int, base: int, exp: int, limit: int, force: bool | None) -> None:
    """Raise :class:`SizeGuardError` when ``count * base**exp`` cells exceed
    ``limit``, unless ``force``.  The product is formed only when it fits in
    64 bits; a larger one is refused, and named, as a power.  ``force`` None
    means no override exists, so the message offers none."""
    if force:
        return
    if exp * log2(base) + log2(max(count, 1)) <= 64:
        size = count * base**exp
        if size <= limit:
            return
    else:
        size = f"{base}^{exp}" if count == 1 else f"{count} x {base}^{exp}"
    hint = "" if force is None else "; pass --force to run anyway"
    raise SizeGuardError(f"{what} would hold about {size} cells (guard {limit}){hint}")


VALIDATE_LIMIT = 1_000_000  # cells: validate_complex, from_complex and verify_matching


def _refuse_above(what: str, cx: CellComplexLike, limit: int) -> None:
    """Raise :class:`SizeGuardError` when ``cx`` has more than ``limit``
    cells; a count past 64 bits is named as a power of two."""
    n = cx.cell_count
    if n > limit:
        size = n if n.bit_length() <= 64 else f"over 2^{n.bit_length() - 1}"
        raise SizeGuardError(f"{what} refuses {size} cells (limit {limit})")


class AcyclicityError(RuntimeError):
    """A matching induced a cycle among paired cells, so flow counting diverges."""


class TrichotomyError(RuntimeError):
    """A matching paired cells that are not incident with dimension gap one."""


class IntegrityError(RuntimeError):
    """A structural assumption the pipeline relies on failed at runtime."""


class FormatError(ValueError):
    """An input file does not conform to the documented format."""


@runtime_checkable
class CellComplexLike(Protocol):
    """Structural interface every complex in this package implements.

    Cell ids are nonnegative ints.  ``boundary`` and ``coboundary`` return
    ascending tuples of member ids; over GF(2) every listed incidence has
    coefficient 1.
    """

    @property
    def cell_count(self) -> int: ...

    @property
    def max_cell_dim(self) -> int: ...

    def cells(self) -> Iterator[int]: ...

    def is_member(self, cell: int) -> bool: ...

    def dim(self, cell: int) -> int: ...

    def boundary(self, cell: int) -> tuple[int, ...]: ...

    def coboundary(self, cell: int) -> tuple[int, ...]: ...


@dataclass(frozen=True)
class Violation:
    kind: str
    cell: int
    detail: str


@dataclass
class ValidationReport:
    checked_cells: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"ok: {self.checked_cells} cells checked"
        head = "; ".join(
            f"{v.kind}@{v.cell}: {v.detail}" for v in self.violations[:5]
        )
        return f"{len(self.violations)} violation(s) in {self.checked_cells} cells: {head}"


class ExplicitComplex:
    """A complex stored as dictionaries, the output format of Morse reduction.

    Args:
        dims: cell id -> dimension.
        boundary: cell id -> ascending tuple of face ids (only nonzero columns
            need to be present).
        grades: optional cell id -> poset element, for graded complexes.
    """

    def __init__(
        self,
        dims: dict[int, int],
        boundary: dict[int, tuple[int, ...]],
        grades: dict[int, int] | None = None,
    ):
        self.dims = dims
        self._bdry = {c: tuple(sorted(fs)) for c, fs in boundary.items() if fs}
        self.grades = grades
        self._cob: dict[int, tuple[int, ...]] | None = None
        for c, faces in self._bdry.items():
            if c not in dims:
                raise NonMemberCellError(f"boundary column for unknown cell {c}")
            for f in faces:
                if f not in dims:
                    raise NonMemberCellError(f"face {f} of cell {c} is not a member")

    @property
    def cell_count(self) -> int:
        return len(self.dims)

    @property
    def max_cell_dim(self) -> int:
        return max(self.dims.values(), default=-1)

    def cells(self) -> Iterator[int]:
        return iter(sorted(self.dims))

    def is_member(self, cell: int) -> bool:
        return cell in self.dims

    def dim(self, cell: int) -> int:
        try:
            return self.dims[cell]
        except KeyError:
            raise NonMemberCellError(f"cell {cell} is not a member") from None

    def boundary(self, cell: int) -> tuple[int, ...]:
        if cell not in self.dims:
            raise NonMemberCellError(f"cell {cell} is not a member")
        return self._bdry.get(cell, ())

    def coboundary(self, cell: int) -> tuple[int, ...]:
        if cell not in self.dims:
            raise NonMemberCellError(f"cell {cell} is not a member")
        if self._cob is None:
            cob: dict[int, list[int]] = {}
            for c in sorted(self._bdry):
                for f in self._bdry[c]:
                    cob.setdefault(f, []).append(c)
            self._cob = {f: tuple(cs) for f, cs in cob.items()}
        return self._cob.get(cell, ())

    def grade(self, cell: int) -> int:
        if self.grades is None:
            raise IntegrityError("complex is not graded")
        return self.grades[cell]

    def counts_by_dim(self) -> list[int]:
        if not self.dims:
            return []
        out = [0] * (self.max_cell_dim + 1)
        for d in self.dims.values():
            out[d] += 1
        return out

    def euler(self) -> int:
        return sum(1 if d % 2 == 0 else -1 for d in self.dims.values())

    def euler_by_grade(self) -> dict[int, int]:
        if self.grades is None:
            raise IntegrityError("complex is not graded")
        out: dict[int, int] = {}
        for c, d in self.dims.items():
            g = self.grades[c]
            out[g] = out.get(g, 0) + (1 if d % 2 == 0 else -1)
        return out

    def boundary_entries(self) -> Iterator[tuple[int, int]]:
        """Yield (face_id, cell_id) pairs, i.e. positions of nonzero entries."""
        for c in sorted(self._bdry):
            for f in self._bdry[c]:
                yield f, c

    def nonzero_boundary(self) -> bool:
        return bool(self._bdry)

    def check_dd_zero(self) -> None:
        """Assert the boundary squares to zero; raises IntegrityError otherwise."""
        for c, faces in self._bdry.items():
            acc: set[int] = set()
            for f in faces:
                acc.symmetric_difference_update(self._bdry.get(f, ()))
            if acc:
                raise IntegrityError(
                    f"boundary of boundary of cell {c} is nonzero at {sorted(acc)[:4]}"
                )

    def canonical_form(self) -> tuple:
        """Relabel cells 0..n-1 in ascending id order; grades are not included."""
        order = sorted(self.dims)
        idx = {c: k for k, c in enumerate(order)}
        dims = tuple(self.dims[c] for c in order)
        entries = tuple(sorted((idx[c], idx[f]) for f, c in self.boundary_entries()))
        return dims, entries

    def to_json_dict(self, poset_pairs: list[tuple[int, int]] | None = None) -> dict:
        cells = []
        for c in sorted(self.dims):
            rec: dict = {"id": c, "dim": self.dims[c]}
            if self.grades is not None:
                rec["grade"] = int(self.grades[c])
            cells.append(rec)
        out: dict = {
            "cells": cells,
            "boundary": [[f, c] for f, c in self.boundary_entries()],
        }
        if poset_pairs is not None:
            out["poset_edges"] = [[p, q] for p, q in sorted(poset_pairs)]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExplicitComplex":
        dims = {int(rec["id"]): int(rec["dim"]) for rec in data["cells"]}
        grades = None
        if data["cells"] and "grade" in data["cells"][0]:
            grades = {int(rec["id"]): int(rec["grade"]) for rec in data["cells"]}
        bdry: dict[int, list[int]] = {}
        for f, c in data.get("boundary", []):
            bdry.setdefault(int(c), []).append(int(f))
        return cls(dims, {c: tuple(fs) for c, fs in bdry.items()}, grades)

    @classmethod
    def from_complex(cls, cx: CellComplexLike) -> "ExplicitComplex":
        """Materialize any complex handle of at most ``VALIDATE_LIMIT`` cells."""
        _refuse_above("ExplicitComplex.from_complex", cx, VALIDATE_LIMIT)
        dims = {}
        bdry = {}
        for c in cx.cells():
            dims[c] = cx.dim(c)
            faces = cx.boundary(c)
            if faces:
                bdry[c] = faces
        return cls(dims, bdry)


def validate_complex(cx: CellComplexLike) -> ValidationReport:
    """Check closure, dimension steps, and that the boundary squares to zero,
    on at most ``VALIDATE_LIMIT`` cells.

    Every face of a member cell must be a member of dimension one less, and
    the GF(2) sum of faces-of-faces must vanish.  Violations are collected
    (capped at 200) rather than raised.

    A :class:`~cubemorse.cubical.CubicalComplex` is first checked by array
    passes: digit slices over the member mask of a grid or dense explicit
    complex, faces of ``_WALK_CHUNK`` members at a time of a sparse one.
    Its boundary is the face formula, whose rows are ascending, one
    dimension lower and square to zero, so closure of the formula's faces
    among the members settles the rest (``CubicalComplex._validates_clean``).
    Those passes only decide that nothing is wrong; on any anomaly the
    cell-by-cell walk below runs and writes the report.
    """
    from .cubical import CubicalComplex  # cubical imports this module

    _refuse_above("validate_complex", cx, VALIDATE_LIMIT)
    if isinstance(cx, CubicalComplex) and cx._validates_clean():
        return ValidationReport(checked_cells=cx.cell_count)
    report = ValidationReport(checked_cells=0)
    cap = 200
    is_member, dim, boundary = cx.is_member, cx.dim, cx.boundary
    for c in cx.cells():
        if len(report.violations) >= cap:
            break
        report.checked_cells += 1
        d = dim(c)
        faces = boundary(c)
        if list(faces) != sorted(set(faces)):
            report.violations.append(Violation("boundary-order", c, "faces not ascending/unique"))
        acc: set[int] = set()
        for f in faces:
            if not is_member(f):
                report.violations.append(Violation("closure", c, f"face {f} not a member"))
                continue
            df = dim(f)
            if df != d - 1:
                report.violations.append(
                    Violation("dimension", c, f"face {f} has dim {df}, expected {d - 1}")
                )
                continue
            acc.symmetric_difference_update(boundary(f))
        if acc:
            report.violations.append(
                Violation("dd-nonzero", c, f"d(d(cell)) nonzero at {sorted(acc)[:4]}")
            )
    return report


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
