"""Cell complexes over GF(2): contracts and validation.

A complex is a finite set of integer cell ids with a dimension function and a
boundary operator over GF(2).  The boundary of a cell is returned as the tuple
of its faces with nonzero incidence (the coefficient is implicitly 1), sorted
ascending.  Concrete complexes either enumerate their structure explicitly
(:class:`ExplicitComplex`) or answer membership/boundary queries from a codec
without materializing cells (see :mod:`cubemorse.cubical`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from math import log2
from typing import Iterator, Protocol, runtime_checkable

import numpy as np


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


def _row_starts(n: int, rows: np.ndarray) -> np.ndarray:
    """CSR row pointers over rows 0..n-1 of the entries with ascending row indices ``rows``."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _distinct(keys: np.ndarray, counts: bool = False):
    """The distinct values of ``keys``, ascending, and with ``counts`` also
    how often each occurs: ``np.unique`` as one sort and a ``diff`` mask,
    since plain ``np.unique`` is several times slower on int arrays."""
    keys = np.sort(keys)
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    if not counts:
        return keys[new]
    first = np.flatnonzero(new)
    return keys[first], np.diff(first, append=keys.size)


def _rows(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the entries of the given rows of a CSR with row
    pointers ``indptr``, concatenated in the order of ``rows``."""
    start, count = indptr[rows], indptr[rows + 1] - indptr[rows]
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


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


def _id_array(ids: list[int]) -> np.ndarray:
    """Ascending cell ids as int64, or as exact Python ints (dtype object)
    once the largest passes int64."""
    big = bool(ids) and ids[-1] > np.iinfo(np.int64).max
    return np.array(ids, dtype=object if big else np.int64)


def _positions(ids: np.ndarray, cells) -> np.ndarray:
    """The position of each of ``cells`` among the ascending ``ids``, and
    -1 for a cell that is not one, by one ``searchsorted``."""
    try:
        keys = np.array(cells, dtype=ids.dtype)
    except OverflowError:  # a key past int64, so compare exact ints
        ids, keys = ids.astype(object), np.array(cells, dtype=object)
    if not ids.size:
        return np.full(keys.size, -1)
    at = np.minimum(ids.searchsorted(keys), ids.size - 1)
    return np.where(ids[at] == keys, at, -1)


class BoundaryRows(Mapping):
    """A GF(2) boundary as a CSR over the positions of the ascending cell
    ids ``ids``: row i holds the positions ``cols[indptr[i]:indptr[i + 1]]``
    of the faces of cell ``ids[i]``, ascending.  As a mapping it takes each
    cell with a nonempty row to the ascending tuple of its faces' ids."""

    def __init__(self, ids: np.ndarray, indptr: np.ndarray, cols: np.ndarray):
        self.ids, self.indptr, self.cols = ids, indptr, cols

    def owners(self) -> np.ndarray:
        """The row of every entry, ascending."""
        return np.repeat(np.arange(self.ids.size), np.diff(self.indptr))

    @cached_property
    def by_id(self) -> dict[int, tuple[int, ...]]:
        """Every cell id -> the tuple of its faces' ids, empty ones too:
        built on first use, for queries one cell at a time."""
        ptr, faces = self.indptr.tolist(), self.ids[self.cols].tolist()
        return {c: tuple(faces[lo:hi]) for c, lo, hi in zip(self.ids.tolist(), ptr, ptr[1:])}

    def __getitem__(self, cell: int) -> tuple[int, ...]:
        row = self.by_id.get(cell)
        if not row:
            raise KeyError(cell)
        return row

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids[np.diff(self.indptr) > 0].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self.indptr)))


class ExplicitComplex:
    """A complex stored as arrays over the positions of its ascending ids,
    the output format of Morse reduction: ``rows`` (:class:`BoundaryRows`)
    holds the ids and the boundary CSR, ``_dim`` and ``_grade`` (or None)
    the dimension and grade at each position.  Reduction rounds build it
    from arrays (:meth:`of_rows`); ``dims`` and ``grades`` read it by id.

    Args:
        dims: cell id -> dimension.
        boundary: cell id -> face ids (only nonzero columns need to be
            present); every id must be a key of ``dims``, which one
            ``searchsorted`` pass checks.
        grades: optional cell id -> poset element, for graded complexes.
    """

    def __init__(
        self,
        dims: dict[int, int],
        boundary: Mapping[int, tuple[int, ...]],
        grades: dict[int, int] | None = None,
    ):
        ids = _id_array(sorted(dims))
        rows = [(c, fs) for c, fs in boundary.items() if fs]
        flat = [c for c, _ in rows] + [f for _, fs in rows for f in fs]
        at = _positions(ids, flat)
        owner = np.repeat(at[:len(rows)], [len(fs) for _, fs in rows])
        if (at < 0).any():
            e = int(np.argmax(at < 0))
            if e < len(rows):
                raise NonMemberCellError(f"boundary column for unknown cell {flat[e]}")
            raise NonMemberCellError(f"face {flat[e]} of cell {ids[owner[e - len(rows)]]} is not a member")
        cols = at[len(rows):]
        order = np.lexsort((cols, owner))
        self.rows = BoundaryRows(ids, _row_starts(ids.size, owner[order]), cols[order])
        keys = ids.tolist()
        self._dim = np.array([dims[c] for c in keys], dtype=np.int64)
        self._grade = None if grades is None else np.array([grades[c] for c in keys], dtype=np.int64)

    @classmethod
    def of_rows(cls, rows: BoundaryRows, dim: np.ndarray, grade: np.ndarray | None = None) -> "ExplicitComplex":
        """The complex of ``rows`` with the dimension (and grade) at each position."""
        out = cls.__new__(cls)
        out.rows, out._dim, out._grade = rows, dim, grade
        return out

    @cached_property
    def dims(self) -> dict[int, int]:
        return dict(zip(self.rows.ids.tolist(), self._dim.tolist()))

    @cached_property
    def grades(self) -> dict[int, int] | None:
        return None if self._grade is None else dict(zip(self.rows.ids.tolist(), self._grade.tolist()))

    @property
    def cell_count(self) -> int:
        return self.rows.ids.size

    @property
    def max_cell_dim(self) -> int:
        return int(self._dim.max()) if self._dim.size else -1

    def cells(self) -> Iterator[int]:
        return iter(self.rows.ids.tolist())

    def is_member(self, cell: int) -> bool:
        return cell in self.dims

    def _member(self, cell: int) -> int:
        if cell not in self.dims:
            raise NonMemberCellError(f"cell {cell} is not a member")
        return cell

    def dim(self, cell: int) -> int:
        return self.dims[self._member(cell)]

    def boundary(self, cell: int) -> tuple[int, ...]:
        return self.rows.by_id[self._member(cell)]

    @cached_property
    def _cob(self) -> BoundaryRows:
        """The transpose of ``rows``, each row ascending."""
        n = self.cell_count
        keys = np.sort(self.rows.cols.astype(np.int64) * n + self.rows.owners())
        return BoundaryRows(self.rows.ids, _row_starts(n, keys // n), keys % n)

    def coboundary(self, cell: int) -> tuple[int, ...]:
        return self._cob.by_id[self._member(cell)]

    def grade(self, cell: int) -> int:
        if self.grades is None:
            raise IntegrityError("complex is not graded")
        return self.grades[cell]

    def counts_by_dim(self) -> list[int]:
        return np.bincount(self._dim).tolist()

    def euler(self) -> int:
        return self.cell_count - 2 * int(np.count_nonzero(self._dim & 1))

    def euler_by_grade(self) -> dict[int, int]:
        if self._grade is None:
            raise IntegrityError("complex is not graded")
        grades, at = np.unique(self._grade, return_inverse=True)
        sign = 1 - 2 * (self._dim & 1)
        return dict(zip(grades.tolist(), np.bincount(at, sign, grades.size).astype(np.int64).tolist()))

    def boundary_entries(self) -> Iterator[tuple[int, int]]:
        """Yield (face_id, cell_id) pairs, i.e. positions of nonzero entries,
        by ascending cell, then face."""
        ids = self.rows.ids
        return zip(ids[self.rows.cols].tolist(), ids[self.rows.owners()].tolist())

    def check_dd_zero(self) -> None:
        """Assert the boundary squares to zero; raises IntegrityError otherwise.

        One sort of the expanded (cell, face of face) pairs counts each pair;
        an odd count names the smallest such cell and its first four faces
        of faces."""
        ids, ptr, cols = self.rows.ids, self.rows.indptr, self.rows.cols
        n = np.int64(max(self.cell_count, 1))
        cell = np.repeat(self.rows.owners(), ptr[cols + 1] - ptr[cols])
        keys, count = _distinct(cell * n + cols[_rows(ptr, cols)], counts=True)
        odd = keys[count % 2 == 1]
        if odd.size:
            c = odd[0] // n
            at = odd[odd // n == c][:4] % n
            raise IntegrityError(
                f"boundary of boundary of cell {ids[c]} is nonzero at {ids[at].tolist()}"
            )

    def to_json_dict(self, poset_pairs: list[tuple[int, int]] | None = None) -> dict:
        g = self.grades
        cells = [{"id": c, "dim": d} | ({} if g is None else {"grade": g[c]}) for c, d in self.dims.items()]
        out: dict = {
            "cells": cells,
            "boundary": [[f, c] for f, c in self.boundary_entries()],
        }
        if poset_pairs is not None:
            out["poset_edges"] = [[p, q] for p, q in sorted(poset_pairs)]
        return out

    @classmethod
    def from_complex(cls, cx: CellComplexLike) -> "ExplicitComplex":
        """Materialize any complex handle of at most ``VALIDATE_LIMIT`` cells."""
        _refuse_above("ExplicitComplex.from_complex", cx, VALIDATE_LIMIT)
        cells = list(cx.cells())
        return cls({c: cx.dim(c) for c in cells}, {c: cx.boundary(c) for c in cells})


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
