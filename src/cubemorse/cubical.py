"""Cubical complexes with digit-coded cells and anchor fibers.

A cell of a cubical complex with m intervals per axis and d coordinates is a
product of elementary intervals, one per coordinate: either a vertex [l, l] or
an edge [l, l+1].  Coordinate i is stored as a digit c_i in 0..2m, with
c = 2l for [l, l] and c = 2l + 1 for [l, l+1], and the cell id is the value
of the digit vector in base 2m+1 with coordinate 1 least significant.  Nothing
is materialized for the built-in families: membership, boundary, and fiber
queries are all answered from the codec.

The *fiber* of a cell is the set of cells sharing its anchor (the vector of
lower endpoints l).  Each fiber is a sub-hypercube spanned by the extent bits,
which is what makes hypercube template pairings applicable one fiber at a
time (:func:`alpha`, :func:`beta`).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

import numpy as np

from .core import (
    CellComplexLike,
    FormatError,
    NonMemberCellError,
    SizeGuardError,
)

CLOSURE_CELL_GUARD = 100_000_000


class CubicalComplex(CellComplexLike):
    """See module docstring.  Build via :meth:`full`, :meth:`sphere`,
    :meth:`top_sphere`, :meth:`from_top_cells`, or :meth:`from_cells`."""

    def __init__(self, m: int, d: int, kind: str, members: frozenset[int] | None = None):
        if m < 1 or d < 1:
            raise ValueError("need m >= 1 and d >= 1")
        self.m = m
        self.d = d
        self.kind = kind
        self.base = 2 * m + 1
        self.pows = [self.base ** i for i in range(d)]
        self.total_ids = self.base ** d
        self._members = members
        self._excluded: int | None = None
        if kind == "sphere":
            # the unique top cell, all digits odd
            self._excluded = sum(self.pows)
        elif kind == "top_sphere":
            self._excluded = 3 * sum(self.pows)
        elif kind not in ("full", "explicit"):
            raise ValueError(f"unknown kind {kind!r}")
        self._offs: list[int] | None = None
        self._max_dim_cache: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls, m: int, d: int) -> "CubicalComplex":
        """All cells of the m-interval grid in d coordinates."""
        return cls(m, d, "full")

    @classmethod
    def sphere(cls, d: int) -> "CubicalComplex":
        """Boundary-sphere of a single (d+1)-cube: every cell except the top one."""
        if d < 1:
            raise ValueError("sphere dimension must be >= 1")
        return cls(1, d + 1, "sphere")

    @classmethod
    def top_sphere(cls, d: int) -> "CubicalComplex":
        """A thickened d-sphere: the 3-per-axis grid in d+1 coordinates with the
        central top cube removed."""
        if d < 1:
            raise ValueError("sphere dimension must be >= 1")
        return cls(3, d + 1, "top_sphere")

    @classmethod
    def from_top_cells(
        cls,
        m: int,
        d: int,
        anchors: list[tuple[int, ...]],
        force: bool = False,
    ) -> "CubicalComplex":
        """Closure of a list of top cubes given by their anchor vectors."""
        estimate = len(anchors) * 3 ** d
        if estimate > CLOSURE_CELL_GUARD and not force:
            raise SizeGuardError(
                f"closure estimate {estimate} cells exceeds {CLOSURE_CELL_GUARD}; "
                "pass force to override"
            )
        cx = cls(m, d, "explicit", frozenset())
        members: set[int] = set()
        for a in anchors:
            if len(a) != d:
                raise FormatError(f"anchor {a} does not have {d} coordinates")
            if any(not 0 <= ai <= m - 1 for ai in a):
                raise FormatError(f"anchor {a} out of range 0..{m - 1}")
            for digits in product(*[(2 * ai, 2 * ai + 1, 2 * ai + 2) for ai in a]):
                members.add(sum(c * p for c, p in zip(digits, cx.pows)))
        cx._members = frozenset(members)
        return cx

    @classmethod
    def from_cells(cls, m: int, d: int, cells: list[int]) -> "CubicalComplex":
        """Closure (under taking faces) of an arbitrary set of cell ids."""
        cx = cls(m, d, "explicit", frozenset())
        members: set[int] = set()
        stack = list(cells)
        while stack:
            c = stack.pop()
            if c in members:
                continue
            if not 0 <= c < cx.total_ids:
                raise NonMemberCellError(f"cell id {c} out of range for this grid")
            members.add(c)
            stack.extend(cx._boundary_raw(c))
        cx._members = frozenset(members)
        return cx

    # -- codec ----------------------------------------------------------

    def digits(self, cell: int) -> tuple[int, ...]:
        if not 0 <= cell < self.total_ids:
            raise NonMemberCellError(f"cell id {cell} out of range")
        out = []
        for _ in range(self.d):
            cell, r = divmod(cell, self.base)
            out.append(r)
        return tuple(out)

    def cell_id(self, digits: tuple[int, ...]) -> int:
        if len(digits) != self.d:
            raise ValueError(f"expected {self.d} digits")
        if any(not 0 <= c <= 2 * self.m for c in digits):
            raise ValueError(f"digit out of range in {digits}")
        return sum(c * p for c, p in zip(digits, self.pows))

    def intervals(self, cell: int) -> tuple[tuple[int, int], ...]:
        """Decode to explicit intervals (l, u) with u = l or l + 1."""
        return tuple(
            (c // 2, c // 2 + (c & 1)) for c in self.digits(cell)
        )

    def dim_of(self, cell: int) -> int:
        d = 0
        for _ in range(self.d):
            cell, r = cell // self.base, cell % self.base
            d += r & 1
        return d

    def anchor(self, cell: int) -> tuple[int, ...]:
        return tuple(c // 2 for c in self.digits(cell))

    def extent_mask(self, cell: int) -> int:
        """Extent bits, bit i-1 set when coordinate i is an edge interval."""
        mask = 0
        for i in range(self.d):
            cell, r = cell // self.base, cell % self.base
            mask |= (r & 1) << i
        return mask

    def anchor_base(self, cell: int) -> int:
        """Id of the anchor vertex of the fiber containing this cell."""
        base = 0
        for p in self.pows:
            r = cell % self.base
            cell //= self.base
            base += (r & ~1) * p
        return base

    def offsets(self) -> list[int]:
        """offsets()[mask] = id delta from a fiber's anchor vertex to the cell
        with that extent mask."""
        if self._offs is None:
            if self.d > 24:
                raise SizeGuardError(f"offset table for d={self.d} is too large")
            offs = [0] * (1 << self.d)
            for mask in range(1, 1 << self.d):
                low = mask & -mask
                offs[mask] = offs[mask ^ low] + self.pows[low.bit_length() - 1]
            self._offs = offs
        return self._offs

    # -- complex interface -----------------------------------------------

    @property
    def cell_count(self) -> int:
        if self.kind == "explicit":
            return len(self._members)  # type: ignore[arg-type]
        if self._excluded is not None:
            return self.total_ids - 1
        return self.total_ids

    @property
    def max_cell_dim(self) -> int:
        if self.kind == "full":
            return self.d
        if self.kind == "sphere":
            return self.d - 1
        if self.kind == "top_sphere":
            return self.d
        if self._max_dim_cache is None:
            self._max_dim_cache = max(
                (self.dim_of(c) for c in self._members), default=-1  # type: ignore[union-attr]
            )
        return self._max_dim_cache

    def cells(self) -> Iterator[int]:
        if self.kind == "explicit":
            return iter(sorted(self._members))  # type: ignore[arg-type]
        if self._excluded is None:
            return iter(range(self.total_ids))
        excl = self._excluded
        return (c for c in range(self.total_ids) if c != excl)

    def member_ids(self) -> np.ndarray:
        """All member cell ids, ascending, as int32 when every id fits, else int64."""
        if self.total_ids > np.iinfo(np.int64).max:
            raise SizeGuardError(f"cell ids of a {self.base}^{self.d} grid exceed int64")
        dtype = np.int32 if self.total_ids <= np.iinfo(np.int32).max else np.int64
        if self.kind == "explicit":
            ids = np.fromiter(self._members, dtype=dtype, count=len(self._members))  # type: ignore[arg-type]
            ids.sort()
            return ids
        ids = np.arange(self.total_ids, dtype=dtype)
        if self._excluded is not None:
            ids = np.delete(ids, self._excluded)
        return ids

    def is_member(self, cell: int) -> bool:
        if not 0 <= cell < self.total_ids:
            return False
        if self.kind == "explicit":
            return cell in self._members  # type: ignore[operator]
        return cell != self._excluded

    def dim(self, cell: int) -> int:
        self._require(cell)
        return self.dim_of(cell)

    def _boundary_raw(self, cell: int) -> list[int]:
        out = []
        rem = cell
        for p in self.pows:
            r = rem % self.base
            rem //= self.base
            if r & 1:
                out.append(cell - p)
                out.append(cell + p)
        out.sort()
        return out

    def boundary(self, cell: int) -> tuple[int, ...]:
        self._require(cell)
        return tuple(self._boundary_raw(cell))

    def coboundary(self, cell: int) -> tuple[int, ...]:
        self._require(cell)
        out = []
        rem = cell
        for p in self.pows:
            r = rem % self.base
            rem //= self.base
            if not r & 1:
                if r >= 2 and self.is_member(cell - p):
                    out.append(cell - p)
                if r <= 2 * self.m - 2 and self.is_member(cell + p):
                    out.append(cell + p)
        out.sort()
        return tuple(out)

    def _require(self, cell: int) -> None:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")

    # -- fibers ------------------------------------------------------------

    def fiber_members(self, anchor: tuple[int, ...]) -> list[int]:
        """Extent masks of member cells over an anchor, ascending."""
        allowed = 0
        for i, l in enumerate(anchor):
            if not 0 <= l <= self.m:
                raise NonMemberCellError(f"anchor {anchor} out of range")
            if l <= self.m - 1:
                allowed |= 1 << i
        if self.kind == "explicit":
            base = sum(2 * l * p for l, p in zip(anchor, self.pows))
            offs = self.offsets()
            out = []
            sub = 0
            while True:
                if base + offs[sub] in self._members:  # type: ignore[operator]
                    out.append(sub)
                if sub == allowed:
                    break
                sub = (sub - allowed) & allowed
            return out
        masks = []
        sub = 0
        while True:
            masks.append(sub)
            if sub == allowed:
                break
            sub = (sub - allowed) & allowed
        if self.kind == "sphere" and all(l == 0 for l in anchor):
            masks.pop()  # the excluded top cell is the final (full) mask
        elif self.kind == "top_sphere" and all(l == 1 for l in anchor):
            masks.pop()
        return masks

    def iter_fibers(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (anchor vertex id, member extent masks) for every nonempty
        fiber, in ascending anchor id order."""
        if self.kind == "explicit":
            groups: dict[int, list[int]] = {}
            for c in self._members:  # type: ignore[union-attr]
                groups.setdefault(self.anchor_base(c), []).append(c)
            for base in sorted(groups):
                masks = sorted(self.extent_mask(c) for c in groups[base])
                yield base, masks
            return
        n_anchor = self.m + 1
        for aidx in range(n_anchor ** self.d):
            rem = aidx
            base = 0
            anchor = []
            for p in self.pows:
                l = rem % n_anchor
                rem //= n_anchor
                anchor.append(l)
                base += 2 * l * p
            yield base, self.fiber_members(tuple(anchor))


def fiber_map(cx: CubicalComplex, cell: int) -> tuple[int, ...]:
    """Grade of a cell under the anchor grading: negated anchor coordinates.

    Cells map to the same value exactly when they share a fiber; the value
    order makes anchored sub-hypercubes the grade classes.
    """
    return tuple(-l for l in cx.anchor(cell))


def fiber_embed(cx: CubicalComplex, cell: int) -> int:
    """Embed a cell into the hypercube on d bits spanned by its extents.

    Bit i of the result (1-based from the left, as in :mod:`.hypercube`)
    is set when coordinate i of the cell is an edge interval, so the i-th
    hypercube template corresponds to toggling extent i here.
    """
    bits = 0
    d = cx.d
    for i, c in enumerate(cx.digits(cell), start=1):
        if c & 1:
            bits |= 1 << (d - i)
    return bits


def alpha(i: int, cell: int, cx: CubicalComplex) -> int:
    """Toggle the extent of coordinate i while keeping the anchor.

    Returns the toggled cell when it belongs to the complex, else the cell
    itself.  Restricted to any single fiber this is a hypercube template
    pulled back along the fiber embedding.
    """
    if not 1 <= i <= cx.d:
        raise ValueError(f"coordinate index {i} out of range 1..{cx.d}")
    cx._require(cell)
    p = cx.pows[i - 1]
    digit = (cell // p) % cx.base
    cand = cell - p if digit & 1 else cell + p
    if not digit & 1 and digit + 1 > 2 * cx.m:
        return cell
    return cand if cx.is_member(cand) else cell


def beta(i: int, cell: int, cx: CubicalComplex, grade_of: Callable[[int], int]) -> int:
    """Graded variant of :func:`alpha`: only move within one grade class."""
    cand = alpha(i, cell, cx)
    if cand != cell and grade_of(cand) != grade_of(cell):
        return cell
    return cand


def parse_top_cell_file(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Parse the top-cube list format.

    Line 1 holds ``d m``; every following non-comment line holds the d anchor
    coordinates of one top cube.  ``#`` starts a comment, blank lines are
    skipped.  Returns (m, d, anchors).
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty top-cube file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'd m', got {lines[0]!r}")
    try:
        d, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"header must be two integers, got {lines[0]!r}") from exc
    if d < 1 or m < 1:
        raise FormatError(f"need d >= 1 and m >= 1, got d={d} m={m}")
    anchors = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != d:
            raise FormatError(f"expected {d} coordinates per line, got {line!r}")
        try:
            anchor = tuple(int(x) for x in parts)
        except ValueError as exc:
            raise FormatError(f"non-integer coordinate in {line!r}") from exc
        anchors.append(anchor)
    if not anchors:
        raise FormatError("no top cubes listed")
    return m, d, anchors
