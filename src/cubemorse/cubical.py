"""Cubical complexes with digit-coded cells and anchor fibers.

A cell of a cubical complex with m intervals per axis and d coordinates is a
product of elementary intervals, one per coordinate: either a vertex [l, l] or
an edge [l, l+1].  Coordinate i is stored as a digit c_i in 0..2m, with
c = 2l for [l, l] and c = 2l + 1 for [l, l+1], and the cell id is the value
of the digit vector in base 2m+1 with coordinate 1 least significant.

A complex is one of two shapes.  A *grid* is the whole base**d id range,
optionally minus one excluded cell (the all-odd centre, for the spheres);
nothing is materialized, and membership, boundary and fiber queries are
answered from the codec.  An *explicit* complex stores its member ids in
``members``, a frozenset; a grid has ``members = None``.

The codec decodes a cell chunk by chunk rather than digit by digit.  The d
digits are split into chunks of k digits, k as large as base**k <= 4096
allows, and each chunk has lookup tables indexed by its value: the number of
odd digits, the extent bits, and the ascending powers of the odd digits
(with their sum).  A query then costs one ``divmod`` per chunk below the top
one, e.g. one for the 10-digit ids of ``sphere(9)``.  The tables are built
on first use and never exceed 4096 entries per chunk, whatever m is; a base
above 4096 gets one-digit chunks whose entries depend on parity alone.

The *fiber* of a cell is the set of cells sharing its anchor (the vector of
lower endpoints l).  Each fiber is a sub-hypercube spanned by the extent bits,
which is what makes hypercube template pairings applicable one fiber at a
time (:func:`alpha`, :func:`beta`).
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Callable, Iterator

import numpy as np

from .core import (
    CellComplexLike,
    FormatError,
    NonMemberCellError,
    SizeGuardError,
)

CLOSURE_CELL_GUARD = 100_000_000
TABLE_LIMIT = 4096  # most entries in one chunk table of the codec
ARRAY_CHUNK = 256  # cells per chunk of the array checks, which bounds their memory


class _ParityTable:
    """Chunk table of a one-digit chunk in a base too large to tabulate:
    every entry depends only on the parity of the digit."""

    __slots__ = ("pair",)

    def __init__(self, pair: list):
        self.pair = pair

    def __getitem__(self, r: int):
        return self.pair[r & 1]


class _DigitTables:
    """The codec's chunk tables for one grid (see the module docstring).

    ``mod`` is base**k.  Each of ``odd``, ``bits``, ``offs`` and ``pows`` is
    a pair (tables of the chunks below the top one, ascending; table of the
    top chunk): a cell id yields the lower chunk values by ``divmod`` with
    ``mod`` and leaves the top chunk's value as the last quotient.
    """

    __slots__ = ("mod", "odd", "bits", "offs", "pows")

    def __init__(self, base: int, pows: list[int]):
        d = len(pows)
        k = 1
        while k < d and base ** (k + 1) <= TABLE_LIMIT:
            k += 1
        self.mod = base ** k
        digits = range(base) if base <= TABLE_LIMIT else range(2)
        chunks: list[tuple[list, list, list, list]] = []
        for lo in range(0, d, k):
            odd, bits, pw = [0], [0], [()]
            for i in range(lo, min(d, lo + k)):
                b, p = 1 << i, pows[i]
                odd = [n + (c & 1) for c in digits for n in odd]
                bits = [x | b if c & 1 else x for c in digits for x in bits]
                pw = [ps + (p,) if c & 1 else ps for c in digits for ps in pw]
            tabs = (odd, bits, [sum(ps) for ps in pw], pw)
            if base > TABLE_LIMIT:
                tabs = tuple(_ParityTable(t) for t in tabs)
            chunks.append(tabs)
        *low, top = chunks
        self.odd, self.bits, self.offs, self.pows = (
            ([c[f] for c in low], top[f]) for f in range(4)
        )


class CubicalComplex(CellComplexLike):
    """See module docstring.  ``CubicalComplex(m, d)`` is the full grid;
    :meth:`sphere` and :meth:`top_sphere` exclude its centre cell, and
    :meth:`from_top_cells` and :meth:`from_cells` set ``members``."""

    def __init__(self, m: int, d: int):
        if m < 1 or d < 1:
            raise ValueError("need m >= 1 and d >= 1")
        self.m = m
        self.d = d
        self.base = 2 * m + 1
        self.pows = [self.base ** i for i in range(d)]
        self.total_ids = self.base ** d
        self.members: frozenset[int] | None = None
        self._excluded: int | None = None
        self._offs: list[int] | None = None
        self._tabs: _DigitTables | None = None
        self._counts_by_dim: list[int] | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls, m: int, d: int) -> "CubicalComplex":
        """All cells of the m-interval grid in d coordinates."""
        return cls(m, d)

    @classmethod
    def sphere(cls, d: int) -> "CubicalComplex":
        """Boundary-sphere of a single (d+1)-cube: every cell except the top one."""
        return cls._centre_removed(1, d)

    @classmethod
    def top_sphere(cls, d: int) -> "CubicalComplex":
        """A thickened d-sphere: the 3-per-axis grid in d+1 coordinates with the
        central top cube removed."""
        return cls._centre_removed(3, d)

    @classmethod
    def _centre_removed(cls, m: int, d: int) -> "CubicalComplex":
        if d < 1:
            raise ValueError("sphere dimension must be >= 1")
        cx = cls(m, d + 1)
        cx._excluded = cx.total_ids // 2  # m is odd: the centre has all digits odd
        return cx

    @classmethod
    def from_top_cells(
        cls,
        m: int,
        d: int,
        anchors: list[tuple[int, ...]],
        force: bool = False,
    ) -> "CubicalComplex":
        """Closure of a list of top cubes given by their anchor vectors.

        The closure is built as int64 id arrays, so a grid whose ids exceed
        int64 is refused with :class:`SizeGuardError`.
        """
        estimate = len(anchors) * 3 ** d
        if estimate > CLOSURE_CELL_GUARD and not force:
            raise SizeGuardError(
                f"closure estimate {estimate} cells exceeds {CLOSURE_CELL_GUARD}; "
                "pass force to override"
            )
        cx = cls(m, d)
        for a in anchors:
            if len(a) != d:
                raise FormatError(f"anchor {a} does not have {d} coordinates")
            if min(a) < 0 or max(a) > m - 1:
                raise FormatError(f"anchor {a} out of range 0..{m - 1}")
        if cx.total_ids > np.iinfo(np.int64).max:
            raise SizeGuardError(f"cell ids of a {cx.base}^{d} grid exceed int64")
        pows = np.array(cx.pows, dtype=np.int64)
        corners = np.array(anchors, dtype=np.int64).reshape(-1, d) @ (2 * pows)
        # every digit of a closure cell is 2a, 2a + 1 or 2a + 2
        steps = np.zeros(1, dtype=np.int64)
        for p in cx.pows:
            steps = (steps + np.array([0, p, 2 * p])[:, None]).ravel()
        ids = np.sort((corners[:, None] + steps).ravel())
        cx.members = frozenset(ids[np.diff(ids, prepend=-1) != 0].tolist())
        return cx

    @classmethod
    def from_cells(cls, m: int, d: int, cells: list[int]) -> "CubicalComplex":
        """Closure (under taking faces) of an arbitrary set of cell ids."""
        cx = cls(m, d)
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
        cx.members = frozenset(members)
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
        t = self._tabs or self._tables()
        low, top = t.odd
        mod = t.mod
        n = 0
        for odd in low:
            cell, r = divmod(cell, mod)
            n += odd[r]
        return n + top[cell]

    def anchor(self, cell: int) -> tuple[int, ...]:
        return tuple(c // 2 for c in self.digits(cell))

    def anchor_and_mask(self, cell: int) -> tuple[int, int]:
        """(id of the anchor vertex of the cell's fiber, extent mask of the
        cell) in one table pass; bit i-1 of the mask is set when coordinate
        i is an edge interval."""
        t = self._tabs or self._tables()
        (low_bits, top_bits), (low_offs, top_offs) = t.bits, t.offs
        mod = t.mod
        rem, mask, off = cell, 0, 0
        for bits, offs in zip(low_bits, low_offs):
            rem, r = divmod(rem, mod)
            mask |= bits[r]
            off += offs[r]
        return cell - off - top_offs[rem], mask | top_bits[rem]

    def _tables(self) -> _DigitTables:
        self._tabs = _DigitTables(self.base, self.pows)
        return self._tabs

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
        if self.members is not None:
            return len(self.members)
        return self.total_ids - (self._excluded is not None)

    @property
    def max_cell_dim(self) -> int:
        return len(self.counts_by_dim()) - 1

    def counts_by_dim(self) -> list[int]:
        """Member cells per dimension 0..max_cell_dim.

        Closed form for grids; an explicit complex counts its members in
        one int8 digit-parity pass over :meth:`member_ids`.  Computed once
        per complex.
        """
        if self._counts_by_dim is None:
            if self.members is not None:
                ids = self.member_ids()
                dims = np.zeros(ids.size, dtype=np.int8)
                for p in self.pows:
                    dims += (ids // p % self.base & 1).astype(np.int8)
                counts = np.bincount(dims, minlength=self.d + 1).tolist()
            else:
                # an i-cell picks i edge and d - i vertex digits
                m, d = self.m, self.d
                counts = [comb(d, i) * m ** i * (m + 1) ** (d - i) for i in range(d + 1)]
                if self._excluded is not None:
                    counts[self.dim_of(self._excluded)] -= 1
            while counts and counts[-1] == 0:
                counts.pop()
            self._counts_by_dim = counts
        return self._counts_by_dim

    def cells(self) -> Iterator[int]:
        if self.members is not None:
            return iter(sorted(self.members))
        excl = self._excluded
        if excl is None:
            return iter(range(self.total_ids))
        return (c for c in range(self.total_ids) if c != excl)

    def member_ids(self) -> np.ndarray:
        """All member cell ids, ascending, as int32 when every id fits, else int64."""
        if self.total_ids > np.iinfo(np.int64).max:
            raise SizeGuardError(f"cell ids of a {self.base}^{self.d} grid exceed int64")
        dtype = np.int32 if self.total_ids <= np.iinfo(np.int32).max else np.int64
        if self.members is not None:
            ids = np.fromiter(self.members, dtype=dtype, count=len(self.members))
            ids.sort()
            return ids
        ids = np.arange(self.total_ids, dtype=dtype)
        if self._excluded is not None:
            ids = np.delete(ids, self._excluded)
        return ids

    def is_member(self, cell: int) -> bool:
        if not 0 <= cell < self.total_ids:
            return False
        if self.members is not None:
            return cell in self.members
        return cell != self._excluded

    def dim(self, cell: int) -> int:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        return self.dim_of(cell)

    def _boundary_raw(self, cell: int) -> list[int]:
        t = self._tabs or self._tables()
        low, top = t.pows
        mod = t.mod
        rem, ps = cell, ()
        for pw in low:
            rem, r = divmod(rem, mod)
            ps += pw[r]
        ps += top[rem]
        return [cell - p for p in reversed(ps)] + [cell + p for p in ps]

    def _face_arrays(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The faces of each cell by the array face formula, flattened in
        :meth:`_boundary_raw`'s order: ``id - pows[i]`` for each odd digit i
        descending, then ``id + pows[i]`` ascending.

        Returns:
            (faces, owner, dims): faces as int64, owner[j] the index in
            ``ids`` of the cell of faces[j], dims the odd-digit counts.
        """
        ids = ids.astype(np.int64)
        odd = np.empty((ids.size, self.d), dtype=bool)
        rem = ids
        for i in range(self.d):
            quo = rem // self.base
            odd[:, i] = (rem - quo * self.base) & 1
            rem = quo
        pows = np.array(self.pows, dtype=np.int64)
        owner, col = np.nonzero(np.concatenate([odd[:, ::-1], odd], axis=1))
        faces = ids[owner] + np.concatenate([-pows[::-1], pows])[col]
        return faces, owner, odd.sum(axis=1)

    def _checked_faces(self, ids: np.ndarray, rows: bool = True):
        """The faces of ``ids`` by :meth:`_face_arrays` when :meth:`dim_of`,
        and :meth:`_boundary_raw` if ``rows``, called once per cell, return
        the same dims and faces; None when they do not, or raise."""
        faces, _, dims = self._face_arrays(ids)
        cells = ids.tolist()
        try:
            if list(map(self.dim_of, cells)) != dims.tolist():
                return None
            if not rows:
                return faces
            got = list(map(self._boundary_raw, cells))
            if list(map(len, got)) != (2 * dims).tolist():
                return None
            flat = np.fromiter(chain.from_iterable(got), dtype=np.int64, count=faces.size)
        except Exception:  # noqa: BLE001 - the per-cell walk raises or reports it
            return None
        return faces if np.array_equal(flat, faces) else None

    def _validates_clean(self) -> bool:
        """Whether :func:`cubemorse.core.validate_complex` finds no violation,
        decided by array passes over :meth:`member_ids` in chunks of
        ``ARRAY_CHUNK`` cells.

        Each member's :meth:`_boundary_raw` and :meth:`dim_of` are called
        once and must equal :meth:`_face_arrays`, the face formula
        (:meth:`_checked_faces`); every face must then be a member
        (``searchsorted`` in the member ids).  That is all the per-cell walk
        can find: closure makes every face a member, so every row and dim it
        reads is the formula's, and the formula's rows are ascending, one
        dimension lower and cancel in pairs (d∘d = 0).  False, for the
        per-cell walk, also when the ids exceed int64.
        """
        if self.total_ids > np.iinfo(np.int64).max:
            return False
        ids = self.member_ids()
        last = ids.size - 1
        for lo in range(0, ids.size, ARRAY_CHUNK):
            faces = self._checked_faces(ids[lo:lo + ARRAY_CHUNK])
            if faces is None or not np.array_equal(
                ids[np.minimum(np.searchsorted(ids, faces), last)], faces
            ):
                return False
        return True

    def boundary(self, cell: int) -> tuple[int, ...]:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        return tuple(self._boundary_raw(cell))

    def coboundary(self, cell: int) -> tuple[int, ...]:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
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

    # -- fibers ------------------------------------------------------------

    def fiber_members(self, anchor: tuple[int, ...]) -> list[int]:
        """Extent masks of member cells over an anchor, ascending."""
        allowed = 0
        for i, l in enumerate(anchor):
            if not 0 <= l <= self.m:
                raise NonMemberCellError(f"anchor {anchor} out of range")
            if l <= self.m - 1:
                allowed |= 1 << i
        masks = []
        sub = 0
        while True:
            masks.append(sub)
            if sub == allowed:
                break
            sub = (sub - allowed) & allowed
        if self.members is None and self._excluded is None:
            return masks
        base = sum(2 * l * p for l, p in zip(anchor, self.pows))
        offs = self.offsets()
        is_member = self.is_member
        return [s for s in masks if is_member(base + offs[s])]

    def iter_fibers(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (anchor vertex id, member extent masks) for every nonempty
        fiber, in ascending anchor id order."""
        if self.members is not None:
            groups: dict[int, list[int]] = {}
            for c in self.members:
                base, mask = self.anchor_and_mask(c)
                groups.setdefault(base, []).append(mask)
            for base in sorted(groups):
                yield base, sorted(groups[base])
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


def alpha(i: int, cell: int, cx: CubicalComplex) -> int:
    """Toggle the extent of coordinate i while keeping the anchor.

    Returns the toggled cell when it belongs to the complex, else the cell
    itself.  Restricted to any single fiber this is a hypercube template
    pulled back along the extent bits of the fiber.
    """
    if not 1 <= i <= cx.d:
        raise ValueError(f"coordinate index {i} out of range 1..{cx.d}")
    if not cx.is_member(cell):
        raise NonMemberCellError(f"cell {cell} is not a member")
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
