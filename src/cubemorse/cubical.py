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
``members``, one sorted read-only array (:meth:`CubicalComplex.member_ids`);
a grid has ``members = None``.  An explicit complex is *dense* when its id
range is at most ``_DENSE_SPAN`` times its member count, as the closures of
random top cubes are: it then also keeps a bool mask of its members over
the whole id range (``CubicalComplex._member_mask``), built on first use,
and is treated as a grid with that mask.  A *sparse* explicit complex,
such as a few cubes of a grid with 10^6 intervals per axis, keeps
``members`` alone.

Array passes address each member by its *slot*: on a grid or dense
explicit complex the id itself, so an array over the slots spans all ids;
on a sparse explicit complex its *position*, its index in ``members``.
One codec maps ids to slots and back (:meth:`CubicalComplex._locate`,
:meth:`CubicalComplex._ids_at`): by id it is the identity, membership read
from the mask or the excluded centre, so no id array is built and nothing
is searched; a sparse complex searches ``members``.

The codec is one face formula: the faces of a cell are ``id - pows[i]`` and
``id + pows[i]`` for each odd digit i (its edge [l, l+1] replaced by [l, l]
or [l+1, l+1]), and its dimension is the number of odd digits.  The scalar
queries (:meth:`CubicalComplex.dim_of`, ``anchor_and_mask``, ``boundary``)
loop over :meth:`CubicalComplex.digits`; the array passes
(``CubicalComplex._dims``, ``CubicalComplex._face_arrays``) apply the same
formula to id arrays, ``_WALK_CHUNK`` cells per call, for the flow walks
and a sparse explicit complex's closure check.  The sweep, the closure by
dilation, the closure check and ``verify``'s pair and flow-edge checks of a
grid or dense explicit complex read its ids as one digit array instead, by
slices (:func:`_digit_slices`).

The *fiber* of a cell is the set of cells sharing its anchor (the vector of
lower endpoints l).  Each fiber is a sub-hypercube spanned by the extent bits,
which is what makes hypercube template pairings applicable one fiber at a
time (:func:`alpha`, :func:`beta`).
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Callable, Iterator

import numpy as np

from .core import (
    CellComplexLike,
    FormatError,
    NonMemberCellError,
    SizeGuardError,
    _guard_size,
)

CLOSURE_CELL_GUARD = 100_000_000
# an explicit complex whose id range is at most this many times its member
# count is dense: slots by id, a member mask over the ids, closure by
# dilation and the grid's slice sweep.  Three is where the two paths
# crossed on random top cubes (d = 3, 5, 8; 5 * 10^4 to 2.5 * 10^6 cells)
# with a 4-byte rank table in place of the mask: up to three ids per
# member, homology ran 10-40% faster dense and peaked at most 14% above the
# sparse path, below it for d >= 5; at about four the table raised the
# peak 20-45% for a gain of 0-25%, and at six or more dense was no faster
_DENSE_SPAN = 3
# cells per face-array call of the array walks, and per chunk of the checks
# that look a sparse explicit complex's faces and partners up: a call has a
# fixed cost of tens of microseconds, and the bound keeps a pass over all
# members from building every face at once.  A grid or dense explicit
# complex checks closure, pairs and verify's flow edges by digit slices
_WALK_CHUNK = 4096


def _digit_slices(m: int, d: int) -> Iterator[tuple[tuple, tuple, tuple]]:
    """Per axis of a grid's Fortran-order id array, the indices of digits 2l + 1, 2l and 2l + 2, for l < m."""
    for axis in range(d):
        at = (slice(None),) * axis
        yield at + (slice(1, 2 * m, 2),), at + (slice(0, 2 * m - 1, 2),), at + (slice(2, 2 * m + 1, 2),)


def _lookup(ids: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, hit): the positions of ``keys`` in the ascending ``ids``, clipped
    to the last, and whether each key is there.  The keys are searched in
    the dtype of ``ids``, since a ``searchsorted`` of int64 keys into int32
    ids copies all of ``ids`` first; ``hit`` compares the uncast keys."""
    at = np.minimum(np.searchsorted(ids, keys.astype(ids.dtype, copy=False)), ids.size - 1)
    return at, ids[at] == keys


class CubicalComplex(CellComplexLike):
    """See module docstring.  ``CubicalComplex(m, d)`` is the full grid;
    :meth:`sphere` and :meth:`top_sphere` exclude its centre cell, and
    :meth:`from_top_cells` sets ``members``."""

    def __init__(self, m: int, d: int):
        if m < 1 or d < 1:
            raise ValueError("need m >= 1 and d >= 1")
        self.m = m
        self.d = d
        self.base = 2 * m + 1
        self.pows = [self.base ** i for i in range(d)]
        self.total_ids = self.base ** d
        fits = [t for t in (np.int32, np.int64) if self.total_ids <= np.iinfo(t).max]
        self._id_dtype = np.dtype(fits[0] if fits else object)  # of id arrays; object holds Python ints
        self.members: np.ndarray | None = None
        self._excluded: int | None = None
        self._offs: list[int] | None = None
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
        anchors: np.ndarray | list[tuple[int, ...]],
        force: bool = False,
    ) -> "CubicalComplex":
        """Closure of top cubes given by their anchors, (n, d) ints or tuples.

        When the grid's ids span at most ``_DENSE_SPAN`` times the closure
        estimate, the closure is a dilation: the top cubes are marked in a
        bool mask over all ids, and then, one axis at a time, each odd digit
        slice is ORed into its two even neighbours, so the marked set gains
        the faces that lower or raise that coordinate.  Otherwise every top
        cube's 3^d faces are listed as ids and sorted.  The closure is built
        as id arrays in the dtype of ``members``, so a grid whose ids exceed
        int64 is refused with :class:`SizeGuardError`.
        """
        _guard_size("this closure", len(anchors), 3, d, CLOSURE_CELL_GUARD, force)
        estimate = len(anchors) * 3 ** d
        cx = cls(m, d)
        try:  # checked as one array; any fault is named by the loop below
            tops = np.asarray(anchors, dtype=np.int64).reshape(-1, d)
            valid = len(tops) == len(anchors) and not ((tops < 0) | (tops > m - 1)).any()
        except (ValueError, OverflowError):
            valid = False
        if not valid:
            for a in map(tuple, anchors.tolist()) if isinstance(anchors, np.ndarray) else anchors:
                if len(a) != d:
                    raise FormatError(f"anchor {a} does not have {d} coordinates")
                if min(a) < 0 or max(a) > m - 1:
                    raise FormatError(f"anchor {a} out of range 0..{m - 1}")
            if cx._id_dtype.kind != "O":  # refused below; its anchors may not fit int64
                tops = np.array(anchors, dtype=np.int64).reshape(-1, d)
        if cx._id_dtype.kind == "O":
            raise SizeGuardError(f"cell ids of a {cx.base}^{d} grid exceed int64")
        pows = np.array(cx.pows, dtype=cx._id_dtype)
        corners = tops.astype(pows.dtype) @ (2 * pows)
        if cx.total_ids <= _DENSE_SPAN * estimate:
            mask = np.zeros(cx.total_ids, dtype=bool)
            mask[corners + pows.sum()] = True  # the top cubes: every digit odd
            grid = mask.reshape((cx.base,) * d, order="F")  # a view
            for odd, lo, hi in _digit_slices(m, d):
                grid[lo] |= grid[odd]
                grid[hi] |= grid[odd]
            cx.members = np.flatnonzero(mask).astype(cx._id_dtype)
        else:
            # every digit of a closure cell is 2a, 2a + 1 or 2a + 2 <= 2m: no sum overflows
            steps = np.zeros(1, dtype=pows.dtype)
            for p in pows:
                steps = (steps + np.array([0, p, 2 * p], dtype=pows.dtype)[:, None]).ravel()
            ids = np.sort((corners[:, None] + steps).ravel())
            cx.members = ids[np.diff(ids, prepend=-1) != 0]
        cx.members.flags.writeable = False
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
        return sum(c & 1 for c in self.digits(cell))

    def anchor(self, cell: int) -> tuple[int, ...]:
        return tuple(c // 2 for c in self.digits(cell))

    def anchor_and_mask(self, cell: int) -> tuple[int, int]:
        """(id of the anchor vertex of the cell's fiber, extent mask of the
        cell); bit i-1 of the mask is set when coordinate i is an edge
        interval."""
        mask = off = 0
        for i, (c, p) in enumerate(zip(self.digits(cell), self.pows)):
            if c & 1:
                mask |= 1 << i
                off += p
        return cell - off, mask

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
            return self.members.size
        return self.total_ids - (self._excluded is not None)

    @property
    def max_cell_dim(self) -> int:
        return len(self.counts_by_dim()) - 1

    def counts_by_dim(self) -> list[int]:
        """Member cells per dimension 0..max_cell_dim.

        Closed form for grids; an explicit complex counts the :meth:`_dims`
        of :meth:`member_ids`, 16 walk chunks at a time, so the digit
        temporaries stay small.  Computed once per complex.
        """
        if self._counts_by_dim is None:
            if self.members is not None:
                ids, step = self.member_ids(), 16 * _WALK_CHUNK
                total = np.zeros(self.d + 1, dtype=np.int64)
                for lo in range(0, ids.size, step):
                    total += np.bincount(self._dims(ids[lo:lo + step]), minlength=self.d + 1)
                counts = total.tolist()
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
            return iter(self.members.tolist())
        excl = self._excluded
        if excl is None:
            return iter(range(self.total_ids))
        return (c for c in range(self.total_ids) if c != excl)

    def member_ids(self) -> np.ndarray:
        """All member ids, ascending, int32 if every id fits, else int64; ``members`` if explicit."""
        if self._id_dtype.kind == "O":
            raise SizeGuardError(f"cell ids of a {self.base}^{self.d} grid exceed int64")
        if self.members is not None:
            return self.members
        ids = np.arange(self.total_ids - (self._excluded is not None), dtype=self._id_dtype)
        if self._excluded is not None:
            ids[self._excluded:] += 1  # in place, so one array of ids exists at a time
        return ids

    @cached_property
    def _member_mask(self) -> np.ndarray | None:
        """Of a dense explicit complex, a bool mask over every id of the
        grid, True at the members; None for a grid or a sparse explicit
        complex.  Built from ``members`` on first use."""
        ids = self.members
        if ids is None or self.total_ids > _DENSE_SPAN * ids.size:
            return None
        mask = np.zeros(self.total_ids, dtype=bool)
        mask[ids] = True
        return mask

    @property
    def _by_id(self) -> bool:
        """Whether a cell's slot in array passes is its id: on a grid or a
        dense explicit complex; on a sparse one it is the cell's position
        in ``members``."""
        return self.members is None or self._member_mask is not None

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slot, hit): the slot of each id of ``keys`` and whether it is a
        member; a missed key gets some valid slot.  The keys themselves when
        :attr:`_by_id`, ``hit`` read from :attr:`_member_mask` or the
        excluded centre; ``searchsorted`` in a sparse complex's ``members``."""
        if not self._by_id:
            return _lookup(self.members, keys)
        hit = (keys >= 0) & (keys < self.total_ids)
        if self._member_mask is not None:
            hit &= self._member_mask[np.where(hit, keys, 0)]
        elif self._excluded is not None:
            hit &= keys != self._excluded
        return np.where(hit, keys, 0), hit

    def _ids_at(self, slot: np.ndarray) -> np.ndarray:
        """The member ids at the slots ``slot``: the inverse of :meth:`_locate`."""
        return slot if self._by_id else self.members[slot]

    def _position(self, cell: int) -> int | None:
        """:meth:`_locate` of one id: its slot, or None for a non-member."""
        if not 0 <= cell < self.total_ids:
            return None
        if self.members is None:
            return None if cell == self._excluded else cell
        if self._member_mask is not None:
            return cell if self._member_mask[cell] else None
        at = int(self.members.searchsorted(self.members.dtype.type(cell)))  # a key of another dtype casts all ids
        return at if at < self.members.size and self.members[at] == cell else None

    def is_member(self, cell: int) -> bool:
        return self._position(cell) is not None

    def dim(self, cell: int) -> int:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        return self.dim_of(cell)

    def _boundary_raw(self, cell: int) -> list[int]:
        """The faces of a cell by the face formula, ascending, in
        :meth:`_face_arrays`' order; membership is not checked."""
        ps = [p for c, p in zip(self.digits(cell), self.pows) if c & 1]
        return [cell - p for p in reversed(ps)] + [cell + p for p in ps]

    def _odd_digits(self, ids: np.ndarray) -> np.ndarray:
        """(len(ids), d) bool: whether digit i of each id is odd, i.e.
        whether coordinate i + 1 of the cell is an edge: as the base is odd,
        iff ``q_i ^ q_{i+1}`` is, with ``q_i = id // base**i``.  Stored one
        digit per row, so each digit is written, and summed, contiguously."""
        odd = np.empty((self.d, ids.size), dtype=bool)
        q = ids
        for i in range(self.d):
            nxt = q // self.base
            odd[i] = (q ^ nxt) & 1
            q = nxt
        return odd.T

    def _dims(self, ids: np.ndarray) -> np.ndarray:
        """The dimension of each cell of ``ids``, its odd-digit count, as int8."""
        return self._odd_digits(ids).sum(axis=1, dtype=np.int8)

    def _face_arrays(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The faces of each cell by the face formula, flattened in
        :meth:`_boundary_raw`'s order: ``id - pows[i]`` for each odd digit i
        descending, then ``id + pows[i]`` ascending; read by the flow walks
        and by the closure check of a sparse explicit complex.

        Returns (faces, owner, dims): faces as int64, owner[j] the index in
        ``ids`` of the cell of faces[j], dims as :meth:`_dims`.
        """
        ids = ids.astype(np.int64)
        odd = self._odd_digits(ids)
        pows = np.array(self.pows, dtype=np.int64)
        owner, col = np.divmod(np.flatnonzero(np.concatenate([odd[:, ::-1], odd], axis=1)), 2 * self.d)
        faces = ids[owner] + np.concatenate([-pows[::-1], pows])[col]
        return faces, owner, odd.sum(axis=1, dtype=np.int8)

    def _validates_clean(self) -> bool:
        """Whether :func:`cubemorse.core.validate_complex` finds no violation:
        whether every face of every member is a member.  A grid or dense
        explicit complex checks its member mask (all ids but the excluded
        one, or :attr:`_member_mask` in place) by digit slices, a member at
        an odd digit 2l + 1 needing members at 2l and 2l + 2
        (:func:`_digit_slices`); a sparse one searches the faces of each
        ``_WALK_CHUNK`` members.

        That is all the per-cell walk can find: it reads :meth:`boundary`
        and :meth:`dim`, the face formula, whose rows are ascending, one
        dimension lower and cancel in pairs (d∘d = 0).  False, for the
        per-cell walk, also when the ids exceed int64.
        """
        if self.total_ids > np.iinfo(np.int64).max:
            return False
        if self._by_id:
            member = self._member_mask
            if member is None:
                member = np.ones(self.total_ids, dtype=bool)
                if self._excluded is not None:
                    member[self._excluded] = False
            grid, slices = member.reshape((self.base,) * self.d, order="F"), _digit_slices(self.m, self.d)
            return not any((grid[odd] & ~(grid[lo] & grid[hi])).any() for odd, lo, hi in slices)
        chunks = (self.members[lo:lo + _WALK_CHUNK] for lo in range(0, self.members.size, _WALK_CHUNK))
        return all(self._locate(self._face_arrays(ids)[0])[1].all() for ids in chunks)

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
        return [s for s in masks if self.is_member(base + offs[s])]

    def iter_fibers(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (anchor vertex id, member extent masks) for every nonempty
        fiber, in ascending anchor id order."""
        if self.members is not None:
            groups: dict[int, list[int]] = {}
            for base, mask in map(self.anchor_and_mask, self.members.tolist()):
                groups.setdefault(base, []).append(mask)
            yield from sorted(groups.items())  # ascending members give ascending masks
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


def _read_header(text: str, kind: str, names: str) -> tuple[int, int, list[str]]:
    """The two positive integers named ``names`` on the first line of a
    ``kind`` file that holds more than a comment, and the raw lines after
    it.  ``#`` starts a comment, blank lines are skipped."""
    lines = text.splitlines()
    data = ((i, s) for i, raw in enumerate(lines) if (s := raw.split("#", 1)[0].strip()))
    at, line = next(data, (0, ""))
    if not line:
        raise FormatError(f"empty {kind} file")
    head = line.split()
    if len(head) != 2:
        raise FormatError(f"header must be '{names}', got {line!r}")
    try:
        a, b = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"header must be two integers, got {line!r}") from exc
    if a < 1 or b < 1:
        na, nb = names.split()
        raise FormatError(f"need {na} >= 1 and {nb} >= 1, got {na}={a} {nb}={b}")
    return a, b, lines[at + 1:]


def _read_rows(raw: list[str], width: int, per: str, value: str, miscount: Callable) -> np.ndarray | list:
    """``width`` integers on each line of ``raw`` that holds more than a
    comment, as an (n, width) int64 array by ``np.loadtxt``, or as a list
    of tuples, as with a value past int64, by a loop that strips comments
    itself.  ``miscount(n)``, the error for n such lines or None, comes first."""
    if any(line.split("#", 1)[0].strip() for line in raw):  # loadtxt warns on no data
        try:
            rows = np.loadtxt(raw, dtype=np.int64, comments="#", ndmin=2)
            if rows.shape[1] == width and miscount(len(rows)) is None:
                return rows
        except ValueError:
            pass  # the lines below name the first bad one or keep ints past int64
    lines = [line for r in raw if (line := r.split("#", 1)[0].strip())]
    if (error := miscount(len(lines))) is not None:
        raise FormatError(error)
    out = []
    for line in lines:
        parts = line.split()
        if len(parts) != width:
            raise FormatError(f"expected {width} {per}, got {line!r}")
        try:
            out.append(tuple(int(x) for x in parts))
        except ValueError as exc:
            raise FormatError(f"non-integer {value} in {line!r}") from exc
    return out


def parse_top_cell_file(text: str) -> tuple[int, int, np.ndarray | list[tuple[int, ...]]]:
    """Parse the top-cube list format.

    Line 1 holds ``d m``; every following non-comment line holds the d anchor
    coordinates of one top cube.  ``#`` starts a comment, blank lines are
    skipped.  Returns (m, d, anchors), the anchors as an (n, d) int64 array,
    or as a list of tuples when only Python's ``int`` reads them, as with a
    coordinate past int64 (:meth:`CubicalComplex.from_top_cells` refuses
    such a grid by size).
    """
    d, m, body = _read_header(text, "top-cube", "d m")
    miscount = lambda n: None if n else "no top cubes listed"
    return m, d, _read_rows(body, d, "coordinates per line", "coordinate", miscount)
