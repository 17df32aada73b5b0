"""Cells of the n-dimensional hypercube encoded as n-bit integers.

A cell is an n-bit vector; position 1 is the leftmost (most significant) bit.
Dimension is the popcount, and the faces of a cell are obtained by clearing
one set bit at a time.  ``template(i, x, n)`` flips bit i and is a perfect
pairing of the full hypercube for each i; pulled back to a subcomplex it
fixes cells whose flip leaves the subcomplex.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .core import CellComplexLike, NonMemberCellError


def hdim(x: int) -> int:
    return x.bit_count()


def hboundary(x: int) -> tuple[int, ...]:
    """Faces of a hypercube cell: clear each set bit, ascending."""
    out = []
    bits = x
    while bits:
        low = bits & -bits
        out.append(x ^ low)
        bits ^= low
    out.reverse()
    return tuple(out)


def hcoboundary(x: int, n: int) -> tuple[int, ...]:
    """Cofaces within the full hypercube: set each unset bit, ascending."""
    out = []
    for p in range(n - 1, -1, -1):
        b = 1 << p
        if not x & b:
            out.append(x | b)
    out.sort()
    return tuple(out)


def template(i: int, x: int, n: int) -> int:
    """Flip bit i (1-based, counted from the left) of an n-bit cell."""
    if not 1 <= i <= n:
        raise ValueError(f"template index {i} out of range 1..{n}")
    return x ^ (1 << (n - i))


def to_string(x: int, n: int) -> str:
    if x < 0 or x >> n:
        raise ValueError(f"{x} is not an {n}-bit cell")
    return format(x, f"0{n}b")


def from_string(s: str) -> tuple[int, int]:
    """Parse a bit string; returns (cell, n)."""
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"not a bit string: {s!r}")
    return int(s, 2), len(s)


class HypercubeComplex(CellComplexLike):
    """The full hypercube on n bits, or a face-closed subcomplex of it.

    Args:
        n: number of bits (1 <= n <= 63).
        members: optional iterable of member cells.  Must be closed under
            taking faces; omitted means the full hypercube.
    """

    def __init__(self, n: int, members=None):
        if not 1 <= n <= 63:
            raise ValueError("n must be in 1..63")
        self.n = n
        if members is None:
            self._members: frozenset[int] | None = None
        else:
            mem = frozenset(int(m) for m in members)
            for x in mem:
                if x < 0 or x >> n:
                    raise NonMemberCellError(f"{x} is not an {n}-bit cell")
                for f in hboundary(x):
                    if f not in mem:
                        raise NonMemberCellError(
                            f"member {to_string(x, n)} has missing face {to_string(f, n)}"
                        )
            self._members = mem

    @property
    def cell_count(self) -> int:
        return (1 << self.n) if self._members is None else len(self._members)

    @property
    def max_cell_dim(self) -> int:
        if self._members is None:
            return self.n
        return max((hdim(x) for x in self._members), default=-1)

    def cells(self) -> Iterator[int]:
        if self._members is None:
            return iter(range(1 << self.n))
        return iter(sorted(self._members))

    def is_member(self, cell: int) -> bool:
        if cell < 0 or cell >> self.n:
            return False
        return self._members is None or cell in self._members

    def dim(self, cell: int) -> int:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        return hdim(cell)

    def boundary(self, cell: int) -> tuple[int, ...]:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        return hboundary(cell)

    def coboundary(self, cell: int) -> tuple[int, ...]:
        if not self.is_member(cell):
            raise NonMemberCellError(f"cell {cell} is not a member")
        return tuple(y for y in hcoboundary(cell, self.n) if self.is_member(y))

    def template_entries(self) -> list[Callable[[int], int]]:
        """The template sequence pulled back to this subcomplex.

        Entry i flips bit i when the flipped cell is still a member and fixes
        the cell otherwise; on the full hypercube it never fixes anything.
        """
        def make(i: int) -> Callable[[int], int]:
            def entry(x: int) -> int:
                y = template(i, x, self.n)
                return y if self.is_member(y) else x
            return entry

        return [make(i) for i in range(1, self.n + 1)]
