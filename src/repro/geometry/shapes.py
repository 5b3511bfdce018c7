"""Points and axis-aligned rectangles in integer nanometres.

Shape records are slotted dataclasses that are not frozen: a cell
generator builds hundreds of them per layout, and a frozen dataclass
pays an ``object.__setattr__`` per field on every construction.  They
are values all the same, and code must not assign to a shape after it
is emitted.  :class:`Point` and :class:`Rect` keep a value hash because
verification reports deduplicate violations that carry them through
sets; a shape mutated inside such a set would corrupt it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import LayoutError


@dataclass(slots=True, order=True, unsafe_hash=True)
class Point:
    """A point on the layout grid (nm)."""

    x: int
    y: int

    def translated(self, dx: int, dy: int) -> "Point":
        """A copy moved by (dx, dy)."""
        return Point(self.x + dx, self.y + dy)


@dataclass(slots=True, unsafe_hash=True)
class Rect:
    """An axis-aligned rectangle ``[x0, x1] x [y0, y1]`` (nm).

    Degenerate (zero-width or zero-height) rectangles are allowed — they
    represent grid lines — but inverted ones are not.
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise LayoutError(
                f"inverted rectangle ({self.x0},{self.y0})..({self.x1},{self.y1})"
            )

    @classmethod
    def from_size(cls, x: int, y: int, width: int, height: int) -> "Rect":
        """Build from lower-left corner plus size."""
        return cls(x, y, x + width, y + height)

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) // 2, (self.y0 + self.y1) // 2)

    @property
    def aspect_ratio(self) -> float:
        """Width / height; infinity for zero-height rectangles."""
        if self.height == 0:
            return float("inf")
        return self.width / self.height

    def translated(self, dx: int, dy: int) -> "Rect":
        """A copy moved by (dx, dy)."""
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def expanded(self, margin: int) -> "Rect":
        """A copy grown by ``margin`` on every side."""
        return Rect(
            self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share any point."""
        return not (
            self.x1 < other.x0
            or other.x1 < self.x0
            or self.y1 < other.y0
            or other.y1 < self.y0
        )

    def overlaps(self, other: "Rect") -> bool:
        """True if the open interiors overlap (touching edges don't count)."""
        return not (
            self.x1 <= other.x0
            or other.x1 <= self.x0
            or self.y1 <= other.y0
            or other.y1 <= self.y0
        )

    def contains_point(self, p: Point) -> bool:
        """True if ``p`` lies inside or on the boundary."""
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both."""
        return Rect(
            min(self.x0, other.x0),
            min(self.y0, other.y0),
            max(self.x1, other.x1),
            max(self.y1, other.y1),
        )


def bounding_box(rects: Iterable[Rect]) -> Rect:
    """Bounding box of a non-empty collection of rectangles.

    One min/max pass over the corner coordinates; no intermediate
    rectangles are built.
    """
    it = iter(rects)
    first = next(it, None)
    if first is None:
        raise LayoutError("bounding box of an empty collection")
    x0, y0, x1, y1 = first.x0, first.y0, first.x1, first.y1
    for r in it:
        if r.x0 < x0:
            x0 = r.x0
        if r.y0 < y0:
            y0 = r.y0
        if r.x1 > x1:
            x1 = r.x1
        if r.y1 > y1:
            y1 = r.y1
    return Rect(x0, y0, x1, y1)
