"""Block geometry: the 2-D wordline/bitline grid of Fig. 1 (right)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BlockGeometry"]


@dataclass(frozen=True)
class BlockGeometry:
    """Dimensions of a flash block as a 2-D cell array.

    Rows are wordlines (WL) and columns are bitlines (BL); the cell at
    ``(i, j)`` sits on wordline ``i`` and bitline ``j``.  Moving along a
    wordline (varying ``j``) gives WL-direction neighbours; moving along a
    bitline (varying ``i``) gives BL-direction neighbours.
    """

    num_wordlines: int = 64
    num_bitlines: int = 64

    def __post_init__(self):
        if self.num_wordlines < 1 or self.num_bitlines < 1:
            raise ValueError("block dimensions must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(num_wordlines, num_bitlines)``."""
        return (self.num_wordlines, self.num_bitlines)

    @property
    def num_cells(self) -> int:
        return self.num_wordlines * self.num_bitlines
