"""Tagged numeric results.

Every estimator in the library reports not just a number but what the
number is: an exact value, a certified upper bound (search over
decompositions / representations), or a certified lower bound (search
over admissible witnesses).  Sup-type searches can only certify LOWER
bounds, inf-type searches only UPPER bounds; code that silently promotes
one to the other is a bug.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class Tag(enum.Enum):
    EXACT = "EXACT"
    UPPER = "UPPER"
    LOWER = "LOWER"


@dataclass(frozen=True)
class BoundResult:
    """A value with a certification tag and an optional witness.

    value   -- the computed number
    tag     -- EXACT, UPPER or LOWER
    witness -- object realizing the bound (decomposition, ball element, ...)
    tol     -- for EXACT values obtained iteratively: the bracket width
               the iteration was run to (relative).  None for closed forms.
    """

    value: float
    tag: Tag
    witness: Any = None
    tol: Optional[float] = None

    def __float__(self) -> float:
        return float(self.value)
