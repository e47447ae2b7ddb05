"""Relation-map variants.

Each relation owns a time-projection vector h (reducing n_t time coordinates
to one), a translation vector u, a diagonal scaling r and a scalar bias c.
The projection runs first, the endomorphism second, so u and r live on the
projected (1 + n_x)-dimensional submanifold.  The maps are applied by the
scoring kernel in `pseudoe.model`; the variant selects which of them are
active.
"""

from __future__ import annotations

import warnings
from enum import Enum

__all__ = ["Variant", "warn_if_time_not_shared"]


class Variant(str, Enum):
    """Which relation mechanisms are active.

    MT: time projection only (translation and scaling stay identity).
    DT: translation and scaling only (projection is the identity, n_t = 1).
    BOTH: projection followed by translation/scaling.

    `pseudoe.model.FROZEN` declares the tables each variant freezes and
    their identity values; initialization, validation, the backward pass and
    the optimizers all read it.
    """

    MT = "mt"
    DT = "dt"
    BOTH = "both"


def warn_if_time_not_shared(n_t: int, n_relations: int) -> None:
    """Warn when n_t >= n_relations, i.e. time coordinates are not shared across relations."""
    if n_t >= n_relations:
        warnings.warn(
            f"n_t={n_t} is not smaller than the number of relations ({n_relations}); "
            "time coordinates are normally shared across relations",
            stacklevel=3,
        )
