"""Geometry configuration: the metric signature and the optional time cylinder.

The squared interval, its Wick-rotated Euclidean counterpart and the
cylinder wrap are computed by the scoring kernel in `pseudoe.model`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_count

__all__ = ["Signature", "GeometryConfig"]


@dataclass(frozen=True)
class Signature:
    """Metric signature (n_t, n_x): number of timelike and spacelike dimensions."""

    n_t: int
    n_x: int

    def __post_init__(self) -> None:
        _check_count("n_t", self.n_t, 1)
        _check_count("n_x", self.n_x, 1)

    @property
    def dim(self) -> int:
        """Total embedding dimension n_t + n_x."""
        return self.n_t + self.n_x


@dataclass(frozen=True)
class GeometryConfig:
    """Signature plus optional compact (cylindrical) time of circumference C.

    A missing circumference means non-compact time: no wrapping is applied
    anywhere.  The winding integer of the identification t ~ t + a*C is
    never stored: the kernel wraps each time displacement onto [-C/2, C/2).
    """

    signature: Signature
    cylinder_circumference: float | None = None

    def __post_init__(self) -> None:
        c = self.cylinder_circumference
        if c is not None and not (np.isfinite(c) and c > 0):
            raise ValueError(f"cylinder circumference must be a positive real, got {c}")
