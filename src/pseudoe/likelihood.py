"""Parameters and stable scalar helpers of the Fermi-Dirac edge likelihoods.

The single-factor likelihood is F_(tau,u,alpha)(x) = 1 / (exp((alpha*x - u)/tau) + 1).
The triple form takes the geometric mean of three factors,

    F = (F1 * F2 * F3)^(1/3),
    F1 = F_(tau1,u,1)(s^2),  F2 = F_(tau2,0,alpha)(-dt),  F3 = F_(tau2,0,alpha')(dt),

so that F1 concentrates probability inside the lightcone while alpha != alpha'
skews it between past and future, encoding edge direction.  A mixing weight
beta blends log F with the log of the same F1 factor evaluated on the
Wick-rotated (Euclidean) squared distance, interpolating between lightcone
and isotropic likelihood profiles.

The paper's prefactor k is 1 here, so every likelihood lies strictly inside
(0, 1) and the logit of it is always defined; any other k would only shift the
logit, which the bias terms absorb anyway.  Exponents (alpha*x - u)/tau reach 1e4
at realistic temperatures, so everything is kept in log space via softplus and
log1p-style forms.  `model._likelihood` implements the formulas above; this
module holds their parameters and the stable helpers it uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TfdParams", "softplus", "sigmoid", "log1mexp"]


@dataclass(frozen=True)
class TfdParams:
    """Parameters of the (interpolated) triple Fermi-Dirac likelihood.

    tau1 and tau2 are the temperatures of the distance and time factors,
    u the radius/margin of the distance factor, alpha and alpha_prime the
    slopes of the two time factors, beta the Riemannian mixing weight.
    """

    tau1: float
    tau2: float
    u: float
    alpha: float
    alpha_prime: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        # A NaN passes no comparison, and an infinite temperature or radius
        # turns every score into NaN.
        for name in ("tau1", "tau2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive real, got {value}")
        if not (np.isfinite(self.u) and self.u >= 0):
            raise ValueError(f"u must be a non-negative real, got {self.u}")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.alpha_prime <= 1.0):
            raise ValueError(
                f"alpha and alpha_prime must lie in [0, 1], got {self.alpha}, {self.alpha_prime}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


def softplus(x):
    """log(1 + exp(x)), stable for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """1 / (1 + exp(-x)) without overflow: exp(min(x, -x)) is exp(-x) at x >= 0,
    exp(x) below, and keeps a NaN's sign, which exp(-|x|) would flip."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))[()]


def log1mexp(x):
    """log(1 - exp(x)) for x < 0, switching forms at -log 2 for accuracy.  Each
    form runs on every element, clamped to its own side of the cut: unclamped,
    log1p(-exp(x)) warns at log1p(-1) wherever exp(x) rounds to 1."""
    x, cut = np.asarray(x, dtype=np.float64), -np.log(2.0)
    return np.where(x < cut, np.log1p(-np.exp(np.minimum(x, cut))), np.log(-np.expm1(np.maximum(x, cut))))[()]
