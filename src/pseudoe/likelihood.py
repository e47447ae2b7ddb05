"""Fermi-Dirac and triple Fermi-Dirac edge likelihoods, computed in log domain.

The single-factor likelihood is F_(tau,u,alpha)(x) = 1 / (exp((alpha*x - u)/tau) + 1).
The triple form takes the geometric mean of three factors,

    F = k * (F1 * F2 * F3)^(1/3),
    F1 = F_(tau1,u,1)(s^2),  F2 = F_(tau2,0,alpha)(-dt),  F3 = F_(tau2,0,alpha')(dt),

so that F1 concentrates probability inside the lightcone while alpha != alpha'
skews it between past and future, encoding edge direction.  A mixing weight
beta blends log F with the log of the same F1 factor evaluated on the
Wick-rotated (Euclidean) squared distance, interpolating between lightcone
and isotropic likelihood profiles.

With the prefactor k pinned to 1, every likelihood lies strictly inside (0, 1)
and the logit of it is always defined.  Exponents (alpha*x - u)/tau reach 1e4
at realistic temperatures, so everything is kept in log space via softplus and
log1p-style forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TfdParams",
    "softplus",
    "sigmoid",
    "log1mexp",
    "log_fd",
    "log_tfd",
    "log_interpolated",
    "logit_from_log",
]

_LOG_HALF = float(np.log(0.5))


@dataclass(frozen=True)
class TfdParams:
    """Parameters of the (interpolated) triple Fermi-Dirac likelihood.

    tau1 and tau2 are the temperatures of the distance and time factors,
    u the radius/margin of the distance factor, alpha and alpha_prime the
    slopes of the two time factors, beta the Riemannian mixing weight.
    k_scale is pinned to 1 so probabilities stay strictly inside (0, 1);
    any other prefactor would only shift the logit, which the bias terms
    absorb anyway.
    """

    tau1: float
    tau2: float
    u: float
    alpha: float
    alpha_prime: float
    beta: float = 0.0
    k_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.tau1 > 0 and self.tau2 > 0):
            raise ValueError(f"temperatures must be positive, got tau1={self.tau1}, tau2={self.tau2}")
        if self.u < 0:
            raise ValueError(f"u must be non-negative, got {self.u}")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.alpha_prime <= 1.0):
            raise ValueError(
                f"alpha and alpha_prime must lie in [0, 1], got {self.alpha}, {self.alpha_prime}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.k_scale != 1.0:
            raise ValueError("k_scale is fixed to 1")


def softplus(x):
    """log(1 + exp(x)), stable for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """1 / (1 + exp(-x)) without overflow warnings."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def log1mexp(x):
    """log(1 - exp(x)) for x < 0, switching forms at -log 2 for accuracy."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = x < -np.log(2.0)
    out[small] = np.log1p(-np.exp(x[small]))
    out[~small] = np.log(-np.expm1(x[~small]))
    return out if out.ndim else float(out)


def log_fd(x, tau, u=0.0, alpha=1.0):
    """Log Fermi-Dirac factor: log F = -softplus((alpha*x - u)/tau)."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = (alpha * np.asarray(x, dtype=np.float64) - u) / tau
    out = -softplus(z)
    return out if out.ndim else float(out)


def log_tfd(s2, dt, params: TfdParams):
    """Log of the triple Fermi-Dirac likelihood for squared interval s2 and time displacement dt.

    log F = log k + (1/3) [log F1(s2) + log F2(-dt) + log F3(dt)].
    """
    f1 = log_fd(s2, params.tau1, params.u, 1.0)
    f2 = log_fd(-np.asarray(dt, dtype=np.float64), params.tau2, 0.0, params.alpha)
    f3 = log_fd(dt, params.tau2, 0.0, params.alpha_prime)
    out = np.log(params.k_scale) + (f1 + f2 + f3) / 3.0
    return out if np.ndim(out) else float(out)


def log_interpolated(log_tfd_val, log_wick_fd_val, beta):
    """Weighted geometric mean in log domain: (1-beta)*log F + beta*log F~.

    beta=0 is the pure lightcone likelihood, beta=1 the pure Euclidean one.
    The Wick factor reuses tau1, u and unit slope from F1, evaluated on the
    Wick-rotated squared distance.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    out = (1.0 - beta) * np.asarray(log_tfd_val, dtype=np.float64) + beta * np.asarray(
        log_wick_fd_val, dtype=np.float64
    )
    return out if np.ndim(out) else float(out)


def logit_from_log(log_p):
    """logit(p) from log p: log p - log(1 - p), stable near p = 0 and p = 1.

    Requires log_p < 0, i.e. p strictly inside (0, 1); with k_scale = 1 every
    likelihood satisfies this.
    """
    log_p = np.asarray(log_p, dtype=np.float64)
    if np.any(log_p >= 0.0):
        raise ValueError("logit_from_log requires log_p < 0 (p strictly below 1)")
    out = log_p - log1mexp(log_p)
    return out if out.ndim else float(out)
