"""Test oracle: the score of one triple, composed step by step from the paper's formulas.

The library computes scores in one batched kernel (`pseudoe.model`).  These
plain numpy functions restate each step for a single triple, so the tests
can check the kernel against a composition that shares none of its code.
Their inputs come from tests, so they validate nothing.

A point is a pair (t, x): its time coordinates (n_t values, or one number
once projected) and its space coordinates.
"""

import numpy as np

from pseudoe.relmaps import Variant


def time_project(point, h):
    """(t, x) -> (h . t, x): the single-time submanifold selected by h."""
    t, x = point
    return float(np.dot(h, t)), x


def translate(point, u):
    """Translate a projected point by u over all 1 + n_x coordinates."""
    t, x = point
    return t + u[0], x + u[1:]


def scale(point, r):
    """Scale a projected point by the diagonal r over all 1 + n_x coordinates."""
    t, x = point
    return t * r[0], x * r[1:]


def relation_maps(head, tail, h, u, r, variant, swap=False):
    """Project both points, then translate the head and scale the tail.

    DT projects by taking the single time coordinate, MT applies no
    translation or scaling, and ``swap`` scales the head and translates the
    tail instead (the MuRE-style assignment).
    """
    if variant is Variant.DT:
        head, tail = (head[0][0], head[1]), (tail[0][0], tail[1])
    else:
        head, tail = time_project(head, h), time_project(tail, h)
    if variant is Variant.MT:
        return head, tail
    if swap:
        return scale(head, r), translate(tail, u)
    return translate(head, u), scale(tail, r)


def wrap_time(dt, c):
    """dt on a time circle of circumference c: its representative in [-c/2, c/2).

    The rounded quotient can leave dt - c * floor(dt / c + 0.5) just outside
    the interval at the seam; such a value is moved back by one turn.
    """
    w = dt - c * np.floor(dt / c + 0.5)
    return w + c if w < -c / 2 else w - c if w >= c / 2 else w


def squared_interval(dt, dx):
    """s^2 = -dt^2 + |dx|^2: negative timelike, zero lightlike, positive spacelike."""
    return -dt * dt + np.dot(dx, dx)


def wick_squared_distance(dt, dx):
    """dt^2 + |dx|^2: the squared distance under the Wick-rotated (Euclidean) metric."""
    return dt * dt + np.dot(dx, dx)


def log_fd(x, tau, u=0.0, alpha=1.0):
    """log F of the Fermi-Dirac factor F = 1 / (exp((alpha x - u) / tau) + 1)."""
    return -np.logaddexp(0.0, (alpha * np.asarray(x, dtype=np.float64) - u) / tau)


def log_tfd(s2, dt, tfd):
    """log of the triple Fermi-Dirac likelihood (F1(s2) F2(-dt) F3(dt))^(1/3), with k = 1."""
    dt = np.asarray(dt, dtype=np.float64)
    f1 = log_fd(s2, tfd.tau1, tfd.u)
    f2 = log_fd(-dt, tfd.tau2, 0.0, tfd.alpha)
    f3 = log_fd(dt, tfd.tau2, 0.0, tfd.alpha_prime)
    return (f1 + f2 + f3) / 3.0


def log_interpolated(log_f, log_f_wick, beta):
    """The beta mix (1 - beta) log F + beta log F~ of the lightcone and Wick likelihoods."""
    return (1.0 - beta) * log_f + beta * log_f_wick


def logit_from_log(log_p):
    """logit p = log p - log(1 - p), from log p < 0."""
    return log_p - np.log(-np.expm1(log_p))


def pipeline_score(params, h, k, t):
    """phi(h, k, t): relation maps, wrap, s^2 and the Wick distance, the
    beta-mixed likelihood, its logit and the three biases."""
    n_t = params.n_t
    head = (params.coords[h, :n_t], params.coords[h, n_t:])
    tail = (params.coords[t, :n_t], params.coords[t, n_t:])
    (t_h, x_h), (t_t, x_t) = relation_maps(
        head, tail, params.rel_h[k], params.rel_u[k], params.rel_r[k], params.variant, params.swap_transforms
    )
    dt, dx = t_h - t_t, x_h - x_t
    c = params.geometry.cylinder_circumference
    if c is not None:
        dt = wrap_time(dt, c)
    tfd = params.tfd
    log_f = log_tfd(squared_interval(dt, dx), dt, tfd)
    log_f_wick = log_fd(wick_squared_distance(dt, dx), tfd.tau1, tfd.u)
    logit = logit_from_log(log_interpolated(log_f, log_f_wick, tfd.beta))
    return logit + params.node_bias[h] + params.node_bias[t] + params.rel_c[k]
