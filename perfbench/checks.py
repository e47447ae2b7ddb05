"""Correctness checks the benchmark runs next to its timings.

Each check returns ``(ok, detail)``.  The references here are written from
the paper's formulas and do not call the package's kernel, so a speed-up
that changes the maths fails a check instead of only moving a number.
"""

from __future__ import annotations

import filecmp
import math
import os

import numpy as np

# score_many agrees with the reference phi to this relative tolerance (with an
# absolute floor of the same size for scores near 0).  Both are float64 but
# sum the n_x = 500 squared space terms in different orders; the differences
# seen at preset shapes are about 2e-15.
PHI_RTOL = 1e-9


def _softplus(z: float) -> float:
    return z + math.log1p(math.exp(-z)) if z > 0 else math.log1p(math.exp(z))


def reference_phi(params, h: int, k: int, t: int) -> float:
    """phi = logit(F_beta[(f_k . tau_k)(p_h), (g_k . tau_k)(p_t)]) + b_h + b_t + c_k, one triple."""
    n_t, tfd = params.n_t, params.tfd
    p_h, p_t = params.coords[h], params.coords[t]
    hk, u, r = params.rel_h[k], params.rel_u[k], params.rel_r[k]
    # tau_k: project the n_t time coordinates onto one time axis
    time_h, time_t = float(np.dot(hk, p_h[:n_t])), float(np.dot(hk, p_t[:n_t]))
    space_h, space_t = p_h[n_t:], p_t[n_t:]
    # f_k translates, g_k scales; the swapped assignment exchanges them
    if params.swap_transforms:
        time_h, space_h = r[0] * time_h, r[1:] * space_h
        time_t, space_t = time_t + u[0], space_t + u[1:]
    else:
        time_h, space_h = time_h + u[0], space_h + u[1:]
        time_t, space_t = r[0] * time_t, r[1:] * space_t
    dt = time_h - time_t
    c = params.geometry.cylinder_circumference
    if c is not None:
        dt = (dt + c / 2) % c - c / 2
    dx2 = float(sum((a - b) ** 2 for a, b in zip(space_h.tolist(), space_t.tolist())))
    s2, s2_wick = -dt * dt + dx2, dt * dt + dx2
    log_f1 = -_softplus((s2 - tfd.u) / tfd.tau1)
    log_f2 = -_softplus(tfd.alpha * -dt / tfd.tau2)
    log_f3 = -_softplus(tfd.alpha_prime * dt / tfd.tau2)
    log_wick = -_softplus((s2_wick - tfd.u) / tfd.tau1)
    log_p = (1 - tfd.beta) * (log_f1 + log_f2 + log_f3) / 3 + tfd.beta * log_wick
    logit = log_p - math.log(-math.expm1(log_p))
    return logit + params.node_bias[h] + params.node_bias[t] + params.rel_c[k]


def phi_matches_reference(params, triples: np.ndarray, score_many) -> tuple[bool, str]:
    got = score_many(params, triples[:, 0], triples[:, 1], triples[:, 2])
    want = np.array([reference_phi(params, *map(int, row)) for row in triples])
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    return bool(np.all(err <= PHI_RTOL)), f"{len(triples)} triples, max relative error {err.max():.2e}"


def brute_force_rank(params, triple, candidates: np.ndarray, score_many) -> tuple[float, int]:
    """Average-tie rank of the true tail among ``candidates``, all scored in
    one ``score_many`` call together with the true tail; also the tie count."""
    h, k, t = (int(v) for v in triple)
    tails = np.append(candidates, t)
    scores = score_many(params, np.full(tails.size, h), np.full(tails.size, k), tails)
    true_score, others = scores[-1], scores[:-1]
    ties = int(np.sum(others == true_score))
    return 1.0 + int(np.sum(others > true_score)) + 0.5 * ties, ties


def same_file_bytes(first, second) -> tuple[bool, str]:
    """A model saved, loaded and saved again must give the same bytes.

    Compared in chunks, so the check does not add two model copies to the
    run's peak memory."""
    same = filecmp.cmp(first, second, shallow=False)
    return same, f"{os.path.getsize(first)} bytes, identical={same}"


def top_k_is_sorted_prefix(scores: np.ndarray, top: np.ndarray) -> bool:
    """``top`` lists the highest scores in non-increasing order."""
    picked = scores[top]
    rest = np.delete(scores, top)
    return bool(np.all(picked[:-1] >= picked[1:]) and (rest.size == 0 or picked[-1] >= rest.max()))
