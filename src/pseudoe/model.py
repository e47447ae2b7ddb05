"""Model parameters and score functions.

The score of a triple (i, k, j) is

    phi = logit(F_beta[(f_k . tau_k)(p_i), (g_k . tau_k)(p_j)]) + b_i + b_j + c_k,

where F_beta is the beta-interpolated triple Fermi-Dirac likelihood, f_k the
head translation, g_k the tail scaling and tau_k the time projection.  Every
exact score has one body, `_score_rows`: the time map (`_time_map`, dt), the
space map (`_head_side` and `_space_map`, dx), the three biases and the
likelihood (`_likelihood`), over lists of tails that each belong to one
(head, relation) query.  Two drivers call it: `_forward` per triple, with
the head side once per distinct (head, relation) pair (`score_many`,
`score`, and the loss and backward pass in `training`), and `_score_ragged`
per candidate list, walked in tail-id order in blocks (`score_tails` is one
list; `evaluation` scores all lists of a ranking batch in one call).  The
certified screen `_screen` shares the time map and the likelihood and
expands the space map; only `_sides` reads which side each relation map
acts on.  The tests check the kernel against a step-by-step single-triple
oracle (`tests/reference.py`).

Also here: the one declaration of the six parameter tables and of what each
variant freezes (`TABLES`, `FROZEN`), parameter initialization, node-bias
scaling for degree debiasing and the binary checkpoint format.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .data import _check_ids
from .geometry import GeometryConfig, Signature
from .likelihood import TfdParams, log1mexp, sigmoid, softplus
from .relmaps import Variant, check_time_dimensions, warn_if_time_not_shared

__all__ = [
    "TABLES",
    "FROZEN",
    "InitConfig",
    "ModelParams",
    "init",
    "score",
    "score_many",
    "score_tails",
    "probability",
    "scale_node_bias",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"PSEUDOE1"

_VARIANT_CODES = {Variant.MT: 0, Variant.DT: 1, Variant.BOTH: 2}
_VARIANT_FROM_CODE = {v: k for k, v in _VARIANT_CODES.items()}
_SWAP_BIT = 1 << 3


# The six parameter tables in checkpoint order, each with the id that keys
# its rows.
TABLES = (
    ("coords", "entity"),
    ("node_bias", "entity"),
    ("rel_u", "relation"),
    ("rel_r", "relation"),
    ("rel_h", "relation"),
    ("rel_c", "relation"),
)

# The relation tables each variant freezes, with their identity value: MT
# models a relation as its own time projection, so translation and scaling
# stay identity; DT models it as translation and scaling only, so the
# projection stays identity (on n_t = 1).  Frozen tables never change.
FROZEN = {
    Variant.MT: {"rel_u": 0.0, "rel_r": 1.0},
    Variant.DT: {"rel_h": 1.0},
    Variant.BOTH: {},
}


def _table_shapes(n_entities: int, n_relations: int, signature: Signature) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter table, in checkpoint order: one row per key."""
    rows = {"entity": n_entities, "relation": n_relations}
    columns = {
        "coords": (signature.dim,),
        "rel_u": (1 + signature.n_x,),
        "rel_r": (1 + signature.n_x,),
        "rel_h": (signature.n_t,),
    }
    return {name: (rows[key], *columns.get(name, ())) for name, key in TABLES}


@dataclass(frozen=True)
class InitConfig:
    """Initialization scale and seed."""

    sigma_init: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sigma_init > 0:
            raise ValueError(f"sigma_init must be positive, got {self.sigma_init}")


@dataclass
class ModelParams:
    """All trainable state plus the fixed geometry/likelihood configuration.

    coords holds one row per entity, time coordinates first (n_t columns)
    then space (n_x).  Relation tables are row-per-relation: rel_u and rel_r
    over the projected 1 + n_x coordinates, rel_h over the n_t time
    coordinates.  The tables `FROZEN` lists for the variant hold their
    identity values and are never trained.
    """

    coords: np.ndarray
    node_bias: np.ndarray
    rel_u: np.ndarray
    rel_r: np.ndarray
    rel_h: np.ndarray
    rel_c: np.ndarray
    tfd: TfdParams
    geometry: GeometryConfig
    variant: Variant
    swap_transforms: bool = False

    @property
    def n_entities(self) -> int:
        return self.coords.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel_c.shape[0]

    @property
    def n_t(self) -> int:
        return self.geometry.signature.n_t

    @property
    def n_x(self) -> int:
        return self.geometry.signature.n_x

    @property
    def trained_tables(self) -> tuple[tuple[str, str], ...]:
        """The (name, key) pairs of `TABLES` that the variant trains."""
        return tuple(table for table in TABLES if table[0] not in FROZEN[self.variant])

    def validate(self) -> None:
        sig = self.geometry.signature
        for name, shape in _table_shapes(self.n_entities, self.n_relations, sig).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            # min and max propagate NaN and +-inf: no table-sized mask
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise ValueError(f"{name} contains non-finite values")
        check_time_dimensions(self.variant, sig.n_t)
        for name, value in FROZEN[self.variant].items():
            if not np.all(getattr(self, name) == value):
                raise ValueError(f"{self.variant.name} variant requires {name} frozen at {value:g}")

    def copy(self) -> "ModelParams":
        """Deep copy of all parameter arrays (configuration is shared, it is immutable)."""
        return replace(self, **{name: getattr(self, name).copy() for name, _ in TABLES})


def init(
    n_entities: int,
    n_relations: int,
    geometry: GeometryConfig,
    variant: Variant | str,
    init_cfg: InitConfig,
    tfd: TfdParams | None = None,
    swap_transforms: bool = False,
) -> ModelParams:
    """Draw fresh parameters: coordinates and translations N(0, sigma^2),
    projections N(0, 1/n_t), scalings exactly 1, biases 0.

    Tables the variant freezes start at their identity values instead of
    being sampled.  Deterministic given the seed.  ``variant`` may be given
    by its value, e.g. ``"dt"``.
    """
    variant = Variant(variant)
    sig = geometry.signature
    if "rel_h" not in FROZEN[variant]:  # one learned time projection per relation
        warn_if_time_not_shared(sig.n_t, n_relations)
    rng = np.random.default_rng(init_cfg.seed)
    scales = {"coords": init_cfg.sigma_init, "rel_u": init_cfg.sigma_init, "rel_h": np.sqrt(1.0 / sig.n_t)}
    fills = {"node_bias": 0.0, "rel_r": 1.0, "rel_c": 0.0, **FROZEN[variant]}
    # Sampled in table order: coordinates, then translations and projections
    # unless the variant freezes them.
    tables = {
        name: np.full(shape, fills[name]) if name in fills else rng.normal(0.0, scales[name], size=shape)
        for name, shape in _table_shapes(n_entities, n_relations, sig).items()
    }
    params = ModelParams(
        **tables,
        tfd=tfd if tfd is not None else TfdParams(tau1=1.0, tau2=1.0, u=0.0, alpha=0.5, alpha_prime=1.0),
        geometry=geometry,
        variant=variant,
        swap_transforms=swap_transforms,
    )
    params.validate()
    return params


def _sides(params: ModelParams, head, tail):
    """The translated (f_k) side, the scaled (g_k) side and the sign of dt.

    By default f_k translates the head and g_k scales the tail: ``(head, tail,
    1)``.  The swapped assignment is the default one on the exchanged pair with
    dt negated, ``(tail, head, -1)``, bit for bit, because ``a - b == -(b - a)``
    in IEEE floats.  dx needs no sign: |dx|^2 does not see it, and the backward
    pass differentiates the same map.  The exchange is its own inverse, so it
    also maps per-side results back to head and tail.
    """
    return (tail, head, -1) if params.swap_transforms else (head, tail, 1)


def _wrap(dt, c: float | None):
    """dt wrapped onto [-c/2, c/2) on a time cylinder of circumference c.

    The quotient dt / c is rounded, so at the seam dt - c * floor(dt / c +
    0.5) can land just outside the interval.  Only such values are shifted
    by c, in place: there c/2 <= |w| <= 2c, so the shift is exact (Sterbenz),
    and every in-range value keeps its bits, -0.0 included.
    """
    if c is None:
        return dt
    w = np.asarray(dt - c * np.floor(dt / c + 0.5))
    np.add(w, c, out=w, where=w < -c / 2)
    np.subtract(w, c, out=w, where=w >= c / 2)
    return w


# Rows per block of every (rows x n_x) loop: `_space_map`, and through it
# every exact score (`_score_rows`), and in `training` the sums of `_Segments`
# and the row updates of the three optimizers.  On a 2-vCPU host, one
# Hetionet-shape list over every entity (12,733 tails, n_x = 200) took a
# median 4.6-4.7 ms at 128 rows against 5.3 ms at 64, and 1,000 lists of 81
# took 27-28 ms against 31; 256 rows was no faster, and at WN18RR shape
# (40,943 tails, n_x = 500) all three took 23-25 ms.  Any size gives the same
# bits.
_TAIL_BLOCK = 128

# Threads that share out the blocks of a row-block loop (`_in_shares`): the
# CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Rows narrower than this many values stay on the calling thread: two
# threads pass the interpreter lock at every numpy call, and the shorter the
# calls, the more that costs.  The cost also changes with the host's state.
# On a 2-vCPU host, `score_tails` over 12,733 tails took a median 0.84x as
# long on two threads as on one at 200 columns and 0.68x at 500.  But for
# stretches of a few seconds, about one in twenty, every shared call slowed
# down, and the ratio was 1.53x at 200, 1.31x at 300, 1.11x at 400 and 0.96x
# at 500.  A WN18RR-shape SM3 step and rank query (501 and 500 columns) took
# 0.65x usually and 1.03x in those stretches.  Rows this wide lose at most
# a few percent in those stretches, where narrower ones lost up to half.
_SHARED_WIDTH = 500


def _new_pool() -> None:
    """Make `_POOL`, the threads that run the shares after the first: at
    import, and again in a forked child, which inherits none of its threads.
    The executor starts a thread only when a task finds none idle, and
    `_in_shares` hands it at most `_WORKERS` - 1 tasks at a time."""
    global _POOL
    _POOL = ThreadPoolExecutor(thread_name_prefix="pseudoe")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _in_shares(work, items, width: int) -> list:
    """``[work(share) for share in shares]``, where the shares deal the
    independent pieces of work in ``items``, blocks of rows ``width`` values
    wide or the screen's queries over ``width`` entities, out to at most
    `_WORKERS` threads, round robin: share i is ``items[i::n]``, so a list
    sorted by size splits evenly, and each share keeps the items' order.

    The calling thread runs share 0 and `_POOL` runs the others.  With one
    item or one CPU, or rows narrower than `_SHARED_WIDTH`, ``work(items)``
    runs inline as the one share.
    Every share has finished when this returns or raises, and a share's
    exception is raised here.  ``work`` must not call `_in_shares` itself.
    Each item is computed whole by one thread, so the result does not depend
    on how many threads there are or how they are scheduled.
    """
    n = min(_WORKERS, len(items)) if width >= _SHARED_WIDTH else 1
    if n <= 1:
        return [work(items)]
    futures = [_POOL.submit(work, items[i::n]) for i in range(1, n)]
    try:
        first = work(items[0::n])
    finally:
        wait(futures)
    return [first, *(future.result() for future in futures)]


def _forward(params: ModelParams, heads, rels, tails, dx=None):
    """`_score_rows` of triples (heads[b], rels[b], tails[b]), with the head
    side computed once per distinct (head, relation) pair: the negatives of a
    positive share it in tail-only mode.  dx is written into ``dx`` when
    given, as `_space_map` does."""
    heads = np.asarray(heads, dtype=np.intp)
    rels = np.asarray(rels, dtype=np.intp)
    tails = np.asarray(tails, dtype=np.intp)
    pairs, pair_of_row = np.unique(heads * params.n_relations + rels, return_inverse=True)
    pair_heads, pair_rels = np.divmod(pairs, params.n_relations)
    return _score_rows(params, pair_heads, pair_rels, tails, pair_of_row, dx)


def _score_rows(params: ModelParams, heads, rels, tails, lists, dx=None):
    """The one body of an exact score, of triples (heads[lists[j]],
    rels[lists[j]], tails[j]): each (heads[q], rels[q]) query owns a list of
    tails.  Returns `_time_map`'s scaled-side projection and dt, then
    `_likelihood`'s z1, z2, z3, zw, log p and phi; dx is written into ``dx``
    when given, as `_space_map` does."""
    scaled_proj, dt = _time_map(params, heads, rels, tails, lists)
    dx2 = _space_map(params, _head_side(params, heads, rels), rels, tails, lists, dx)
    head_bias, rel_bias = params.node_bias[heads][lists], params.rel_c[rels][lists]
    return (scaled_proj, dt, *_likelihood(params.tfd, dt, dx2, head_bias, params.node_bias[tails], rel_bias))


def _time_map(params: ModelParams, heads, rels, tails, lists):
    """The scaled side's time projection and the wrapped time displacement dt
    of triples (heads[lists[j]], rels[lists[j]], tails[j]).

    Each (heads[q], rels[q]) query owns one list of tails; its relation rows
    and the head's projection are computed once and gathered per tail.  dt
    is the time map of the translated side minus that of the scaled side,
    (p_a + u) - r * p_b, with the sign of `_sides`.  For one query,
    ``tails`` and ``lists`` may both be ``slice(None)``, every entity as its
    one list: numpy broadcasts the relation row over a view of the table's
    time columns, with the same bits, and a head projection stays one value.
    """
    n_t = params.n_t
    h = params.rel_h[rels]
    head_proj = np.einsum("bi,bi->b", h, params.coords[heads, :n_t])[lists]
    tail_proj = np.einsum("bi,bi->b", h[lists], params.coords[tails, :n_t])
    proj_a, proj_b, sign = _sides(params, head_proj, tail_proj)
    u_t, r_t = params.rel_u[rels, 0][lists], params.rel_r[rels, 0][lists]
    dt = sign * ((proj_a + u_t) - r_t * proj_b)
    return proj_b, _wrap(dt, params.geometry.cylinder_circumference)


def _head_side(params: ModelParams, heads, rels):
    """The head's side of the space map: x_h + u, or x_h * r when swapped."""
    (op, table), _, _ = _sides(params, (np.add, params.rel_u), (np.multiply, params.rel_r))
    return op(params.coords[heads, params.n_t :], table[rels, 1:])


def _space_map(params: ModelParams, head_side, rels, tails, lists, dx=None):
    """|dx|^2 of tails[j] against query lists[j], whose head side is
    head_side[lists[j]] and relation rels[lists[j]]: dx is the space map of
    the translated side minus that of the scaled side, (x_a + u) - r * x_b,
    by `_sides`.  It is written into ``dx``, (len(tails), n_x), when given.

    The rows are mapped in `_TAIL_BLOCK`-row blocks, which stay in cache,
    shared out by `_in_shares`.  Each block gathers its tail rows into a
    fresh array, where dx is formed unless ``dx`` is given, and its relation
    rows, then its head sides, into one scratch block allocated once per
    share: ``np.take`` gathers into it from a contiguous copy of the relation
    tables' space columns, so that every operand stays contiguous (numpy's
    loops over strided rows took about 2.5x as long).
    """
    _, (op, table), _ = _sides(params, (np.add, params.rel_u), (np.multiply, params.rel_r))
    n_t, relation_rows = params.n_t, np.ascontiguousarray(table[:, 1:])
    dx2 = np.empty(tails.size)

    def map_blocks(starts):
        scratch = np.empty((min(_TAIL_BLOCK, tails.size), params.n_x))
        for start in starts:
            block = slice(start, start + _TAIL_BLOCK)
            queries = lists[block]
            tail_side, rows = params.coords[tails[block], n_t:], scratch[: queries.size]
            out = tail_side if dx is None else dx[block]
            op(tail_side, np.take(relation_rows, rels[queries], axis=0, out=rows, mode="clip"), out=out)
            translated, scaled, _ = _sides(params, np.take(head_side, queries, axis=0, out=rows, mode="clip"), out)
            np.subtract(translated, scaled, out=out)
            np.einsum("bi,bi->b", out, out, out=dx2[block])

    _in_shares(map_blocks, range(0, tails.size, _TAIL_BLOCK), params.n_x)
    return dx2


def _likelihood(tfd: TfdParams, dt, dx2, head_bias, tail_bias, rel_bias):
    """Fermi-Dirac exponents z1, z2, z3, zw, the interpolated log-likelihood
    and the score phi, from the wrapped time displacement ``dt``, the squared
    space displacement ``dx2`` and the three biases."""
    s2 = -dt * dt + dx2
    s2w = dt * dt + dx2

    z1 = (s2 - tfd.u) / tfd.tau1
    z2 = -tfd.alpha * dt / tfd.tau2
    z3 = tfd.alpha_prime * dt / tfd.tau2
    zw = (s2w - tfd.u) / tfd.tau1
    log_f = -(softplus(z1) + softplus(z2) + softplus(z3)) / 3.0
    log_fw = -softplus(zw)
    log_p = (1.0 - tfd.beta) * log_f + tfd.beta * log_fw

    phi = log_p - log1mexp(log_p) + head_bias + tail_bias + rel_bias
    return z1, z2, z3, zw, log_p, phi


def score_many(params: ModelParams, heads, rels, tails) -> np.ndarray:
    """Scores for parallel arrays of head, relation and tail ids."""
    _check_ids(params, heads, rels, tails)
    return _forward(params, heads, rels, tails)[-1]


def score(params: ModelParams, head: int, rel: int, tail: int) -> float:
    """Score of a single triple."""
    return float(score_many(params, [head], [rel], [tail])[0])


def score_tails(params: ModelParams, head: int, rel: int, tails) -> np.ndarray:
    """Scores of (head, rel, t) for every candidate tail id in ``tails``.

    One list of `_score_ragged`: bit-identical to `score_many` on the same
    triples, with the head and relation side computed once and the candidates
    walked in tail-id order.
    """
    tails = np.asarray(tails).reshape(-1)
    _check_ids(params, head, rel, tails)
    return _score_ragged(params, [head], [rel], tails, np.zeros(tails.size, dtype=np.intp))


# Candidates per `_score_rows` call of `_score_ragged`, a multiple of
# `_TAIL_BLOCK`, so that the temporaries stay the same however many
# candidates are scored: with its sort order and scores, `_score_ragged` of
# 2^17 candidates at n_x = 500 peaked at 22 MiB at n_t = 1 or 2 and 88 MiB at
# n_t = 41, where the time rows of each candidate are gathered (tracemalloc).
_CANDIDATE_BATCH = 1 << 17


def _score_ragged(params: ModelParams, heads, rels, tails, lists) -> np.ndarray:
    """Scores of (heads[lists[j]], rels[lists[j]], tails[j]): each
    (heads[q], rels[q]) query owns a list of tails, of any length.

    Bit-identical to `score_many` on the same triples: both are
    `_score_rows`, here with `_head_side` computed once per list.  The
    candidates are scored in the order of their tail ids, in
    `_TAIL_BLOCK`-row blocks, so that the entity table is read front to back
    (by each thread, when `_space_map` shares the blocks out) and only the
    small per-list table is read at random.  At Hetionet shape (1,000 lists
    of 81 over 12,733 entities, 2-vCPU host) candidates taken in list order
    gathered table rows at random from the shared last-level cache, and the
    time of a split followed the load other processes put on that cache: it
    was slower and its spread from one stretch of seconds to the next about
    twice as wide.  The sorted candidates are scored in slices of
    `_CANDIDATE_BATCH`; every candidate's score is computed on its own, so
    the slices move no bit.
    """
    heads = np.asarray(heads, dtype=np.intp)
    rels = np.asarray(rels, dtype=np.intp)
    tails, lists = np.asarray(tails, dtype=np.intp), np.asarray(lists, dtype=np.intp)
    order = np.argsort(tails)
    phi = np.empty(tails.size)
    for start in range(0, tails.size, _CANDIDATE_BATCH):
        picked = order[start : start + _CANDIDATE_BATCH]
        phi[picked] = _score_rows(params, heads, rels, tails[picked], lists[picked])[-1]
    return phi


# Entity rows per block of the screen's pass over the space columns.  At
# WN18RR shape (n_t + n_x = 501) a block of 256 rows and its square take 1 MB
# each, so the square is still in a core's 2 MB L2 when the second matrix
# product reads it; at 1,024 rows they took 4 MB each and the square was read
# back from L3.  On a 2-vCPU host (2 MB L2 per core), the pass and the first
# query of a 3-query screen took a median 38.5 ms at 256 rows, against 40 at
# 128, 57 at 512 and 52 at 1,024; at 64 queries, where the products dominate,
# every size took 85-115 ms.  Any size gives the same ranks.
_SCREEN_BLOCK = 256

# The unit roundoff eps of float64, and the factor by which the margin of
# `_screen` covers the rounding of the likelihood functions (a few ulps
# each for exp, log, log1p and expm1, over a dozen dependent operations).
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_LIBM_ULPS = 64.0


def _screen(params: ModelParams, heads, rels):
    """One pass over the entity table for the queries (heads[q], rels[q]),
    returning ``screen(q)``: query q's approximate score of every entity as
    its tail and a margin, ``(phi, margin)`` arrays over all entities such
    that the exact score (`score_tails`) lies within ``margin`` of ``phi``.

    ``screen`` finishes query q's part of the pass in place, so it is called
    once per query; calls for different queries are independent and may run
    on different threads (`evaluation._screened` shares them out with
    `_in_shares`); they call neither `_in_shares` nor BLAS.

    *The expansion.*  Let H be the query's head side, fl(x_h + u) or, when
    swapped, fl(x_h * r), which the kernel computes bit for bit
    (`_head_side`), and (u_c, s) the candidate c's own map: (0, r) by default,
    where the kernel forms H - r * x_c, and (u, 1) when swapped, where it
    forms (x_c + u) - H.  Up to sign both are dx = p - q with p = fl(H) - u_c
    shared by the query and q = s * x_c, so |dx|^2 = |p|^2 - 2 (s * p) . x_c
    + (s * s) . (x_c * x_c).  `_sides` gives (u_c, s) and the key of the
    weight rows s * s: the relation by default, one row of ones when swapped.

    One pass over the entity table in `_SCREEN_BLOCK`-row blocks computes the
    cross terms of every query as one matrix product, and the squared rows
    times each distinct weight row as another; no (N, n_x) temporary is
    formed.  dt and the biases are the kernel's own: `_time_map`, with every
    entity as one list (``slice(None)``), and the same tables.

    *The rounding bound.*  With eps = 2^-53 the unit roundoff and gamma_k =
    k eps / (1 - k eps), a dot product of length n computed in any order,
    with or without FMA, is within gamma_n sum |a_i b_i| of the exact one.
    Let P = |p| + |q| + |u|.  The kernel rounds each coordinate of dx twice
    (the product or sum, then the difference), each within eps (|p_i| + |q_i|
    + |u_i|), then sums the squares: its |dx|^2 is within (4 eps + gamma_n)
    sum (|p_i| + |q_i| + |u_i|)^2 <= gamma_(n+4) P^2 of the exact value.  The
    expansion rounds its weights once or twice, its three dot products within
    gamma_(n+2), and its two additions within eps each of a partial sum no
    larger than P^2: it is within gamma_(n+4) P^2 as well.  So the two differ by at most
    e = 2 gamma_(n+4) P^2; the margin uses twice that, which also covers the
    rounding of P itself, computed from the expansion's own |p|^2 and |q|^2.
    The |u| term matters only in the swapped assignment, where the kernel
    rounds x_c + u but the expansion never forms it.

    *From |dx|^2 to phi.*  For fixed dt and biases, log p is decreasing in
    |dx|^2 with slope at most (1 - beta) / (3 tau1) + beta / tau1 <= 1 / tau1
    (each factor's exponent has slope 1 / tau1 and softplus' slope is below
    1), and phi = log p - log(1 - p) + biases has slope 1 / (1 - p) in log p,
    increasing in p.  Over the interval between the two |dx|^2 values, log p
    is therefore at most the screen's log p + e / tau1 (plus its rounding), so
    |Delta phi| <= (e / tau1) / (1 - p_max), with p_max the likelihood at the
    interval's low end.  Where that bound reaches p_max >= 1 the margin is
    infinite and the candidate is always rescored.

    *The libm slack.*  Both scores are themselves rounded.  The kernel and the
    screen share dt, fl(dt * dt) and the biases, so each rounding in
    `_likelihood` is relative to its own result: an exponent z is within a
    few ulps of |z|, a softplus within a few ulps of its argument plus one,
    and the final sums within a few ulps of their largest term.  An error in
    log p reaches phi through the same slope 1 / (1 - p).  The slack is
    therefore `_LIBM_ULPS` eps times (1 + |z1| + |z2| + |z3| + |zw|) / (1 -
    p_max) for each of the two scores, plus `_LIBM_ULPS` eps times (1 + |phi|
    + 2 |log p| + 2 |biases|), which bounds log p, log(1 - p) and the
    biases, the largest terms of phi; it is not scaled by |phi|, which
    cancellation can make small.  The whole margin is doubled, for the
    rounding of its own computation.

    Candidates whose score lies farther than ``margin`` from a threshold are
    decided by the screen; the rest need the exact kernel.
    """
    heads = np.asarray(heads, dtype=np.intp).reshape(-1)
    rels = np.asarray(rels, dtype=np.intp).reshape(-1)
    n, n_t, n_x, tfd = params.n_entities, params.n_t, params.n_x, params.tfd
    u, r = params.rel_u[rels, 1:], params.rel_r[rels, 1:]
    _, (u_c, s, key), _ = _sides(params, (u, np.ones_like(r), np.zeros_like(rels)), (0.0, r, rels))
    shared = _head_side(params, heads, rels) - u_c
    cross = -2.0 * (s * shared)
    _, first, weight_of_query = np.unique(key, return_index=True, return_inverse=True)
    weights = s[first] * s[first]
    shared2 = np.einsum("qi,qi->q", shared, shared)
    gamma = (n_x + 4) * _UNIT_ROUNDOFF / (1.0 - (n_x + 4) * _UNIT_ROUNDOFF)

    # The pass: cross terms (queries x entities) and weighted squared rows
    # (weight kinds x entities), block by block.  Whole rows are squared,
    # time columns included, so that numpy sees one contiguous run instead of
    # a loop over rows.
    dx2 = np.empty((rels.size, n))
    quad = np.empty((weights.shape[0], n))
    square = np.empty((min(_SCREEN_BLOCK, n), n_t + n_x))
    for start in range(0, n, _SCREEN_BLOCK):
        block = params.coords[start : start + _SCREEN_BLOCK]
        rows = slice(start, start + block.shape[0])
        np.matmul(cross, block[:, n_t:].T, out=dx2[:, rows])
        squared = np.multiply(block, block, out=square[: block.shape[0]])
        np.matmul(weights, squared[:, n_t:].T, out=quad[:, rows])
    quad_norm = np.sqrt(quad)

    # |u| per query, with BLAS, here.
    tail_bias, u_norm = np.abs(params.node_bias), [math.sqrt(row @ row) for row in u]

    def screen(q: int):
        head, rel = int(heads[q]), int(rels[q])
        query_dx2 = dx2[q]
        query_dx2 += shared2[q]
        query_dx2 += quad[weight_of_query[q]]
        size = quad_norm[weight_of_query[q]] + (math.sqrt(shared2[q]) + u_norm[q])
        dx2_err = 4.0 * gamma * (size * size)

        head_bias, rel_bias = params.node_bias[head], params.rel_c[rel]
        _, dt = _time_map(params, heads[q : q + 1], rels[q : q + 1], slice(None), slice(None))
        z1, z2, z3, zw, log_p, phi = _likelihood(tfd, dt, query_dx2, head_bias, params.node_bias, rel_bias)
        z_size = 1.0 + np.abs(z1) + np.abs(z2) + np.abs(z3) + np.abs(zw)
        log_p_drift = dx2_err / tfd.tau1 + 2.0 * _LIBM_ULPS * _UNIT_ROUNDOFF * z_size
        # 1 - p_max = |expm1(log p_max)|, which is +0 (an infinite slope, not
        # -0) where the interval reaches p = 1.
        with np.errstate(divide="ignore"):
            slope = 1.0 / np.abs(np.expm1(np.minimum(log_p + log_p_drift, 0.0)))
        terms = 1.0 + np.abs(phi) + 2.0 * (np.abs(log_p) + tail_bias + (abs(head_bias) + abs(rel_bias)))
        margin = 2.0 * (slope * log_p_drift + _LIBM_ULPS * _UNIT_ROUNDOFF * terms)
        return phi, margin

    return screen


def probability(params: ModelParams, head: int, rel: int, tail: int) -> float:
    """Edge probability sigmoid(score), strictly inside (0, 1)."""
    return float(sigmoid(score(params, head, rel, tail)))


def scale_node_bias(params: ModelParams, gamma_b: float) -> ModelParams:
    """Return a copy of the model with every node bias multiplied by gamma_b.

    Test-time knob: positive gamma_b beyond 1 favours well-connected nodes,
    negative values push predictions toward poorly-connected ones.  All other
    parameters are untouched and the input model is not modified.  A
    non-finite gamma_b is refused: inf times a zero bias is NaN.
    """
    gamma_b = float(gamma_b)
    if not math.isfinite(gamma_b):
        raise ValueError(f"gamma_b must be a finite real, got {gamma_b}")
    return replace(params, node_bias=params.node_bias * gamma_b)


# --- checkpoint format -----------------------------------------------------
#
# Little-endian throughout.  Header (`_HEADER`): magic "PSEUDOE1", then n_t,
# n_x, N, n_r and the variant tag as uint64 (bit 3 of the tag records
# swap_transforms), then the likelihood parameters (tau1, tau2, u, alpha,
# alpha_prime, k, beta; the prefactor k is always 1) and the cylinder
# flag/circumference as float64.  Body, float64: the entity tables one after
# the other (coords row-major, then node biases), then one record per
# relation (`_relation_record`): the 2(1 + n_x) + n_t + 1 values u_vec,
# r_diag, h_vec and c_bias of relation k.

_HEADER = struct.Struct("<8s5Q9d")


def _relation_record(shapes: dict[str, tuple[int, ...]]) -> np.dtype:
    """One relation's row of the checkpoint body: a field per relation table."""
    return np.dtype([(name, "<f8", shapes[name][1:]) for name, key in TABLES if key == "relation"])


def save_checkpoint(params: ModelParams, path) -> None:
    """Write the model to ``path``; loading it back is bit-exact."""
    tfd, geo = params.tfd, params.geometry
    tag = _VARIANT_CODES[params.variant] | (_SWAP_BIT if params.swap_transforms else 0)
    c = geo.cylinder_circumference
    shapes = _table_shapes(params.n_entities, params.n_relations, geo.signature)
    records = np.empty(params.n_relations, _relation_record(shapes))
    with open(path, "wb") as f:
        f.write(_HEADER.pack(
            CHECKPOINT_MAGIC, geo.signature.n_t, geo.signature.n_x, params.n_entities, params.n_relations, tag,
            tfd.tau1, tfd.tau2, tfd.u, tfd.alpha, tfd.alpha_prime, 1.0, tfd.beta,  # the prefactor k is 1
            0.0 if c is None else 1.0, 0.0 if c is None else c,
        ))
        for name, key in TABLES:
            if key == "entity":
                np.asarray(getattr(params, name), dtype="<f8").tofile(f)
            else:
                records[name] = getattr(params, name)
        records.tofile(f)


def load_checkpoint(path) -> ModelParams:
    """Read a model written by :func:`save_checkpoint`, each table straight
    from the file into its array.  Every refusal names the file."""
    with open(path, "rb") as f:
        try:
            return _read_checkpoint(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_checkpoint(f) -> ModelParams:
    header = f.read(_HEADER.size)
    if len(header) < _HEADER.size or header[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    (_, n_t, n_x, n, n_r, tag, tau1, tau2, u, alpha, alpha_prime, k, beta, has_c, c) = _HEADER.unpack(header)
    variant = _VARIANT_FROM_CODE.get(tag & ~_SWAP_BIT)
    if variant is None:
        raise ValueError(f"unknown variant tag {tag}")
    if k != 1.0:
        raise ValueError(f"likelihood prefactor k = {k:g}, expected 1")
    geometry = GeometryConfig(Signature(n_t, n_x), c if has_c else None)
    tfd = TfdParams(tau1=tau1, tau2=tau2, u=u, alpha=alpha, alpha_prime=alpha_prime, beta=beta)
    shapes = _table_shapes(n, n_r, geometry.signature)
    expected = sum(math.prod(shape) for shape in shapes.values())
    body_bytes = os.fstat(f.fileno()).st_size - _HEADER.size
    if body_bytes != 8 * expected:
        raise ValueError(f"body holds {body_bytes // 8} values, expected {expected}")
    tables = {
        name: np.fromfile(f, "<f8", math.prod(shapes[name])).reshape(shapes[name])
        for name, key in TABLES
        if key == "entity"
    }
    records = np.fromfile(f, _relation_record(shapes), n_r)
    tables.update({name: records[name].copy() for name in records.dtype.names})
    params = ModelParams(**tables, tfd=tfd, geometry=geometry, variant=variant, swap_transforms=bool(tag & _SWAP_BIT))
    params.validate()
    return params
