"""Negative-sampling NLL training.

The loss over a batch of observed triples is

    L = -sum_pos [ log sigmoid(phi(pos)) + sum_neg log(1 - sigmoid(phi(neg))) ]

with m uniformly drawn corruptions per positive: m/2 head and m/2 tail
replacements, or all m on the tail when reversed-triple augmentation
(`data.augmented_store`) is on (the reversed triples already cover the head
direction, so the head-corruption term is dropped; this coupling is
enforced).

Gradients are exact, hand-derived chain-rule expressions through the score
pipeline.  Each table's rows are summed per entity or relation in the order
``np.add.at`` would add them, so every bit is fixed by the batch, and written
once into a compact tape: the sorted ids the batch references and, per
parameter table, one row for each of them, so no step allocates a gradient
table with a row per entity.  Those rows are the only ones the optimizers
update.  Optimizers: plain SGD, Adam with bias-corrected moments, and SM3
with row/column cover sets over the coordinate table and per-coordinate
accumulators everywhere else.  They keep state for, and step, only the
tables the variant trains (`model.FROZEN`).  The loop shuffles each epoch
from the run seed, evaluates filtered MRR on the validation split every few
epochs and early-stops on it, returning the best checkpoint seen; stored
negatives of a fixed protocol are checked against that split up front.

A step scores its positives and negatives with one `model._forward` call, the
same one `nll_loss` makes, and takes its loss from `nll_from_scores` as
`nll_loss` does, so the two agree bit for bit.  The backward pass forms what
it reads from the exponents and log-likelihood that `_forward` returns (the
four sigmoids and 1 / (1 - p)), and it allocates the space displacement dx,
which `_forward` fills and the backward turns into its gradient in place:
the only (rows x n_x) array of a step.  Everything else of that width
streams in `model._TAIL_BLOCK`-row blocks, which stay in cache: the forward
space map, the sums of `_Segments`, which read the space rows of the
backward through a gather that forms them per block, and each optimizer's
update of the touched rows, which reads each block as a slice of the tape.
`model._in_shares` deals the blocks of wide rows out to one thread per CPU.
An optimizer is its update rule for one block: one driver, `_update_rows`,
walks the blocks of every trained table, shares them out and runs the rule
on each.  Each block (each key's sum, each row's update) is computed whole
by one thread, in the same operations and order as on one, so every bit of
a step is the same for any number of CPUs.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import InitVar, dataclass
from enum import Enum

import numpy as np

from . import evaluation
from .data import _check_triple_ids, augmented_store
from .likelihood import sigmoid, softplus
from .model import FROZEN, TABLES, _TAIL_BLOCK, InitConfig, ModelParams, _forward, _in_shares, _sides
from .model import init as model_init
from .relmaps import Variant

__all__ = [
    "OptimizerKind",
    "NegativeMode",
    "TrainConfig",
    "GradientTape",
    "DivergenceError",
    "sample_negatives_batch",
    "nll_from_scores",
    "nll_loss",
    "gradients",
    "SgdOptimizer",
    "AdamOptimizer",
    "Sm3Optimizer",
    "make_optimizer",
    "train",
    "TrainLogRow",
    "write_log_csv",
]

logger = logging.getLogger(__name__)


class OptimizerKind(str, Enum):
    SGD = "sgd"
    ADAM = "adam"
    SM3 = "sm3"


class NegativeMode(str, Enum):
    TAIL_ONLY = "tail_only"
    BOTH = "both"


class DivergenceError(RuntimeError):
    """Raised when training goes non-finite; ``triple``: the ids of the first non-finite score, if any."""

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.triple = triple


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the minibatch loop.

    m_negatives must be even (half head, half tail corruptions in BOTH mode).
    With augment_reverse the corruption mode is forced to tail-only.  The
    optimizer may be given by its value, e.g. ``"sm3"``.
    """

    m_negatives: int = 10
    batch_size: int = 128
    learning_rate: float = 1e-3
    optimizer: OptimizerKind = OptimizerKind.ADAM
    max_epochs: int = 200
    eval_every: int = 5
    patience: int = 10
    augment_reverse: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "optimizer", OptimizerKind(self.optimizer))
        if self.m_negatives <= 0 or self.m_negatives % 2 != 0:
            raise ValueError(f"m_negatives must be a positive even integer, got {self.m_negatives}")
        for name in ("batch_size", "max_epochs", "eval_every", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive real, got {self.learning_rate}")

    @property
    def negative_mode(self) -> NegativeMode:
        return NegativeMode.TAIL_ONLY if self.augment_reverse else NegativeMode.BOTH


class _DenseView:
    """The gradient of the parameter table this attribute is named after, in
    the ModelParams layout: a new full-size table of +0.0 on each access, with
    the tape's compact rows scattered to their ids."""

    def __set_name__(self, owner, name):
        self.name, self.key = name, dict(TABLES)[name]

    def __get__(self, tape, owner=None):
        if tape is None:
            return self
        compact = getattr(tape, f"{self.name}_rows")
        rows = tape.touched_entities if self.key == "entity" else tape.touched_relations
        dense = np.zeros((tape._n_rows[self.key], *compact.shape[1:]))
        dense[rows] = compact
        return dense

    def __set__(self, tape, value):
        raise AttributeError(f"{self.name} is a read-only view; write {self.name}_rows")


@dataclass
class GradientTape:
    """Gradients of the rows a batch touches: one compact table per parameter table.

    ``touched_entities`` and ``touched_relations`` list the ids the batch
    references, sorted and unique.  Row i of ``coords_rows`` and
    ``node_bias_rows`` is the gradient of entity ``touched_entities[i]``, and
    row i of each ``rel_*_rows`` table that of relation
    ``touched_relations[i]``.  A table the variant freezes gets no gradient:
    its rows hold +0.0.

    ``coords``, ``node_bias``, ``rel_u``, ``rel_r``, ``rel_h`` and ``rel_c``
    are read-only dense views for checks, with the shapes of the ModelParams
    tables and +0.0 at every untouched row.  Each access allocates and fills
    a full-size table, so the optimizers never read them.  ``n_entities`` and
    ``n_relations`` give their row counts.
    """

    coords_rows: np.ndarray
    node_bias_rows: np.ndarray
    rel_u_rows: np.ndarray
    rel_r_rows: np.ndarray
    rel_h_rows: np.ndarray
    rel_c_rows: np.ndarray
    touched_entities: np.ndarray
    touched_relations: np.ndarray
    n_entities: InitVar[int]
    n_relations: InitVar[int]

    coords, node_bias, rel_u, rel_r, rel_h, rel_c = (_DenseView() for _ in TABLES)

    def __post_init__(self, n_entities: int, n_relations: int) -> None:
        self._n_rows = {"entity": n_entities, "relation": n_relations}


def sample_negatives_batch(
    batch: np.ndarray, m: int, mode: NegativeMode, rng: np.random.Generator, n_entities: int
) -> np.ndarray:
    """Corrupted triples, shape (B, m, 3).

    Replacements are uniform over the whole entity vocabulary, sampled
    independently; duplicates and accidental true triples are allowed.
    BOTH mode corrupts the tail in the first m/2 slots and the head in the
    rest; TAIL_ONLY corrupts the tail in all m.  ``mode`` may be given by
    its value, e.g. ``"tail_only"``.
    """
    mode = NegativeMode(mode)
    if m % 2 != 0 or m < 0:
        raise ValueError(f"m must be a non-negative even integer, got {m}")
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    out = np.repeat(batch[:, None, :], m, axis=1)
    draws = rng.integers(0, n_entities, size=(batch.shape[0], m))
    if mode is NegativeMode.TAIL_ONLY:
        out[:, :, 2] = draws
    else:
        half = m // 2
        out[:, :half, 2] = draws[:, :half]
        out[:, half:, 0] = draws[:, half:]
    return out


def nll_from_scores(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """-sum log sigmoid(pos) - sum log(1 - sigmoid(neg)), in stable softplus form."""
    return float(np.sum(softplus(-np.asarray(pos_scores))) + np.sum(softplus(np.asarray(neg_scores))))


def nll_loss(params: ModelParams, batch: np.ndarray, negatives: np.ndarray) -> float:
    """Batch negative log-likelihood; ``negatives`` has shape (B, m, 3)."""
    _check_triple_ids(params, batch, negatives)
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    heads, rels, tails = np.concatenate([batch, np.asarray(negatives, dtype=np.int64).reshape(-1, 3)]).T
    phi = _forward(params, heads, rels, tails)[-1]
    return nll_from_scores(phi[: batch.shape[0]], phi[batch.shape[0] :])


def gradients(params: ModelParams, batch: np.ndarray, negatives: np.ndarray) -> GradientTape:
    """Exact gradient of :func:`nll_loss` with respect to every trainable parameter.

    Positives and negatives share one backward pass: the gradient of the loss
    with respect to each score is sigmoid(phi) - label.
    """
    _check_triple_ids(params, batch, negatives)
    return _loss_and_gradients(params, batch, negatives)[1]


class _Segments:
    """Rows grouped by key and summed per key as ``np.add.at`` adds them.

    ``np.add.at(out, keys, values)`` adds each row to its key's row of
    ``out`` in row order.  `sum` keeps that order per key, so that each total,
    signed zeros included, has the bits that ``np.add.at`` leaves at that
    key's row of a table that holds 0.0 there:

    - 1-D values and single columns go through ``np.bincount``, which adds in
      row order (``np.add.reduce`` would sum a single column pairwise);
    - for wider values, each of the most repeated keys (relations, a hub
      entity) is a sequential ``np.add.reduce(axis=0)`` over its rows, one
      `_TAIL_BLOCK`-row block after the other, and the other keys are summed
      `_TAIL_BLOCK` keys at a time in occurrence rounds: round r adds each
      key's r-th row, so no round repeats a key.  The split minimizes the
      number of blocks, those the reduces read plus the rounds of the first
      key block, which has the most.

    Each reduced key and each block of keys is one item of `_in_shares`,
    summed whole by one thread.  ``keys`` lists the distinct keys, sorted;
    `sum` writes each key's total at the key's position in it.
    """

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.intp)
        order = np.argsort(keys, kind="stable")
        self.keys, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
        self._group = np.empty_like(order)
        self._group[order] = np.repeat(np.arange(counts.size), counts)
        # The keys' positions, most repeated first.
        self._slots = np.argsort(-counts, kind="stable")
        starts, counts = starts[self._slots], counts[self._slots]

        # Keys [0, n_reduced) are reduced one by one; the rest, which hold at
        # most counts[n_reduced] rows each, take that many rounds.
        blocks = np.r_[0, np.cumsum(-(-counts // _TAIL_BLOCK))]
        n_reduced = int(np.argmin(blocks + np.r_[counts, 0]))
        self._reduced = [order[s : s + c] for s, c in zip(starts[:n_reduced], counts[:n_reduced])]
        starts, counts = starts[n_reduced:], counts[n_reduced:]
        first = np.repeat(np.cumsum(counts) - counts, counts)
        rank = np.arange(first.size) - first
        self._round_rows = order[(np.repeat(starts, counts) + rank)[np.argsort(rank, kind="stable")]]
        # (first row in _round_rows, size) of each round r: the keys still
        # adding are those with more than r rows, the first ones of the order.
        sizes = counts.size - np.cumsum(np.bincount(counts))[:-1]
        self._rounds = list(zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist()))

    def sum(self, take, out: np.ndarray) -> None:
        """Write each key's total into ``out[i]``, where ``keys[i]`` is the key.

        ``take(rows, buffer)`` writes the values of the given rows into
        ``buffer`` and returns it.  Wide rows are read `_TAIL_BLOCK` at a
        time, so a caller can form them on the fly, and every row of ``out``
        is written once and never read.
        """
        n_rows, shape = self._group.size, out.shape[1:]
        if math.prod(shape) == 1:
            values = take(np.arange(n_rows), np.empty((n_rows, *shape))).reshape(-1)
            out[...] = np.bincount(self._group, weights=values, minlength=self.keys.size).reshape(out.shape)
            return
        n_reduced, slots = len(self._reduced), self._slots[len(self._reduced) :]

        def add(items):
            buffer, totals = np.empty((1 + _TAIL_BLOCK, *shape)), np.empty((_TAIL_BLOCK, *shape))
            for item in items:
                if item < n_reduced:
                    # Each block is reduced after the total so far, which
                    # starts at 0.0.
                    rows = self._reduced[item]
                    buffer[0] = 0.0
                    for start in range(0, rows.size, _TAIL_BLOCK):
                        block = rows[start : start + _TAIL_BLOCK]
                        take(block, buffer[1 : 1 + block.size])
                        np.add.reduce(buffer[: 1 + block.size], axis=0, out=totals[0])
                        buffer[0] = totals[0]
                    out[self._slots[item]] = totals[0]
                    continue
                low = (item - n_reduced) * _TAIL_BLOCK
                block = slots[low : low + _TAIL_BLOCK]
                total = totals[: block.size]
                for r, (start, size) in enumerate(self._rounds):
                    if size <= low:
                        break
                    rows = self._round_rows[start + low : start + min(size, low + _TAIL_BLOCK)]
                    if r:
                        total[: rows.size] += take(rows, buffer[: rows.size])
                    else:
                        # Round 0 adds each key's first row to 0.0, which
                        # turns -0.0 into 0.0 as np.add.at does.
                        take(rows, total)
                        total += 0.0
                out[block] = total

        # The items: each reduced key, then each block of the other keys.
        _in_shares(add, range(n_reduced + -(-slots.size // _TAIL_BLOCK)), math.prod(shape))


def _take(values: np.ndarray):
    """The gather of ``values``' rows that `_Segments.sum` reads."""
    return lambda rows, buffer: np.take(values, rows, axis=0, out=buffer, mode="clip")


def _loss_and_gradients(
    params: ModelParams, batch: np.ndarray, negatives: np.ndarray
) -> tuple[float, GradientTape]:
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    triples = np.concatenate([batch, np.asarray(negatives, dtype=np.int64).reshape(-1, 3)])
    heads, rels, tails = triples.T
    n_pos, n_t, n = batch.shape[0], params.n_t, heads.size
    # The forward pass writes dx here; the backward turns it into ddx in place.
    dx = np.empty((n, params.n_x))
    scaled_proj, dt, z1, z2, z3, zw, log_p, phi = _forward(params, heads, rels, tails, dx)
    if not np.all(np.isfinite(phi)):
        triple = tuple(int(v) for v in triples[np.flatnonzero(~np.isfinite(phi))[0]])
        raise DivergenceError(f"non-finite score for triple {triple}", triple)
    loss = nll_from_scores(phi[:n_pos], phi[n_pos:])
    # d loss / d phi = sigmoid(phi) - label
    dphi = sigmoid(phi)
    dphi[:n_pos] -= 1.0

    # Through the logit and the beta-mix into the three FD factors.
    tfd = params.tfd
    dlogp = dphi * (1.0 / (-np.expm1(log_p)))  # d phi / d log p = 1 / (1 - p)
    w_tfd = (1.0 - tfd.beta) / 3.0
    ds2 = dlogp * w_tfd * (-sigmoid(z1) / tfd.tau1)
    ds2w = dlogp * tfd.beta * (-sigmoid(zw) / tfd.tau1)
    ddt = (
        dlogp * w_tfd * (tfd.alpha * sigmoid(z2) - tfd.alpha_prime * sigmoid(z3)) / tfd.tau2
        + (ds2w - ds2) * 2.0 * dt
    )

    # Through the relation maps into coordinates and relation tables.  Both
    # act as (p_a + u) - r * p_b on the translated side a and the scaled side
    # b, in time on h . t and in space on x; time enters dt with its sign.
    # Entity rows [0, n) are the heads and [n, 2n) the tails, so that the
    # sums add every head row before any tail row, in row order, whichever
    # side is translated: time_grads[s] holds the time-coordinate gradients
    # of side s per row, and `space_grads` forms the space rows on the fly.
    a, b, sign = _sides(params, heads, tails)
    side_a, side_b, _ = _sides(params, 0, 1)
    d_time = sign * ddt
    h = params.rel_h[rels]
    r_t = params.rel_r[rels, 0]
    time_grads = np.empty((2, n, n_t))
    np.multiply(d_time[:, None], h, out=time_grads[side_a])
    np.multiply((-d_time * r_t)[:, None], h, out=time_grads[side_b])
    ddx = np.multiply(((ds2 + ds2w) * 2.0)[:, None], dx, out=dx)
    # The space rows' factors: -r on the scaled side, where -ddx * r is
    # formed as ddx * (-r), the same bits, and 1.0 on the translated side,
    # where ddx * 1.0 is ddx.
    factors = np.vstack([np.negative(params.rel_r[:, 1:]), np.ones(params.n_x)])
    factor_of_row = np.full((2, n), params.n_relations)
    factor_of_row[side_b] = rels
    factor_of_row = factor_of_row.reshape(-1)

    def space_grads(rows, buffer):
        np.take(ddx, rows % n, axis=0, out=buffer, mode="clip")
        buffer *= factors[factor_of_row[rows]]
        return buffer

    def rel_r_grads(rows, buffer):
        # -ddx * x_b, formed in place as -(x_b * ddx): the same bits
        np.multiply(params.coords[b[rows], n_t:], ddx[rows], out=buffer)
        return np.negative(buffer, out=buffer)

    # Each table is summed per row key in np.add.at's order, straight into a
    # compact tape whose rows follow the sorted keys.
    entities = _Segments(np.concatenate([heads, tails]))
    relations = _Segments(rels)
    touched = {"entity": entities.keys, "relation": relations.keys}
    tape = GradientTape(
        **{f"{name}_rows": np.zeros((touched[key].size, *getattr(params, name).shape[1:])) for name, key in TABLES},
        touched_entities=entities.keys,
        touched_relations=relations.keys,
        n_entities=params.n_entities,
        n_relations=params.n_relations,
    )
    entities.sum(_take(np.concatenate([dphi, dphi])), tape.node_bias_rows)
    entities.sum(_take(time_grads.reshape(2 * n, n_t)), tape.coords_rows[:, :n_t])
    entities.sum(space_grads, tape.coords_rows[:, n_t:])
    relations.sum(_take(dphi), tape.rel_c_rows)
    # Tables the variant freezes receive no gradient.
    frozen = FROZEN[params.variant]
    if "rel_u" not in frozen:
        relations.sum(_take(d_time), tape.rel_u_rows[:, 0])
        relations.sum(_take(ddx), tape.rel_u_rows[:, 1:])
    if "rel_r" not in frozen:
        relations.sum(_take(-d_time * scaled_proj), tape.rel_r_rows[:, 0])
        relations.sum(rel_r_grads, tape.rel_r_rows[:, 1:])
    if "rel_h" not in frozen:
        t_a, t_b = params.coords[a, :n_t], params.coords[b, :n_t]
        relations.sum(_take(d_time[:, None] * t_a - (d_time * r_t)[:, None] * t_b), tape.rel_h_rows)
    return loss, tape


# --- optimizers --------------------------------------------------------------


def _update_rows(params: ModelParams, tape: GradientTape, rule) -> list:
    """Run ``rule(params, name, rows, g)`` on the touched rows of each table
    the variant trains, `_TAIL_BLOCK` rows at a time, with g the matching
    slice of the tape's compact table, which the rule only reads, and return
    what each call returned.  No two blocks share a row, so each table's
    blocks are shared out with `_in_shares` at its row width."""
    touched = {"entity": tape.touched_entities, "relation": tape.touched_relations}
    results = []
    for name, key in params.trained_tables:
        rows, grads = touched[key], getattr(tape, f"{name}_rows")
        blocks = [(rows[s : s + _TAIL_BLOCK], grads[s : s + _TAIL_BLOCK]) for s in range(0, rows.size, _TAIL_BLOCK)]
        width = math.prod(grads.shape[1:])
        for share in _in_shares(lambda share: [rule(params, name, *block) for block in share], blocks, width):
            results += share
    return results


class SgdOptimizer:
    """param -= lr * grad over touched rows."""

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate

    def step(self, params: ModelParams, tape: GradientTape) -> None:
        _update_rows(params, tape, self._update)

    def _update(self, params: ModelParams, name: str, rows: np.ndarray, g: np.ndarray) -> None:
        getattr(params, name)[rows] -= g * self.lr


class AdamOptimizer:
    """Adam with bias-corrected moments, applied lazily to touched rows only.

    Each row keeps its own step count so bias correction stays exact for
    rows that enter training late.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate
        names = [name for name, _ in params.trained_tables]
        self.m = {n: np.zeros_like(getattr(params, n)) for n in names}
        self.v = {n: np.zeros_like(getattr(params, n)) for n in names}
        self.t = {n: np.zeros(getattr(params, n).shape[0], dtype=np.int64) for n in names}

    def step(self, params: ModelParams, tape: GradientTape) -> None:
        _update_rows(params, tape, self._update)

    def _update(self, params: ModelParams, name: str, rows: np.ndarray, g: np.ndarray) -> None:
        self.t[name][rows] += 1
        t = self.t[name][rows].astype(np.float64)
        c1, c2 = 1.0 - self.beta1**t, 1.0 - self.beta2**t
        if g.ndim == 2:
            c1, c2 = c1[:, None], c2[:, None]
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2)
        # * g * g, each product rounded in that order
        m, v = self.m[name][rows], self.v[name][rows]
        m *= self.beta1
        m += (1 - self.beta1) * g
        self.m[name][rows] = m
        v *= self.beta2
        g_term = (1 - self.beta2) * g
        g_term *= g
        v += g_term
        self.v[name][rows] = v
        # lr * (m / c1) / (sqrt(v / c2) + eps)
        step = np.divide(m, c1, out=m)
        step *= self.lr
        denominator = np.sqrt(np.divide(v, c2, out=v), out=v)
        denominator += self.eps
        step /= denominator
        getattr(params, name)[rows] -= step


class Sm3Optimizer:
    """SM3 with row and column cover sets over the coordinate table.

    Every other parameter gets per-coordinate accumulators, which reduces to
    Adagrad for those tables.  Accumulators are monotone non-decreasing per
    cover set and updates stay on touched rows.
    """

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate
        self.coord_row = np.zeros(params.coords.shape[0])
        self.coord_col = np.zeros(params.coords.shape[1])
        self.acc = {n: np.zeros_like(getattr(params, n)) for n, _ in params.trained_tables if n != "coords"}

    def step(self, params: ModelParams, tape: GradientTape) -> None:
        # Every coordinate row's nu reads the column accumulators of the step
        # before; the new ones are the maxima over the step's blocks, which is
        # exact in any order.
        maxima = [m for m in _update_rows(params, tape, self._update) if m is not None]
        self.coord_col = np.maximum.reduce([self.coord_col, *maxima])

    def _update(self, params: ModelParams, name: str, rows: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """Update ``rows``; returns, for coordinate rows, their nu's maximum per column."""
        if name == "coords":
            nu = np.minimum(self.coord_row[rows, None], self.coord_col[None, :])
        else:
            nu = self.acc[name][rows]
        nu += g * g
        # g / sqrt(nu) where nu > 0, else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / np.sqrt(nu)
        step[~(nu > 0.0)] = 0.0
        step *= self.lr
        getattr(params, name)[rows] -= step
        if name != "coords":
            self.acc[name][rows] = nu
            return None
        self.coord_row[rows] = nu.max(axis=1)
        return nu.max(axis=0)


_OPTIMIZERS = {OptimizerKind.SGD: SgdOptimizer, OptimizerKind.ADAM: AdamOptimizer, OptimizerKind.SM3: Sm3Optimizer}


def make_optimizer(kind: OptimizerKind | str, params: ModelParams, learning_rate: float):
    """The optimizer of ``kind``, which may be given by its value, e.g. ``"adam"``."""
    return _OPTIMIZERS[OptimizerKind(kind)](params, learning_rate)


# --- training loop ------------------------------------------------------------


@dataclass
class TrainLogRow:
    epoch: int
    mean_loss: float
    val_mrr: float | None
    val_hits10: float | None
    wall_seconds: float


def write_log_csv(log: list[TrainLogRow], path) -> None:
    """Training log as CSV: epoch, mean_loss, val_mrr, val_hits10, wall_seconds."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "mean_loss", "val_mrr", "val_hits10", "wall_seconds"])
        for row in log:
            w.writerow(
                [
                    row.epoch,
                    f"{row.mean_loss:.10g}",
                    "" if row.val_mrr is None else f"{row.val_mrr:.10g}",
                    "" if row.val_hits10 is None else f"{row.val_hits10:.10g}",
                    f"{row.wall_seconds:.3f}",
                ]
            )


def train(
    store,
    config: TrainConfig,
    geometry,
    tfd,
    variant: Variant,
    init_cfg: InitConfig,
    protocol=None,
    swap_transforms: bool = False,
) -> tuple[ModelParams, list[TrainLogRow]]:
    """Minibatch training with periodic validation and early stopping.

    ``store`` is a TripleStore; with ``config.augment_reverse`` its augmented
    view (reversed triples, doubled relation vocabulary) is trained on and
    negatives corrupt tails only.  The model starts from ``init_cfg``, and
    the shuffles and negatives are drawn from ``config.seed``.  Validation MRR is computed every
    ``eval_every`` epochs under ``protocol`` (filtered ranking against the
    full vocabulary by default) and the best checkpoint is returned together
    with the per-epoch log.  An empty validation split, and stored negatives
    that do not cover it or meet an augmented split, are rejected before
    the first epoch.
    """
    if protocol is None:
        protocol = evaluation.EvalProtocol()
    evaluation._refuse_augmented(protocol.mode, config.augment_reverse)
    if config.augment_reverse:
        store = augmented_store(store)
    train_triples = store.splits["train"]
    valid_triples = store.splits["valid"]
    if valid_triples.shape[0] == 0:
        raise ValueError("the validation split is empty; training ranks it for model selection")

    # The shuffles and negatives draw from the second child of the run seed.
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])

    params = model_init(
        store.n_entities,
        store.n_relations,
        geometry,
        variant,
        init_cfg,
        tfd=tfd,
        swap_transforms=swap_transforms,
    )
    if protocol.mode is evaluation.EvalMode.FIXED_NEGATIVES:
        evaluation._stored_negatives(params, valid_triples, protocol.negatives)
    optimizer = make_optimizer(config.optimizer, params, config.learning_rate)

    best = None
    best_mrr = -np.inf
    rounds_without_improvement = 0
    log: list[TrainLogRow] = []
    t0 = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(train_triples.shape[0])
        total_loss = 0.0
        for step, start in enumerate(range(0, order.size, config.batch_size), start=1):
            batch = train_triples[order[start : start + config.batch_size]]
            negs = sample_negatives_batch(
                batch, config.m_negatives, config.negative_mode, rng, store.n_entities
            )
            try:
                loss, tape = _loss_and_gradients(params, batch, negs)
            except DivergenceError as exc:
                named = ", ".join(store.decode(exc.triple))
                where = f"epoch {epoch}, step {step}: non-finite score for triple ({named})"
                raise DivergenceError(where, exc.triple) from exc
            total_loss += loss
            optimizer.step(params, tape)
        mean_loss = total_loss / train_triples.shape[0]
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"epoch {epoch}: mean loss is {mean_loss}")

        val_mrr = val_hits10 = None
        if epoch % config.eval_every == 0 or epoch == config.max_epochs:
            report = evaluation.evaluate_split(params, valid_triples, store.filter_index, protocol)
            val_mrr, val_hits10 = report.mrr, report.hits_at.get(10)
            if val_mrr > best_mrr:
                best_mrr = val_mrr
                best = params.copy()
                rounds_without_improvement = 0
            else:
                rounds_without_improvement += 1
        log.append(TrainLogRow(epoch, mean_loss, val_mrr, val_hits10, time.perf_counter() - t0))
        if val_mrr is not None:
            logger.info("epoch %d: loss %.4f, val MRR %.4f", epoch, mean_loss, val_mrr)
        if rounds_without_improvement >= config.patience:
            logger.info("early stop at epoch %d (best val MRR %.4f)", epoch, best_mrr)
            break
    return best, log
