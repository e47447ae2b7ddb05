"""Negative-sampling NLL training.

The loss over a batch of observed triples is

    L = -sum_pos [ log sigmoid(phi(pos)) + sum_neg log(1 - sigmoid(phi(neg))) ]

with m uniformly drawn corruptions per positive: m/2 head and m/2 tail
replacements, or all m on the tail when reversed-triple augmentation is on
(the reversed triples already cover the head direction, so the head-corruption
term is dropped; this coupling is enforced).

Gradients are exact, hand-derived chain-rule expressions through the score
pipeline.  Each table's rows are summed per entity or relation in the order
``np.add.at`` would add them, so every bit is fixed by the batch, and written
once into a dense tape: one full-size table per parameter table, allocated
each step as lazily zeroed pages, plus the rows the batch references, which
are the only rows the optimizers update.  Optimizers: plain SGD, Adam with
bias-corrected moments, and SM3 with row/column cover sets over the
coordinate table and per-coordinate accumulators everywhere else.  They keep
state for, and step, only the tables the variant trains (`model.FROZEN`).  The
loop shuffles each epoch from the run seed, evaluates filtered MRR on the
validation split every few epochs and early-stops on it, returning the best
checkpoint seen.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .likelihood import sigmoid, softplus
from .model import FROZEN, TABLES, ModelParams, _check_ids, _forward, _sides, init as model_init, InitConfig
from .relmaps import Variant

__all__ = [
    "OptimizerKind",
    "NegativeMode",
    "TrainConfig",
    "GradientTape",
    "DivergenceError",
    "augment_reverse",
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
    """Raised when the loss goes non-finite during training."""


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
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    @property
    def negative_mode(self) -> NegativeMode:
        return NegativeMode.TAIL_ONLY if self.augment_reverse else NegativeMode.BOTH


@dataclass
class GradientTape:
    """Dense gradients in the ModelParams layout: one table per parameter table.

    Only the rows the batch references are written; every other row, and every
    row of a table the variant freezes, stays exactly zero (+0.0).
    ``touched_entities`` and ``touched_relations`` list the referenced rows,
    sorted, so optimizers can update only those.
    """

    coords: np.ndarray
    node_bias: np.ndarray
    rel_u: np.ndarray
    rel_r: np.ndarray
    rel_h: np.ndarray
    rel_c: np.ndarray
    touched_entities: np.ndarray
    touched_relations: np.ndarray

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "GradientTape":
        # np.zeros takes pages that the kernel zeroes on first touch, where
        # np.zeros_like would write every byte of the 164 MB WN18RR-shape
        # coordinate table once more; a step pays only for the pages its rows
        # touch.
        return cls(
            **{name: np.zeros(getattr(params, name).shape) for name, _ in TABLES},
            touched_entities=np.empty(0, dtype=np.intp),
            touched_relations=np.empty(0, dtype=np.intp),
        )


def augment_reverse(triples: np.ndarray, n_relations: int) -> np.ndarray:
    """Append (tail, k + n_relations, head) for every (head, k, tail); output doubles."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    reversed_ = np.column_stack([triples[:, 2], triples[:, 1] + n_relations, triples[:, 0]])
    return np.concatenate([triples, reversed_], axis=0)


def sample_negatives_batch(
    batch: np.ndarray, m: int, mode: NegativeMode, rng: np.random.Generator, n_entities: int
) -> np.ndarray:
    """Corrupted triples, shape (B, m, 3).

    Replacements are uniform over the whole entity vocabulary, sampled
    independently; duplicates and accidental true triples are allowed.
    BOTH mode corrupts the tail in the first m/2 slots and the head in the
    rest; TAIL_ONLY corrupts the tail in all m.
    """
    if m % 2 != 0 or m < 0:
        raise ValueError(f"m must be a non-negative even integer, got {m}")
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    b = batch.shape[0]
    out = np.repeat(batch[:, None, :], m, axis=1) if m else np.empty((b, 0, 3), dtype=np.int64)
    if m == 0:
        return out
    draws = rng.integers(0, n_entities, size=(b, m))
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


def _check_triple_ids(params: ModelParams, *triples) -> None:
    """Raise IndexError unless every id of every (..., 3) triple array is in range."""
    for rows in triples:
        rows = np.asarray(rows).reshape(-1, 3)
        _check_ids(params, rows[:, 0], rows[:, 1], rows[:, 2])


def nll_loss(params: ModelParams, batch: np.ndarray, negatives: np.ndarray) -> float:
    """Batch negative log-likelihood; ``negatives`` has shape (B, m, 3)."""
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    negatives = np.asarray(negatives, dtype=np.int64).reshape(-1, 3)
    _check_triple_ids(params, batch, negatives)
    pos = _forward(params, batch[:, 0], batch[:, 1], batch[:, 2]).phi
    if negatives.size:
        neg = _forward(params, negatives[:, 0], negatives[:, 1], negatives[:, 2]).phi
    else:
        neg = np.empty(0)
    return nll_from_scores(pos, neg)


def gradients(params: ModelParams, batch: np.ndarray, negatives: np.ndarray) -> GradientTape:
    """Exact gradient of :func:`nll_loss` with respect to every trainable parameter.

    Positives and negatives share one backward pass: the gradient of the loss
    with respect to each score is sigmoid(phi) - label.
    """
    _check_triple_ids(params, batch, negatives)
    return _loss_and_gradients(params, batch, negatives)[1]


class _Segments:
    """Rows grouped by key, summed per key exactly as ``np.add.at`` sums them.

    ``np.add.at(np.zeros(size), keys, values)`` adds each row to its key's
    total in row order, starting from 0.0.  `sum` keeps that order per key, so
    every total, signed zeros included, has the same bits:

    - 1-D values and single columns go through ``np.bincount``, which adds in
      row order (``np.add.reduce`` would sum a single column pairwise);
    - for wider values, each of the most repeated keys (relations, a hub
      entity) is one sequential ``np.add.reduce(axis=0)`` over its rows, and
      the other keys are summed in occurrence rounds: round r adds each
      key's r-th row, so no round repeats a key.  The split minimizes the
      number of numpy calls, reduces plus rounds.

    ``keys`` lists the distinct keys, most repeated first, in the order of
    the sums.
    """

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.intp)
        order = np.argsort(keys, kind="stable")
        distinct, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
        by_count = np.argsort(-counts, kind="stable")
        position = np.empty_like(by_count)
        position[by_count] = np.arange(by_count.size)
        self._group = np.empty_like(order)
        self._group[order] = np.repeat(position, counts)
        self.keys = distinct[by_count]
        starts, counts = starts[by_count], counts[by_count]

        # Keys [0, n_reduced) are reduced one by one; the rest, which hold at
        # most counts[n_reduced] rows each, take that many rounds.
        n_reduced = int(np.argmin(np.arange(counts.size + 1) + np.r_[counts, 0]))
        self._reduced = [order[s : s + c] for s, c in zip(starts[:n_reduced], counts[:n_reduced])]
        starts, counts = starts[n_reduced:], counts[n_reduced:]
        first = np.repeat(np.cumsum(counts) - counts, counts)
        rank = np.arange(first.size) - first
        self._round_rows = order[(np.repeat(starts, counts) + rank)[np.argsort(rank, kind="stable")]]
        # Keys still adding in round r: those with more than r rows.
        self._round_sizes = counts.size - np.cumsum(np.bincount(counts))[:-1]

    def sum(self, values: np.ndarray) -> np.ndarray:
        n_keys = self.keys.size
        if values.ndim == 1 or values.shape[1] == 1:
            sums = np.bincount(self._group, weights=values.reshape(-1), minlength=n_keys)
            return sums.reshape((n_keys,) + values.shape[1:])
        sums = np.empty((n_keys,) + values.shape[1:])
        for key, rows in enumerate(self._reduced):
            np.add.reduce(values[rows], axis=0, initial=0.0, out=sums[key])
        # Round 0 adds each key's first row to 0.0: that row, taken in place,
        # plus 0.0, which turns -0.0 into 0.0 as np.add.at does.
        rounds = sums[len(self._reduced) :]
        done = len(rounds)
        np.take(values, self._round_rows[:done], axis=0, out=rounds, mode="clip")
        rounds += 0.0
        for size in self._round_sizes[1:]:
            rounds[:size] += values[self._round_rows[done : done + size]]
            done += size
        return sums


def _loss_and_gradients(
    params: ModelParams, batch: np.ndarray, negatives: np.ndarray
) -> tuple[float, GradientTape]:
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    negatives = np.asarray(negatives, dtype=np.int64).reshape(-1, 3)
    triples = np.concatenate([batch, negatives], axis=0)
    labels = np.zeros(triples.shape[0])
    labels[: batch.shape[0]] = 1.0

    cache = _forward(params, triples[:, 0], triples[:, 1], triples[:, 2])
    if not np.all(np.isfinite(cache.phi)):
        bad = int(np.flatnonzero(~np.isfinite(cache.phi))[0])
        raise DivergenceError(f"non-finite score for triple {tuple(int(v) for v in triples[bad])}")
    # softplus(-phi) for positives, softplus(phi) for negatives
    loss = float(np.sum(softplus((1.0 - 2.0 * labels) * cache.phi)))
    dphi = sigmoid(cache.phi) - labels

    heads, rels, tails = cache.heads, cache.rels, cache.tails
    tfd = params.tfd
    n_t, n = params.n_t, heads.size

    # Through the logit and the beta-mix into the three FD factors.
    dlogp = dphi * cache.dphi_dlogp
    w_tfd = (1.0 - tfd.beta) / 3.0
    ds2 = dlogp * w_tfd * (-cache.sig1 / tfd.tau1)
    ds2w = dlogp * tfd.beta * (-cache.sigw / tfd.tau1)
    ddt = (
        dlogp * w_tfd * (tfd.alpha * cache.sig2 - tfd.alpha_prime * cache.sig3) / tfd.tau2
        + (ds2w - ds2) * 2.0 * cache.dt
    )

    # Through the relation maps into coordinates and relation tables.  Both
    # act as (p_a + u) - r * p_b on the translated side a and the scaled side
    # b, in time on h . t and in space on x; time enters dt with its sign.
    # time_grads[s] and space_grads[s] hold the coordinate gradients of the
    # heads (s = 0) or the tails (s = 1) per row, so that the sums add every
    # head row before any tail row, in row order, whichever side is
    # translated.
    a, b, sign = _sides(params, heads, tails)
    side_a, side_b, _ = _sides(params, 0, 1)
    d_time = sign * ddt
    h = params.rel_h[rels]
    r_t = params.rel_r[rels, 0]
    time_grads = np.empty((2, n, n_t))
    np.multiply(d_time[:, None], h, out=time_grads[side_a])
    np.multiply((-d_time * r_t)[:, None], h, out=time_grads[side_b])
    space_grads = np.empty((2, n, params.n_x))
    ddx = np.multiply(((ds2 + ds2w) * 2.0)[:, None], cache.dx, out=space_grads[side_a])
    # -ddx * r as ddx * (-r), the same bits, negating the small table instead
    np.multiply(ddx, np.negative(params.rel_r[:, 1:])[rels], out=space_grads[side_b])

    # Each table is summed per row key in np.add.at's order, then written into
    # a tape of lazily zeroed pages once.
    tape = GradientTape.zeros_like(params)
    entities = _Segments(np.concatenate([heads, tails]))
    relations = _Segments(rels)
    ent_keys, rel_keys = entities.keys, relations.keys
    tape.node_bias[ent_keys] = entities.sum(np.concatenate([dphi, dphi]))
    tape.coords[ent_keys, :n_t] = entities.sum(time_grads.reshape(2 * n, n_t))
    tape.coords[ent_keys, n_t:] = entities.sum(space_grads.reshape(2 * n, -1))
    tape.rel_c[rel_keys] = relations.sum(dphi)
    # Tables the variant freezes receive no gradient.
    frozen = FROZEN[params.variant]
    if "rel_u" not in frozen:
        tape.rel_u[rel_keys, 0] = relations.sum(d_time)
        tape.rel_u[rel_keys, 1:] = relations.sum(ddx)
    if "rel_r" not in frozen:
        tape.rel_r[rel_keys, 0] = relations.sum(-d_time * cache.scaled_proj)
        # -ddx * x_b, formed in place as -(x_b * ddx): the same bits
        x_b = params.coords[b, n_t:]
        x_b *= ddx
        tape.rel_r[rel_keys, 1:] = relations.sum(np.negative(x_b, out=x_b))
    if "rel_h" not in frozen:
        t_a, t_b = params.coords[a, :n_t], params.coords[b, :n_t]
        tape.rel_h[rel_keys] = relations.sum(d_time[:, None] * t_a - (d_time * r_t)[:, None] * t_b)

    tape.touched_entities = np.sort(ent_keys)
    tape.touched_relations = np.sort(rel_keys)
    return loss, tape


# --- optimizers --------------------------------------------------------------


class SgdOptimizer:
    """param -= lr * grad over touched rows."""

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate

    def step(self, params: ModelParams, tape: GradientTape) -> None:
        for name, rows in _update_plan(params, tape):
            getattr(params, name)[rows] -= self.lr * getattr(tape, name)[rows]


class AdamOptimizer:
    """Adam with bias-corrected moments, applied lazily to touched rows only.

    Each row keeps its own step count so bias correction stays exact for
    rows that enter training late.
    """

    def __init__(self, params: ModelParams, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        names = [name for name, _ in params.trained_tables]
        self.m = {n: np.zeros_like(getattr(params, n)) for n in names}
        self.v = {n: np.zeros_like(getattr(params, n)) for n in names}
        self.t = {n: np.zeros(getattr(params, n).shape[0], dtype=np.int64) for n in names}

    def step(self, params: ModelParams, tape: GradientTape) -> None:
        for name, rows in _update_plan(params, tape):
            if rows.size == 0:
                continue
            g = getattr(tape, name)[rows]
            self.t[name][rows] += 1
            t = self.t[name][rows].astype(np.float64)
            m = self.m[name][rows] = self.beta1 * self.m[name][rows] + (1 - self.beta1) * g
            v = self.v[name][rows] = self.beta2 * self.v[name][rows] + (1 - self.beta2) * g * g
            c1 = 1.0 - self.beta1**t
            c2 = 1.0 - self.beta2**t
            if g.ndim == 2:
                c1, c2 = c1[:, None], c2[:, None]
            getattr(params, name)[rows] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


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
        rows = tape.touched_entities
        if rows.size:
            g = tape.coords[rows]
            nu = np.minimum(self.coord_row[rows, None], self.coord_col[None, :]) + g * g
            with np.errstate(divide="ignore", invalid="ignore"):
                upd = np.where(nu > 0.0, g / np.sqrt(nu), 0.0)
            params.coords[rows] -= self.lr * upd
            self.coord_row[rows] = nu.max(axis=1)
            self.coord_col = np.maximum(self.coord_col, nu.max(axis=0))
        for name, idx in _update_plan(params, tape):
            if name == "coords" or idx.size == 0:
                continue
            g = getattr(tape, name)[idx]
            nu = self.acc[name][idx] + g * g
            with np.errstate(divide="ignore", invalid="ignore"):
                upd = np.where(nu > 0.0, g / np.sqrt(nu), 0.0)
            getattr(params, name)[idx] -= self.lr * upd
            self.acc[name][idx] = nu


def _update_plan(params: ModelParams, tape: GradientTape):
    """(table name, rows to update) for each table the variant trains."""
    rows = {"entity": tape.touched_entities, "relation": tape.touched_relations}
    return [(name, rows[key]) for name, key in params.trained_tables]


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
    init_cfg: InitConfig | None = None,
    protocol=None,
    swap_transforms: bool = False,
) -> tuple[ModelParams, list[TrainLogRow]]:
    """Minibatch training with periodic validation and early stopping.

    ``store`` is a TripleStore; with ``config.augment_reverse`` its augmented
    view (reversed triples, doubled relation vocabulary) is trained on and
    negatives corrupt tails only.  Validation MRR is computed every
    ``eval_every`` epochs under ``protocol`` (filtered ranking against the
    full vocabulary by default) and the best checkpoint is returned together
    with the per-epoch log.  An empty validation split is rejected before the
    first epoch.
    """
    from . import evaluation
    from .data import augmented_store

    if config.augment_reverse:
        store = augmented_store(store)
    train_triples = store.splits["train"]
    valid_triples = store.splits["valid"]
    if valid_triples.shape[0] == 0:
        raise ValueError("the validation split is empty; training ranks it for model selection")
    if protocol is None:
        protocol = evaluation.EvalProtocol()

    seeds = np.random.SeedSequence(config.seed).spawn(2)
    if init_cfg is None:
        init_cfg = InitConfig(sigma_init=0.02, seed=int(seeds[0].generate_state(1)[0]))
    rng = np.random.default_rng(seeds[1])

    params = model_init(
        store.n_entities,
        store.n_relations,
        geometry,
        variant,
        init_cfg,
        tfd=tfd,
        swap_transforms=swap_transforms,
    )
    optimizer = make_optimizer(config.optimizer, params, config.learning_rate)

    best = params.copy()
    best_mrr = -np.inf
    rounds_without_improvement = 0
    log: list[TrainLogRow] = []
    t0 = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(train_triples.shape[0])
        total_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = train_triples[order[start : start + config.batch_size]]
            negs = sample_negatives_batch(
                batch, config.m_negatives, config.negative_mode, rng, store.n_entities
            )
            loss, tape = _loss_and_gradients(params, batch, negs)
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

    if not np.isfinite(best_mrr):
        best = params.copy()
    return best, log
