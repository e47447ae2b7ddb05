"""Filtered ranking evaluation: MRR, hits@k, per-relation breakdowns, beta sweeps.

Each test triple is ranked by scoring its true tail against candidate tails.
Under the full filtered protocol the candidates are every entity except those
forming a known true triple (other than the test triple itself); under the
fixed-negatives protocol they are a stored per-(head, relation) candidate
list.  Ties share their rank: rank = 1 + #{better} + #{equal}/2, so a
constant scorer earns mid-range ranks rather than rank 1.

Queries are ranked in batches through one body (`_ranks`): the protocol
gives each query the count of competitors already decided better (by the
screen of `_screened` in full-filtered mode, none with fixed negatives) and
the candidates to score exactly, and the batch's true tails and candidates
are scored in one `model._score_ragged` call, the kernel's one score body in
tail-id order; ranks equal brute force, ties included.  A NaN exact score
compares false with every score, so it is refused by triple rather than
ranked first.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import _CANDIDATE_BATCH, ModelParams, _in_shares, _score_ragged, _screen
from .data import FilterIndex, NegativesTable, _check_ids

__all__ = [
    "EvalMode",
    "EvalProtocol",
    "ProtocolError",
    "RelationStats",
    "RankReport",
    "aggregate",
    "evaluate_split",
    "beta_sweep",
    "write_report_csv",
    "format_report",
    "write_sweep_csv",
]


class EvalMode(str, Enum):
    FULL_FILTERED = "full"
    FIXED_NEGATIVES = "fixed"


class ProtocolError(ValueError):
    """Evaluation asked for data the protocol does not carry."""


# The hits@k cutoffs of every report.
HITS_AT = (1, 3, 10)


@dataclass(frozen=True)
class EvalProtocol:
    """How candidates are chosen: every entity, or a stored list per query.

    ``mode`` may be given by its value, e.g. ``"fixed"``; a negatives table
    comes with the fixed-negatives mode and with no other.
    """

    mode: EvalMode = EvalMode.FULL_FILTERED
    negatives: NegativesTable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", EvalMode(self.mode))
        if self.mode is EvalMode.FIXED_NEGATIVES and self.negatives is None:
            raise ProtocolError("fixed-negatives evaluation requires a negatives table")
        if self.mode is EvalMode.FULL_FILTERED and self.negatives is not None:
            raise ProtocolError("full-filtered evaluation ranks every entity and takes no negatives table")


@dataclass
class RelationStats:
    mrr: float
    hits: dict[int, float]
    count: int


@dataclass
class RankReport:
    """Per-triple filtered ranks plus their aggregates."""

    per_triple_ranks: list[tuple[tuple[int, int, int], float]]
    mrr: float
    hits_at: dict[int, float]
    per_relation: dict[int, RelationStats] = field(default_factory=dict)


# Queries per full-filtered batch, each batch one pass of the screen over the
# entity table.  A fixed-negatives batch holds at most `model._CANDIDATE_BATCH`
# tails, its true tails and stored candidates, scored together in tail-id order.
_QUERY_BATCH = 64

# Entities below which the screen's per-query decisions run inline, on the
# calling thread: each numpy call of a decision covers one value per entity,
# and the shorter the calls, the more two threads lose to handing over the
# interpreter lock.  On a 2-vCPU host (DT models at WN18RR's n_x = 500, no
# candidate left undecided), shared decisions against inline ones took a
# median 1.37-1.49x as long at 600 entities and 1.09-1.23x at 2,000 for 3
# queries, and 1.02-1.03x at either for 64; 0.99-1.05x at 5,000 and
# 0.98-1.02x at 7,500; 0.94-0.95x (3 queries) and 0.91-1.03x (64) at 10,000;
# 0.92-0.94x and 0.80-0.93x at FB15k-237's 14,541; and 0.90x and 0.69-0.70x
# at WN18RR's 40,943 (two or three runs of 16-60 alternating pairs each).
_SHARED_ENTITIES = 10_000


def _screened(params: ModelParams, queries: np.ndarray, index: FilterIndex):
    """Full-filtered candidates of each query: the count of entities it is
    not filtered against that the screen decides better than its true tail,
    and the ids of those it leaves undecided, which `_ranks` scores.

    `_screen` reads the entity table once for the whole batch, with matrix
    products that BLAS threads.  Its per-query decisions are shares, from
    `_SHARED_ENTITIES` entities up: each query is one item of `_in_shares`,
    which finishes the query's screen and writes its count and undecided ids
    straight into the batch's arrays.  No item calls `_in_shares` or BLAS.

    The screen bounds every entity's exact score within its margin of its
    screened score, the true tail t's included, so a candidate c is better
    when phi_c - phi_t > margin_c + margin_t and worse when below minus that
    sum.  The rounding of the difference, within eps (|phi_c| + |phi_t|), and
    of the sum, within eps (margin_c + margin_t), fits in the spare half of
    the two margins: each is twice its bound and at least 128 eps (1 + |phi|).
    The filtered tails and t itself are pinned to phi = -inf, margin = 0:
    decided, and not better.  The sum m of two margins is >= 0 or NaN, and
    for such m, |phi| > m holds exactly when phi > m or phi < -m does, so
    one comparison of |phi| finds every decided entity.  If phi_t or
    margin_t is infinite or NaN, so is every sum or difference (an infinite
    phi_t makes margin_t infinite), no comparison holds, and every unfiltered
    entity of the query is rescored, in `_CANDIDATE_BATCH` slices.
    """
    screen = _screen(params, queries[:, 0], queries[:, 1])
    better = np.zeros(len(queries), dtype=np.int64)
    undecided = [None] * len(queries)

    def decide(share):
        for q in share:
            h, k, t = queries[q].tolist()
            phi, margin = screen(q)  # fresh arrays, shifted and pinned in place
            # phi_t = phi_c = +inf gives inf - inf: the NaN leaves c undecided,
            # and the exact comparison decides it.
            with np.errstate(invalid="ignore"):
                phi -= phi[t]
            margin += margin[t]
            out = np.append(index.tails(h, k), t)  # the true triple is never its own competitor
            phi[out], margin[out] = -np.inf, 0.0
            better[q] = np.count_nonzero(phi > margin)
            undecided[q] = np.flatnonzero(~(np.abs(phi, out=phi) > margin))  # NaN differences included

    width = params.n_entities if params.n_entities >= _SHARED_ENTITIES else 0  # 0: inline
    _in_shares(decide, range(len(queries)), width)
    return better, undecided


def _refuse_augmented(mode: EvalMode, augmented: bool) -> None:
    """Refuse fixed negatives for a split augmented with reversed triples:
    the stored lists key the plain (head, relation) pairs, none the inverse."""
    if mode is EvalMode.FIXED_NEGATIVES and augmented:
        raise ProtocolError("fixed-negatives protocol does not combine with augment_reverse")


def _stored_negatives(params: ModelParams, split: np.ndarray, negatives: NegativesTable) -> np.ndarray:
    """The stored negatives of each triple's (head, relation), one row each,
    checked before any scoring: a missing list or one not `negatives.length`
    long is refused by name, and every id by the id rule (`data._check_ids`).
    Each list that is not already signed is checked on its own, before the
    int64 stack: a bool list's dtype, and a uint list's values, which the cast
    would otherwise hide (2**63 wraps negative)."""
    lists = []
    for h, k, _ in split.tolist():
        entry = negatives.table.get((h, k))
        if entry is None:
            raise ProtocolError(f"no fixed negatives stored for head={h}, relation={k}")
        entry = np.asarray(entry)
        if entry.shape != (negatives.length,):
            raise ProtocolError(
                f"fixed negatives for head={h}, relation={k} hold {entry.size} tails, "
                f"the table's length is {negatives.length}"
            )
        if entry.dtype.kind != "i":
            _check_ids(params, h, k, entry)
        lists.append(entry)
    table = np.stack(lists, dtype=np.int64)
    _check_ids(params, split[:, 0], split[:, 1], table)
    return table


def _refuse_nan(scores, heads, rels, tails, lists) -> None:
    """Raise ValueError naming the first (head, relation, tail) whose exact
    score is NaN: NaN compares false with every score, so it would rank first."""
    nan = np.isnan(scores)
    if nan.any():
        j = int(np.argmax(nan))
        q = lists[j]
        raise ValueError(f"score of triple ({heads[q]}, {rels[q]}, {tails[j]}) is NaN, which cannot be ranked")


def _ranks(params: ModelParams, split: np.ndarray, index: FilterIndex, protocol: EvalProtocol):
    """Average-tie rank 1 + #better + #equal / 2 of every triple of ``split``.

    The triples are ranked in turn in batches, of at most `_QUERY_BATCH`
    queries in full-filtered mode and at most `_CANDIDATE_BATCH` tails in
    fixed-negatives mode.  The protocol gives each query the count of
    competitors already decided better and the candidates to score exactly
    (`_screened`, or the stored list with none decided); the batch's true
    tails and candidates are scored in one `_score_ragged` call, under one
    NaN check, and each candidate is compared with its query's true score.
    Every count is exact, so the ranks do not depend on the batching.
    """
    if split.shape[0] == 0:
        return np.zeros(0)
    fixed = protocol.mode is EvalMode.FIXED_NEGATIVES
    if fixed:
        stored = _stored_negatives(params, split, protocol.negatives)
        size = max(1, _CANDIDATE_BATCH // (protocol.negatives.length + 1))
    else:
        size = _QUERY_BATCH
    ranks = []
    for s in range(0, split.shape[0], size):
        queries = split[s : s + size]
        heads, rels, q = queries[:, 0], queries[:, 1], np.arange(len(queries))
        if fixed:
            better, candidates = np.zeros(q.size, dtype=np.int64), stored[s : s + size]
        else:
            better, candidates = _screened(params, queries, index)
        lists = np.concatenate([q, np.repeat(q, [c.size for c in candidates])])
        tails = np.concatenate([queries[:, 2], *candidates])  # the true tails first
        exact = _score_ragged(params, heads, rels, tails, lists)
        _refuse_nan(exact, heads, rels, tails, lists)
        truth = exact[lists]
        better += np.bincount(lists[exact > truth], minlength=q.size)
        equal = np.bincount(lists[exact == truth], minlength=q.size) - 1  # each true tail ties with itself
        ranks.append(1.0 + better + 0.5 * equal)
    return np.concatenate(ranks)


def _filter_index(params: ModelParams, filter_set) -> FilterIndex:
    """``filter_set`` as a FilterIndex, checked against the model's vocabulary sizes."""
    if not isinstance(filter_set, FilterIndex):
        filter_set = FilterIndex(list(filter_set), params.n_entities, params.n_relations)
    sizes = (filter_set.n_entities, filter_set.n_relations)
    if sizes != (params.n_entities, params.n_relations):
        raise ValueError(
            f"filter index covers {sizes[0]} entities and {sizes[1]} relations, "
            f"the model {params.n_entities} entities and {params.n_relations} relations"
        )
    return filter_set


def aggregate(ranks) -> RankReport:
    """MRR, hits@k at `HITS_AT` and per-relation breakdown from (triple, rank) pairs."""
    ranks = list(ranks)
    if not ranks:
        raise ValueError("cannot aggregate an empty rank list")
    values = np.asarray([r for _, r in ranks], dtype=np.float64)
    recip = 1.0 / values
    report = RankReport(
        per_triple_ranks=ranks,
        mrr=float(recip.mean()),
        hits_at={k: float(np.mean(values <= k)) for k in HITS_AT},
    )
    by_rel: dict[int, list[float]] = defaultdict(list)
    for (h, k, t), r in ranks:
        by_rel[int(k)].append(r)
    for k, rel_ranks in sorted(by_rel.items()):
        arr = np.asarray(rel_ranks)
        report.per_relation[k] = RelationStats(
            mrr=float(np.mean(1.0 / arr)),
            hits={c: float(np.mean(arr <= c)) for c in HITS_AT},
            count=arr.size,
        )
    return report


def evaluate_split(
    params: ModelParams,
    split: np.ndarray,
    filter_set,
    protocol: EvalProtocol | None = None,
    threads: int = 1,
) -> RankReport:
    """Rank every triple of a split and aggregate.

    ``filter_set`` holds every known true triple across all splits, as a
    `FilterIndex` or a plain set of id triples; candidate tails forming one
    of them (other than the ranked triple itself) are excluded in
    full-filtered mode and ignored in fixed-negatives mode.  A one-row split
    ranks a single triple.

    The split, the filter set and the stored negatives obey the id rule
    (`data._check_ids`), checked before any scoring.  Batches run one after
    another.  In full-filtered mode each batch reads the entity table once,
    in the screen's matrix products, which BLAS may thread; the screen's
    per-query decisions and the exact scorer's row blocks are shared out to
    every CPU (`model._in_shares`).  ``threads`` must be 1: the keyword stays
    only because the benchmark in ``perfbench/`` still passes ``threads=1``,
    and it goes once the benchmark drops it.
    """
    if threads != 1:
        raise ValueError(f"evaluation is single-threaded; threads must be 1, got {threads}")
    protocol = protocol or EvalProtocol()
    split = np.asarray(split).reshape(-1, 3)
    _check_ids(params, split[:, 0], split[:, 1], split[:, 2])  # before the cast would truncate
    split = split.astype(np.int64, copy=False)
    ranks = _ranks(params, split, _filter_index(params, filter_set), protocol)
    pairs = [(tuple(row), rank) for row, rank in zip(split.tolist(), ranks.tolist())]
    return aggregate(pairs)


def beta_sweep(
    points, split: np.ndarray, filter_set, protocol: EvalProtocol | None = None
) -> list[tuple[float, int, float, float]]:
    """Per-relation MRR as the mixing weight beta varies.

    ``points`` yields ``(beta, models)`` pairs: the models scored at that
    point, one rescored checkpoint or several retrained ones.  Each model is
    ranked with `evaluate_split`.  A point's rows are (beta, relation, mean
    MRR over its models, their sample standard deviation, 0 for one model),
    and the points' rows come in the order given, a repeated beta included.
    A point with no models raises ValueError rather than give no rows.
    """
    rows: list[tuple[float, int, float, float]] = []
    for beta, models in points:
        per_rel: dict[int, list[float]] = defaultdict(list)
        count = 0
        for count, params in enumerate(models, 1):
            for rel, stats in evaluate_split(params, split, filter_set, protocol).per_relation.items():
                per_rel[rel].append(stats.mrr)
        if count < 1:
            raise ValueError(f"beta {beta}: models must be >= 1, got {count}")
        for rel, mrrs in sorted(per_rel.items()):
            arr = np.asarray(mrrs)
            sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            rows.append((float(beta), rel, float(arr.mean()), sd))
    return rows


def format_report(report: RankReport, relation_names=None, per_relation: bool = False) -> str:
    """Human-readable metrics table."""
    ks = sorted(report.hits_at)
    lines = ["triples  mrr      " + "  ".join(f"hits@{k:<4d}" for k in ks)]
    hits = "  ".join(f"{report.hits_at[k]:<9.4f}" for k in ks)
    lines.append(f"{len(report.per_triple_ranks):<8d} {report.mrr:<8.4f} {hits}")
    if per_relation:
        lines.append("")
        lines.append("relation                         count  mrr      hits@10")
        for rel, stats in report.per_relation.items():
            name = relation_names(rel) if relation_names else str(rel)
            lines.append(f"{name:<32s} {stats.count:<6d} {stats.mrr:<8.4f} {stats.hits.get(10, float('nan')):.4f}")
    return "\n".join(lines)


def write_report_csv(report: RankReport, path, relation_names=None) -> None:
    """CSV with one ALL row plus one row per relation: relation, count, mrr, hits1, hits3, hits10."""
    ks = sorted(report.hits_at)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["relation", "count", "mrr"] + [f"hits{k}" for k in ks])
        w.writerow(
            ["ALL", len(report.per_triple_ranks), f"{report.mrr:.10g}"]
            + [f"{report.hits_at[k]:.10g}" for k in ks]
        )
        for rel, stats in report.per_relation.items():
            name = relation_names(rel) if relation_names else str(rel)
            w.writerow(
                [name, stats.count, f"{stats.mrr:.10g}"]
                + [f"{stats.hits.get(k, float('nan')):.10g}" for k in ks]
            )


def write_sweep_csv(rows, path, relation_names=None) -> None:
    """Tidy CSV of beta-sweep rows: beta, relation, mrr, sd."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["beta", "relation", "mrr", "sd"])
        for beta, rel, mrr, sd in rows:
            name = relation_names(rel) if relation_names else str(rel)
            w.writerow([f"{beta:.10g}", name, f"{mrr:.10g}", f"{sd:.10g}"])
