"""Filtered ranking evaluation: MRR, hits@k, per-relation breakdowns, beta sweeps.

Each test triple is ranked by scoring its true tail against candidate tails.
Under the full filtered protocol the candidates are every entity except those
forming a known true triple (other than the test triple itself); under the
fixed-negatives protocol they are a stored per-(head, relation) candidate
list.  Ties share their rank: rank = 1 + #{better} + #{equal}/2, so a
constant scorer earns mid-range ranks rather than rank 1.

Queries are ranked in batches, one after another.  In full-filtered mode
one pass over the entity table screens every entity against every query of
a batch with two matrix products (`model._screen_tails`), with a margin
that bounds the distance to the exact score; only the candidates within
their margin of the true score are rescored with `score_tails`.  In
fixed-negatives mode the batch's candidate lists, each closed by its true
tail, are scored together.  Both go through the one exact candidate scorer,
`model._score_lists` (`score_tails` is one list of it), which walks the
candidates in the order of their tail ids, so that the entity table is read
front to back.  Either way every comparison is made on the kernel's exact
scores, so ranks equal brute force, ties included.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .model import ModelParams, _check_ids, _score_lists, _screen_tails, score_tails
from .data import FilterIndex, NegativesTable

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
    """How candidates are chosen: every entity, or a stored list per query."""

    mode: EvalMode = EvalMode.FULL_FILTERED
    negatives: NegativesTable | None = None

    def __post_init__(self) -> None:
        if self.mode is EvalMode.FIXED_NEGATIVES and self.negatives is None:
            raise ProtocolError("fixed-negatives evaluation requires a negatives table")


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


# Queries ranked per call of the full-filtered counter, each call one pass of
# the screen over the entity table; and candidates per call of the
# fixed-negatives counter, which scores them together in tail-id order.
_QUERY_BATCH = 64
_CANDIDATE_BATCH = 1 << 17


def _full_filtered_counts(params: ModelParams, queries: np.ndarray, index: FilterIndex):
    """Exact better/equal counts of each query's true tail against every
    entity it is not filtered against.

    `_screen_tails` decides every candidate whose approximate score lies
    farther from the true score than its margin; the rest, typically a
    handful, are rescored with `score_tails`, the kernel's exact bits, and
    compared with true scores from the same scorer.
    """
    true_scores = _score_lists(params, queries[:, 0], queries[:, 1], queries[:, 2:])[:, 0]
    better = np.zeros(len(queries), dtype=np.int64)
    equal = np.zeros(len(queries), dtype=np.int64)
    keep = np.empty(params.n_entities, dtype=bool)
    screens = _screen_tails(params, queries[:, 0], queries[:, 1])
    for q, (phi, margin) in enumerate(screens):
        h, k, t = (int(v) for v in queries[q])
        keep[:] = True
        keep[index.tails(h, k)] = False
        keep[t] = False  # the true triple is never its own competitor
        gap = phi - true_scores[q]
        above, below = gap > margin, gap < -margin
        undecided = np.flatnonzero(keep & ~above & ~below)  # NaN gaps included
        exact = score_tails(params, h, k, undecided)
        better[q] = np.count_nonzero(keep & above) + np.count_nonzero(exact > true_scores[q])
        equal[q] = np.count_nonzero(exact == true_scores[q])
    return better, equal


def _fixed_negative_counts(params: ModelParams, queries: np.ndarray, negatives: NegativesTable):
    """Exact better/equal counts of each query's true tail against its stored
    negatives: the lists, each closed by its true tail, scored as one array by
    `_score_lists`, then compared all at once."""
    lists = []
    for h, k, _ in queries.tolist():
        entry = negatives.table.get((h, k))
        if entry is None:
            raise ProtocolError(f"no fixed negatives stored for head={h}, relation={k}")
        lists.append(entry)
    tails = np.column_stack([np.stack(lists), queries[:, 2]])
    _check_ids(params, queries[:, 0], queries[:, 1], tails)
    scores = _score_lists(params, queries[:, 0], queries[:, 1], tails)
    competitors, true_scores = scores[:, :-1], scores[:, -1:]
    return np.count_nonzero(competitors > true_scores, axis=1), np.count_nonzero(competitors == true_scores, axis=1)


def _ranks(params: ModelParams, split: np.ndarray, index: FilterIndex, protocol: EvalProtocol):
    """Average-tie rank 1 + #better + #equal / 2 of every triple of ``split``.

    The triples are ranked in turn in batches, of at most `_QUERY_BATCH`
    queries in full-filtered mode and at most `_CANDIDATE_BATCH` candidates in
    fixed-negatives mode; every count is exact, so the ranks do not depend on
    the batching.
    """
    _check_ids(params, split[:, 0], split[:, 1], split[:, 2])
    if split.shape[0] == 0:
        return np.zeros(0)
    if protocol.mode is EvalMode.FIXED_NEGATIVES:
        count = partial(_fixed_negative_counts, params, negatives=protocol.negatives)
        size = max(1, _CANDIDATE_BATCH // (protocol.negatives.length + 1))
    else:
        count = partial(_full_filtered_counts, params, index=index)
        size = _QUERY_BATCH
    counts = [count(split[s : s + size]) for s in range(0, split.shape[0], size)]
    better = np.concatenate([b for b, _ in counts])
    equal = np.concatenate([e for _, e in counts])
    return 1.0 + better + 0.5 * equal


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

    Batches run one after another; the exact scorer shares its row blocks
    out to every CPU (`model._in_shares`) and BLAS may use several threads
    for the screen's matrix products.  ``threads`` must be 1: the keyword
    stays only because the benchmark in ``perfbench/`` still passes
    ``threads=1``, and it goes once the benchmark drops it.
    """
    if threads != 1:
        raise ValueError(f"evaluation is single-threaded; threads must be 1, got {threads}")
    protocol = protocol or EvalProtocol()
    split = np.asarray(split, dtype=np.int64).reshape(-1, 3)
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
