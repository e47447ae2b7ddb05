"""Seeded synthetic graphs with the published shapes of the paper's datasets.

The real WN18RR and Hetionet-small files are not part of the repository, so
the benchmark generates stand-ins with the same entity, relation and split
counts.  Endpoints follow a Zipf popularity law inside clusters, the same
model as ``pseudoe.synthetic.degree_skewed_graph``, but every step is a
vectorized numpy draw: there is no per-edge Python loop, so a 10^5-edge graph
takes well under a second.

Graphs come out as string triples so that loading them goes through
``pseudoe.data.build_store`` exactly as files read from disk would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Entity, relation and split counts of one dataset."""

    name: str
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int


# WN18RR as published: 40,943 entities, 11 relations, 86,835/3,034/3,134
# triples after de-duplication.
WN18RR = Shape("wn18rr", 40_943, 11, 86_835, 3_034, 3_134)

# Hetionet-small: the repository records 12,733 entities and 4 relations but
# no edge count.  60,000 edges give a mean degree of about 9.4, between
# WN18RR (4.5) and FB15K-237 (37); a training step's cost does not depend on
# the edge count, only set-up and the size of the validation round do.
HETIONET_SMALL = Shape("hetionet-small", 12_733, 4, 55_000, 2_500, 2_500)


@dataclass
class Graph:
    """String triples per split plus the generator's own integer view of them."""

    shape: Shape
    entity_names: list[str]
    relation_names: list[str]
    train: list[tuple[str, str, str]]
    valid: list[tuple[str, str, str]]
    test: list[tuple[str, str, str]]
    ids: dict[str, np.ndarray]  # split -> (n, 3) generator indices


def _zipf_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf popularity 1/rank over n nodes, ranks shuffled so that popularity
    does not correlate with node index or cluster."""
    w = 1.0 / np.arange(1, n + 1)
    return rng.permutation(w / w.sum())


def _draw_edges(rng, count, weights, cluster, n_clusters, n_relations, p_local=0.9):
    """``count`` (head, relation, tail) draws: Zipf heads, tails Zipf-weighted
    inside the head's cluster with probability ``p_local``, else anywhere."""
    n = weights.size
    heads = rng.choice(n, size=count, p=weights)
    # Within-cluster inverse-CDF sampling for all edges at once: entities are
    # laid out cluster by cluster and cluster c owns the key interval [c, c+1).
    order = np.argsort(cluster, kind="stable")
    w_sorted = weights[order]
    c_sorted = cluster[order]
    totals = np.bincount(c_sorted, weights=w_sorted, minlength=n_clusters)
    within = np.cumsum(w_sorted) - np.repeat(np.cumsum(totals) - totals, np.bincount(c_sorted, minlength=n_clusters))
    keys = c_sorted + within / totals[c_sorted]
    local = np.searchsorted(keys, cluster[heads] + rng.random(count), side="left")
    local = order[np.minimum(local, n - 1)]
    anywhere = rng.choice(n, size=count, p=weights)
    tails = np.where(rng.random(count) < p_local, local, anywhere)
    rels = rng.integers(0, n_relations, size=count)
    return np.column_stack([heads, rels, tails])


def _unique_rows(rows: np.ndarray, n: int, n_relations: int) -> np.ndarray:
    """Rows without self-loops and duplicates, first occurrence kept in order."""
    rows = rows[rows[:, 0] != rows[:, 2]]
    codes = (rows[:, 0] * n_relations + rows[:, 1]) * n + rows[:, 2]
    _, first = np.unique(codes, return_index=True)
    return rows[np.sort(first)]


def make_graph(shape: Shape, seed: int, n_clusters: int = 50) -> Graph:
    """A de-duplicated graph with exactly ``shape``'s counts, fixed by ``seed``.

    Every entity appears in the training split: one cover edge per entity
    comes first, then Zipf-skewed edges fill the splits.
    """
    rng = np.random.default_rng([seed, shape.n_entities, shape.n_relations])
    n, n_r = shape.n_entities, shape.n_relations
    total = shape.n_train + shape.n_valid + shape.n_test
    weights = _zipf_weights(n, rng)
    cluster = rng.integers(0, n_clusters, size=n)

    cover = _draw_edges(rng, n, weights, cluster, n_clusters, n_r)
    cover[:, 0] = rng.permutation(n)
    loops = cover[:, 0] == cover[:, 2]
    cover[loops, 2] = (cover[loops, 2] + 1) % n
    # Heads are distinct, so no cover edge is a duplicate and all n survive.
    rows = cover
    while rows.shape[0] < total:
        extra = _draw_edges(rng, 2 * (total - rows.shape[0]), weights, cluster, n_clusters, n_r)
        rows = _unique_rows(np.concatenate([rows, extra]), n, n_r)
    # The n cover edges lead and stay in train; the rest is shuffled into the
    # three splits.
    rest = rows[n:total]
    rest = rest[rng.permutation(rest.shape[0])]
    n_rest_train = shape.n_train - n
    ids = {
        "train": np.concatenate([rows[:n], rest[:n_rest_train]]),
        "valid": rest[n_rest_train : n_rest_train + shape.n_valid],
        "test": rest[n_rest_train + shape.n_valid :],
    }
    entity_names = [f"{shape.name}:e{i}" for i in range(n)]
    relation_names = [f"{shape.name}:r{k}" for k in range(n_r)]
    ent = np.asarray(entity_names, dtype=object)
    rel = np.asarray(relation_names, dtype=object)

    def strings(split):
        return list(zip(ent[split[:, 0]].tolist(), rel[split[:, 1]].tolist(), ent[split[:, 2]].tolist()))

    return Graph(shape, entity_names, relation_names, *(strings(ids[s]) for s in ("train", "valid", "test")), ids=ids)


def fixed_negatives(graph: Graph, length: int, seed: int) -> dict[tuple[int, int], np.ndarray]:
    """``length`` distinct corrupted tails per (head, relation) key of the
    validation and test splits, in generator indices.

    No candidate forms a known triple of any split, as in the published
    Hetionet negative lists.  Draws are oversampled and screened per row in
    one vectorized pass; the few rows left short are drawn again.
    """
    rng = np.random.default_rng([seed, graph.shape.n_entities, length])
    n, n_r = graph.shape.n_entities, graph.shape.n_relations
    all_rows = np.concatenate(list(graph.ids.values()))
    known = np.unique((all_rows[:, 0] * n_r + all_rows[:, 1]) * n + all_rows[:, 2])
    held = np.concatenate([graph.ids["valid"], graph.ids["test"]])
    keys = np.unique(held[:, 0] * n_r + held[:, 1])
    out = np.empty((keys.size, length), dtype=np.int64)
    todo = np.arange(keys.size)
    while todo.size:
        draws = np.sort(rng.integers(0, n, size=(todo.size, 2 * length)), axis=1)
        bad = np.zeros(draws.shape, dtype=bool)
        bad[:, 1:] = draws[:, 1:] == draws[:, :-1]
        bad |= np.isin(keys[todo, None] * n + draws, known)
        good_first = np.argsort(bad, axis=1, kind="stable")
        ok = (~bad).sum(axis=1) >= length
        picked = np.take_along_axis(draws, good_first, axis=1)[:, :length]
        out[todo[ok]] = picked[ok]
        todo = todo[~ok]
    return {(int(key // n_r), int(key % n_r)): row for key, row in zip(keys, out)}
