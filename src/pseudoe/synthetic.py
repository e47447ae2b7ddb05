"""Small synthetic graphs for sanity experiments and tests.

Three families: a directed tree plus symmetric cliques (memorization target),
directed chains (direction-sensitivity target) and a Zipf-weighted random
digraph (degree-skew target for the bias analysis).  Each store is built from
string triples through the normal data pipeline; `tree_clique_graph` also
returns its triples, for writing a dataset to disk.
"""

from __future__ import annotations

import numpy as np

from .data import TripleStore, build_store

__all__ = [
    "tree_clique_graph",
    "chain_graph",
    "degree_skewed_graph",
    "holdout_split",
]


def holdout_split(triples, rng: np.random.Generator, valid_fraction=0.2, from_train=True):
    """Split triples into (train, valid).

    With ``from_train`` the validation triples stay in training (a
    memorization check); otherwise they are removed (a generalization check).
    """
    triples = list(triples)
    order = rng.permutation(len(triples))
    n_valid = max(1, int(len(triples) * valid_fraction))
    valid = [triples[i] for i in order[:n_valid]]
    train = triples if from_train else [triples[i] for i in order[n_valid:]]
    return train, valid


def tree_clique_graph(
    n_nodes: int = 50, clique_size: int = 5, seed: int = 0
) -> tuple[TripleStore, list, list]:
    """A random directed tree (relation ``parent_of``) over all nodes plus
    symmetric cliques (relation ``same_group``, both directions present) over
    consecutive groups of ``clique_size`` nodes.

    Returns the store and the raw (train, valid) string triples; validation
    is a fifth of the edges, kept inside training so perfect memorization
    yields MRR close to 1 under filtered ranking.
    """
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(n_nodes)]
    triples = []
    for child in range(1, n_nodes):
        parent = int(rng.integers(0, child))
        triples.append((names[parent], "parent_of", names[child]))
    for start in range(0, n_nodes, clique_size):
        group = range(start, min(start + clique_size, n_nodes))
        for a in group:
            for b in group:
                if a != b:
                    triples.append((names[a], "same_group", names[b]))
    train, valid = holdout_split(triples, rng, valid_fraction=0.2, from_train=True)
    store = build_store(train, valid, valid)
    return store, train, valid


def chain_graph(seed: int = 0) -> TripleStore:
    """Two directed chains of 25 nodes with skip links, all under a single
    ``precedes`` relation.

    Each chain keeps its full backbone i -> i+1 in training; the skip edges
    i -> i+2 are split between training and holdout.  The backbone orders
    every node transitively, so a model that learns the direction mechanism
    can orient the held-out skips without ever seeing them.
    """
    rng = np.random.default_rng(seed)
    chain_length, train, held = 25, [], []
    for c in range(2):
        names = [f"c{c}_{i}" for i in range(chain_length)]
        for i in range(chain_length - 1):
            train.append((names[i], "precedes", names[i + 1]))
        for i in range(chain_length - 2):
            edge = (names[i], "precedes", names[i + 2])
            (held if rng.random() < 0.5 else train).append(edge)
    return build_store(train, held, held)


def degree_skewed_graph(seed: int = 0) -> TripleStore:
    """1,200 edges over 200 nodes in 10 clusters, with Zipf-weighted
    endpoints, under one ``links`` relation.

    Edges mostly stay within a cluster (geometric structure for the distance
    term to capture) while endpoint popularity follows a heavy-tailed Zipf
    law that is independent of cluster membership (degree signal for the
    bias terms to capture).  Popularity ranks are shuffled so degree does
    not correlate with cluster id.
    """
    n_nodes, n_clusters = 200, 10
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_nodes + 1)
    weights = rng.permutation(weights / weights.sum())
    cluster = np.arange(n_nodes) % n_clusters
    members = [np.flatnonzero(cluster == c) for c in range(n_clusters)]
    names = [f"v{i}" for i in range(n_nodes)]
    seen = set()
    triples = []
    while len(triples) < 1200:
        h = int(rng.choice(n_nodes, p=weights))
        if rng.random() < 0.9:
            pool = members[cluster[h]]
            w = weights[pool] / weights[pool].sum()
            t = int(rng.choice(pool, p=w))
        else:
            t = int(rng.choice(n_nodes, p=weights))
        if h == t or (h, t) in seen:
            continue
        seen.add((h, t))
        triples.append((names[h], "links", names[t]))
    train, valid = holdout_split(triples, rng, valid_fraction=0.15, from_train=False)
    return build_store(train, valid, valid)
