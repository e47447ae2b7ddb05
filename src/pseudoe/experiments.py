"""Tuned desk-scale experiments on the synthetic graphs.

Three self-contained studies, each a few seconds to a minute on a laptop:

* overfit: memorize the 50-node tree + cliques graph at embedding dim 16,
  one preset per optimizer, targeting validation MRR >= 0.95.
* direction: learn edge direction on skip-link chains from the time
  asymmetry alone (no endomorphisms), then watch it vanish at beta = 1
  where the likelihood is isotropic.
* bias vs degree: on a clustered, degree-skewed graph the node biases
  absorb popularity while the distance term stays degree-agnostic, and
  scaling the biases at test time steers predictions toward hubs or
  long-tail nodes.
"""

from __future__ import annotations

import numpy as np

from .geometry import GeometryConfig, Signature
from .likelihood import TfdParams
from .model import InitConfig, ModelParams, scale_node_bias, score_many, score_tails
from .relmaps import Variant
from .synthetic import chain_graph, degree_skewed_graph, tree_clique_graph
from .training import OptimizerKind, TrainConfig, train

__all__ = [
    "OVERFIT_LEARNING_RATES",
    "run_overfit",
    "direction_fraction",
    "run_direction",
    "run_bias_degree",
    "mean_top_prediction_degree",
]

OVERFIT_LEARNING_RATES = {
    OptimizerKind.SGD: 0.03,
    OptimizerKind.ADAM: 0.05,
    OptimizerKind.SM3: 0.5,
}


def run_overfit(optimizer: OptimizerKind, seed: int = 1, max_epochs: int = 200):
    """Train on the tree + cliques graph.

    Returns (best validation MRR, per-epoch log, trained model, store).
    """
    store, _, _ = tree_clique_graph(n_nodes=50, clique_size=5, seed=0)
    tfd = TfdParams(tau1=0.5, tau2=0.5, u=0.5, alpha=0.2, alpha_prime=1.0, beta=0.1)
    config = TrainConfig(
        m_negatives=40,
        batch_size=32,
        learning_rate=OVERFIT_LEARNING_RATES[optimizer],
        optimizer=optimizer,
        max_epochs=max_epochs,
        eval_every=10,
        patience=50,
        seed=seed,
    )
    params, log = train(
        store, config, GeometryConfig(Signature(1, 15)), tfd, Variant.DT,
        init_cfg=InitConfig(0.1, seed),
    )
    best = max(row.val_mrr for row in log if row.val_mrr is not None)
    return best, log, params, store


def direction_fraction(params: ModelParams, split: np.ndarray) -> float:
    """Fraction of edges scored higher forward than reversed; ties count half.

    Scores within 1e-9 (1 + |forward score|) of each other are ties, so an
    exactly symmetric model reads 0.5 despite float roundoff.
    """
    fwd = score_many(params, split[:, 0], split[:, 1], split[:, 2])
    bwd = score_many(params, split[:, 2], split[:, 1], split[:, 0])
    tied = np.abs(fwd - bwd) <= 1e-9 * (1.0 + np.abs(fwd))
    return float(np.mean(np.where(tied, 0.5, fwd > bwd)))


def run_direction(beta: float, seed: int = 10):
    """Train the time-projection-only model on skip-link chains at one beta.

    Returns the held-out direction fraction.  At beta = 0 the asymmetric
    time factors orient the chain; at beta = 1 the score is symmetric under
    head-tail exchange and the fraction collapses to one half.
    """
    store = chain_graph(seed=0)
    tfd = TfdParams(tau1=0.5, tau2=0.15, u=0.5, alpha=0.05, alpha_prime=1.0, beta=beta)
    config = TrainConfig(
        m_negatives=20, batch_size=32, learning_rate=0.05, optimizer=OptimizerKind.ADAM,
        max_epochs=300, eval_every=50, patience=50, seed=seed,
    )
    params, _ = train(
        store, config, GeometryConfig(Signature(1, 7)), tfd, Variant.MT,
        init_cfg=InitConfig(0.1, seed),
    )
    return direction_fraction(params, store.splits["valid"])


def run_bias_degree(seed: int = 3):
    """Train on the clustered degree-skewed graph and split the score by component.

    Returns a dict with Pearson correlations of the bias and distance score
    components against edge degree, the node-level bias/degree correlation,
    and the trained model plus store for follow-up probes.
    """
    store = degree_skewed_graph(seed=0)
    degrees = store.entity_degrees()
    tfd = TfdParams(tau1=0.5, tau2=0.5, u=0.5, alpha=0.2, alpha_prime=1.0, beta=0.1)
    config = TrainConfig(
        m_negatives=40, batch_size=64, learning_rate=0.02, optimizer=OptimizerKind.ADAM,
        max_epochs=250, eval_every=50, patience=50, seed=seed,
    )
    params, _ = train(
        store, config, GeometryConfig(Signature(1, 15)), tfd, Variant.DT,
        init_cfg=InitConfig(0.1, seed),
    )
    test = store.splits["test"]
    bias_component = (
        params.node_bias[test[:, 0]] + params.node_bias[test[:, 2]] + params.rel_c[test[:, 1]]
    )
    tfd_component = score_many(params, test[:, 0], test[:, 1], test[:, 2]) - bias_component
    edge_degree = degrees[test[:, 0]] + degrees[test[:, 2]]
    return {
        "r_bias": float(np.corrcoef(edge_degree, bias_component)[0, 1]),
        "r_tfd": float(np.corrcoef(edge_degree, tfd_component)[0, 1]),
        "r_node": float(np.corrcoef(degrees, params.node_bias)[0, 1]),
        "params": params,
        "store": store,
        "degrees": degrees,
    }


def mean_top_prediction_degree(params: ModelParams, store, degrees, gamma_b: float):
    """Average degree of the top-ranked tail over the first 60 test queries,
    after bias scaling."""
    scaled = scale_node_bias(params, gamma_b)
    test = store.splits["test"][:60]
    tops = []
    for h, k, _ in test:
        scores = score_tails(scaled, int(h), int(k), np.arange(scaled.n_entities))
        tops.append(degrees[int(np.argmax(scores))])
    return float(np.mean(tops))
