"""Multi-relational graph embeddings on flat spacetime manifolds.

Entities live on a flat pseudo-Riemannian manifold with n_t time and n_x
space dimensions; edge probabilities come from a triple Fermi-Dirac
likelihood over (projected, transformed) point pairs, optionally blended
with its Wick-rotated Euclidean counterpart, plus node and relation biases.
"""

from .geometry import GeometryConfig, Signature
from .likelihood import TfdParams
from .model import (
    InitConfig,
    ModelParams,
    init,
    load_checkpoint,
    probability,
    save_checkpoint,
    scale_node_bias,
    score,
    score_many,
    score_tails,
)
from .relmaps import Variant
from .training import TrainConfig, train
from .evaluation import EvalMode, EvalProtocol, RankReport, aggregate, beta_sweep, evaluate_split
from .data import FilterIndex, NegativesTable, TripleStore, build_store, load_dataset, load_negatives, load_triples

__version__ = "0.1.0"
