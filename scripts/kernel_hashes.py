#!/usr/bin/env python3
"""Print sha256 hashes of every kernel output, as JSON, for a bit-parity check.

A refactor of the scoring kernel, its backward pass or the optimizers should
keep every bit.  This script hashes what they compute on 48 configurations:
DT, MT at n_t = 3 and n_t = 41, and BOTH, each with and without swapped
transforms, with and without a time cylinder, and trained with SGD, Adam and
SM3.  Per configuration it hashes nine outputs:

- ``score_many`` on a batch of random triples;
- ``score_tails`` over every entity and over a shuffled subset;
- ``_score_ragged`` on 40 lists of 81 tails (key ``score_lists``);
- the phi and margin arrays of ``_screen`` for three queries (key
  ``screen_tails``);
- the gradients of 30 training steps (tail-only and head-and-tail negatives
  in turn), every table and the touched rows.  Each table is hashed through
  the tape's dense view, so a compact row written to the wrong key moves the
  hash;
- ``nll_loss`` of each step's batch;
- the parameters after those 30 optimizer steps, and the bytes
  ``save_checkpoint`` writes for them;
- the per-triple ranks of a split in full-filtered and fixed-negatives mode.

Every third step holds 128 positives instead of 32, 1,408 rows with their
negatives: it touches nearly all 300 entity rows, more than two full blocks
of the optimizers' and the backward's `_TAIL_BLOCK` = 128 rows, and each
relation holds 198 to 407 rows, two to four blocks of the relation sums.  Every
model holds a clone of entity 1, so exact ties occur.

The hashes sit under ``"hashes"``, next to the ``"environments"`` they were
computed in: numpy's version and enabled CPU features, the BLAS library and
the platform.  ``tests/data/kernel_hashes.json`` holds this output, and a
test recomputes it wherever the environment is one of those listed.  An
environment whose recomputed hashes all equal the committed ones, at both
of the test's thread settings, is appended to that list by hand; the
hashes themselves stay as they are.  The CPU count is not part of the
environment, on purpose: each block of the row-block loops is computed
whole by one thread, so the hashes must not depend on how many threads
share the blocks out.  These shapes are narrower than `model._SHARED_WIDTH`
and these graphs smaller than `evaluation._SHARED_ENTITIES`, so by default
every loop runs on the calling thread; the test recomputes the hashes so,
then forced to 3 threads with every loop shared out, against the same
committed file.  A change that moves bits on purpose regenerates that file:

    PYTHONPATH=src python scripts/kernel_hashes.py > tests/data/kernel_hashes.json
"""

import hashlib
import itertools
import json
import platform
import tempfile
import warnings
from pathlib import Path

import numpy as np

from pseudoe.data import FilterIndex, NegativesTable
from pseudoe.evaluation import EvalMode, EvalProtocol, evaluate_split
from pseudoe.geometry import GeometryConfig, Signature
from pseudoe.likelihood import TfdParams
from pseudoe.model import TABLES, InitConfig, _score_ragged, _screen, init, save_checkpoint, score_many, score_tails
from pseudoe.training import NegativeMode, gradients, make_optimizer, nll_loss, sample_negatives_batch

N_ENTITIES, N_RELATIONS, N_X = 300, 5, 16
CLONE = N_ENTITIES - 1
VARIANTS = (("dt", 1), ("mt", 3), ("mt", 41), ("both", 2))
OPTIMIZERS = ("sgd", "adam", "sm3")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _model(variant: str, n_t: int, swap: bool, cylinder: float | None):
    geometry = GeometryConfig(Signature(n_t, N_X), cylinder)
    tfd = TfdParams(tau1=0.7, tau2=0.5, u=0.1, alpha=0.4, alpha_prime=0.9, beta=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n_t = 41 exceeds the relation count
        params = init(N_ENTITIES, N_RELATIONS, geometry, variant, InitConfig(0.5, seed=3), tfd, swap)
    rng = np.random.default_rng(4)
    params.node_bias[:] = rng.normal(0.0, 0.3, N_ENTITIES)
    params.rel_c[:] = rng.normal(0.0, 0.3, N_RELATIONS)
    if variant != "mt":  # MT freezes its scalings at 1
        params.rel_r[:] = rng.uniform(0.5, 1.5, params.rel_r.shape)
    params.coords[CLONE] = params.coords[1]
    params.node_bias[CLONE] = params.node_bias[1]
    return params


def _triples(rng, size: int) -> np.ndarray:
    return np.column_stack(
        [rng.integers(0, N_ENTITIES, size), rng.integers(0, N_RELATIONS, size), rng.integers(0, N_ENTITIES, size)]
    )


def _scores(params, rng) -> dict:
    heads, rels, tails = _triples(rng, 500).T
    subset = rng.permutation(np.concatenate([rng.integers(0, N_ENTITIES, 90), [1, 1, CLONE]]))
    every = np.arange(N_ENTITIES)
    lists = rng.integers(0, N_ENTITIES, (40, 81))
    ragged = _score_ragged(params, heads[:40], rels[:40], lists.reshape(-1), np.repeat(np.arange(40), 81))
    screen = _screen(params, heads[:3], rels[:3])
    return {
        "score_many": _digest(score_many(params, heads, rels, tails)),
        "score_tails": _digest(*(score_tails(params, h, k, t) for h, k in ((0, 0), (1, 4)) for t in (every, subset))),
        "score_lists": _digest(ragged.reshape(lists.shape)),
        "screen_tails": _digest(*itertools.chain.from_iterable(screen(q) for q in range(3))),
    }


def _ranks(params, rng) -> str:
    known = _triples(rng, 900)
    split = np.concatenate([known[:60], [[0, 0, 1], [0, 0, CLONE], [2, 3, 1]]])
    index = FilterIndex(known, N_ENTITIES, N_RELATIONS)
    full = evaluate_split(params, split, index)
    table = {(int(h), int(k)): rng.integers(0, N_ENTITIES, 30) for h, k, _ in split}
    for h, k, _ in split[-3:]:
        table[int(h), int(k)][:2] = (1, CLONE)
    fixed_protocol = EvalProtocol(mode=EvalMode.FIXED_NEGATIVES, negatives=NegativesTable(table, 30))
    fixed = evaluate_split(params, split, index, fixed_protocol)
    return _digest(*(np.asarray([r for _, r in report.per_triple_ranks]) for report in (full, fixed)))


def _training(params, optimizer: str, rng) -> dict:
    opt = make_optimizer(optimizer, params, 0.05)
    tapes, losses = [], []
    for step in range(30):
        batch = _triples(rng, 128 if step % 3 == 2 else 32)
        mode = NegativeMode.TAIL_ONLY if step % 2 == 0 else NegativeMode.BOTH
        negatives = sample_negatives_batch(batch, 10, mode, rng, N_ENTITIES)
        losses.append(nll_loss(params, batch, negatives))
        tape = gradients(params, batch, negatives)
        tapes += [getattr(tape, name) for name, _ in TABLES] + [tape.touched_entities, tape.touched_relations]
        opt.step(params, tape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(params, path)
        checkpoint = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "gradients": _digest(*tapes),
        "losses": _digest(np.asarray(losses)),
        "parameters": _digest(*(getattr(params, name) for name, _ in TABLES)),
        "checkpoint": checkpoint,
    }


def environment() -> dict:
    """What the hashes may depend on besides the code."""
    config = np.show_config(mode="dicts")
    simd, blas = config["SIMD Extensions"], config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "cpu_features": " ".join(simd["baseline"] + simd["found"]),
        "blas": f"{blas['name']} {blas['version']}",
        "platform": f"{platform.system()} {platform.machine()} {' '.join(platform.libc_ver())}",
    }


def hashes() -> dict:
    """The nine hashes of every configuration, by configuration name."""
    rows = {}
    for (variant, n_t), swap, cylinder, optimizer in itertools.product(
        VARIANTS, (False, True), (None, 2.5), OPTIMIZERS
    ):
        name = f"{variant}{n_t}-{'swap' if swap else 'noswap'}-{'cyl' if cylinder else 'flat'}-{optimizer}"
        params = _model(variant, n_t, swap, cylinder)
        rng = np.random.default_rng(5)
        row = _scores(params, rng)
        row["ranks"] = _ranks(params, rng)
        row.update(_training(params, optimizer, rng))
        rows[name] = row
    return rows


def main():
    print(json.dumps({"environments": [environment()], "hashes": hashes()}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
