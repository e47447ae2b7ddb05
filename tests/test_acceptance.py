"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two full-dataset
reproduction targets (Hetionet-small, WN18RR) take hours and need external
data; they are documented in the README and skip here unless their dataset
directories are supplied via PSEUDOE_HETIONET / PSEUDOE_WN18RR.
"""

import os
import time

import numpy as np
import pytest

from conftest import make_random_model
from gradcheck import max_gradient_mismatch
from pseudoe.evaluation import EvalProtocol, evaluate_split
from pseudoe.experiments import (
    direction_fraction,
    mean_top_prediction_degree,
    run_bias_degree,
    run_direction,
    run_overfit,
)
from pseudoe.likelihood import TfdParams
from pseudoe.model import _likelihood, load_checkpoint, save_checkpoint
from pseudoe.presets import PRESETS
from pseudoe.relmaps import Variant
from pseudoe.training import NegativeMode, OptimizerKind, sample_negatives_batch
from reference import log_fd, log_interpolated, log_tfd


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_gradient_exactness(rng):
    """Analytic gradients match central finite differences (h=1e-6) to < 1e-5."""
    t0 = time.perf_counter()
    cases = []
    seed = 0
    matrix = [(Variant.MT, False), (Variant.DT, False), (Variant.BOTH, False), (Variant.BOTH, True)]
    for variant, swap in matrix:
        for beta in (0.0, 0.3, 1.0):
            for cylinder in (None, 3.0):
                seed += 1
                n_t = 1 if variant is Variant.DT else int(rng.integers(2, 4))
                cases.append(
                    dict(
                        n_entities=int(rng.integers(5, 11)),
                        n_relations=3,
                        n_t=n_t,
                        n_x=int(rng.integers(2, 9)),
                        variant=variant,
                        beta=beta,
                        cylinder=cylinder,
                        seed=seed,
                        swap=swap,
                    )
                )
    assert len(cases) >= 20
    worst = 0.0
    for case in cases:
        params = make_random_model(**case)
        b = int(rng.integers(2, 4))
        batch = np.column_stack(
            [
                rng.integers(0, params.n_entities, b),
                rng.integers(0, params.n_relations, b),
                rng.integers(0, params.n_entities, b),
            ]
        )
        negs = sample_negatives_batch(batch, 4, NegativeMode.BOTH, rng, params.n_entities)
        worst = max(worst, max_gradient_mismatch(params, batch, negs))
    elapsed = time.perf_counter() - t0
    report(
        "gradient exactness",
        worst < 1e-5 and elapsed < 60,
        f"{len(cases)} models, max relative error {worst:.2e} (< 1e-5), {elapsed:.1f}s (< 60s)",
    )


def test_likelihood_invariants(rng):
    """Likelihood stays in (0,1), in the oracle and in the kernel at preset temperatures
    with exponents past 1e4; interpolation endpoints exact; symmetry and monotonicity."""
    t0 = time.perf_counter()
    params = TfdParams(tau1=0.29015, tau2=0.21697, u=0.040226, alpha=0.3673, alpha_prime=0.75182)
    s2 = rng.uniform(-100.0, 100.0, 100_000)
    dt = rng.uniform(-50.0, 50.0, 100_000)
    values = log_tfd(s2, dt, params)
    in_unit = bool(np.all(values < 0.0) and np.all(np.isfinite(values)))

    lt = log_tfd(1.3, 0.4, params)
    lw = log_fd(2.1, params.tau1, params.u, 1.0)
    endpoints = log_interpolated(lt, lw, 0.0) == lt and log_interpolated(lt, lw, 1.0) == lw

    sym_params = TfdParams(tau1=0.5, tau2=0.3, u=0.1, alpha=0.6, alpha_prime=0.6)
    sym_gap = float(np.max(np.abs(log_tfd(s2[:1000], dt[:1000], sym_params)
                                  - log_tfd(s2[:1000], -dt[:1000], sym_params))))

    order = np.sort(s2[:10_000])
    mono_values = log_tfd(order, 0.7, params)
    monotone = bool(np.all(np.diff(mono_values) <= 0.0))

    # The kernel, at each dataset's preset temperatures, on displacements that
    # drive the distance exponent z1 past 1e4 at every temperature.
    kernel_dt = rng.uniform(-60.0, 60.0, 100_000)
    kernel_dx2 = rng.uniform(0.0, 3600.0, 100_000)
    kernel_in_unit = True
    max_z1 = {}
    for preset in ("wn18rr-dt", "fb15k237-dt", "hetionet-both"):
        temps = {key: PRESETS[preset][key] for key in ("tau1", "tau2", "u", "alpha", "alpha_prime")}
        for beta in (0.0, 0.18, 1.0):
            tfd = TfdParams(**temps, beta=beta)
            z1, _, _, _, log_p, phi = _likelihood(tfd, kernel_dt, kernel_dx2, 0.0, 0.0, 0.0)
            kernel_in_unit = kernel_in_unit and bool(np.all(log_p < 0.0) and np.all(np.isfinite(phi)))
        max_z1[preset] = float(np.max(np.abs(z1)))
    extreme = min(max_z1.values()) >= 1e4

    elapsed = time.perf_counter() - t0
    report(
        "likelihood invariants",
        in_unit and endpoints and sym_gap < 1e-12 and monotone and kernel_in_unit and extreme,
        f"1e5 samples in (0,1): {in_unit}; endpoints exact: {endpoints}; "
        f"dt-symmetry gap {sym_gap:.1e} (< 1e-12); monotone in s2: {monotone}; "
        f"kernel in (0,1) with finite phi at 3 presets x beta 0/0.18/1: {kernel_in_unit}, "
        f"max |z1| {', '.join(f'{k} {v:.2g}' for k, v in max_z1.items())} (>= 1e4); {elapsed:.1f}s",
    )


def test_ranking_oracle_equivalence(rng):
    """A one-triple evaluate_split rank equals exhaustive brute-force ranking, ties included."""
    t0 = time.perf_counter()
    protocol = EvalProtocol()
    checked = 0
    exact = True
    for trial in range(100):
        params = make_random_model(n_entities=8, n_relations=3, seed=trial)
        if trial % 5 == 0:
            # force ties: clone one entity's every parameter onto another
            params.coords[4] = params.coords[2]
            params.node_bias[4] = params.node_bias[2]
        filter_set = {
            (int(h), int(k), int(t))
            for h, k, t in zip(rng.integers(0, 8, 12), rng.integers(0, 3, 12), rng.integers(0, 8, 12))
        }
        triple = (int(rng.integers(0, 8)), int(rng.integers(0, 3)), int(rng.integers(0, 8)))
        ((_, got),) = evaluate_split(params, [triple], filter_set, protocol).per_triple_ranks

        h, k, t = triple
        true_score = params_score(params, h, k, t)
        better = equal = 0
        for c in range(8):
            if c == t or (h, k, c) in filter_set:
                continue
            s = params_score(params, h, k, c)
            better += s > true_score
            equal += s == true_score
        expected = 1.0 + better + 0.5 * equal
        exact = exact and (got == expected)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "ranking oracle equivalence",
        exact and checked == 100,
        f"{checked} randomized stores, exact agreement incl. ties: {exact}; {elapsed:.1f}s",
    )


def params_score(params, h, k, t):
    from pseudoe.model import score

    return score(params, h, k, t)


def test_synthetic_overfit():
    """Validation MRR >= 0.95 within 200 epochs at d=16 for SGD, Adam and SM3."""
    t0 = time.perf_counter()
    results = {}
    for kind in (OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.SM3):
        best, _, _, _ = run_overfit(kind, seed=1)
        results[kind.value] = best
    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.95 for v in results.values()) and elapsed < 300
    report(
        "synthetic overfit",
        ok,
        ", ".join(f"{k} MRR {v:.3f}" for k, v in results.items()) + f" (all >= 0.95); {elapsed:.0f}s (< 300s)",
    )


def test_direction_sensitivity():
    """Time asymmetry orients held-out directed edges; forcing beta=1 erases it."""
    t0 = time.perf_counter()
    # One relation with its own time projection: init warns, as it should.
    with pytest.warns(UserWarning, match="time coordinates are normally shared"):
        frac_lightcone = run_direction(beta=0.0, seed=10)
        frac_euclidean = run_direction(beta=1.0, seed=10)
    elapsed = time.perf_counter() - t0
    ok = frac_lightcone >= 0.90 and abs(frac_euclidean - 0.5) <= 0.10 and elapsed < 600
    report(
        "direction sensitivity",
        ok,
        f"beta=0 fraction {frac_lightcone:.3f} (>= 0.90), beta=1 fraction {frac_euclidean:.3f} "
        f"(within 0.10 of 0.5); {elapsed:.0f}s (< 600s)",
    )


def test_bias_degree_correlation():
    """Node biases absorb degree; the distance component stays degree-agnostic."""
    t0 = time.perf_counter()
    out = run_bias_degree(seed=3)
    hub = mean_top_prediction_degree(out["params"], out["store"], out["degrees"], gamma_b=25.0)
    tail = mean_top_prediction_degree(out["params"], out["store"], out["degrees"], gamma_b=-25.0)
    elapsed = time.perf_counter() - t0
    ok = out["r_bias"] > 0.3 and abs(out["r_tfd"]) < 0.2 and hub > tail and elapsed < 600
    report(
        "bias-degree correlation",
        ok,
        f"bias component r {out['r_bias']:.3f} (> 0.3), distance component r {out['r_tfd']:.3f} "
        f"(|r| < 0.2), top-prediction degree {hub:.1f} at gamma=+25 vs {tail:.1f} at gamma=-25; "
        f"{elapsed:.0f}s (< 600s)",
    )


def test_checkpoint_roundtrip(tmp_path, rng):
    """save -> load -> save is byte-identical across 20 random models."""
    t0 = time.perf_counter()
    ok = True
    for trial in range(20):
        variant = (Variant.MT, Variant.DT, Variant.BOTH)[trial % 3]
        params = make_random_model(
            n_entities=int(rng.integers(3, 12)),
            n_relations=int(rng.integers(1, 5)),
            n_t=1 if variant is Variant.DT else int(rng.integers(2, 4)),
            n_x=int(rng.integers(2, 7)),
            variant=variant,
            cylinder=None if trial % 2 else 2.5,
            seed=trial,
            swap=bool(trial % 7 == 0),
        )
        a, b = tmp_path / f"{trial}a.ckpt", tmp_path / f"{trial}b.ckpt"
        save_checkpoint(params, a)
        save_checkpoint(load_checkpoint(a), b)
        ok = ok and a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    report("checkpoint round-trip", ok, f"20 models byte-identical: {ok}; {elapsed:.1f}s")


@pytest.mark.parametrize(
    "env,preset,target",
    [
        ("PSEUDOE_HETIONET", "hetionet-both", "MRR 0.544 +/- 0.02, hits@10 0.813 +/- 0.02"),
        ("PSEUDOE_WN18RR", "wn18rr-dt", "MRR 0.474 +/- 0.02"),
    ],
)
def test_full_dataset_reproduction_recipe(env, preset, target):
    """Hours-long reproduction runs; see README 'Reproducing published numbers'."""
    data_dir = os.environ.get(env)
    if not data_dir:
        print(f"\n[SKIP] full-dataset reproduction ({preset}): set {env} to the dataset "
              f"directory to run; target {target}; recipe in README")
        pytest.skip(f"{env} not set; documented recipe, not a desk-scale gate")
    from pseudoe.cli import main

    out = f"./runs/{preset}"
    assert main(["train", "--preset", preset, "--data", data_dir, "--out", out]) == 0
    code = main(["evaluate", "--checkpoint", f"{out}/model.ckpt", "--data", data_dir, "--out", out])
    assert code == 0
