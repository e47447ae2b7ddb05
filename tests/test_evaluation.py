import numpy as np
import pytest

from conftest import make_random_model
from pseudoe.data import FilterIndex, NegativesTable
from pseudoe.evaluation import (
    EvalMode,
    EvalProtocol,
    ProtocolError,
    aggregate,
    beta_sweep,
    evaluate_split,
    filtered_rank,
)
from pseudoe.model import score_tails


def brute_force_rank(params, triple, filter_set):
    """Exhaustive filtered rank: score every tail explicitly, apply the tie rule."""
    h, k, t = (int(v) for v in triple)
    true_score = float(score_tails(params, h, k, np.array([t]))[0])
    better = equal = 0
    for c in range(params.n_entities):
        if c == t or (h, k, c) in filter_set:
            continue
        s = float(score_tails(params, h, k, np.array([c]))[0])
        if s > true_score:
            better += 1
        elif s == true_score:
            equal += 1
    return 1.0 + better + 0.5 * equal


class TestFilteredRank:
    def test_true_tail_on_top(self):
        params = make_random_model(seed=0)
        params.node_bias[:] = 0.0
        params.node_bias[3] = 50.0  # tail 3 dominates every score
        rank = filtered_rank(params, (0, 0, 3), set(), EvalProtocol())
        assert rank == 1.0

    def test_all_tied_with_fixed_negatives(self):
        params = make_random_model(seed=0)
        params.coords[:] = 0.0
        params.node_bias[:] = 0.0
        params.rel_u[:] = 0.0
        params.rel_r[:] = 1.0
        negs = NegativesTable(table={(0, 0): np.full(80, 1)}, length=80)
        protocol = EvalProtocol(mode=EvalMode.FIXED_NEGATIVES, negatives=negs)
        rank = filtered_rank(params, (0, 0, 2), set(), protocol)
        assert rank == 41.0  # 1 + 80/2

    def test_matches_brute_force_on_random_stores(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            params = make_random_model(n_entities=8, n_relations=3, seed=trial)
            filter_set = {
                (int(h), int(k), int(t))
                for h, k, t in zip(rng.integers(0, 8, 15), rng.integers(0, 3, 15), rng.integers(0, 8, 15))
            }
            triple = (int(rng.integers(0, 8)), int(rng.integers(0, 3)), int(rng.integers(0, 8)))
            expected = brute_force_rank(params, triple, filter_set)
            assert filtered_rank(params, triple, filter_set, EvalProtocol()) == expected

    def test_missing_fixed_negatives_entry(self):
        params = make_random_model(seed=0)
        protocol = EvalProtocol(
            mode=EvalMode.FIXED_NEGATIVES,
            negatives=NegativesTable(table={(0, 1): np.array([1, 2])}, length=2),
        )
        with pytest.raises(ProtocolError):
            filtered_rank(params, (0, 0, 2), set(), protocol)

    def test_out_of_range_tail_rejected(self):
        params = make_random_model(n_entities=6, seed=0)
        index = FilterIndex(np.array([[0, 0, 1]]), n_entities=6, n_relations=3)
        negs = NegativesTable(table={(0, 0): np.array([1, 2])}, length=2)
        fixed = EvalProtocol(mode=EvalMode.FIXED_NEGATIVES, negatives=negs)
        for t in (-1, 6):
            with pytest.raises(IndexError, match="tail id out of range"):
                evaluate_split(params, [[0, 0, t]], index, EvalProtocol())
            with pytest.raises(IndexError, match="tail id out of range"):
                evaluate_split(params, [[0, 0, t]], index, fixed)

    def test_protocol_requires_table(self):
        with pytest.raises(ProtocolError):
            EvalProtocol(mode=EvalMode.FIXED_NEGATIVES)

    def test_filtering_monotone(self):
        params = make_random_model(seed=13)
        triple = (0, 0, 3)
        small = {(0, 0, 1)}
        large = {(0, 0, 1), (0, 0, 2), (0, 0, 4)}
        assert filtered_rank(params, triple, large, EvalProtocol()) <= filtered_rank(
            params, triple, small, EvalProtocol()
        )


class TestAggregate:
    def test_perfect(self):
        report = aggregate([((0, 0, 1), 1.0), ((1, 0, 2), 1.0), ((2, 1, 3), 1.0)])
        assert report.mrr == 1.0
        assert report.hits_at[1] == 1.0

    def test_arithmetic(self):
        report = aggregate([((0, 0, 1), 1.0), ((1, 0, 2), 2.0), ((2, 1, 3), 4.0)])
        assert report.mrr == pytest.approx(7.0 / 12.0)
        assert report.hits_at[3] == pytest.approx(2.0 / 3.0)

    def test_hits_boundary_inclusive(self):
        report = aggregate([((0, 0, 1), 10.0)])
        assert report.hits_at[10] == 1.0
        assert report.hits_at[1] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_per_relation_weighted_average_recovers_global(self):
        rng = np.random.default_rng(3)
        ranks = [
            ((int(rng.integers(0, 5)), int(rng.integers(0, 4)), 0), float(rng.integers(1, 30)))
            for _ in range(200)
        ]
        report = aggregate(ranks)
        weighted = sum(s.mrr * s.count for s in report.per_relation.values())
        total = sum(s.count for s in report.per_relation.values())
        assert weighted / total == pytest.approx(report.mrr, abs=1e-12)


class TestEvaluateSplit:
    def test_separable_model_is_perfect(self):
        params = make_random_model(n_entities=6, seed=0)
        params.coords[:] = 0.0
        params.node_bias[:] = 0.0
        split = np.array([[0, 0, 1], [2, 0, 3]])
        params.node_bias[1] = params.node_bias[3] = 30.0  # true tails dominate
        # rank of (0,0,1): tail 3 also has the big bias; filter it out as a known triple
        report = evaluate_split(params, split, {(0, 0, 3), (2, 0, 1)}, EvalProtocol())
        assert report.mrr == 1.0

    def test_random_model_mrr_near_harmonic_expectation(self):
        # With exchangeable candidate scores the true tail's rank is uniform,
        # so the expected MRR over M rankable entities is H(M)/M.  The head's
        # self-pair sits at distance zero and would break exchangeability, so
        # it is filtered out, leaving M = N - 1 symmetric entities.
        n = 10
        ranks = []
        for seed in range(4000):
            params = make_random_model(n_entities=n, n_relations=1, seed=seed, sigma=1.0)
            ranks.append(filtered_rank(params, (0, 0, 1), {(0, 0, 0)}, EvalProtocol()))
        mrr = float(np.mean(1.0 / np.asarray(ranks)))
        m = n - 1
        expected = sum(1.0 / r for r in range(1, m + 1)) / m
        assert mrr == pytest.approx(expected, abs=0.02)

    def test_threads_do_not_change_report(self):
        params = make_random_model(n_entities=12, seed=4)
        rng = np.random.default_rng(0)
        split = np.column_stack(
            [rng.integers(0, 12, 30), rng.integers(0, 3, 30), rng.integers(0, 12, 30)]
        )
        filter_set = {tuple(map(int, row)) for row in split}
        a = evaluate_split(params, split, filter_set, threads=1)
        b = evaluate_split(params, split, filter_set, threads=4)
        assert a.mrr == b.mrr
        assert a.per_triple_ranks == b.per_triple_ranks

    def test_thread_count_below_one_rejected(self):
        params = make_random_model()
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                evaluate_split(params, np.array([[0, 0, 1]]), set(), threads=threads)

    def test_filter_index_must_match_model_vocabulary(self):
        params = make_random_model(n_entities=6, n_relations=3, seed=2)
        split = np.array([[0, 0, 1]])
        rows = np.array([[0, 0, 2]])
        ok = FilterIndex(rows, n_entities=6, n_relations=3)
        assert filtered_rank(params, (0, 0, 1), ok, EvalProtocol()) == filtered_rank(
            params, (0, 0, 1), {(0, 0, 2)}, EvalProtocol()
        )
        for n, n_r in ((7, 3), (6, 4)):
            wrong = FilterIndex(rows, n_entities=n, n_relations=n_r)
            with pytest.raises(ValueError, match=f"{n} entities and {n_r} relations"):
                evaluate_split(params, split, wrong, EvalProtocol())
            with pytest.raises(ValueError, match=f"{n} entities and {n_r} relations"):
                filtered_rank(params, (0, 0, 1), wrong, EvalProtocol())
        with pytest.raises(ValueError, match="outside"):
            evaluate_split(params, split, {(0, 0, 6)}, EvalProtocol())


class TestOverfitModelRanking:
    def test_top1_is_a_true_tail_for_every_training_pair(self):
        from pseudoe.experiments import run_overfit
        from pseudoe.training import OptimizerKind

        best, _, params, store = run_overfit(OptimizerKind.ADAM, seed=1)
        assert best >= 0.95
        train = store.splits["train"]
        hits = 0
        pairs = {(int(h), int(k)) for h, k, _ in train}
        for h, k in pairs:
            scores = score_tails(params, h, k, np.arange(params.n_entities))
            top = int(np.argmax(scores))
            hits += (h, k, top) in store.filter_index
        # every (head, relation) query puts one of its true tails on top
        assert hits == len(pairs)


class TestBetaSweep:
    def test_single_beta_matches_plain_evaluation(self):
        params = make_random_model(seed=6, beta=0.0)
        rng = np.random.default_rng(1)
        split = np.column_stack([rng.integers(0, 6, 12), rng.integers(0, 3, 12), rng.integers(0, 6, 12)])
        report = evaluate_split(params, split, set(), EvalProtocol())
        rows = beta_sweep(params, split, set(), [0.0])
        assert {(rel, mrr) for _, rel, mrr, _ in rows} == {
            (rel, stats.mrr) for rel, stats in report.per_relation.items()
        }
        assert all(sd == 0.0 for _, _, _, sd in rows)

    def test_rejects_beta_outside_unit_interval(self):
        params = make_random_model(seed=6)
        with pytest.raises(ValueError):
            beta_sweep(params, np.array([[0, 0, 1]]), set(), [1.5])

    def test_counts_below_one_rejected(self):
        params = make_random_model(seed=6)
        split = np.array([[0, 0, 1]])
        with pytest.raises(ValueError, match="repeats must be >= 1, got 0"):
            beta_sweep(params, split, set(), [0.0], repeats=0)
        with pytest.raises(ValueError, match="threads must be >= 1, got -3"):
            beta_sweep(params, split, set(), [0.0], threads=-3)
