import sys
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_random_model
from pseudoe import evaluation, model
from pseudoe.data import FilterIndex, NegativesTable
from pseudoe.evaluation import (
    EvalMode,
    EvalProtocol,
    ProtocolError,
    aggregate,
    beta_sweep,
    evaluate_split,
)
from pseudoe.evaluation import _QUERY_BATCH
from pseudoe.model import _TAIL_BLOCK, _screen_tails, score_many, score_tails
from pseudoe.relmaps import Variant


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


def rank_of(params, triple, filter_set, protocol):
    """Filtered rank of one triple: `evaluate_split` over a one-row split."""
    ((_, rank),) = evaluate_split(params, [triple], filter_set, protocol).per_triple_ranks
    return rank


class TestFilteredRank:
    def test_true_tail_on_top(self):
        params = make_random_model(seed=0)
        params.node_bias[:] = 0.0
        params.node_bias[3] = 50.0  # tail 3 dominates every score
        rank = rank_of(params, (0, 0, 3), set(), EvalProtocol())
        assert rank == 1.0

    def test_all_tied_with_fixed_negatives(self):
        params = make_random_model(seed=0)
        params.coords[:] = 0.0
        params.node_bias[:] = 0.0
        params.rel_u[:] = 0.0
        params.rel_r[:] = 1.0
        negs = NegativesTable(table={(0, 0): np.full(80, 1)}, length=80)
        protocol = EvalProtocol(mode=EvalMode.FIXED_NEGATIVES, negatives=negs)
        rank = rank_of(params, (0, 0, 2), set(), protocol)
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
            assert rank_of(params, triple, filter_set, EvalProtocol()) == expected

    def test_missing_fixed_negatives_entry(self):
        params = make_random_model(seed=0)
        protocol = EvalProtocol(
            mode=EvalMode.FIXED_NEGATIVES,
            negatives=NegativesTable(table={(0, 1): np.array([1, 2])}, length=2),
        )
        with pytest.raises(ProtocolError):
            rank_of(params, (0, 0, 2), set(), protocol)

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

    def test_non_integer_split_refused_before_the_cast(self):
        # Cast first, (0, 0, 1.9) would be ranked as (0, 0, 1).
        params = make_random_model(n_entities=6, seed=0)
        for split in ([[0, 0, 1.9]], np.array([[0, 0, 1.0]]), np.array([[True, False, True]])):
            with pytest.raises(TypeError, match="^head ids must be integers, got dtype"):
                evaluate_split(params, split, set(), EvalProtocol())
        assert rank_of(params, (0, 0, 1), set(), EvalProtocol()) == brute_force_rank(params, (0, 0, 1), set())

    def test_protocol_requires_table(self):
        with pytest.raises(ProtocolError):
            EvalProtocol(mode=EvalMode.FIXED_NEGATIVES)

    def test_filtering_monotone(self):
        params = make_random_model(seed=13)
        triple = (0, 0, 3)
        small = {(0, 0, 1)}
        large = {(0, 0, 1), (0, 0, 2), (0, 0, 4)}
        assert rank_of(params, triple, large, EvalProtocol()) <= rank_of(
            params, triple, small, EvalProtocol()
        )


def _nudge(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place (down when negative)."""
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return value


def _screen_model(draw, n_entities):
    """A random model for the screen: DT, MT or BOTH, swapped or not, on a
    cylinder or not, beta 0, 0.3 or 1 (at 1 with a likelihood that can round
    to 1), coordinate norms from 1e-3 to 1e3, and biases from 1e-6 to 1e6
    times the squared norm, so that the rounding of the expansion dominates
    the margin at one end and the last bits of the sums at the other.
    Returns the model and its norm."""
    variant, n_t = draw(st.sampled_from([(Variant.DT, 1), (Variant.MT, 2), (Variant.BOTH, 2)]))
    n_x = draw(st.sampled_from([3, 17, 64]))
    norm = 10.0 ** draw(st.integers(-3, 3))
    seed = draw(st.integers(0, 2**16))
    params = make_random_model(
        n_entities=n_entities,
        n_relations=3,
        n_t=n_t,
        n_x=n_x,
        variant=variant,
        cylinder=draw(st.sampled_from([None, 2.5])),
        seed=seed,
        sigma=norm / np.sqrt(n_x),
        swap=draw(st.booleans()),
        **draw(st.sampled_from([{}, {"beta": 0.0}, {"beta": 1.0}, {"beta": 1.0, "u": 5.0, "tau1": 0.1}])),
    )
    rng = np.random.default_rng(seed)
    bias = norm**2 * 10.0 ** draw(st.integers(-6, 6))
    params.node_bias[:] = rng.normal(0.0, bias, n_entities)
    params.rel_c[:] = rng.normal(0.0, bias, params.n_relations)
    if variant is not Variant.MT:  # MT freezes the space maps at identity
        params.rel_r[:] = rng.normal(1.0, 0.3, params.rel_r.shape)
    return params, norm


def _translated_head(params, h: int, k: int) -> np.ndarray:
    """The space coordinates a tail needs for dx = 0 in query (h, k), where
    the screen's expansion cancels worst."""
    x_h, u, r = params.coords[h, params.n_t :], params.rel_u[k, 1:], params.rel_r[k, 1:]
    return r * x_h - u if params.swap_transforms else (x_h + u) / r


@st.composite
def planted_queries(draw):
    """A small model whose first query's true tail sits near its translated
    head, with clones of that tail: exact, one space coordinate moved by 1-4
    ulps, and the bias moved by 1-4 ulps.  Returns the model, three queries
    and a filter set."""
    params, norm = _screen_model(draw, 14)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    h, t, exact, moved, biased = (int(e) for e in rng.permutation(params.n_entities)[:5])
    k = int(rng.integers(params.n_relations))
    near = rng.normal(0.0, norm * 10.0 ** draw(st.integers(-9, 0)), params.n_x)
    params.coords[t, params.n_t :] = _translated_head(params, h, k) + near
    for clone in (exact, moved, biased):
        params.coords[clone] = params.coords[t]
        params.node_bias[clone] = params.node_bias[t]
    ulps = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
    i = params.n_t + draw(st.integers(0, params.n_x - 1))
    params.coords[moved, i] = _nudge(params.coords[moved, i], ulps)
    params.node_bias[biased] = _nudge(params.node_bias[biased], ulps)
    queries = np.array([[h, k, t], [h, (k + 1) % params.n_relations, t], [exact, k, h]])
    filter_set = {(h, k, int(c)) for c in rng.integers(0, params.n_entities, draw(st.integers(0, 3)))}
    return params, queries, filter_set


@st.composite
def near_tails(draw):
    """A model of 600 entities, half of them placed near the translated head
    of query (0, 0) at distances from 1e-9 to 1 times the coordinate norm."""
    n = 600
    params, norm = _screen_model(draw, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    distance = norm * 10.0 ** rng.uniform(-9.0, 0.0, (n // 2, 1))
    scatter = distance * rng.normal(0.0, 1.0, (n // 2, params.n_x)) / np.sqrt(params.n_x)
    params.coords[n // 2 :, params.n_t :] = _translated_head(params, 0, 0) + scatter
    return params


class TestScreen:
    """The batched screen brackets every exact score, and its full-filtered
    ranks equal brute force, ties included."""

    @settings(deadline=None, max_examples=300)
    @given(near_tails())
    def test_margin_covers_the_exact_score(self, params):
        everyone = np.arange(params.n_entities)
        heads, rels = np.array([0, 0, 7]), np.array([0, 1, 0])
        for (phi, margin), h, k in zip(_screen_tails(params, heads, rels), heads, rels):
            exact = score_tails(params, h, k, everyone)
            assert np.all(np.abs(phi - exact) <= margin), np.flatnonzero(np.abs(phi - exact) > margin)

    @settings(deadline=None, max_examples=150)
    @given(planted_queries())
    def test_full_filtered_matches_brute_force(self, case):
        params, queries, filter_set = case
        report = evaluate_split(params, queries, filter_set, EvalProtocol())
        for triple, rank in report.per_triple_ranks:
            assert rank == brute_force_rank(params, triple, filter_set), triple

    @settings(deadline=None, max_examples=25)
    @given(near_tails(), st.integers(0, 2**16))
    def test_pass_over_several_blocks(self, params, seed):
        # Blocks of 7 rows: the pass over 600 entities ends in a block of 5.
        assert params.n_entities % 7
        everyone = np.arange(params.n_entities)
        rng = np.random.default_rng(seed)
        heads, rels = np.array([0, 0, 7]), np.array([0, 1, 0])
        tails = np.array([rng.integers(params.n_entities // 2, params.n_entities), 0, rng.integers(params.n_entities)])
        split = np.column_stack([heads, rels, tails])
        filter_set = {(0, 0, int(c)) for c in rng.integers(0, params.n_entities, 5)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_SCREEN_BLOCK", 7)
            for (phi, margin), h, k in zip(_screen_tails(params, heads, rels), heads, rels):
                exact = score_tails(params, h, k, everyone)
                assert np.all(np.abs(phi - exact) <= margin), np.flatnonzero(np.abs(phi - exact) > margin)
            report = evaluate_split(params, split, filter_set, EvalProtocol())
        for triple, rank in report.per_triple_ranks:
            assert rank == brute_force_rank(params, triple, filter_set), triple

    def test_likelihood_within_rounding_of_one(self):
        # A wide margin u / tau1 puts every likelihood within 1e-21 of 1, far
        # inside the rounding margin: every candidate must go to the kernel.
        params = make_random_model(n_entities=20, beta=1.0, u=5.0, tau1=0.1, sigma=0.01, seed=3)
        split = np.array([[0, 0, 1], [2, 1, 3], [4, 2, 5]])
        for triple, rank in evaluate_split(params, split, set(), EvalProtocol()).per_triple_ranks:
            assert rank == brute_force_rank(params, triple, set()), triple

    def test_undecided_rescored_in_slices(self, monkeypatch):
        # Every candidate of the model of `test_likelihood_within_rounding_of_one`
        # goes to the kernel; scored 7 at a time, the ranks stay brute force's.
        params = make_random_model(n_entities=20, beta=1.0, u=5.0, tau1=0.1, sigma=0.01, seed=3)
        split = np.array([[0, 0, 1], [2, 1, 3], [4, 2, 5]])
        monkeypatch.setattr(model, "_CANDIDATE_BATCH", 7)
        for triple, rank in evaluate_split(params, split, set(), EvalProtocol()).per_triple_ranks:
            assert rank == brute_force_rank(params, triple, set()), triple

    def test_batch_boundaries_and_threads(self, monkeypatch):
        n = 40
        params = make_random_model(n_entities=n, n_relations=3, n_t=2, n_x=9, seed=21, swap=True, cylinder=2.5)
        params.coords[n - 1] = params.coords[0]  # ties in every query that ranks entity 0
        params.node_bias[n - 1] = params.node_bias[0]
        rng = np.random.default_rng(2)
        rows = _QUERY_BATCH + 37  # more than one full-filtered batch
        split = np.column_stack([rng.integers(0, n, rows), rng.integers(0, 3, rows), rng.integers(0, n, rows)])
        split[::5, 2] = 0
        index = FilterIndex(split[::3], n_entities=n, n_relations=3)
        # Fixed lists of 101 and of 20 negatives: `_score_lists` walks each
        # batch's candidates in tail-id order in `_TAIL_BLOCK`-row blocks,
        # ending with a partial block.
        tables = {length: {(int(h), int(k)): rng.integers(0, n, length) for h, k, _ in split} for length in (101, 20)}
        assert rows * 102 % _TAIL_BLOCK and rows * 21 % _TAIL_BLOCK
        protocols = [EvalProtocol()] + [
            EvalProtocol(mode=EvalMode.FIXED_NEGATIVES, negatives=NegativesTable(table=table, length=length))
            for length, table in tables.items()
        ]
        # The model of `test_likelihood_within_rounding_of_one`, which leaves
        # every candidate undecided.
        undecided = make_random_model(n_entities=20, beta=1.0, u=5.0, tau1=0.1, sigma=0.01, seed=3)
        cases = [(params, split, index, protocol) for protocol in protocols]
        cases.append((undecided, np.array([[0, 0, 1], [2, 1, 3], [4, 2, 5]]), set(), EvalProtocol()))

        # No `_in_shares` call may start while a share of another runs, on
        # any thread.
        real, lock, running, nested = model._in_shares, threading.Lock(), [0], []

        def in_shares(work, items, width):
            if running[0]:
                nested.append(width)

            def share(items):
                with lock:
                    running[0] += 1
                try:
                    return work(items)
                finally:
                    with lock:
                        running[0] -= 1

            return real(share, items, width)

        for module in (model, evaluation):
            monkeypatch.setattr(module, "_in_shares", in_shares)
        ranks, interval = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads hand over the interpreter lock often
        try:
            for workers in (1, 3):  # every loop shared out, whatever its width
                monkeypatch.setattr(model, "_WORKERS", workers)
                monkeypatch.setattr(model, "_SHARED_WIDTH", 1)
                monkeypatch.setattr(evaluation, "_SHARED_ENTITIES", 1)
                ranks[workers] = [evaluate_split(*case).per_triple_ranks for case in cases]
        finally:
            sys.setswitchinterval(interval)
        assert ranks[1] == ranks[3]
        assert not nested, nested

        for protocol in protocols:
            one = evaluate_split(params, split, index, protocol)
            assert any(rank % 1 for _, rank in one.per_triple_ranks)  # ties are counted
            for triple, rank in one.per_triple_ranks:
                assert rank_of(params, triple, index, protocol) == rank
            if protocol.mode is EvalMode.FIXED_NEGATIVES:  # against score_many
                for (h, k, t), rank in one.per_triple_ranks:
                    tails = np.append(protocol.negatives.table[(h, k)], t)
                    scores = score_many(params, np.full(tails.size, h), np.full(tails.size, k), tails)
                    assert rank == 1.0 + np.sum(scores[:-1] > scores[-1]) + 0.5 * np.sum(scores[:-1] == scores[-1])
        undecided_ranks = ranks[3][-1]
        assert undecided_ranks == [(triple, brute_force_rank(undecided, triple, set())) for triple, _ in undecided_ranks]


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
            ranks.append(rank_of(params, (0, 0, 1), {(0, 0, 0)}, EvalProtocol()))
        mrr = float(np.mean(1.0 / np.asarray(ranks)))
        m = n - 1
        expected = sum(1.0 / r for r in range(1, m + 1)) / m
        assert mrr == pytest.approx(expected, abs=0.02)

    def test_thread_count_below_one_rejected(self):
        params = make_random_model()
        # The keyword stays only for callers that pass threads=1.
        for threads in (0, -3, 2):
            with pytest.raises(ValueError, match=f"single-threaded; threads must be 1, got {threads}"):
                evaluate_split(params, np.array([[0, 0, 1]]), set(), threads=threads)

    def test_filter_index_must_match_model_vocabulary(self):
        params = make_random_model(n_entities=6, n_relations=3, seed=2)
        split = np.array([[0, 0, 1]])
        rows = np.array([[0, 0, 2]])
        ok = FilterIndex(rows, n_entities=6, n_relations=3)
        assert rank_of(params, (0, 0, 1), ok, EvalProtocol()) == rank_of(
            params, (0, 0, 1), {(0, 0, 2)}, EvalProtocol()
        )
        for n, n_r in ((7, 3), (6, 4)):
            wrong = FilterIndex(rows, n_entities=n, n_relations=n_r)
            with pytest.raises(ValueError, match=f"{n} entities and {n_r} relations"):
                evaluate_split(params, split, wrong, EvalProtocol())
        with pytest.raises(ValueError, match="outside"):
            evaluate_split(params, split, {(0, 0, 6)}, EvalProtocol())

    @pytest.mark.parametrize(
        "protocol",
        [EvalProtocol(), EvalProtocol(mode=EvalMode.FIXED_NEGATIVES, negatives=NegativesTable({}, 3))],
        ids=["full", "fixed"],
    )
    def test_empty_split_rejected(self, protocol):
        params = make_random_model(n_entities=6, n_relations=3, seed=2)
        with pytest.raises(ValueError, match="cannot aggregate an empty rank list"):
            evaluate_split(params, np.zeros((0, 3), dtype=np.int64), set(), protocol)


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
    """A point's rows are the per-relation mean and sample sd of the MRRs of
    the models it is given; points keep their order, repeats included."""

    split = np.column_stack([np.arange(12) % 6, np.arange(12) % 3, (5 * np.arange(12) + 1) % 6])

    def test_single_beta_matches_plain_evaluation(self):
        params = make_random_model(seed=6, beta=0.0)
        report = evaluate_split(params, self.split, set(), EvalProtocol())
        rows = beta_sweep([(0.0, [params])], self.split, set())
        assert rows == [(0.0, rel, stats.mrr, 0.0) for rel, stats in report.per_relation.items()]

    def test_several_models_give_mean_and_sample_sd(self):
        models = [make_random_model(seed=seed, beta=0.5) for seed in (1, 2, 3)]
        reports = [evaluate_split(p, self.split, set()) for p in models]
        rows = beta_sweep(iter([(0.5, iter(models))]), self.split, set())
        assert [rel for _, rel, _, _ in rows] == [0, 1, 2]
        for beta, rel, mean, sd in rows:
            mrrs = np.asarray([r.per_relation[rel].mrr for r in reports])
            assert (beta, mean, sd) == (0.5, float(mrrs.mean()), float(mrrs.std(ddof=1)))
            assert sd > 0.0

    def test_repeated_beta_keeps_two_row_groups(self):
        a, b = make_random_model(seed=4, beta=0.0), make_random_model(seed=5, beta=0.0)
        rows = beta_sweep([(0.0, [a]), (0.0, [b])], self.split, set())
        assert rows == beta_sweep([(0.0, [a])], self.split, set()) + beta_sweep([(0.0, [b])], self.split, set())
        assert len(rows) == 6 and rows[:3] != rows[3:]

    def test_counts_below_one_rejected(self):
        params = make_random_model(seed=6)
        with pytest.raises(ValueError, match="beta 0.5: models must be >= 1, got 0"):
            beta_sweep([(0.0, [params]), (0.5, iter([]))], self.split, set())
