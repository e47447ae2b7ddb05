import dataclasses
import math
import multiprocessing
import re
import sys
import tracemalloc
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from conftest import make_random_model
from pseudoe import model
from pseudoe.data import NegativesTable, augmented_store
from pseudoe.evaluation import EvalMode, EvalProtocol, ProtocolError
from pseudoe.geometry import GeometryConfig, Signature
from pseudoe.likelihood import TfdParams, sigmoid
from pseudoe.model import _TAIL_BLOCK, FROZEN, TABLES, InitConfig, _forward, _in_shares, score, score_many, score_tails
from pseudoe.relmaps import Variant
from pseudoe.synthetic import tree_clique_graph
from pseudoe.training import (
    AdamOptimizer,
    DivergenceError,
    GradientTape,
    NegativeMode,
    OptimizerKind,
    SgdOptimizer,
    Sm3Optimizer,
    TrainConfig,
    TrainLogRow,
    _loss_and_gradients,
    _Segments,
    _take,
    gradients,
    make_optimizer,
    nll_from_scores,
    nll_loss,
    sample_negatives_batch,
    train,
    write_log_csv,
)

from gradcheck import max_gradient_mismatch
from reference import adam_step, sgd_step, sm3_step


def random_batch(params, rng, b=3, m=4):
    batch = np.column_stack(
        [
            rng.integers(0, params.n_entities, b),
            rng.integers(0, params.n_relations, b),
            rng.integers(0, params.n_entities, b),
        ]
    )
    negs = sample_negatives_batch(batch, m, NegativeMode.BOTH, rng, params.n_entities)
    return batch, negs


def zero_tape(params, entities, relations):
    """A compact tape of +0.0 gradients on the given sorted entity and relation ids."""
    touched = {"entity": np.asarray(entities, dtype=np.intp), "relation": np.asarray(relations, dtype=np.intp)}
    return GradientTape(
        **{f"{name}_rows": np.zeros((touched[key].size, *getattr(params, name).shape[1:])) for name, key in TABLES},
        touched_entities=touched["entity"],
        touched_relations=touched["relation"],
        n_entities=params.n_entities,
        n_relations=params.n_relations,
    )


class TestSampleNegatives:
    def test_zero(self, rng):
        state = rng.bit_generator.state
        out = sample_negatives_batch(np.array([[0, 0, 1]]), 0, NegativeMode.BOTH, rng, 5)
        assert out.shape == (1, 0, 3) and out.dtype == np.int64
        assert rng.bit_generator.state == state  # no draws consumed

    def test_odd_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_negatives_batch(np.array([[0, 0, 1]]), 3, NegativeMode.BOTH, rng, 5)

    def test_float_count_rejected(self, rng):
        with pytest.raises(ValueError, match="^m must be a non-negative integer, got 4.0$"):
            sample_negatives_batch(np.array([[0, 0, 1]]), 4.0, NegativeMode.BOTH, rng, 5)

    def test_structure_both(self, rng):
        negs = sample_negatives_batch(np.array([[2, 1, 4]]), 4, NegativeMode.BOTH, rng, 10)[0].tolist()
        assert len(negs) == 4
        assert all(k == 1 for _, k, _ in negs)
        # first half corrupts the tail, second half the head
        assert all(h == 2 for h, _, _ in negs[:2])
        assert all(t == 4 for _, _, t in negs[2:])

    def test_structure_tail_only(self, rng):
        negs = sample_negatives_batch(np.array([[2, 1, 4]]), 6, NegativeMode.TAIL_ONLY, rng, 10)[0].tolist()
        assert all(h == 2 and k == 1 for h, k, _ in negs)

    def test_mode_by_value(self):
        # "tail_only" corrupts only tails, as the enum member does.
        batch = np.array([[2, 1, 4], [3, 0, 5]])
        for mode in NegativeMode:
            got = sample_negatives_batch(batch, 6, mode.value, np.random.default_rng(3), 10)
            np.testing.assert_array_equal(got, sample_negatives_batch(batch, 6, mode, np.random.default_rng(3), 10))
        with pytest.raises(ValueError, match="'nonsense' is not a valid NegativeMode"):
            sample_negatives_batch(batch, 6, "nonsense", np.random.default_rng(3), 10)

    def test_uniform_over_vocabulary(self):
        rng = np.random.default_rng(99)
        n, draws = 10, 100_000
        batch = np.tile([[0, 0, 1]], (draws // 2, 1))
        negs = sample_negatives_batch(batch, 2, NegativeMode.TAIL_ONLY, rng, n)
        counts = np.bincount(negs[:, :, 2].ravel(), minlength=n)
        expected = draws / n
        sd = math.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) <= 3 * sd)


class TestLoss:
    def test_perfect_fit_limit(self):
        assert nll_from_scores(np.array([np.inf, 1e9]), np.array([-np.inf, -1e9])) == 0.0

    def test_single_positive_at_zero(self):
        params = make_random_model(seed=0, u=0.0)
        params.coords[:] = 0.0
        params.rel_u[:] = 0.0
        params.rel_r[:] = 1.0
        params.node_bias[:] = 0.0
        params.rel_c[:] = 0.0
        loss = nll_loss(params, np.array([[0, 0, 1]]), np.empty((1, 0, 3), dtype=np.int64))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_naive_double_loop(self, rng):
        params = make_random_model(seed=8)
        batch, negs = random_batch(params, rng, b=5, m=4)
        expected = 0.0
        for i in range(batch.shape[0]):
            h, k, t = (int(v) for v in batch[i])
            expected -= math.log(float(sigmoid(score(params, h, k, t))))
            for j in range(negs.shape[1]):
                nh, nk, nt = (int(v) for v in negs[i, j])
                expected -= math.log(1.0 - float(sigmoid(score(params, nh, nk, nt))))
        assert nll_loss(params, batch, negs) == pytest.approx(expected, rel=1e-10)

    def test_rejects_out_of_range_ids(self):
        params = make_random_model()  # 6 entities, 3 relations
        none = np.empty((1, 0, 3), dtype=np.int64)
        for batch, negs in (([[0, 0, -1]], none), ([[6, 0, 1]], none), ([[0, 0, 1]], [[[0, 3, 1]]])):
            with pytest.raises(IndexError, match="id out of range"):
                nll_loss(params, np.array(batch), np.array(negs))


    @pytest.mark.parametrize("mode", list(NegativeMode))
    @pytest.mark.parametrize("variant, n_t", [(Variant.DT, 1), (Variant.MT, 3), (Variant.BOTH, 2)])
    def test_training_step_loss_is_nll_loss(self, variant, n_t, mode):
        # One loss definition: the training step's loss has nll_loss's bits,
        # not just its value to roundoff.
        rng = np.random.default_rng(21)
        params = make_random_model(n_entities=60, n_relations=4, n_t=n_t, n_x=5, variant=variant, seed=6)
        for _ in range(10):
            batch, _ = random_batch(params, rng, b=32)
            negs = sample_negatives_batch(batch, 10, mode, rng, params.n_entities)
            assert nll_loss(params, batch, negs) == _loss_and_gradients(params, batch, negs)[0]

    def test_scores_and_loss_hold_no_row_by_space_array(self):
        # 32 (head, relation) pairs x 128 tails at n_x = 256: the space map
        # streams its rows in blocks, so neither score_many nor nll_loss holds
        # an array of a row per triple and a column per space dimension.
        rng = np.random.default_rng(3)
        params = make_random_model(n_entities=600, n_relations=4, n_x=256, seed=2)
        batch, _ = random_batch(params, rng, b=32)
        negs = sample_negatives_batch(batch, 128, NegativeMode.TAIL_ONLY, rng, params.n_entities)
        triples = negs.reshape(-1, 3)
        row_array_bytes = (batch.shape[0] + triples.shape[0]) * params.n_x * 8
        for call in (lambda: score_many(params, *triples.T), lambda: nll_loss(params, batch, negs)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < row_array_bytes


class TestGradients:
    def test_untouched_parameters_have_zero_gradient(self, rng):
        params = make_random_model(n_entities=8, n_relations=4, seed=3)
        batch = np.array([[0, 0, 1], [1, 1, 2]])
        negs = sample_negatives_batch(batch, 2, NegativeMode.TAIL_ONLY, rng, 4)  # entities 0..3 only
        tape = gradients(params, batch, negs)
        np.testing.assert_array_equal(tape.coords[4:], 0.0)
        np.testing.assert_array_equal(tape.node_bias[4:], 0.0)
        np.testing.assert_array_equal(tape.rel_u[2:], 0.0)
        np.testing.assert_array_equal(tape.rel_c[2:], 0.0)

    def test_relation_bias_gradient_formula(self, rng):
        # d loss / d c_k = sum over triples with relation k of (sigmoid(phi) - label)
        params = make_random_model(seed=4)
        batch, negs = random_batch(params, rng, b=6, m=2)
        tape = gradients(params, batch, negs)
        expected = np.zeros(params.n_relations)
        for i in range(batch.shape[0]):
            h, k, t = (int(v) for v in batch[i])
            expected[k] += float(sigmoid(score(params, h, k, t))) - 1.0
            for j in range(negs.shape[1]):
                nh, nk, nt = (int(v) for v in negs[i, j])
                expected[nk] += float(sigmoid(score(params, nh, nk, nt)))
        np.testing.assert_allclose(tape.rel_c, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "variant,n_t,beta,cylinder,swap",
        [
            (Variant.BOTH, 2, 0.3, None, False),
            (Variant.BOTH, 2, 0.3, 3.0, True),
            (Variant.DT, 1, 0.0, None, False),
            (Variant.MT, 3, 1.0, 2.0, False),
        ],
    )
    def test_finite_difference_agreement(self, variant, n_t, beta, cylinder, swap, rng):
        params = make_random_model(
            n_entities=6, n_relations=3, n_t=n_t, n_x=4, variant=variant, beta=beta,
            cylinder=cylinder, seed=10, swap=swap,
        )
        batch, negs = random_batch(params, rng)
        assert max_gradient_mismatch(params, batch, negs) < 1e-5

    def test_nonfinite_score_diagnoses_triple(self):
        params = make_random_model(seed=0)
        params.node_bias[2] = np.inf
        with pytest.raises(DivergenceError, match=r"\(2, 0, 1\)"):
            gradients(params, np.array([[2, 0, 1]]), np.empty((1, 0, 3), dtype=np.int64))

    def test_one_call_holds_no_entity_sized_table(self):
        # The tape holds one row per touched id: 16 positives with 10
        # negatives each touch at most 192 of 50,000 entities.
        rng = np.random.default_rng(4)
        params = make_random_model(n_entities=50_000, n_relations=5, n_t=1, n_x=64, variant=Variant.DT, seed=3)
        batch, _ = random_batch(params, rng, b=16)
        negs = sample_negatives_batch(batch, 10, NegativeMode.BOTH, rng, params.n_entities)
        tracemalloc.start()
        try:
            gradients(params, batch, negs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * params.coords.nbytes

    def test_rejects_out_of_range_ids(self):
        # a negative id would otherwise reach the optimizer as row N - 1
        params = make_random_model()  # 6 entities, 3 relations
        none = np.empty((1, 0, 3), dtype=np.int64)
        for batch, negs in (([[0, 0, -1]], none), ([[0, -1, 1]], none), ([[0, 0, 1]], [[[6, 0, 1]]])):
            with pytest.raises(IndexError, match="id out of range"):
                gradients(params, np.array(batch), np.array(negs))


def add_at_heads_then_tails(heads, tails, head_values, tail_values):
    """The summation the gradient tape is specified by: np.add.at over heads, then tails."""
    size = max([*heads, *tails], default=-1) + 1
    out = np.zeros((size,) + head_values.shape[1:])
    np.add.at(out, heads, head_values)
    np.add.at(out, tails, tail_values)
    return out


def assert_segment_sums_match(heads, tails, head_values, tail_values):
    expected = add_at_heads_then_tails(heads, tails, head_values, tail_values)
    segments = _Segments(np.concatenate([heads, tails]).astype(np.intp))
    np.testing.assert_array_equal(segments.keys, np.unique(np.concatenate([heads, tails])))
    # one row per sorted key, each written: NaN is left nowhere
    sums = np.full((segments.keys.size, *head_values.shape[1:]), np.nan)
    segments.sum(_take(np.concatenate([head_values, tail_values])), sums)
    # bit for bit with np.add.at's rows at the sorted keys: same signed zeros, same last bits
    assert sums.tobytes() == expected[segments.keys].tobytes()


@st.composite
def keyed_rows(draw):
    """Head and tail keys with heavy repeats (a hub key among the heads) and
    values that include -0.0, as 1-D rows or rows of 1 to 7 columns."""
    n_keys = draw(st.integers(1, 12))
    key = st.integers(0, n_keys - 1)
    hub = st.sampled_from([0, 1, 9, 31, 60, 2 * _TAIL_BLOCK + 3])  # the last is reduced in three blocks
    heads = draw(st.lists(key, max_size=30)) + [draw(key)] * draw(hub)
    heads = np.array(draw(st.permutations(heads)), dtype=np.intp)
    tails = np.array(draw(st.lists(key, max_size=30)), dtype=np.intp)
    columns = draw(st.sampled_from([(), (1,), (2,), (3,), (7,)]))
    # magnitudes over 16 decades, so that a different summation order rounds
    # differently, and a drawn share of -0.0 entries
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    negative_zeros = draw(st.sampled_from([0.0, 0.5, 1.0]))

    def values(n):
        out = rng.normal(size=(n, *columns)) * 10.0 ** rng.integers(-8, 8, size=(n, *columns))
        out[rng.random(out.shape) < negative_zeros] = -0.0
        return out

    return heads, tails, values(heads.size), values(tails.size)


class TestSegmentSums:
    @given(keyed_rows())
    def test_bit_equal_to_add_at(self, rows):
        assert_segment_sums_match(*rows)

    @pytest.mark.parametrize("columns", [(), (1,), (4,)])
    def test_empty(self, columns):
        none = np.empty(0, dtype=np.intp)
        assert_segment_sums_match(none, none, np.empty((0, *columns)), np.empty((0, *columns)))

    @pytest.mark.parametrize("columns", [(), (1,), (3,)])
    def test_negative_zeros_sum_to_positive_zero(self, columns):
        # np.add.at starts every total at 0.0, and 0.0 + -0.0 is 0.0
        keys = np.array([2, 0, 2], dtype=np.intp)
        values = np.full((3, *columns), -0.0)
        assert_segment_sums_match(keys, keys, values, values)
        sums = np.zeros((2, *columns))  # keys 0 and 2
        _Segments(np.r_[keys, keys]).sum(_take(np.r_[values, values]), sums)
        assert not np.signbit(sums).any()

    @pytest.mark.parametrize("columns", [(), (1,), (2,), (6,)])
    def test_hub_and_light_keys_in_one_sum(self, columns, rng):
        # heads of a tail-only batch: each of 5 positives' heads on 1 + 30
        # rows, one head a hub of 3 positives, and 200 mostly distinct tails
        heads = np.repeat(np.array([7, 7, 7, 3, 11]), 31)
        tails = rng.integers(0, 400, 200)
        head_values = rng.normal(size=(heads.size, *columns)) * 10.0 ** rng.integers(-8, 8, (heads.size, *columns))
        tail_values = rng.normal(size=(tails.size, *columns))
        assert_segment_sums_match(heads, tails, head_values, tail_values)


class TestGradientTapeLayout:
    """The compact tape that the optimizers read, and the dense views that
    checks read."""

    def test_fields(self, rng):
        # Every field is an array, so the nbytes of the fields are the tape's size.
        names = [f.name for f in dataclasses.fields(GradientTape)]
        assert names == [*(f"{name}_rows" for name, _ in TABLES), "touched_entities", "touched_relations"]
        params = make_random_model(seed=2)
        tape = gradients(params, *random_batch(params, rng))
        assert all(type(getattr(tape, name)) is np.ndarray for name in names)
        with pytest.raises(AttributeError, match="read-only"):
            tape.coords = np.zeros_like(params.coords)

    @pytest.mark.parametrize("variant,n_t", [(Variant.BOTH, 2), (Variant.DT, 1), (Variant.MT, 2)])
    def test_dense_tables_and_untouched_rows(self, variant, n_t, rng):
        params = make_random_model(n_entities=12, n_relations=5, n_t=n_t, variant=variant, seed=2)
        batch = np.array([[0, 1, 2], [2, 3, 0], [4, 1, 4]])
        negs = sample_negatives_batch(batch, 4, NegativeMode.BOTH, rng, 6)  # entities 0..5 only
        tape = gradients(params, batch, negs)
        rows = np.concatenate([batch, negs.reshape(-1, 3)])
        touched = {"entity": np.unique(rows[:, [0, 2]]), "relation": np.array([1, 3])}
        # sorted, unique ids, and one compact row per id
        np.testing.assert_array_equal(tape.touched_entities, touched["entity"])
        np.testing.assert_array_equal(tape.touched_relations, touched["relation"])
        for name, key in TABLES:
            compact, dense = getattr(tape, f"{name}_rows"), getattr(tape, name)
            assert compact.shape == (touched[key].size, *getattr(params, name).shape[1:]), name
            assert dense.shape == getattr(params, name).shape and dense.dtype == compact.dtype == np.float64
            assert dense[touched[key]].tobytes() == compact.tobytes(), name
        untouched = np.setdiff1d(np.arange(12), touched["entity"])
        for table in (tape.coords, tape.node_bias):
            assert not table[untouched].any() and not np.signbit(table[untouched]).any()
        for table in (tape.rel_u, tape.rel_r, tape.rel_h, tape.rel_c):
            assert not table[[0, 2, 4]].any() and not np.signbit(table[[0, 2, 4]]).any()
        for name in FROZEN[variant]:
            for table in (getattr(tape, f"{name}_rows"), getattr(tape, name)):
                assert not table.any() and not np.signbit(table).any(), name


class TestOptimizers:
    def test_sgd_exact_step(self, rng):
        params = make_random_model(seed=6)
        batch, negs = random_batch(params, rng)
        tape = gradients(params, batch, negs)
        before = params.coords.copy()
        SgdOptimizer(params, learning_rate=1.0).step(params, tape)
        np.testing.assert_array_equal(params.coords, before - tape.coords)

    def test_adam_constant_gradient_approaches_lr(self):
        params = make_random_model(seed=6)
        opt = AdamOptimizer(params, learning_rate=0.01)
        tape = zero_tape(params, np.arange(params.n_entities), np.arange(params.n_relations))
        tape.node_bias_rows[:] = 0.37
        before = params.node_bias.copy()
        for _ in range(50):
            prev = params.node_bias.copy()
            opt.step(params, tape)
        last_step = np.abs(params.node_bias - prev)
        np.testing.assert_allclose(last_step, 0.01, rtol=1e-5)
        assert np.all(params.node_bias < before)

    def test_sm3_accumulators_monotone(self, rng):
        params = make_random_model(seed=6)
        opt = Sm3Optimizer(params, learning_rate=0.1)
        prev_row = opt.coord_row.copy()
        prev_col = opt.coord_col.copy()
        for _ in range(10):
            batch, negs = random_batch(params, rng)
            tape = gradients(params, batch, negs)
            opt.step(params, tape)
            assert np.all(opt.coord_row >= prev_row - 1e-15)
            assert np.all(opt.coord_col >= prev_col - 1e-15)
            prev_row = opt.coord_row.copy()
            prev_col = opt.coord_col.copy()

    @pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.SM3])
    def test_frozen_tables_stay_at_identity(self, kind, rng):
        # MT fixes rel_u = 0 and rel_r = 1, DT fixes rel_h = 1: their
        # gradients are never computed, so their tape rows stay exactly zero
        for variant, n_t in ((Variant.MT, 2), (Variant.DT, 1)):
            params = make_random_model(n_entities=8, n_relations=3, n_t=n_t, variant=variant, seed=5)
            opt = make_optimizer(kind, params, 0.5)
            for _ in range(4):
                batch, negs = random_batch(params, rng)
                tape = gradients(params, batch, negs)
                frozen = (tape.rel_u, tape.rel_r) if variant is Variant.MT else (tape.rel_h,)
                assert not any(t.any() or np.signbit(t).any() for t in frozen)
                opt.step(params, tape)
            if variant is Variant.MT:
                assert np.all(params.rel_u == 0.0) and np.all(params.rel_r == 1.0)
            else:
                assert np.all(params.rel_h == 1.0)
            params.validate()

    @pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.SM3])
    @pytest.mark.parametrize("variant,n_t", [(Variant.MT, 2), (Variant.DT, 1)])
    def test_frozen_tables_ignore_a_nonzero_gradient(self, kind, variant, n_t):
        params = make_random_model(n_entities=8, n_relations=3, n_t=n_t, variant=variant, seed=5)
        before = params.copy()
        opt = make_optimizer(kind, params, 0.5)
        tape = zero_tape(params, np.arange(params.n_entities), np.arange(params.n_relations))
        for name in ("coords", "node_bias", "rel_u", "rel_r", "rel_h", "rel_c"):
            getattr(tape, f"{name}_rows")[:] = 0.3
        for _ in range(3):
            opt.step(params, tape)
        frozen = ("rel_u", "rel_r") if variant is Variant.MT else ("rel_h",)
        for name in ("coords", "node_bias", "rel_u", "rel_r", "rel_h", "rel_c"):
            changed = not np.array_equal(getattr(params, name), getattr(before, name))
            assert changed is (name not in frozen), name
        params.validate()

    @pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.SM3])
    @pytest.mark.parametrize("variant,n_t", [(Variant.DT, 1), (Variant.MT, 2), (Variant.BOTH, 2)])
    def test_blocked_steps_keep_every_bit(self, kind, variant, n_t):
        # The optimizers update touched rows `_TAIL_BLOCK` at a time; five
        # steps touch one row, a block less one, a block, a block and one,
        # and two blocks and three, and must match the whole-array formulas.
        block, size = _TAIL_BLOCK, 2 * _TAIL_BLOCK + 8
        params = make_random_model(n_entities=size, n_relations=size, n_t=n_t, variant=variant, seed=7)
        expected = params.copy()
        opt, oracle = make_optimizer(kind, params, 0.05), make_optimizer(kind, expected, 0.05)
        oracle_step = {OptimizerKind.SGD: sgd_step, OptimizerKind.ADAM: adam_step, OptimizerKind.SM3: sm3_step}[kind]
        rng = np.random.default_rng(8)
        fresh = size - 1  # untouched until the last step, which gives it a zero gradient
        for count in (1, block - 1, block, block + 1, 2 * block + 3):
            touched = {key: np.sort(rng.choice(fresh, count, replace=False)) for key in ("entity", "relation")}
            if count > block + 1:
                touched = {key: np.append(rows[1:], fresh) for key, rows in touched.items()}
            tape = zero_tape(params, touched["entity"], touched["relation"])
            for name, key in params.trained_tables:
                grad = getattr(tape, f"{name}_rows")
                shape = grad.shape
                grad[:] = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
                grad[touched[key] == fresh] = 0.0
            before = params.copy()
            opt.step(params, tape)
            oracle_step(oracle, expected, tape)
            for name, _ in TABLES:
                np.testing.assert_array_equal(getattr(params, name), getattr(expected, name), err_msg=name)
                # a zero gradient on zero accumulators moves nothing
                np.testing.assert_array_equal(getattr(params, name)[fresh], getattr(before, name)[fresh])
            for attr, state in vars(opt).items():
                reference = vars(oracle)[attr]
                for part in state if isinstance(state, dict) else [None]:
                    np.testing.assert_array_equal(
                        state if part is None else state[part],
                        reference if part is None else reference[part],
                        err_msg=f"{attr} {part}",
                    )

    def test_optimizer_given_by_value(self):
        params = make_random_model(seed=6)
        assert type(make_optimizer("sgd", params, 0.1)) is SgdOptimizer
        assert type(make_optimizer("adam", params, 0.1)) is AdamOptimizer
        assert type(make_optimizer("sm3", params, 0.1)) is Sm3Optimizer
        with pytest.raises(ValueError):
            make_optimizer("nonsense", params, 0.1)

    @pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.SM3])
    def test_step_touches_only_batch_parameters(self, kind, rng):
        params = make_random_model(n_entities=9, n_relations=4, seed=6)
        opt = make_optimizer(kind, params, 0.5)
        batch = np.array([[0, 0, 1]])
        negs = sample_negatives_batch(batch, 2, NegativeMode.TAIL_ONLY, rng, 3)
        tape = gradients(params, batch, negs)
        untouched_e = np.setdiff1d(np.arange(9), tape.touched_entities)
        untouched_r = np.setdiff1d(np.arange(4), tape.touched_relations)
        coords_before = params.coords[untouched_e].copy()
        bias_before = params.node_bias[untouched_e].copy()
        relc_before = params.rel_c[untouched_r].copy()
        opt.step(params, tape)
        np.testing.assert_array_equal(params.coords[untouched_e], coords_before)
        np.testing.assert_array_equal(params.node_bias[untouched_e], bias_before)
        np.testing.assert_array_equal(params.rel_c[untouched_r], relc_before)


class TestWorkerCount:
    """The row-block loops share their blocks out to `model._WORKERS`
    threads; each block is computed whole by one of them, so no count may
    move a bit.  Counts above the CPUs are forced, and every loop is shared
    out whatever its width, so that the pool runs on any host and shape."""

    N_ENTITIES, N_RELATIONS = 3000, 5000

    @pytest.fixture(autouse=True)
    def share_every_width(self, monkeypatch):
        monkeypatch.setattr(model, "_SHARED_WIDTH", 1)

    def _outputs(self, monkeypatch, workers):
        monkeypatch.setattr(model, "_WORKERS", workers)
        params = make_random_model(
            n_entities=self.N_ENTITIES, n_relations=self.N_RELATIONS, n_t=2, n_x=200, variant=Variant.BOTH, seed=3
        )
        rng = np.random.default_rng(4)
        outputs = []
        heads, rels, tails = self._triples(rng).T
        outputs += _forward(params, heads, rels, tails)
        outputs.append(score_tails(params, 0, 0, rng.permutation(self.N_ENTITIES)))
        for kind in OptimizerKind:
            trained = params.copy()
            opt = make_optimizer(kind, trained, 1e-3)
            for step in range(5):
                batch = self._triples(rng)
                mode = NegativeMode.TAIL_ONLY if step % 2 == 0 else NegativeMode.BOTH
                tape = gradients(trained, batch, sample_negatives_batch(batch, 4, mode, rng, self.N_ENTITIES))
                outputs += [getattr(tape, field.name) for field in dataclasses.fields(tape)]
                opt.step(trained, tape)
            outputs += [getattr(trained, name) for name, _ in TABLES]
            for state in vars(opt).values():
                outputs += state.values() if isinstance(state, dict) else [state]
        return outputs

    def _triples(self, rng):
        # 1,024 positives, a quarter of them on one hub head and relation,
        # whose rows are summed as reduced keys; the rest spread over more
        # than five blocks of light keys in every table.  The hub head is the
        # last entity, so its block is not the calling thread's at 3 workers.
        size = 1024
        triples = np.column_stack(
            [
                rng.integers(0, self.N_ENTITIES, size),
                rng.integers(0, self.N_RELATIONS, size),
                rng.integers(0, self.N_ENTITIES, size),
            ]
        )
        triples[: size // 4, :2] = self.N_ENTITIES - 1, 0
        return triples

    def test_the_shape_splits_every_loop(self):
        rng = np.random.default_rng(4)
        batch = self._triples(rng)
        negatives = sample_negatives_batch(batch, 4, NegativeMode.BOTH, rng, self.N_ENTITIES)
        rows = np.concatenate([batch, negatives.reshape(-1, 3)])
        for keys in (np.concatenate([rows[:, 0], rows[:, 2]]), rows[:, 1]):
            segments = _Segments(keys)
            assert segments._reduced and segments.keys.size > 5 * _TAIL_BLOCK

    def test_any_worker_count_gives_the_same_bits(self, monkeypatch):
        expected = self._outputs(monkeypatch, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter often
        try:
            runs = [(workers, self._outputs(monkeypatch, workers)) for workers in (2, 3)]
        finally:
            sys.setswitchinterval(interval)
        for workers, outputs in runs:
            assert len(outputs) == len(expected)
            for i, (got, want) in enumerate(zip(map(np.asarray, outputs), map(np.asarray, expected))):
                assert got.dtype == want.dtype and got.shape == want.shape, i
                assert got.tobytes() == want.tobytes(), f"output {i} moved at {workers} workers"

    def test_shares_deal_items_round_robin(self, monkeypatch):
        monkeypatch.setattr(model, "_WORKERS", 3)
        monkeypatch.setattr(model, "_SHARED_WIDTH", 10)
        assert _in_shares(list, range(7), 10) == [[0, 3, 6], [1, 4], [2, 5]]
        assert _in_shares(list, range(1), 10) == [[0]]
        # Narrow rows stay on the calling thread, as does everything on one CPU.
        assert _in_shares(list, range(7), 9) == [list(range(7))]
        monkeypatch.setattr(model, "_WORKERS", 1)
        assert _in_shares(list, range(7), 10) == [list(range(7))]

    def test_a_forked_child_starts_its_own_pool(self, monkeypatch):
        # A child forked after the pool has run inherits none of its threads.
        monkeypatch.setattr(model, "_WORKERS", 2)
        assert _in_shares(list, range(2), 1) == [[0], [1]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            with multiprocessing.get_context("fork").Pool(1) as children:
                assert children.apply_async(_in_shares, (list, range(2), 1)).get(timeout=60) == [[0], [1]]

    @pytest.mark.parametrize("bad_block", [0, 4])
    def test_an_exception_in_a_share_reaches_the_caller(self, monkeypatch, bad_block):
        # Block 0 is mapped by the calling thread and block 4 by a worker.
        monkeypatch.setattr(model, "_WORKERS", 3)
        params = make_random_model(n_entities=50, n_relations=3, seed=5)
        rng = np.random.default_rng(6)
        heads, rels, tails = (rng.integers(0, n, 6 * _TAIL_BLOCK) for n in (50, 3, 50))
        expected = _forward(params, heads, rels, tails)[-1]
        bad = tails.copy()
        bad[bad_block * _TAIL_BLOCK + 5] = 50
        with pytest.raises(IndexError):
            _forward(params, heads, rels, bad)
        np.testing.assert_array_equal(_forward(params, heads, rels, tails)[-1], expected)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(m_negatives=3)
        with pytest.raises(ValueError):
            TrainConfig(m_negatives=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [("batch_size", 2.5), ("eval_every", 2.5), ("m_negatives", 4.0), ("patience", 0.5), ("seed", 1.5), ("seed", -1)],
    )
    def test_counts_must_be_integers(self, name, value):
        # eval_every = 2.5 would validate every 5 epochs, batch_size = 2.5
        # fail inside range; a numpy integer is an integer.
        rule = "a non-negative integer" if name == "seed" else "a positive integer"
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {value}$"):
            TrainConfig(**{name: value})
        if name == "seed":
            with pytest.raises(ValueError, match=f"^seed must be {rule}, got {value}$"):
                InitConfig(0.1, seed=value)
        assert getattr(TrainConfig(**{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_learning_rate_refused(self, value):
        with pytest.raises(ValueError, match=f"^learning_rate must be a positive real, got {value}$"):
            TrainConfig(learning_rate=value)

    def test_optimizer_given_by_value(self):
        assert TrainConfig(optimizer="adam").optimizer is OptimizerKind.ADAM
        assert TrainConfig(optimizer="sgd").optimizer is OptimizerKind.SGD
        with pytest.raises(ValueError):
            TrainConfig(optimizer="nonsense")


def test_log_csv_bytes(tmp_path):
    # An epoch without validation leaves its two validation fields empty.
    log = [TrainLogRow(1, 7.865912345678, None, None, 0.12345), TrainLogRow(2, 7.8270001, 1 / 9.5, 0.25, 1.5)]
    write_log_csv(log, tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == (
        b"epoch,mean_loss,val_mrr,val_hits10,wall_seconds\r\n"
        b"1,7.865912346,,,0.123\r\n"
        b"2,7.8270001,0.1052631579,0.25,1.500\r\n"
    )


@pytest.fixture(scope="module")
def small_graph():
    return tree_clique_graph(n_nodes=20, clique_size=4, seed=1)


class TestTrainLoop:
    def _run(self, store, optimizer, lr, epochs=6, seed=5, augment=False):
        tfd = TfdParams(tau1=0.5, tau2=0.5, u=0.5, alpha=0.2, alpha_prime=1.0, beta=0.1)
        config = TrainConfig(
            m_negatives=4, batch_size=32, learning_rate=lr, optimizer=optimizer,
            max_epochs=epochs, eval_every=3, patience=10, seed=seed,
        )
        geometry = GeometryConfig(Signature(1, 7))
        store = augmented_store(store) if augment else store
        return train(store, config, geometry, tfd, Variant.DT, init_cfg=InitConfig(0.1, seed))

    def test_deterministic_log(self, small_graph):
        store, _, _ = small_graph
        _, log_a = self._run(store, OptimizerKind.ADAM, 0.05)
        _, log_b = self._run(store, OptimizerKind.ADAM, 0.05)
        assert [(r.epoch, r.mean_loss, r.val_mrr) for r in log_a] == [
            (r.epoch, r.mean_loss, r.val_mrr) for r in log_b
        ]

    def test_early_stop_once_validation_stops_improving(self, small_graph):
        # At a learning rate of 1e-300 no score moves, so the second
        # validation ties the first and, with patience 1, ends the run.
        store, _, _ = small_graph
        config = TrainConfig(
            m_negatives=4, batch_size=32, learning_rate=1e-300, max_epochs=10, eval_every=1, patience=1, seed=5
        )
        geometry, tfd = GeometryConfig(Signature(1, 7)), TfdParams(0.5, 0.5, 0.5, 0.2, 1.0)
        _, log = train(store, config, geometry, tfd, Variant.DT, init_cfg=InitConfig(0.1, config.seed))
        assert [row.epoch for row in log] == [1, 2]
        assert log[1].val_mrr == log[0].val_mrr

    @pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.SM3])
    def test_loss_decreases_over_first_epochs(self, kind):
        # the overfit graph at each optimizer's preset learning rate
        from pseudoe.experiments import run_overfit

        _, log, _, _ = run_overfit(kind, seed=5, max_epochs=10)
        losses = [r.mean_loss for r in log]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("augment", [False, True])
    def test_negative_mode_follows_the_store(self, small_graph, monkeypatch, augment):
        # An augmented store already holds the head direction as reversed
        # triples, so every batch corrupts tails only; a plain store's
        # batches corrupt heads and tails.
        import pseudoe.training

        store, _, _ = small_graph
        modes = []

        def recording_sampler(batch, m, mode, rng, n_entities):
            modes.append(mode)
            return sample_negatives_batch(batch, m, mode, rng, n_entities)

        monkeypatch.setattr(pseudoe.training, "sample_negatives_batch", recording_sampler)
        self._run(store, OptimizerKind.ADAM, 0.05, epochs=2, augment=augment)
        expected = NegativeMode.TAIL_ONLY if augment else NegativeMode.BOTH
        n_train = (augmented_store(store) if augment else store).splits["train"].shape[0]
        assert modes == [expected] * (2 * -(-n_train // 32))

    @pytest.mark.parametrize("augment", [False, True])
    def test_empty_validation_split_rejected_before_training(self, small_graph, monkeypatch, augment):
        import pseudoe.training

        store, _, _ = small_graph
        empty = dataclasses.replace(store, splits={**store.splits, "valid": np.zeros((0, 3), dtype=np.int64)})
        steps = []
        monkeypatch.setattr(pseudoe.training, "_loss_and_gradients", lambda *args: steps.append(args))
        config = TrainConfig(m_negatives=4, max_epochs=2, eval_every=1)
        with pytest.raises(ValueError, match="the validation split is empty"):
            train(
                augmented_store(empty) if augment else empty, config, GeometryConfig(Signature(1, 7)),
                TfdParams(0.5, 0.5, 0.5, 0.2, 1.0), Variant.DT, init_cfg=InitConfig(0.1, config.seed),
            )
        assert steps == []

    @pytest.mark.parametrize("augment", [False, True])
    def test_uncovered_fixed_protocol_rejected_before_training(self, small_graph, monkeypatch, augment):
        # Without augmentation the table lacks the first validation pair; with
        # it, it covers every pair of the plain split but no inverse pair of
        # the augmented one, and the combination itself is refused, in the
        # command line's words.  Either is found before the first step, not at
        # the first validation.
        import pseudoe.training

        store, _, _ = small_graph
        valid = store.splits["valid"]
        pairs = {(h, k) for h, k, _ in valid.tolist()}
        h, k, _ = valid[0].tolist()
        table = {pair: np.array([0, 1]) for pair in pairs if augment or pair != (h, k)}
        protocol = EvalProtocol(EvalMode.FIXED_NEGATIVES, NegativesTable(table, 2))
        steps = []
        monkeypatch.setattr(pseudoe.training, "_loss_and_gradients", lambda *args: steps.append(args))
        config = TrainConfig(m_negatives=4, max_epochs=2, eval_every=2)
        if augment:
            message = "^fixed-negatives protocol does not combine with augment_reverse$"
        else:
            message = f"^no fixed negatives stored for head={h}, relation={k}$"
        with pytest.raises(ProtocolError, match=message):
            train(
                augmented_store(store) if augment else store, config, GeometryConfig(Signature(1, 7)),
                TfdParams(0.5, 0.5, 0.5, 0.2, 1.0), Variant.DT, init_cfg=InitConfig(0.1, config.seed), protocol=protocol,
            )
        assert steps == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, small_graph):
        store, _, _ = small_graph
        with pytest.raises(DivergenceError):
            self._run(store, OptimizerKind.SGD, 1e12, epochs=30)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("augment", [False, True])
    def test_divergence_names_epoch_step_and_triple(self, small_graph, augment):
        # The first non-finite score is named by the entity and relation
        # names of the store trained on, inverse relations as inv:<name>.
        store, _, _ = small_graph
        with pytest.raises(DivergenceError) as info:
            self._run(store, OptimizerKind.SGD, 1e12, epochs=30, augment=augment)
        names = (augmented_store(store) if augment else store).decode(info.value.triple)
        message = rf"epoch \d+, step \d+: non-finite score for triple \({re.escape(', '.join(names))}\)"
        assert re.fullmatch(message, str(info.value))
