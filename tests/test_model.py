import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_random_model
from pseudoe import model
from pseudoe.geometry import GeometryConfig, Signature
from pseudoe.likelihood import sigmoid
from pseudoe.model import (
    TABLES,
    InitConfig,
    init,
    load_checkpoint,
    probability,
    save_checkpoint,
    scale_node_bias,
    score,
    score_many,
    score_tails,
    _score_ragged,
    _TAIL_BLOCK,
)
from pseudoe.relmaps import Variant
from reference import pipeline_score


class TestScore:
    def test_neutral_configuration_scores_zero(self):
        params = make_random_model(n_t=1, n_x=2, variant=Variant.DT, beta=0.4, u=0.0)
        params.coords[:] = 0.0
        params.rel_u[:] = 0.0
        params.rel_r[:] = 1.0
        params.node_bias[:] = 0.0
        params.rel_c[:] = 0.0
        # coincident embeddings, no displacement: both likelihood routes hit 1/2
        assert score(params, 0, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_biases_are_additive(self):
        params = make_random_model(n_t=1, n_x=2, variant=Variant.DT, beta=0.4, u=0.0)
        params.coords[:] = 0.0
        params.rel_u[:] = 0.0
        params.rel_r[:] = 1.0
        params.node_bias[:] = 0.0
        params.rel_c[:] = 0.0
        params.node_bias[0] = 1.0
        params.node_bias[1] = 2.0
        params.rel_c[0] = -0.5
        assert score(params, 0, 0, 1) == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize(
        "variant,n_t,cylinder,swap",
        [
            (Variant.BOTH, 2, None, False),
            (Variant.BOTH, 3, 4.0, False),
            (Variant.BOTH, 2, None, True),
            (Variant.MT, 2, None, False),
            (Variant.MT, 3, 2.5, False),
            (Variant.DT, 1, None, False),
            (Variant.DT, 1, 5.0, True),
        ],
    )
    def test_matches_primitive_pipeline(self, variant, n_t, cylinder, swap):
        params = make_random_model(
            n_entities=5, n_relations=4, n_t=n_t, n_x=3, variant=variant, beta=0.3,
            cylinder=cylinder, seed=42, swap=swap,
        )
        rng = np.random.default_rng(7)
        for _ in range(20):
            h, t = rng.integers(0, 5, size=2)
            k = int(rng.integers(0, 4))
            assert score(params, int(h), k, int(t)) == pytest.approx(
                pipeline_score(params, int(h), k, int(t)), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("variant,n_t", [(Variant.DT, 1), (Variant.MT, 2), (Variant.BOTH, 3)])
    @pytest.mark.parametrize("swap", [False, True])
    def test_batch_composition_keeps_bits(self, variant, n_t, swap):
        # The kernel shares work between the rows of a batch and maps them in
        # `_TAIL_BLOCK`-row blocks; no row's score may depend on which other
        # rows share its batch or its block.
        params = make_random_model(n_entities=80, n_relations=4, n_t=n_t, n_x=7, variant=variant, seed=12, swap=swap)
        rng = np.random.default_rng(6)
        for size in (80, _TAIL_BLOCK - 1, _TAIL_BLOCK + 1, 3 * _TAIL_BLOCK + 5):
            n_tail = size * 3 // 4
            tail_only = np.column_stack([np.full(n_tail, 3), np.full(n_tail, 1), rng.integers(0, 80, n_tail)])
            n_head = size - n_tail
            head_corruption = np.column_stack(
                [np.append(rng.integers(0, 80, n_head - 1), 3), np.full(n_head, 2), np.full(n_head, 5)]
            )
            heads, rels, tails = np.concatenate([tail_only, head_corruption]).T
            alone = [score_many(params, [h], [k], [t])[0] for h, k, t in zip(heads, rels, tails)]
            np.testing.assert_array_equal(score_many(params, heads, rels, tails), alone)

    def test_bias_shift_moves_score_exactly(self):
        params = make_random_model(seed=3)
        base = score(params, 1, 0, 2)
        params.node_bias[1] += 0.625
        assert score(params, 1, 0, 2) == pytest.approx(base + 0.625, abs=1e-12)

    def test_symmetric_relation_case(self):
        params = make_random_model(alpha=0.6, alpha_prime=0.6, seed=11)
        params.rel_u[:] = 0.0
        params.rel_r[:] = 1.0
        assert score(params, 0, 1, 3) == pytest.approx(score(params, 3, 1, 0), abs=1e-12)

    def test_relation_bias_shift_preserves_ranking(self):
        params = make_random_model(seed=5)
        tails = np.arange(params.n_entities)
        before = np.argsort(score_tails(params, 0, 1, tails))
        params.rel_c[1] += 17.3
        after = np.argsort(score_tails(params, 0, 1, tails))
        np.testing.assert_array_equal(before, after)

    def test_probability_examples(self):
        params = make_random_model(seed=9)
        s = score(params, 0, 0, 1)
        assert probability(params, 0, 0, 1) == pytest.approx(float(sigmoid(s)))
        assert 0.0 < probability(params, 0, 0, 1) < 1.0
        assert float(sigmoid(math.log(3.0))) == pytest.approx(0.75, abs=1e-12)
        assert float(sigmoid(1e9)) == 1.0  # saturates toward the limit

    def test_out_of_range_ids(self):
        params = make_random_model()
        with pytest.raises(IndexError):
            score(params, 99, 0, 0)
        with pytest.raises(IndexError):
            score(params, 0, 99, 0)

    def test_score_many_rejects_out_of_range_ids(self):
        params = make_random_model()  # 6 entities, 3 relations
        for heads, rels, tails in (([0], [0], [-1]), ([0, 1], [0, 0], [1, 6]), ([-1], [0], [0]), ([0], [3], [0])):
            with pytest.raises(IndexError, match="id out of range"):
                score_many(params, heads, rels, tails)

    def test_non_integer_ids_refused_before_any_cast(self):
        # A cast to an integer dtype would truncate 1.7 to 1 and score tail 1.
        params = make_random_model()  # 6 entities, 3 relations
        for side, call in (
            ("tail", lambda: score_tails(params, 0, 0, [1.7, 2.2])),
            ("tail", lambda: score_tails(params, 0, 0, np.array([True, False]))),
            ("head", lambda: score_tails(params, 0.0, 0, [1])),
            ("relation", lambda: score_tails(params, 0, True, [1])),
            ("head", lambda: score_many(params, [0.5], [0], [1])),
            ("relation", lambda: score_many(params, [0], np.array([0.0]), [1])),
            ("tail", lambda: score_many(params, [0], [0], [False])),
            ("head", lambda: score(params, 1.0, 0, 1)),
        ):
            with pytest.raises(TypeError, match=f"^{side} ids must be integers, got dtype"):
                call()
        assert score_tails(params, 0, 0, []).shape == (0,)
        assert score_tails(params, np.int32(0), np.uint8(0), np.array([1], dtype=np.uint16))[0] == score(params, 0, 0, 1)

    def test_score_tails_rejects_out_of_range_ids(self):
        params = make_random_model()
        tails = np.arange(params.n_entities)
        for head, rel, cands in ((-1, 0, tails), (6, 0, tails), (0, -1, tails), (0, 3, tails), (0, 0, [0, 6])):
            with pytest.raises(IndexError):
                score_tails(params, head, rel, cands)


class TestScoreTails:
    """The blocked 1-vs-all path gives exactly the bits of the batched kernel."""

    @pytest.mark.parametrize("variant,n_t", [(Variant.DT, 1), (Variant.MT, 2), (Variant.MT, 41), (Variant.BOTH, 3)])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("cylinder", [None, 2.5])
    def test_bit_equal_to_score_many(self, variant, n_t, swap, cylinder):
        n = 3 * _TAIL_BLOCK + 5  # several blocks plus a remainder
        params = make_random_model(
            n_entities=n, n_relations=4, n_t=n_t, n_x=7, variant=variant, cylinder=cylinder, seed=8, swap=swap
        )
        clone = n - 2  # lands in the last block, its original in the first
        params.coords[clone] = params.coords[1]
        params.node_bias[clone] = params.node_bias[1]
        rng = np.random.default_rng(4)
        subset = rng.permutation(np.concatenate([rng.integers(0, n, 90), [3, 3, 3]]))
        for head, rel in ((0, 0), (1, 2), (n - 1, 3)):
            for tails in (np.arange(n), subset, np.array([], dtype=np.int64)):
                got = score_tails(params, head, rel, tails)
                want = score_many(params, np.full(tails.size, head), np.full(tails.size, rel), tails)
                np.testing.assert_array_equal(got, want)
            scores = score_tails(params, head, rel, np.arange(n))
            assert scores[clone] == scores[1]


class TestScoreLists:
    """Candidate lists scored per query give exactly the bits of the batched kernel."""

    @pytest.mark.parametrize("variant,n_t", [(Variant.DT, 1), (Variant.MT, 2), (Variant.MT, 41), (Variant.BOTH, 3)])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("cylinder", [None, 2.5])
    def test_bit_equal_to_score_many(self, variant, n_t, swap, cylinder):
        n = 50
        params = make_random_model(
            n_entities=n, n_relations=4, n_t=n_t, n_x=7, variant=variant, cylinder=cylinder, seed=9, swap=swap
        )
        params.coords[n - 1] = params.coords[1]
        params.node_bias[n - 1] = params.node_bias[1]
        rng = np.random.default_rng(5)
        # candidates filling less than a block, several blocks with and without a remainder, none
        for n_lists, length in ((3, 7), (11, 7), (5, _TAIL_BLOCK), (3, _TAIL_BLOCK + 9), (4, 0)):
            heads, rels = rng.integers(0, n, n_lists), rng.integers(0, 4, n_lists)
            tails = rng.integers(0, n, n_lists * length)
            got = _score_ragged(params, heads, rels, tails, np.repeat(np.arange(n_lists), length))
            assert got.shape == (n_lists * length,)
            want = score_many(params, np.repeat(heads, length), np.repeat(rels, length), tails)
            np.testing.assert_array_equal(got, want)
        clone = _score_ragged(params, [0], [2], [1, n - 1, 2], [0, 0, 0])
        assert clone[0] == clone[1]

    @pytest.mark.parametrize("batch", [7, _TAIL_BLOCK, _TAIL_BLOCK + 9])
    def test_ragged_lists_in_slices_bit_equal_to_score_many(self, monkeypatch, batch):
        # Lists of different lengths, one empty, scored in slices of `batch`
        # candidates: the last slice partial, some cutting `_TAIL_BLOCK` blocks.
        n = 50
        params = make_random_model(n_entities=n, n_relations=4, n_t=2, n_x=7, cylinder=2.5, seed=9, swap=True)
        rng = np.random.default_rng(6)
        lengths = [0, 3, 140, 1, 61]
        heads, rels = rng.integers(0, n, len(lengths)), rng.integers(0, 4, len(lengths))
        lists = np.repeat(np.arange(len(lengths)), lengths)
        tails = rng.integers(0, n, lists.size)
        monkeypatch.setattr(model, "_CANDIDATE_BATCH", batch)
        got = _score_ragged(params, heads, rels, tails, lists)
        np.testing.assert_array_equal(got, score_many(params, heads[lists], rels[lists], tails))

    def test_slices_bound_the_temporaries(self, monkeypatch):
        # 40,000 candidates in slices of 1,024: the call holds the sort order
        # and the scores of every candidate, and the temporaries of one slice.
        params = make_random_model(n_entities=500, n_x=20, seed=4)
        tails = np.random.default_rng(1).integers(0, 500, 40_000)
        monkeypatch.setattr(model, "_CANDIDATE_BATCH", 1024)
        tracemalloc.start()
        try:
            _score_ragged(params, [0], [0], tails, np.zeros_like(tails))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * tails.nbytes


class TestTimeMap:
    """Every entity as one query's list, given as ``slice(None)``, keeps the
    bits of the gathered lists: the screen's margin assumes the kernel's own dt."""

    @pytest.mark.parametrize("variant,n_t", [(Variant.DT, 1), (Variant.MT, 3), (Variant.MT, 41), (Variant.BOTH, 2)])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("cylinder", [None, 2.5])
    def test_view_of_every_entity_bit_equal_to_gathered_lists(self, variant, n_t, swap, cylinder):
        n = 3 * _TAIL_BLOCK + 5
        params = make_random_model(
            n_entities=n, n_relations=4, n_t=n_t, n_x=7, variant=variant, cylinder=cylinder, seed=7, swap=swap
        )
        everyone, one_list = np.arange(n), np.zeros(n, dtype=np.intp)
        for head, rel in ((0, 0), (5, 2), (n - 1, 3)):
            heads, rels = np.array([head]), np.array([rel])
            proj, dt = model._time_map(params, heads, rels, slice(None), slice(None))
            want_proj, want_dt = model._time_map(params, heads, rels, everyone, one_list)
            assert dt.shape == (n,)
            np.testing.assert_array_equal(dt.view(np.int64), want_dt.view(np.int64))
            # Swapped, the scaled side is the head: its projection stays one value.
            np.testing.assert_array_equal(np.broadcast_to(proj, (n,)).view(np.int64), want_proj.view(np.int64))


class TestInit:
    def test_deterministic(self):
        geo = GeometryConfig(Signature(2, 3))
        a = init(10, 4, geo, Variant.BOTH, InitConfig(0.1, seed=77))
        b = init(10, 4, geo, Variant.BOTH, InitConfig(0.1, seed=77))
        for name in ("coords", "node_bias", "rel_u", "rel_r", "rel_h", "rel_c"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_sigma_scale(self):
        # N * dim >= 1e5 draws: sample std within 5% of sigma
        geo = GeometryConfig(Signature(1, 99))
        params = init(1000, 2, geo, Variant.DT, InitConfig(0.001, seed=3))
        assert params.coords.std() == pytest.approx(0.001, rel=0.05)

    def test_identity_tables_at_init(self):
        geo = GeometryConfig(Signature(2, 3))
        params = init(6, 4, geo, Variant.BOTH, InitConfig(0.5, seed=0))
        np.testing.assert_array_equal(params.rel_r, 1.0)
        np.testing.assert_array_equal(params.node_bias, 0.0)
        np.testing.assert_array_equal(params.rel_c, 0.0)

    def test_frozen_tables_per_variant(self):
        geo = GeometryConfig(Signature(2, 3))
        mt = init(6, 4, geo, Variant.MT, InitConfig(0.5, seed=0))
        np.testing.assert_array_equal(mt.rel_u, 0.0)
        np.testing.assert_array_equal(mt.rel_r, 1.0)
        dt = init(6, 4, GeometryConfig(Signature(1, 3)), Variant.DT, InitConfig(0.5, seed=0))
        np.testing.assert_array_equal(dt.rel_h, 1.0)

    def test_dt_requires_single_time(self):
        with pytest.raises(ValueError):
            init(4, 2, GeometryConfig(Signature(2, 3)), Variant.DT, InitConfig(0.1))

    def test_variant_given_by_value(self):
        geo = GeometryConfig(Signature(1, 3))
        by_value = init(6, 4, geo, "dt", InitConfig(0.5, seed=0))
        by_member = init(6, 4, geo, Variant.DT, InitConfig(0.5, seed=0))
        assert by_value.variant is Variant.DT
        for name in ("coords", "node_bias", "rel_u", "rel_r", "rel_h", "rel_c"):
            np.testing.assert_array_equal(getattr(by_value, name), getattr(by_member, name))
        with pytest.raises(ValueError):
            init(4, 2, GeometryConfig(Signature(2, 3)), "dt", InitConfig(0.1))
        with pytest.raises(ValueError):
            init(4, 2, geo, "nonsense", InitConfig(0.1))

    def test_warns_when_time_dims_reach_relation_count(self):
        with pytest.warns(UserWarning):
            init(4, 2, GeometryConfig(Signature(2, 3)), Variant.MT, InitConfig(0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            init(4, 3, GeometryConfig(Signature(2, 3)), Variant.MT, InitConfig(0.1))


class TestScaleNodeBias:
    def test_identity(self):
        params = make_random_model(seed=21)
        out = scale_node_bias(params, 1.0)
        np.testing.assert_array_equal(out.node_bias, params.node_bias)
        assert out is not params

    def test_zero_out(self):
        params = make_random_model(seed=21)
        out = scale_node_bias(params, 0.0)
        np.testing.assert_array_equal(out.node_bias, 0.0)
        # input untouched
        assert np.any(params.node_bias != 0.0)

    def test_linear_in_gamma(self):
        params = make_random_model(seed=2)
        s1 = score(scale_node_bias(params, 3.0), 0, 0, 1)
        s0 = score(scale_node_bias(params, 0.0), 0, 0, 1)
        half = score(scale_node_bias(params, 1.5), 0, 0, 1)
        assert half == pytest.approx(0.5 * (s1 + s0), abs=1e-10)

    def test_non_finite_gamma_refused(self):
        # inf times a zero bias would be NaN, and NaN scores rank first.
        params = make_random_model(seed=2)
        for gamma in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^gamma_b must be a finite real, got {gamma}$"):
                scale_node_bias(params, gamma)


class TestCheckpoint:
    @pytest.mark.parametrize("variant,n_t,cylinder,swap", [
        (Variant.BOTH, 2, 4.0, True),
        (Variant.DT, 1, None, False),
        (Variant.MT, 3, 1.5, False),
    ])
    def test_roundtrip_bit_exact(self, tmp_path, variant, n_t, cylinder, swap):
        params = make_random_model(n_t=n_t, variant=variant, cylinder=cylinder, swap=swap, seed=5)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for name in ("coords", "node_bias", "rel_u", "rel_r", "rel_h", "rel_c"):
            np.testing.assert_array_equal(getattr(params, name), getattr(loaded, name))
        assert loaded.tfd == params.tfd
        assert loaded.geometry == params.geometry
        assert loaded.variant == params.variant
        assert loaded.swap_transforms == params.swap_transforms

    @pytest.mark.parametrize("variant,n_t", [(Variant.MT, 3), (Variant.DT, 1), (Variant.BOTH, 2)])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("cylinder", [None, 2.5])
    def test_documented_layout(self, tmp_path, variant, n_t, swap, cylinder):
        # Expected bytes built value by value from the documented layout: the
        # header, coords row by row, the node biases, then per relation
        # u_vec, r_diag, h_vec and c_bias.
        params = make_random_model(
            n_entities=5, n_relations=3, n_t=n_t, n_x=2, variant=variant, cylinder=cylinder, swap=swap, seed=9
        )
        if variant is Variant.BOTH:
            params.rel_r[:] = np.random.default_rng(4).normal(1.0, 0.1, params.rel_r.shape)
        tfd = params.tfd
        tag = {Variant.MT: 0, Variant.DT: 1, Variant.BOTH: 2}[variant] | (8 if swap else 0)
        expected = struct.pack(
            "<8s5Q9d", b"PSEUDOE1", n_t, 2, 5, 3, tag, tfd.tau1, tfd.tau2, tfd.u, tfd.alpha, tfd.alpha_prime,
            1.0, tfd.beta, 0.0 if cylinder is None else 1.0, 0.0 if cylinder is None else cylinder,
        )
        values = [float(v) for row in params.coords for v in row] + [float(v) for v in params.node_bias]
        for k in range(3):
            values += [float(v) for v in params.rel_u[k]] + [float(v) for v in params.rel_r[k]]
            values += [float(v) for v in params.rel_h[k]] + [float(params.rel_c[k])]
        expected += b"".join(struct.pack("<d", v) for v in values)

        save_checkpoint(params, tmp_path / "saved.ckpt")
        assert (tmp_path / "saved.ckpt").read_bytes() == expected
        (tmp_path / "packed.ckpt").write_bytes(expected)
        loaded = load_checkpoint(tmp_path / "packed.ckpt")
        for name in ("coords", "node_bias", "rel_u", "rel_r", "rel_h", "rel_c"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
        assert (loaded.variant, loaded.swap_transforms, loaded.geometry) == (variant, swap, params.geometry)

    def test_scores_survive_roundtrip(self, tmp_path):
        params = make_random_model(seed=31)
        save_checkpoint(params, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        triples = np.random.default_rng(0).integers(0, 6, size=(10, 3)) % [6, 3, 6]
        np.testing.assert_array_equal(
            score_many(params, triples[:, 0], triples[:, 1], triples[:, 2]),
            score_many(loaded, triples[:, 0], triples[:, 1], triples[:, 2]),
        )

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTMODEL" + b"\x00" * 200)
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    def test_prefactor_other_than_one_rejected(self, tmp_path):
        # The header's k slot follows magic, five counts and five likelihood
        # parameters; the model has no prefactor but 1.
        path = tmp_path / "k.ckpt"
        save_checkpoint(make_random_model(seed=1), path)
        blob = bytearray(path.read_bytes())
        k_offset = struct.calcsize("<8s5Q5d")
        assert struct.unpack_from("<d", blob, k_offset) == (1.0,)
        struct.pack_into("<d", blob, k_offset, 2.0)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="prefactor k = 2, expected 1"):
            load_checkpoint(path)

    def test_non_finite_likelihood_setting_rejected(self, tmp_path):
        # u is the third likelihood parameter, after tau1 and tau2.
        path = tmp_path / "u.ckpt"
        save_checkpoint(make_random_model(seed=1), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, struct.calcsize("<8s5Q2d"), np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(f"{path}: u must be a non-negative real, got nan")):
            load_checkpoint(path)

    def test_bad_geometry_setting_rejected(self, tmp_path):
        # The cylinder flag and circumference close the header.
        path = tmp_path / "c.ckpt"
        save_checkpoint(make_random_model(seed=1), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<2d", blob, struct.calcsize("<8s5Q7d"), 1.0, -1.0)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(f"{path}: cylinder circumference must be a positive real")):
            load_checkpoint(path)

    def test_truncated_body_rejected(self, tmp_path):
        params = make_random_model(seed=1)
        path = tmp_path / "t.ckpt"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_rejected(self, tmp_path, value):
        path = tmp_path / "bad.ckpt"
        for name, _ in TABLES:
            params = make_random_model(seed=4)
            getattr(params, name).flat[-1] = value
            save_checkpoint(params, path)
            with pytest.raises(ValueError, match=re.escape(f"{path}: {name} contains non-finite values")):
                load_checkpoint(path)

    def test_load_peaks_near_the_file_size(self, tmp_path):
        # Each table is read straight from the file into its array: no copy
        # of the file's bytes, and checking that the tables are finite adds
        # no table-sized temporary.
        path = tmp_path / "big.ckpt"
        save_checkpoint(make_random_model(n_entities=2000, n_x=50, seed=2), path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * path.stat().st_size

    def test_save_writes_the_tables_without_copying_them(self, tmp_path):
        # Only the relation records are assembled in memory; the entity
        # tables go to the file as they are.
        path = tmp_path / "big.ckpt"
        params = make_random_model(n_entities=2000, n_x=50, seed=2)
        tracemalloc.start()
        try:
            save_checkpoint(params, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * path.stat().st_size

    @pytest.mark.parametrize("cut", [3, 8])
    def test_cut_body_names_its_size(self, tmp_path, cut):
        params = make_random_model(seed=1)
        path = tmp_path / "t.ckpt"
        save_checkpoint(params, path)
        expected = sum(getattr(params, name).size for name, _ in TABLES)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"body holds {expected - 1} values, expected {expected}"):
            load_checkpoint(path)
