import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from conftest import make_random_model
from pseudoe import evaluation, model, training
from pseudoe.data import (
    FilterIndex,
    NegativesTable,
    ParseError,
    augment_reverse,
    augmented_store,
    build_store,
    load_dataset,
    load_negatives,
    load_triples,
)
from pseudoe.evaluation import EvalMode, EvalProtocol, evaluate_split
from pseudoe.geometry import GeometryConfig, Signature
from pseudoe.likelihood import TfdParams
from pseudoe.model import InitConfig, score_many, score_tails
from pseudoe.relmaps import Variant
from pseudoe.training import TrainConfig, gradients, nll_loss, train


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTriples:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\n")
        assert load_triples(p) == [("a", "r", "b")]

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "t.txt", "")
        assert load_triples(p) == []

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\n\nc\tr\td\n")
        assert len(load_triples(p)) == 2

    def test_arity_error_names_line(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\n")
        with pytest.raises(ParseError, match=":1"):
            load_triples(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_triples(tmp_path / "absent.txt")

    def test_empty_column_names_line_and_column(self, tmp_path):
        for line, column in (("b\t\tc", 2), ("\tr\tc", 1), ("b\tr\t", 3), ("b\t \tc", 2)):
            p = write(tmp_path / "t.txt", f"a\tr\tb\n{line}\n")
            with pytest.raises(ParseError, match=f"t.txt:2: column {column} is empty"):
                load_triples(p)

    def test_surrounding_whitespace_names_line_and_column(self, tmp_path):
        # 'r ' is not silently a second relation beside 'r'
        for line, column in (("b\tr \tc", 2), (" b\tr\tc", 1), ("b\tr\tc ", 3), ("b\t\u00a0r\tc", 2)):
            p = write(tmp_path / "t.txt", f"a\tr\tb\n{line}\n")
            with pytest.raises(ParseError, match=f"t.txt:2: column {column} has surrounding whitespace"):
                load_triples(p)


_ENTITY = st.sampled_from(["a", "b", "c", "d", "e"])
_RELATION = st.sampled_from(["r", "s", "t"])


class TestBuildStore:
    def test_first_appearance_ids(self):
        store = build_store(
            [("a", "r1", "b"), ("b", "r2", "c")], [("a", "r1", "c")], [("d", "r1", "a")]
        )
        assert store.entity_to_id == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert store.relation_to_id == {"r1": 0, "r2": 1}
        assert store.entities_not_in_train == [3]
        assert store.relations_not_in_train == []

    @given(st.lists(st.lists(st.tuples(_ENTITY, _RELATION, _ENTITY), max_size=8), min_size=3, max_size=3))
    def test_ids_follow_first_appearance(self, rows):
        # Names from small alphabets recur; some first appear in valid or
        # test, and some splits are empty.
        entities, relations, late_entities, late_relations = {}, {}, [], []
        for i, split in enumerate(rows):
            for h, k, t in split:
                names = ((h, entities, late_entities), (k, relations, late_relations), (t, entities, late_entities))
                for name, vocab, late in names:
                    if name not in vocab:
                        vocab[name] = len(vocab)
                        if i > 0:
                            late.append(vocab[name])
        store = build_store(*rows)
        assert store.entity_to_id == entities and store.relation_to_id == relations
        for name, split in zip(("train", "valid", "test"), rows):
            want = [(entities[h], relations[k], entities[t]) for h, k, t in split]
            assert store.splits[name].tolist() == [list(row) for row in want]
        assert store.entities_not_in_train == late_entities
        assert store.relations_not_in_train == late_relations
        n_r = store.n_relations
        aug = augmented_store(store)
        assert aug.entities_not_in_train == store.entities_not_in_train
        assert aug.relations_not_in_train == store.relations_not_in_train + [k + n_r for k in store.relations_not_in_train]

    def test_deterministic(self):
        triples = [("x", "r", "y"), ("y", "r", "z")]
        a = build_store(triples, [], [])
        b = build_store(triples, [], [])
        assert a.entity_to_id == b.entity_to_id
        assert a.relation_to_id == b.relation_to_id

    def test_duplicates_kept_in_train_once_in_filter(self):
        store = build_store([("a", "r", "b"), ("a", "r", "b")], [], [])
        assert store.splits["train"].shape[0] == 2
        assert len(store.filter_index) == 1

    def test_decode_roundtrip(self):
        store = build_store([("alpha", "rel", "beta")], [], [])
        assert store.decode(store.splits["train"][0]) == ("alpha", "rel", "beta")

    def test_filter_index_matches_linear_scan(self):
        rows = [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a"), ("a", "r", "b")]
        base = build_store(rows, [("a", "r", "c")], [("b", "s", "a"), ("d", "s", "a")])
        for store in (base, augmented_store(base)):
            everything = np.concatenate(list(store.splits.values()))
            scan = {tuple(map(int, row)) for row in everything}
            index = store.filter_index
            assert set(index) == scan
            assert len(index) == len(scan)
            n, n_r = store.n_entities, store.n_relations
            for h in range(n):
                for k in range(n_r):
                    want = sorted(t for hh, kk, t in scan if (hh, kk) == (h, k))
                    np.testing.assert_array_equal(index.tails(h, k), want)
                    for t in range(n):
                        assert ((h, k, t) in index) == ((h, k, t) in scan)
            assert (n, 0, 0) not in index and (0, -1, 0) not in index and "abc" not in index
            for h, k in ((0, n_r), (0, -1), (n, 0), (-1, 0)):
                assert index.tails(h, k).size == 0

    def test_filter_index_rejects_rows_outside_vocabulary(self):
        FilterIndex(np.array([[2, 1, 2]]), n_entities=3, n_relations=2)
        for row, side, size in (
            ([3, 0, 0], "head", 3), ([0, 2, 0], "relation", 2), ([0, 0, 3], "tail", 3),
            ([-1, 0, 0], "head", 3), ([0, -1, 0], "relation", 2), ([0, 0, -1], "tail", 3),
        ):
            bad = max(row, key=abs)
            with pytest.raises(IndexError, match=rf"^{side} id out of range \[0, {size}\): \[{bad}\]$"):
                FilterIndex(np.array([row]), n_entities=3, n_relations=2)

    def test_filter_index_refuses_non_integer_triples(self):
        # Cast first, (0, 0, 1.7) would be held as (0, 0, 1).
        refused = (([(0, 0, 1.7)], "float64"), (np.array([[0, 0, 1.0]]), "float64"), ([[True] * 3], "bool"))
        for rows, dtype in refused:
            with pytest.raises(TypeError, match=f"^head ids must be integers, got dtype {dtype}$"):
                FilterIndex(rows, n_entities=3, n_relations=1)
        assert len(FilterIndex([], n_entities=3, n_relations=1)) == 0
        assert list(FilterIndex(np.array([[0, 0, 1]], dtype=np.uint8), n_entities=3, n_relations=1)) == [(0, 0, 1)]

    def test_degrees(self):
        store = build_store([("a", "r", "b"), ("a", "r", "c"), ("b", "r", "a")], [], [])
        deg = store.entity_degrees()
        assert deg[store.entity_to_id["a"]] == 3
        assert deg[store.entity_to_id["b"]] == 2
        assert deg[store.entity_to_id["c"]] == 1


class TestLoadDataset:
    def test_reads_three_splits(self, tmp_path):
        write(tmp_path / "train.txt", "a\tr\tb\nb\tr\tc\n")
        write(tmp_path / "valid.txt", "a\tr\tc\n")
        write(tmp_path / "test.txt", "c\tr\ta\n")
        store = load_dataset(tmp_path)
        assert store.summary()["train"] == 2
        assert store.summary()["valid"] == 1
        assert store.summary()["test"] == 1


class TestLoadNegatives:
    @pytest.fixture
    def store(self):
        return build_store(
            [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")], [("a", "r", "d")], []
        )

    def test_basic(self, tmp_path, store):
        p = write(tmp_path / "n.tsv", "a\tr\t" + ",".join(["b"] * 80) + "\n")
        table = load_negatives(p, store)
        assert len(table.table) == 1
        assert table.length == 80

    def test_true_triple_negative_accepted_with_warning(self, tmp_path, store, caplog):
        p = write(tmp_path / "n.tsv", "a\tr\tb,c\n")  # (a, r, b) is a true triple
        with caplog.at_level("WARNING"):
            table = load_negatives(p, store)
        assert table.length == 2
        assert any("true triples" in rec.message for rec in caplog.records)

    def test_empty_file_empty_table(self, tmp_path, store):
        p = write(tmp_path / "n.tsv", "")
        table = load_negatives(p, store)
        assert table.table == {}

    def test_unresolvable_name(self, tmp_path, store):
        p = write(tmp_path / "n.tsv", "a\tr\tnope\n")
        with pytest.raises(ParseError, match="nope"):
            load_negatives(p, store)

    def test_ragged_lengths(self, tmp_path, store):
        p = write(tmp_path / "n.tsv", "a\tr\tb,c\nb\tr\tc\n")
        with pytest.raises(ParseError, match="ragged"):
            load_negatives(p, store)

    def test_second_list_for_a_pair_rejected(self, tmp_path, store):
        p = write(tmp_path / "n.tsv", "a\tr\tb,c\nb\tr\tc,d\na\tr\tc,d\n")
        with pytest.raises(ParseError, match=r":3: .*'a', relation 'r' \(first on line 1\)"):
            load_negatives(p, store)

    def test_empty_column_names_line_and_column(self, tmp_path, store):
        p = write(tmp_path / "n.tsv", "a\tr\tb,c\nb\t\tc,d\n")
        with pytest.raises(ParseError, match="n.tsv:2: column 2 is empty"):
            load_negatives(p, store)

    def test_surrounding_whitespace_names_line_and_column(self, tmp_path, store):
        p = write(tmp_path / "n.tsv", "a\tr\tb,c\nb\tr\tc,d \n")
        with pytest.raises(ParseError, match=r"n.tsv:2: column 3 has surrounding whitespace: 'c,d '"):
            load_negatives(p, store)


class TestAugmentReverse:
    def test_empty(self):
        out = augment_reverse(np.empty((0, 3), dtype=np.int64), 5)
        assert out.shape == (0, 3)

    def test_single(self):
        out = augment_reverse(np.array([[0, 0, 1]]), 1)
        np.testing.assert_array_equal(out, [[0, 0, 1], [1, 1, 0]])

    def test_doubles_size(self, rng):
        triples = rng.integers(0, 10, size=(57, 3))
        out = augment_reverse(triples, 10)
        assert out.shape == (114, 3)
        np.testing.assert_array_equal(out[:57], triples)
        np.testing.assert_array_equal(out[57:, 0], triples[:, 2])
        np.testing.assert_array_equal(out[57:, 1], triples[:, 1] + 10)
        np.testing.assert_array_equal(out[57:, 2], triples[:, 0])


class TestAugmentedStore:
    def test_doubles_relations_and_triples(self):
        store = build_store([("a", "r", "b"), ("b", "s", "c")], [("a", "s", "c")], [])
        aug = augmented_store(store)
        assert aug.n_relations == 4
        assert aug.splits["train"].shape[0] == 4
        assert aug.splits["valid"].shape[0] == 2
        inv = aug.relation_to_id["inv:r"]
        assert inv == store.relation_to_id["r"] + 2
        forward = tuple(store.splits["train"][0])
        assert (forward[2], inv, forward[0]) in aug.filter_index

    def test_inverse_of_relation_missing_from_train_is_missing(self):
        store = build_store([("a", "r", "b")], [("b", "s", "c")], [("c", "t", "a")])
        assert store.relations_not_in_train == [1, 2]
        aug = augmented_store(store)
        assert sorted(aug.relations_not_in_train) == [1, 2, 4, 5]
        assert aug.relation_to_id["inv:s"] == 4 and aug.relation_to_id["inv:t"] == 5
        assert aug.summary()["relations_not_in_train"] == 4


def _triples(ids):
    """One (0, 0, id) triple per id, of the ids' own dtype."""
    zeros = np.zeros_like(ids)
    return np.column_stack([zeros, zeros, ids])


def _fixed(pairs, ids):
    """The fixed-negatives protocol that stores ``ids`` for every pair."""
    return EvalProtocol(EvalMode.FIXED_NEGATIVES, NegativesTable({pair: ids for pair in pairs}, ids.size))


def _train(protocol, valid=(("a", "r", "c"),)):
    """Train on six entities a to f (ids 0 to 5, one relation), ranking the
    validation split ``valid`` under ``protocol``."""
    names = "abcdef"
    store = build_store([(h, "r", t) for h, t in zip(names, names[1:])], list(valid), [])
    config = TrainConfig(m_negatives=2, batch_size=4, max_epochs=2, eval_every=2)
    geometry, tfd = GeometryConfig(Signature(1, 3)), TfdParams(0.5, 0.5, 0.5, 0.2, 1.0)
    train(store, config, geometry, tfd, Variant.DT, InitConfig(0.1, 0), protocol=protocol)


# Every entry point of ids from outside the program, each given a bad tail id
# (in an array of the bad id's dtype) on a vocabulary of six entities.
ID_ENTRY_POINTS = {
    "score_many": lambda params, ids: score_many(params, [0], [0], ids),
    "score_tails": lambda params, ids: score_tails(params, 0, 0, ids),
    "nll_loss": lambda params, ids: nll_loss(params, [[0, 0, 1]], _triples(ids)[None]),
    "gradients": lambda params, ids: gradients(params, [[0, 0, 1]], _triples(ids)[None]),
    "evaluate_split split": lambda params, ids: evaluate_split(params, _triples(ids), set()),
    "evaluate_split filter set": lambda params, ids: evaluate_split(params, [[0, 0, 1]], set(map(tuple, _triples(ids)))),
    "evaluate_split stored negatives": lambda params, ids: evaluate_split(params, [[0, 0, 1]], set(), _fixed([(0, 0)], ids)),
    "FilterIndex": lambda params, ids: FilterIndex(_triples(ids), params.n_entities, params.n_relations),
    "train stored negatives": lambda params, ids: _train(_fixed([(0, 0)], ids)),
}

BAD_IDS = {
    "float": (np.array([1.7]), TypeError, r"ids must be integers, got dtype float64$"),
    "bool": (np.array([True]), TypeError, r"ids must be integers, got dtype bool$"),
    "-1": (np.array([-1]), IndexError, r"^tail id out of range \[0, 6\): \[-1\]$"),
    "N": (np.array([6]), IndexError, r"^tail id out of range \[0, 6\): \[6\]$"),
}


class TestIdRule:
    """One rule for every id that comes from outside: an integer, refused by
    dtype before any cast, and in range; checked where it enters, before any
    scoring."""

    @pytest.fixture
    def no_scoring(self, monkeypatch):
        def scored(*args):
            raise AssertionError("scored before the ids were checked")

        for module, name in (
            (model, "_forward"),
            (model, "_score_ragged"),
            (evaluation, "_score_ragged"),
            (training, "_forward"),
            (training, "_loss_and_gradients"),
        ):
            monkeypatch.setattr(module, name, scored)

    @pytest.mark.parametrize("bad", BAD_IDS)
    @pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
    def test_bad_id_refused_before_any_scoring(self, entry, bad, no_scoring):
        ids, error, message = BAD_IDS[bad]
        params = make_random_model()  # 6 entities, 3 relations
        with pytest.raises(error, match=message):
            ID_ENTRY_POINTS[entry](params, ids)

    def test_bool_list_among_integer_lists_refused(self, no_scoring):
        # Stacked with an integer list, a bool list would become int64 and
        # rank against entities 1 and 0.
        table = {(0, 0): np.array([2, 3]), (1, 0): np.array([True, False])}
        protocol = EvalProtocol(EvalMode.FIXED_NEGATIVES, NegativesTable(table, 2))
        message = r"^tail ids must be integers, got dtype bool$"
        with pytest.raises(TypeError, match=message):
            evaluate_split(make_random_model(), [[0, 0, 1], [1, 0, 2]], set(), protocol)
        with pytest.raises(TypeError, match=message):
            _train(protocol, valid=[("a", "r", "c"), ("b", "r", "d")])

    @staticmethod
    def _mixed_table(last, dtype=np.uint64):
        table = {(0, 0): np.array([2, 3]), (1, 0): np.array([last, 1], dtype=dtype)}
        return EvalProtocol(EvalMode.FIXED_NEGATIVES, NegativesTable(table, 2))

    def test_uint_list_among_int64_lists_ranks_as_int64(self):
        # Stacked as they come, int64 and uint64 promote to float64, which the
        # id rule refuses although every id is valid.
        split = [[0, 0, 1], [1, 0, 2]]
        mixed = evaluate_split(make_random_model(), split, set(), self._mixed_table(4))
        plain = evaluate_split(make_random_model(), split, set(), self._mixed_table(4, np.int64))
        assert mixed.per_triple_ranks == plain.per_triple_ranks

    @pytest.mark.parametrize("bad", [6, 2**63])
    def test_uint_id_out_of_range_named_by_its_value(self, bad, no_scoring):
        # Cast to int64 first, 2**63 would wrap to -2**63.
        with pytest.raises(IndexError, match=rf"^tail id out of range \[0, 6\): \[{bad}\]$"):
            evaluate_split(make_random_model(), [[0, 0, 1], [1, 0, 2]], set(), self._mixed_table(bad))

    def test_filter_index_tails_takes_ids_through_operator_index(self):
        # int(1.7) would return head 1's tails.  Python's own bool is an int
        # to operator.index, as it is to `in`; numpy's is not.
        index = FilterIndex([[1, 0, 2]], n_entities=6, n_relations=3)
        for bad in (1.7, np.float64(1.0), np.True_):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                index.tails(bad, 0)
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                index.tails(1, bad)
        np.testing.assert_array_equal(index.tails(np.int32(1), np.uint8(0)), [2])
