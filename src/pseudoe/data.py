"""Triple ingestion, vocabulary management and reversed-triple augmentation.

Datasets are three tab-separated files (train.txt, valid.txt, test.txt) of
``head<TAB>relation<TAB>tail`` lines; a line with an empty or blank column is
refused.  Ids are assigned densely by first appearance scanning train, then
valid, then test, head before tail; the filter index is the de-duplicated
union of all splits, held as a `FilterIndex` of sorted integer codes.  Fixed
negative candidate lists (one line per (head, relation) pair, negatives
comma-separated) support the fixed-negatives evaluation protocol.  This
module alone turns names into ids and adds reversed triples: relation k's
inverse is k + n_relations, named ``inv:<name>``.  Its `_check_ids` is the
one rule for ids, run once where each input enters the program.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ParseError",
    "FilterIndex",
    "TripleStore",
    "NegativesTable",
    "load_triples",
    "build_store",
    "load_negatives",
    "load_dataset",
    "augment_reverse",
    "augmented_store",
]

logger = logging.getLogger(__name__)

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}


class ParseError(ValueError):
    """A malformed dataset file, with the offending location in the message."""


def _check_ids(sizes, heads, rels, tails) -> None:
    """The one id rule: raise TypeError unless every head, relation and tail
    id is an integer, and IndexError unless it is in range.

    ``sizes`` is anything with ``n_entities`` and ``n_relations``, a model or
    a `FilterIndex`.  A float or bool id would be truncated to an integer by
    the casts that follow, so ids of any other dtype are refused before any
    cast, by their dtype alone; an empty array holds no id to truncate.
    """
    n, n_r = sizes.n_entities, sizes.n_relations
    for side, ids, size in (("head", heads, n), ("relation", rels, n_r), ("tail", tails, n)):
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu" and ids.size:
            raise TypeError(f"{side} ids must be integers, got dtype {ids.dtype}")
        bad = ids[(ids < 0) | (ids >= size)].tolist()
        if bad:
            raise IndexError(f"{side} id out of range [0, {size}): {bad[:5]}")


def _check_triple_ids(sizes, *triples) -> None:
    """`_check_ids` on every id of every (..., 3) triple array."""
    for rows in triples:
        rows = np.asarray(rows).reshape(-1, 3)
        _check_ids(sizes, rows[:, 0], rows[:, 1], rows[:, 2])


class FilterIndex:
    """Read-only set of known (head, relation, tail) triples.

    Each triple is stored once as the int64 code ``(h * n_relations + k) *
    n_entities + t`` in one sorted array, so the true tails of a (head,
    relation) key form one contiguous run found by two binary searches.
    It answers membership (``triple in index``), iterates the triples in
    code order and has a length.  The rows obey the id rule (`_check_ids`),
    checked before the cast to int64 would truncate them, and `tails` takes
    its ids through ``operator.index``, so a float is refused there too.
    """

    def __init__(self, rows, n_entities: int, n_relations: int) -> None:
        self.n_entities, self.n_relations = int(n_entities), int(n_relations)
        rows = np.asarray(rows).reshape(-1, 3)
        _check_triple_ids(self, rows)  # before the cast below would truncate
        h, k, t = rows.astype(np.int64, copy=False).T
        self.codes = np.unique(self.encode(h, k, t))

    def encode(self, heads, rels, tails) -> np.ndarray:
        """Codes of in-range id arrays; the sort order is (head, relation, tail)."""
        return (np.asarray(heads, dtype=np.int64) * self.n_relations + rels) * self.n_entities + tails

    def tails(self, head: int, rel: int) -> np.ndarray:
        """Sorted tail ids t with (head, rel, t) in the index; none for ids outside it."""
        head, rel = operator.index(head), operator.index(rel)
        if not (0 <= head < self.n_entities and 0 <= rel < self.n_relations):
            return self.codes[:0]
        base = (head * self.n_relations + rel) * self.n_entities
        lo, hi = np.searchsorted(self.codes, (base, base + self.n_entities))
        return self.codes[lo:hi] - base

    def __contains__(self, triple) -> bool:
        try:
            h, k, t = (operator.index(v) for v in triple)
        except (TypeError, ValueError):
            return False
        if not (0 <= h < self.n_entities and 0 <= k < self.n_relations and 0 <= t < self.n_entities):
            return False
        code = (h * self.n_relations + k) * self.n_entities + t
        i = int(np.searchsorted(self.codes, code))
        return i < self.codes.size and int(self.codes[i]) == code

    def __iter__(self):
        key, t = np.divmod(self.codes, self.n_entities)
        h, k = np.divmod(key, self.n_relations)
        return zip(h.tolist(), k.tolist(), t.tolist())

    def __len__(self) -> int:
        return int(self.codes.size)


@dataclass
class TripleStore:
    """Integer-encoded triples with bidirectional vocabularies and a filter index."""

    entity_to_id: dict[str, int]
    relation_to_id: dict[str, int]
    splits: dict[str, np.ndarray]
    filter_index: FilterIndex

    def __post_init__(self) -> None:
        self.id_to_entity = {i: name for name, i in self.entity_to_id.items()}
        self.id_to_relation = {i: name for name, i in self.relation_to_id.items()}

    @property
    def n_entities(self) -> int:
        return len(self.entity_to_id)

    @property
    def n_relations(self) -> int:
        return len(self.relation_to_id)

    def decode(self, triple) -> tuple[str, str, str]:
        h, k, t = (int(v) for v in triple)
        return self.id_to_entity[h], self.id_to_relation[k], self.id_to_entity[t]

    def entity_degrees(self) -> np.ndarray:
        """In-degree plus out-degree per entity, over the training split."""
        train = self.splits["train"]
        return np.bincount(np.concatenate([train[:, 0], train[:, 2]]), minlength=self.n_entities)

    @property
    def entities_not_in_train(self) -> list[int]:
        """Ascending ids of the entities in no training triple."""
        return np.flatnonzero(self.entity_degrees() == 0).tolist()

    @property
    def relations_not_in_train(self) -> list[int]:
        """Ascending ids of the relations of no training triple."""
        counts = np.bincount(self.splits["train"][:, 1], minlength=self.n_relations)
        return np.flatnonzero(counts == 0).tolist()

    def summary(self) -> dict:
        return {
            "entities": self.n_entities,
            "relations": self.n_relations,
            "train": int(self.splits["train"].shape[0]),
            "valid": int(self.splits["valid"].shape[0]),
            "test": int(self.splits["test"].shape[0]),
            "entities_not_in_train": len(self.entities_not_in_train),
            "relations_not_in_train": len(self.relations_not_in_train),
        }


@dataclass
class NegativesTable:
    """Fixed negative candidates per (head, relation) pair; all lists equal length."""

    table: dict[tuple[int, int], np.ndarray]
    length: int


def _read_rows(path):
    """(line number, three columns) of each line of a tab-separated file;
    empty lines are skipped, and an empty column or one with leading or
    trailing whitespace is refused."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated columns, got {len(parts)}")
            for column, part in enumerate(parts, start=1):
                if not part.strip():
                    raise ParseError(f"{path}:{lineno}: column {column} is empty")
                if part != part.strip():
                    # 'r' and 'r ' would otherwise be two relations
                    raise ParseError(f"{path}:{lineno}: column {column} has surrounding whitespace: {part!r}")
            yield lineno, parts


def load_triples(path) -> list[tuple[str, str, str]]:
    """Read head<TAB>relation<TAB>tail lines; empty lines are skipped."""
    return [tuple(parts) for _, parts in _read_rows(path)]


def build_store(train, valid, test) -> TripleStore:
    """Encode string triples into a TripleStore.

    Vocabulary ids follow first appearance over train, then valid, then test,
    head before tail.  Duplicate training triples are kept (they weight the
    loss) but the filter index holds each triple once.
    """
    entity_to_id: dict[str, int] = {}
    relation_to_id: dict[str, int] = {}
    entity, relation = entity_to_id.setdefault, relation_to_id.setdefault

    def encode(rows) -> np.ndarray:
        ids = [
            (entity(h, len(entity_to_id)), relation(k, len(relation_to_id)), entity(t, len(entity_to_id)))
            for h, k, t in rows
        ]
        return np.array(ids, dtype=np.int64).reshape(-1, 3)

    splits = {"train": encode(train)}
    in_train = len(entity_to_id), len(relation_to_id)
    splits["valid"], splits["test"] = encode(valid), encode(test)
    unseen = len(entity_to_id) - in_train[0], len(relation_to_id) - in_train[1]
    if any(unseen):
        logger.warning("%d entities and %d relations first appear outside the training split", *unseen)
    filter_index = FilterIndex(np.concatenate(list(splits.values())), len(entity_to_id), len(relation_to_id))
    return TripleStore(entity_to_id, relation_to_id, splits, filter_index)


def load_dataset(directory) -> TripleStore:
    """Build a store from train.txt/valid.txt/test.txt inside ``directory``."""
    directory = Path(directory)
    loaded = {name: load_triples(directory / fname) for name, fname in SPLIT_FILES.items()}
    return build_store(loaded["train"], loaded["valid"], loaded["test"])


def load_negatives(path, store: TripleStore) -> NegativesTable:
    """Read fixed negatives: head<TAB>relation<TAB>neg1,neg2,... per line.

    All names must resolve against the store, all lists must have the same
    length and each (head, relation) pair may have one line.  A negative that
    happens to be a true tail elsewhere is kept, with a warning; the data
    passes through as given.
    """
    path = Path(path)
    table: dict[tuple[int, int], np.ndarray] = {}
    first_line: dict[tuple[int, int], int] = {}
    length: int | None = None
    for lineno, (head, rel, negs) in _read_rows(path):
        try:
            h = store.entity_to_id[head]
            k = store.relation_to_id[rel]
            ids = [store.entity_to_id[n] for n in negs.split(",")]
        except KeyError as e:
            raise ParseError(f"{path}:{lineno}: unresolvable name {e.args[0]!r}") from None
        if length is None:
            length = len(ids)
        elif len(ids) != length:
            raise ParseError(
                f"{path}:{lineno}: ragged negative list ({len(ids)} entries, expected {length})"
            )
        if (h, k) in first_line:
            raise ParseError(
                f"{path}:{lineno}: second negative list for head {head!r}, relation {rel!r} "
                f"(first on line {first_line[(h, k)]})"
            )
        first_line[(h, k)] = lineno
        table[(h, k)] = np.asarray(ids, dtype=np.int64)
    index = store.filter_index
    codes = [index.encode(h, k, ids) for (h, k), ids in table.items()]
    true_hits = int(np.isin(np.concatenate(codes), index.codes).sum()) if codes else 0
    if true_hits:
        logger.warning("%d fixed negatives are themselves true triples; kept as given", true_hits)
    return NegativesTable(table=table, length=length or 0)


def augment_reverse(triples: np.ndarray, n_relations: int) -> np.ndarray:
    """Append (tail, k + n_relations, head) for every (head, k, tail); output doubles."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    reversed_ = np.column_stack([triples[:, 2], triples[:, 1] + n_relations, triples[:, 0]])
    return np.concatenate([triples, reversed_], axis=0)


def augmented_store(store: TripleStore) -> TripleStore:
    """Store with reversed triples appended to every split under fresh inverse relations.

    Every relation k gains an inverse k + n_relations named ``inv:<name>``;
    each (h, k, t) in any split gains (t, inv k, h) in the same split, so the
    inverse of a relation missing from the training split is missing too.
    """
    n_r = store.n_relations
    relation_to_id = dict(store.relation_to_id)
    for name, k in store.relation_to_id.items():
        inv = f"inv:{name}"
        if inv in relation_to_id:
            raise ValueError(f"relation name collision for {inv!r}")
        relation_to_id[inv] = k + n_r
    splits = {name: augment_reverse(rows, n_r) for name, rows in store.splits.items()}
    filter_index = FilterIndex(np.concatenate(list(splits.values())), store.n_entities, 2 * n_r)
    return TripleStore(dict(store.entity_to_id), relation_to_id, splits, filter_index)
