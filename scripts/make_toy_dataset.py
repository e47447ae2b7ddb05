#!/usr/bin/env python3
"""Write a small synthetic dataset in the standard three-file layout.

Handy for trying the CLI end to end:

    python scripts/make_toy_dataset.py --out toy_data --negatives 20
    pseudoe train --data toy_data --out toy_run --set max_epochs 50 --set n_x 15
    pseudoe evaluate --checkpoint toy_run/model.ckpt --data toy_data --per-relation
    pseudoe evaluate --checkpoint toy_run/model.ckpt --data toy_data --protocol fixed \\
        --negatives toy_data/negatives.tsv

With ``--negatives N`` it also writes ``negatives.tsv``: N candidate tails for
every (head, relation) pair of the valid and test splits, drawn with the
``--seed`` from the entities that form no known triple with that pair.
"""

import argparse
from pathlib import Path

import numpy as np

from pseudoe.synthetic import tree_clique_graph


def negatives_lines(triples, n: int, seed: int) -> list[str]:
    """One ``head<TAB>relation<TAB>neg1,...`` line per (head, relation) pair
    of the valid and test splits, in sorted order."""
    rng = np.random.default_rng(seed)
    entities = sorted({e for h, _, t in triples["train"] + triples["valid"] + triples["test"] for e in (h, t)})
    known: dict[tuple[str, str], set[str]] = {}
    for rows in triples.values():
        for h, r, t in rows:
            known.setdefault((h, r), set()).add(t)
    lines = []
    for h, r in sorted({(h, r) for name in ("valid", "test") for h, r, _ in triples[name]}):
        pool = [e for e in entities if e not in known[(h, r)]]
        if len(pool) < n:
            raise SystemExit(f"({h}, {r}) has {len(pool)} non-tails, fewer than --negatives {n}")
        lines.append(f"{h}\t{r}\t" + ",".join(rng.choice(pool, size=n, replace=False)))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="toy_data")
    parser.add_argument("--nodes", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--negatives", type=int, default=0, help="fixed negatives per query pair (0: none)")
    args = parser.parse_args()

    _, train, valid = tree_clique_graph(n_nodes=args.nodes, clique_size=5, seed=args.seed)
    triples = {"train": train, "valid": valid, "test": valid}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in triples.items():
        (out / f"{name}.txt").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")
    print(f"wrote {len(train)} train / {len(valid)} valid / {len(valid)} test triples to {out}/")
    if args.negatives > 0:
        lines = negatives_lines(triples, args.negatives, args.seed)
        (out / "negatives.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.negatives} negatives for each of {len(lines)} (head, relation) pairs to {out}/negatives.tsv")


if __name__ == "__main__":
    main()
