"""Command-line entry point.

Subcommands: train, evaluate, rank, sweep-beta, stats.  Runs are driven by a
flat key = value configuration assembled from defaults, an optional preset,
an optional config file and explicit flags, in that order (flags win).  The
resolved configuration is frozen next to every training run so it can be
replayed verbatim.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import logging
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation, training
from .data import load_dataset, load_negatives, augmented_store
from .evaluation import EvalMode, EvalProtocol
from .geometry import GeometryConfig, Signature
from .likelihood import TfdParams, sigmoid
from .model import InitConfig, load_checkpoint, save_checkpoint, scale_node_bias, score_tails
from .presets import PRESETS
from .relmaps import Variant, check_time_dimensions
from .training import TrainConfig

__all__ = ["RunConfig", "resolve_config", "main"]

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """One flat document of every run setting; unknown keys are rejected."""

    variant: str = "dt"
    n_t: int = 1
    n_x: int = 32
    circumference: float | None = None
    swap_transforms: bool = False
    tau1: float = 0.5
    tau2: float = 0.5
    u: float = 0.1
    alpha: float = 0.5
    alpha_prime: float = 1.0
    beta: float = 0.0
    sigma_init: float = 0.02
    seed: int = 0
    optimizer: str = "adam"
    learning_rate: float = 0.001
    batch_size: int = 128
    m_negatives: int = 10
    max_epochs: int = 100
    eval_every: int = 5
    patience: int = 10
    augment_reverse: bool = False
    protocol: str = "full"
    negatives: str | None = None
    data: str = "."
    out: str = "run"


# Each key's type, read from the annotations above: the parser of its value.
_TYPES = typing.get_type_hints(RunConfig)
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, raw):
    if key not in _TYPES:
        raise ValueError(f"unknown configuration key {key!r}")
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    kind = _TYPES[key]
    if type(None) in typing.get_args(kind):  # X | None
        if raw.lower() == "none":
            return None
        (kind,) = (arg for arg in typing.get_args(kind) if arg is not type(None))
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def _read_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, raw = line.partition("=")
            try:
                if not eq:
                    raise ValueError("expected 'key = value'")
                values[key.strip()] = _parse_value(key.strip(), raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(preset: str | None = None, config_file=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then preset, then config file, then explicit overrides."""
    values = dataclasses.asdict(RunConfig())
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
        values.update(PRESETS[preset])
    if config_file is not None:
        values.update(_read_config_file(config_file))
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw)
    return RunConfig(**values)


def write_resolved(config: RunConfig, path) -> None:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name} = {'none' if value is None else value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _from_config(cls, config: RunConfig):
    """An instance of dataclass ``cls`` whose every field is the `RunConfig` key of its name."""
    return cls(**{f.name: getattr(config, f.name) for f in dataclasses.fields(cls)})


def _run_settings(config: RunConfig):
    """The training, likelihood, geometry and init settings and the variant of
    ``config``; building them checks every key before any data loads."""
    variant = Variant(config.variant)
    check_time_dimensions(variant, config.n_t)
    return (
        _from_config(TrainConfig, config),
        _from_config(TfdParams, config),
        GeometryConfig(Signature(config.n_t, config.n_x), config.circumference),
        InitConfig(sigma_init=config.sigma_init, seed=config.seed),
        variant,
    )


def _protocol(kind: str, negatives: str | None, store, augmented: bool, split: str) -> EvalProtocol:
    """The evaluation protocol ``kind`` over ``store``, which holds reversed
    triples when ``augmented``, for ranking its split ``split``: the rules of
    every command.  A negatives file belongs to the fixed protocol and must
    cover every (head, relation) pair of that split, checked before any work."""
    if kind == "full":
        if negatives is not None:
            raise ValueError(f"negatives file {negatives} given, but protocol 'full' ranks every entity")
        return EvalProtocol()
    if kind != "fixed":
        raise ValueError(f"unknown protocol {kind!r} (expected 'full' or 'fixed')")
    evaluation._refuse_augmented(EvalMode.FIXED_NEGATIVES, augmented)
    if negatives is None:
        raise ValueError("fixed-negatives protocol requires a negatives file")
    table = load_negatives(negatives, store)
    pairs = np.unique(store.splits[split][:, :2], axis=0).tolist()
    missing = [(h, k) for h, k in pairs if (h, k) not in table.table]
    if missing:
        named = [f"({store.id_to_entity[h]}, {store.id_to_relation[k]})" for h, k in missing[:5]]
        more = ", ..." if len(missing) > 5 else ""
        raise ValueError(
            f"{negatives} has no negatives for {len(missing)} of the {split} split's "
            f"{len(pairs)} (head, relation) pairs: {', '.join(named)}{more}"
        )
    return EvalProtocol(mode=EvalMode.FIXED_NEGATIVES, negatives=table)


def _load_model(checkpoint, data, gamma_b: float = 1.0):
    """The checkpoint's model with its node biases scaled by ``gamma_b``, the
    dataset it scores, augmented when the model has twice the dataset's
    relations, and whether it is."""
    params = load_checkpoint(checkpoint)
    store = load_dataset(data)
    if params.n_entities != store.n_entities:
        raise ValueError(
            f"checkpoint has {params.n_entities} entities but the dataset has {store.n_entities}"
        )
    augmented = params.n_relations == 2 * store.n_relations
    if augmented:
        store = augmented_store(store)
    elif params.n_relations != store.n_relations:
        raise ValueError(
            f"checkpoint has {params.n_relations} relations but the dataset has {store.n_relations}"
        )
    if gamma_b != 1.0:
        params = scale_node_bias(params, gamma_b)
    return params, store, augmented


def cmd_train(args) -> int:
    config = resolve_config(args.preset, args.config, _collect_overrides(args))
    train_cfg, tfd, geometry, init_cfg, variant = _run_settings(config)
    store = load_dataset(config.data)
    params, log = training.train(
        store,
        train_cfg,
        geometry,
        tfd,
        variant,
        init_cfg=init_cfg,
        protocol=_protocol(config.protocol, config.negatives, store, config.augment_reverse, "valid"),
        swap_transforms=config.swap_transforms,
    )
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, out / "model.ckpt")
    training.write_log_csv(log, out / "log.csv")
    write_resolved(config, out / "config.resolved")
    best = max((row.val_mrr for row in log if row.val_mrr is not None), default=float("nan"))
    print(f"trained {config.max_epochs}-epoch budget, best val MRR {best:.4f}; outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    params, store, augmented = _load_model(args.checkpoint, args.data, args.gamma_b)
    protocol = _protocol(args.protocol, args.negatives, store, augmented, args.split)
    report = evaluation.evaluate_split(params, store.splits[args.split], store.filter_index, protocol)
    text = evaluation.format_report(report, store.id_to_relation.get, per_relation=args.per_relation)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text + "\n", encoding="utf-8")
        evaluation.write_report_csv(report, out / "report.csv", store.id_to_relation.get)
    return 0


def _resolve_name(name: str, vocab: dict, what: str) -> int:
    if name in vocab:
        return vocab[name]
    near = difflib.get_close_matches(name, vocab.keys(), n=5, cutoff=0.4)
    hint = f"; closest: {', '.join(near)}" if near else ""
    raise ValueError(f"unknown {what} {name!r}{hint}")


def cmd_rank(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    params, store, _ = _load_model(args.checkpoint, args.data, args.gamma_b)
    head = _resolve_name(args.head, store.entity_to_id, "entity")
    rel = _resolve_name(args.relation, store.relation_to_id, "relation")
    scores = score_tails(params, head, rel, np.arange(params.n_entities))
    degrees = store.entity_degrees()
    top = np.argsort(-scores, kind="stable")[: min(args.top, params.n_entities)]
    print(f"{'tail':<32s} {'score':>10s} {'probability':>12s} {'degree':>7s} known")
    for t in top:
        known = (head, rel, int(t)) in store.filter_index
        print(
            f"{store.id_to_entity[int(t)]:<32s} {scores[t]:>10.4f} {float(sigmoid(scores[t])):>12.6f} "
            f"{degrees[t]:>7d} {'yes' if known else 'no'}"
        )
    return 0


def _beta(raw: str) -> float:
    """One item of ``--betas``, named when it is not a number."""
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"--betas: expected float, got {raw!r}") from None


def cmd_sweep_beta(args) -> int:
    config = resolve_config(args.preset, args.config, _collect_overrides(args))
    train_cfg, tfd, geometry, init_cfg, variant = _run_settings(config)
    if args.repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {args.repeats}")
    if args.checkpoint:
        if args.repeats > 1:
            raise ValueError("--repeats applies only to retraining; a checkpoint is rescored once per beta")
        params, store, augmented = _load_model(args.checkpoint, config.data)
        tfd = params.tfd  # the model's own likelihood settings; only beta changes
    else:
        data = load_dataset(config.data)
        augmented = config.augment_reverse
        store = augmented_store(data) if augmented else data
    tfds = [dataclasses.replace(tfd, beta=_beta(b)) for b in args.betas.split(",")]
    protocol = _protocol(config.protocol, config.negatives, store, augmented, "valid")

    def models(tfd):
        """The checkpoint rescored under ``tfd``, or ``--repeats`` models trained under it."""
        if args.checkpoint:
            yield dataclasses.replace(params, tfd=tfd)
            return
        for seed in range(config.seed, config.seed + args.repeats):
            trained, _ = training.train(
                data,
                dataclasses.replace(train_cfg, seed=seed),
                geometry,
                tfd,
                variant,
                init_cfg=dataclasses.replace(init_cfg, seed=seed),
                protocol=protocol,
                swap_transforms=config.swap_transforms,
            )
            yield trained

    points = ((t.beta, models(t)) for t in tfds)
    rows = evaluation.beta_sweep(points, store.splits["valid"], store.filter_index, protocol)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    evaluation.write_sweep_csv(rows, out / "sweep.csv", store.id_to_relation.get)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_stats(args) -> int:
    store = load_dataset(args.data)
    for key, value in store.summary().items():
        print(f"{key:<24s} {value}")
    return 0


def _collect_overrides(args) -> dict:
    overrides = dict(args.set or [])
    for key in ("data", "out", "seed"):
        if getattr(args, key, None) is not None:
            overrides[key] = getattr(args, key)
    return overrides


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="named hyperparameter preset")
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument(
        "--set",
        nargs=2,
        action="append",
        metavar=("KEY", "VALUE"),
        help="override any configuration key (repeatable)",
    )
    p.add_argument("--data", help="dataset directory (train.txt/valid.txt/test.txt)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pseudoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoint, log and resolved config")
    _add_run_arguments(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank a split and report MRR/hits@k")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--protocol", choices=("full", "fixed"), default="full")
    p.add_argument("--negatives", help="fixed negatives file (protocol 'fixed')")
    p.add_argument("--gamma-b", type=float, default=1.0, help="scale node biases before scoring")
    p.add_argument("--per-relation", action="store_true", help="include the per-relation breakdown")
    p.add_argument("--out", help="also write report.txt and report.csv here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="top-K tail predictions for a head and relation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--gamma-b", type=float, default=1.0)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("sweep-beta", help="per-relation MRR as the mixing weight varies")
    _add_run_arguments(p)
    p.add_argument("--betas", required=True, help="comma-separated values in [0, 1]")
    p.add_argument("--checkpoint", help="rescore this model instead of retraining per point")
    p.add_argument("--repeats", type=int, default=1, help="models trained per beta point (retraining only)")
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("stats", help="dataset counts")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
