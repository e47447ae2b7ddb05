import dataclasses
import importlib
import pkgutil

import pseudoe

# Names the library no longer defines: the reference semantics of the score
# live in tests/reference.py, negatives are sampled per batch, evaluation
# runs on one thread, dt has one time map, the backward pass forms its
# own inputs from the one score body, the checkpoint commands share one
# loader, and one triple is ranked as a one-row split.
REMOVED = {
    "SpacetimePoint", "wrap_time", "squared_interval", "wick_squared_distance", "wick_rotate_metric",
    "ProjectedPoint", "RelationParams", "time_project", "translate_head", "scale_tail", "transform_pair",
    "log_fd", "log_tfd", "log_interpolated", "logit_from_log", "sample_negatives",
    "_threads_from_env", "_check_counts", "_tail_dt", "_relation_map", "ForwardCache", "_store_for_params",
    "filtered_rank",
}


def test_train_config_holds_no_augmentation():
    # Augmentation is a property of the store trained on (TripleStore.augmented),
    # and so is the corruption mode it implies.
    from pseudoe.training import TrainConfig

    assert "augment_reverse" not in {f.name for f in dataclasses.fields(TrainConfig)}
    assert not hasattr(TrainConfig(), "negative_mode")


def test_public_names_resolve_and_removed_names_stay_gone():
    submodules = [importlib.import_module(f"pseudoe.{m.name}") for m in pkgutil.iter_modules(pseudoe.__path__)]
    for module in [pseudoe, *submodules]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ lists undefined names {missing}"
        left = sorted(REMOVED & set(vars(module)))
        assert left == [], f"{module.__name__} still defines {left}"
