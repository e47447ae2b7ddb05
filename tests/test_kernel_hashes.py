"""Bit parity of every kernel output against the committed hashes.

`scripts/kernel_hashes.py` hashes scores, screens, ranks, gradients, losses,
optimizer steps and checkpoint bytes over 48 configurations.  Its output is
committed as `tests/data/kernel_hashes.json`, with every environment the
hashes depend on in which they were recomputed and matched; here they are
recomputed and must match wherever the environment is one of those.  The
number of threads the row-block loops use is not part of an environment:
the hashes are recomputed as they run by default, then forced to 3 threads
with every loop shared out, whatever its width, the ranking screen's
per-query decisions included, and each must match.  The script's rows are
narrower than `model._SHARED_WIDTH` and its graphs smaller than
`evaluation._SHARED_ENTITIES`, so on any host the default pass runs every
loop on the calling thread, as a pass forced to 1 thread would; the test
checks that premise first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from pseudoe import evaluation, model

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("kernel_hashes", ROOT / "scripts" / "kernel_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_outputs_keep_every_bit(monkeypatch):
    committed = json.loads((ROOT / "tests" / "data" / "kernel_hashes.json").read_text(encoding="utf-8"))
    script = _script()
    current = script.environment()
    if current not in committed["environments"]:
        differ = [
            ", ".join(f"{k} {v!r} (committed {env.get(k)!r})" for k, v in current.items() if env.get(k) != v)
            for env in committed["environments"]
        ]
        pytest.skip("hashes committed for other environments: " + "; ".join(differ))
    # The widest row of any table is a coordinate row, n_t + n_x values wide.
    widest = max(n_t for _, n_t in script.VARIANTS) + script.N_X
    inline = widest < model._SHARED_WIDTH and script.N_ENTITIES < evaluation._SHARED_ENTITIES
    assert inline, "the default pass no longer runs on one thread: add a pass forced to (1, 1, 1)"
    default = (model._WORKERS, model._SHARED_WIDTH, evaluation._SHARED_ENTITIES)
    for workers, width, entities in (default, (3, 1, 1)):
        monkeypatch.setattr(model, "_WORKERS", workers)
        monkeypatch.setattr(model, "_SHARED_WIDTH", width)
        monkeypatch.setattr(evaluation, "_SHARED_ENTITIES", entities)
        hashes = script.hashes()
        moved = [
            f"{config} {output}"
            for config, row in committed["hashes"].items()
            for output, digest in row.items()
            if hashes.get(config, {}).get(output) != digest
        ]
        assert hashes == committed["hashes"], f"{len(moved)} hashes moved at {workers} threads: {', '.join(moved[:10])}"
