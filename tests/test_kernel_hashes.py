"""Bit parity of every kernel output against the committed hashes.

`scripts/kernel_hashes.py` hashes scores, screens, ranks, gradients, losses,
optimizer steps and checkpoint bytes over 48 configurations.  Its output is
committed as `tests/data/kernel_hashes.json`; here it is recomputed and must
match wherever the environment the hashes depend on is the same.  The number
of threads the row-block loops use is not part of that environment: the
hashes are recomputed as they run by default, then forced to 1 thread and to
3 threads with every loop shared out, whatever its width, and each must
match.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from pseudoe import model

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("kernel_hashes", ROOT / "scripts" / "kernel_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_outputs_keep_every_bit(monkeypatch):
    committed = json.loads((ROOT / "tests" / "data" / "kernel_hashes.json").read_text(encoding="utf-8"))
    script = _script()
    differ = [
        f"{key} {value!r}, committed {committed['environment'].get(key)!r}"
        for key, value in script.environment().items()
        if committed["environment"].get(key) != value
    ]
    if differ:
        pytest.skip("hashes committed for another environment: " + "; ".join(differ))
    for workers, width in ((model._WORKERS, model._SHARED_WIDTH), (1, 1), (3, 1)):
        monkeypatch.setattr(model, "_WORKERS", workers)
        monkeypatch.setattr(model, "_SHARED_WIDTH", width)
        hashes = script.hashes()
        moved = [
            f"{config} {output}"
            for config, row in committed["hashes"].items()
            for output, digest in row.items()
            if hashes.get(config, {}).get(output) != digest
        ]
        assert hashes == committed["hashes"], f"{len(moved)} hashes moved at {workers} threads: {', '.join(moved[:10])}"
