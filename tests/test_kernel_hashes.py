"""Bit parity of every kernel output against the committed hashes.

`scripts/kernel_hashes.py` hashes scores, screens, ranks, gradients, losses,
optimizer steps and checkpoint bytes over 48 configurations.  Its output is
committed as `tests/data/kernel_hashes.json`; here it is recomputed and must
match wherever the environment the hashes depend on is the same.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("kernel_hashes", ROOT / "scripts" / "kernel_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_outputs_keep_every_bit():
    committed = json.loads((ROOT / "tests" / "data" / "kernel_hashes.json").read_text(encoding="utf-8"))
    script = _script()
    differ = [
        f"{key} {value!r}, committed {committed['environment'].get(key)!r}"
        for key, value in script.environment().items()
        if committed["environment"].get(key) != value
    ]
    if differ:
        pytest.skip("hashes committed for another environment: " + "; ".join(differ))
    hashes = script.hashes()
    moved = [
        f"{config} {output}"
        for config, row in committed["hashes"].items()
        for output, digest in row.items()
        if hashes.get(config, {}).get(output) != digest
    ]
    assert hashes == committed["hashes"], f"{len(moved)} hashes moved: {', '.join(moved[:10])}"
