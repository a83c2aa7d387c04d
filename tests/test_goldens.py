"""The closed-form CLI outputs match the benchmark's golden files byte for byte.

The commands and golden files are those of ``perfbench/workloads.py``; the
goldens are only read here, never written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from wskg.cli import main


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

GOLDEN_COMMANDS = {
    "solve-fixed.json": ["solve-fixed"],
    "solve-strategic.json": ["solve-strategic"],
    **{
        f"sweep-{variable}.csv": workloads.sweep_argv(variable, lo, hi)
        for variable, lo, hi in workloads.SWEEPS
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_cli_output_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert main([*GOLDEN_COMMANDS[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (workloads.GOLDEN / name).read_bytes()
