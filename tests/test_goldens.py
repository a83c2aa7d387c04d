"""The closed-form CLI outputs match the benchmark's golden files byte for byte.

The commands and golden files are those of ``perfbench/workloads.py``; the
goldens are only read here, never written.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wskg
from wskg.cli import main

from conftest import BLOCK_NUMPY


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


#: Runs the CLI once per ``[output path, *argv]`` of the JSON list in its
#: first argument, with every import of numpy failing, and fails if any
#: import asked for numpy.
_WITHOUT_NUMPY = BLOCK_NUMPY + """
import json, sys
from wskg.cli import main

for output, *argv in json.loads(sys.argv[1]):
    assert main([*argv, "--output", output]) == 0, argv
assert not BLOCKED, BLOCKED
"""


def test_closed_form_goldens_without_numpy(tmp_path):
    runs = [[str(tmp_path / name), *argv] for name, argv in sorted(GOLDEN_COMMANDS.items())]
    # A sweep from -0 prints the sweep from 0's bytes; its grid needs no numpy sort.
    runs.append([str(tmp_path / "sweep-gamma-from-minus-0.csv"), *workloads.sweep_argv("gamma", "-0", "8")])
    env = {**os.environ, "PYTHONPATH": str(Path(wskg.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in GOLDEN_COMMANDS:
        assert (tmp_path / name).read_bytes() == (workloads.GOLDEN / name).read_bytes(), name
    from_minus_0 = (tmp_path / "sweep-gamma-from-minus-0.csv").read_bytes()
    assert from_minus_0 == (workloads.GOLDEN / "sweep-gamma.csv").read_bytes()
