"""Write the golden outputs of the closed-form ``game-cli`` commands.

Run from the repository root: ``python3 perfbench/make_goldens.py``. The
goldens pin the CLI's exact bytes, so regenerate them only for a change that
alters those outputs on purpose, and say so in the change.
"""

import os
import subprocess
import sys
from pathlib import Path

from workloads import GOLDEN, SWEEPS, sweep_argv

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = {"solve-fixed.json": ["solve-fixed"], "solve-strategic.json": ["solve-strategic"]}
    for variable, lo, hi in SWEEPS:
        commands[f"sweep-{variable}.csv"] = sweep_argv(variable, lo, hi)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in commands.items():
        out = subprocess.run([sys.executable, "-m", "wskg.cli", *argv], env=env,
                             cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
        (GOLDEN / name).write_bytes(out)
        print(f"wrote golden/{name} ({len(out)} bytes)")


if __name__ == "__main__":
    main()
