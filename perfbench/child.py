"""Traced CLI child: ``python3 perfbench/child.py SPANS_PATH <wskg args...>``.

Installs the span wrappers, runs ``wskg.cli.main`` on the remaining
arguments, writes the recorded spans as JSON to SPANS_PATH and exits with the
command's status. ``wskg`` is found through ``PYTHONPATH``.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import wskg.cli

    try:
        status = wskg.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
