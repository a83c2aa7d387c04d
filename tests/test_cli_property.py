"""A property test over the argv of every command.

Whatever the flags, ``main`` exits 0, 1, 2 or 3 without a traceback or a
warning; a failed run prints nothing to stdout, and a run that exits 0 or 3
prints a parseable artifact whose every number is finite. Values come from
an edge set and from small valid ranges, capped so that no example allocates
much or starts a worker process: at most 50 sweep steps, 64 subcarriers,
1e4 trials and 4 workers.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wskg.cli import main
from wskg.metrics import CSV_HEADER

from test_cli import EXPECTED_FLAGS

_EDGE_FLOATS = ("0", "-0.0", "5e-324", "1e-300", "1", "1e308", "inf", "nan", "-1")


def _floats(lo, hi):
    return st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(lo, hi).map(repr))


def _ints(edges, lo, hi):
    return st.one_of(st.sampled_from(edges), st.integers(lo, hi)).map(str)


_VALUES = {
    "--n": _ints((0, -1, 1, 64), 1, 16),
    "--p-max": _floats(0.0, 20.0),
    "--gamma": _floats(0.0, 10.0),
    "--p-th": _floats(0.0, 10.0),
    "--sigma2": _floats(0.01, 5.0),
    "--sigmaj2": _floats(0.01, 5.0),
    "--seed": _ints((0, -1, 2**64), 0, 1000),
    "--stream": _ints((0, -1, 2**64), 0, 100),
    "--trials": _ints((-1, 0, 1, 2, 10_000), 2, 10_000),
    "--workers": _ints((-1, 0, 1, 4), 1, 4),
    "--format": st.sampled_from(("csv", "json")),
    "--variable": st.sampled_from(("p_max", "gamma", "sigma2", "p_th")),
    "--lo": _floats(0.0, 5.0),
    "--hi": _floats(5.0, 20.0),
    "--steps": _ints((-1, 0, 1, 2, 50), 2, 50),
}

#: Flags every example passes: without them argparse exits 1 at once.
_REQUIRED = {"--seed", "--variable", "--lo", "--hi", "--steps"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(EXPECTED_FLAGS)))
    argv = [command]
    for flag in sorted(EXPECTED_FLAGS[command] - {"--output"}):
        if flag in _REQUIRED or draw(st.booleans()):
            argv += [flag, draw(_VALUES[flag])]
    return argv


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [number for item in value for number in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_argv_exits_cleanly(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code in (1, 2):
        assert out == "", argv
        return
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        header, *lines = out.splitlines()
        assert header == CSV_HEADER
        numbers = [float(cell) for line in lines for cell in line.split(",")]
    else:
        numbers = _numbers(json.loads(out))
    assert all(math.isfinite(number) for number in numbers), argv
