import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wskg import (
    NumericalError,
    ParameterError,
    PowerAllocation,
    SystemParams,
    ZeroEquilibriumPayoff,
    critical_power,
    stackelberg_fixed,
    stackelberg_strategic,
    sum_rate,
    sweep,
)
from wskg import game
from wskg.cli import main
from wskg.metrics import _knee_value, _rows

from conftest import params_with


def row_at(params):
    """The one-row sweep at ``params``: payoffs and the metrics f, d, e."""
    return _rows(params, "max_pilot_power", [params.max_pilot_power])[0]


def test_full_power_loss_reference_values():
    assert row_at(params_with(2.5)).f == pytest.approx(
        0.79961, abs=1e-4
    )
    assert row_at(params_with(2.0 + 1e-9)).f == pytest.approx(
        0.8551, abs=1e-3
    )
    # above the knee the equilibrium already uses full power
    assert row_at(params_with(20.0)).f == 0.0


def test_threshold_loss_reference_values():
    assert row_at(params_with(5.0)).d == 0.0
    assert row_at(params_with(20.0)).d == pytest.approx(
        0.42467, abs=1e-4
    )
    assert abs(row_at(params_with(10.0)).d) <= 1e-12


def test_threshold_loss_caps_deviation_at_budget():
    # the sensing threshold exceeds the leader budget: the only playable
    # deviation is the budget itself, which is the equilibrium
    assert row_at(params_with(1.5, p_th=2.0)).d == 0.0


def test_strategic_gain_reference_values():
    assert row_at(params_with(5.0)).e == pytest.approx(
        0.51057, abs=1e-4
    )
    assert row_at(params_with(20.0)).e == 0.0
    assert row_at(params_with(5.0, gamma=0.0)).e == 0.0


def test_strategic_gain_is_full_power_loss():
    # A jammer that picks its own threshold senses every positive pilot, so
    # the leader's best reply is full power under uniform jamming: the
    # strategic gain is the full-power deviation loss.
    rng = np.random.default_rng(44)
    for i in range(600):
        gamma = 0.0 if i % 5 == 0 else float(rng.uniform(0.0, 6.0))
        p_th = float(rng.uniform(0.05, 6.0))
        params = SystemParams(
            int(rng.integers(1, 13)),
            p_th * float(rng.uniform(0.1, 1.0)) if i % 5 == 1 else float(rng.uniform(0.05, 30.0)),
            gamma,
            p_th,
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        if i % 5 == 2:
            params = params_with(
                critical_power(params), gamma, p_th, params.legit_channel_var,
                params.jam_channel_var, params.n_subcarriers,
            )
        row = row_at(params)
        f = row.f
        assert row.e == f
        c_se = stackelberg_fixed(params).payoff
        # Round-off below 0 at the knee is emitted as 0 in the row.
        assert max((c_se - stackelberg_strategic(params).payoff) / c_se, 0.0) == f


@pytest.mark.parametrize("variable", ["p_max", "gamma", "sigma2", "p_th"])
def test_sweep_rows_match_pointwise_sum_rates(ref_params, variable):
    field = {"p_max": "max_pilot_power", "gamma": "jam_power_budget",
             "sigma2": "legit_channel_var", "p_th": "sense_threshold"}[variable]
    rows = sweep(ref_params, variable, 0.1, 8.0, 40)
    for row in rows:
        point = SystemParams(**{**ref_params._asdict(), field: row.swept_value})
        p_max = point.max_pilot_power
        assert row.c_full == sum_rate(p_max, PowerAllocation.uniform(point), point)
        deviation = min(point.sense_threshold, p_max)
        assert row.c_threshold == sum_rate(deviation, PowerAllocation.silent(point), point)
        assert row.c_se == stackelberg_fixed(point).payoff
        assert row.f == (row.c_se - row.c_full) / row.c_se
        assert row.e == row.f


# The other out-of-domain sweeps are EXIT_CONTRACT rows in cli_contract.py.
@pytest.mark.parametrize(
    "variable, lo, message",
    [
        # A ZeroEquilibriumPayoff exits 1 through its base, ParameterError.
        ("p_max", "0", "equilibrium payoff is zero; relative metrics are undefined"),
    ],
)
def test_sweep_rejects_out_of_domain_swept_values(capsys, variable, lo, message):
    code = main(["sweep", "--variable", variable, "--lo", lo, "--hi", "5", "--steps", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_metrics_require_positive_equilibrium_payoff():
    with pytest.raises(ZeroEquilibriumPayoff):
        row_at(params_with(0.0))
    with pytest.raises(ZeroEquilibriumPayoff):
        sweep(params_with(0.0), "gamma", 0.0, 1.0, 2)


def test_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(42)
    for _ in range(300):
        params = SystemParams(
            int(rng.integers(1, 13)),
            float(rng.uniform(0.2, 30.0)),
            float(rng.uniform(0.05, 6.0)),
            float(rng.uniform(0.05, 6.0)),
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        row = row_at(params)
        for value in (row.f, row.d, row.e):
            assert -1e-12 <= value <= 1.0


def test_exactly_one_deviation_loss_vanishes_off_knee():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 200:
        params = SystemParams(
            int(rng.integers(1, 13)),
            float(rng.uniform(0.2, 30.0)),
            float(rng.uniform(0.1, 6.0)),
            float(rng.uniform(0.05, 6.0)),
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        knee = critical_power(params)
        if abs(params.max_pilot_power - knee) < 0.01 * max(knee, 1.0):
            continue
        row = row_at(params)
        f, d = row.f, row.d
        assert (f <= 1e-12) != (d <= 1e-12)
        checked += 1


def test_knee_round_off_is_emitted_as_zero(capsys):
    # At the injected knee the two tied payoffs differ in their last bit, so
    # (c_se - c_full) / c_se is -1.54e-16: inside the metric floor, emitted as 0.
    params = SystemParams(7, 19.22, 1.48, 1.08, 0.92, 3.22)
    knee = sweep(params, "p_max", 0.1, 20.0, 2)[1]
    assert knee.swept_value == critical_power(params)
    assert -1e-15 < (knee.c_se - knee.c_full) / knee.c_se < 0.0
    assert (knee.f, knee.d, knee.e) == (0.0, 0.0, 0.0)
    code = main([
        "sweep", "--n", "7", "--p-max", "19.22", "--gamma", "1.48", "--p-th", "1.08",
        "--sigma2", "0.92", "--sigmaj2", "3.22", "--variable", "p_max", "--lo", "0.1",
        "--hi", "20", "--steps", "2", "--format", "csv",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "6.226848,2.88370679991,2.88370679991,2.88370679991,0,0,0"
    )


def test_sweep_over_leader_budget_shows_knee(ref_params):
    rows = sweep(ref_params, "p_max", 2.0001, 20.0, 100)
    values = [row.swept_value for row in rows]
    assert 10.0 in values  # knee injected
    assert len(rows) == 101
    knee_index = values.index(10.0)
    below = rows[:knee_index]
    above = rows[knee_index + 1 :]
    # loss from full-power deviation shrinks toward the knee, then vanishes
    assert all(a.f >= b.f - 1e-12 for a, b in zip(below, below[1:]))
    assert all(row.d == 0.0 for row in below)
    assert all(row.f == 0.0 for row in above)
    assert all(a.d <= b.d + 1e-12 for a, b in zip(above, above[1:]))
    knee_row = rows[knee_index]
    assert max(abs(knee_row.f), abs(knee_row.d)) <= 1e-9


def test_sweep_over_jam_budget_gain_is_monotone(ref_params):
    rows = sweep(ref_params, "gamma", 0.0, 8.0, 50)
    gains = [row.e for row in rows]
    assert gains[0] == 0.0
    assert gains[-1] > 0.0
    assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))
    # the knee in the jam budget is injected: P = p_th * (1 + g * j2) at g = 1.5
    assert any(row.swept_value == pytest.approx(1.5, abs=1e-12) for row in rows)


@pytest.mark.parametrize("variable", ["gamma", "p_th"])
def test_sweep_from_negative_zero_matches_positive_zero_bits(ref_params, variable):
    # The grid's first point is 0 * step + lo = +0.0 from either zero, so the
    # set that adds the knee never holds both zeros.
    rows = sweep(ref_params, variable, -0.0, 8.0, 1000)
    assert np.array(rows).tobytes() == np.array(sweep(ref_params, variable, 0.0, 8.0, 1000)).tobytes()
    assert not any(math.copysign(1.0, row.swept_value) < 0.0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(
    variable=st.sampled_from(["p_max", "gamma", "p_th"]),
    below=st.floats(0.01, 1.0, exclude_max=True),
    above=st.floats(1.0, 4.0, exclude_min=True),
    steps=st.integers(2, 300),
)
def test_sweep_adds_the_knee_as_np_unique_does(variable, below, above, steps):
    params = params_with(5.0)
    knee = _knee_value(params, variable)
    lo, hi = below * knee, above * knee
    values = [row.swept_value for row in sweep(params, variable, lo, hi, steps)]
    expected = np.unique(np.append(np.linspace(lo, hi, steps), knee))
    assert np.array(values).tobytes() == expected.tobytes()


def test_sweep_knee_on_a_grid_point_appears_once():
    # The knee, 10.0, is the grid's fifth point: 4 * 2.0 + 2.0.
    values = [row.swept_value for row in sweep(params_with(5.0), "p_max", 2.0, 20.0, 10)]
    assert len(values) == 10
    assert values.count(10.0) == 1


@pytest.mark.parametrize("lo", [0.0, -0.0])
def test_sweep_over_leader_budget_from_zero_has_zero_payoff(ref_params, lo):
    with pytest.raises(ZeroEquilibriumPayoff):
        sweep(ref_params, "p_max", lo, 8.0, 1000)


def test_sweep_endpoints_only(ref_params):
    rows = sweep(ref_params, "p_max", 12.0, 20.0, 2)
    assert len(rows) == 2
    assert rows[0].swept_value == 12.0
    assert rows[-1].swept_value == 20.0


def test_sweep_channel_variance_has_no_knee(ref_params):
    rows = sweep(ref_params, "sigma2", 0.5, 3.0, 7)
    assert len(rows) == 7
    # a stronger reciprocal channel only helps the equilibrium payoff
    payoffs = [row.c_se for row in rows]
    assert all(a <= b + 1e-12 for a, b in zip(payoffs, payoffs[1:]))


def test_sweep_validation(ref_params):
    with pytest.raises(ParameterError):
        sweep(ref_params, "bogus", 0.0, 1.0, 10)
    with pytest.raises(ParameterError):
        sweep(ref_params, "p_max", 5.0, 1.0, 10)
    with pytest.raises(ParameterError, match="^steps must be >= 2, got 1$"):
        sweep(ref_params, "p_max", 1.0, 5.0, 1)
    with pytest.raises(ParameterError, match="^steps must be an integer, got 3.5$"):
        sweep(ref_params, "p_max", 2.0, 3.0, 3.5)


def test_sweep_threshold_variable_covers_trivial_branch(ref_params):
    rows = sweep(ref_params, "p_th", 0.5, 8.0, 16)
    for row in rows:
        assert row.f >= -1e-12
        assert row.d >= -1e-12
        if row.swept_value >= ref_params.max_pilot_power:
            assert row.d == 0.0  # deviation capped at the budget

    knee = ref_params.max_pilot_power / (
        ref_params.jam_channel_var * ref_params.jam_power_budget + 1.0
    )
    assert any(row.swept_value == pytest.approx(knee, abs=1e-12) for row in rows)


def test_sweep_max_full_power_loss_near_threshold(ref_params):
    rows = sweep(ref_params, "p_max", 2.0001, 20.0, 200)
    worst = max(max(row.f, row.d) for row in rows)
    assert worst == pytest.approx(0.8551, abs=0.01)


@pytest.mark.parametrize(
    "lo, error, message",
    [
        (0.0, ZeroEquilibriumPayoff, "equilibrium payoff is zero; relative metrics are undefined"),
        (1.0, NumericalError, "equilibrium payoff is not finite: nan"),
    ],
)
def test_sweep_reports_its_first_failing_point(ref_params, lo, error, message):
    # Budgets near 1e308 overflow the rate to nan; a zero budget has zero payoff.
    with pytest.raises(error) as caught:
        sweep(ref_params, "p_max", lo, 1e308, 3)
    assert str(caught.value) == message


def test_non_finite_full_power_payoff_is_named():
    # At a budget of 1e200 the full-power payoff is inf / inf = nan, while the
    # threshold payoff, the equilibrium's below the knee, is finite. The
    # contract row non-finite-full-power-payoff runs the CLI at this point.
    params = params_with(1e200)
    with pytest.raises(NumericalError) as caught:
        sweep(params, "gamma", 6e199, 7e199, 2)
    assert str(caught.value) == "full-power payoff is not finite: nan"


def test_metric_out_of_range_is_a_numerical_failure(capsys, monkeypatch):
    # Full power paying twice the equilibrium puts f at -1, below the slack.
    monkeypatch.setattr("wskg.metrics._fixed_payoffs", lambda *args: (1.0, 2.0, 1.0, True, False))
    code = main(["sweep", "--variable", "gamma", "--lo", "0", "--hi", "8", "--steps", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "numerical failure: metric f out of [0, 1]: -1.0\n")


def test_knife_edge_disagreement_is_reported_before_earlier_failures(capsys, ref_params, monkeypatch):
    # A knife-edge band of 10% puts 9.0 on the edge, where the two tied
    # payoffs differ; every point is solved before the zero payoff at 0 is
    # checked.
    monkeypatch.setattr(game, "BOUNDARY_RTOL", 0.1)
    threshold = sum_rate(2.0, PowerAllocation.silent(ref_params), ref_params)
    full = sum_rate(9.0, PowerAllocation.uniform(ref_params), ref_params)
    message = f"tied equilibria disagree on payoff: {threshold} vs {full}"
    with pytest.raises(NumericalError) as caught:
        sweep(ref_params, "p_max", 0.0, 20.0, 41)
    assert str(caught.value) == message
    code = main(["sweep", "--variable", "p_max", "--lo", "0", "--hi", "20", "--steps", "41"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"numerical failure: {message}\n")
