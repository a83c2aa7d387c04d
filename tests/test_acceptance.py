"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and against its stated sample
sizes; the runtime budgets are asserted alongside the numerical checks.
"""

import math
import time

import numpy as np

from wskg import (
    PowerAllocation,
    RngSeed,
    SystemParams,
    critical_power,
    leakage_after_randomization,
    leakage_bound,
    oracle_jammer_br,
    oracle_stackelberg,
    rate_array,
    stackelberg_fixed,
    sum_rate,
    sweep,
    verify_randomization,
)
from wskg.injection import coincidence_precoder
from wskg.metrics import _rows

SEED = RngSeed(20250811)


def reference_params(p_max=5.0):
    return SystemParams(10, p_max, 4.0, 2.0, 1.0, 1.0)


class _Criterion:
    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.budget
        status = "PASS" if (ok and in_budget) else "FAIL"
        print(
            f"criterion {self.number} [{self.name}]: {status} "
            f"({elapsed:.2f}s of {self.budget:.0f}s budget)"
        )
        assert ok, f"criterion {self.number} [{self.name}] failed its checks"
        assert in_budget, (
            f"criterion {self.number} [{self.name}] exceeded its "
            f"{self.budget:.0f}s budget ({elapsed:.2f}s)"
        )


def test_criterion_1_critical_power_identity():
    crit = _Criterion(1, "critical-power identity", 1.0)
    ok = critical_power(reference_params()) == 10.0
    unjammed = float(rate_array(2.0, 0.0, 1.0, 1.0))
    ok &= abs(float(rate_array(10.0, 4.0, 1.0, 1.0)) - unjammed) <= 1e-9
    ok &= abs(unjammed - math.log2(1.8)) <= 1e-9
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p_th = rng.uniform(0.05, 5.0)
        gamma = rng.uniform(0.0, 8.0)
        s2 = rng.uniform(0.1, 3.0)
        j2 = rng.uniform(0.1, 3.0)
        lhs = float(rate_array(p_th * (j2 * gamma + 1.0), gamma, s2, j2))
        rhs = float(rate_array(p_th, 0.0, s2, j2))
        ok &= abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
    crit.finish(ok)


def test_criterion_2_uniform_jamming_dominates():
    crit = _Criterion(2, "uniform-jamming dominance", 5.0)
    params = reference_params()
    n, total = 10, 10 * 4.0
    rng = SEED.generator()
    spacings = rng.standard_exponential((10_000, n))
    samples = spacings / spacings.sum(axis=1, keepdims=True) * total
    candidates = np.vstack([samples, np.eye(n) * total])
    values = rate_array(5.0, candidates, 1.0, 1.0).sum(axis=1)
    uniform_value = sum_rate(5.0, PowerAllocation.uniform(params), params)
    ok = bool(np.all(uniform_value <= values + 1e-9))
    crit.finish(ok)


def test_criterion_3_equilibrium_matches_grid_oracle():
    crit = _Criterion(3, "equilibrium vs grid oracle", 30.0)
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(200):
        params = SystemParams(
            int(rng.integers(1, 13)),
            float(rng.uniform(0.2, 30.0)),
            float(rng.uniform(0.0, 6.0)),
            float(rng.uniform(0.05, 6.0)),
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        closed = stackelberg_fixed(params).payoff
        _, oracle_value = oracle_stackelberg(params)
        ok &= abs(closed - oracle_value) <= 1e-6 * max(abs(closed), 1e-300)
    crit.finish(ok)


def test_criterion_4_randomized_source_gaussianity():
    crit = _Criterion(4, "randomized-source Gaussianity", 10.0)
    params = SystemParams(10, 2.0, 4.0, 2.0, 1.0, 1.0)
    report = verify_randomization(params, 1_000_000, SEED)
    ok = report.ks_product.p_value > 0.001
    ok &= report.ks_source.p_value > 0.001
    ok &= 1.98 <= report.source_real_var <= 2.02
    crit.finish(ok)


def test_criterion_5_injection_attack_correctness():
    crit = _Criterion(5, "injection-attack correctness", 10.0)
    rng = np.random.default_rng(505)
    params = SystemParams(10, 2.0, 4.0, 2.0, 1.0, 1.0)
    scale = math.sqrt(params.jam_channel_var / 4.0)  # entry variance jam_channel_var / 2
    gains = rng.normal(0.0, scale, (8, 110_000))
    h_a1, h_a2, h_b1, h_b2 = gains[0::2] + 1j * gains[1::2]
    # Every draw, as the attack uses each one.
    ratio, norm = coincidence_precoder(h_a2, h_b2, h_a1 - h_b1)
    p1, p2 = ratio / norm, 1.0 / norm
    at_alice = h_a1 * p1 + h_a2 * p2
    at_bob = h_b1 * p1 + h_b2 * p2
    ok = np.max(np.abs(at_alice - at_bob) / np.abs(at_alice)) <= 1e-10
    ok &= np.max(np.abs(np.abs(p1) ** 2 + np.abs(p2) ** 2 - 1.0)) <= 1e-12
    # The attack's drive amplitude, 2 sqrt(jam_power_budget).
    injected = 2.0 * math.sqrt(params.jam_power_budget) * at_alice
    nominal = params.jam_channel_var * params.jam_power_budget
    ok &= abs(np.var(injected) - nominal) <= 0.02 * nominal
    crit.finish(bool(ok))


def test_criterion_6_leakage_collapse():
    crit = _Criterion(6, "leakage collapse under randomization", 20.0)
    params = SystemParams(10, 2.0, 4.0, 2.0, 1.0, 1.0)
    static = leakage_bound(params, 1_000_000, SEED)
    randomized = leakage_after_randomization(params, 1_000_000, SEED)
    ok = static > 0.1
    ok &= randomized < 0.01
    crit.finish(ok)


def test_criterion_7_deviation_loss_profile():
    crit = _Criterion(7, "85% deviation loss profile", 1.0)
    rows = sweep(reference_params(), "p_max", 2.0001, 20.0, 200)
    worst = max(max(row.f, row.d) for row in rows)
    ok = abs(worst - 0.8551) <= 0.01
    # the worst loss is reached at the left edge, just above the threshold
    ok &= max(rows[0].f, rows[0].d) == worst
    zero_rows = [row for row in rows if max(row.f, row.d) <= 1e-9]
    ok &= len(zero_rows) >= 1
    ok &= all(abs(row.swept_value - 10.0) <= 0.01 * 10.0 for row in zero_rows)
    crit.finish(ok)


def strategic_gain(params):
    """Column ``e`` of the one-row sweep at ``params``."""
    return _rows(params, "max_pilot_power", [params.max_pilot_power])[0].e


def test_criterion_8_strategic_jammer_dominance():
    crit = _Criterion(8, "strategic-jammer dominance", 5.0)
    spot = strategic_gain(reference_params(5.0))
    ok = abs(spot - 0.51057) <= 1e-4
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 500:
        params = SystemParams(
            int(rng.integers(1, 13)),
            float(rng.uniform(0.1, 30.0)),
            float(rng.uniform(0.1, 6.0)),
            float(rng.uniform(0.05, 5.0)),
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        knee = critical_power(params)
        if abs(params.max_pilot_power - knee) <= 1e-9 * knee:
            continue
        gain = strategic_gain(params)
        ok &= gain >= -1e-12
        if params.max_pilot_power >= knee:
            ok &= gain == 0.0
        else:
            ok &= gain > 0.0
        checked += 1
    crit.finish(ok)


def test_criterion_9_rate_kernel_shape():
    crit = _Criterion(9, "rate-kernel monotonicity and convexity", 1.0)
    rng = np.random.default_rng(909)
    n = 10_000
    s2 = rng.uniform(0.2, 3.0, n)
    j2 = rng.uniform(0.2, 3.0, n)
    p_lo, p_hi = np.sort(rng.uniform(0.0, 30.0, (2, n)), axis=0)
    g_lo, g_hi = np.sort(rng.uniform(0.0, 10.0, (2, n)), axis=0)
    p = rng.uniform(1e-6, 30.0, n)
    gamma = rng.uniform(0.0, 10.0, n)
    ok = bool(
        np.all(
            rate_array(p_lo, gamma, s2, j2) <= rate_array(p_hi, gamma, s2, j2) + 1e-12
        )
    )
    ok &= bool(
        np.all(rate_array(p, g_lo, s2, j2) >= rate_array(p, g_hi, s2, j2) - 1e-12)
    )
    mid = rate_array(p, (g_lo + g_hi) / 2.0, s2, j2)
    avg = (rate_array(p, g_lo, s2, j2) + rate_array(p, g_hi, s2, j2)) / 2.0
    ok &= bool(np.all(mid <= avg + 1e-12))
    crit.finish(ok)


def test_criterion_10_reactive_jammer_never_beats_proactive():
    # A proactive jammer cannot sense the pilot, so it plays its best
    # allocation against the full budget p_max. The oracle never beats
    # uniform jamming there, and the reactive (fixed-threshold) equilibrium
    # payoff is never below it: in this model the reactive jammer never hurts
    # the legitimate pair more than a proactive one.
    crit = _Criterion(10, "reactive jammer never beats proactive", 10.0)
    rng = np.random.default_rng(1010)
    ok = True
    for i in range(50):
        params = SystemParams(
            int(rng.integers(1, 13)),
            float(rng.uniform(0.2, 30.0)),
            float(rng.uniform(0.0, 6.0)),
            float(rng.uniform(0.05, 6.0)),
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 3.0)),
        )
        proactive = params.n_subcarriers * float(
            rate_array(params.max_pilot_power, params.jam_power_budget,
                       params.legit_channel_var, params.jam_channel_var)
        )
        _, oracle_value = oracle_jammer_br(params, 2000, SEED.with_stream(i))
        tol = 1e-12 * proactive
        ok &= proactive <= oracle_value + tol
        ok &= stackelberg_fixed(params).payoff >= proactive - tol
    crit.finish(ok)
