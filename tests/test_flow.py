from itertools import islice

import numpy as np
import pytest

from hermweb.flow import (
    FlowError,
    FlowState,
    StepRejected,
    _phi_functions,
    flow_state,
    flow_step,
    max_dt,
    run_flow,
)
from hermweb.grid import PeriodicGrid, hessian_from_spectrum
from hermweb.ma import solve_ma2
from hermweb.metric import (
    HermitianMetricField,
    bott_chern_defect,
    chern_ricci,
    identity_metric,
    ricci_potential,
    ricci_tensor,
)

from helpers import bump_metric, rk2_flow


GRID = PeriodicGrid(2, (16, 16, 1, 1))


def default_dt(grid):
    kmax2 = sum((grid.sizes[a] // 2) ** 2 for a in grid.active_axes)
    return 2.0 / (np.pi**2 * kmax2)


def test_flat_metric_is_fixed_point():
    g = identity_metric(GRID)
    state = flow_state(g)
    nxt = flow_step(state, 1e-3)
    assert np.max(np.abs(nxt.g.g - g.g)) < 1e-14
    assert nxt.t == pytest.approx(1e-3)


def test_flow_step_decreases_ricci_on_bump():
    g = bump_metric(GRID)
    state = flow_state(g)
    nxt = flow_step(state, default_dt(GRID))
    assert nxt.ricci_norm < state.ricci_norm


def test_run_flow_monotone_and_converges():
    g = bump_metric(GRID)
    final, history = run_flow(g, tol=1e-6, dt0=default_dt(GRID), max_steps=50_000)
    assert final.ricci_norm <= 1e-6
    norms = [row.ricci_norm for row in history]
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert history[0].dt == 0.0
    assert all(row.dt > 0 for row in history[1:])


def test_flow_limit_matches_ma2_solution():
    g = bump_metric(GRID)
    final, _ = run_flow(g, tol=1e-8, dt0=default_dt(GRID), max_steps=100_000)
    sol = solve_ma2(g, ricci_potential(g))
    assert np.max(np.abs(final.g.g - sol.metric_out.g)) < 1e-4


def test_flow_preserves_bott_chern_class():
    # d/dt [omega] = -[Ric] = 0 in Bott-Chern cohomology on the torus, so the
    # coefficient means of omega are constant along the flow
    g = bump_metric(GRID)
    state = flow_state(g)
    mean0 = state.g.g.mean(axis=tuple(range(4)))
    for _ in range(20):
        state = flow_step(state, default_dt(GRID))
    mean1 = state.g.g.mean(axis=tuple(range(4)))
    assert np.max(np.abs(mean1 - mean0)) < 1e-12


def test_flow_adaptive_recovers_from_big_dt():
    g = bump_metric(GRID)
    final, history = run_flow(g, tol=1e-4, dt0=50.0 * default_dt(GRID), max_steps=50_000)
    assert final.ricci_norm <= 1e-4
    # at least one step ran at less than the requested dt0
    assert min(row.dt for row in history[1:]) < 50.0 * default_dt(GRID)


def test_step_growth_stops_at_max_dt():
    # a tenth of the decay time 1 / pi^2 of the slowest flat mode on the
    # unit torus; no limit without an active axis
    assert max_dt(GRID) == pytest.approx(0.1 / np.pi**2, rel=1e-14)
    assert max_dt(PeriodicGrid(2, (1, 1, 1, 1))) == np.inf
    # bumps of amplitude 1/4 and 1/2 grow through the same steps to the
    # limit and take no rejected step on the way
    g = bump_metric(GRID).g.copy()
    g[..., 0, 0] = 1.0 + 0.5 * (g[..., 0, 0] - 1.0)
    runs = [
        run_flow(g0, tol=1e-4, dt0=default_dt(GRID), max_steps=1000)[1]
        for g0 in (HermitianMetricField(GRID, g), bump_metric(GRID))
    ]
    for history in runs:
        assert max(row.dt for row in history) == max_dt(GRID)
        assert sum(row.rejected for row in history) == 0
    steps = min(len(h) for h in runs)
    assert [row.dt for row in runs[0][:steps]] == [row.dt for row in runs[1][:steps]]


def test_run_flow_rejects_bad_tol():
    with pytest.raises(FlowError):
        run_flow(identity_metric(GRID), tol=0.0, dt0=1e-3, max_steps=10)


def test_run_flow_step_cap():
    g = bump_metric(GRID)
    with pytest.raises(FlowError):
        run_flow(g, tol=1e-12, dt0=default_dt(GRID), max_steps=3)


def test_flow_step_fft_calls_per_attempt(monkeypatch):
    # an accepted attempt transforms log det g twice (predictor and new
    # state) and makes three batched inverse transforms: the predictor's and
    # the new metric's Hessians and the new state's Ricci tensor
    state = flow_state(bump_metric(GRID))
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    flow_step(state, default_dt(GRID))
    assert sorted(calls) == ["fftn", "fftn", "ifftn", "ifftn", "ifftn"]
    calls.clear()
    flow_state(bump_metric(GRID))
    assert sorted(calls) == ["fftn", "ifftn"]


def test_flow_step_computes_ricci_twice(monkeypatch):
    # Ric = -Hess log det g.  k1 comes from the state; the predictor's and
    # the new state's log det g are the two evaluations
    import hermweb.flow

    state = flow_state(bump_metric(GRID))
    calls = []
    logdet = hermweb.flow._logdet_spectrum
    monkeypatch.setattr(hermweb.flow, "_logdet_spectrum", lambda g, grid: calls.append(g) or logdet(g, grid))
    flow_step(state, default_dt(GRID))
    assert len(calls) == 2
    calls.clear()
    final, history = run_flow(bump_metric(GRID), tol=1e-3, dt0=default_dt(GRID), max_steps=1000)
    # an attempt rejected after the step evaluated both; none lost positivity
    assert {row.reason for row in history} <= {"", "step error", "ricci increase"}
    attempts = len(history) - 1 + sum(row.rejected for row in history)
    assert len(calls) == 1 + 2 * attempts


def test_flow_state_carries_its_ricci_tensor():
    g = bump_metric(GRID)
    state = flow_state(g)
    assert np.array_equal(-hessian_from_spectrum(state.potential.logdet_hat, GRID), ricci_tensor(g))
    assert state.ricci_norm == np.max(np.abs(ricci_tensor(g)))
    new = flow_step(state, 1e-3)
    assert np.array_equal(-hessian_from_spectrum(new.potential.logdet_hat, GRID), ricci_tensor(new.g))
    # a bare state restarts the potential at its metric
    bare = FlowState(state.t, state.g, state.ricci_norm)
    assert bare.potential is None
    assert np.array_equal(flow_step(bare, 1e-3).g.g, new.g.g)


def test_phi_functions_against_high_precision():
    # either side of the switch to the Taylor series at |z| = 0.1
    mpmath = pytest.importorskip("mpmath")
    z = -np.concatenate([[0.0], np.logspace(-12, 4, 200), [0.1, np.nextafter(0.1, 1.0)]])
    phi1, phi2 = _phi_functions(z)
    with mpmath.workdps(40):
        for zi, p1, p2 in zip(z, phi1, phi2):
            if zi == 0.0:
                w1, w2 = 1.0, 0.5
            else:
                m = mpmath.mpf(zi)
                w1 = float(mpmath.expm1(m) / m)
                w2 = float((mpmath.expm1(m) - m) / m**2)
            assert p1 == pytest.approx(w1, rel=1e-14)
            assert p2 == pytest.approx(w2, rel=1e-14)


def test_history_records_rejections_and_their_reason(monkeypatch):
    # every attempt is one flow_step call, so the rejected counts add up
    import hermweb.flow

    calls = []
    monkeypatch.setattr(hermweb.flow, "flow_step", lambda s, dt: calls.append(dt) or flow_step(s, dt))
    # a first step far above max_step fails the step-error test
    g = bump_metric(GRID)
    final, history = run_flow(g, tol=1e-4, dt0=1000.0 * default_dt(GRID), max_steps=50_000)
    assert len(calls) == len(history) - 1 + sum(row.rejected for row in history)
    assert history[0].rejected == 0 and history[0].reason == ""
    assert all((row.rejected == 0) == (row.reason == "") for row in history)
    assert "step error" in {row.reason for row in history}
    assert {row.reason for row in history} <= {"", "positivity", "ricci increase", "step error"}


def test_flow_is_second_order_in_time():
    # g(t = 0.5) from fixed-dt ETDRK2 steps against the explicit midpoint
    # oracle at a quarter of its stability limit
    T = 0.5
    k = int(np.ceil(T / (default_dt(GRID) / 4)))
    _, ref, _ = next(islice(rk2_flow(bump_metric(GRID), T / k), k, None))
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        state = flow_state(bump_metric(GRID))
        for _ in range(round(T / dt)):
            state = flow_step(state, dt)
        assert state.t == pytest.approx(T)
        errors.append(np.max(np.abs(state.g.g - ref.g)))
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.5, (errors, orders)


def test_time_to_tolerance_matches_the_oracle():
    # run_flow's error control keeps it a flow in time, not only a route to
    # the limit: it reaches each tolerance when the explicit oracle does
    dt0 = default_dt(GRID)
    oracle_t = {}
    for step, (t, _, R) in enumerate(rk2_flow(bump_metric(GRID), dt0)):
        norm = np.max(np.abs(R))
        for tol in (1e-4, 1e-7):
            if norm <= tol:
                oracle_t.setdefault(tol, t)
        if norm <= 1e-7 or step > 10_000:
            break
    assert set(oracle_t) == {1e-4, 1e-7}
    _, history = run_flow(bump_metric(GRID), tol=1e-7, dt0=dt0, max_steps=10_000)
    for tol, t in oracle_t.items():
        flow_t = next(row.t for row in history if row.ricci_norm <= tol)
        assert abs(flow_t - t) <= 0.05 * t, (tol, flow_t, t)


def test_non_hermitian_step_stops_the_flow_without_retry():
    # The Hessian of a field varying in x1 and x2 is not Hermitian at the
    # Nyquist wavenumber, so the first step leaves the Hermitian metrics.
    g = np.zeros(GRID.shape + (2, 2), dtype=np.complex128)
    x1 = GRID.coordinate(0)
    x2 = GRID.coordinate(1)
    g[..., 0, 0] = 1 + 0.3 * np.cos(2 * np.pi * x2)
    g[..., 1, 1] = 1 + 0.3 * np.cos(2 * np.pi * x1)
    g0 = HermitianMetricField(GRID, g)
    with pytest.raises(FlowError, match="not Hermitian") as exc_info:
        run_flow(g0, tol=1e-6, dt0=default_dt(GRID), max_steps=100)
    assert not isinstance(exc_info.value, StepRejected)
    assert exc_info.value.state.t == 0.0
    assert exc_info.value.state.g is g0
