import numpy as np
import pytest

from hermweb.flow import FlowError, FlowState, StepRejected, flow_state, flow_step, run_flow
from hermweb.grid import PeriodicGrid
from hermweb.ma import solve_ma2
from hermweb.metric import (
    HermitianMetricField,
    bott_chern_defect,
    chern_ricci,
    identity_metric,
    ricci_potential,
    ricci_tensor,
)

from helpers import bump_metric


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


def test_run_flow_rejects_bad_tol():
    with pytest.raises(FlowError):
        run_flow(identity_metric(GRID), tol=0.0, dt0=1e-3, max_steps=10)


def test_run_flow_step_cap():
    g = bump_metric(GRID)
    with pytest.raises(FlowError):
        run_flow(g, tol=1e-12, dt0=default_dt(GRID), max_steps=3)


def test_flow_step_computes_ricci_twice(monkeypatch):
    # k1 comes from the state; k2 and the new state's tensor are the two calls
    import hermweb.flow

    state = flow_state(bump_metric(GRID))
    calls = []
    monkeypatch.setattr(hermweb.flow, "ricci_tensor", lambda g: calls.append(g) or ricci_tensor(g))
    flow_step(state, default_dt(GRID))
    assert len(calls) == 2
    calls.clear()
    final, history = run_flow(bump_metric(GRID), tol=1e-3, dt0=default_dt(GRID), max_steps=1000)
    assert len(calls) == 1 + 2 * (len(history) - 1)


def test_flow_state_carries_its_ricci_tensor():
    g = bump_metric(GRID)
    state = flow_state(g)
    assert np.array_equal(state.ricci, ricci_tensor(g))
    bare = FlowState(state.t, state.g, state.ricci_norm)
    assert np.array_equal(flow_step(bare, 1e-3).g.g, flow_step(state, 1e-3).g.g)


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
