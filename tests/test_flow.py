from collections import Counter
from itertools import islice
from math import factorial

import numpy as np
import pytest

from hermweb.flow import (
    MAX_STEP_DECAY,
    FlowError,
    FlowState,
    _phi_functions,
    flow_state,
    flow_step,
    max_dt,
    run_flow,
)
from hermweb.grid import PeriodicGrid, _z_symbols, hermitian_hessian_stack, hessian_stack_from_spectrum
from hermweb.smallmat import hermitian_stack, stack_minors
from hermweb.ma import solve_ma2
from hermweb.metric import (
    HermitianMetricField,
    bott_chern_defect,
    chern_ricci,
    hermitian_defect,
    identity_metric,
    ricci_norm,
    ricci_potential,
)

from helpers import (
    assert_carries_its_stack,
    bump_metric,
    count_hermitian_from_stack,
    random_metric,
    refuse_hermitian_stack,
    rk2_flow,
)


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


def test_flow_reads_the_stacks_its_metrics_carry(monkeypatch):
    # the initial metric carries its stack, and each step wraps the stack it
    # checked, so a flow converts no complex field
    g0 = bump_metric(GRID)
    state = flow_step(flow_state(g0), default_dt(GRID))
    assert_carries_its_stack(state.g)
    refuse_hermitian_stack(monkeypatch)
    final, history = run_flow(g0, tol=1e-4, dt0=default_dt(GRID), max_steps=1000)
    monkeypatch.undo()
    assert len(history) > 2 and final.ricci_norm <= 1e-4
    assert_carries_its_stack(final.g)


def test_flow_assembles_no_complex_metric_until_g_is_read(monkeypatch):
    # the metrics of the steps are their stacks; the final one assembles its
    # complex field when it is read, once
    g0 = bump_metric(GRID)
    calls = count_hermitian_from_stack(monkeypatch)
    final, history = run_flow(g0, tol=1e-4, dt0=default_dt(GRID), max_steps=1000)
    assert len(history) > 2 and calls == []
    g = final.g.g
    assert final.g.g is g and calls == [final.g.stack.shape]


def test_step_growth_stops_at_max_dt():
    # 0.4 of the decay time 1 / pi^2 of the slowest flat mode on the unit
    # torus; no limit without an active axis
    assert max_dt(GRID) == pytest.approx(0.4 / np.pi**2, rel=1e-14)
    assert max_dt(PeriodicGrid(2, (1, 1, 1, 1))) == np.inf
    # read from the half-spectrum symbol, the same as from the full spectrum
    for n, sizes in ((2, (16, 16, 1, 1)), (2, (1, 32, 1, 1)), (2, (16, 1, 1, 16)), (3, (8, 8, 8, 1, 1, 8))):
        grid = PeriodicGrid(n, sizes)
        rates = sum(np.broadcast_to(np.abs(s) ** 2, grid.shape) for s in _z_symbols(grid))
        assert max_dt(grid) == MAX_STEP_DECAY / rates[rates > 0].min()
    # bumps of amplitude 1/4 and 1/2 grow through the same steps to the
    # limit, each doubling until the error ratio would cut it, and take no
    # rejected step on the way
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


def test_step_growth_follows_the_error_ratio():
    # from the explicit-RK2 limit the error ratio stays far under 1, so dt
    # doubles and reaches max_dt within 6 accepted steps
    _, history = run_flow(bump_metric(GRID), tol=1e-7, dt0=default_dt(GRID), max_steps=1000)
    assert sum(row.rejected for row in history) == 0
    assert max_dt(GRID) in [row.dt for row in history[1:7]]


def two_axis_bump_metric(grid):
    # g_11 = 1 + 0.4 cos 2 pi x2, g_22 = 1 + 0.4 cos 2 pi x1: its flow from
    # max_dt rejects attempts, where the one-axis bump's takes none
    g = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    g[..., 0, 0] = 1 + 0.4 * np.cos(2 * np.pi * grid.coordinate(grid.axis_of("x", 2)))
    g[..., 1, 1] = 1 + 0.4 * np.cos(2 * np.pi * grid.coordinate(grid.axis_of("x", 1)))
    return HermitianMetricField(grid, g)


def test_first_step_is_at_most_max_dt():
    # a step far above max_dt can pass the step-error test with no accuracy
    # in time, so a larger dt0 is cut to max_dt
    _, history = run_flow(bump_metric(GRID), tol=1e-4, dt0=1000.0 * default_dt(GRID), max_steps=1000)
    assert history[1].dt <= max_dt(GRID)
    assert max(row.dt for row in history) <= max_dt(GRID)


def test_step_growth_is_capped_after_a_rejection():
    # once an attempt is rejected the flow grows dt by at most 1.1x a step
    g = two_axis_bump_metric(GRID)
    _, history = run_flow(g, tol=1e-7, dt0=1000.0 * default_dt(GRID), max_steps=1000)
    first = next(i for i, row in enumerate(history) if row.rejected)
    dts = [row.dt for row in history[first:]]
    assert all(b <= 1.1 * a for a, b in zip(dts, dts[1:])), dts


def test_dt_underflow_names_its_cause(monkeypatch):
    import hermweb.flow

    monkeypatch.setattr(hermweb.flow, "_rejection", lambda *args: "ricci increase")
    g = bump_metric(GRID)
    message = r"dt underflow after \d+ rejected attempts \(last: ricci increase\)"
    with pytest.raises(FlowError, match=message) as info:
        run_flow(g, tol=1e-7, dt0=default_dt(GRID), max_steps=1000)
    assert info.value.state.t == 0.0
    assert np.array_equal(info.value.state.g.g, g.g)


def test_run_flow_rejects_bad_tol():
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        run_flow(identity_metric(GRID), tol=0.0, dt0=1e-3, max_steps=10)


@pytest.mark.parametrize("tol, dt0", [
    (1e-7, np.nan), (1e-7, np.inf), (1e-7, -np.inf), (1e-7, 0.0), (1e-7, -1e-3),
    (np.nan, 1e-3), (np.inf, 1e-3), (-1e-7, 1e-3),
])
def test_run_flow_rejects_non_finite_or_non_positive_tol_and_dt0(tol, dt0):
    # halving a NaN or infinite dt never drops it below MIN_DT, so such a
    # dt0 would never end the flow; a NaN tol would end it at once
    with pytest.raises(ValueError, match="finite and positive"):
        run_flow(bump_metric(GRID), tol=tol, dt0=dt0, max_steps=10)


@pytest.mark.parametrize("max_steps", [0, -3])
def test_run_flow_rejects_a_step_cap_below_one(max_steps):
    with pytest.raises(ValueError, match="max_steps must be finite and positive"):
        run_flow(bump_metric(GRID), tol=1e-7, dt0=1e-3, max_steps=max_steps)


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan])
def test_flow_step_rejects_a_dt_that_is_not_positive(dt):
    # an argument error, not a flow that cannot go on
    with pytest.raises(ValueError, match="dt must be positive") as info:
        flow_step(flow_state(bump_metric(GRID)), dt)
    assert not isinstance(info.value, FlowError)


def test_flow_on_a_grid_without_active_axes_takes_no_step():
    # a metric on one grid point is constant, so it is Chern-Ricci flat
    grid = PeriodicGrid(2, (1, 1, 1, 1))
    g = HermitianMetricField(grid, np.array([[[[[[2.0, 0.5j], [-0.5j, 1.0]]]]]]))
    final, history = run_flow(g, tol=1e-7, dt0=1e-3, max_steps=10)
    assert final.ricci_norm == 0.0 and len(history) == 1
    assert np.array_equal(flow_step(final, 1e-3).g.g, g.g)


def test_run_flow_step_cap():
    g = bump_metric(GRID)
    with pytest.raises(FlowError):
        run_flow(g, tol=1e-12, dt0=default_dt(GRID), max_steps=3)


def test_flow_step_fft_calls_per_attempt(monkeypatch):
    # an accepted attempt transforms log det g four times (stages a, b, c
    # and the new state) and makes five batched inverse transforms: the
    # Hessian stacks of the three stages and the new metric, and the new
    # state's Ricci stack.  All are real transforms over the two active
    # axes, each an rfft or irfft with one complex 1-D pass
    state = flow_state(bump_metric(GRID))
    calls = Counter()
    names = ("rfft", "irfft", "fft", "ifft", "rfftn", "irfftn", "fftn", "ifftn")
    for name in names:
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _n=name, _f=fn, **k: calls.update([_n]) or _f(*a, **k))
    flow_step(state, default_dt(GRID))
    assert calls == Counter(rfft=4, fft=4, irfft=5, ifft=5)
    calls.clear()
    flow_state(bump_metric(GRID))
    assert calls == Counter(rfft=1, fft=1, irfft=1, ifft=1)


def test_flow_step_computes_ricci_twice(monkeypatch):
    # Ric = -Hess log det g.  N(psi) comes from the state; the log det g of
    # stages a, b, c and of the new state are the four evaluations
    import hermweb.flow

    state = flow_state(bump_metric(GRID))
    calls = []
    logdet = hermweb.flow._logdet_spectrum
    monkeypatch.setattr(hermweb.flow, "_logdet_spectrum", lambda g, grid: calls.append(g) or logdet(g, grid))
    flow_step(state, default_dt(GRID))
    assert len(calls) == 4
    calls.clear()
    final, history = run_flow(bump_metric(GRID), tol=1e-3, dt0=default_dt(GRID), max_steps=1000)
    # an attempt rejected after the step evaluated all four; none lost positivity
    assert {row.reason for row in history} <= {"", "step error", "ricci increase"}
    attempts = len(history) - 1 + sum(row.rejected for row in history)
    assert len(calls) == 1 + 4 * attempts


def test_flow_state_carries_its_ricci_tensor():
    # the state's Ricci stack, from the half spectrum of log det g it
    # carries, is the Hermitian Hessian stack of -log det g, log det g taken
    # from the metric's own stack; ricci_norm reads the same stack
    g = bump_metric(GRID)
    state = flow_state(g)
    new = flow_step(state, 1e-3)
    for s in (state, new):
        log_det = np.log(stack_minors(hermitian_stack(s.g.g))[-1])
        ricci = -hessian_stack_from_spectrum(s.potential.logdet_hat, GRID)
        assert np.array_equal(ricci, hermitian_hessian_stack(-log_det, GRID))
        assert s.ricci_norm == ricci_norm(s.g)
    # a bare state restarts the potential at its metric
    bare = FlowState(state.t, state.g, state.ricci_norm)
    assert bare.potential is None
    assert np.array_equal(flow_step(bare, 1e-3).g.g, new.g.g)


@pytest.mark.parametrize(
    "n,sizes",
    [(2, (32, 32, 1, 1)), (2, (8, 8, 8, 8)), (3, (16, 16, 16, 1, 1, 1)), (3, (8, 8, 8, 8, 1, 8)), (2, (64, 64, 1, 1))],
)
def test_ricci_norm_is_the_flow_states(n, sizes):
    # one kernel, the Hermitian Hessian stack of log det g, bit for bit,
    # also on grids whose log det g has Nyquist content
    g = random_metric(PeriodicGrid(n, sizes), np.random.default_rng(sum(sizes)), amp=0.1, kmax=2)
    assert ricci_norm(g) == flow_state(g).ricci_norm > 0.0


def test_phi_functions_against_high_precision():
    # phi1, phi2 and phi3 over the step's range of z, and either side of the
    # switch to the Taylor series at |z| = 1
    mpmath = pytest.importorskip("mpmath")
    edges = [0.1, np.nextafter(0.1, 1.0), 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    z = -np.concatenate([[0.0], np.logspace(-12, 4, 200), edges])
    phis = _phi_functions(z)
    # e^z - sum_{j<3} z^j / j! cancels 36 digits at |z| = 1e-12
    with mpmath.workdps(80):
        for i, zi in enumerate(z):
            m = mpmath.mpf(zi)
            for k, phi in enumerate(phis, 1):
                if zi == 0.0:
                    want = 1.0 / factorial(k)
                else:
                    # phi_k(z) = (e^z - sum_{j<k} z^j / j!) / z^k
                    tail = mpmath.exp(m) - sum(m**j / factorial(j) for j in range(k))
                    want = float(tail / m**k)
                assert phi[i] == pytest.approx(want, rel=1e-14), (k, zi)


def test_coefficients_are_evaluated_once_per_step_size(monkeypatch):
    # the potential carries the last (dt, coefficients) pair, so a flow
    # evaluates a set for each new dt of its growth and each rejected attempt
    # only, and none while dt stays at max_dt; a flow from the default dt
    # grows in a few steps
    import hermweb.flow

    calls = []
    coefficients = hermweb.flow._coefficients
    monkeypatch.setattr(hermweb.flow, "_coefficients", lambda L, dt: calls.append(dt) or coefficients(L, dt))
    state = flow_state(bump_metric(GRID))
    state = flow_step(flow_step(state, 1e-3), 1e-3)
    assert calls == [1e-3]
    for dt0 in (default_dt(GRID), 1000.0 * default_dt(GRID)):
        calls.clear()
        _, history = run_flow(bump_metric(GRID), tol=1e-7, dt0=dt0, max_steps=1000)
        distinct = len({row.dt for row in history[1:]})
        assert len(calls) <= distinct + sum(row.rejected for row in history)
        assert len(calls) < len(history) - 1
        if dt0 == default_dt(GRID):
            assert len(calls) <= 8, calls


def test_history_records_rejections_and_their_reason(monkeypatch):
    # every attempt is one flow_step call, so the rejected counts add up
    import hermweb.flow

    calls = []
    monkeypatch.setattr(hermweb.flow, "flow_step", lambda s, dt: calls.append(dt) or flow_step(s, dt))
    # the two-axis bump's flow from max_dt has rejected attempts
    g = two_axis_bump_metric(GRID)
    final, history = run_flow(g, tol=1e-4, dt0=1000.0 * default_dt(GRID), max_steps=50_000)
    assert len(calls) == len(history) - 1 + sum(row.rejected for row in history)
    assert history[0].rejected == 0 and history[0].reason == ""
    assert all((row.rejected == 0) == (row.reason == "") for row in history)
    assert "step error" in {row.reason for row in history}
    assert {row.reason for row in history} <= {"", "positivity", "ricci increase", "step error"}


def test_flow_is_second_order_in_time():
    # g(t = 0.5) from fixed-dt ETDRK4 steps against the explicit midpoint
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
    assert min(orders) >= 2.0, (errors, orders)


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


def axis_bump_metric(grid, axes):
    # g_ii = 1 + 0.3 cos(2 pi x_a) with a = axes[i], off-diagonal entries 0
    n = grid.n
    g = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for i, a in enumerate(axes):
        g[..., i, i] = 1 + 0.3 * np.cos(2 * np.pi * grid.coordinate(a))
    return HermitianMetricField(grid, g)


def test_two_axis_metric_flows_to_convergence():
    # The Hessian of a field varying in x1 and x2 is not Hermitian at the
    # Nyquist wavenumber; the flow's metrics are its Hermitian part, so the
    # flow goes on to the Monge-Ampere solution
    g0 = axis_bump_metric(GRID, (1, 0))
    final, history = run_flow(g0, tol=1e-7, dt0=default_dt(GRID), max_steps=1000)
    assert final.ricci_norm <= 1e-7
    assert sum(row.rejected for row in history) == 0
    assert hermitian_defect(final.g.g) == 0.0
    sol = solve_ma2(g0, ricci_potential(g0))
    assert np.max(np.abs(final.g.g - sol.metric_out.g)) < 1e-7


def test_three_axis_metric_flows_to_convergence():
    # n = 3, each g_ii varying along another axis
    grid = PeriodicGrid(3, (8, 8, 8, 1, 1, 1))
    g0 = axis_bump_metric(grid, (1, 2, 0))
    final, history = run_flow(g0, tol=1e-7, dt0=default_dt(grid), max_steps=1000)
    assert final.ricci_norm <= 1e-7
    assert sum(row.rejected for row in history) == 0
    assert hermitian_defect(final.g.g) == 0.0
    sol = solve_ma2(g0, ricci_potential(g0))
    assert np.max(np.abs(final.g.g - sol.metric_out.g)) < 1e-7
