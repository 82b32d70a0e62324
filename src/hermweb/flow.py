"""Chern-Ricci flow d omega / dt = -Ric(omega) with adaptive RK2 stepping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import (
    HERMITIAN_TOL,
    HermitianMetricField,
    hermitian_defect,
    is_positive_definite,
    ricci_tensor,
)


class FlowError(RuntimeError):
    """The flow cannot go on; `state` is the last accepted FlowState, if any."""

    def __init__(self, message: str, state: "FlowState | None" = None):
        super().__init__(message)
        self.state = state


class StepRejected(FlowError):
    """A step lost positivity; run_flow retries it with half the time step."""


@dataclass(frozen=True)
class FlowState:
    t: float
    g: HermitianMetricField
    ricci_norm: float
    # Ric(g): the norm's source and -k1 of the next step
    ricci: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FlowHistoryRow:
    t: float
    dt: float
    ricci_norm: float


def flow_state(g: HermitianMetricField, t: float = 0.0) -> FlowState:
    R = ricci_tensor(g)
    R.setflags(write=False)
    return FlowState(t, g, float(np.max(np.abs(R))), R)


def flow_step(state: FlowState, dt: float) -> FlowState:
    """One explicit midpoint (RK2) step.

    Raises StepRejected when the midpoint or the new metric loses positivity,
    and FlowError when the new metric is not Hermitian, which a smaller step
    does not cure.  Having checked them here, it wraps the midpoint (which
    only feeds ricci_tensor) and the new metric without the constructor's
    re-check and copy.
    """
    if dt <= 0:
        raise FlowError("dt must be positive", state)
    grid = state.g.grid
    g = state.g.g
    k1 = -(ricci_tensor(state.g) if state.ricci is None else state.ricci)
    g_mid = g + (0.5 * dt) * k1
    if not is_positive_definite(g_mid):
        raise StepRejected(f"positivity violated at midpoint; halve dt ({dt:g})", state)
    k2 = -ricci_tensor(HermitianMetricField._unchecked(grid, g_mid))
    g_new = g + dt * k2
    defect = hermitian_defect(g_new)
    if defect > HERMITIAN_TOL * max(1.0, np.max(np.abs(g_new))):
        raise FlowError(
            f"metric not Hermitian after the step from t = {state.t:g} (defect {defect:.3e})", state
        )
    if not is_positive_definite(g_new):
        raise StepRejected(f"positivity violated; halve dt ({dt:g})", state)
    return flow_state(HermitianMetricField._unchecked(grid, g_new), state.t + dt)


def run_flow(
    g0: HermitianMetricField,
    tol: float,
    dt0: float,
    max_steps: int,
    min_dt: float = 1e-12,
) -> tuple[FlowState, list[FlowHistoryRow]]:
    """Iterate until the max-norm of Ric drops below tol.

    dt halves on a rejected step (positivity loss or Ricci-norm increase) and
    grows by 1.1x on success, capped at dt0.  Any other FlowError, such as a
    step that is not Hermitian, stops the flow; it carries the last state.
    """
    if tol <= 0:
        raise FlowError("tol must be positive")
    state = flow_state(g0)
    history = [FlowHistoryRow(state.t, 0.0, state.ricci_norm)]
    dt = dt0
    steps = 0
    while state.ricci_norm > tol:
        if steps >= max_steps:
            raise FlowError(
                f"step cap {max_steps} exceeded (ricci_norm {state.ricci_norm:.3e})", state
            )
        try:
            new = flow_step(state, dt)
        except StepRejected:
            new = None
        if new is None or new.ricci_norm > state.ricci_norm:
            dt *= 0.5
            if dt < min_dt:
                raise FlowError("dt underflow; flow is not contracting", state)
            continue
        state = new
        steps += 1
        history.append(FlowHistoryRow(state.t, dt, state.ricci_norm))
        dt = min(dt * 1.1, dt0)
    return state, history
