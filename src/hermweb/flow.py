"""Chern-Ricci flow d omega / dt = -Ric(omega) with error-controlled
exponential RK2 steps.

On the torus Ric(omega) = -i del dbar log det g is del-dbar-exact, so the
flow stays in the class of omega_0 and reduces to a scalar parabolic
Monge-Ampere equation (Tosatti-Weinkove, JDG 2015):
    g(t) = g0 + Hess psi(t),   d psi / dt = log det(g0 + Hess psi) - mean.
The state is the spectrum of the real potential psi.  The right-hand side
splits into the stiff constant-coefficient part L psi = c Lap psi, with
c = mean(tr g0^{-1}) / n the flat linearisation of log det at g0 (the scale
of ma's preconditioner), and the rest N(psi).  Each step is one ETDRK2 step
(Cox-Matthews 2002), exact for the linear part in Fourier space:
    a       = e^{hL} psi + h phi1(hL) N(psi),
    psi_new = a + h phi2(hL) (N(a) - N(psi)).
The correction psi_new - a is the step's embedded error estimate; its
Hessian is g_new - g_predictor, so it costs no transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from . import smallmat
from .grid import PeriodicGrid, hessian_from_spectrum, laplacian_symbol
from .metric import HermitianMetricField, hermitian_part, is_positive_definite

# run_flow rejects a step whose correction moves g by more than this
# fraction of the step's change of g
STEP_ERROR_FRACTION = 0.1
# run_flow grows dt no further than this fraction of the decay time of the
# slowest mode of the flat unit Laplacian on the torus
MAX_STEP_DECAY = 0.1


class FlowError(RuntimeError):
    """The flow cannot go on; `state` is the last accepted FlowState, if any."""

    def __init__(self, message: str, state: "FlowState | None" = None):
        super().__init__(message)
        self.state = state


class StepRejected(FlowError):
    """A step lost positivity; run_flow retries it with half the time step."""


@dataclass(frozen=True)
class _Potential:
    """g = g0 + Hess psi, with the spectra the next step starts from."""

    g0: np.ndarray
    linear: np.ndarray  # Fourier symbol of L = c Lap
    psi_hat: np.ndarray
    logdet_hat: np.ndarray  # spectrum of log det g, mean removed


@dataclass(frozen=True)
class FlowState:
    t: float
    g: HermitianMetricField
    ricci_norm: float
    # max |g - g_predictor| of the step that made this state
    correction: float = 0.0
    # a state built without it restarts the potential at g0 = g
    potential: _Potential | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FlowHistoryRow:
    t: float
    dt: float
    ricci_norm: float
    rejected: int = 0  # attempts rejected before this step
    reason: str = ""  # why the last of them was: positivity, ricci increase or step error


def _logdet_spectrum(g: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    L = np.fft.fftn(np.log(smallmat.det(g)), axes=grid.active_axes)
    L[(0,) * L.ndim] = 0.0
    return L


def _state(
    t: float, g: HermitianMetricField, potential: _Potential, correction: float = 0.0
) -> FlowState:
    # Ric = -Hess log det g
    ricci = hessian_from_spectrum(potential.logdet_hat, g.grid)
    return FlowState(t, g, float(np.max(np.abs(ricci))), correction, potential)


def flow_state(g: HermitianMetricField, t: float = 0.0) -> FlowState:
    """The flow state at g, with g as the reference g0 and psi = 0."""
    grid = g.grid
    c = float(np.mean(np.einsum("...ii->...", smallmat.inverse(g.g)).real)) / grid.n
    potential = _Potential(
        g.g,
        c * laplacian_symbol(grid),
        np.zeros(grid.shape, dtype=np.complex128),
        _logdet_spectrum(g.g, grid),
    )
    return _state(t, g, potential)


def _phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(z) = (e^z - 1) / z and phi2(z) = (e^z - 1 - z) / z^2, with their
    Taylor series near 0, where e^z - 1 - z cancels."""
    small = np.abs(z) < 0.1
    w = np.where(small, -1.0, z)
    em1 = np.expm1(w)
    phi1 = em1 / w
    phi2 = (em1 - w) / (w * w)
    zs = z[small]
    s1 = s2 = np.zeros_like(zs)
    for k in range(10, -1, -1):
        s1 = s1 * zs + 1.0 / factorial(k + 1)
        s2 = s2 * zs + 1.0 / factorial(k + 2)
    phi1[small] = s1
    phi2[small] = s2
    return phi1, phi2


def flow_step(state: FlowState, dt: float) -> FlowState:
    """One ETDRK2 step of the potential.

    The predictor and the new metric are the Hermitian parts of
    g0 + Hess psi: at the Nyquist wavenumber the spectral Hessian of a field
    varying along two axes is not Hermitian.  Raises StepRejected when
    either loses positivity.  Having checked that here, it wraps the new
    metric without the constructor's re-check and copy.
    """
    if dt <= 0:
        raise FlowError("dt must be positive", state)
    if state.potential is None:
        state = flow_state(state.g, state.t)
    p = state.potential
    grid = state.g.grid
    z = dt * p.linear
    phi1, phi2 = _phi_functions(z)
    N = p.logdet_hat - p.linear * p.psi_hat
    a_hat = np.exp(z) * p.psi_hat + dt * phi1 * N
    g_pred = hermitian_part(p.g0 + hessian_from_spectrum(a_hat, grid))
    if not is_positive_definite(g_pred):
        raise StepRejected(f"positivity violated at the predictor; halve dt ({dt:g})", state)
    N_pred = _logdet_spectrum(g_pred, grid) - p.linear * a_hat
    psi_hat = a_hat + dt * phi2 * (N_pred - N)
    g_new = hermitian_part(p.g0 + hessian_from_spectrum(psi_hat, grid))
    if not is_positive_definite(g_new):
        raise StepRejected(f"positivity violated; halve dt ({dt:g})", state)
    correction = float(np.max(np.abs(g_new - g_pred)))
    potential = _Potential(p.g0, p.linear, psi_hat, _logdet_spectrum(g_new, grid))
    return _state(state.t + dt, HermitianMetricField._unchecked(grid, g_new), potential, correction)


def _rejection(state: FlowState, new: FlowState) -> str:
    """Why run_flow rejects the step from state to new, or "" if it does not."""
    if new.ricci_norm > state.ricci_norm:
        return "ricci increase"
    if new.correction > STEP_ERROR_FRACTION * np.max(np.abs(new.g.g - state.g.g)):
        return "step error"
    return ""


def max_dt(grid: PeriodicGrid) -> float:
    """The longest step run_flow grows to: MAX_STEP_DECAY / lambda_1, with
    lambda_1 the decay rate of the slowest nonzero mode of the flat unit
    Laplacian (no limit on a grid without active axes).

    ETDRK2 takes N(psi) as linear in time over a step, and N follows the
    slow modes, so the step stays a fixed fraction of their time scale.  It
    is read from the grid alone, like the default first step, so the flows
    of different metrics on one grid share their time steps once grown, and
    the cost of a flow does not hinge on where the step-error test cuts in.
    """
    rates = -laplacian_symbol(grid)
    rates = rates[rates > 0]
    return MAX_STEP_DECAY / float(np.min(rates)) if rates.size else np.inf


def run_flow(
    g0: HermitianMetricField,
    tol: float,
    dt0: float,
    max_steps: int,
    min_dt: float = 1e-12,
) -> tuple[FlowState, list[FlowHistoryRow]]:
    """Iterate from the initial step dt0 until the max-norm of Ric drops below tol.

    dt halves on a rejected step (positivity loss, Ricci-norm increase or a
    correction above STEP_ERROR_FRACTION of the step's change of g) and
    grows by 1.1x on success, up to max_dt(grid); dt0 itself may exceed
    that.  The flow stops with FlowError, carrying the last state, at the
    step cap or when dt falls below min_dt.
    """
    if tol <= 0:
        raise FlowError("tol must be positive")
    state = flow_state(g0)
    history = [FlowHistoryRow(state.t, 0.0, state.ricci_norm)]
    dt = dt0
    dt_max = max_dt(g0.grid)
    steps = 0
    rejected, reason = 0, ""
    while state.ricci_norm > tol:
        if steps >= max_steps:
            raise FlowError(
                f"step cap {max_steps} exceeded (ricci_norm {state.ricci_norm:.3e})", state
            )
        try:
            new = flow_step(state, dt)
            why = _rejection(state, new)
        except StepRejected:
            why = "positivity"
        if why:
            rejected, reason = rejected + 1, why
            dt *= 0.5
            if dt < min_dt:
                raise FlowError("dt underflow; flow is not contracting", state)
            continue
        state = new
        steps += 1
        history.append(FlowHistoryRow(state.t, dt, state.ricci_norm, rejected, reason))
        rejected, reason = 0, ""
        dt = min(1.1 * dt, dt_max)
    return state, history
