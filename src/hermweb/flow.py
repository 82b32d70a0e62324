"""Chern-Ricci flow d omega / dt = -Ric(omega) with error-controlled
fourth-order exponential (ETDRK4) steps.

On the torus Ric(omega) = -i del dbar log det g is del-dbar-exact, so the
flow stays in the class of omega_0 and reduces to a scalar parabolic
Monge-Ampere equation (Tosatti-Weinkove, JDG 2015):
    g(t) = g0 + Hess psi(t),   d psi / dt = log det(g0 + Hess psi) - mean.
The state is the spectrum of the real potential psi.  The right-hand side
splits into the stiff constant-coefficient part L psi = c Lap psi, with
c = mean(tr g0^{-1}) / n the flat linearisation of log det at g0 (the scale
of ma's preconditioner), and the rest N(psi) = log det g - L psi.  Each step
is one ETDRK4 step (Cox-Matthews 2002), exact for the linear part in
Fourier space; with E = e^{hL}, E2 = e^{hL/2} and Q = (E2 - 1) / L,
    a       = E2 psi + Q N(psi),
    b       = E2 psi + Q N(a),
    c       = E2 a + Q (2 N(b) - N(psi)),
    psi_new = E psi + f1 N(psi) + f2 (N(a) + N(b)) + f3 N(c),
where, with phi_k at z = hL,
    f1 = h (phi1 - 3 phi2 + 4 phi3),  f2 = 2h (phi2 - 2 phi3),
    f3 = h (4 phi3 - phi2).
Stage c is already a full-step approximation, so the correction
g_new - g_c is the step's embedded error estimate; it costs no transform.
The coefficients depend on dt alone: they are evaluated once per distinct
value of L, and the potential carries the last set to the next step of the
same dt.

A step computes on real arrays, like the Monge-Ampere solvers.  psi and
log det g are carried as grid.rfft_active half spectra, and every metric is
a real stack in the layout of smallmat (the n diagonal rows, then Re and
then Im of the upper entries): a stage's metric is
S0 + grid.hessian_stack_from_spectrum(stage), with S0 the stack of g0, and
its positivity and log det come from the stack's leading minors
(smallmat.stack_minors).  The correction, the step error ratio and the Ricci
norm are max-moduli of stacks (smallmat.stack_max_modulus), and the Ricci
norm is that of the Hermitian part of Ric = -Hess log det g, metric.ricci_norm
bit for bit.  FlowState.g is built from the new stack once it has passed the
positivity check; its complex (n, n) field is assembled only when it is read
(HermitianMetricField.g), so a flow assembles none for its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid, hessian_stack_from_spectrum, laplacian_symbol, rfft_active
from .metric import HermitianMetricField, minors_positive
from .smallmat import stack_adjugate, stack_max_modulus, stack_minors

# run_flow rejects a step whose correction moves g by more than this
# fraction of the step's change of g
STEP_ERROR_FRACTION = 0.1
# run_flow grows dt no further than this fraction of the decay time of the
# slowest mode of the flat unit Laplacian on the torus
MAX_STEP_DECAY = 0.4
MIN_DT = 1e-12  # run_flow gives up when a rejected attempt halves dt below this


class FlowError(RuntimeError):
    """The flow cannot go on: the step cap, dt below MIN_DT or (StepRejected)
    positivity loss; `state` is the last accepted FlowState, if any."""

    def __init__(self, message: str, state: "FlowState | None" = None):
        super().__init__(message)
        self.state = state


class StepRejected(FlowError):
    """A step lost positivity; run_flow retries it with half the time step."""


@dataclass(frozen=True)
class _Potential:
    """g = g0 + Hess psi, with the stack of g0 and the half spectra the next
    step starts from; the stack of g is that of FlowState.g."""

    S0: np.ndarray  # real stack of g0
    linear: np.ndarray  # half-spectrum symbol of L = c Lap
    psi_hat: np.ndarray
    logdet_hat: np.ndarray  # half spectrum of log det g, mean removed
    # the (dt, _coefficients) of the step that made it, for the next step
    coefficients: tuple[float, np.ndarray] | None = None


@dataclass(frozen=True)
class FlowState:
    t: float
    g: HermitianMetricField
    ricci_norm: float
    # max |g - g_c| of the step that made this state
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


def _logdet_spectrum(det: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Half spectrum of log det, with the mean removed."""
    L = rfft_active(np.log(det), grid)
    L[(0,) * L.ndim] = 0.0
    return L


def _positive_stack(
    state: FlowState, dt: float, hat: np.ndarray, where: str = ""
) -> tuple[np.ndarray, np.ndarray]:
    """The stack S0 + Hess of the potential with half spectrum hat, and the
    half spectrum of its log det; raises StepRejected when the metric is not
    positive."""
    grid = state.g.grid
    S = state.potential.S0 + hessian_stack_from_spectrum(hat, grid)
    minors = stack_minors(S)
    if not minors_positive(minors):
        raise StepRejected(f"positivity violated{where}; halve dt ({dt:g})", state)
    return S, _logdet_spectrum(minors[-1], grid)


def _state(
    t: float, g: HermitianMetricField, potential: _Potential, correction: float = 0.0
) -> FlowState:
    # the Hermitian part of Ric = -Hess log det g, whose sign leaves the norm as it is
    ricci = hessian_stack_from_spectrum(potential.logdet_hat, g.grid)
    return FlowState(t, g, stack_max_modulus(ricci), correction, potential)


def flow_state(g: HermitianMetricField, t: float = 0.0) -> FlowState:
    """The flow state at g, with g as the reference g0 and psi = 0."""
    grid = g.grid
    S = g.stack
    det = stack_minors(S)[-1]
    # c = mean(tr g^{-1}) / n, with g^{-1} = adj g / det g
    c = float(np.mean(stack_adjugate(S)[: grid.n] / det))
    linear = c * laplacian_symbol(grid)
    psi_hat = np.zeros(linear.shape, dtype=np.complex128)
    potential = _Potential(S, linear, psi_hat, _logdet_spectrum(det, grid))
    return _state(t, g, potential)


# phi_k(z) = sum_j z^j / (j + k)!, j < 18, for k = 1, 2, 3
_PHI_SERIES = np.array([[1.0 / math.factorial(j + k) for k in (1, 2, 3)] for j in range(18)])


def _phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi1(z) = (e^z - 1) / z and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z for
    k = 1, 2, from their Taylor series for |z| < 1, where the recurrence
    cancels."""
    small = np.abs(z) < 1.0
    w = np.where(small, 1.0, z)
    phi1 = np.expm1(w) / w
    phi2 = (phi1 - 1.0) / w
    phi3 = (phi2 - 0.5) / w
    terms = np.vander(z[small], 18, increasing=True)[..., None] * _PHI_SERIES
    phi1[small], phi2[small], phi3[small] = terms.sum(axis=1).T
    return phi1, phi2, phi3


def _coefficients(linear: np.ndarray, dt: float) -> np.ndarray:
    """The ETDRK4 multipliers E, E2, Q, f1, f2 and f3 at z = dt L, stacked on
    a first axis; they are evaluated on the distinct values of the symbol
    of L (43 on a 16^2 grid) and spread over the grid."""
    values, index = np.unique(linear, return_inverse=True)
    z = dt * values
    # the phi functions at z and z / 2 in one call
    phi1, phi2, phi3 = _phi_functions(np.outer([1.0, 0.5], z))
    sets = np.stack([
        np.exp(z),
        np.exp(0.5 * z),
        0.5 * dt * phi1[1],
        dt * (phi1[0] - 3.0 * phi2[0] + 4.0 * phi3[0]),
        2.0 * dt * (phi2[0] - 2.0 * phi3[0]),
        dt * (4.0 * phi3[0] - phi2[0]),
    ])
    return sets[:, index].reshape((6,) + linear.shape)


def _stage(
    state: FlowState, dt: float, stage_hat: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """The metric stack of a stage and N(stage) = logdet_hat - L stage;
    raises StepRejected when the metric is not positive."""
    S, logdet_hat = _positive_stack(state, dt, stage_hat, f" at stage {name}")
    return S, logdet_hat - state.potential.linear * stage_hat


def flow_step(state: FlowState, dt: float) -> FlowState:
    """One ETDRK4 step of the potential.

    The stage metrics and the new metric are the Hermitian parts of
    g0 + Hess psi, as real stacks: at the Nyquist wavenumber the spectral
    Hessian of a field varying along two axes is not Hermitian.  Raises
    StepRejected when any of them loses positivity, and ValueError unless
    dt > 0.  Having checked positivity here, it wraps the new metric without
    the constructor's re-check.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if state.potential is None:
        state = flow_state(state.g, state.t)
    p = state.potential
    grid = state.g.grid
    if p.coefficients is not None and p.coefficients[0] == dt:
        coefficients = p.coefficients
    else:
        coefficients = (dt, _coefficients(p.linear, dt))
    E, E2, Q, f1, f2, f3 = coefficients[1]
    psi = p.psi_hat
    N = p.logdet_hat - p.linear * psi
    E2_psi = E2 * psi
    a = E2_psi + Q * N
    _, N_a = _stage(state, dt, a, "a")
    b = E2_psi + Q * N_a
    _, N_b = _stage(state, dt, b, "b")
    c = E2 * a + Q * (2.0 * N_b - N)
    S_c, N_c = _stage(state, dt, c, "c")
    psi_hat = E * psi + f1 * N + f2 * (N_a + N_b) + f3 * N_c
    S, logdet_hat = _positive_stack(state, dt, psi_hat)
    correction = stack_max_modulus(S - S_c)
    potential = _Potential(p.S0, p.linear, psi_hat, logdet_hat, coefficients)
    g = HermitianMetricField._unchecked(grid, S)
    return _state(state.t + dt, g, potential, correction)


def _error_ratio(state: FlowState, new: FlowState) -> float:
    """r = correction / (STEP_ERROR_FRACTION max|g_new - g|) of the step
    from state to new: above 1 the step fails the step-error test.  On the
    flows measured r grows about as dt^2, so the next step can be about
    r^(-1/2) times longer.  r is 0 for a step without correction."""
    if new.correction == 0.0:
        return 0.0
    change = STEP_ERROR_FRACTION * stack_max_modulus(new.g.stack - state.g.stack)
    return new.correction / change if change > 0.0 else np.inf


def _rejection(state: FlowState, new: FlowState, ratio: float) -> str:
    """Why run_flow rejects the step from state to new, of error ratio
    `ratio`, or "" if it does not."""
    if new.ricci_norm > state.ricci_norm:
        return "ricci increase"
    if ratio > 1.0:
        return "step error"
    return ""


def max_dt(grid: PeriodicGrid) -> float:
    """The longest step run_flow grows to: MAX_STEP_DECAY / lambda_1, with
    lambda_1 the decay rate of the slowest nonzero mode of the flat unit
    Laplacian (no limit on a grid without active axes).

    N(psi) follows the slow modes, so the step stays a fixed fraction of
    their time scale.  It is read from the grid alone, like the default
    first step, so the flows of different metrics on one grid share their
    time steps, and with them their coefficients, once grown, and the cost
    of a flow does not hinge on where the step-error test cuts in.
    """
    rates = -laplacian_symbol(grid)
    rates = rates[rates > 0]
    return MAX_STEP_DECAY / float(np.min(rates)) if rates.size else np.inf


def run_flow(
    g0: HermitianMetricField, tol: float, dt0: float, max_steps: int
) -> tuple[FlowState, list[FlowHistoryRow]]:
    """Iterate from the step min(dt0, max_dt(grid)) until max|Ric| <= tol.

    dt halves on a rejected step: positivity loss, a Ricci-norm increase,
    or an error ratio r = correction / (STEP_ERROR_FRACTION max|g_new - g|)
    above 1.  After an accepted step dt is scaled by min(cap, 0.9 r^(-1/2))
    (by cap at r = 0); cap is 2 until the first rejected attempt, then 1.1.
    No step exceeds max_dt: a longer one can pass the error test with no
    accuracy in time.  ValueError names the first of tol, dt0 and max_steps
    that is not finite and positive.  FlowError, carrying the last state,
    stops the flow at the step cap or when dt falls below MIN_DT.
    """
    # a NaN or infinite dt never halves below MIN_DT, and a NaN tol would end
    # the flow before its first step
    for name, value in (("tol", tol), ("dt0", dt0), ("max_steps", max_steps)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    state = flow_state(g0)
    history = [FlowHistoryRow(state.t, 0.0, state.ricci_norm)]
    dt_max = max_dt(g0.grid)
    dt = min(dt0, dt_max)
    cap = 2.0
    steps = 0
    rejected, reason = 0, ""
    while state.ricci_norm > tol:
        if steps >= max_steps:
            raise FlowError(
                f"step cap {max_steps} exceeded (ricci_norm {state.ricci_norm:.3e})", state
            )
        try:
            new = flow_step(state, dt)
            ratio = _error_ratio(state, new)
            why = _rejection(state, new, ratio)
        except StepRejected:
            why = "positivity"
        if why:
            rejected, reason = rejected + 1, why
            cap = 1.1
            dt *= 0.5
            if dt < MIN_DT:
                raise FlowError(
                    f"dt underflow after {rejected} rejected attempts (last: {reason})", state
                )
            continue
        state = new
        steps += 1
        history.append(FlowHistoryRow(state.t, dt, state.ricci_norm, rejected, reason))
        rejected, reason = 0, ""
        growth = cap if ratio == 0.0 else min(cap, 0.9 / ratio**0.5)
        dt = min(dt * growth, dt_max)
    return state, history
