"""Numerical workbench for Chern-Ricci-flat Hermitian metrics on torus models.

The package builds special Hermitian metrics on real tori R^{2n}/Z^{2n}
(n = 2, 3) three ways -- conformal rescaling, a scalar Monge-Ampere solve,
and a form-type solve through the Michelsohn (n-1)-root -- integrates the
Chern-Ricci flow, and machine-checks the Hopf, Nakamura, and Yoshihara
model computations.
"""

from .grid import PeriodicGrid, ScalarField, constant_field, from_function
from .forms import FormField, wedge, wedge_power, ddbar, exterior_d, zero_form
from .metric import (
    HermitianMetricField,
    MetricError,
    bott_chern_defect,
    chern_ricci,
    classify,
    conformal_flatten,
    identity_metric,
    parallel_section_check,
    ricci_norm,
    ricci_potential,
    ricci_tensor,
)
from .ma import (
    MASolution,
    SolverConfig,
    SolverError,
    form_to_matrix,
    hodge_root,
    matrix_to_form,
    solve_ma2,
    solve_ma3,
)
from .flow import FlowError, FlowState, flow_state, flow_step, run_flow
from .models import (
    flat_volume_descent_check,
    hopf_check,
    hopf_points,
    nakamura_check,
    nakamura_samples,
    yoshihara_check,
)
from .specfile import ManifoldSpec, SpecError, load_spec, loads

__version__ = "0.1.0"

__all__ = [
    "PeriodicGrid",
    "ScalarField",
    "constant_field",
    "from_function",
    "FormField",
    "wedge",
    "wedge_power",
    "ddbar",
    "exterior_d",
    "zero_form",
    "HermitianMetricField",
    "MetricError",
    "bott_chern_defect",
    "chern_ricci",
    "classify",
    "conformal_flatten",
    "identity_metric",
    "parallel_section_check",
    "ricci_norm",
    "ricci_potential",
    "ricci_tensor",
    "MASolution",
    "SolverConfig",
    "SolverError",
    "form_to_matrix",
    "hodge_root",
    "matrix_to_form",
    "solve_ma2",
    "solve_ma3",
    "FlowError",
    "FlowState",
    "flow_state",
    "flow_step",
    "run_flow",
    "flat_volume_descent_check",
    "hopf_check",
    "hopf_points",
    "nakamura_check",
    "nakamura_samples",
    "yoshihara_check",
    "ManifoldSpec",
    "SpecError",
    "load_spec",
    "loads",
]
