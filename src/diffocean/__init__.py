"""diffocean: a desk-scale differentiable shallow-water ocean channel.

A rotating shallow-water core with a temperature tracer on a re-entrant
beta-plane channel, differentiated end-to-end by a built-in forward- and
reverse-mode engine. Includes gradient validation against central finite
differences, initial-state reconstruction, and calibration of lateral
viscosity and bottom friction from barotropic streamfunction observations.
"""

from .autodiff import (
    Tape,
    grad,
    jvp,
    sqrt_reg,
    vjp,
)
from .dyncore import (
    ModelState,
    PhysParams,
    StepConfig,
    barotropic_streamfunction,
    bsf_mse_loss,
    step,
    step_n,
    total_energy,
    transport,
    wind_stress_profile,
)
from .grid import (
    Field,
    GridSpec,
    Staggering,
    ddx,
    ddy,
    divergence,
    interp,
    laplacian,
    make_channel_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "grad",
    "jvp",
    "vjp",
    "sqrt_reg",
    "ModelState",
    "PhysParams",
    "StepConfig",
    "step",
    "step_n",
    "barotropic_streamfunction",
    "transport",
    "bsf_mse_loss",
    "total_energy",
    "wind_stress_profile",
    "Field",
    "GridSpec",
    "Staggering",
    "make_channel_grid",
    "ddx",
    "ddy",
    "divergence",
    "interp",
    "laplacian",
    "__version__",
]
