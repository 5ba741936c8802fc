"""Channel geometry, C-grid staggering, and discrete differential operators.

The domain is a zonally re-entrant beta-plane channel: axis 0 of every
array is the periodic zonal direction (nx cells), axis 1 the meridional
direction (ny cells) bounded by solid walls. Arakawa C staggering places
eta and tracers at cell centers, u on east faces, v on north faces; the
v row j = ny-1 lies on the northern wall and is identically zero, while
the southern wall is the (absent) face south of row 0. Corner values arise
only as outputs of cross derivatives.

All operators are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import primitives as ops
from .autodiff import tree, unbox
from .errors import DomainError, ShapeError, StaggeringError


class Staggering(str, enum.Enum):
    CENTER = "center"
    U_FACE = "u-face"
    V_FACE = "v-face"
    CORNER = "corner"


@dataclass(frozen=True)
class GridSpec:
    """Uniform Cartesian channel grid with beta-plane Coriolis."""

    nx: int
    ny: int
    Lx: float
    Ly: float
    H: float
    f0: float
    beta: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ShapeError(
                f"grid must be at least 4x4 (stencil width), got {self.nx}x{self.ny}"
            )
        if self.Lx <= 0 or self.Ly <= 0 or self.H <= 0:
            raise ShapeError("domain extents and depth must be positive")
        for name, length, count in (("dx", self.Lx, self.nx), ("dy", self.Ly, self.ny)):
            # a count too large for a float makes the spacing underflow to 0
            spacing = length / count if count <= sys.float_info.max else 0.0
            # the damping bound divides by the squared spacing
            if not 0.0 < spacing * spacing < math.inf:
                raise DomainError(
                    f"grid spacing {name} = {spacing:g} m: its square is not a "
                    f"positive finite float"
                )

    @property
    def dx(self) -> float:
        return self.Lx / self.nx

    @property
    def dy(self) -> float:
        return self.Ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @cached_property
    def y_center(self) -> np.ndarray:
        y = (np.arange(self.ny) + 0.5) * self.dy
        y.flags.writeable = False
        return y

    @cached_property
    def y_vface(self) -> np.ndarray:
        y = (np.arange(self.ny) + 1.0) * self.dy
        y.flags.writeable = False
        return y

    @cached_property
    def x_center(self) -> np.ndarray:
        x = (np.arange(self.nx) + 0.5) * self.dx
        x.flags.writeable = False
        return x

    @cached_property
    def f_at_u(self) -> np.ndarray:
        """Coriolis parameter on u rows, broadcastable over x."""
        f = (self.f0 + self.beta * self.y_center)[np.newaxis, :]
        f.flags.writeable = False
        return f

    @cached_property
    def f_at_v(self) -> np.ndarray:
        f = (self.f0 + self.beta * self.y_vface)[np.newaxis, :]
        f.flags.writeable = False
        return f

    @cached_property
    def vwall_mask(self) -> np.ndarray:
        """Zero on the v row lying on the northern wall, one elsewhere."""
        m = np.ones((1, self.ny))
        m[0, -1] = 0.0
        m.flags.writeable = False
        return m


def make_channel_grid(
    nx: int,
    ny: int,
    Lx: float,
    Ly: float,
    H: float,
    f0: float,
    beta: float,
) -> GridSpec:
    """Build an all-ocean re-entrant channel grid."""
    return GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, H=H, f0=f0, beta=beta)


@dataclass
class Field:
    """A 2-D 64-bit real array tagged with its grid position.

    With an ndarray or a number on the left, `+`, `-`, `*` and `/` defer
    to the Field and return a Field at its staggering.
    """

    values: object
    staggering: Staggering = Staggering.CENTER
    # NumPy defers binary operators to a type that opts out of ufuncs.
    __array_ufunc__ = None

    def __post_init__(self):
        if type(self.staggering) is not Staggering:
            self.staggering = Staggering(self.staggering)
        if isinstance(self.values, (int, float, list, tuple, np.ndarray)):
            self.values = np.asarray(self.values, dtype=float)

    @property
    def shape(self):
        return np.shape(unbox(self.values))

    def __neg__(self):
        return Field(ops.neg(self.values), self.staggering)


def _operator(prim, reflected):
    """Field's binary dunder for prim: the values of two Fields of one
    staggering, or of a Field and a plain operand, in operator order."""

    def method(self, other):
        if isinstance(other, Field):
            if other.staggering is not self.staggering:
                raise StaggeringError(
                    f"cannot combine {self.staggering.value} with "
                    f"{other.staggering.value} without explicit interpolation"
                )
            other = other.values
        a, b = (other, self.values) if reflected else (self.values, other)
        return Field(prim(a, b), self.staggering)

    return method


# Field's binary operators, (dunder stem, primitive), each with its reflection.
_OPERATORS = (("add", ops.add), ("sub", ops.sub), ("mul", ops.mul), ("truediv", ops.div))
for _stem, _prim in _OPERATORS:
    setattr(Field, f"__{_stem}__", _operator(_prim, False))
    setattr(Field, f"__r{_stem}__", _operator(_prim, True))

tree.register_container(Field, children=("values",), aux=("staggering",))


def _check_shape(f: Field, g: GridSpec):
    if f.shape != g.shape:
        raise ShapeError(f"field shape {f.shape} does not match grid {g.shape}")


# Staggering transitions for the two-point difference operators. Forward
# differences shift center -> face (and face -> corner); backward differences
# shift back.
_DDX = {
    Staggering.CENTER: (ops.ddx_fwd, Staggering.U_FACE),
    Staggering.U_FACE: (ops.ddx_bwd, Staggering.CENTER),
    Staggering.V_FACE: (ops.ddx_fwd, Staggering.CORNER),
    Staggering.CORNER: (ops.ddx_bwd, Staggering.V_FACE),
}

_DDY = {
    Staggering.CENTER: (ops.ddy_fwd, Staggering.V_FACE),
    Staggering.V_FACE: (ops.ddy_bwd, Staggering.CENTER),
    Staggering.U_FACE: (ops.ddy_fwd, Staggering.CORNER),
    Staggering.CORNER: (ops.ddy_bwd, Staggering.U_FACE),
}


def ddx(f: Field, g: GridSpec) -> Field:
    """Two-point zonal difference with periodic wrap; shifts the staggering."""
    _check_shape(f, g)
    op, out_stag = _DDX[f.staggering]
    return Field(op(f.values, dx=g.dx), out_stag)


def ddy(f: Field, g: GridSpec) -> Field:
    """Two-point meridional difference; wall-normal flux is suppressed."""
    _check_shape(f, g)
    op, out_stag = _DDY[f.staggering]
    return Field(op(f.values, dy=g.dy), out_stag)


def divergence(u: Field, v: Field, g: GridSpec) -> Field:
    """du/dx + dv/dy at cell centers.

    Sums to zero over the domain whenever v vanishes on the walls, because
    both differences telescope.
    """
    if u.staggering is not Staggering.U_FACE or v.staggering is not Staggering.V_FACE:
        raise StaggeringError(
            f"divergence expects (u-face, v-face) fields, got "
            f"({u.staggering.value}, {v.staggering.value})"
        )
    _check_shape(u, g)
    _check_shape(v, g)
    return Field(
        ops.add(ops.ddx_bwd(u.values, dx=g.dx), ops.ddy_bwd(v.values, dy=g.dy)),
        Staggering.CENTER,
    )


# Laplacian meridional boundary rule per staggering. Tracer and elevation
# obey no normal flux; tangential velocity follows the configured wall
# condition; normal velocity vanishes at the walls.
def _lap_ybc(staggering: Staggering, boundary: str) -> str:
    if staggering is Staggering.V_FACE:
        return "dirichlet"
    if staggering is Staggering.U_FACE:
        if boundary == "free-slip":
            return "neumann"
        if boundary == "no-slip":
            return "noslip"
        raise DomainError(f"unknown boundary kind {boundary!r}")
    if staggering is Staggering.CENTER:
        return "neumann"
    raise StaggeringError("laplacian is not defined on corner fields")


def laplacian(f: Field, g: GridSpec, boundary: str = "free-slip") -> Field:
    """5-point Laplacian, periodic in x, wall rule per staggering in y."""
    _check_shape(f, g)
    ybc = _lap_ybc(f.staggering, boundary)
    return Field(ops.laplacian(f.values, dx=g.dx, dy=g.dy, ybc=ybc), f.staggering)


_INTERP = {
    (Staggering.CENTER, Staggering.U_FACE): ops.interp_x_fwd,
    (Staggering.U_FACE, Staggering.CENTER): ops.interp_x_bwd,
    (Staggering.CENTER, Staggering.V_FACE): ops.interp_y_fwd,
    (Staggering.V_FACE, Staggering.CENTER): ops.interp_y_bwd,
}


def interp(f: Field, to) -> Field:
    """Two-point average to an adjacent staggering; preserves constants.

    Only center <-> u-face and center <-> v-face are adjacent; u <-> v
    goes through the center in two steps.
    """
    to = Staggering(to)
    if to is f.staggering:
        return f
    op = _INTERP.get((f.staggering, to))
    if op is None:
        raise StaggeringError(
            f"no two-point interpolation from {f.staggering.value} to {to.value}"
        )
    return Field(op(f.values), to)
