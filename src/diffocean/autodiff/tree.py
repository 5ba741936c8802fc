"""Flatten/rebuild utilities for nested containers of arrays and scalars.

Inputs to the differentiation entry points are trees built from tuples,
lists, dicts, and registered dataclasses (ModelState, PhysParams, Field).
Flattening exposes the numeric leaves so they can be boxed for forward or
reverse mode; each leaf carries its path from the root, which error
messages name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import ShapeError
from .engine import Box, unbox

# Containers registered by grid/dyncore at import time.
_CONTAINERS: dict[type, "_ContainerSpec"] = {}


@dataclass(frozen=True)
class _ContainerSpec:
    children: tuple[str, ...]
    aux: tuple[str, ...] = ()


def register_container(cls, children, aux=()):
    """Declare a dataclass as a tree node with differentiable children."""
    if cls in _CONTAINERS:
        raise ValueError(f"container {cls.__name__} already registered")
    _CONTAINERS[cls] = _ContainerSpec(tuple(children), tuple(aux))


@dataclass
class Leaf:
    path: tuple
    value: Any


def _is_leaf(x) -> bool:
    if isinstance(x, (bool, str, bytes)) or x is None:
        return False
    return isinstance(x, (int, float, np.floating, np.integer, np.ndarray, Box))


def _build(x, path, leaves):
    """Return a rebuild spec for x, appending encountered leaves."""
    if _is_leaf(x):
        leaves.append(Leaf(path, x))
        return ("leaf",)
    if isinstance(x, (tuple, list)):
        specs = [_build(v, path + (i,), leaves) for i, v in enumerate(x)]
        return ("seq", type(x), specs)
    if isinstance(x, dict):
        keys = sorted(x.keys())
        specs = [_build(x[k], path + (k,), leaves) for k in keys]
        return ("dict", keys, specs)
    spec = _CONTAINERS.get(type(x))
    if spec is not None:
        child_specs = [_build(getattr(x, k), path + (k,), leaves) for k in spec.children]
        aux = {k: getattr(x, k) for k in spec.aux}
        return ("obj", type(x), spec.children, child_specs, aux)
    # Anything else (GridSpec, enums, callables) rides along unchanged.
    return ("atom", x)


def _rebuild(spec, it):
    kind = spec[0]
    if kind == "leaf":
        return next(it)
    if kind == "atom":
        return spec[1]
    if kind == "seq":
        _, cls, specs = spec
        return cls(_rebuild(s, it) for s in specs)
    if kind == "dict":
        _, keys, specs = spec
        return {k: _rebuild(s, it) for k, s in zip(keys, specs)}
    _, cls, children, child_specs, aux = spec
    # Structural rebuild: tangent and gradient trees reuse the container
    # classes but are not model objects, so constructor validation and
    # coercion are bypassed.
    obj = object.__new__(cls)
    for key, child_spec in zip(children, child_specs):
        object.__setattr__(obj, key, _rebuild(child_spec, it))
    for key, value in aux.items():
        object.__setattr__(obj, key, value)
    return obj


def flatten(x) -> tuple[list[Leaf], Callable[[list], Any]]:
    """Flatten x into leaves plus a rebuild function taking new leaf values."""
    leaves: list[Leaf] = []
    spec = _build(x, (), leaves)
    n = len(leaves)

    def rebuild(values):
        if len(values) != n:
            raise ShapeError(f"rebuild expected {n} leaf values, got {len(values)}")
        it = iter(values)
        return _rebuild(spec, it)

    return leaves, rebuild


def leaf_values(x) -> list:
    return [leaf.value for leaf in flatten(x)[0]]


def congruent_leaves(x, other) -> list:
    """Leaf values of `other`, validated leaf-by-leaf against the tree of x."""
    ref, _ = flatten(x)
    got, _ = flatten(other)
    if len(got) != len(ref):
        raise ShapeError(
            f"tree mismatch: expected {len(ref)} leaves, got {len(got)}"
        )
    for r, g in zip(ref, got):
        if np.shape(unbox(r.value)) != np.shape(unbox(g.value)):
            raise ShapeError(
                f"leaf {r.path} shape mismatch: "
                f"{np.shape(unbox(g.value))} vs {np.shape(unbox(r.value))}"
            )
    return [g.value for g in got]


def tree_dot(a, b) -> float:
    """Euclidean inner product over two congruent trees."""
    va = leaf_values(a)
    vb = congruent_leaves(a, b)
    total = 0.0
    for x, y in zip(va, vb):
        total += float(np.vdot(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    return total


def tree_add_scaled(x, k, c: float):
    """Return x + c*k over numeric leaves, preserving structure."""
    leaves, rebuild = flatten(x)
    kv = congruent_leaves(x, k)
    out = []
    for leaf, t in zip(leaves, kv):
        if isinstance(leaf.value, np.ndarray):
            out.append(leaf.value + c * np.asarray(t))
        else:
            out.append(float(leaf.value) + c * float(t))
    return rebuild(out)
