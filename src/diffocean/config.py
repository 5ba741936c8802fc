"""Line-based configuration files: "key = value" under [section] headers.

The format is deliberately plain: '#' starts a comment, every key belongs
to a fixed schema, and unknown sections or keys are errors with line
numbers (no silent typos). Physical values are validated against the model
type invariants after parsing, so a bad value is rejected before any model
object is built. `--set section.key=value` overrides are applied after the
file is parsed and before validation.

_SCHEMA states every section and key once: parse_config returns a
RunConfig built from it, read as cfg.seed and cfg.<section>.<key>, and
render_config writes it back in schema order.
"""

from __future__ import annotations

import importlib.resources
import math
import os
from dataclasses import dataclass

from .dyncore import DRAG_MODES, cfl_limit
from .errors import ConfigError
from .grid import WALL_RULES, make_channel_grid

AUTO_CFL = "auto-cfl"
AUTO_CFL_FRACTION = 0.5
# The sensitivity grid spans truth * 10**(+-decades): at most 100 decades
# keeps the factor finite, and the ends finite and non-zero for any truth
# within 1e-208..1e208.
MAX_DECADES = 100


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"expected an integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    """A finite real; no key takes inf or nan, nor a value that overflows."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_dt(text: str):
    if text == AUTO_CFL:
        return AUTO_CFL
    return _parse_float(text)


@dataclass(frozen=True)
class _Key:
    parse: callable
    default: object = None  # None with required=True means "must appear"
    required: bool = False
    check: callable = None  # value -> error message or None


def _positive(name):
    return lambda v: None if v > 0 else f"{name} must be positive"


def _non_negative(name):
    return lambda v: None if v >= 0 else f"{name} must be non-negative (invariant)"


def _at_least(name, bound):
    return lambda v: None if v >= bound else f"{name} must be at least {bound}"


def _in_range(name, upper):
    return lambda v: None if 0 < v <= upper else f"{name} must lie in (0, {upper}]"


def _step_counts(distinct, what):
    def check(v):
        if len(set(v)) < distinct or min(v) < 1:
            return f"needs {what} or more, each at least 1"
    return check


def _choice(name, options):
    return lambda v: None if v in options else f"{name} must be one of {options}"


_SCHEMA: dict[str | None, dict[str, _Key]] = {
    None: {
        "seed": _Key(_parse_int, default=0, check=_non_negative("seed")),
    },
    "grid": {
        "nx": _Key(_parse_int, required=True, check=_at_least("nx", 4)),
        "ny": _Key(_parse_int, required=True, check=_at_least("ny", 4)),
        "Lx": _Key(_parse_float, required=True, check=_positive("Lx")),
        "Ly": _Key(_parse_float, required=True, check=_positive("Ly")),
        "H": _Key(_parse_float, required=True, check=_positive("H")),
        "f0": _Key(_parse_float, required=True),
        "beta": _Key(_parse_float, required=True),
    },
    "physics": {
        "A_h": _Key(_parse_float, default=0.0, check=_non_negative("A_h")),
        "r_bot": _Key(_parse_float, default=0.0, check=_non_negative("r_bot")),
        "drag_mode": _Key(
            str, default="linear",
            check=_choice("drag_mode", DRAG_MODES),
        ),
        "C_d": _Key(_parse_float, default=0.0, check=_non_negative("C_d")),
        "g": _Key(_parse_float, default=9.81, check=_positive("g")),
        "rho0": _Key(_parse_float, default=1024.0, check=_positive("rho0")),
        "tau0": _Key(_parse_float, default=0.0),
        "wind_band": _Key(_parse_float, default=0.5, check=_in_range("wind_band", 1)),
        "kappa_T": _Key(_parse_float, default=0.0, check=_non_negative("kappa_T")),
        "lambda_relax": _Key(
            _parse_float, default=0.0, check=_non_negative("lambda_relax")
        ),
        "T_star_south": _Key(_parse_float, default=15.0),
        "T_star_north": _Key(_parse_float, default=15.0),
    },
    "stepping": {
        "dt": _Key(_parse_dt, required=True),
        "n_steps": _Key(_parse_int, default=1, check=_non_negative("n_steps")),
        "boundary": _Key(
            str, default="free-slip",
            check=_choice("boundary", tuple(WALL_RULES)),
        ),
    },
    "initial": {
        "noise_u": _Key(_parse_float, default=0.05, check=_non_negative("noise_u")),
        "noise_eta": _Key(
            _parse_float, default=0.0, check=_non_negative("noise_eta")
        ),
    },
    "output": {
        "directory": _Key(str, required=True),
        "snapshot_every": _Key(
            _parse_int, default=0, check=_non_negative("snapshot_every")
        ),
    },
    "gradcheck": {
        "spinup_steps": _Key(
            _parse_int, default=100, check=_non_negative("spinup_steps")
        ),
        "eps": _Key(_parse_float, default=1e-4, check=_positive("eps")),
        "n_list": _Key(
            _parse_int_list, default=(1, 2, 4, 8, 16, 32),
            check=_step_counts(1, "one step count"),
        ),
        "rbot_scale": _Key(_parse_float, default=0.5, check=_positive("rbot_scale")),
    },
    "reconstruct": {
        "l_steps": _Key(_parse_int, default=4, check=_at_least("l_steps", 1)),
        "alpha": _Key(_parse_float, default=0.25, check=_positive("alpha")),
        "iters": _Key(_parse_int, default=60, check=_at_least("iters", 1)),
        "amplitude": _Key(_parse_float, default=1.0),
        "sigma_frac": _Key(_parse_float, default=0.0625, check=_positive("sigma_frac")),
    },
    "calibrate": {
        "init_scale_Ah": _Key(
            _parse_float, default=1.5, check=_positive("init_scale_Ah")
        ),
        "init_scale_rbot": _Key(
            _parse_float, default=0.5, check=_positive("init_scale_rbot")
        ),
        "spinup_steps": _Key(
            _parse_int, default=100, check=_non_negative("spinup_steps")
        ),
        "window_steps": _Key(
            _parse_int, default=500, check=_at_least("window_steps", 1)
        ),
        "obs_every": _Key(_parse_int, default=50, check=_at_least("obs_every", 1)),
        "alpha": _Key(_parse_float, default=25.0, check=_positive("alpha")),
        "iters": _Key(_parse_int, default=150, check=_at_least("iters", 1)),
    },
    "sensitivity": {
        "n_a": _Key(_parse_int, default=7, check=_at_least("n_a", 3)),
        "n_r": _Key(_parse_int, default=7, check=_at_least("n_r", 3)),
        "decades": _Key(
            _parse_float, default=1.0, check=_in_range("decades", MAX_DECADES)
        ),
    },
    "benchmark": {
        "n_list": _Key(
            _parse_int_list, default=(8, 16, 32, 64, 128),
            check=_step_counts(2, "two distinct step counts"),
        ),
        "repetitions": _Key(_parse_int, default=5, check=_at_least("repetitions", 3)),
    },
}

# The sections that hold a required key, in schema order.
_REQUIRED_SECTIONS = tuple(
    name for name, keys in _SCHEMA.items() if any(k.required for k in keys.values())
)


class Section:
    """Read-only attribute view of one configuration section (name None:
    the top level)."""

    def __init__(self, name: str | None, values: dict):
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_values", dict(values))

    def __getattr__(self, key):
        try:
            return self._values[key]
        except KeyError as exc:
            place = f"[{self._name}]" if self._name else "the top level"
            raise AttributeError(f"{place} has no key {key!r}") from exc

    def __setattr__(self, key, value):
        raise AttributeError("configuration sections are read-only")

    def items(self):
        return self._values.items()


class RunConfig(Section):
    """A validated configuration: the top level of _SCHEMA as a Section
    whose values are its top-level keys (cfg.seed) and one Section per
    [section] (cfg.grid.nx)."""

    def section(self, name: str) -> Section:
        return getattr(self, name)


def packaged_config_path(name: str):
    """Path to a config shipped inside the package (e.g. 'acc-mini.conf')."""
    return importlib.resources.files("diffocean.configs").joinpath(name)


def resolve_config_path(path: str) -> str:
    if os.path.exists(path):
        return path
    candidate = packaged_config_path(os.path.basename(path))
    if candidate.is_file():
        return str(candidate)
    raise ConfigError(f"config file not found: {path}")


def _parse_key(section, key: str, text: str, where: str):
    """One schema value parsed from text; errors name the location."""
    spec = _SCHEMA.get(section, {}).get(key)
    if spec is None:
        place = f"[{section}]" if section else "top level"
        raise ConfigError(f"{where}: unknown key {key!r} in {place}")
    try:
        return spec.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def _parse_lines(lines, source: str):
    """Raw pass: (section, key) -> (value, location), with line numbers."""
    raw: dict[tuple, tuple] = {}
    section = None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        where = f"{source}:{lineno}"
        if text.startswith("["):
            if not text.endswith("]"):
                raise ConfigError(f"{where}: malformed section header {text!r}")
            section = text[1:-1].strip()
            if section not in _SCHEMA or section is None:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if (section, key) in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        raw[(section, key)] = (_parse_key(section, key, value.strip(), where), where)
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply --set section.key=value pairs on top of parsed file values."""
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        keypath, _, value = item.partition("=")
        keypath = keypath.strip()
        section, key = keypath.split(".", 1) if "." in keypath else (None, keypath)
        where = f"--set {keypath}"
        out[(section, key)] = (_parse_key(section, key, value.strip(), where), where)
    return out


def _validate_and_fill(raw: dict, source: str) -> RunConfig:
    present_sections = {section for (section, _key) in raw if section}
    missing = [s for s in _REQUIRED_SECTIONS if s not in present_sections]
    if missing:
        raise ConfigError(
            f"{source}: missing required sections {missing}; "
            f"required sections are {list(_REQUIRED_SECTIONS)}"
        )

    values: dict[str | None, dict] = {}
    for section, schema in _SCHEMA.items():
        sec_values = {}
        for key, spec in schema.items():
            if (section, key) in raw:
                value, where = raw[(section, key)]
            elif spec.required:
                place = f"[{section}]" if section else "top level"
                raise ConfigError(f"{source}: missing required key {key!r} in {place}")
            else:
                value, where = spec.default, "default"
            if spec.check is not None:
                message = spec.check(value)
                if message is not None:
                    raise ConfigError(f"{where}: {key}: {message}")
            sec_values[key] = value
        values[section] = sec_values

    # The finite-difference probes scale r_bot by rbot_scale +- eps.
    gradcheck = values["gradcheck"]
    if not gradcheck["eps"] < gradcheck["rbot_scale"]:
        raise ConfigError(
            f"{source}: gradcheck.eps = {gradcheck['eps']} must be smaller than "
            f"gradcheck.rbot_scale = {gradcheck['rbot_scale']}, so that the probe "
            f"r_bot = (rbot_scale - eps) * truth stays positive"
        )

    # Resolve auto-cfl once grid and gravity are known.
    stepping = values["stepping"]
    if stepping["dt"] == AUTO_CFL:
        grid = make_channel_grid(**values["grid"])
        stepping["dt"] = AUTO_CFL_FRACTION * cfl_limit(grid, values["physics"]["g"])
    if not stepping["dt"] > 0:
        raise ConfigError(f"{source}: stepping dt must be positive")

    top = values.pop(None)
    return RunConfig(None, {**top, **{name: Section(name, v) for name, v in values.items()}})


def parse_config(path, overrides=None) -> RunConfig:
    """Parse and validate a config file, applying --set overrides if given."""
    path = resolve_config_path(str(path))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text (byte {exc.start})") from exc
    raw = _parse_lines(lines, path)
    raw = apply_overrides(raw, overrides)
    return _validate_and_fill(raw, path)


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Render a RunConfig in the same parseable format (resolved values)."""
    lines = [f"seed = {cfg.seed}", ""]
    for name in filter(None, _SCHEMA):
        lines.append(f"[{name}]")
        for key, value in cfg.section(name).items():
            lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    return "\n".join(lines)
