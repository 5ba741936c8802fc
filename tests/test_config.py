"""Config file parsing, validation, overrides, and echo round-trip."""

import numpy as np
import pytest

from diffocean.config import parse_config, render_config
from diffocean.dyncore import cfl_limit
from diffocean.errors import ConfigError
from diffocean.scenarios import build_grid

MINIMAL = """
seed = 7

[grid]
nx = 16
ny = 12
Lx = 1.6e6
Ly = 1.2e6
H = 200.0
f0 = -1e-4
beta = 2e-11

[stepping]
dt = 200.0

[output]
directory = out
"""


def write(tmp_path, text, name="test.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_shipped_acc_mini_has_reference_values():
    cfg = parse_config("acc-mini.conf")
    assert cfg.physics.A_h == 3435.5036038313715
    assert cfg.physics.r_bot == 1e-5
    assert cfg.grid.nx == 64 and cfg.grid.ny == 48
    assert cfg.grid.Lx == 4.0e6 and cfg.grid.Ly == 3.0e6
    assert cfg.grid.H == 500.0
    assert cfg.physics.tau0 == 0.1
    assert cfg.stepping.dt == 150.0
    assert cfg.physics.drag_mode == "linear"


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.seed == 7
    assert cfg.physics.g == 9.81
    assert cfg.gradcheck.eps == 1e-4
    assert cfg.benchmark.n_list == (8, 16, 32, 64, 128)


def test_empty_file_lists_required_sections(tmp_path):
    with pytest.raises(ConfigError, match="required sections"):
        parse_config(write(tmp_path, ""))


def test_negative_A_h_rejected_with_line_number(tmp_path):
    text = MINIMAL + "\n[physics]\nA_h = -1\n"
    lineno = text.splitlines().index("A_h = -1") + 1
    with pytest.raises(ConfigError, match=f":{lineno}: A_h: .*non-negative"):
        parse_config(write(tmp_path, text))


def test_unknown_key_rejected_with_line_number(tmp_path):
    text = MINIMAL + "\n[physics]\nA_horizontal = 5\n"
    with pytest.raises(ConfigError, match="unknown key 'A_horizontal'"):
        parse_config(write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    text = MINIMAL + "\n[quantum]\nspin = up\n"
    with pytest.raises(ConfigError, match=r"unknown section \[quantum\]"):
        parse_config(write(tmp_path, text))


def test_type_error_carries_line_number(tmp_path):
    text = MINIMAL.replace("nx = 16", "nx = sixteen")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(write(tmp_path, text))


def test_duplicate_key_rejected(tmp_path):
    text = MINIMAL + "\n[grid]\nnx = 8\n"
    with pytest.raises(ConfigError, match="duplicate key 'nx'"):
        parse_config(write(tmp_path, text))


def test_missing_required_key_rejected(tmp_path):
    text = MINIMAL.replace("H = 200.0", "")
    with pytest.raises(ConfigError, match="missing required key 'H'"):
        parse_config(write(tmp_path, text))


def test_small_grid_rejected(tmp_path):
    text = MINIMAL.replace("nx = 16", "nx = 3")
    with pytest.raises(ConfigError, match="nx must be at least 4"):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("physics", "drag_mode", "cubic"),
        # auto-cfl is a value of dt only; other keys check it like any string.
        ("physics", "drag_mode", "auto-cfl"),
        ("stepping", "boundary", "auto-cfl"),
    ],
)
def test_bad_choice_rejected(tmp_path, section, key, value):
    text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=f"{key}: {key} must be one of"):
        parse_config(write(tmp_path, text))


def test_auto_cfl_resolves_dt(tmp_path):
    text = MINIMAL.replace("dt = 200.0", "dt = auto-cfl")
    cfg = parse_config(write(tmp_path, text))
    c = np.sqrt(9.81 * 200.0)
    dx = 1.6e6 / 16
    expected = 0.5 * 0.7 / (c * (1.0 / dx))
    assert cfg.stepping.dt == pytest.approx(expected, rel=1e-12)
    assert cfg.stepping.dt == 0.5 * cfl_limit(build_grid(cfg), cfg.physics.g)


def test_overrides_applied_before_validation(tmp_path):
    path = write(tmp_path, MINIMAL)
    cfg = parse_config(path, overrides=["physics.A_h=123.5", "seed=99"])
    assert cfg.physics.A_h == 123.5
    assert cfg.seed == 99
    with pytest.raises(ConfigError, match="--set"):
        parse_config(path, overrides=["physics.A_h=-2"])
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path, overrides=["physics.nope=1"])
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_config(path, overrides=["physics.A_h"])


@pytest.mark.parametrize("key", ["spinup_steps", "window_steps", "obs_every"])
def test_sensitivity_has_no_window_keys(key):
    # The sensitivity grid maps the calibration loss over the [calibrate]
    # window; it has no observation window of its own.
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("acc-mini.conf", [f"sensitivity.{key}=40"])


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# leading comment\n\n" + MINIMAL + "\n[physics]\nA_h = 5.0  # inline\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.physics.A_h == 5.0


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("no-such-file.conf")


def test_render_round_trips(tmp_path):
    cfg = parse_config("acc-mini.conf")
    echoed = write(tmp_path, render_config(cfg), "resolved.conf")
    cfg2 = parse_config(echoed)
    assert cfg2.seed == cfg.seed
    for section in ("grid", "physics", "stepping", "calibrate", "benchmark"):
        assert dict(cfg2.section(section).items()) == dict(
            cfg.section(section).items()
        )


def test_sections_are_read_only():
    cfg = parse_config("acc-mini.conf")
    with pytest.raises(AttributeError):
        cfg.grid.nx = 8
