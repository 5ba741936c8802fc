"""Shared fixtures: the acc-mini reference configuration and derived states,
and the one determinism policy of the property tests."""

import pytest
from hypothesis import settings

from diffocean import scenarios
from diffocean.config import parse_config
from diffocean.dyncore import step_n

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline; each test states only its
# example count.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def acc_mini_setup():
    cfg = parse_config("acc-mini.conf")
    g = scenarios.build_grid(cfg)
    p = scenarios.build_params(cfg, g)
    c = scenarios.build_step_config(cfg)
    return cfg, g, p, c


@pytest.fixture(scope="session")
def acc_mini_spun(acc_mini_setup):
    """Spun-up evaluation point used by the gradient-check criteria."""
    cfg, g, p, c = acc_mini_setup
    state0 = scenarios.build_initial_state(cfg, g, p)
    w = step_n(state0, cfg.gradcheck.spinup_steps, p, g, c)
    return cfg, g, p, c, w
