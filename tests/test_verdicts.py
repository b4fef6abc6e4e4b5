"""The verdicts of the five-key configs: only p, q, R, n and flux given.

Each row pins overall.status and run.stop_reason of one family and
dimension at R = 1 through run_experiment, so any change to a verdict
fails here. Power blows up and passes every check; the exponential
families stop on step_underflow before their threshold, so they stay
inconclusive.
"""

import pytest

from blowuplab.cli import run_experiment
from blowuplab.config import parse_config

PASS = ("pass", "blowup_threshold")
UNDERFLOW = ("inconclusive", "step_underflow")

VERDICTS = {
    ("exp_power", 2, 1): UNDERFLOW,
    ("exp_power", 2, 2): UNDERFLOW,
    ("exp_power", 2, 3): UNDERFLOW,
    ("power", 2, 1): PASS,
    ("power", 2, 2): PASS,
    ("power", 2, 3): PASS,
    ("exp_linear", 1, 1): UNDERFLOW,
    ("exp_linear", 1, 2): UNDERFLOW,
    ("exp_linear", 1, 3): UNDERFLOW,
}


def _five_keys(flux, e, n, R=1.0):
    return f"[problem]\np = {e}\nq = {e}\nR = {R}\nn = {n}\nflux = {flux}\n"


@pytest.mark.parametrize("flux, e, n", VERDICTS)
def test_five_key_verdict(flux, e, n, tmp_path):
    entries = run_experiment(parse_config(_five_keys(flux, e, n)), tmp_path)
    assert (entries["overall.status"], entries["run.stop_reason"]) == VERDICTS[
        flux, e, n]


def test_five_key_power_passes_in_a_smaller_ball(tmp_path):
    # the interior radius defaults to R/2, inside any ball
    entries = run_experiment(parse_config(_five_keys("power", 2, 2, R=0.4)), tmp_path)
    assert (entries["overall.status"], entries["run.stop_reason"]) == PASS
