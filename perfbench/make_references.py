"""Compute the blow-up time references that `rel_err` is measured against.

Each benchmark run point gets T_ref from the same config solved on an
N = 801 grid, the way acceptance criterion 3 refines its reference
experiment: snapshots off (state_every = 0, which does not change T_hat)
and record_every scaled by the step-count ratio ((801 - 1) / (N - 1))^2,
so the refined run records about as many samples as the base one
(2 -> 32 for the N = 201 reference experiment, as in criterion 3).

The references are computed once and committed in references.json; the
benchmark only reads them. Run from the repository root (a few minutes):

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

from blowuplab.analysis import estimate_blowup_time
from blowuplab.config import load_config, with_axes_point
from blowuplab.solver import run

HERE = Path(__file__).resolve().parent
REF_N = 801

# (point name, config file, sweep axes index or None)
POINTS = [
    ("sweep-power-pq/run_000", "sweep_power_pq.ini", 0),
    ("sweep-power-pq/run_001", "sweep_power_pq.ini", 1),
    ("sweep-power-pq/run_002", "sweep_power_pq.ini", 2),
    ("sweep-power-pq/run_003", "sweep_power_pq.ini", 3),
]


def point_config(config_file: str, index: int | None):
    config = load_config(HERE / "configs" / config_file)
    if index is not None:
        axes = config.sweep
        flux, p, q, N = list(product(axes.flux, axes.p, axes.q, axes.N))[index]
        config = with_axes_point(config, p=p, q=q, N=N, flux=flux)
    return config


def refined_t_hat(config_file: str, index: int | None) -> dict:
    config = point_config(config_file, index)
    base = config.solver
    scale = ((REF_N - 1) // (base.N - 1)) ** 2
    refined = replace(
        base, N=REF_N, record_every=base.record_every * scale, state_every=0
    )
    traj = run(config.params, refined)
    fit = estimate_blowup_time(traj, config.params, residual_max=config.residual_max)
    return {
        "config": f"perfbench/configs/{config_file}",
        "p": config.params.p,
        "q": config.params.q,
        "flux": config.params.flux.value,
        "base_N": base.N,
        "N": REF_N,
        "record_every": refined.record_every,
        "steps": traj.steps,
        "t_ref": fit.t_hat,
    }


def main() -> int:
    points = {name: refined_t_hat(config_file, index)
              for name, config_file, index in POINTS}
    doc = {
        "method": (
            "T_ref is blowup.T_hat of the same config re-solved at N = 801 "
            "with state_every = 0 and record_every scaled by "
            "((801 - 1) / (N - 1))^2, as acceptance criterion 3 refines its "
            "reference run; computed once by perfbench/make_references.py"
        ),
        "tolerance": 0.01,
        "oracle": {
            "target": -0.5,
            "note": "exact jump -phi/2 for the unit density of `oracle jump`",
        },
        "points": points,
    }
    (HERE / "references.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
