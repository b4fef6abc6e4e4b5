"""The benchmark's replay of the program paths still runs and still
writes what the program writes.

perfbench/replay.py calls validate_initial_data, boundary_set_check,
rate_bound_check and step positionally, so a signature change in the
package breaks the benchmark. The sweep and validate replays run its
entry point in a fresh process as the benchmark does; the isolated
step timing and the oracle replays are called in this process, with
replay.py imported after blowuplab as the benchmark imports it.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import blowuplab
from blowuplab.cli import main
from blowuplab.config import load_config

REPO = Path(__file__).resolve().parent.parent
ENTRY = REPO / "perfbench" / "entry.py"
SWEEP_CONFIG = REPO / "perfbench" / "configs" / "sweep_power_pq.ini"


def entry(out: Path, *args: str) -> dict:
    src = str(Path(blowuplab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ENTRY), str(out), "replay", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def tree(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_replayed_sweep_writes_the_sweep_verb_tree(tmp_path):
    entry(tmp_path / "sweep.json", "sweep", str(SWEEP_CONFIG),
          str(tmp_path / "replay"), "1")
    main(["sweep", str(SWEEP_CONFIG), "--output-dir", str(tmp_path / "verb"),
          "--max-parallel", "1", "--quiet"])
    replayed = tree(tmp_path / "replay")
    assert len(replayed) == 13  # sweep.csv and three files for each point
    assert replayed == tree(tmp_path / "verb")


def test_replayed_validate_passes(tmp_path):
    assert entry(tmp_path / "validate.json", "validate", str(SWEEP_CONFIG))["passed"]


def test_replayed_step_and_oracles_run(monkeypatch):
    # replay.py and spans.py are top-level modules of perfbench/
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    replay = importlib.import_module("replay")
    null = importlib.import_module("spans").NullTracer()
    us = replay.step_us(load_config(SWEEP_CONFIG), calls=2, batches=1)
    assert 0.0 < us < math.inf
    verdicts = replay.oracles(null, replay.quadratures(null), ["jump_m48", "ode"])
    assert {name: passed for name, (passed, _) in verdicts.items()} == {
        "jump_m48": True, "ode": True,
    }
