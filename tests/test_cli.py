import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import blowuplab

from blowuplab.cli import (
    SWEEP_COLUMNS,
    main,
    read_report,
    run_experiment,
    sweep,
    write_report,
)
from blowuplab import solver
from blowuplab.analysis import rate_bound_check
from blowuplab.comparison import dominance_check
from blowuplab.config import parse_config, with_axes_point
from blowuplab.errors import ConfigError
from blowuplab.model import FluxFamily
from blowuplab.solver import COLUMNS

REFERENCE = """\
[problem]
p = 2
q = 2
R = 1.0
n = 2
flux = exp_power

[solver]
u_stop = 9.0
record_every = 2
"""

POWER_N3 = """\
[problem]
p = 2
q = 2
R = 1.0
n = 3
flux = power
"""

# power, p = q = 2, n = 2 from u0 = 1 - 1e-9 r^2
POWER_DIP = POWER_N3.replace("n = 3", "n = 2") + "u0_base = 1\nu0_quad = -1e-9\n"

TINY = """\
[problem]
p = 2
q = 2
R = 1.0
n = 2
flux = exp_power

[solver]
t_end = 1e-5
"""


@pytest.fixture(scope="module")
def ref_run(tmp_path_factory):
    """One full pipeline execution of the reference blow-up experiment."""
    config = parse_config(REFERENCE)
    out = tmp_path_factory.mktemp("ref")
    artifacts = run_experiment(config, out)
    return config, artifacts, read_report(artifacts.report)


class TestReportIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report({"a.x": 0.1, "a.ok": True, "b.note": "fine"}, path)
        entries = read_report(path)
        assert entries == {"a.x": "0.1", "a.ok": "true", "b.note": "fine"}

    def test_floats_survive_exactly(self, tmp_path):
        path = tmp_path / "report.txt"
        value = 0.010899422550334688
        write_report({"blowup.T_hat": value}, path)
        assert float(read_report(path)["blowup.T_hat"]) == value


class TestRunExperiment:
    def test_reference_run_passes(self, ref_run):
        _, artifacts, report = ref_run
        assert artifacts.exit_code == 0
        assert artifacts.status == "pass"
        assert report["overall.status"] == "pass"
        assert report["run.stop_reason"] == "blowup_threshold"

    def test_reference_run_rates(self, ref_run):
        _, _, report = ref_run
        assert float(report["blowup.T_hat"]) == pytest.approx(
            0.010899422450143716, rel=1e-9
        )
        assert float(report["rate.alpha_hat"]) <= 1.1
        assert float(report["rate.beta_hat"]) <= 1.1

    def test_reference_run_fit_brackets_the_stop(self, ref_run):
        _, _, report = ref_run
        t_stop = float(report["run.t_stop"])
        assert t_stop < float(report["blowup.T_hat"])
        assert float(report["blowup.window_hi"]) <= t_stop
        assert math.isfinite(float(report["rate.sup_u"]))
        assert float(report["rate.trend_u"]) <= 1.2
        assert float(report["boundary.interior_sup_u"]) < (
            float(report["blowup.c1_hat"]) * 10
        )

    def test_artifact_files_exist(self, ref_run):
        _, artifacts, _ = ref_run
        assert artifacts.trajectory.exists()
        assert artifacts.report.exists()
        assert artifacts.config_echo.exists()

    def test_trajectory_header(self, ref_run):
        _, artifacts, _ = ref_run
        header = artifacts.trajectory.read_text().splitlines()[0]
        assert header == ",".join(COLUMNS)

    def test_config_echo_parses_back(self, ref_run):
        config, artifacts, _ = ref_run
        assert parse_config(artifacts.config_echo.read_text()) == config

    def test_repeat_runs_are_byte_identical(self, ref_run, tmp_path):
        config, artifacts, _ = ref_run
        again = run_experiment(config, tmp_path)
        assert again.trajectory.read_bytes() == artifacts.trajectory.read_bytes()
        assert again.report.read_bytes() == artifacts.report.read_bytes()

    def test_time_limited_run_is_inconclusive(self, tmp_path):
        artifacts = run_experiment(parse_config(TINY), tmp_path)
        report = read_report(artifacts.report)
        assert artifacts.exit_code == 0
        assert artifacts.status == "inconclusive"
        assert report["run.stop_reason"] == "time_limit"
        for name in ("rate", "boundary", "dominance"):
            assert report[f"{name}.status"].startswith("inconclusive")
        assert math.isnan(float(report["blowup.T_hat"]))

    def test_under_resolved_run_fails_with_diagnostic(self, tmp_path):
        config = parse_config(REFERENCE.replace("record_every = 2", "N = 16"))
        artifacts = run_experiment(config, tmp_path)
        assert artifacts.exit_code == 2
        report = read_report(artifacts.report)
        assert report["rate.status"].startswith("fail")

    def test_dominance_failures_of_both_fields_are_reported(self, tmp_path):
        # halving C1 puts the comparison function below u and v alike
        config = parse_config(
            "[problem]\np = 2\nq = 2\nR = 1.0\nn = 2\nflux = power\n"
            "[solver]\nN = 41\n[analysis]\ndominance_scale = 0.5\n"
        )
        artifacts = run_experiment(config, tmp_path)
        report = read_report(artifacts.report)
        assert artifacts.exit_code == 2
        assert report["dominance.status"] == (
            "fail: z - u reaches -8.997656e+00 at r = 1, t = 0.211561 "
            "with C1 = 1.66697; z - v reaches -8.997656e+00 at r = 1, "
            "t = 0.211561 with C1 = 1.66697"
        )

    def test_non_finite_rate_supremum_leaves_that_field_unchecked(
        self, tmp_path, monkeypatch,
    ):
        # a supremum of inf would select C1 = inf and pass with margin
        # inf: u's dominance check is not run, and its entries are nan
        def unbounded_u(*args, **kwargs):
            bound = rate_bound_check(*args, **kwargs)
            return dataclasses.replace(bound, rate_sup_u=math.inf)

        fields = []

        def spy(*args, field, **kwargs):
            fields.append(field)
            return dominance_check(*args, field=field, **kwargs)

        monkeypatch.setattr("blowuplab.cli.rate_bound_check", unbounded_u)
        monkeypatch.setattr("blowuplab.cli.dominance_check", spy)
        config = parse_config(
            "[problem]\np = 2\nq = 2\nR = 1.0\nn = 2\nflux = power\n"
            "[solver]\nN = 41\n"
        )
        artifacts = run_experiment(config, tmp_path)
        report = read_report(artifacts.report)
        assert fields == ["v"]
        assert math.isnan(float(report["dominance.margin_u"]))
        assert math.isnan(float(report["dominance.c1_u"]))
        assert float(report["dominance.margin_v"]) > 0
        assert report["dominance.status"] == (
            "inconclusive: rate.sup_u = inf leaves C1 unbounded"
        )


# report.txt keys in the order the run writes them, block by block
_RUN_KEYS = [
    "run.stop_reason", "run.stop_detail", "run.t_stop", "run.steps",
    "run.samples",
]
_FIT_KEYS = [
    "blowup.T_hat", "blowup.c1_hat", "blowup.c2_hat", "blowup.residual",
    "blowup.window_lo", "blowup.window_hi",
    "rate.alpha_hat", "rate.beta_hat", "rate.sup_u", "rate.sup_v",
    "rate.trend_u", "rate.trend_v",
]
_BOUNDARY_KEYS = [
    "boundary.interior_sup_u", "boundary.interior_sup_v",
    "boundary.growth_u", "boundary.growth_v", "boundary.argmax_at_boundary",
    "boundary.envelope_u", "boundary.envelope_v",
]
_DOMINANCE_KEYS = [
    "dominance.margin_u", "dominance.c1_u", "dominance.margin_v",
    "dominance.c1_v",
]
_STATUS_KEYS = [
    "rate.status", "boundary.status", "dominance.status", "overall.status",
    "overall.exit_code",
]


@pytest.mark.parametrize("text, status, keys", [
    (REFERENCE, "pass",
     _RUN_KEYS + _FIT_KEYS + _BOUNDARY_KEYS + _DOMINANCE_KEYS + _STATUS_KEYS),
    (REFERENCE + "\n[analysis]\nresidual_max = 1e-9\n", "fail",
     _RUN_KEYS + _FIT_KEYS + _STATUS_KEYS),
    (TINY, "inconclusive", _RUN_KEYS + _FIT_KEYS + _STATUS_KEYS),
    (REFERENCE + "state_every = 0\n", "inconclusive",
     _RUN_KEYS + _FIT_KEYS + _BOUNDARY_KEYS + _STATUS_KEYS),
], ids=["pass", "fit_failure", "t_end", "state_every_0"])
def test_report_key_sequence(text, status, keys, tmp_path):
    artifacts = run_experiment(parse_config(text), tmp_path)
    assert artifacts.status == status
    assert list(read_report(artifacts.report)) == keys


def serial_pool(sizes):
    """A stand-in for ProcessPoolExecutor that appends its size to sizes
    and maps serially: no process is started."""

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    return SerialPool


@pytest.fixture(scope="module")
def pq_sweep(tmp_path_factory):
    config = parse_config(REFERENCE + "\n[sweep]\np = 2, 3\n")
    out = tmp_path_factory.mktemp("sweep")
    summary = sweep(config, out)
    return config, out, summary.read_text()


class TestSweep:
    def test_one_row_per_point(self, pq_sweep):
        _, out, text = pq_sweep
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        assert (out / "run_000" / "report.txt").exists()
        assert (out / "run_001" / "report.txt").exists()

    def test_rate_columns_within_family_bounds(self, pq_sweep):
        _, _, text = pq_sweep
        rows = [line.split(",") for line in text.splitlines()[1:]]
        by_p = {float(row[0]): row for row in rows}
        alpha = SWEEP_COLUMNS.index("alpha_hat")
        # alpha = (p + 1) / (pq - 1): 1 at p = q = 2, 0.8 at p = 3, q = 2
        assert float(by_p[2.0][alpha]) <= 1.1
        assert float(by_p[3.0][alpha]) <= 0.88

    def test_parallel_sweep_is_byte_identical(self, pq_sweep, tmp_path):
        config, _, text = pq_sweep
        summary = sweep(config, tmp_path, max_parallel=2)
        assert summary.read_text() == text

    def test_flux_axis_routes_all_families(self, tmp_path):
        config = parse_config(
            TINY + "\n[sweep]\nflux = exp_power, power, exp_linear\n"
        )
        summary = sweep(config, tmp_path)
        rows = [line.split(",") for line in summary.read_text().splitlines()[1:]]
        tag = SWEEP_COLUMNS.index("flux")
        assert [row[tag] for row in rows] == ["exp_power", "power", "exp_linear"]

    def test_invalid_point_keeps_its_row(self, tmp_path):
        # p = 0.5 violates the power-family constraint; the sweep goes on
        config = parse_config(
            TINY.replace("flux = exp_power", "flux = power")
            + "\n[sweep]\np = 0.5, 2\n"
        )
        rows = sweep(config, tmp_path).read_text().splitlines()[1:]
        status = SWEEP_COLUMNS.index("status")
        cells = [row.split(",") for row in rows]
        assert cells[0][status].startswith("invalid")
        assert cells[1][status] == "inconclusive"
        # a status cell must not smuggle in extra CSV separators
        assert all(len(row.split(",")) == len(SWEEP_COLUMNS) for row in rows)

    def test_failed_run_keeps_its_row(self, tmp_path):
        config = parse_config(TINY + "\n[sweep]\nN = 8, 201\n")
        rows = sweep(config, tmp_path).read_text().splitlines()[1:]
        status = SWEEP_COLUMNS.index("status")
        assert rows[0].split(",")[status] == "error: GridTooCoarse"
        assert rows[1].split(",")[status] == "inconclusive"

    def test_run_cap(self, tmp_path):
        config = parse_config(TINY + "\n[sweep]\np = 2, 3\nmax_runs = 1\n")
        with pytest.raises(ConfigError, match="cap is 1"):
            sweep(config, tmp_path)

    @pytest.mark.parametrize("max_parallel, points, workers", [
        (5000, "2, 3", 2),
        (2, "2, 2.5, 3", 2),
        (8, "2", None),
    ])
    def test_pool_is_sized_to_the_runs(self, tmp_path, monkeypatch,
                                       max_parallel, points, workers):
        sizes = []
        monkeypatch.setattr("blowuplab.cli.ProcessPoolExecutor", serial_pool(sizes))
        config = parse_config(TINY + f"\n[sweep]\np = {points}\n")
        summary = sweep(config, tmp_path / "pool", max_parallel=max_parallel)
        assert sizes == ([] if workers is None else [workers])
        serial = sweep(config, tmp_path / "serial")
        assert summary.read_text() == serial.read_text()


# a symmetric 2 x 2 sweep, every run to blow-up
MIRRORED = """\
[problem]
p = 2
q = 2
R = 1.0
n = 2
flux = power

[solver]
N = 41

[sweep]
p = 2, 3
q = 2, 3
"""


def count_solves(monkeypatch, calls):
    """Make every solve of a sweep append its (p, q) to the file calls;
    the pool's workers are forked from this process, so theirs count too."""

    def counting_run(params, config):
        with open(calls, "a") as f:
            f.write(f"{params.p} {params.q}\n")
        return solver.run(params, config)

    monkeypatch.setattr("blowuplab.cli.run", counting_run)


def assert_points_write_their_own_runs(config, sweep_dir, points, tmp_path):
    """Each point's three files in sweep_dir are its own run's, byte for byte."""
    for index, (p, q) in enumerate(points):
        point = with_axes_point(config, p=p, q=q, N=41, flux=FluxFamily.POWER)
        run_experiment(point, tmp_path / f"direct_{index}")
        for name in ("trajectory.csv", "report.txt", "config.ini"):
            got = sweep_dir / f"run_{index:03d}" / name
            assert got.read_bytes() == (tmp_path / f"direct_{index}" / name).read_bytes()


class TestSweepMirrors:
    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.parametrize("problem, solves", [
        ("", ["2.0 2.0", "2.0 3.0", "3.0 3.0"]),
        # u0 != v0: no point is another's mirror
        ("u0_base = 0.25\n", ["2.0 2.0", "2.0 3.0", "3.0 2.0", "3.0 3.0"]),
    ], ids=["symmetric", "asymmetric"])
    def test_a_mirror_pair_is_solved_once(self, tmp_path, monkeypatch,
                                          max_parallel, problem, solves):
        calls = tmp_path / "calls"
        count_solves(monkeypatch, calls)
        text = MIRRORED.replace("flux = power\n", "flux = power\n" + problem)
        summary = sweep(parse_config(text), tmp_path / "out", max_parallel)
        assert sorted(calls.read_text().splitlines()) == solves
        assert len(summary.read_text().splitlines()) == 5

    @pytest.mark.parametrize("max_parallel", [1, 2])
    def test_a_repeated_axis_value_shares_one_solve(self, tmp_path, monkeypatch,
                                                    max_parallel):
        # six points, three distinct runs up to mirroring: (2, 2) twice,
        # (2, 3) twice with its mirror (3, 2), and (3, 3)
        calls = tmp_path / "calls"
        count_solves(monkeypatch, calls)
        config = parse_config(MIRRORED.replace("p = 2, 3\nq", "p = 2, 2, 3\nq"))
        sweep(config, tmp_path / "sweep", max_parallel)
        assert sorted(calls.read_text().splitlines()) == ["2.0 2.0", "2.0 3.0", "3.0 3.0"]
        points = [(p, q) for p in (2.0, 2.0, 3.0) for q in (2.0, 3.0)]
        assert_points_write_their_own_runs(config, tmp_path / "sweep", points, tmp_path)

    def test_pool_is_sized_to_the_jobs(self, tmp_path, monkeypatch):
        # (2, 2), the pair (2, 3) and (3, 2), and (3, 3)
        sizes = []
        monkeypatch.setattr("blowuplab.cli.ProcessPoolExecutor", serial_pool(sizes))
        sweep(parse_config(MIRRORED), tmp_path, max_parallel=8)
        assert sizes == [3]

    def test_every_point_writes_what_its_own_run_writes(self, tmp_path):
        config = parse_config(MIRRORED)
        sweep(config, tmp_path / "sweep")
        points = [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (3.0, 3.0)]
        assert_points_write_their_own_runs(config, tmp_path / "sweep", points, tmp_path)

    @pytest.mark.parametrize("max_parallel", [1, 2])
    def test_a_failed_pair_reports_each_point_own_error(self, tmp_path,
                                                         max_parallel):
        # u0(R) = v0(R) = 30.5: v^p and u^q both pass the overflow guard,
        # and the error names v's argument, checked first, which differs
        # between (2, 3) and (3, 2)
        text = (MIRRORED.replace("power", "exp_power")
                .replace("n = 2\n", "n = 2\nu0_base = 30\nv0_base = 30\n"))
        summary = sweep(parse_config(text), tmp_path, max_parallel)
        status = SWEEP_COLUMNS.index("status")
        rows = summary.read_text().splitlines()[1:]
        assert [row.split(",")[status] for row in rows] == ["error: FluxOverflow"] * 4
        details = ["930", "930", "2.84e+04", "2.84e+04"]
        for index, arg in enumerate(details):
            report = (tmp_path / f"run_{index:03d}" / "report.txt").read_text()
            assert report == (
                "overall.status = error\n"
                f"overall.detail = exponent argument {arg} >= 700.0\n"
            )


class TestMain:
    def write(self, tmp_path, text, name="exp.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_verb(self, tmp_path, capsys):
        path = self.write(tmp_path, TINY)
        code = main(["run", path, "--output-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "stop: time_limit" in out
        assert "overall: inconclusive" in out

    def test_run_verb_prints_the_fit(self, tmp_path, capsys):
        path = self.write(tmp_path, REFERENCE)
        code = main(["run", path, "--output-dir", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        report = read_report(tmp_path / "out" / "report.txt")
        assert code == 0
        assert lines[1:4] == [
            f"T_hat = {report['blowup.T_hat']}",
            f"alpha_hat = {report['rate.alpha_hat']}",
            f"beta_hat = {report['rate.beta_hat']}",
        ]

    def test_run_verb_quiet(self, tmp_path, capsys):
        path = self.write(tmp_path, TINY)
        code = main(["run", path, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_run_verb_check_failure_exit(self, tmp_path):
        path = self.write(tmp_path, REFERENCE.replace("record_every = 2", "N = 16"))
        code = main(["run", path, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 2

    def test_sweep_verb(self, tmp_path, capsys):
        path = self.write(tmp_path, TINY + "\n[sweep]\np = 2, 3\n")
        code = main(["sweep", path, "--output-dir", str(tmp_path / "out"),
                     "--max-parallel", "2"])
        out = capsys.readouterr().out
        assert code == 0  # inconclusive rows are not failures
        assert out.splitlines()[0] == ",".join(SWEEP_COLUMNS)

    def test_sweep_verb_exits_2_on_a_failing_row(self, tmp_path, capsys):
        path = self.write(tmp_path, TINY + "\n[sweep]\nN = 8, 201\n")
        code = main(["sweep", path, "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "error: GridTooCoarse" in capsys.readouterr().out

    @pytest.mark.parametrize("max_parallel", ["0", "-3"])
    def test_sweep_verb_rejects_max_parallel_below_one(
        self, tmp_path, capsys, max_parallel
    ):
        path = self.write(tmp_path, TINY + "\n[sweep]\np = 2, 3\n")
        code = main(["sweep", path, "--output-dir", str(tmp_path / "out"),
                     "--max-parallel", max_parallel])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "max_parallel" in err
        assert not (tmp_path / "out").exists()

    def test_validate_verb(self, tmp_path, capsys):
        path = self.write(tmp_path, REFERENCE)
        code = main(["validate", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "[problem]" in out
        assert "initial data: pass" in out

    def test_validate_verb_refuses_slightly_decreasing_data(self, tmp_path, capsys):
        # u0 = 1 - 1e-9 r^2 peaks at r = 0 by a hair, which a relative
        # tolerance on the node values would let through to the run
        path = self.write(tmp_path, POWER_DIP)
        code = main(["validate", path])
        checks = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith(("check ", "initial data"))]
        assert code == 2
        assert checks == [
            "check monotone_u0: fail (value -2e-09)",
            "check subharmonic_u0: fail (value -4e-09)",
            "check monotone_v0: pass (value 1.0)",
            "check subharmonic_v0: pass (value 2.0)",
            "initial data: fail",
        ]

    def test_run_verb_refuses_slightly_decreasing_data(self, tmp_path, capsys):
        path = self.write(tmp_path, POWER_DIP)
        code = main(["run", path, "--output-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: initial data failed: monotone_u0, subharmonic_u0\n"

    def test_missing_key_is_operational_error(self, tmp_path, capsys):
        path = self.write(tmp_path, "[problem]\np = 2\n")
        code = main(["run", path, "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "missing required key" in capsys.readouterr().err

    def test_nonpositive_dominance_scale_is_operational_error(self, tmp_path, capsys):
        # the reference run would reach the dominance check with this scale
        path = self.write(tmp_path, REFERENCE + "\n[analysis]\ndominance_scale = -1\n")
        code = main(["run", path, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "dominance_scale" in err

    @pytest.mark.parametrize("key, value", [
        ("rate_tol", "-1"), ("residual_max", "0"), ("residual_max", "-1"),
    ])
    def test_unmeetable_tolerance_is_operational_error(
        self, tmp_path, capsys, key, value
    ):
        path = self.write(tmp_path, REFERENCE + f"\n[analysis]\n{key} = {value}\n")
        code = main(["run", path, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} must be")
        assert not (tmp_path / "out").exists()

    def test_power_n3_five_keys_passes(self, tmp_path, capsys):
        # the default cfl at n = 3 is 0.3, below STABLE_CFL[3]
        path = self.write(tmp_path, POWER_N3)
        code = main(["run", path, "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        report = read_report(tmp_path / "out" / "report.txt")
        assert report["overall.status"] == "pass"

    @pytest.mark.parametrize("verb", ["run", "validate"])
    def test_unstable_cfl_is_operational_error(self, tmp_path, capsys, verb):
        path = self.write(tmp_path, POWER_N3 + "[solver]\ncfl = 0.4\n")
        code = main([verb, path, "--output-dir", str(tmp_path / "out")]
                    if verb == "run" else [verb, path])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: cfl = 0.4 exceeds the measured stability limit "
            "0.333333 for n = 3\n"
        )
        assert not (tmp_path / "out").exists()

    def test_flux_overflow_in_the_initial_data_is_operational_error(
        self, tmp_path, capsys
    ):
        path = self.write(tmp_path, REFERENCE.replace(
            "flux = exp_power", "flux = exp_power\nu0_base = 26\nv0_base = 26"
        ))
        code = main(["run", path, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: exponent argument 702 >= 700.0\n"

    def test_unreadable_config_is_operational_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "none.ini")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_oracle_ode_on_exact_orbit(self, capsys):
        code = main(["oracle", "ode", "--p", "2", "--q", "2", "--c", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        alpha_fit = float(out.split("alpha_fit = ")[1].splitlines()[0])
        assert alpha_fit == pytest.approx(1.0, abs=1e-3)

    def test_oracle_ode_shallow_horizon_is_an_error(self, capsys):
        code = main(["oracle", "ode", "--p", "2", "--q", "2", "--c", "0.5",
                     "--stop-frac", "0.99"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ode", "--p", "2", "--q", "2", "--c", "-1"],
        ["ode", "--p", "2", "--q", "2", "--stop-frac", "1.5"],
        ["jump", "--steps", "2"],
        ["jump", "--distances", "0.04,0.16"],
        # non-finite arguments, refused before any work
        ["ode", "--p", "2", "--q", "2", "--T", "inf"],
        ["ode", "--p", "2", "--q", "2", "--c", "nan"],
        ["ode", "--p", "nan", "--q", "2"],
        ["jump", "--R", "inf"],
        ["jump", "--R", "nan"],
        # 4 pi R^2 overflows float64
        ["jump", "--R", "1e200"],
        # R^2 underflows below the smallest normal float64
        ["jump", "--R", "1e-200"],
        ["jump", "--distances", "0.16,nan,0.04"],
        ["jump", "--window", "nan"],
        ["jump", "--window", "inf"],
        ["jump", "--tol", "nan"],
        ["jump", "--tol", "-1"],
        ["jump", "--density", "nan"],
        ["jump", "--density", "inf"],
        # an empty list, not the defaults
        ["jump", "--distances", ""],
        ["jump", "--distances", "0.16,x,0.04"],
    ])
    def test_oracle_out_of_range_argument_is_operational_error(self, argv, capsys):
        code = main(["oracle", *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        # a list item that is not a number is refused by its option's name
        items = argv[-1].split(",") if argv[-2] == "--distances" else []
        for item in items:
            try:
                float(item)
            except ValueError:
                assert err == f"error: --distances item {item!r} is not a number\n"
                break

    def test_oracle_jump_verb(self, capsys):
        code = main(["oracle", "jump", "--R", "1.0", "--m", "24"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        jump = float(out.split("jump = ")[1].splitlines()[0])
        assert jump == pytest.approx(-0.5, abs=0.05)

    @pytest.mark.parametrize("R", ["100", "1e-3"])
    def test_oracle_jump_defaults_are_scale_free(self, R, capsys):
        # the default distances scale as R and the window as R^2, so the
        # check at any R is the check at R = 1 rescaled
        jumps = []
        for radius in ("1", R):
            code = main(["oracle", "jump", "--R", radius])
            out = capsys.readouterr().out
            assert code == 0
            assert "verdict: pass" in out
            jumps.append(float(out.split("jump = ")[1].splitlines()[0]))
        assert jumps[1] == pytest.approx(jumps[0], rel=1e-12)

    @pytest.mark.parametrize("R, cause", [
        ("1e90", "square"), ("1e100", "square"),
        ("1e-80", "multiply"), ("1e-100", "power"),
    ])
    def test_oracle_jump_refuses_radii_that_leave_float_range(self, R, cause, capsys):
        # the fit's powers of d, the slope factor or the kernel scale
        # overflow; the verb says so on one line and warns nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["oracle", "jump", "--R", R])
        out, err = capsys.readouterr()
        assert code == 1
        assert caught == []
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: jump check at R = ")
        assert err.rstrip().endswith(f"leaves float64 range: overflow encountered in {cause}")

    @pytest.mark.parametrize("R, lines", [
        ("1e-75", ["jump = -0.5016199303196043", "target = -0.5",
                   "boundary_term = -0.12615659860176376",
                   "interior_limit = 0.3754633317178405",
                   "resolution = 9.625560005957379e-78", "verdict: pass"]),
        ("1", ["jump = -0.5016199303196027", "target = -0.5",
               "boundary_term = -0.1261565986017658",
               "interior_limit = 0.37546333171783697",
               "resolution = 0.00962556000595738", "verdict: pass"]),
        ("1e77", ["jump = -0.5016199303196134", "target = -0.5",
                  "boundary_term = -0.12615659860178108",
                  "interior_limit = 0.37546333171783236",
                  "resolution = 9.62556000595738e+74", "verdict: pass"]),
    ])
    def test_oracle_jump_at_the_extreme_accepted_radii(self, R, lines, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["oracle", "jump", "--R", R])
        out, err = capsys.readouterr()
        assert (code, caught, err) == (0, [], "")
        assert out.splitlines() == lines

    def test_oracle_jump_refuses_panels_below_the_normal_range(self, capsys):
        # at the default window the smallest sigma node of 1015 or more
        # panels is subnormal: the verb names the count, not R or the density
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["oracle", "jump", "--steps", "1100"])
        out, err = capsys.readouterr()
        assert (code, caught, out) == (1, [], "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: steps = 1100 panels halve the window 0 to 0.05")
        assert err.rstrip().endswith("at most 1014 keep its nodes normal")

    def test_oracle_jump_at_1000_panels(self, capsys):
        code = main(["oracle", "jump", "--steps", "1000"])
        assert code == 0
        assert capsys.readouterr().out == (
            "jump = -0.5016199303196027\ntarget = -0.5\n"
            "boundary_term = -0.1261565986017658\n"
            "interior_limit = 0.37546333171783697\n"
            "resolution = 0.00962556000595738\nverdict: pass\n"
        )

    def test_oracle_jump_out_of_memory_is_operational_error(self, monkeypatch, capsys):
        # a huge --m used to end in numpy's _ArrayMemoryError traceback;
        # the real allocation is never tried, since a machine that
        # overcommits memory may grant it and then fill RAM
        from blowuplab import potentials

        def exhausted(R, m):
            raise MemoryError(f"cannot build {m} polar rings")

        monkeypatch.setattr(potentials, "sphere_quadrature", exhausted)
        code = main(["oracle", "jump", "--m", "100000"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: cannot build 100000 polar rings\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--density", "nan", "error: --density nan must be finite\n"),
        ("--distances", "x", "error: --distances item 'x' is not a number\n"),
    ])
    def test_oracle_jump_refuses_arguments_before_the_quadrature(
        self, option, value, message, monkeypatch, capsys,
    ):
        # at m = 1000 the quadrature takes most of a second: a malformed
        # argument is refused without building it
        from blowuplab import potentials

        def unbuilt(R, m):
            raise AssertionError("the quadrature was built")

        monkeypatch.setattr(potentials, "sphere_quadrature", unbuilt)
        code = main(["oracle", "jump", "--m", "1000", option, value])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", message)


def test_cli_import_and_validate_leave_scipy_unloaded(tmp_path):
    # no verb imports scipy: a fresh process that validates, runs through
    # the blow-up fit, sweeps in a pool and runs both oracles (the ODE on
    # the orbit and on capped data) never loads any scipy module; and the
    # oracle modules load only for the oracle verbs
    ini = tmp_path / "five_keys.ini"
    ini.write_text("[problem]\np = 2\nq = 2\nR = 1.0\nn = 2\nflux = exp_power\n")
    power = "[problem]\np = 2\nq = 2\nR = 1.0\nn = 2\nflux = power\n[solver]\nN = 41\n"
    run_ini = tmp_path / "power.ini"
    run_ini.write_text(power)
    sweep_ini = tmp_path / "power_sweep.ini"
    sweep_ini.write_text(power + "[sweep]\np = 2, 3\n")
    script = (
        "import sys\n"
        "from blowuplab.cli import main, read_report\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = scipy_loaded()\n"
        f"code = main(['validate', {str(ini)!r}, '--quiet'])\n"
        f"main(['run', {str(run_ini)!r}, '--output-dir', "
        f"{str(tmp_path / 'run')!r}, '--quiet'])\n"
        f"report = read_report({str(tmp_path / 'run' / 'report.txt')!r})\n"
        "print(report['run.stop_reason'], report['blowup.T_hat'] != 'nan')\n"
        "oracles = ('blowuplab.ode', 'blowuplab.potentials')\n"
        "print([m for m in oracles if m in sys.modules])\n"
        f"main(['sweep', {str(sweep_ini)!r}, '--output-dir', "
        f"{str(tmp_path / 'sweep')!r}, '--max-parallel', '2', '--quiet'])\n"
        "print(code, loaded + scipy_loaded())\n"
        "codes = [main(['oracle', 'ode', '--p', '2', '--q', '2', '--c', '0.5', '--quiet']),\n"
        "         main(['oracle', 'ode', '--p', '3', '--q', '2', '--c', '1',\n"
        "               '--stop-frac', '0.99', '--quiet']),\n"
        "         main(['oracle', 'jump', '--quiet'])]\n"
        "print(codes, scipy_loaded())\n"
    )
    src = str(Path(blowuplab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "blowup_threshold True", "[]", "0 []", "[0, 2, 0] []",
    ]
    assert (tmp_path / "sweep" / "run_001" / "report.txt").exists()


def test_package_exports_resolve():
    # the oracle re-exports of the package resolve on first access
    from blowuplab import OdeParams, jump_check, ode, potentials

    assert jump_check is potentials.jump_check
    assert OdeParams is ode.OdeParams
    assert all(hasattr(blowuplab, name) for name in blowuplab.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        blowuplab.nope
