import dataclasses
import math
import re
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab import solver
from blowuplab.config import (
    ExperimentConfig,
    SweepAxes,
    load_config,
    parse_config,
    render_config,
    with_axes_point,
)
from blowuplab.errors import BlowupLabError, ConfigError, StepUnderflow
from blowuplab.model import FluxFamily, ProblemParams, QuadraticRadial
from blowuplab.solver import DEFAULT_CFL, EXP_GUARD, STABLE_CFL, SolverConfig

MINIMAL = """\
[problem]
p = 2
q = 2
R = 1.0
n = 2
flux = exp_power
"""


class TestParseDefaults:
    def test_minimal_config_applies_documented_defaults(self):
        config = parse_config(MINIMAL)
        assert config.solver.N == 201
        assert config.solver.cfl == 0.4
        assert config.solver.growth_cap == 0.1
        assert config.solver.u_stop == 600.0
        assert config.interior_radius == 0.5

    def test_remaining_defaults(self):
        config = parse_config(MINIMAL)
        assert config.solver.t_end is None
        assert config.solver.record_every == 10
        assert config.solver.state_every == 1
        assert config.rate_tol == 0.20
        assert config.residual_max == 0.5
        assert config.dominance_scale == 1.0
        assert config.output_dir == "runs"
        assert "deterministic = true" in render_config(config).splitlines()

    @pytest.mark.parametrize("n, cfl", [(1, 0.4), (2, 0.4), (3, 0.3)])
    def test_default_cfl_follows_the_dimension(self, n, cfl):
        config = parse_config(MINIMAL.replace("n = 2", f"n = {n}"))
        assert config.solver.cfl == cfl
        assert f"cfl = {cfl}" in render_config(config).splitlines()

    @pytest.mark.parametrize("R", [1.0, 0.5, 0.4, 0.25, 0.1, 3.0])
    def test_default_interior_radius_is_half_of_R(self, R):
        config = parse_config(MINIMAL.replace("R = 1.0", f"R = {R}"))
        assert config.interior_radius == R / 2
        echo = render_config(config)
        assert f"interior_radius = {R / 2!r}" in echo.splitlines()
        assert parse_config(echo) == config

    def test_explicit_cfl_is_kept_at_n3(self):
        text = MINIMAL.replace("n = 2", "n = 3") + "[solver]\ncfl = 0.2\n"
        assert parse_config(text).solver.cfl == 0.2

    def test_problem_fields(self):
        config = parse_config(MINIMAL)
        assert config.params.p == 2.0
        assert config.params.q == 2.0
        assert config.params.R == 1.0
        assert config.params.n == 2
        assert config.params.flux is FluxFamily.EXP_POWER
        assert config.params.initial == QuadraticRadial(0.5, 0.5, 0.5, 0.5)

    def test_sweep_axes_default_to_base_point(self):
        config = parse_config(MINIMAL)
        assert config.sweep.p == (2.0,)
        assert config.sweep.q == (2.0,)
        assert config.sweep.N == (201,)
        assert config.sweep.flux == (FluxFamily.EXP_POWER,)
        assert config.sweep.max_runs == 64
        assert len(config.sweep) == 1

    def test_explicit_values_override_defaults(self):
        config = parse_config(MINIMAL + """
[solver]
N = 81
u_stop = 9.0
t_end = 0.25

[analysis]
interior_radius = 0.3
rate_tol = 0.5

[output]
dir = elsewhere
""")
        assert config.solver.N == 81
        assert config.solver.u_stop == 9.0
        assert config.solver.t_end == 0.25
        assert config.interior_radius == 0.3
        assert config.solver.interior_radius == 0.3
        assert config.rate_tol == 0.5
        assert config.output_dir == "elsewhere"

    def test_initial_data_coefficients(self):
        config = parse_config(MINIMAL + "u0_base = 1.0\nv0_quad = 0.25\n")
        assert config.params.initial == QuadraticRadial(1.0, 0.5, 0.5, 0.25)

    def test_inline_comments_stripped(self):
        config = parse_config(MINIMAL + "[solver]\nN = 81  # coarse\n")
        assert config.solver.N == 81


class TestParseRejections:
    @pytest.mark.parametrize("key", ["p", "q", "R", "n", "flux"])
    def test_missing_required_key(self, key):
        lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key)]
        with pytest.raises(ConfigError, match=f"missing required key .problem. {key}"):
            parse_config("\n".join(lines))

    def test_exp_power_needs_p_above_one(self):
        text = MINIMAL.replace("p = 2", "p = 0.5")
        with pytest.raises(ConfigError, match="requires p > 1"):
            parse_config(text)

    def test_unknown_flux_lists_the_valid_names(self):
        text = MINIMAL.replace("flux = exp_power", "flux = quadratic")
        with pytest.raises(ConfigError, match="exp_power, power, exp_linear"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
            parse_config(MINIMAL + "[plotting]\nstyle = dark\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown key \[solver\] dt"):
            parse_config(MINIMAL + "[solver]\ndt = 0.1\n")

    def test_keys_are_case_significant(self):
        # r is not a known [problem] key; R is
        with pytest.raises(ConfigError, match=r"unknown key \[problem\] r"):
            parse_config(MINIMAL + "r = 2.0\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match=r"cannot parse \[solver\] N = 'many'"):
            parse_config(MINIMAL + "[solver]\nN = many\n")

    def test_garbled_ini(self):
        with pytest.raises(ConfigError, match="not parseable"):
            parse_config("problem]\np = 2\n")

    def test_interior_radius_must_sit_inside_the_ball(self):
        with pytest.raises(ConfigError, match="interior_radius"):
            parse_config(MINIMAL + "[analysis]\ninterior_radius = 1.0\n")

    def test_determinism_cannot_be_disabled(self):
        with pytest.raises(ConfigError, match="always deterministic"):
            parse_config(MINIMAL + "[output]\ndeterministic = false\n")

    def test_determinism_must_be_a_boolean(self):
        with pytest.raises(ConfigError, match="cannot parse \\[output\\] deterministic"):
            parse_config(MINIMAL + "[output]\ndeterministic = maybe\n")

    def test_solver_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config(MINIMAL + "[solver]\ncfl = 0.9\n")

    def test_empty_sweep_axis(self):
        with pytest.raises(ConfigError, match="sweep axis p is empty"):
            parse_config(MINIMAL + "[sweep]\np =\n")

    def test_nonpositive_max_runs(self):
        with pytest.raises(ConfigError, match="max_runs"):
            parse_config(MINIMAL + "[sweep]\nmax_runs = 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section, key", [
        *[("problem", k) for k in
          ("p", "q", "R", "u0_base", "u0_quad", "v0_base", "v0_quad")],
        ("solver", "t_end"),
        *[("analysis", k) for k in
          ("interior_radius", "rate_tol", "residual_max", "dominance_scale")],
        ("sweep", "p"),
        ("sweep", "q"),
    ])
    def test_non_finite_number(self, section, key, value):
        raw = f"2, {value}" if section == "sweep" else value
        if section == "problem":
            kept = [ln for ln in MINIMAL.splitlines() if not ln.startswith(f"{key} ")]
            text = "\n".join(kept) + f"\n{key} = {raw}\n"
        else:
            text = MINIMAL + f"[{section}]\n{key} = {raw}\n"
        message = re.escape(f"cannot parse [{section}] {key} = '{raw}'")
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_unstable_cfl(self):
        text = MINIMAL.replace("n = 2", "n = 3") + "[solver]\ncfl = 0.4\n"
        with pytest.raises(ConfigError, match="stability limit 0.333333 for n = 3"):
            parse_config(text)

    def test_negative_rate_tol(self):
        with pytest.raises(ConfigError, match="rate_tol must be nonnegative"):
            parse_config(MINIMAL + "[analysis]\nrate_tol = -1\n")

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_residual_max(self, value):
        with pytest.raises(ConfigError, match="residual_max must be positive"):
            parse_config(MINIMAL + f"[analysis]\nresidual_max = {value}\n")

    def test_tolerance_edges_stay_valid(self):
        config = parse_config(
            MINIMAL + "[analysis]\nrate_tol = 0\nresidual_max = 1e-9\n"
        )
        assert (config.rate_tol, config.residual_max) == (0.0, 1e-9)

    @pytest.mark.parametrize("scale", ["-1", "0"])
    def test_nonpositive_dominance_scale(self, scale):
        with pytest.raises(ConfigError, match="dominance_scale must be positive"):
            parse_config(MINIMAL + f"[analysis]\ndominance_scale = {scale}\n")

    @pytest.mark.parametrize("key", ["rate_tol", "residual_max", "dominance_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gate_settings_are_refused(self, key, value):
        # the INI text cannot carry them; the dataclass refuses them from
        # the Python API, where NaN or inf would turn a gate off
        config = parse_config(MINIMAL)
        with pytest.raises(ValueError, match=f"^{key} = {value} must be finite$"):
            dataclasses.replace(config, **{key: value})


class TestLoadConfig:
    def test_reads_a_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL)
        config = load_config(path)
        assert config.params.p == 2.0

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.ini")


class TestSweepAxes:
    def test_explicit_axes(self):
        config = parse_config(MINIMAL + """
[sweep]
p = 2, 3
q = 2
N = 101, 201
flux = exp_power, power
max_runs = 16
""")
        assert config.sweep.p == (2.0, 3.0)
        assert config.sweep.N == (101, 201)
        assert config.sweep.flux == (FluxFamily.EXP_POWER, FluxFamily.POWER)
        assert len(config.sweep) == 8

    def test_with_axes_point_replaces_the_varying_fields(self):
        config = parse_config(MINIMAL)
        point = with_axes_point(config, p=3.0, q=2.0, N=101, flux=FluxFamily.POWER)
        assert point.params.p == 3.0
        assert point.params.flux is FluxFamily.POWER
        assert point.solver.N == 101
        # everything else is untouched
        assert point.solver.u_stop == config.solver.u_stop
        assert point.interior_radius == config.interior_radius

    def test_with_axes_point_revalidates(self):
        config = parse_config(MINIMAL)
        with pytest.raises(ValueError, match="requires p > 1"):
            with_axes_point(config, p=0.5, q=2.0, N=201, flux=FluxFamily.POWER)


# the exact config.ini of MINIMAL: key order, repr floats, the empty t_end
ECHO_MINIMAL = "\n".join([
    "[problem]", "p = 2.0", "q = 2.0", "R = 1.0", "n = 2", "flux = exp_power",
    "u0_base = 0.5", "u0_quad = 0.5", "v0_base = 0.5", "v0_quad = 0.5", "",
    "[solver]", "N = 201", "cfl = 0.4", "growth_cap = 0.1", "u_stop = 600.0",
    "t_end = ", "record_every = 10", "state_every = 1", "",
    "[analysis]", "interior_radius = 0.5", "rate_tol = 0.2", "residual_max = 0.5",
    "dominance_scale = 1.0", "",
    "[output]", "dir = runs", "deterministic = true", "",
    "[sweep]", "p = 2.0", "q = 2.0", "N = 201", "flux = exp_power", "max_runs = 64",
]) + "\n"

FINITE = dict(allow_nan=False, allow_infinity=False)


def _open(low, high):
    return st.floats(low, high, exclude_min=True, exclude_max=True, **FINITE)


def _axis(values):
    return st.lists(values, min_size=1, max_size=3).map(tuple)


@st.composite
def experiment_configs(draw):
    flux = draw(st.sampled_from(FluxFamily))
    exponent = _open(flux.min_exponent, 50.0)
    R = draw(st.floats(1e-3, 1e6))
    n = draw(st.sampled_from((1, 2, 3)))
    params = ProblemParams(
        p=draw(exponent), q=draw(exponent), R=R, n=n,
        flux=flux, initial=QuadraticRadial(*draw(st.lists(
            st.floats(**FINITE), min_size=4, max_size=4))),
    )
    solver = SolverConfig(
        N=draw(st.integers(16, 10_000)),
        cfl=draw(st.floats(0.0, STABLE_CFL[n], exclude_min=True)),
        growth_cap=draw(st.floats(0.0, 0.5, exclude_min=True)),
        u_stop=draw(_open(0.0, EXP_GUARD)),
        t_end=draw(st.none() | _open(0.0, 1e6)),
        record_every=draw(st.integers(1, 1000)),
        state_every=draw(st.integers(0, 1000)),
        interior_radius=draw(_open(0.0, R)),
    )
    sweep = SweepAxes(
        p=draw(_axis(exponent)), q=draw(_axis(exponent)),
        N=draw(_axis(st.integers(16, 10_000))),
        flux=draw(_axis(st.sampled_from(FluxFamily))),
        max_runs=draw(st.integers(1, 10_000)),
    )
    return ExperimentConfig(
        params=params, solver=solver, sweep=sweep,
        rate_tol=draw(st.floats(min_value=0.0, **FINITE)),
        residual_max=draw(st.floats(min_value=0.0, exclude_min=True, **FINITE)),
        dominance_scale=draw(_open(0.0, 1e6)),
    )


# directory names: INI-significant blanks, "#" and line breaks among
# ordinary path characters and any other text
_DIR_TEXT = st.text(
    st.sampled_from("ab0_-./ #\t\n\r") | st.characters(), max_size=12
)


class TestRenderConfig:
    def test_golden_echo_of_minimal(self):
        assert render_config(parse_config(MINIMAL)) == ECHO_MINIMAL

    @given(experiment_configs(), _DIR_TEXT)
    @example(parse_config(MINIMAL), " x")
    @example(parse_config(MINIMAL), "a #b")
    @example(parse_config(MINIMAL), "")
    def test_round_trip_of_any_valid_config(self, config, output_dir):
        # an output_dir the echo could not carry is refused at construction
        try:
            config = dataclasses.replace(config, output_dir=output_dir)
        except ValueError:
            return
        assert parse_config(render_config(config)) == config

    def test_round_trip_identity(self):
        config = parse_config(MINIMAL + """
[solver]
u_stop = 9.0
record_every = 2

[sweep]
p = 2, 3
""")
        echoed = parse_config(render_config(config))
        assert echoed == config

    def test_round_trip_preserves_t_end(self):
        config = parse_config(MINIMAL + "[solver]\nt_end = 0.0123\n")
        assert parse_config(render_config(config)).solver.t_end == 0.0123

    def test_render_is_deterministic_text(self):
        config = parse_config(MINIMAL)
        assert render_config(config) == render_config(config)


class TestRefusedOrRun:
    @settings(deadline=None, max_examples=400)
    @given(
        flux=st.sampled_from(FluxFamily),
        p=st.floats(1.1, 4.0),
        q=st.floats(1.1, 4.0),
        n=st.sampled_from((1, 2, 3)),
        N=st.integers(16, 64),
        u=st.floats(-170.0, 170.0),
    )
    def test_a_config_is_refused_or_runs(self, flux, p, q, n, N, u):
        # on any ball R = 10^u, a config is refused by parse_config, or
        # its run raises the package's error before the first step,
        # StepUnderflow on a first step that cannot advance, or returns
        # a run that took a step; no other exception and no warning,
        # whatever float64 makes of the grid
        R, dr = 10.0**u, 10.0**u / (N - 1)
        t_end = 4.0 * DEFAULT_CFL[n] * dr * dr
        if not 0.0 < t_end < math.inf:
            t_end = 1.0
        text = (f"[problem]\np = {p!r}\nq = {q!r}\nR = {R!r}\nn = {n}\n"
                f"flux = {flux.value}\n[solver]\nN = {N}\nt_end = {t_end!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                config = parse_config(text)
            except ConfigError:
                return
            with mock.patch.object(solver, "_march", wraps=solver._march) as march:
                try:
                    traj = solver.run(config.params, config.solver)
                except StepUnderflow as exc:
                    assert march.call_count == 1
                    assert str(exc).endswith(" at t = 0")
                    return
                except BlowupLabError:
                    assert not march.called
                    return
        # the parsed config is already fitted, so the run keeps it
        assert traj.config is config.solver
        if traj.stop.reason is solver.StopReason.STEP_UNDERFLOW:
            assert traj.steps >= 1
