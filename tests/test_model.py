import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowuplab.errors import (
    DegenerateExponents,
    FluxOverflow,
    GridTooCoarse,
    InvalidInitialData,
)
from blowuplab.model import (
    EXP_GUARD,
    FluxFamily,
    ProblemParams,
    QuadraticRadial,
    boundary_flux,
    make_grid,
    rate_exponents,
    validate_initial_data,
)
from blowuplab.solver import SolverConfig, _march


class TestRateExponents:
    def test_symmetric_pair(self):
        alpha, beta = rate_exponents(2.0, 2.0)
        assert alpha == pytest.approx(1.0, rel=1e-15)
        assert beta == pytest.approx(1.0, rel=1e-15)

    def test_asymmetric_pair(self):
        alpha, beta = rate_exponents(3.0, 2.0)
        assert alpha == pytest.approx(0.8, rel=1e-15)
        assert beta == pytest.approx(0.6, rel=1e-15)

    def test_identities_random_pairs(self):
        # p*beta = alpha + 1 and q*alpha = beta + 1 characterize the pair
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            p = float(rng.uniform(0.1, 8.0))
            q = float(rng.uniform(0.1, 8.0))
            if p * q <= 1.0 + 1e-9:
                continue
            alpha, beta = rate_exponents(p, q)
            assert p * beta == pytest.approx(alpha + 1.0, rel=1e-12)
            assert q * alpha == pytest.approx(beta + 1.0, rel=1e-12)

    @given(p=st.floats(0.05, 50.0), q=st.floats(0.05, 50.0))
    def test_identities_property(self, p, q):
        assume(p * q > 1.0 + 1e-6)
        alpha, beta = rate_exponents(p, q)
        assert p * beta == pytest.approx(alpha + 1.0, rel=1e-12)
        assert q * alpha == pytest.approx(beta + 1.0, rel=1e-12)

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 0.5), (0.5, 1.5), (0.1, 0.1)])
    def test_degenerate_product(self, p, q):
        with pytest.raises(DegenerateExponents):
            rate_exponents(p, q)


class TestBoundaryFlux:
    def test_exp_power_values(self):
        assert boundary_flux(FluxFamily.EXP_POWER, 1.0, 2.0) == pytest.approx(math.e)
        assert boundary_flux(FluxFamily.EXP_POWER, 2.0, 2.0) == pytest.approx(
            math.exp(4.0)
        )

    def test_power_values(self):
        assert boundary_flux(FluxFamily.POWER, 2.0, 3.0) == pytest.approx(8.0)
        assert boundary_flux(FluxFamily.POWER, 0.0, 2.0) == 0.0

    def test_exp_linear_values(self):
        assert boundary_flux(FluxFamily.EXP_LINEAR, 2.0, 3.0) == pytest.approx(
            math.exp(6.0)
        )

    def test_exp_guard(self):
        # 27^2 = 729 crosses the 700 guard
        with pytest.raises(FluxOverflow):
            boundary_flux(FluxFamily.EXP_POWER, 27.0, 2.0)
        with pytest.raises(FluxOverflow):
            boundary_flux(FluxFamily.EXP_LINEAR, 300.0, 3.0)
        assert EXP_GUARD < 709.78  # exp() overflow threshold in float64

    def test_power_family_has_no_guard(self):
        assert boundary_flux(FluxFamily.POWER, 1e100, 2.0) == 1e200

    @pytest.mark.parametrize("family", [FluxFamily.POWER, FluxFamily.EXP_POWER])
    def test_power_past_float64_is_refused(self, family):
        # 1e200^2 leaves float64: the argument is inf, not an OverflowError
        assert family.arg(1e200, 2.0) == math.inf
        with pytest.raises(FluxOverflow, match="exponent argument inf >= "):
            boundary_flux(family, 1e200, 2.0)

    def test_negative_boundary_value(self):
        with pytest.raises(ValueError):
            boundary_flux(FluxFamily.EXP_POWER, -0.1, 2.0)

    CLOSED_FORMS = {
        FluxFamily.EXP_POWER: lambda w, e: float(np.exp(w**e)),
        FluxFamily.POWER: lambda w, e: w**e,
        FluxFamily.EXP_LINEAR: lambda w, e: float(np.exp(e * w)),
    }

    @given(
        family=st.sampled_from(list(FluxFamily)),
        w=st.floats(0.0, 1e3),
        e=st.floats(0.0, 8.0, exclude_min=True),
    )
    def test_matches_the_family_table(self, family, w, e):
        # below the guard the flux is the table's flux of the table's
        # argument, and that is the closed form the family names
        assume(e > family.min_exponent)
        arg = family.arg(w, e)
        assume(arg < EXP_GUARD)
        assert boundary_flux(family, w, e) == family.from_arg(arg)
        assert boundary_flux(family, w, e) == self.CLOSED_FORMS[family](w, e)


class TestFluxFamilyArg:
    def test_families(self):
        # arg(w, e) for u = 2 with q = 2 and for v = 3 with p = 3
        for family, want in (
            (FluxFamily.EXP_POWER, (4.0, 27.0)),
            (FluxFamily.POWER, (4.0, 27.0)),
            (FluxFamily.EXP_LINEAR, (4.0, 9.0)),
        ):
            assert (family.arg(2.0, 2.0), family.arg(3.0, 3.0)) == want


class TestMakeGrid:
    def test_basic(self):
        grid = make_grid(2.0, 41)
        assert grid.N == 41
        assert grid.dr == pytest.approx(0.05)
        assert grid.r[0] == 0.0
        assert grid.r[-1] == 2.0

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            make_grid(1.0, 15)
        make_grid(1.0, 16)

    def test_bad_radius(self):
        # a sign test alone lets NaN through; inf gives dr = inf, r[0] = nan
        for R in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"positive and finite, got {R}$"):
                make_grid(R, 101)


class TestProblemParams:
    def test_exp_power_requires_exponents_above_one(self):
        with pytest.raises(ValueError):
            ProblemParams(
                p=1.0, q=2.0, R=1.0, n=2,
                flux=FluxFamily.EXP_POWER,
                initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
            )

    def test_exp_linear_allows_small_exponents(self):
        ProblemParams(
            p=0.5, q=0.7, R=1.0, n=2,
            flux=FluxFamily.EXP_LINEAR,
            initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
        )

    def test_dimension_range(self):
        for n in (1, 2, 3):
            ProblemParams(
                p=2.0, q=2.0, R=1.0, n=n,
                flux=FluxFamily.EXP_POWER,
                initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
            )
        with pytest.raises(ValueError):
            ProblemParams(
                p=2.0, q=2.0, R=1.0, n=4,
                flux=FluxFamily.EXP_POWER,
                initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
            )

    @pytest.mark.parametrize("field", ["p", "q", "R"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_are_refused(self, field, value):
        good = dict(p=2.0, q=2.0, R=1.0, n=2, flux=FluxFamily.POWER,
                    initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match=f"^{field} = {value} must be finite$"):
            ProblemParams(**{**good, field: value})

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_radius_must_be_positive(self, R):
        with pytest.raises(ValueError, match="R must be positive"):
            ProblemParams(
                p=2.0, q=2.0, R=R, n=2,
                flux=FluxFamily.POWER,
                initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
            )


class TestInitialDataSpecs:
    def test_quadratic_evaluate(self):
        grid = make_grid(1.0, 101)
        u0, v0 = QuadraticRadial(0.5, 0.5, 1.0, 0.25).evaluate(grid)
        assert u0[0] == 0.5
        assert u0[-1] == pytest.approx(1.0)
        assert v0[-1] == pytest.approx(1.25)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_symmetric_treats_signed_zeros_alike(self, zero):
        # 0.0 == -0.0, and equal coefficients give bit-equal fields
        grid = make_grid(1.0, 101)
        for spec in (QuadraticRadial(zero, 0.5, 0.0, 0.5),
                     QuadraticRadial(0.5, zero, 0.5, 0.0)):
            assert spec.symmetric
            u0, v0 = spec.evaluate(grid)
            assert u0.tobytes() == v0.tobytes()
        assert not QuadraticRadial(0.5, 0.5, 0.5, 0.25).symmetric


class TestValidateInitialData:
    def grid(self):
        return make_grid(1.0, 101)

    def test_quadratic_passes(self):
        report = validate_initial_data(
            QuadraticRadial(0.5, 0.5, 0.5, 0.5), self.grid(), 2
        )
        assert report.passed
        names = {c.name for c in report.checks}
        assert names == {
            "monotone_u0", "subharmonic_u0", "monotone_v0", "subharmonic_v0",
        }

    @pytest.mark.parametrize("field, spec", [
        ("u0", QuadraticRadial(1.0, -0.5, 0.5, 0.5)),
        ("v0", QuadraticRadial(0.5, 0.5, 1.0, -0.5)),
    ], ids=["u0", "v0"])
    def test_concave_data_fails_subharmonic(self, field, spec):
        # f = 1 - r^2 / 2 decreases and has the negative Laplacian -2n b
        report = validate_initial_data(spec, self.grid(), 2)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {f"monotone_{field}", f"subharmonic_{field}"}

    def test_negative_data_raises(self):
        with pytest.raises(InvalidInitialData, match="u0 is negative at node 0"):
            validate_initial_data(
                QuadraticRadial(-0.5, 1.0, 0.5, 0.5), self.grid(), 2
            )

    def test_zero_data_raises(self):
        with pytest.raises(InvalidInitialData, match="v0 is identically zero"):
            validate_initial_data(
                QuadraticRadial(1.0, 0.0, 0.0, 0.0), self.grid(), 2
            )

    def test_non_finite_data_raises(self):
        with pytest.raises(InvalidInitialData, match="u0 contains non-finite"):
            validate_initial_data(
                QuadraticRadial(math.nan, 0.5, 0.5, 0.5), self.grid(), 2
            )

    def test_overflowing_flux_raises_on_v0_first(self):
        # v0(R)^p = 729 and u0(R)^q = 900 both pass the guard
        params = ProblemParams(
            p=2.0, q=2.0, R=1.0, n=2,
            flux=FluxFamily.EXP_POWER,
            initial=QuadraticRadial(30.0, 0.0, 27.0, 0.0),
        )
        with pytest.raises(FluxOverflow, match="argument 729 >= 700"):
            validate_initial_data(params.initial, self.grid(), 2, params)

    def test_checks_carry_the_exact_values(self):
        # u0' (R) = 2 b R and Delta u0 = 2 n b, here at R = 2, n = 3
        report = validate_initial_data(
            QuadraticRadial(1.0, -0.25, 0.5, 0.5), make_grid(2.0, 101), 3
        )
        assert [(c.name, c.passed, c.value) for c in report.checks] == [
            ("monotone_u0", False, -1.0), ("subharmonic_u0", False, -1.5),
            ("monotone_v0", True, 2.0), ("subharmonic_v0", True, 3.0),
        ]

    @pytest.mark.parametrize("a, b", [(1.0, -1e-9), (1e6, -1e-5)])
    def test_a_slight_decrease_is_refused(self, a, b):
        # a relative tolerance on the node values would let both through
        report = validate_initial_data(QuadraticRadial(a, b, 0.5, 0.5), self.grid(), 2)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"monotone_u0", "subharmonic_u0"}

    @settings(deadline=None)
    @given(
        a_u=st.floats(0.0, 1e7),
        a_v=st.floats(0.0, 1e7),
        b_u=st.floats(-1e3, 1e3),
        b_v=st.floats(-1e3, 1e3),
        R=st.floats(1e-3, 1e3),
        N=st.integers(16, 801),
        n=st.sampled_from([1, 2, 3]),
    )
    def test_passes_exactly_when_both_b_are_nonnegative(
        self, a_u, a_v, b_u, b_v, R, N, n
    ):
        # data the nodes refuse raise; the rest pass exactly when both b
        # are nonnegative, and every accepted draw also passes the
        # discrete rule on the nodes: differences and the stepper's
        # Laplacian down to -1e-10 of the field's scale
        spec, grid = QuadraticRadial(a_u, b_u, a_v, b_v), make_grid(R, N)
        F = np.array(spec.evaluate(grid))
        if F.min() < 0 or F.max(axis=1).min() == 0.0:
            with pytest.raises(InvalidInitialData):
                validate_initial_data(spec, grid, n)
            return
        report = validate_initial_data(spec, grid, n)
        assert report.passed is (b_u >= 0 and b_v >= 0)
        if report.passed:
            params = ProblemParams(2.0, 2.0, R, n, FluxFamily.POWER, spec)
            # the stepper's Laplacian: its rates after one step
            _, _, out, *_ = _march(params, grid, SolverConfig(N=N), F, 0.0)
            scale = 1.0 + F.max(axis=1, keepdims=True)
            assert np.all(np.diff(F) >= -1e-10 * scale)
            assert np.all(out[:, :-1] >= -1e-10 * scale / grid.dr**2)
