"""Tests for the heat kernel, sphere quadrature, and layer potentials."""

import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blowuplab.errors import (
    BadRadius,
    BadTime,
    BadWindow,
    ConfigError,
    ResolutionError,
)
from blowuplab.potentials import (
    EXP_ZERO,
    ConvergenceReport,
    JumpReport,
    SphereQuadrature,
    _density_block,
    _layer_sum,
    _sigma_panels,
    circle_quadrature,
    heat_kernel,
    jump_check,
    single_layer,
    sphere_quadrature,
    surface_integral_bound,
)


def unit_density(points, tau):
    return 1.0


class TestHeatKernel:
    def test_unit_value_in_the_plane(self):
        assert heat_kernel(0.0, 1.0 / (4.0 * math.pi), 2) == 1.0

    def test_line_kernel_at_origin(self):
        for t in (0.01, 0.5, 3.0):
            np.testing.assert_allclose(
                heat_kernel(0.0, t, 1), (4.0 * math.pi * t) ** -0.5, rtol=1e-15
            )

    def test_scaling_identity(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(50):
                x = rng.normal(size=n)
                t = float(rng.uniform(0.05, 2.0))
                lam = float(rng.uniform(0.3, 3.0))
                np.testing.assert_allclose(
                    heat_kernel(lam * x, lam**2 * t, n),
                    lam**-n * heat_kernel(x, t, n),
                    rtol=1e-12,
                )

    def test_distance_argument_agrees_with_point(self):
        x = np.array([0.3, -0.2, 0.6])
        r = float(np.linalg.norm(x))
        np.testing.assert_allclose(
            heat_kernel(x, 0.7, 3), heat_kernel(r, 0.7, 3), rtol=1e-15
        )

    def test_time_array_broadcasts(self):
        ts = np.array([0.1, 0.4, 2.0])
        vals = heat_kernel(0.5, ts, 2)
        assert vals.shape == (3,)
        for t, v in zip(ts, vals):
            np.testing.assert_allclose(v, heat_kernel(0.5, float(t), 2), rtol=1e-15)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(BadTime):
            heat_kernel(0.0, 0.0, 2)
        with pytest.raises(BadTime):
            heat_kernel(1.0, -0.3, 3)
        with pytest.raises(BadTime):
            heat_kernel(0.0, np.array([0.5, 0.0]), 1)

    @pytest.mark.parametrize("t", [
        math.nan, math.inf, -math.inf, np.array([0.5, math.nan]),
        np.array([math.inf, 0.5]),
    ])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(BadTime, match="finite"):
            heat_kernel(0.5, t, 3)

    @pytest.mark.parametrize("x", [
        math.nan, math.inf, np.array([0.0, math.nan, 0.0]),
        np.array([-math.inf, 0.0, 0.0]),
    ])
    def test_rejects_non_finite_point(self, x):
        with pytest.raises(ValueError, match="finite"):
            heat_kernel(x, 0.5, 3)

    @pytest.mark.parametrize(
        "x", [np.array([0.3, 0.4]), np.array([[0.3, 0.4, 0.0]])],
        ids=["short", "row"],
    )
    def test_rejects_a_point_of_the_wrong_shape(self, x):
        # a 2-vector in dimension 3 used to be taken for its length, and
        # a (1, 3) array failed inside matmul
        shape = re.escape(str(x.shape))
        with pytest.raises(ValueError, match=f"shape {shape} .* n = 3, shape \\(3,\\)"):
            heat_kernel(x, 0.5, 3)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 1.0, 0)

    def test_mass_inside_a_wide_ball(self):
        # nearly all of the unit mass sits within radius 8 sqrt(t)
        for n in (1, 2, 3):
            for t in (0.04, 1.7):
                r = np.linspace(0.0, 8.0 * math.sqrt(t), 2001)
                g = np.array([heat_kernel(float(ri), t, n) for ri in r])
                surface = {
                    1: 2.0 * np.ones_like(r),
                    2: 2.0 * math.pi * r,
                    3: 4.0 * math.pi * r**2,
                }[n]
                mass = np.trapezoid(surface * g, r)
                assert 0.999 <= mass <= 1.000001


class TestSphereQuadrature:
    def test_circle_weights_sum_to_circumference(self):
        for m in (4, 16, 100):
            q = circle_quadrature(2.0, m)
            assert q.M_q == m
            assert np.all(q.weights > 0)
            np.testing.assert_allclose(q.weights.sum(), 4.0 * math.pi, rtol=1e-13)

    def test_sphere_weights_sum_to_area(self):
        for R in (1.0, 2.5):
            for m in (4, 8, 32):
                q = sphere_quadrature(R, m)
                assert q.M_q == 2 * m * m
                np.testing.assert_allclose(
                    q.weights.sum(), 4.0 * math.pi * R**2, rtol=1e-13
                )

    def test_nodes_sit_on_the_sphere(self):
        q = sphere_quadrature(1.5, 12)
        radii = np.sqrt((q.nodes**2).sum(axis=1))
        np.testing.assert_allclose(radii, 1.5, rtol=1e-13)

    def test_poles_are_never_nodes(self):
        q = sphere_quadrature(1.0, 16)
        assert q.nodes[:, 2].max() < 1.0
        assert q.nodes[:, 2].min() > -1.0

    def test_second_moments_are_exact(self):
        # y_x^2 and y_z^2 integrate to 4 pi R^4 / 3; the polar rule sees a
        # degree-five polynomial in s and the azimuth sums cos^2 exactly
        q = sphere_quadrature(2.0, 8)
        exact = 4.0 * math.pi * 2.0**4 / 3.0
        for axis in (0, 2):
            moment = float(q.weights @ q.nodes[:, axis] ** 2)
            np.testing.assert_allclose(moment, exact, rtol=1e-13)

    def test_rejects_coarse_or_degenerate_requests(self):
        with pytest.raises(ConfigError):
            sphere_quadrature(1.0, 3)
        with pytest.raises(ConfigError):
            circle_quadrature(1.0, 2)
        with pytest.raises(ConfigError):
            sphere_quadrature(0.0, 8)

    @pytest.mark.parametrize("R", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_radius(self, R):
        for build in (circle_quadrature, sphere_quadrature):
            with pytest.raises(ConfigError, match="finite"):
                build(R, 8)
        good = sphere_quadrature(1.0, 4)
        with pytest.raises(ConfigError, match="finite"):
            SphereQuadrature(n=3, R=R, nodes=good.nodes, weights=good.weights)

    @pytest.mark.parametrize("R", [1e200, 3.8e153])
    def test_rejects_a_radius_whose_measure_overflows(self, R):
        # R**2 used to raise OverflowError above about 1.3e154
        for build in (circle_quadrature, sphere_quadrature):
            with pytest.raises(ConfigError, match=re.escape(f"R = {R!r} is too large")):
                build(R, 8)
        good = sphere_quadrature(1.0, 4)
        with pytest.raises(ConfigError, match="too large"):
            SphereQuadrature(n=3, R=R, nodes=R * good.nodes, weights=good.weights)

    def test_largest_radius_builds(self):
        R = 3.7e153
        q = sphere_quadrature(R, 8)
        np.testing.assert_allclose(q.weights.sum(), 4.0 * math.pi * R * R, rtol=1e-13)

    @pytest.mark.parametrize("R", [1e-200, 5e-160])
    def test_rejects_a_radius_whose_square_underflows(self, R):
        # R^2 in the weights used to fail as "weights must be positive" or
        # "nodes do not lie on the sphere"
        for build in (circle_quadrature, sphere_quadrature):
            with pytest.raises(ConfigError, match=re.escape(f"R = {R!r} is too small")):
                build(R, 8)

    @pytest.mark.parametrize("m", [4, 24, 96])
    def test_smallest_radius_builds(self, m):
        R = 1.5e-154
        q = sphere_quadrature(R, m)
        np.testing.assert_allclose(q.weights.sum(), 4.0 * math.pi * R * R, rtol=1e-12)

    @pytest.mark.parametrize("R", [1e-3, 1.0, 7.5, 1e3])
    @pytest.mark.parametrize("m", [4, 5, 24, 48, 64, 96])
    def test_nodes_are_laid_out_ring_by_ring(self, m, R):
        # a layer sum from the polar axis keeps each ring's first node
        # with the ring's weight sum, which needs z and the weights equal
        # on a ring and x^2 + y^2 equal to a few ulp
        q = sphere_quadrature(R, m)
        assert q._ring_nodes == 2 * m
        z, weights = q.nodes[:, 2].reshape(m, -1), q.weights.reshape(m, -1)
        rho2 = (q.nodes[:, :2] ** 2).sum(axis=1).reshape(m, -1)
        assert (z == z[:, :1]).all()
        assert (weights == weights[:, :1]).all()
        assert (z[1:, 0] != z[:-1, 0]).all()
        tol = 4.0 * np.finfo(float).eps
        assert (np.abs(rho2 - rho2[:, :1]) <= tol * rho2[:, :1]).all()

    def test_rejects_inconsistent_hand_built_rules(self):
        good = sphere_quadrature(1.0, 6)
        with pytest.raises(ConfigError):
            SphereQuadrature(n=3, R=1.0, nodes=good.nodes, weights=2.0 * good.weights)
        with pytest.raises(ConfigError):
            SphereQuadrature(n=3, R=1.0, nodes=1.1 * good.nodes, weights=good.weights)
        with pytest.raises(ConfigError):
            SphereQuadrature(
                n=3, R=1.0, nodes=good.nodes, weights=-1.0 * good.weights
            )
        with pytest.raises(ConfigError):
            SphereQuadrature(n=4, R=1.0, nodes=good.nodes, weights=good.weights)


class TestSingleLayer:
    def test_zero_density_vanishes(self):
        q = sphere_quadrature(1.0, 8)
        val = single_layer(np.zeros(3), 0.3, lambda p, s: 0.0, 0.0, q, steps=24)
        assert val == 0.0

    def test_center_value_matches_radial_oracle(self):
        # at the center the surface integral collapses to a 1-D integral
        # of 4 pi R^2 Gamma(R, t - tau)
        R = 1.0
        q = sphere_quadrature(R, 16)
        for window in (0.05, 0.2, 1.0):
            oracle, _ = quad(
                lambda tau: 4.0 * math.pi * R**2 * heat_kernel(R, window - tau, 3),
                0.0,
                window,
                epsabs=1e-14,
                epsrel=1e-12,
                limit=200,
            )
            val = single_layer(np.zeros(3), window, unit_density, 0.0, q, steps=48)
            np.testing.assert_allclose(val, oracle, rtol=1e-4)

    def test_center_value_matches_closed_form(self):
        # the radial integral evaluates to R erfc(R / (2 sqrt(window)))
        val = single_layer(
            np.zeros(3), 0.05, unit_density, 0.0, sphere_quadrature(1.0, 16), steps=48
        )
        np.testing.assert_allclose(val, 0.001565402258002548, rtol=1e-5)

    def test_off_axis_value_matches_reduction(self):
        # for x on the polar axis the angular integral has a closed form,
        # leaving one adaptive quadrature in time
        R, window = 1.0, 0.05

        def reduced(rho, sigma):
            pref = 4.0 * math.pi * R**2 * (4.0 * math.pi * sigma) ** -1.5
            core = math.exp(-((rho - R) ** 2) / (4.0 * sigma)) - math.exp(
                -((rho + R) ** 2) / (4.0 * sigma)
            )
            return pref * core / (rho * R / sigma)

        q = sphere_quadrature(R, 16)
        for rho in (0.4, 0.75):
            oracle, _ = quad(
                lambda s: reduced(rho, s), 0.0, window, epsabs=1e-15, epsrel=1e-13,
                limit=400,
            )
            val = single_layer(
                np.array([0.0, 0.0, rho]), window, unit_density, 0.0, q, steps=48
            )
            np.testing.assert_allclose(val, oracle, rtol=1e-5)

    def test_time_dependent_density(self):
        R, t = 1.0, 0.2
        oracle, _ = quad(
            lambda tau: 4.0 * math.pi * R**2 * heat_kernel(R, t - tau, 3) * tau,
            0.0,
            t,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=400,
        )
        val = single_layer(
            np.zeros(3), t, lambda p, tau: tau, 0.0, sphere_quadrature(R, 16), steps=48
        )
        np.testing.assert_allclose(val, oracle, rtol=1e-4)

    def test_self_convergence_under_doubling(self):
        x = np.array([0.1, -0.2, 0.25])
        coarse = single_layer(x, 0.3, unit_density, 0.0, sphere_quadrature(1.0, 8), steps=24)
        fine = single_layer(x, 0.3, unit_density, 0.0, sphere_quadrature(1.0, 16), steps=48)
        assert abs(fine - coarse) / abs(fine) < 1e-4

    def test_self_convergence_on_the_circle(self):
        x = np.array([0.2, 0.1])
        coarse = single_layer(x, 0.3, unit_density, 0.0, circle_quadrature(1.0, 64), steps=24)
        fine = single_layer(x, 0.3, unit_density, 0.0, circle_quadrature(1.0, 128), steps=48)
        assert abs(fine - coarse) / abs(fine) < 1e-4

    def test_linear_in_the_density(self):
        x = np.array([0.3, 0.0, -0.1])
        q = sphere_quadrature(1.0, 8)
        f1 = lambda p, s: 1.0 + p[:, 2] ** 2
        f2 = lambda p, s: 1.0 + s
        combo = lambda p, s: 2.0 * f1(p, s) + 3.0 * f2(p, s)
        lhs = single_layer(x, 0.4, combo, 0.0, q, steps=24)
        rhs = 2.0 * single_layer(x, 0.4, f1, 0.0, q, steps=24) + 3.0 * single_layer(
            x, 0.4, f2, 0.0, q, steps=24
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_a_radius_whose_kernel_scale_overflows(self):
        # the same scale-free problem gives R times the value at R = 1
        R = 1e-100
        q = sphere_quadrature(R, 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                single_layer(np.array([0.0, 0.0, R]), 0.05 * R * R,
                             unit_density, 0.0, q)
        assert str(info.value) == (
            "single layer at R = 1e-100, window 0 to 5e-202 and density "
            "magnitude up to 1 leaves float64 range: overflow encountered "
            "in power"
        )
        q = sphere_quadrature(1.0, 24)
        assert single_layer(np.array([0.0, 0.0, 1.0]), 0.05, unit_density,
                            0.0, q) == 0.12615659936710236

    def test_rejects_a_density_whose_sum_overflows(self):
        q = sphere_quadrature(1.0, 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=(
                "at R = 1, window 0 to 0.05 and density magnitude up to "
                "1e\\+308 leaves float64 range"
            )):
                single_layer(np.array([0.0, 0.0, 1.0]), 0.05,
                             lambda p, s: 1e308, 0.0, q)

    def test_rejects_bad_window(self):
        q = sphere_quadrature(1.0, 8)
        with pytest.raises(BadWindow):
            single_layer(np.zeros(3), 0.3, unit_density, 0.3, q)
        with pytest.raises(BadWindow):
            single_layer(np.zeros(3), 0.3, unit_density, 0.5, q)

    # the last window has finite ends and an infinite width t - t1,
    # which returned NaN after three numpy warnings
    @pytest.mark.parametrize(
        "t, t1",
        [(math.nan, 0.0), (math.inf, 0.0), (0.3, -math.inf), (1e308, -1e308)],
    )
    def test_rejects_non_finite_window(self, t, t1):
        q = sphere_quadrature(1.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadWindow, match=re.escape(f"t1 = {t1}, t = {t}")):
                single_layer(np.zeros(3), t, unit_density, t1, q)

    def test_a_window_near_the_float64_maximum_overflows_only_in_the_kernel(self):
        # the panel bounds are halved before they are summed, so the only
        # overflow is the kernel scale's
        q = sphere_quadrature(1.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="window 0 to 1.7e\\+308"):
                single_layer(np.zeros(3), 1.7e308, unit_density, 0.0, q)

    def test_rejects_points_outside_the_ball(self):
        q = sphere_quadrature(1.0, 8)
        with pytest.raises(BadRadius):
            single_layer(np.array([1.1, 0.0, 0.0]), 0.3, unit_density, 0.0, q)
        with pytest.raises(BadRadius):
            single_layer(np.zeros(2), 0.3, unit_density, 0.0, q)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        q = sphere_quadrature(1.0, 8)
        with pytest.raises(BadRadius):
            single_layer(np.array([bad, 0.0, 0.0]), 0.3, unit_density, 0.0, q)

    def test_rejects_too_few_panels(self):
        q = sphere_quadrature(1.0, 8)
        with pytest.raises(ValueError):
            single_layer(np.zeros(3), 0.3, unit_density, 0.0, q, steps=2)

    @pytest.mark.parametrize("t, usable", [(0.05, 1014), (1.0, 1019), (1e300, 1075)])
    def test_rejects_panels_that_halve_below_the_normal_range(self, t, usable):
        # past the last usable count the smallest sigma node is subnormal
        # or zero (1e300 halves 1074 times before 0.5 ** k underflows)
        sigma, _ = _sigma_panels(t, 0.0, usable)
        assert sigma.min() >= sys.float_info.min
        message = f"steps = {usable + 1} .* at most {usable} keep"
        with pytest.raises(ValueError, match=message):
            _sigma_panels(t, 0.0, usable + 1)
        q = sphere_quadrature(1.0, 8)
        with pytest.raises(ValueError, match=f"at most {usable} keep"):
            single_layer(np.zeros(3), t, unit_density, 0.0, q, steps=usable + 1)


class TestJumpCheck:
    POLE = np.array([0.0, 0.0, 1.0])
    DISTANCES = [0.16, 0.12, 0.09, 0.06, 0.04]

    def test_unit_density_jump_is_minus_half(self):
        q = sphere_quadrature(1.0, 24)
        report = jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES, steps=48)
        assert abs(report.jump - (-0.5)) <= 0.02
        assert report.passed
        np.testing.assert_allclose(report.jump, -0.501619930319604, rtol=1e-6)

    def test_zero_density_jump_is_zero(self):
        q = sphere_quadrature(1.0, 24)
        report = jump_check(
            self.POLE, lambda p, s: 0.0, 0.05, q, self.DISTANCES, steps=48
        )
        assert report.jump == 0.0
        assert report.passed

    def test_density_two_doubles_the_jump(self):
        q = sphere_quadrature(1.0, 24)
        one = jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES, steps=48)
        two = jump_check(
            self.POLE, lambda p, s: 2.0, 0.05, q, self.DISTANCES, steps=48
        )
        assert abs(two.jump - (-1.0)) <= 0.04
        assert two.passed
        np.testing.assert_allclose(two.jump, 2.0 * one.jump, rtol=1e-12)

    def test_jump_independent_of_radius_and_window(self):
        for R, window in ((2.0, 0.05), (1.0, 0.4), (0.5, 0.01)):
            q = sphere_quadrature(R, 24)
            distances = [f * R for f in self.DISTANCES]
            report = jump_check(
                np.array([0.0, 0.0, R]), unit_density, window, q, distances, steps=48
            )
            assert abs(report.jump - (-0.5)) <= 0.02

    def test_generic_boundary_point(self):
        # away from the polar axis the rule loses its symmetry advantage;
        # the estimate stays inside the default tolerance
        q = sphere_quadrature(1.0, 24)
        report = jump_check(
            np.array([1.0, 0.0, 0.0]),
            unit_density,
            0.05,
            q,
            [0.3, 0.24, 0.18, 0.14],
            steps=48,
        )
        assert abs(report.jump - (-0.5)) <= 0.045
        assert report.passed

    def test_report_is_consistent(self):
        q = sphere_quadrature(1.0, 24)
        report = jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES, steps=48)
        assert report.jump == report.boundary_term - report.interior_limit
        assert report.target == -0.5
        assert report.resolution > 0
        # walking toward the layer the interior derivative keeps rising
        assert np.all(np.diff(report.derivatives) > 0)
        np.testing.assert_allclose(report.boundary_term, -0.12615659860176573, rtol=1e-6)
        np.testing.assert_allclose(report.interior_limit, 0.37546333171783824, rtol=1e-6)

    def test_derivatives_match_single_layer(self):
        # one density block shared by every evaluation gives the same bits
        # as separate single_layer calls, also for a density varying in
        # place and time
        q = sphere_quadrature(1.0, 12)

        def density(pts, tau):
            return 1.0 + tau + pts[:, 2]

        report = jump_check(self.POLE, density, 0.05, q, [0.3, 0.2], steps=8)
        for d, derivative in zip(report.distances, report.derivatives):
            h = d / 8.0
            inner, outer = (
                single_layer((1.0 - dist) * self.POLE, 0.05, density, 0.0, q, steps=8)
                for dist in (d - h, d + h)
            )
            assert derivative == (inner - outer) / (2.0 * h)

    def test_density_evaluated_once_per_sigma_node(self):
        calls = []

        def density(pts, tau):
            calls.append(tau)
            return 1.0

        q = sphere_quadrature(1.0, 24)
        jump_check(self.POLE, density, 0.05, q, self.DISTANCES, steps=48)
        # four Gauss nodes per panel, plus the target value phi(x0, t)
        assert len(calls) == 48 * 4 + 1

    def test_rejects_distances_below_resolution(self):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(ResolutionError):
            jump_check(self.POLE, unit_density, 0.05, q, [0.01, 0.005], steps=48)

    def test_rejects_bad_distance_lists(self):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(ValueError):
            jump_check(self.POLE, unit_density, 0.05, q, [0.04, 0.09], steps=48)
        with pytest.raises(ValueError):
            jump_check(self.POLE, unit_density, 0.05, q, [0.1, 0.0], steps=48)
        with pytest.raises(ValueError):
            jump_check(self.POLE, unit_density, 0.05, q, [], steps=48)

    def test_rejects_points_off_the_sphere(self):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(BadRadius):
            jump_check(
                np.array([0.0, 0.0, 0.9]), unit_density, 0.05, q, self.DISTANCES
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(BadRadius):
            jump_check(
                np.array([bad, 0.0, 0.0]), unit_density, 0.05, q, self.DISTANCES
            )

    @pytest.mark.parametrize("distances", [
        [0.16, math.nan, 0.04], [math.inf, 0.16, 0.04], [0.16, 0.04, -math.inf],
    ])
    def test_rejects_non_finite_distances(self, distances):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(ValueError, match="finite"):
            jump_check(self.POLE, unit_density, 0.05, q, distances)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_window(self, t):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(BadWindow, match="finite"):
            jump_check(self.POLE, unit_density, t, q, self.DISTANCES)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(ValueError, match="tol_jump"):
            jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES, tol_jump=tol)

    @pytest.mark.parametrize("tol", [-1.0, -5e-324, -math.inf])
    def test_rejects_negative_tolerance(self, tol):
        q = sphere_quadrature(1.0, 24)
        with pytest.raises(ValueError, match="nonnegative"):
            jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES, tol_jump=tol)

    def test_zero_tolerance_is_a_verdict(self):
        q = sphere_quadrature(1.0, 24)
        report = jump_check(
            self.POLE, unit_density, 0.05, q, self.DISTANCES, tol_jump=0.0
        )
        assert not report.passed
        exact = jump_check(
            self.POLE, lambda p, s: 0.0, 0.05, q, self.DISTANCES, tol_jump=0.0
        )
        assert exact.passed

    @pytest.mark.parametrize("R", [1e90, 1e100, 1e-80, 1e-100])
    def test_rejects_radii_whose_sums_or_fit_overflow(self, R):
        # the CLI's scale-free defaults: at 1e90 and 1e100 the fit's d^4
        # overflows, at 1e-80 the slope factor and at 1e-100 the kernel scale
        q = sphere_quadrature(R, 24)
        distances = [f * R for f in (0.16, 0.12, 0.09, 0.06, 0.04)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="leaves float64 range"):
                jump_check(np.array([0.0, 0.0, R]), unit_density, 0.05 * R * R, q,
                           distances)

    def test_rejects_a_density_whose_sums_overflow(self):
        # R = 1 is well inside range: the message names the density's size
        q = sphere_quadrature(1.0, 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                jump_check(self.POLE, lambda p, s: 1e308, 0.05, q, self.DISTANCES)
        assert str(info.value) == (
            "jump check at R = 1, window 0.05, distances 0.16 to 0.04 and "
            "density magnitude up to 1e+308 leaves float64 range: "
            "overflow encountered in multiply"
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_still_reaches_the_sums(self, value):
        q = sphere_quadrature(1.0, 24)
        with np.errstate(invalid="ignore"):
            report = jump_check(self.POLE, lambda p, s: value, 0.05, q,
                                self.DISTANCES)
        assert not math.isfinite(report.boundary_term)
        assert not math.isfinite(report.jump)
        assert not report.passed


def full_array_layer_sum(x, quad, sigma, omega, density, finite, eta=None):
    """_layer_sum as one pass over the whole (M_q, live) kernel, with the
    exponents clamped at EXP_ZERO before exp."""
    vec = x - quad.nodes
    d2 = (vec**2).sum(axis=1)
    live = ~((-d2.min() / (4.0 * sigma) < EXP_ZERO) & finite)
    s = sigma[live]
    kernel = -d2[:, None] / (4.0 * s)
    np.maximum(kernel, EXP_ZERO, out=kernel)
    np.exp(kernel, out=kernel)
    kernel *= (4.0 * np.pi * s) ** (-quad.n / 2.0)
    if eta is not None:
        kernel *= -(vec @ eta)[:, None] / (2.0 * s)
    kernel *= density[:, live]
    columns = np.zeros(sigma.size)
    columns[live] = quad.weights @ kernel
    return float(columns @ omega)


def _report_values(report: JumpReport) -> list[float]:
    return [report.jump, report.boundary_term, report.interior_limit,
            *report.derivatives.tolist()]


def full_node_report(x0, phi, t, quad, distances, steps=48) -> list[float]:
    """jump_check's report values with every layer sum over all nodes of
    quad, in jump_check's own arithmetic."""
    sigma, omega = _sigma_panels(t, 0.0, steps)
    _, density, finite = _density_block(phi, quad, t, sigma)
    return walk_report(x0, quad, sigma, omega, density, finite, distances)


def walk_report(x0, quad, sigma, omega, density, finite, distances) -> list[float]:
    """jump_check's report values from the given rule and density block."""
    eta = x0 / math.sqrt(float(x0 @ x0))

    def u_at(dist):
        return _layer_sum(x0 - dist * eta, quad, sigma, omega, density, finite)

    d = np.asarray(distances, dtype=float)
    derivs = np.empty(d.size)
    for i, di in enumerate(d):
        h = di / 8.0
        derivs[i] = (u_at(di - h) - u_at(di + h)) / (2.0 * h)
    boundary = _layer_sum(x0, quad, sigma, omega, density, finite, eta=eta)
    degree = min(2, d.size - 1)
    interior = float(np.polynomial.polynomial.polyfit(d, derivs, degree)[0])
    return [boundary - interior, boundary, interior, *derivs.tolist()]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLiveColumns:
    """Layer sums skip sigma columns whose kernel is exactly zero.

    FULL_SUM holds the reports of the sum over every column and every
    node, which computed each exp on the underflow path; the skip must
    give the same bits wherever the live columns are reduced the same
    way. jump_check itself sums the pole walk over polar rings, whose
    reports RING_SUM pins.
    """

    POLE = np.array([0.0, 0.0, 1.0])
    DISTANCES = [0.16, 0.12, 0.09, 0.06, 0.04]
    # jump, boundary_term, interior_limit, derivatives at each distance
    FULL_SUM = {
        24: [-0.5016199303196003, -0.12615659860176584, 0.3754633317178344,
             0.2769695645643205, 0.3031485744653543, 0.3221942441398889,
             0.3404552884957326, 0.35244552919600075],
        48: [-0.5009791962172119, -0.12615659974667978, 0.37482259647053207,
             0.2769695771414515, 0.303148416861652, 0.32219408227461277,
             0.34047330960122657, 0.3521212934297649],
        64: [-0.5009792543492977, -0.12615659868442713, 0.3748226556648705,
             0.2769695771414525, 0.3031484168617057, 0.3221940822728019,
             0.3404733093790274, 0.35212132310640243],
        80: [-0.5009792549673604, -0.12615659921836725, 0.3748226557489931,
             0.2769695771414643, 0.3031484168617297, 0.32219408227281054,
             0.340473309378798, 0.35212132314857564],
        96: [-0.500979254814834, -0.12615659906495927, 0.3748226557498747,
             0.27696957714146986, 0.3031484168616904, 0.322194082272792,
             0.3404733093787434, 0.35212132314899336],
    }

    # jump_check's reports, summed over polar rings
    RING_SUM = {
        24: [-0.5016199303196027, -0.1261565986017658, 0.37546333171783697,
             0.2769695645643215, 0.3031485744653571, 0.3221942441398926,
             0.3404552884957261, 0.3524455291960063],
        48: [-0.5009791962172354, -0.12615659974667986, 0.37482259647055555,
             0.2769695771414511, 0.30314841686166355, 0.3221940822746029,
             0.34047330960122285, 0.35212129342977877],
        64: [-0.500979254349206, -0.1261565986844273, 0.37482265566477874,
             0.27696957714145287, 0.3031484168617075, 0.32219408227278895,
             0.3404733093790256, 0.3521213231063511],
    }

    @pytest.mark.parametrize("m", [24, 48, 64])
    def test_pole_reports_are_bit_equal(self, m):
        # the same walk with every layer sum over all 2 m^2 nodes
        q = sphere_quadrature(1.0, m)
        report = full_node_report(self.POLE, unit_density, 0.05, q, self.DISTANCES)
        assert report == self.FULL_SUM[m]

    @pytest.mark.parametrize("m", [24, 48, 64])
    def test_ring_reports_are_pinned_and_agree(self, m):
        q = sphere_quadrature(1.0, m)
        report = jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES)
        assert _report_values(report) == self.RING_SUM[m]
        np.testing.assert_allclose(
            _report_values(report), self.FULL_SUM[m], rtol=1e-12
        )

    @pytest.mark.parametrize("m", [80, 96])
    def test_fine_pole_reports_agree(self, m):
        # the BLAS reduction blocks by column count, so fewer live
        # columns may round the last bits differently
        q = sphere_quadrature(1.0, m)
        report = jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES)
        np.testing.assert_allclose(
            _report_values(report), self.FULL_SUM[m], rtol=1e-12
        )

    def test_circle_report_is_bit_equal(self):
        q = circle_quadrature(1.0, 128)
        report = jump_check(
            np.array([0.0, 1.0]), unit_density, 0.05, q,
            [0.3, 0.24, 0.18, 0.14, 0.1], steps=48,
        )
        assert _report_values(report) == [
            -0.5096501435303815, -0.06391665498255768, 0.44573348854782385,
            0.18147524981636798, 0.22720961656116634, 0.2773831335569096,
            0.31249705586492227, 0.34825146855204214,
        ]

    def test_generic_boundary_point_is_bit_equal(self):
        q = sphere_quadrature(1.0, 24)
        report = jump_check(
            np.array([1.0, 0.0, 0.0]), unit_density, 0.05, q,
            [0.3, 0.24, 0.18, 0.14], steps=48,
        )
        assert _report_values(report) == [
            -0.5396578804295846, -0.13476316620940793, 0.40489471422017664,
            0.18580095783939563, 0.2240564185985519, 0.2643122892458765,
            0.2936682069727271,
        ]

    def test_time_dependent_single_layer_is_bit_equal(self):
        q = sphere_quadrature(1.0, 16)
        sigma, omega = _sigma_panels(0.2, 0.0, 48)
        _, block, finite = _density_block(lambda p, tau: tau, q, 0.2, sigma)
        center = _layer_sum(np.zeros(3), q, sigma, omega, block, finite)
        assert center == 0.007403440164450971
        # single_layer sums the centre over polar rings
        rings = single_layer(np.zeros(3), 0.2, lambda p, tau: tau, 0.0, q, steps=48)
        assert rings == 0.0074034401644509674
        np.testing.assert_allclose(rings, center, rtol=1e-12)
        off_axis = single_layer(
            np.array([0.1, -0.2, 0.85]), 0.2, lambda p, tau: tau + p[:, 2], 0.0, q,
            steps=48,
        )
        assert off_axis == 0.20277093149686337

    def test_non_finite_density_in_dead_columns_still_poisons(self):
        # NaN only for tau within 1e-9 of t: at interior points those
        # columns' kernel is exactly zero, but 0 * NaN is NaN
        def density(pts, tau):
            return math.nan if 0.05 - tau < 1e-9 else 1.0

        q = sphere_quadrature(1.0, 24)
        report = jump_check(self.POLE, density, 0.05, q, self.DISTANCES, steps=48)
        assert math.isnan(report.jump)
        assert np.all(np.isnan(report.derivatives))
        assert not report.passed
        inf_density = lambda pts, tau: math.inf if 0.05 - tau < 1e-9 else 1.0
        with np.errstate(invalid="ignore"):
            value = single_layer(np.zeros(3), 0.05, inf_density, 0.0, q, steps=48)
        assert math.isnan(value)

    @given(st.lists(st.floats(max_value=0.0), min_size=1, max_size=40))
    @example([-math.inf])
    @example([EXP_ZERO, math.nextafter(EXP_ZERO, 0.0), -745.1332191019411, -1e16])
    def test_clamp_before_exp_is_exact(self, exponents):
        a = np.array(exponents)
        clamped = np.exp(np.maximum(a, EXP_ZERO))
        assert np.array_equal(clamped.view(np.uint64), np.exp(a).view(np.uint64))

    @given(st.lists(st.floats(max_value=0.0), min_size=1, max_size=40))
    @example([-math.inf])
    @example([EXP_ZERO, math.nextafter(EXP_ZERO, 0.0), -745.1332191019411, -1e16])
    @example([-0.0, -708.4, -720.0, -745.0])
    def test_masked_exp_is_exact(self, exponents):
        a = np.array(exponents)
        masked = a.copy()
        dead = masked <= EXP_ZERO
        np.exp(masked, out=masked, where=~dead)
        np.copyto(masked, 0.0, where=dead)
        assert np.array_equal(masked.view(np.uint64), np.exp(a).view(np.uint64))

    @settings(deadline=None, max_examples=60)
    @given(
        rule=st.sampled_from([
            (sphere_quadrature, 8), (sphere_quadrature, 16), (sphere_quadrature, 24),
            (circle_quadrature, 16), (circle_quadrature, 64),
        ]),
        R=st.sampled_from([0.5, 1.0, 3.0]),
        point=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        direction=st.none() | st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        t=st.floats(1e-3, 2.0),
        t1_frac=st.sampled_from([0.0, 0.5, 0.9]),
        steps=st.integers(4, 48),
        density=st.sampled_from(["constant", "tau", "varying", "poisoned"]),
        c=st.floats(-3.0, 3.0),
        poison=st.lists(
            st.tuples(
                st.integers(0, 191), st.sampled_from([math.nan, math.inf, -math.inf])
            ),
            min_size=1, max_size=3,
        ),
    )
    def test_layer_sum_matches_the_full_array_sum(
        self, rule, R, point, direction, t, t1_frac, steps, density, c, poison
    ):
        build, m = rule
        q = build(R, m)
        u = np.array(point[:q.n])
        x = R * u / max(1.0, float(np.linalg.norm(u)))
        eta = None
        if direction is not None:
            v = np.array(direction[:q.n])
            assume(np.linalg.norm(v) > 1e-3)
            eta = v / np.linalg.norm(v)
        sigma, omega = _sigma_panels(t, t1_frac * t, steps)
        bad = {t - sigma[i % sigma.size]: value for i, value in poison}

        def phi(pts, tau):
            if density == "constant":
                return c
            if density == "tau":
                return c + tau
            if density == "poisoned" and tau in bad:
                return bad[tau]
            return c + pts[:, 0] * tau - pts[:, -1]

        _, block, finite = _density_block(phi, q, t, sigma)
        with np.errstate(invalid="ignore", over="ignore"):
            got = _layer_sum(x, q, sigma, omega, block, finite, eta)
            want = full_array_layer_sum(
                x, q, sigma, omega, np.ascontiguousarray(block), finite, eta
            )
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_jump_check_peak_memory(self):
        q = sphere_quadrature(1.0, 64)
        tracemalloc.start()
        try:
            jump_check(self.POLE, unit_density, 0.05, q, self.DISTANCES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the constant density is one row of 192 sigma nodes (1.5 kB),
        # where every node took 12.6 MB; the boundary kernel (113 live
        # columns over 64 rings) takes 58 kB, and the largest arrays left
        # are the 197 kB node-to-x0 differences of the resolution scale
        assert peak < 1_000_000

    def test_off_axis_jump_check_stores_a_scalar_density_as_a_row(self):
        # a scalar density off the axis is one row broadcast over the
        # 8,192 nodes, where filling every node peaked at 18.45 MB; the
        # reports keep the bits of the filled block
        q = sphere_quadrature(1.0, 64)
        tracemalloc.start()
        try:
            report = jump_check(
                np.array([1.0, 0.0, 0.0]), unit_density, 0.05, q, self.DISTANCES
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert _report_values(report) == [
            -0.5058482651659262, -0.12518761459182146, 0.38066065057410475,
            0.2769695557069348, 0.3031474768608304, 0.3221834292796544,
            0.3405672983364194, 0.35502134159905163,
        ]


def magnitude_layer_sum(x, quad, sigma, omega, density, eta=None):
    """The layer sum with |density| and |slope|: the scale of its rounding."""
    vec = x - quad.nodes
    kernel = np.exp(-(vec**2).sum(axis=1)[:, None] / (4.0 * sigma))
    kernel *= (4.0 * np.pi * sigma) ** (-quad.n / 2.0)
    if eta is not None:
        kernel *= np.abs(vec @ eta)[:, None] / (2.0 * sigma)
    return float(quad.weights @ (kernel * np.abs(density)) @ omega)


class TestPolarRings:
    """On the polar axis a scalar density is summed over rings."""

    ON_AXIS = np.array([0.0, 0.0, 0.3])

    @staticmethod
    def full_and_rings(phi, quad, x, t=0.2, steps=24, eta=None):
        sigma, omega = _sigma_panels(t, 0.0, steps)
        _, block, finite = _density_block(phi, quad, t, sigma)
        ring_quad, ring_block, ring_finite = _density_block(
            phi, quad, t, sigma, x, eta
        )
        assert np.array_equal(ring_finite, finite)
        full = _layer_sum(x, quad, sigma, omega, block, finite, eta)
        rings = _layer_sum(x, ring_quad, sigma, omega, ring_block, ring_finite, eta)
        return ring_quad, full, rings

    @settings(deadline=None, max_examples=80)
    @given(
        m=st.integers(4, 32),
        R=st.floats(0.1, 10.0),
        t=st.floats(1e-3, 2.0),
        t1_frac=st.floats(0.0, 0.9),
        z_frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        eta_z=st.sampled_from([None, 1.0, -1.0]),
        steps=st.integers(4, 48),
        density=st.sampled_from(["constant", "tau", "tau2"]),
        c=st.floats(-3.0, 3.0),
    )
    @example(m=32, R=1.0, t=0.05, t1_frac=0.0, z_frac=1.0 - 1e-9, eta_z=1.0,
             steps=48, density="tau2", c=1.0)
    # subnormal densities, whose sums differ by subnormal steps (-5e-324
    # against 5e-324 at the first), and a tiny normal one, where the
    # relative term dwarfs the subnormal floor
    @example(m=4, R=1.0, t=1.0, t1_frac=0.0, z_frac=0.0, eta_z=1.0, steps=4,
             density="constant", c=2.2250738585e-313)
    @example(m=4, R=1.0, t=1.0, t1_frac=0.0, z_frac=0.0, eta_z=1.0, steps=4,
             density="constant", c=5e-324)
    @example(m=4, R=1.0, t=1.0, t1_frac=0.0, z_frac=0.0, eta_z=1.0, steps=4,
             density="constant", c=1e-300)
    def test_ring_sum_matches_the_full_sum(
        self, m, R, t, t1_frac, z_frac, eta_z, steps, density, c
    ):
        q = sphere_quadrature(R, m)
        x = np.array([0.0, 0.0, z_frac * R])
        eta = None if eta_z is None else np.array([0.0, 0.0, eta_z])
        sigma, omega = _sigma_panels(t, t1_frac * t, steps)

        def phi(pts, tau):
            if density == "constant":
                return c
            if density == "tau":
                return c + tau
            return c * tau * tau

        _, block, finite = _density_block(phi, q, t, sigma)
        ring_quad, ring_block, ring_finite = _density_block(phi, q, t, sigma, x, eta)
        assert ring_quad.M_q == m
        np.testing.assert_allclose(ring_quad.weights.sum(), q.surface_measure,
                                   rtol=1e-13)
        got = _layer_sum(x, ring_quad, sigma, omega, ring_block, ring_finite, eta)
        want = _layer_sum(x, q, sigma, omega, block, finite, eta)
        scale = magnitude_layer_sum(x, q, sigma, omega, block, eta)
        # A rounding to a subnormal result errs by up to half the subnormal
        # step, 2^-1075, whatever the result, so no relative bound holds
        # there. In a layer sum such roundings are each kernel entry's
        # product with the density, the weights' products in the matvec
        # and the products with omega; sums of subnormals are exact. The
        # matvec multiplies an entry's error by w_i and the last dot by
        # omega_j, so one sum errs by at most 2^-1075 times
        #   |S| (t - t1)  for the entries (sum of w_i omega_j),
        #   M_q (t - t1)  for the M_q weight products per sigma node,
        #   G             for the G products with omega,
        # beyond its relative rounding, |S| the sphere's measure. The two
        # sums compared err together by at most K 2^-1074, K this count
        # of roundings weighted by what the sum multiplies them by.
        K = sigma.size + (t - t1_frac * t) * (q.surface_measure + q.M_q)
        assert abs(got - want) <= 1e-12 * scale + K * 2**-1074
        if eta is None and t1_frac == 0.0:
            assert same_bits(single_layer(x, t, phi, 0.0, q, steps=steps), got)

    def test_azimuth_dependent_density_sums_every_node(self):
        q = sphere_quadrature(1.0, 12)
        phi = lambda pts, tau: 1.0 + pts[:, 0]
        ring_quad, full, rings = self.full_and_rings(phi, q, self.ON_AXIS)
        assert ring_quad is q
        assert same_bits(single_layer(self.ON_AXIS, 0.2, phi, 0.0, q, steps=24), full)
        report = jump_check(np.array([0.0, 0.0, 1.0]), phi, 0.05, q, [0.3, 0.2],
                            steps=8)
        assert _report_values(report) == full_node_report(
            np.array([0.0, 0.0, 1.0]), phi, 0.05, q, [0.3, 0.2], steps=8
        )

    @pytest.mark.parametrize("x", [
        np.array([1e-300, 0.0, 0.3]), np.array([0.0, -0.2, 0.3]),
        np.array([0.1, 0.1, 0.0]),
    ])
    def test_off_axis_point_sums_every_node(self, x):
        q = sphere_quadrature(1.0, 12)
        ring_quad, full, _ = self.full_and_rings(unit_density, q, x)
        assert ring_quad is q
        assert same_bits(single_layer(x, 0.2, unit_density, 0.0, q, steps=24), full)

    def test_off_axis_slope_sums_every_node(self):
        q = sphere_quadrature(1.0, 12)
        eta = np.array([0.6, 0.0, 0.8])
        ring_quad, _, _ = self.full_and_rings(unit_density, q, self.ON_AXIS, eta=eta)
        assert ring_quad is q

    def test_nan_on_one_node_of_a_ring_sums_every_node(self):
        q = sphere_quadrature(1.0, 12)

        def phi(pts, tau):
            values = np.ones(len(pts))
            values[5] = math.nan
            return values

        ring_quad, full, _ = self.full_and_rings(phi, q, self.ON_AXIS)
        assert ring_quad is q
        assert math.isnan(full)
        assert same_bits(single_layer(self.ON_AXIS, 0.2, phi, 0.0, q, steps=24), full)

    def test_circle_rule_sums_every_node(self):
        q = circle_quadrature(1.0, 64)
        x = np.array([0.0, 0.3])
        ring_quad, full, _ = self.full_and_rings(unit_density, q, x)
        assert ring_quad is q
        assert same_bits(single_layer(x, 0.2, unit_density, 0.0, q, steps=24), full)

    def test_rules_without_rings_sum_every_node(self):
        good = sphere_quadrature(1.0, 6)
        order = np.random.default_rng(3).permutation(good.M_q)
        shuffled = SphereQuadrature(n=3, R=1.0, nodes=good.nodes[order],
                                    weights=good.weights[order])
        # one ring's weights moved by far more than a few ulp
        weights = good.weights.copy()
        weights[0] *= 1.0 + 1e-9
        weights[1] /= 1.0 + 1e-9
        uneven = SphereQuadrature(n=3, R=1.0, nodes=good.nodes, weights=weights)
        for q in (shuffled, uneven):
            ring_quad, full, _ = self.full_and_rings(unit_density, q, self.ON_AXIS)
            assert ring_quad is q
        rule = _density_block(unit_density, good, 1.0, np.array([0.5]), self.ON_AXIS)[0]
        assert rule.M_q == 6

    def test_hand_built_and_replaced_rules_sum_every_node(self):
        # only sphere_quadrature records its rings, so a copy of its rule
        # sums every node although its layout is exactly ring by ring
        good = sphere_quadrature(1.0, 6)
        _, _, want = self.full_and_rings(unit_density, good, self.ON_AXIS)
        copies = (
            SphereQuadrature(n=3, R=1.0, nodes=good.nodes, weights=good.weights),
            dataclasses.replace(good),
        )
        for q in copies:
            assert q._ring_nodes == 0
            ring_quad, full, _ = self.full_and_rings(unit_density, q, self.ON_AXIS)
            assert ring_quad is q
            np.testing.assert_allclose(full, want, rtol=1e-13)

    @settings(deadline=None, max_examples=40)
    @given(
        poison=st.lists(
            st.tuples(st.integers(0, 95), st.sampled_from([math.inf, -math.inf])),
            min_size=1, max_size=3,
        ),
        z_frac=st.floats(-0.99, 0.99),
        eta_z=st.sampled_from([None, 1.0, -1.0]),
    )
    @example(poison=[(0, math.inf)], z_frac=0.0, eta_z=None)
    @example(poison=[(95, -math.inf)], z_frac=0.5, eta_z=None)
    @example(poison=[(40, math.inf), (41, -math.inf)], z_frac=0.0, eta_z=None)
    def test_ring_constant_infinite_density_matches_the_full_sum(
        self, poison, z_frac, eta_z
    ):
        q = sphere_quadrature(1.0, 8)
        sigma, _ = _sigma_panels(0.2, 0.0, 24)
        bad = {0.2 - sigma[i]: value for i, value in poison}
        phi = lambda pts, tau: bad.get(tau, 1.0)
        x = np.array([0.0, 0.0, z_frac])
        eta = None if eta_z is None else np.array([0.0, 0.0, eta_z])
        with np.errstate(invalid="ignore"):
            ring_quad, full, rings = self.full_and_rings(phi, q, x, eta=eta)
        assert ring_quad.M_q == 8
        assert not math.isfinite(full)
        assert same_bits(rings, full) or (math.isnan(rings) and math.isnan(full))


class TestStreamedBlock:
    """While phi returns scalars the density block is one row, summed
    over polar rings from the pole, and from the first array every node
    is stored: the full block's bits either way, and the reports of the
    sum over rings or over every node."""

    POLE = np.array([0.0, 0.0, 1.0])
    DISTANCES = [0.3, 0.2]
    STEPS = 8
    T = 0.05
    SIGMA, OMEGA = _sigma_panels(T, 0.0, STEPS)
    TAUS = T - SIGMA

    def blocks_and_report(self, phi, quad):
        with np.errstate(invalid="ignore"):
            streamed = _density_block(phi, quad, self.T, self.SIGMA, self.POLE)
            full = _density_block(phi, quad, self.T, self.SIGMA)
            report = jump_check(
                self.POLE, phi, self.T, quad, self.DISTANCES, steps=self.STEPS
            )
        return streamed, full, _report_values(report)

    def assert_keeps_every_node(self, phi):
        q = sphere_quadrature(1.0, 12)
        (rule, block, finite), (_, full, full_finite), report = (
            self.blocks_and_report(phi, q)
        )
        assert rule is q
        assert same_bits(block, full)
        assert np.array_equal(finite, full_finite)
        with np.errstate(invalid="ignore"):
            want = full_node_report(
                self.POLE, phi, self.T, q, self.DISTANCES, steps=self.STEPS
            )
        assert same_bits(report, want)

    def assert_keeps_rings(self, phi):
        q = sphere_quadrature(1.0, 12)
        (rule, block, finite), (_, full, full_finite), report = (
            self.blocks_and_report(phi, q)
        )
        assert rule is q._ring_rule
        assert same_bits(block, full[::q._ring_nodes])
        assert np.array_equal(finite, full_finite)
        # the sum over each ring's first node of the every-node block
        with np.errstate(invalid="ignore"):
            want = walk_report(
                self.POLE, q._ring_rule, self.SIGMA, self.OMEGA,
                full[::q._ring_nodes], full_finite, self.DISTANCES,
            )
        assert same_bits(report, want)

    def test_ring_rule_is_built_once(self):
        q = sphere_quadrature(1.0, 12)
        assert q._ring_nodes == 24
        assert q._ring_rule is q._ring_rule
        assert q._ring_rule.M_q == 12
        assert circle_quadrature(1.0, 12)._ring_nodes == 0

    @pytest.mark.parametrize("kind", ["scalar", "array"])
    def test_ring_constant_densities_keep_rings(self, kind):
        # only a scalar density is known to be constant in space; an
        # array constant on every ring is summed over every node
        if kind == "scalar":
            self.assert_keeps_rings(lambda pts, tau: 1.0 + tau)
        else:
            self.assert_keeps_every_node(lambda pts, tau: 1.0 + pts[:, 2] * tau)

    @pytest.mark.parametrize("g", [0, 13, 31])
    @pytest.mark.parametrize("kind", ["scalar", "array"])
    def test_a_ring_breaking_column_keeps_every_node(self, g, kind):
        # before column g the density is a scalar or a ring-constant array
        def phi(pts, tau):
            if tau == self.TAUS[g]:
                return 1.0 + pts[:, 0]
            return 1.0 + tau if kind == "scalar" else 1.0 + pts[:, 2] * tau

        self.assert_keeps_every_node(phi)

    @pytest.mark.parametrize("g", [0, 13, 31])
    def test_a_scalar_nan_keeps_rings(self, g):
        phi = lambda pts, tau: math.nan if tau == self.TAUS[g] else 1.0
        self.assert_keeps_rings(phi)
        # as over every node, the NaN reaches every sum of the report
        _, _, report = self.blocks_and_report(phi, sphere_quadrature(1.0, 12))
        assert all(math.isnan(value) for value in report)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_a_scalar_infinity_keeps_rings(self, value):
        self.assert_keeps_rings(
            lambda pts, tau: value if tau == self.TAUS[13] else 1.0
        )

    def test_nan_on_one_node_keeps_every_node(self):
        def phi(pts, tau):
            if tau != self.TAUS[13]:
                return 1.0
            values = np.ones(len(pts))
            values[30] = math.nan
            return values

        self.assert_keeps_every_node(phi)

    def test_signed_zeros_survive_the_expansion(self):
        # 0.0 and -0.0 columns by turns, which compare equal
        zeros = lambda pts, tau: -0.0 if tau in self.TAUS[::2] else 0.0
        self.assert_keeps_rings(zeros)
        # the scalar columns before an array keep their signs in the
        # filled block
        phi = lambda pts, tau: pts[:, 0] if tau == self.TAUS[20] else zeros(pts, tau)
        self.assert_keeps_every_node(phi)
        q = sphere_quadrature(1.0, 12)
        _, block, _ = _density_block(phi, q, self.T, self.SIGMA, self.POLE)
        signs = np.signbit([zeros(None, tau) for tau in self.TAUS[:20]])
        assert (np.signbit(block[:, :20]) == signs).all()


class TestSurfaceIntegralBound:
    POLE = np.array([0.0, 0.0, 1.0])

    def refinements(self, R=1.0):
        return [sphere_quadrature(R, m) for m in (8, 16, 32, 64)]

    def test_exponent_one_converges_to_four_pi_r(self):
        # closed form: pi R int_0^pi sin(theta)/sin(theta/2) dtheta = 4 pi R
        oracle, _ = quad(
            lambda th: math.pi * math.sin(th) / math.sin(th / 2.0), 0.0, math.pi
        )
        report = surface_integral_bound(self.POLE, 1.0, self.refinements())
        assert report.converged
        assert not report.diverging
        np.testing.assert_allclose(report.limit, oracle, rtol=1e-10)
        np.testing.assert_allclose(report.limit, 4.0 * math.pi, rtol=1e-12)

    def test_exponent_one_scales_with_radius(self):
        R = 2.5
        report = surface_integral_bound(
            np.array([0.0, 0.0, R]), 1.0, self.refinements(R)
        )
        assert report.converged
        np.testing.assert_allclose(report.limit, 4.0 * math.pi * R, rtol=1e-12)

    def test_exponent_zero_gives_surface_measure(self):
        report = surface_integral_bound(self.POLE, 0.0, self.refinements())
        assert report.converged
        np.testing.assert_allclose(report.values, 4.0 * math.pi, rtol=1e-12)
        np.testing.assert_allclose(report.limit, 4.0 * math.pi, rtol=1e-12)

    def test_exponent_two_diverges_on_the_sphere(self):
        report = surface_integral_bound(self.POLE, 2.0, self.refinements())
        assert report.diverging
        assert not report.converged
        assert np.all(np.diff(report.values) > 0)
        assert math.isnan(report.limit)

    def test_circle_diverges_at_its_own_threshold(self):
        # in the plane the threshold exponent is n - 1 = 1
        quads = [circle_quadrature(1.0, m) for m in (32, 64, 128, 256)]
        report = surface_integral_bound(np.array([1.0, 0.0]), 1.0, quads)
        assert report.diverging
        assert not report.converged

    def test_interior_point_converges_for_any_exponent(self):
        x = np.array([0.3, -0.1, 0.2])
        for a in (0.0, 1.0, 2.0, 3.5):
            report = surface_integral_bound(x, a, self.refinements())
            assert report.converged, f"a = {a} should converge off the sphere"

    def test_circle_interior_converges(self):
        quads = [circle_quadrature(1.0, m) for m in (32, 64, 128)]
        report = surface_integral_bound(np.array([0.3, 0.2]), 1.5, quads)
        assert report.converged

    def test_rel_changes_match_values(self):
        report = surface_integral_bound(self.POLE, 2.0, self.refinements())
        assert report.rel_changes.shape == (3,)
        np.testing.assert_allclose(
            report.rel_changes,
            np.abs(np.diff(report.values)) / np.abs(report.values[1:]),
            rtol=1e-15,
        )

    def test_rejects_bad_requests(self):
        quads = self.refinements()
        with pytest.raises(ValueError):
            surface_integral_bound(self.POLE, -0.5, quads)
        with pytest.raises(ValueError):
            surface_integral_bound(self.POLE, 1.0, quads[:1])
        mixed = [sphere_quadrature(1.0, 8), sphere_quadrature(2.0, 16)]
        with pytest.raises(ValueError):
            surface_integral_bound(self.POLE, 1.0, mixed)
        with pytest.raises(BadRadius):
            surface_integral_bound(np.array([1.2, 0.0, 0.0]), 1.0, quads)
        for bad in (math.nan, math.inf):
            with pytest.raises(BadRadius):
                surface_integral_bound(np.array([bad, 0.0, 0.0]), 1.0, quads)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_exponent(self, a):
        with pytest.raises(ValueError, match="finite"):
            surface_integral_bound(self.POLE, a, self.refinements())
