import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asx import (
    DomainError,
    ObservationPoint,
    kz_branch,
    local_half_width,
    saddle_point,
)
from asx.errors import ConfigError, DomainError
from asx.spectral import _phase_grid, _sdp_grid


def random_points(rng, n, theta_min=0.0):
    pts = []
    while len(pts) < n:
        x, y, z = rng.uniform(-50, 50, 2).tolist() + [rng.uniform(0.05, 50)]
        p = ObservationPoint(x, y, z)
        if p.theta >= theta_min:
            pts.append(p)
    return pts


class TestObservationPoint:
    def test_derived_fields(self):
        p = ObservationPoint(3, 0, 4)
        assert p.r == 5.0
        assert p.theta == 0.8
        assert p.rho_xy == 3.0

    def test_r_survives_overflow_and_underflow(self):
        for scale in (1e200, 1e-200):
            p = ObservationPoint(3 * scale, 0.0, 4 * scale)
            assert_allclose(p.r, 5 * scale, rtol=1e-15)
            assert_allclose(p.theta, 0.8, rtol=1e-15)

    def test_rejects_lower_half_space(self):
        with pytest.raises(DomainError):
            ObservationPoint(1, 1, -1)
        with pytest.raises(DomainError):
            ObservationPoint(1, 1, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ObservationPoint(math.nan, 0, 1)

    def test_pythagoras_to_machine_tolerance(self):
        rng = np.random.default_rng(7)
        for p in random_points(rng, 100):
            assert 0.0 < p.theta <= 1.0
            assert_allclose(p.x**2 + p.y**2 + p.z**2, p.r**2, rtol=1e-13)


class TestKzBranch:
    def test_on_axis_propagating(self):
        assert kz_branch(0.0, 0.0, 1.0) == 1.0

    def test_evanescent_forces_positive_imag(self):
        kz = kz_branch(2.0, 0.0, 1.0)
        assert_allclose(kz, 1j * math.sqrt(3.0), rtol=1e-15)

    def test_interior_value(self):
        # sqrt(1 - 0.36) = 0.8, cross-checked by squaring below
        kz = kz_branch(0.6, 0.0, 1.0)
        assert_allclose(kz, 0.8, rtol=1e-15)
        assert_allclose(kz * kz + 0.36, 1.0, rtol=1e-15)

    def test_top_sheet_for_random_real_arguments(self):
        rng = np.random.default_rng(11)
        kx = rng.uniform(-3, 3, 500)
        ky = rng.uniform(-3, 3, 500)
        kz = kz_branch(kx, ky, 1.0)
        assert np.all(kz.imag >= 0.0)
        assert np.all(kz.real >= 0.0)
        inside = kx**2 + ky**2 <= 1.0
        assert np.all(kz.imag[inside] == 0.0)
        assert_allclose(kz**2 + kx**2 + ky**2, 1.0, rtol=1e-13)

    def test_negative_zero_imag_does_not_flip_sheet(self):
        kz = kz_branch(complex(2.0, -0.0), complex(0.0, -0.0), 1.0)
        assert kz.imag >= 0.0

    def test_rejects_bad_k0(self):
        with pytest.raises(ConfigError):
            kz_branch(0.0, 0.0, 0.0)


class TestSaddlePoint:
    def test_three_four_five(self):
        s = saddle_point(ObservationPoint(3, 0, 4), 1.0)
        assert_allclose((s.kxs, s.kys, s.kzs), (0.6, 0.0, 0.8), rtol=1e-15)
        assert s.k0r == 5.0
        assert_allclose(s.theta0, math.sqrt(1.0 / 5.0), rtol=1e-15)

    def test_on_axis(self):
        s = saddle_point(ObservationPoint(0, 0, 1), 1.0)
        assert (s.kxs, s.kys, s.kzs) == (0.0, 0.0, 1.0)

    def test_oblique_with_k0_2(self):
        s = saddle_point(ObservationPoint(1, 1, 1), 2.0)
        assert_allclose((s.kxs, s.kys, s.kzs), (2 / math.sqrt(3),) * 3, rtol=1e-14)
        assert_allclose(s.kxs**2 + s.kys**2 + s.kzs**2, 4.0, rtol=1e-14)

    def test_refuses_subnormal_direction_cosines(self):
        # z/r = 1e-320, or kzs = k0*z/r = 1e-310 at a normal z/r: 1/kzs
        # would overflow, so both are grazing observations
        subnormal = ((ObservationPoint(1, 0, 1e-320), 1.0), (ObservationPoint(1, 0, 1e-10), 1e-300))
        for p, k0 in subnormal:
            with pytest.raises(DomainError, match="underflows"):
                saddle_point(p, k0)
        assert saddle_point(ObservationPoint(1, 0, 1e-300), 1.0).kzs == 1e-300

    def test_sphere_and_projection_identities(self):
        rng = np.random.default_rng(3)
        for p in random_points(rng, 200):
            k0 = rng.uniform(0.5, 4.0)
            s = saddle_point(p, k0)
            assert_allclose(s.kxs**2 + s.kys**2 + s.kzs**2, k0 * k0, rtol=1e-13)
            # the saddle projects the observation direction onto the sphere
            assert_allclose(
                s.kxs * p.x + s.kys * p.y + s.kzs * p.z, k0 * p.r, rtol=1e-13
            )
            assert s.kzs > 0.0


class TestSdpMap:
    """The steepest-descent map ``_sdp_grid`` that ``local_sdp_integral`` uses."""

    def test_origin_is_the_saddle(self):
        s = saddle_point(ObservationPoint(3, 0, 4), 1.0)
        assert _sdp_grid(s, 0.0, 0.0) == (0.6, 0.0, 0.8)

    def test_unit_step_displacement(self):
        s = saddle_point(ObservationPoint(3, 0, 4), 1.0)
        kx, ky, _ = _sdp_grid(s, 0.1, 0.0)
        assert_allclose(kx, 0.68 - 0.08j, rtol=1e-14)
        assert ky == 0.0

    def test_on_axis_continuation(self):
        s = saddle_point(ObservationPoint(0, 0, 1), 1.0)
        kx, ky, kz = _sdp_grid(s, 0.05, 0.05)
        assert_allclose(kx, 0.05 - 0.05j, rtol=1e-15)
        assert_allclose(ky, 0.05 - 0.05j, rtol=1e-15)
        # kz is verified by squaring and should stay near the saddle value
        assert_allclose(kz**2 + kx**2 + ky**2, 1.0, rtol=1e-13)
        assert abs(kz - 1.0) < 0.02

    def test_sphere_identity_along_path(self):
        rng = np.random.default_rng(5)
        for p in random_points(rng, 30):
            k0 = rng.uniform(0.5, 3.0)
            s = saddle_point(p, k0)
            half = local_half_width(s.k0r)
            xi, eta = rng.uniform(-half, half, (2, 10))
            kx, ky, kz = _sdp_grid(s, xi, eta)
            assert_allclose(kx**2 + ky**2 + kz**2, k0 * k0, rtol=1e-12, atol=1e-14)

    def test_principal_root_continues_the_saddle_branch_on_wide_windows(self):
        # Follow kz from kzs along the ray to each (xi, eta), taking at each
        # step the root of k0^2 - kx^2 - ky^2 nearer the previous one; the
        # principal root _sdp_grid takes must land on the same branch.
        rng = np.random.default_rng(17)
        thetas = np.concatenate(([1.0, 1e-3], 10.0 ** rng.uniform(-3.0, 0.0, 8)))
        saddles = []
        for theta in thetas:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rho = math.sqrt(1.0 - theta * theta)
            p = ObservationPoint(rho * math.cos(phi), rho * math.sin(phi), theta)
            saddles.append(saddle_point(p, 1.0))
        kxs, kys, kzs = np.array([(s.kxs, s.kys, s.kzs) for s in saddles]).T[:, :, None]
        corners = np.array([[5.0, 5.0, -5.0, -5.0], [5.0, -5.0, 5.0, -5.0]])
        xi, eta = np.concatenate((rng.uniform(-5.0, 5.0, (2, 64)), corners), axis=1)
        slope = kzs * (1.0 - 1.0j)
        kz = kzs.astype(complex)
        worst = 0.0
        steps = 2048
        # steps graded as t^2 near the saddle, where a far off-axis saddle
        # (|u| up to 7e3 at theta = 1e-3) turns kz^2 fastest
        for t in (np.arange(1, steps + 1) / steps) ** 2:
            kx = kxs + slope * (t * xi)
            ky = kys + slope * (t * eta)
            root = np.sqrt(1.0 - kx * kx - ky * ky)
            near, far = abs(root - kz), abs(root + kz)
            worst = max(worst, float(np.max(np.minimum(near, far) / np.maximum(near, far))))
            kz = np.where(near <= far, root, -root)
        assert worst < 0.1  # no step comes close to a tie between the roots
        for s, continued in zip(saddles, kz):
            assert_allclose(_sdp_grid(s, xi, eta)[2], continued, rtol=1e-12)


def phase(s, p, xi, eta) -> complex:
    """The on-path phase U at one (xi, eta), from ``_phase_grid``'s k0*r*U."""
    return complex(_phase_grid(s, p, xi, eta)[0]) / s.k0r


class TestPhaseU:
    def test_zero_at_saddle(self):
        p = ObservationPoint(3, 0, 4)
        s = saddle_point(p, 1.0)
        assert phase(s, p, 0.0, 0.0) == 0.0

    def test_on_axis_quadratic_behavior(self):
        p = ObservationPoint(0, 0, 1)
        s = saddle_point(p, 1.0)
        u = phase(s, p, 0.1, 0.0)
        # leading term i*a*xi^2 with a = 1; remainder is O(xi^4) here
        assert abs(u - 0.01j) < 1e-3

    def test_stationarity_by_central_differences(self):
        rng = np.random.default_rng(9)
        for p in random_points(rng, 10, theta_min=0.3):
            s = saddle_point(p, 1.0)
            for h in (1e-3, 1e-4):
                dxi = (phase(s, p, h, 0.0) - phase(s, p, -h, 0.0)) / (2 * h)
                deta = (phase(s, p, 0.0, h) - phase(s, p, 0.0, -h)) / (2 * h)
                # central differences of a stationary point are O(h^2)
                assert abs(dxi) < 10.0 * h * h
                assert abs(deta) < 10.0 * h * h

    def test_third_order_agreement_with_quadratic_model(self):
        # The exact phase expands as i*(a*xi^2 + b*eta^2 + 2*c*xi*eta);
        # subtracting that quadratic must leave a cubic-order remainder
        # with a bounded constant for theta >= 0.3.
        from asx import quadratic_coeffs

        rng = np.random.default_rng(13)
        worst = 0.0
        for p in random_points(rng, 20, theta_min=0.3):
            s = saddle_point(p, 1.0)
            q = quadratic_coeffs(p)
            for _ in range(30):
                xi, eta = rng.uniform(-0.05, 0.05, 2)
                size = abs(xi) + abs(eta)
                if size < 1e-3:
                    continue
                quadratic = 1j * (q.a * xi * xi + q.b * eta * eta + 2 * q.c * xi * eta)
                remainder = abs(phase(s, p, xi, eta) - quadratic)
                worst = max(worst, remainder / size**3)
        assert math.isfinite(worst)
        assert worst < 50.0
