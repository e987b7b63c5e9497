import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from asx import (
    ConfigError,
    ObservationPoint,
    QuadratureConfig,
    constant,
    gaussian,
    oracle_eval,
    weyl,
)
from asx.spectra import SpectrumFunction


def spherical_wave(p, k0=1.0):
    return cmath.exp(1j * k0 * p.r) / p.r


def constant_closed_form(p, k0=1.0):
    r = p.r
    return -2 * math.pi * p.z * cmath.exp(1j * k0 * r) * (1j * k0 * r - 1.0) / r**3


def zero_spectrum():
    return SpectrumFunction(
        label="zero",
        radial=True,
        _fn=lambda kx, ky, kz, k0: np.zeros(
            np.broadcast_shapes(np.shape(kx), np.shape(ky)), dtype=complex
        ),
    )


class TestConfig:
    def test_tolerance_range(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(rel_tol=1e-30)
        with pytest.raises(ConfigError):
            QuadratureConfig(rel_tol=0.5)

    def test_budget_floor(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(max_panels=4)

    def test_envelope_admits_points_rebuilt_at_its_edge(self):
        from asx import point_from_parameters

        p = point_from_parameters(0.9022, 300.0, 1.0)
        assert p.r > 300.0  # rounding in the rebuilt r
        oracle_eval(weyl(), p, 1.0, QuadratureConfig(rel_tol=1e-2, max_panels=16))
        with pytest.raises(ConfigError):
            oracle_eval(weyl(), ObservationPoint(0, 0, 301), 1.0)

    def test_kmax_must_exceed_k0(self):
        cfg = QuadratureConfig(k_max=0.5)
        with pytest.raises(ConfigError):
            oracle_eval(weyl(), ObservationPoint(0, 0, 5), 1.0, cfg)


class TestWeylIdentity:
    @pytest.mark.parametrize(
        "point",
        [(3, 0, 4), (0, 0, 10), (30, 40, 60), (5, -12, 9)],
        ids=["oblique", "axis", "far", "negative-y"],
    )
    def test_reproduces_spherical_wave(self, point):
        p = ObservationPoint(*point)
        res = oracle_eval(weyl(), p, 1.0, QuadratureConfig(rel_tol=1e-7))
        exact = spherical_wave(p)
        assert abs(res.value - exact) / abs(exact) < 1e-6
        assert res.converged
        assert res.est_error <= 1e-7 * abs(res.value)

    def test_split_parts_sum_to_the_identity(self):
        p = ObservationPoint(0, 0, 5)
        res = oracle_eval(weyl(), p, 1.0, QuadratureConfig(rel_tol=1e-7))
        exact = spherical_wave(p)
        assert abs(res.propagating_part + res.evanescent_part - exact) < 1e-6 * abs(
            exact
        )


class TestConstantSpectrum:
    def test_on_axis_closed_form(self):
        p = ObservationPoint(0, 0, 20)
        res = oracle_eval(constant(), p, 1.0, QuadratureConfig(rel_tol=1e-7))
        exact = constant_closed_form(p)
        assert abs(res.value - exact) / abs(exact) < 1e-6

    def test_oblique_closed_form(self):
        p = ObservationPoint(3, 0, 4)
        res = oracle_eval(constant(), p, 1.0, QuadratureConfig(rel_tol=1e-7))
        exact = constant_closed_form(p)
        assert abs(res.value - exact) / abs(exact) < 1e-6


class TestStructure:
    def test_zero_spectrum_is_zero_with_zero_error(self):
        res = oracle_eval(zero_spectrum(), ObservationPoint(1, 2, 3), 1.0)
        assert res.value == 0.0
        assert res.est_error == 0.0
        assert res.converged

    def test_value_equals_split_sum_bit_exactly(self):
        res = oracle_eval(gaussian(1.0), ObservationPoint(4, 1, 6), 1.0)
        assert res.value == res.propagating_part + res.evanescent_part

    def test_determinism(self):
        p = ObservationPoint(7, -2, 9)
        a = oracle_eval(gaussian(2.0), p, 1.0)
        b = oracle_eval(gaussian(2.0), p, 1.0)
        assert a.value == b.value
        assert a.est_error == b.est_error
        assert a.evaluations == b.evaluations

    def test_linearity(self):
        rng = np.random.default_rng(41)
        alpha, beta = complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))
        f = gaussian(1.0)
        g = constant()
        combo = SpectrumFunction(
            label="combo",
            radial=True,
            _fn=lambda kx, ky, kz, k0: alpha * f._fn(kx, ky, kz, k0)
            + beta * g._fn(kx, ky, kz, k0),
        )
        p = ObservationPoint(2, 2, 8)
        cfg = QuadratureConfig(rel_tol=1e-8)
        lhs = oracle_eval(combo, p, 1.0, cfg)
        rhs = alpha * oracle_eval(f, p, 1.0, cfg).value + beta * oracle_eval(
            g, p, 1.0, cfg
        ).value
        assert abs(lhs.value - rhs) <= 2 * cfg.rel_tol * abs(lhs.value)

    def test_refinement_never_degrades_closed_forms(self):
        p = ObservationPoint(3, 0, 4)
        exact_w = spherical_wave(p)
        exact_c = constant_closed_form(p)
        prev_w = prev_c = math.inf
        for tol in (1e-4, 1e-6, 1e-8):
            cfg = QuadratureConfig(rel_tol=tol)
            err_w = abs(oracle_eval(weyl(), p, 1.0, cfg).value - exact_w)
            err_c = abs(oracle_eval(constant(), p, 1.0, cfg).value - exact_c)
            assert err_w <= prev_w or err_w < 1e-10
            assert err_c <= prev_c or err_c < 1e-9
            prev_w, prev_c = err_w, err_c

    def test_budget_exhaustion_reports_best_value(self):
        # 300 radians of phase across 8 initial panels cannot meet 1e-8
        # within a 16-panel budget
        p = ObservationPoint(0, 0, 300)
        cfg = QuadratureConfig(rel_tol=1e-8, max_panels=16)
        res = oracle_eval(weyl(), p, 1.0, cfg)
        assert not res.converged
        assert res.limit == "the radial panel budget max_panels=16"
        assert res.est_error > 0.0
        assert math.isfinite(abs(res.value))


class TestPropagatingIntegral:
    """The propagating part ``oracle_eval`` reports beside its value."""

    def test_weyl_parts_recombine(self):
        p = ObservationPoint(0, 0, 10)
        res = oracle_eval(weyl(), p, 1.0, QuadratureConfig(rel_tol=1e-7))
        prop, evan = res.propagating_part, res.evanescent_part
        exact = spherical_wave(p)
        assert abs(prop + evan - exact) < 1e-6 * abs(exact)

    def test_on_axis_matches_radial_quadrature_times_2pi(self):
        # On axis the azimuthal integrand is constant, so an independent
        # 1-D radial rule (QUADPACK, in the kz variable) times 2*pi must
        # agree to 1e-10.
        p = ObservationPoint(0, 0, 7)
        f = gaussian(1.5)

        def radial(kz):
            krho2 = 1.0 - kz * kz
            amp = complex(f.evaluate(math.sqrt(max(krho2, 0.0)), 0.0, kz, 1.0))
            return kz * amp * cmath.exp(1j * kz * p.z)

        re = quad(lambda t: radial(t).real, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
        im = quad(lambda t: radial(t).imag, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
        reference = 2 * math.pi * complex(re, im)
        cfg = QuadratureConfig(rel_tol=1e-11)
        value = oracle_eval(f, p, 1.0, cfg).propagating_part
        assert abs(value - reference) <= 1e-10 * abs(reference)


class TestEvanescentIntegral:
    """The evanescent part ``oracle_eval`` reports beside its value."""

    def test_triangle_inequality_bound(self):
        # |evanescent part| <= 2*pi * max|f| * integral of s*exp(-s z) ds
        p = ObservationPoint(1, 0, 4)
        f = gaussian(1.0)
        value = oracle_eval(f, p, 1.0).evanescent_part
        bound = 2 * math.pi * 1.0 * (1.0 / p.z**2 + 1.0 / p.z)
        assert abs(value) <= bound

    def test_magnitude_decays_when_z_doubles(self):
        f = constant()
        small = abs(oracle_eval(f, ObservationPoint(2, 0, 8), 1.0).evanescent_part)
        large = abs(oracle_eval(f, ObservationPoint(2, 0, 4), 1.0).evanescent_part)
        assert small < large

    def test_weyl_parts_recombine_at_moderate_distance(self):
        p = ObservationPoint(0, 0, 5)
        res = oracle_eval(weyl(), p, 1.0, QuadratureConfig(rel_tol=1e-7))
        prop, evan = res.propagating_part, res.evanescent_part
        exact = spherical_wave(p)
        assert abs(prop + evan - exact) < 1e-6 * abs(exact)


class TestNodeCache:
    def test_shared_nodes_are_read_only(self):
        from asx.oracle import _leggauss

        nodes, weights = _leggauss(64)
        assert _leggauss(64)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestAzimuthalPaths:
    def test_radial_fast_path_matches_general_path_on_axis(self):
        # the builtin takes the analytic on-axis collapse, the parsed twin
        # walks the periodic trapezoid; they must agree to rounding
        from asx import gaussian, parse_spectrum

        p = ObservationPoint(0, 0, 12)
        cfg = QuadratureConfig(rel_tol=1e-9)
        built = oracle_eval(gaussian(1.0), p, 1.0, cfg)
        parsed = oracle_eval(parse_spectrum("exp(-(kx^2+ky^2)/4)"), p, 1.0, cfg)
        assert abs(built.value - parsed.value) <= 1e-12 * abs(built.value)
        assert built.evaluations < parsed.evaluations

    def test_cap_without_a_passed_test_is_counted(self):
        # sqrt(kx) has a branch point on the ring, so the trapezoid
        # converges only algebraically and reaches the cap unpassed
        from asx import parse_spectrum
        from asx.oracle import _MAX_PHI_NODES, _Counter, _phi_integral

        count = _Counter()
        p = ObservationPoint(0, 0, 5)
        _phi_integral(parse_spectrum("sqrt(kx)"), 0.7, 0.7, p, 1.0, 1e-7, count)
        assert count.capped == 1
        assert count.n == _MAX_PHI_NODES

    def test_first_pass_beyond_the_cap_is_still_tested(self):
        # bandwidth 4e4 starts at 2^16 nodes, above the cap; one doubling
        # still checks them
        from scipy.special import j0

        from asx.oracle import _Counter, _phi_integral

        count = _Counter()
        p = ObservationPoint(40000, 0, 1)
        value = _phi_integral(constant(), 1.0, 0.0, p, 1.0, 1e-7, count)
        assert count.n == 2 * (1 << 16)
        assert count.capped == 0
        assert abs(value - 2 * math.pi * j0(40000.0)) < 1e-12


class TestDivergenceDetection:
    def test_non_integrable_spectrum_raises(self):
        from asx import DivergenceError, parse_spectrum

        # grows like exp(k_rho^2), faster than the exp(-s*z) decay
        grower = parse_spectrum("exp(kx^2+ky^2)")
        with pytest.raises(DivergenceError):
            oracle_eval(grower, ObservationPoint(0, 0, 5), 1.0)


class TestBranchConsistency:
    def test_oracle_variables_match_kz_branch(self):
        # the substitution variables must land on the same sheet as the
        # central branch rule
        from asx import kz_branch

        k0 = 1.0
        for kz in np.linspace(0.05, 0.95, 7):
            krho = math.sqrt(k0 * k0 - kz * kz)
            assert_allclose(kz_branch(krho, 0.0, k0), kz, rtol=1e-12)
        for s in np.linspace(0.1, 3.0, 7):
            krho = math.sqrt(k0 * k0 + s * s)
            assert_allclose(kz_branch(krho, 0.0, k0), 1j * s, rtol=1e-12)
