import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asx import (
    ConfigError,
    DomainError,
    ObservationPoint,
    QuadraticForm,
    constant,
    gaussian,
    gaussian_closed_form,
    leading_order,
    local_sdp_integral,
    parse_spectrum,
    quadratic_coeffs,
    saddle_point,
    weyl,
)
from asx import asymptotics
from asx.asymptotics import _sdp_window
from asx.spectra import SpectrumFunction


def nested_gauss_oracle(q: QuadraticForm, k0r: float, n: int = 800) -> float:
    """Independent check of the closed form: nested 1-D Gauss-Legendre
    quadrature of exp(-k0r*(a x^2 + b y^2 - 2 c x y)) over a square box.
    The half-width is sized from the smallest eigenvalue of the form so the
    discarded tail is below exp(-50) ~ 2e-22 of the peak."""
    half_trace = 0.5 * (q.a + q.b)
    gap = math.sqrt(0.25 * (q.a - q.b) ** 2 + q.c * q.c)
    lam_min = half_trace - gap
    box = math.sqrt(50.0 / (k0r * lam_min))
    t, w = np.polynomial.legendre.leggauss(n)
    xx = box * t[:, None]
    yy = box * t[None, :]
    vals = np.exp(-k0r * (q.a * xx**2 + q.b * yy**2 - 2 * q.c * xx * yy))
    return float(box * box * np.einsum("i,j,ij->", w, w, vals))


def spherical_wave(p: ObservationPoint, k0: float) -> complex:
    return cmath.exp(1j * k0 * p.r) / p.r


def constant_spectrum_closed_form(p: ObservationPoint, k0: float) -> complex:
    r = p.r
    return -2 * math.pi * p.z * cmath.exp(1j * k0 * r) * (1j * k0 * r - 1.0) / r**3


class TestQuadraticCoeffs:
    def test_three_four_five(self):
        q = quadratic_coeffs(ObservationPoint(3, 0, 4))
        assert_allclose((q.a, q.b, q.c), (1.0, 0.64, 0.0), rtol=1e-15)
        assert_allclose(q.det, 0.64, rtol=1e-15)

    def test_on_axis(self):
        q = quadratic_coeffs(ObservationPoint(0, 0, 5))
        assert (q.a, q.b, q.c) == (1.0, 1.0, 0.0)
        assert q.det == 1.0

    def test_oblique_identity(self):
        q = quadratic_coeffs(ObservationPoint(1, 2, 2))
        assert_allclose((q.a, q.b, q.c), (5 / 9, 8 / 9, 2 / 9), rtol=1e-15)
        assert_allclose(q.det, (2 / 3) ** 2, atol=1e-16)

    def test_determinant_identity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x, y = rng.uniform(-20, 20, 2)
            z = rng.uniform(1e-3, 20)
            p = ObservationPoint(x, y, z)
            q = quadratic_coeffs(p)
            assert abs(q.det - p.theta**2) < 1e-14
            assert 0.0 < q.a <= 1.0
            assert 0.0 < q.b <= 1.0
            assert q.det > 0.0


class TestGaussianClosedForm:
    def test_isotropic_form(self):
        q = QuadraticForm(1.0, 1.0, 0.0, 1.0)
        value = gaussian_closed_form(q, 100.0)
        assert_allclose(value, math.pi / 100.0, rtol=1e-15)
        assert_allclose(value, nested_gauss_oracle(q, 100.0), rtol=1e-12)

    def test_three_four_five_form(self):
        q = quadratic_coeffs(ObservationPoint(3, 0, 4))
        value = gaussian_closed_form(q, 100.0)
        assert_allclose(value, math.pi / 80.0, rtol=1e-15)
        assert_allclose(value, nested_gauss_oracle(q, 100.0), rtol=1e-12)

    def test_inverse_scaling_in_k0r(self):
        q = quadratic_coeffs(ObservationPoint(1, 2, 2))
        assert gaussian_closed_form(q, 200.0) == 0.5 * gaussian_closed_form(q, 100.0)

    def test_random_forms_against_nested_quadrature(self):
        # theta stays bounded away from 0 so the scaled quadrature box
        # keeps the truncation far below the comparison tolerance
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, y = rng.uniform(-7, 7, 2)
            z = rng.uniform(8.0, 15.0)
            q = quadratic_coeffs(ObservationPoint(x, y, z))
            k0r = rng.uniform(80.0, 400.0)
            assert_allclose(
                gaussian_closed_form(q, k0r),
                nested_gauss_oracle(q, k0r),
                rtol=1e-10,
            )

    def test_degenerate_form_rejected(self):
        with pytest.raises(DomainError):
            gaussian_closed_form(QuadraticForm(1.0, 0.25, 0.5, 0.0), 100.0)
        with pytest.raises(ConfigError):
            gaussian_closed_form(QuadraticForm(1.0, 1.0, 0.0, 1.0), -1.0)


class TestValidityThreshold:
    def test_values(self):
        assert saddle_point(ObservationPoint(0.0, 0.0, 100.0), 1.0).theta0 == 0.1
        assert saddle_point(ObservationPoint(0.0, 0.0, 25.0), 4.0).theta0 == 0.1
        theta0 = saddle_point(ObservationPoint(0.0, 0.0, 1e6), 1.0).theta0
        assert_allclose(theta0, 1e-3, rtol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            saddle_point(ObservationPoint(0.0, 0.0, 1.0), 0.0)


class TestLeadingOrder:
    def test_weyl_reproduces_the_spherical_wave(self):
        p = ObservationPoint(3, 0, 4)
        res = leading_order(weyl(), p, 1.0)
        assert_allclose(res.value, spherical_wave(p, 1.0), rtol=1e-14)
        assert_allclose(
            res.value, 0.05673243709264525 - 0.1917848549326277j, rtol=1e-13
        )
        assert res.is_valid
        assert_allclose(res.validity_margin, 0.8 * math.sqrt(5.0), rtol=1e-14)

    def test_constant_on_axis(self):
        p = ObservationPoint(0, 0, 100)
        res = leading_order(constant(), p, 1.0)
        expected = -2j * math.pi * cmath.exp(100j) / 100.0
        assert_allclose(res.value, expected, rtol=1e-14)
        # cross-check against the exact closed form: deviation 1/|i*k0r - 1|
        exact = constant_spectrum_closed_form(p, 1.0)
        assert_allclose(
            abs(res.value - exact) / abs(exact),
            1.0 / math.sqrt(1.0 + 100.0**2),
            rtol=1e-10,
        )

    def test_linearity_in_the_spectrum(self):
        alpha = 2.0 + 3.0j
        base = constant()
        scaled = SpectrumFunction(
            label="scaled",
            radial=True,
            _fn=lambda kx, ky, kz, k0: alpha * base._fn(kx, ky, kz, k0),
        )
        p = ObservationPoint(2, -1, 3)
        assert_allclose(
            leading_order(scaled, p, 1.0).value,
            alpha * leading_order(base, p, 1.0).value,
            rtol=1e-14,
        )

    def test_weyl_exact_for_random_points(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            theta = rng.uniform(0.05, 1.0)
            k0r = rng.uniform(10.0, 1000.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            rho = k0r * math.sqrt(1 - theta**2)
            p = ObservationPoint(rho * math.cos(phi), rho * math.sin(phi), theta * k0r)
            res = leading_order(weyl(), p, 1.0)
            assert abs(res.value - spherical_wave(p, 1.0)) <= 1e-12 * abs(
                spherical_wave(p, 1.0)
            )

    def test_rotational_invariance_for_radial_spectra(self):
        rng = np.random.default_rng(23)
        f = gaussian(1.3)
        rho, z = 30.0, 25.0
        reference = leading_order(
            f, ObservationPoint(rho, 0.0, z), 1.0
        ).value
        for _ in range(20):
            phi = rng.uniform(0, 2 * math.pi)
            p = ObservationPoint(rho * math.cos(phi), rho * math.sin(phi), z)
            assert_allclose(leading_order(f, p, 1.0).value, reference, rtol=1e-12)

    def test_a_value_that_underflows_is_refused(self):
        # -2*pi*i*k0*theta*f/r is subnormal for the constant at k0 = 1e-160,
        # k0*r = 20; weyl's exp(i*k0*r)/r is not, and a zero f gives an
        # exact 0
        p = ObservationPoint(0, 0, 2e161)
        with pytest.raises(DomainError, match="underflows"):
            leading_order(constant(), p, 1e-160)
        assert abs(leading_order(weyl(), p, 1e-160).value) == pytest.approx(0.5e-161)
        zero = SpectrumFunction(label="zero", radial=True, _fn=lambda kx, ky, kz, k0: 0.0)
        assert leading_order(zero, p, 1e-160).value == 0

    def test_below_gate_is_flagged_not_refused(self):
        p = ObservationPoint(99.9, 0, math.sqrt(100**2 - 99.9**2))
        res = leading_order(constant(), p, 1.0)  # theta ~ 0.045 < theta0 = 0.1
        assert not res.is_valid
        assert res.validity_margin < 1.0
        assert math.isfinite(abs(res.value))


class TestLocalSdpIntegral:
    def test_weyl_on_axis_example(self):
        p = ObservationPoint(0, 0, 50)
        value = local_sdp_integral(weyl(), p, 1.0, n=64)
        exact = spherical_wave(p, 1.0)
        assert abs(value - exact) / abs(exact) < 0.02

    def test_zero_spectrum(self):
        zero = SpectrumFunction(
            label="zero",
            radial=True,
            _fn=lambda kx, ky, kz, k0: np.zeros(
                np.broadcast_shapes(np.shape(kx), np.shape(ky)), dtype=complex
            ),
        )
        assert local_sdp_integral(zero, ObservationPoint(1, 1, 5), 1.0) == 0.0

    def test_agreement_with_leading_order_improves_with_k0r(self):
        f = gaussian(2.0)
        theta = 0.8
        diffs = []
        for k0r in (25.0, 100.0, 400.0):
            rho = k0r * math.sqrt(1 - theta**2)
            p = ObservationPoint(rho, 0.0, theta * k0r)
            lsi = local_sdp_integral(f, p, 1.0, n=96)
            lo = leading_order(f, p, 1.0).value
            diffs.append(abs(lsi - lo) / abs(lo))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_convergence_check_passes_when_settled(self):
        p = ObservationPoint(0, 0, 50)
        value = local_sdp_integral(weyl(), p, 1.0, n=64)
        refined = local_sdp_integral(weyl(), p, 1.0, n=128)
        assert abs(refined - value) <= 1e-6 * abs(refined)
        exact = spherical_wave(p, 1.0)
        assert abs(refined - exact) / abs(exact) < 0.02

    @pytest.mark.parametrize("j", [-900, -600, 600, 900])
    def test_a_power_of_two_in_k0_scales_the_value_exactly(self, j):
        # the measure takes one kzs at a time: kzs^2 alone would leave the
        # floating-point range
        base = local_sdp_integral(weyl(), ObservationPoint(30, 40, 50), 1.0)
        k0 = 2.0**j
        value = local_sdp_integral(weyl(), ObservationPoint(30 / k0, 40 / k0, 50 / k0), k0)
        assert repr(value) == repr(k0 * base)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ConfigError):
            local_sdp_integral(weyl(), ObservationPoint(0, 0, 50), 1.0, n=8)

    @pytest.mark.parametrize("n", [64.0, 20.5, "64", None])
    def test_rejects_a_node_count_that_is_not_an_integer(self, n):
        # before the window cache: 64.0 would otherwise hit the window of 64
        # after a call with 64, and fail before one
        with pytest.raises(ConfigError):
            local_sdp_integral(weyl(), ObservationPoint(0, 0, 50), 1.0, n=n)

    @pytest.mark.parametrize("k0", [1e-300, 1e300])
    def test_a_value_out_of_range_is_a_domain_error(self, k0):
        # leading_order answers at both; the window's value is not finite
        # at 1e-300 and underflows at 1e300
        p = ObservationPoint(3, 4, 5)
        leading_order(weyl(), p, k0)
        with pytest.raises(DomainError):
            local_sdp_integral(weyl(), p, k0)

    @pytest.mark.parametrize("k0r", [1e4, 1e10, 1e14, 1e50, 1e250])
    def test_weyl_holds_its_window_floor_at_any_k0r(self, k0r):
        # the leading order is exact for weyl, so what is left is the
        # window's truncation, 6.26e-10 at theta = 0.7; a phase summed to
        # U = ... - 1 carried k0r ulps (4.3e-8 at 1e10) and overflowed
        from asx import point_from_parameters

        p = point_from_parameters(0.7, k0r, 1.0, 0.4)
        lo = leading_order(weyl(), p, 1.0).value
        assert abs(local_sdp_integral(weyl(), p, 1.0) - lo) / abs(lo) < 1e-9

    @pytest.mark.parametrize("k0r", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize(
        "src, c1, c2",
        [
            ("i*(3*kz^2-1)/(4*pi*kz)", 3j, -3.0),
            ("i*kx*ky/(2*pi*kz)", 3j, -3.0),
            ("i*kx/(2*pi*kz)", 1j, 0.0),
        ],
    )
    def test_multipoles_approach_their_first_correction(self, src, c1, c2, k0r):
        # f = i/(2*pi*kz)*Y with Y harmonic of degree l: the exact value is
        # leading_order*(1 + c1/k0r + c2/k0r^2 + ...), c1 = i*l*(l+1)/2,
        # c2 = -(l-1)*l*(l+1)*(l+2)/8; the window keeps phase and spectrum
        # exact, so k0r*(lsi/lo - 1) tends to c1
        from asx import point_from_parameters

        f = parse_spectrum(src)
        p = point_from_parameters(0.9, k0r, 1.0, 0.4)
        lsi = local_sdp_integral(f, p, 1.0)
        lo = leading_order(f, p, 1.0).value
        assert abs(k0r * (lsi / lo - 1.0) - c1) <= 1.5 * abs(c2) / k0r + 1e-5

    def test_parsed_spectrum_matches_builtin(self):
        p = ObservationPoint(10, 5, 40)
        built = local_sdp_integral(gaussian(1.0), p, 1.0, n=48)
        parsed = local_sdp_integral(
            parse_spectrum("exp(-(kx^2+ky^2)/4)"), p, 1.0, n=48
        )
        assert_allclose(parsed, built, rtol=1e-13)


def fresh_sdp_integral(f, p, k0, n=64):
    """local_sdp_integral with its window built anew."""
    _sdp_window.cache_clear()
    return local_sdp_integral(f, p, k0, n)


class TestSdpWindow:
    """The last window is kept: its reuse must never show in a result."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        _sdp_window.cache_clear()
        yield
        _sdp_window.cache_clear()

    def test_results_do_not_depend_on_call_order(self):
        a, b = ObservationPoint(3, 4, 5), ObservationPoint(-20, 7, 30)
        f1, f2 = weyl(), parse_spectrum("i*kx*ky/(2*pi*kz)")
        calls = [(a, f1), (b, f1), (a, f2), (a, f1), (b, f2), (b, f1), (a, f2)]
        got = [repr(local_sdp_integral(f, p, 1.0)) for p, f in calls]
        want = [repr(fresh_sdp_integral(f, p, 1.0)) for p, f in calls]
        assert got == want
        # and in reverse order
        got = [repr(local_sdp_integral(f, p, 1.0)) for p, f in reversed(calls)]
        assert got == want[::-1]

    @pytest.mark.parametrize("xyz", [(0.0, 0.0, 5.0), (3.0, 0.0, 4.0)])
    def test_signed_zeros_share_a_window_safely(self, xyz):
        # ObservationPoint(-0.0, ...) == ObservationPoint(0.0, ...), so the
        # window of one serves the other; odd n puts a node on the saddle
        x, y, z = xyz
        signs = [(sx, sy) for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
        points = [ObservationPoint(math.copysign(x, sx), math.copysign(y, sy), z) for sx, sy in signs]
        for f in (weyl(), gaussian(2.0), parse_spectrum("i*kx*ky/(2*pi*kz) + sqrt(kx + 2)")):
            got = [repr(local_sdp_integral(f, p, 1.0, n=17)) for p in points]
            want = [repr(fresh_sdp_integral(f, p, 1.0, n=17)) for p in points]
            assert got == want

    def test_a_numpy_integer_node_count_shares_the_window(self):
        p = ObservationPoint(3, 4, 5)
        local_sdp_integral(weyl(), p, 1.0, n=64)
        got = local_sdp_integral(constant(), p, 1.0, n=np.int64(64))
        assert repr(got) == repr(fresh_sdp_integral(constant(), p, 1.0, n=np.int64(64)))

    def test_equal_wavenumbers_of_any_type_share_the_window(self):
        p = ObservationPoint(3, 4, 5)
        want = repr(fresh_sdp_integral(weyl(), p, 1.0))
        for k0 in (1, np.float64(1.0), np.array(1.0), 1.0):
            assert repr(local_sdp_integral(weyl(), p, k0)) == want
            assert repr(fresh_sdp_integral(weyl(), p, k0)) == want
        with pytest.raises(TypeError):
            local_sdp_integral(weyl(), p, "1")

    def test_consecutive_spectra_at_one_point_build_one_window(self, monkeypatch):
        calls = []

        def counting(p, k0):
            calls.append(p)
            return saddle_point(p, k0)

        monkeypatch.setattr(asymptotics, "saddle_point", counting)
        a, b = ObservationPoint(3, 4, 5), ObservationPoint(0, 0, 50)
        spectra = [weyl(), constant(), gaussian(2.0), parse_spectrum("exp(-(kx^2+ky^2))")]
        for f in spectra:
            local_sdp_integral(f, a, 1.0)
        assert calls == [a]
        local_sdp_integral(weyl(), b, 1.0)
        local_sdp_integral(weyl(), a, 1.0)  # one window is kept, not two
        local_sdp_integral(weyl(), a, 1.0, n=32)
        assert calls == [a, b, a, a]

    def test_the_window_is_read_only(self):
        def scribble(kx, ky, kz, k0):
            kz[...] = 1.0
            return 1j / (2.0 * np.pi * kz)

        vandal = SpectrumFunction(label="vandal", radial=True, _fn=scribble)
        p = ObservationPoint(3, 4, 5)
        before = repr(local_sdp_integral(weyl(), p, 1.0))
        with pytest.raises(ValueError, match="read-only"):
            local_sdp_integral(vandal, p, 1.0)
        assert repr(local_sdp_integral(weyl(), p, 1.0)) == before


class TestShiftedSpectra:
    @pytest.mark.parametrize(
        "src",
        ["i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)", "kx/exp(i*2*kx)", "i/(2*pi*kz)*exp(0.5*i*kz)"],
    )
    def test_the_closed_forms_ignore_the_shift(self, src):
        # leading_order and local_sdp_integral evaluate f itself at p's
        # saddle: the same bits with the shift and without it
        import dataclasses

        from asx import point_from_parameters

        f = parse_spectrum(src)
        assert f.shifted is not None
        plain = dataclasses.replace(f, shifted=None)
        for theta, k0r in ((1.0, 50.0), (0.7, 20.0), (0.3, 300.0), (0.05, 1e4)):
            p = point_from_parameters(theta, k0r, 1.0, 0.4)
            assert repr(leading_order(f, p, 1.0)) == repr(leading_order(plain, p, 1.0))
            got, want = (local_sdp_integral(g, p, 1.0, n=64) for g in (f, plain))
            assert repr(got) == repr(want)


class TestVerificationChain:
    def test_both_gaps_shrink_with_k0r(self):
        # |oracle - local_sdp| and |local_sdp - leading_order| both decrease
        # as k0r grows at fixed theta = 0.8
        from asx import oracle_eval

        f = gaussian(2.0)
        theta = 0.8
        gap_oracle = []
        gap_leading = []
        for k0r in (25.0, 50.0, 100.0, 200.0):
            rho = k0r * math.sqrt(1 - theta**2)
            p = ObservationPoint(rho, 0.0, theta * k0r)
            lsi = local_sdp_integral(f, p, 1.0, n=96)
            lo = leading_order(f, p, 1.0).value
            orc = oracle_eval(f, p, 1.0).value
            gap_oracle.append(abs(orc - lsi) / abs(orc))
            gap_leading.append(abs(lsi - lo) / abs(lo))
        assert all(a > b for a, b in zip(gap_oracle, gap_oracle[1:]))
        assert all(a > b for a, b in zip(gap_leading, gap_leading[1:]))
