import cmath
import functools
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


def unit_probe():
    """f = 1 without the radial mark, so the oracle takes a ring of f."""
    return SpectrumFunction(label="unit", radial=False, _fn=lambda kx, ky, kz, k0: 1.0)


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


class TestKronrodRule:
    """The 21-point Gauss-Kronrod panel rule, built by Laurie's algorithm."""

    def test_matches_the_table_of_scipy(self, monkeypatch):
        # scipy keeps its G10K21 table inside _quadrature_gk21, which hands
        # it on to _quadrature_gk: it is caught there
        import scipy.integrate._quad_vec as quad_vec

        from asx.oracle import _kronrod

        table = {}
        inner = quad_vec._quadrature_gk

        def catching(a, b, f, norm_func, x, w, v):
            table.update(nodes=np.array(x, dtype=float), weights=np.array(v))
            return inner(a, b, f, norm_func, x, w, v)

        monkeypatch.setattr(quad_vec, "_quadrature_gk", catching)
        quad_vec._quadrature_gk21(-1.0, 1.0, lambda t: t, abs)
        order = np.argsort(table["nodes"])
        nodes, weights = _kronrod()
        assert np.max(np.abs(nodes - table["nodes"][order])) <= 2e-15
        assert np.max(np.abs(weights - table["weights"][order])) <= 2e-15

    @pytest.mark.parametrize("k", range(32))
    def test_integrates_monomials_up_to_degree_31(self, k):
        from asx.oracle import _kronrod

        nodes, weights = _kronrod()
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs((weights * nodes**k).sum() - exact) <= 1e-15

    def test_gauss_nodes_are_shared_and_the_rule_is_read_only(self):
        # the G10 estimate reuses the K21 rows: every odd-index node is one
        # of _leggauss(10), bit for bit
        from asx.oracle import _kronrod, _leggauss

        nodes, weights = _kronrod()
        assert nodes.shape == weights.shape == (21,)
        assert np.array_equal(nodes[1::2], _leggauss(10)[0])
        assert np.array_equal(nodes, -nodes[::-1]) and nodes[10] == 0.0
        assert _kronrod()[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestAzimuthalPaths:
    def test_radial_j0_path_matches_the_ring_of_the_parsed_twin(self):
        # the builtin takes 2*pi*f*J0 (on axis, 2*pi*f); the parsed twin
        # names kx^2 and ky^2 apart, which the radial rule does not read as
        # kx^2 + ky^2, so it takes a ring of f per radial node and the Bessel
        # sum; they must agree within est_error
        from asx import gaussian, parse_spectrum, point_from_parameters

        cfg = QuadratureConfig(rel_tol=1e-9)
        twin = parse_spectrum("exp(-kx^2/4)*exp(-ky^2/4)")
        assert not twin.radial
        for theta in (1.0, 0.5, 0.1):
            p = point_from_parameters(theta, 12.0, 1.0, 0.4)
            built = oracle_eval(gaussian(1.0), p, 1.0, cfg)
            parsed = oracle_eval(twin, p, 1.0, cfg)
            assert built.converged and parsed.converged
            assert abs(built.value - parsed.value) <= built.est_error, theta
            assert built.evaluations < parsed.evaluations, theta

    @pytest.mark.parametrize("theta", [1.0, 0.7, 0.3, 0.1])
    def test_parsed_gaussian_in_kx2_plus_ky2_is_the_builtin(self, theta):
        # exp(-(kx^2+ky^2)) is radial by the parser's rule and takes the
        # builtin gaussian(2)'s path: the same rows give the same bits
        from asx import parse_spectrum, point_from_parameters

        cfg = QuadratureConfig(rel_tol=1e-9)
        parsed = parse_spectrum("exp(-(kx^2+ky^2))")
        for k0r in (5.0, 40.0, 200.0):
            p = point_from_parameters(theta, k0r, 1.0, 0.4)
            built = oracle_eval(gaussian(2.0), p, 1.0, cfg)
            res = oracle_eval(parsed, p, 1.0, cfg)
            assert (res.value, res.est_error, res.evaluations) == (
                built.value,
                built.est_error,
                built.evaluations,
            ), k0r

    def test_cap_without_a_passed_test_raises(self):
        # sqrt(kx) has a branch point on the ring, so its Fourier tail
        # decays only algebraically and the ring reaches the cap unpassed
        from asx import parse_spectrum
        from asx.oracle import _MAX_PHI_NODES, _Counter, _phi_integrals, _RingCapped

        count = _Counter()
        p = ObservationPoint(0, 0, 5)
        f = parse_spectrum("sqrt(kx)")
        row = np.array([0.7])
        with pytest.raises(_RingCapped, match=f"the {_MAX_PHI_NODES}-node azimuthal cap"):
            _phi_integrals(f, row, row, p, 1.0, 1e-7, count)
        assert count.n == _MAX_PHI_NODES
        # of 300 rows, the first to reach the cap is named: the first row of
        # the call, its group doubling depth first
        kz = np.linspace(0.05, 0.95, 300)
        with pytest.raises(_RingCapped, match=f"at k_rho = {math.sqrt(1 - 0.05**2):.9g}$"):
            _phi_integrals(f, np.sqrt(1 - kz * kz), kz, p, 1.0, 1e-7, _Counter())

    def test_first_pass_beyond_the_cap_is_still_tested(self, monkeypatch):
        # with the cap below the first tested ring (32 nodes doubled once),
        # that ring is still tested and passes; the phase bandwidth 4e4 does
        # not size the ring
        from scipy.special import j0

        from asx import oracle
        from asx.oracle import _RING_START, _Counter, _phi_integrals

        monkeypatch.setattr(oracle, "_MAX_PHI_NODES", _RING_START)
        count = _Counter()
        p = ObservationPoint(40000, 0, 1)
        (value,) = _phi_integrals(
            unit_probe(), np.array([1.0]), np.array([0.0]), p, 1.0, 1e-7, count
        )
        assert count.n == 2 * _RING_START
        assert abs(value - 2 * math.pi * j0(40000.0)) < 1e-12

    def test_rows_of_different_bandwidths_converge_row_by_row(self):
        # f = exp(-i*(6*kx - 3*ky)) has the bandwidth 6.7*k_rho, so the rows
        # stop at rings of 64 to 512 nodes in one call; the integral is
        # 2*pi*J0(k_rho*|(x - 6, y + 3)|) = 2*pi*J0(k_rho*sqrt(873)), up to
        # the orders cut from the Bessel sum, at most 2*pi*_CUT_SHARE of the
        # floor (rel_tol/30 of the rms of f, here 1)
        from scipy.special import j0

        from asx import parse_spectrum
        from asx.oracle import _CUT_SHARE, _Counter, _phi_integrals

        f = parse_spectrum("exp(-i*(6*kx - 3*ky))")
        count = _Counter()
        p = ObservationPoint(18, 24, 2)
        krho = np.geomspace(0.05, 20.0, 40)
        values = _phi_integrals(f, krho, np.zeros(krho.size), p, 1.0, 1e-7, count)
        cut = 2 * math.pi * _CUT_SHARE * 1e-7 / 30
        assert np.max(np.abs(values - 2 * math.pi * j0(krho * math.sqrt(873.0)))) <= cut
        # each row stops and is cut where it would be alone; the group's J_m
        # may come from another kernel than the row's own, so the values
        # agree within the kernels' rounding, 1e-15*(1 + sqrt(k_rho*rho_xy))
        alone = _Counter()
        sizes = set()
        for k in krho:
            row = np.array([k])
            before = alone.n
            (value,) = _phi_integrals(f, row, row * 0.0, p, 1.0, 1e-7, alone)
            sizes.add(alone.n - before)
            assert abs(value - values[krho == k][0]) <= 1e-15 * (1 + math.sqrt(30 * k))
        assert count.n == alone.n
        assert min(sizes) == 64 and max(sizes) >= 512

    def test_spectrum_calls_stay_within_one_block(self):
        # every call holds at most _BLOCK_ELEMENTS <= 2^13 elements, or one
        # ring wider than that
        from asx import parse_spectrum
        from asx.oracle import _BLOCK_ELEMENTS

        assert _BLOCK_ELEMENTS <= 1 << 13

        calls = []
        # a Weyl spectrum translated by 8: its own bandwidth is 8*k_rho
        inner = parse_spectrum("i/(2*pi*kz)*exp(-8*i*kx)")

        def recording(kx, ky, kz, k0):
            calls.append((np.size(kx), np.shape(kx)[-1]))
            return inner.evaluate(kx, ky, kz, k0)

        probe = SpectrumFunction(label="probe", radial=False, _fn=recording)
        oracle_eval(probe, ObservationPoint(28, 0, 12), 1.0)
        # k_max puts the last rows at the bandwidth ~2e3 of f, on rings of
        # 8192 nodes, beyond one block
        oracle_eval(
            probe,
            ObservationPoint(10, 0, 0.01),
            1.0,
            QuadratureConfig(k_max=250.0, max_panels=16),
        )
        assert all(size <= max(_BLOCK_ELEMENTS, n) for size, n in calls)
        assert any(size > n for size, n in calls)
        assert any(n > _BLOCK_ELEMENTS for _, n in calls)
        # radial rows, one element each: the evanescent leg at (299.9, 0,
        # 0.5) starts with 256 panels of 21 rows, taken 195 panels a call
        radial = []

        def radial_recording(kx, ky, kz, k0):
            radial.append(np.size(kx))
            return weyl().evaluate(kx, ky, kz, k0)

        probe = SpectrumFunction(label="radial probe", radial=True, _fn=radial_recording)
        assert oracle_eval(probe, ObservationPoint(299.9, 0, 0.5), 1.0).converged
        assert max(radial) <= _BLOCK_ELEMENTS
        assert max(radial) > _BLOCK_ELEMENTS // 2

    def test_panels_are_evaluated_in_batches(self):
        # the constant spectrum at k0r = 20, theta = 0.3*theta0: both legs'
        # initial panels (8 and 28, of about 11.1 rad of phase each), each
        # tail extension (here one, of 4 panels) and each round of splits
        # take one spectrum call, with 21 rows a panel, beside the 64
        # elements of each tail probe (one panel a call took 52 calls)
        from asx import point_from_parameters

        calls = []

        def recording(kx, ky, kz, k0):
            calls.append(np.size(kx))
            return constant().evaluate(kx, ky, kz, k0)

        probe = SpectrumFunction(label="probe", radial=True, _fn=recording)
        res = oracle_eval(probe, point_from_parameters(0.3 / math.sqrt(20), 20.0, 1.0), 1.0)
        assert res.converged
        assert res.evaluations == sum(calls) == 21 * (8 + 28 + 4) + 2 * 64
        assert len(calls) <= 8

    def test_azimuthal_cap_stops_the_radial_refinement(self):
        # once a ring is capped nothing more is sampled: the first group of
        # rows doubles its rings depth first, in one call of _BLOCK_ELEMENTS
        # per ring size below the block and one ring per size from the block
        # up to the cap, among the initial panels, so no tail probe follows
        # and the value is 0 with no bound on its error
        from asx import parse_spectrum
        from asx.oracle import _BLOCK_ELEMENTS, _MAX_PHI_NODES, _RING_START

        res = oracle_eval(parse_spectrum("sqrt(kx)"), ObservationPoint(0, 0, 5), 1.0)
        assert not res.converged
        assert res.limit.startswith(f"the {_MAX_PHI_NODES}-node azimuthal cap at k_rho = ")
        assert res.est_error == math.inf
        assert res.value == res.propagating_part == res.evanescent_part == 0
        below = int(math.log2(_BLOCK_ELEMENTS // _RING_START)) * _BLOCK_ELEMENTS
        assert res.evaluations == below + _MAX_PHI_NODES - _BLOCK_ELEMENTS

    def test_late_cap_keeps_the_last_sums(self, monkeypatch):
        # at rel_tol 1e-10 the rings of cos(1.5*kx - 0.75*ky) grow with
        # k_rho, and a 512-node cap is first reached in a tail extension,
        # beyond the initial cutoff, after the initial panels were summed:
        # the run keeps the last sums (here within 1e-6 of the mean of the
        # constant's closed forms about (1.5, -0.75, 0) and (-1.5, 0.75, 0))
        # and says that no bound holds
        from asx import oracle, parse_spectrum

        monkeypatch.setattr(oracle, "_MAX_PHI_NODES", 512)
        p = ObservationPoint(10, 0, 0.6)
        f = parse_spectrum("cos(1.5*kx - 0.75*ky)")
        res = oracle_eval(f, p, 1.0, QuadratureConfig(rel_tol=1e-10))
        assert not res.converged
        assert res.limit.startswith("the 512-node azimuthal cap at k_rho = ")
        initial = math.hypot(1.0, math.log(100.0 / 1e-10) / p.z)
        assert float(res.limit.rsplit(" ", 1)[1]) > initial
        assert res.est_error == math.inf
        assert res.value != 0
        assert res.value == res.propagating_part + res.evanescent_part
        exact = 0.5 * sum(
            constant_closed_form(ObservationPoint(p.x - a, p.y + b, p.z))
            for a, b in ((1.5, 0.75), (-1.5, -0.75))
        )
        assert abs(res.value - exact) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("point", [(0, 0, 5), (0.3, 0.4, 5)], ids=["axis", "off-axis"])
    @pytest.mark.parametrize(
        "spectrum",
        ["weyl", "i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)", "sqrt(kx)"],
        ids=["radial", "ring", "capped"],
    )
    def test_evaluations_count_every_element_handed_to_the_spectrum(self, spectrum, point):
        # radial rows, rings, capped rings and the tail probe all reach the
        # spectrum as kx, ky, kz of one 2-D shape, and evaluations is the sum
        # of their elements
        from asx import parse_spectrum

        inner = weyl() if spectrum == "weyl" else parse_spectrum(spectrum)
        shapes = []

        def recording(kx, ky, kz, k0):
            shapes.append((np.shape(kx), np.shape(ky), np.shape(kz)))
            return inner.evaluate(kx, ky, kz, k0)

        probe = SpectrumFunction(label="probe", radial=inner.radial, _fn=recording)
        res = oracle_eval(probe, ObservationPoint(*point), 1.0)
        assert res.converged == (spectrum != "sqrt(kx)")
        assert all(len(x) == 2 and x == y == z for x, y, z in shapes)
        assert res.evaluations == sum(math.prod(x) for x, _, _ in shapes)


def bessel(x, order):
    """J_order of x >= 0 from the oracle's one Bessel entry point."""
    from asx.oracle import _bessel_orders

    return _bessel_orders(np.asarray(x, dtype=float), order)[order]


# dense around x = 1 and on both sides of the Hankel expansion's edge, x = 25
BESSEL_X = np.concatenate(
    (
        np.linspace(0.0, 3e5, 300_001),
        np.geomspace(1e-8, 3e5, 10_001),
        np.linspace(0.5, 1.5, 2_001),  # around x = 1
        np.linspace(24.0, 26.0, 4_001),  # the Hankel expansion's edge
        [1.0, 25.0, *[np.nextafter(e, side) for e in (1.0, 25.0) for side in (0.0, np.inf)]],
    )
)


class TestBesselJ0:
    """J0 behind the radial path, against scipy.special.jv(0, x): j0 rounds
    x - pi/4 and is off by 4.3e-14 near x = 2.7e5, jv is not."""

    def test_matches_scipy_over_the_oracle_range(self):
        from scipy.special import jv

        assert np.max(np.abs(bessel(BESSEL_X, 0) - jv(0, BESSEL_X))) <= 1e-15
        # the number of Hankel terms follows the smallest x of each call, so
        # calls over narrow ranges must hold too
        chunks = np.array_split(np.sort(BESSEL_X), 2_000)
        assert max(np.max(np.abs(bessel(c, 0) - jv(0, c))) for c in chunks) <= 1e-15

    def test_zero_and_tiny_arguments(self):
        # a recurrence downward in order would overflow like (2n/x)^n near 0,
        # the cosine sum does not: no warning, J0(0) exactly 1
        import warnings

        from scipy.special import jv

        x = np.array([0.0, 5e-324, 1e-300, 1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = bessel(x, 0)
        assert values[0] == 1.0
        assert np.max(np.abs(values - jv(0, x))) <= 1e-15


class TestBesselOrders:
    """J1 and the J_m of all orders behind the ring path, against scipy."""

    def test_j1_matches_scipy_over_the_oracle_range(self):
        # against jv(1, x), not j1, which rounds x - 3*pi/4 as j0 does
        from scipy.special import jv

        assert np.max(np.abs(bessel(BESSEL_X, 1) - jv(1, BESSEL_X))) <= 1e-15
        chunks = np.array_split(np.sort(BESSEL_X), 2_000)
        assert max(np.max(np.abs(bessel(c, 1) - jv(1, c))) for c in chunks) <= 1e-15

    @pytest.mark.parametrize("top", [0, 1, 14, 64])
    def test_each_value_below_the_hankel_edge_depends_on_its_own_x_only(self, top):
        # below x = 25, every order is Bessel's integral of its own x: the
        # same bits alone as inside a call that also spans Hankel's range;
        # J0(0) is exactly 1
        from asx.oracle import _bessel_orders

        x = np.concatenate((np.linspace(0.0, 25.0, 1_001)[:-1], np.geomspace(1e-8, 24.99, 201)))
        mixed = _bessel_orders(np.concatenate((np.linspace(25.0, 3e5, 97), x[::-1])), top)
        alone = np.array([_bessel_orders(np.array([value]), top)[:, 0] for value in x])
        assert np.array_equal(mixed[:, 97:][:, ::-1], alone.T)
        assert _bessel_orders(np.zeros(1), top)[0, 0] == 1.0

    @pytest.mark.parametrize("top", [2, 7, 64, 300])
    def test_orders_match_scipy_jv(self, top):
        # forward recurrence where x >= max(25, top), the FFT of Bessel's
        # integral below; orders up to 64 are checked.  The bound
        # grows like sqrt(x) for jv's own error at high orders: at order 64,
        # x = 1849, jv is off by 2.9e-14 and _bessel_orders by 5e-19
        from scipy.special import jv

        from asx.oracle import _bessel_orders

        x = np.concatenate(
            (
                np.linspace(0.0, 3e5, 3_001),
                np.geomspace(1e-8, 3e5, 2_001),
                np.linspace(0.0, 2.0 * top + 40.0, 2_001),  # around x = top
            )
        )
        orders = np.arange(min(top, 64) + 1)
        values = _bessel_orders(x, top)
        error = np.abs(values[orders] - jv(orders[:, None], x))
        assert np.max(error / (1.0 + np.sqrt(x))) <= 1e-15

    def test_tiny_arguments_of_high_orders(self):
        # x = 1e-7 would overflow a downward recurrence at order 32; Bessel's
        # integral takes it without a warning, its high orders within
        # rounding of their tiny values and exactly 0 at x = 0
        import warnings

        from scipy.special import jv

        from asx.oracle import _bessel_orders

        x = np.array([0.0, 5e-324, 1e-300, 1e-7, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _bessel_orders(x, 64)
        assert values[0, 0] == 1.0 and not values[1:, 0].any()
        assert np.max(np.abs(values - jv(np.arange(65)[:, None], x))) <= 2e-16

    def test_high_orders_stay_finite_where_a_downward_recurrence_overflows(self):
        # from order 2000 down to x = 1 a downward recurrence would grow by
        # ~1e5700; Bessel's integral on 8192 nodes keeps every order finite
        # and the low orders exact
        import warnings

        from scipy.special import jv

        from asx.oracle import _bessel_orders

        x = np.linspace(1.0, 60.0, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _bessel_orders(x, 2000)
        assert np.all(np.isfinite(values))
        orders = np.arange(65)
        error = np.abs(values[orders] - jv(orders[:, None], x))
        assert np.max(error / (1.0 + np.sqrt(x))) <= 1e-15


TRANSLATED_WEYL = "i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)"
# The ring path's exact case: parse_spectrum finds no shift in a cos, so the
# oracle samples its rings
RING = "i*cos(1.5*kx - 0.75*ky)/(2*pi*kz)"


def translated_wave(p, k0=1.0):
    """Exact integral of TRANSLATED_WEYL: the spherical wave about (1.5, -0.75, 0)."""
    return spherical_wave(ObservationPoint(p.x - 1.5, p.y + 0.75, p.z), k0)


def ring_wave(p, k0=1.0):
    """Exact integral of RING: the mean of the spherical waves about
    (1.5, -0.75, 0) and (-1.5, 0.75, 0)."""
    back = spherical_wave(ObservationPoint(p.x + 1.5, p.y - 0.75, p.z), k0)
    return 0.5 * (translated_wave(p, k0) + back)


def same_run(a, b) -> bool:
    """Two oracle runs with the same value, est_error and evaluations, bit
    for bit."""
    return (repr(a.value), repr(a.est_error), a.evaluations) == (
        repr(b.value),
        repr(b.est_error),
        b.evaluations,
    )


def brute_force_rows(krho, kz, p, nodes=1 << 13):
    """Azimuthal integrals of TRANSLATED_WEYL * exp(i*(kx*x + ky*y)) by a
    plain trapezoid of `nodes` points, written out here: no Bessel code."""
    phi = 2 * math.pi * np.arange(nodes) / nodes
    kx = krho[:, None] * np.cos(phi)
    ky = krho[:, None] * np.sin(phi)
    f = 1j / (2 * math.pi * kz[:, None]) * np.exp(-1.5j * kx + 0.75j * ky)
    return 2 * math.pi * np.mean(f * np.exp(1j * (kx * p.x + ky * p.y)), axis=1)


class TestJacobiAngerPath:
    """Parsed, non-radial spectra: a ring of f per radial node and the sum
    2*pi*sum c_m*i^m*J_m(k_rho*rho_xy)*exp(i*m*phi0)."""

    @pytest.mark.parametrize(
        "point", [(3, 4, 5), (20, -7, 2), (0.5, 0.2, 1), (-40, 25, 3)]
    )
    def test_rows_match_a_brute_force_trapezoid(self, point):
        # rows on both legs; at (0.5, 0.2, 1) k_rho*rho_xy stays below the
        # top order of f, where J_m comes from Bessel's integral
        from asx import parse_spectrum
        from asx.oracle import _Counter, _phi_integrals

        p = ObservationPoint(*point)
        kz = np.concatenate((np.linspace(0.05, 0.95, 7), 1j * np.linspace(0.1, 8.0, 9)))
        krho = np.sqrt(1.0 - kz * kz).real
        count = _Counter()
        rows = _phi_integrals(parse_spectrum(TRANSLATED_WEYL), krho, kz, p, 1.0, 1e-10, count)
        reference = brute_force_rows(krho, kz, p)
        scale = 1.0 / np.abs(kz)  # 2*pi*|f|
        assert np.max(np.abs(rows - reference) / scale) <= 1e-12

    @pytest.mark.parametrize("point", [(3, 4, 5), (20, -7, 2), (-40, 25, 3)])
    def test_cos_ring_is_the_mean_of_two_spherical_waves(self, point):
        from asx import parse_spectrum

        p = ObservationPoint(*point)
        res = oracle_eval(parse_spectrum(RING), p, 1.0)
        assert res.converged
        assert abs(res.value - ring_wave(p)) <= res.est_error

    def test_cos_ring_converges_near_grazing(self):
        # theta = 0.03; the trapezoid needed 9.2M evaluations here for the
        # translated Weyl, whose rings are as wide as these
        from asx import parse_spectrum

        p = ObservationPoint(100, 0, 3)
        res = oracle_eval(parse_spectrum(RING), p, 1.0)
        assert res.converged
        assert abs(res.value - ring_wave(p)) <= res.est_error
        assert res.evaluations < 2_000_000

    @pytest.mark.parametrize("x_max", [0.0, 5e-324, 0.3, 7.0, 60.0, 900.0])
    def test_bessel_sum_stops_where_the_orders_add_only_rounding(self, monkeypatch, x_max):
        # |J_m(x)| <= (x/2)^m/m! for x <= x_max: from the first m >= x_max
        # where that is below e^-42 the orders add only rounding, so the
        # sum stops there (at x_max = 900 it stays at the full top)
        from asx import oracle

        def plain_cap(top):
            for m in range(max(1, math.ceil(x_max)), top + 1):
                log_bound = m * (math.log(x_max) - math.log(2.0)) if x_max else -math.inf
                if log_bound - math.lgamma(m + 1) <= -42.0:
                    return m
            return top

        top = 800
        rng = np.random.default_rng(23)
        x = x_max * np.linspace(0.0, 1.0, 9)
        c = rng.normal(size=(x.size, 2 * top + 1)) + 1j * rng.normal(size=(x.size, 2 * top + 1))
        p = ObservationPoint(3, -4, 5)
        tops = []
        orders = oracle._bessel_orders

        def recorded(x, top):
            tops.append(top)
            return orders(x, top)

        monkeypatch.setattr(oracle, "_bessel_orders", recorded)
        capped = oracle._bessel_sum(c, x, p)
        assert tops == [plain_cap(top)]
        assert (tops[0] < top) == (x_max < 900.0)
        monkeypatch.setattr(oracle, "_order_cap", lambda x_max, top: top)
        full = oracle._bessel_sum(c, x, p)
        assert tops[1] == top
        # within the rounding of the sum: 1e-15 of 2*pi*sum |c_m*J_m(x)|
        # (|J_-m| = |J_m|), as these random c_m can cancel in the value
        j = np.abs(orders(x, top))
        scale = 2 * math.pi * np.sum(np.abs(c) * np.concatenate((j, j[:0:-1])).T, axis=1)
        assert np.max(np.abs(capped - full) / scale) <= 1e-15

    def test_parsed_weyl_takes_the_radial_path(self):
        # i/(2*pi*kz) names neither kx nor ky, so it is radial: the same
        # evaluations as the builtin and a value within its estimate
        from asx import parse_spectrum

        parsed = parse_spectrum("i/(2*pi*kz)")
        assert parsed.radial
        for point in ((3, 4, 5), (0, 0, 10), (100, 0, 3)):
            p = ObservationPoint(*point)
            built = oracle_eval(weyl(), p, 1.0)
            res = oracle_eval(parsed, p, 1.0)
            assert res.evaluations == built.evaluations
            assert abs(res.value - built.value) <= built.est_error

    @pytest.mark.parametrize("k", [-960, -560, 560, 1000])
    def test_a_power_of_two_scales_the_result_exactly(self, k):
        # |c|^2 overflows beyond 2^512 and underflows below 2^-512, so the
        # doubling test and the order cut must not read the squares as they
        # stand: scaled by 2^k, f gives the value and est_error of k = 0
        # scaled by 2^k, bit for bit, at the same evaluations
        from asx import parse_spectrum

        p = ObservationPoint(1, 0, 5)
        base = oracle_eval(parse_spectrum("kx+1"), p, 1.0)
        res = oracle_eval(parse_spectrum(f"{2.0**k!r}*(kx+1)"), p, 1.0)
        assert res.converged
        assert repr(res.value / 2.0**k) == repr(base.value)
        assert repr(res.est_error / 2.0**k) == repr(base.est_error)
        assert res.evaluations == base.evaluations


class TestShiftTheorem:
    """A parsed g*exp(i*(a*kx + b*ky + c*kz)) is integrated as g at
    p + (a, b, c), on the radial path when g is radial."""

    # the (theta, k0r) matrix of bench/oracle_matrix.py at azimuth 0.4; on
    # axis at k0r = 300 the shifted point lies beyond the envelope and f is
    # integrated at p (see below)
    MATRIX = [(theta, k0r) for theta in (1.0, 0.7, 0.3) for k0r in (20.0, 100.0, 300.0)]
    GRAZING = [(299.9, 0, 0.5), (299.9, 0, 5), (100, 0, 3)]

    @pytest.mark.parametrize("theta, k0r", MATRIX)
    def test_translated_weyl_is_the_translated_spherical_wave(self, theta, k0r):
        from asx import parse_spectrum, point_from_parameters

        p = point_from_parameters(theta, k0r, 1.0, 0.4)
        res = oracle_eval(parse_spectrum(TRANSLATED_WEYL), p, 1.0)
        assert res.converged
        assert abs(res.value - translated_wave(p)) <= res.est_error

    @pytest.mark.parametrize("point", GRAZING)
    def test_grazing_translated_weyl_is_weyl_at_the_shifted_point(self, point):
        # the remainder i/(2*pi*kz) at (x - 1.5, y + 0.75, z), bit for bit
        # (25,453 evaluations at (299.9, 0, 0.5))
        from asx import parse_spectrum

        p = ObservationPoint(*point)
        res = oracle_eval(parse_spectrum(TRANSLATED_WEYL), p, 1.0)
        assert res.converged
        assert abs(res.value - translated_wave(p)) <= res.est_error
        assert res.evaluations <= 100_000
        shifted = ObservationPoint(p.x - 1.5, p.y + 0.75, p.z)
        alone = oracle_eval(parse_spectrum("i/(2*pi*kz)"), shifted, 1.0)
        assert same_run(res, alone)

    @pytest.mark.parametrize("c", [0.5, -0.5])
    def test_a_kz_shift_moves_the_point_along_z(self, c):
        from asx import parse_spectrum

        f = parse_spectrum(f"i/(2*pi*kz)*exp({c!r}*i*kz)")
        assert f.shifted[0] == (0.0, 0.0, c)
        res = oracle_eval(f, ObservationPoint(3, 4, 1), 1.0)
        assert res.converged
        assert abs(res.value - spherical_wave(ObservationPoint(3, 4, 1 + c))) <= res.est_error

    def test_a_shift_through_the_plane_integrates_f_at_p(self):
        # the shift takes (0, 0, 1) to z = -1, so f itself is integrated at
        # p, bit for bit as the same spectrum without its shift: a Gaussian
        # beam focused beyond p decays in the evanescent region as
        # exp(-1 - s^2 + 2s - s) and converges; a Weyl does not decay, and
        # its integral diverges
        import dataclasses

        from asx import DivergenceError, parse_spectrum

        p = ObservationPoint(0, 0, 1)
        f = parse_spectrum("exp(-(kx^2+ky^2))*exp(-2*i*kz)")
        res = oracle_eval(f, p, 1.0)
        assert res.converged
        assert same_run(res, oracle_eval(dataclasses.replace(f, shifted=None), p, 1.0))
        with pytest.raises(DivergenceError):
            oracle_eval(parse_spectrum("i/(2*pi*kz)*exp(-2*i*kz)"), ObservationPoint(3, 4, 1), 1.0)

    def test_the_envelope_holds_at_p(self):
        # a p beyond k0*r <= 300 is refused wherever the shift takes it; a
        # shifted point beyond it is not taken, and f is integrated at p:
        # the translated Weyl on axis at k0*r = 300 is shifted to k0*r =
        # 300.0047
        import dataclasses

        from asx import parse_spectrum

        f = parse_spectrum("i/(2*pi*kz)*exp(-10*i*kx)")
        with pytest.raises(ConfigError, match=r"k0\*r = 305.002 is outside"):
            oracle_eval(f, ObservationPoint(305, 0, 1), 1.0)
        p = ObservationPoint(0, 0, 300)
        f = parse_spectrum(TRANSLATED_WEYL)
        res = oracle_eval(f, p, 1.0)
        assert res.converged
        assert abs(res.value - translated_wave(p)) <= res.est_error
        assert same_run(res, oracle_eval(dataclasses.replace(f, shifted=None), p, 1.0))


class TestUnitsOfK0:
    """The quadrature runs in units of k0: at (2^j*k0, p/2^j) it makes the
    same decisions and returns 2^j times the value and est_error, bit for
    bit, where k0^2 would leave the floating-point range."""

    @pytest.mark.parametrize("j", [-900, -600, 600, 900])
    @pytest.mark.parametrize("src", [None, "i/(2*pi*kz)*exp(-1.5*i*kx/k0 + 0.75*i*ky/k0)"])
    def test_a_power_of_two_in_k0_scales_the_result_exactly(self, src, j):
        from asx import parse_spectrum

        f = weyl() if src is None else parse_spectrum(src)
        base = oracle_eval(f, ObservationPoint(3, 4, 5), 1.0)
        k0 = 2.0**j
        res = oracle_eval(f, ObservationPoint(3 / k0, 4 / k0, 5 / k0), k0)
        assert base.converged and res.converged
        assert res.evaluations == base.evaluations
        assert repr(res.value) == repr(k0 * base.value)
        assert repr(res.est_error) == repr(k0 * base.est_error)

    def test_a_tiny_spectrum_is_not_stopped_by_an_absolute_floor(self):
        # converged means est_error <= rel_tol*|value| at any scale of f
        from asx import parse_spectrum

        res = oracle_eval(parse_spectrum("1e-300*(kx+1)"), ObservationPoint(3, 4, 5), 1.0)
        assert res.converged
        assert res.est_error <= 1e-7 * abs(res.value)
        assert res.evaluations == 21_568  # as kx+1 takes

    @pytest.mark.parametrize("k0", [1e-160, 2.0**-540])
    def test_a_value_that_underflows_once_scaled_is_refused(self, k0):
        # the constant's value in units of k0 is about 0.3 at k0*z = 20,
        # and k0^2 times it is subnormal (1e-160) or 0 (2^-540): too few
        # bits to return as converged
        from asx import DomainError

        with pytest.raises(DomainError, match="underflows"):
            oracle_eval(constant(), ObservationPoint(0, 0, 20 / k0), k0)
        # weyl's 1/kz keeps the value k0 times its units, a normal float
        assert oracle_eval(weyl(), ObservationPoint(0, 0, 20 / k0), k0).converged


# l = 2 multipoles i/(2*pi*kz)*Y with Y a harmonic polynomial of degree 2 in
# (kx, ky, kz)/k0: the first is radial, the other two take the ring path
QUADRUPOLES = [
    "i*(3*kz^2-1)/2/(2*pi*kz)",
    "i*kx*ky/(2*pi*kz)",
    "i*(kx^2-ky^2)/(2*pi*kz)",
]


class TestMultipoles:
    """f = i/(2*pi*kz)*Y, Y harmonic and homogeneous of degree l, integrates
    to Y(r_hat) times a spherical Hankel function, so the exact value is the
    leading order times sum_n i^n*(l + n)!/(n!*(l - n)!*(2*k0r)^n)."""

    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-10])
    @pytest.mark.parametrize("k0r, theta", [(20, 0.7), (100, 0.5), (50, 0.3), (300, 0.05)])
    @pytest.mark.parametrize("spectrum", QUADRUPOLES, ids=["radial", "kx*ky", "kx^2-ky^2"])
    def test_quadrupoles_are_exact_within_their_estimate(self, spectrum, k0r, theta, rel_tol):
        # l = 2: leading*(1 + 3i/k0r - 3/k0r^2); every spectrum call of these
        # runs carries rows of both legs
        from asx import leading_order, parse_spectrum, point_from_parameters

        f = parse_spectrum(spectrum)
        p = point_from_parameters(theta, k0r, 1.0, 0.4)
        res = oracle_eval(f, p, 1.0, QuadratureConfig(rel_tol=rel_tol))
        exact = leading_order(f, p, 1.0).value * (1 + 3j / k0r - 3 / k0r**2)
        assert res.converged
        assert abs(res.value - exact) <= res.est_error


class TestPanelBatches:
    """_panels over many panels against one call per panel."""

    @staticmethod
    def batched_and_alone(f, p, pick=slice(None)):
        """Per leg of oracle_eval's contour variable t (kz in [0, 1], then
        -s in [-12, 0]): the leg's picked panels out of one call that holds
        both legs' picked panels, one call per panel, and the largest
        |value| of all the leg's panels."""
        from asx.oracle import _Counter, _integrand, _panels

        h = functools.partial(_integrand, f, p, 1.0, 1e-7, _Counter())
        legs = [(e[:-1], e[1:]) for e in (np.linspace(0.0, 1.0, 41), np.linspace(-12.0, 0.0, 61))]
        picked = [(lo[pick], hi[pick]) for lo, hi in legs]
        values, errors = _panels(h, *(np.concatenate(edges) for edges in zip(*picked)))
        start = 0
        for (lo, hi), (a, b) in zip(legs, picked):
            alone = [_panels(h, a[i : i + 1], b[i : i + 1]) for i in range(a.size)]
            scale = np.max(np.abs(_panels(h, lo, hi)[0]))
            part = slice(start, start + a.size)
            start += a.size
            yield (values[part], errors[part]), [np.concatenate(x) for x in zip(*alone)], scale

    def test_on_axis_radial_panels_are_bit_identical(self):
        # on axis a radial spectrum takes no Bessel call, so each element is
        # computed alike whatever shares its call
        for (values, errors), (one_values, one_errors), _ in self.batched_and_alone(
            weyl(), ObservationPoint(0, 0, 5)
        ):
            assert np.array_equal(values, one_values)
            assert np.array_equal(errors, one_errors)

    @pytest.mark.parametrize("spectrum", ["weyl", RING])
    def test_off_axis_panels_agree_to_rounding(self, spectrum):
        # the Bessel kernels take their order and terms from the extremes of
        # a call, so batching moves the values by rounding only.  J_m rounds
        # in absolute terms, so the scale is the leg's largest panel: a panel
        # near a zero of J0 reads up to 3e-15 relative to its own value
        from asx import parse_spectrum

        f = weyl() if spectrum == "weyl" else parse_spectrum(spectrum)
        for point in ((20, -7, 2), (3, 4, 5), (-40, 25, 3)):
            for (values, errors), (one_values, one_errors), scale in self.batched_and_alone(
                f, ObservationPoint(*point)
            ):
                assert np.max(np.abs(values - one_values)) <= 1e-15 * scale
                assert np.max(np.abs(errors - one_errors)) <= 1e-15 * scale

    @pytest.mark.parametrize(
        "spectrum, point",
        [("weyl", (0, 0, 5)), ("weyl", (20, -7, 2)), (RING, (-40, 25, 3))],
        ids=["axis", "off-axis", "ring"],
    )
    def test_disjoint_panels_share_a_call(self, spectrum, point):
        # a round hands _panels the halves of panels from anywhere on the
        # contour, both legs in one call: here every third panel of each leg
        # from the right, neither adjacent nor in order; bit-identical on
        # axis, else to the leg's rounding as above
        from asx import parse_spectrum

        f = weyl() if spectrum == "weyl" else parse_spectrum(spectrum)
        for (values, errors), (one_values, one_errors), scale in self.batched_and_alone(
            f, ObservationPoint(*point), slice(None, None, -3)
        ):
            if point[:2] == (0, 0):
                assert np.array_equal(values, one_values)
                assert np.array_equal(errors, one_errors)
            assert np.max(np.abs(values - one_values)) <= 1e-15 * scale
            assert np.max(np.abs(errors - one_errors)) <= 1e-15 * scale


class TestRefinementRounds:
    """A round splits the worst panels together, both legs' in one spectrum
    call."""

    def test_both_legs_share_one_call(self):
        # weyl at (3, 4, 5) converges on its 8 + 8 initial panels: one call
        # of 16*21 rows, then the 8 x 8 tail probe
        sizes = []

        def recording(kx, ky, kz, k0):
            sizes.append(np.size(kx))
            return weyl().evaluate(kx, ky, kz, k0)

        probe = SpectrumFunction(label="probe", radial=True, _fn=recording)
        p = ObservationPoint(3, 4, 5)
        res = oracle_eval(probe, p, 1.0)
        assert res.converged
        assert abs(res.value - spherical_wave(p)) <= res.est_error
        assert sizes == [336, 64]

    def test_grazing_weyl_converges_in_few_spectrum_calls(self):
        # the G10 estimate asks for many splits near grazing; one split a
        # call took 132 calls here, and 16 + 32 rows a panel 28,176
        # evaluations
        calls = []

        def recording(kx, ky, kz, k0):
            calls.append(None)
            return weyl().evaluate(kx, ky, kz, k0)

        probe = SpectrumFunction(label="probe", radial=True, _fn=recording)
        p = ObservationPoint(299.9, 0, 0.5)
        res = oracle_eval(probe, p, 1.0)
        assert res.converged
        assert abs(res.value - spherical_wave(p)) <= res.est_error
        assert len(calls) <= 40
        assert res.evaluations <= 1.1 * 28_176

    def test_rounds_split_only_panels_near_the_worst(self):
        # weyl at theta = 0.3, k0r = 300: 16 + 32 rows a panel took 4,736
        # evaluations.  While the error is far above its target, covering the
        # excess alone would split nearly every panel; a round that also
        # took panels below a quarter of the worst took 4x as many here
        from asx import point_from_parameters

        p = point_from_parameters(0.3, 300.0, 1.0, 0.4)
        res = oracle_eval(weyl(), p, 1.0)
        assert res.converged
        assert abs(res.value - spherical_wave(p)) <= res.est_error
        assert res.evaluations <= 0.55 * 4736

    def test_grazing_cos_ring_converges_within_its_estimate(self):
        from asx import parse_spectrum

        p = ObservationPoint(299.9, 0, 5)
        res = oracle_eval(parse_spectrum(RING), p, 1.0)
        assert res.converged
        assert abs(res.value - ring_wave(p)) <= res.est_error

    @pytest.mark.parametrize("budget", [17, 24, 40])
    def test_rounds_never_pass_the_panel_budget(self, budget):
        # weyl on axis at k0r = 300 cannot meet 1e-8 within these budgets.
        # Each radial panel pushed costs 21 elements and the one tail probe
        # 64.  The run starts with max(8, budget/4) propagating panels (the
        # phase's ceil(k0r*(pi/2)/span) is more, 48 at rel_tol 1e-8) and 8
        # evanescent ones (rho = 0), and each split pushes two halves in
        # place of one panel, so it ends holding initial + splits
        res = oracle_eval(
            weyl(), ObservationPoint(0, 0, 300), 1.0, QuadratureConfig(rel_tol=1e-8, max_panels=budget)
        )
        assert res.limit == f"the radial panel budget max_panels={budget}"
        pushed, rest = divmod(res.evaluations - 64, 21)
        initial = max(8, budget // 4) + 8
        splits, odd = divmod(pushed - initial, 2)
        assert rest == odd == 0
        assert initial + splits == budget


class TestInitialPanels:
    """A leg starts with panels of _phase_span(rel_tol) of phase each."""

    @pytest.mark.parametrize("rel_tol, span", [(1e-7, 11.1436), (1e-11, 7.0311)])
    def test_propagating_edges_are_uniform_in_the_polar_angle(self, monkeypatch, rel_tol, span):
        from asx import oracle
        from asx.oracle import _phase_span

        assert _phase_span(rel_tol) == pytest.approx(span, abs=1e-4)
        first = []
        panels = oracle._panels

        def recording(h, lo, hi):
            if not first:
                first.append((lo.copy(), hi.copy()))
            return panels(h, lo, hi)

        monkeypatch.setattr(oracle, "_panels", recording)
        k0 = 2.0
        p = ObservationPoint(30.0, 20.0, 40.0)  # k0r = 2*sqrt(2900), about 107.7
        oracle_eval(weyl(), p, k0, QuadratureConfig(rel_tol=rel_tol))
        # the first call holds both legs' initial panels; the propagating
        # leg's (lo >= 0) edges are t = kz in units of k0: from exactly 0 to
        # exactly 1
        lo, hi = first[0]
        lo, hi = lo[lo >= 0.0], hi[lo >= 0.0]
        n = math.ceil(k0 * p.r * (math.pi / 2) / _phase_span(rel_tol))
        assert n > 8 and lo.size == n
        assert lo[0] == 0.0 and hi[-1] == 1.0
        assert np.array_equal(lo[1:], hi[:-1])
        assert_allclose(hi, np.sin(np.pi * np.arange(1, n + 1) / (2 * n)), rtol=1e-15)

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-7, 1e-11])
    def test_the_gauss_rule_meets_its_share_over_the_span(self, rel_tol):
        # the span is where G10 alone integrates exp(i*w*t) over it to
        # rel_tol/100 of the panel's length; w = span/2 on [-1, 1].  At the
        # 12 rad cap (rel_tol 1e-4) it does better still
        from asx.oracle import _GAUSS_NODES, _leggauss, _phase_span

        w = _phase_span(rel_tol) / 2
        nodes, weights = _leggauss(_GAUSS_NODES)
        error = abs((weights * np.exp(1j * w * nodes)).sum() - 2 * math.sin(w) / w)
        assert error <= 2 * rel_tol / 100
        if rel_tol < 1e-6:
            assert error >= 0.2 * rel_tol / 100  # not a looser span than needed

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-7, 1e-11])
    @pytest.mark.parametrize("k0r", [20.0, 250.0])
    @pytest.mark.parametrize("theta", [1.0, 0.5, 0.15])
    def test_weyl_stays_within_its_estimate(self, theta, k0r, rel_tol):
        from asx import point_from_parameters

        p = point_from_parameters(theta, k0r, 1.0, 0.4)
        res = oracle_eval(weyl(), p, 1.0, QuadratureConfig(rel_tol=rel_tol))
        assert res.converged
        assert abs(res.value - spherical_wave(p)) <= res.est_error


class TestSommerfeldPath:
    def test_radial_rows_take_one_element_each(self):
        from scipy.special import j0

        from asx.oracle import _Counter, _phi_integrals

        count = _Counter()
        p = ObservationPoint(18, 24, 2)
        krho = np.geomspace(0.05, 20.0, 40)
        values = _phi_integrals(constant(), krho, np.zeros(krho.size), p, 1.0, 1e-7, count)
        assert count.n == krho.size
        assert np.max(np.abs(values - 2 * math.pi * j0(krho * 30.0))) < 1e-14

    def test_grazing_weyl_converges_within_its_estimate(self):
        # the trapezoid reported its azimuthal cap here, 1.7e-3 rad above
        # the horizon, although its value was within 2.2e-10 of exact
        p = ObservationPoint(299.9, 0, 0.5)
        res = oracle_eval(weyl(), p, 1.0)
        assert res.converged
        assert abs(res.value - spherical_wave(p)) <= res.est_error

    def test_oracle_runs_without_scipy(self):
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from asx import ObservationPoint, gaussian, oracle_eval, parse_spectrum\n"
            "assert 'numpy.fft' not in sys.modules, 'importing asx loaded numpy.fft'\n"
            "oracle_eval(gaussian(2.0), ObservationPoint(30, 10, 4), 1.0)\n"
            f"f = parse_spectrum({RING!r})\n"
            "oracle_eval(f, ObservationPoint(30, 10, 4), 1.0)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ), check=True)


class TestDivergenceDetection:
    def test_non_integrable_spectrum_raises(self):
        from asx import DivergenceError, parse_spectrum

        # grows like exp(k_rho^2), faster than the exp(-s*z) decay
        grower = parse_spectrum("exp(kx^2+ky^2)")
        with pytest.raises(DivergenceError):
            oracle_eval(grower, ObservationPoint(0, 0, 5), 1.0)

    def test_a_double_pole_on_the_propagating_leg_raises(self):
        # 1/(k_rho^2 - 1/4)^2 is not integrable across k_rho = 1/2 (kz =
        # sqrt(3)/2): the panels around it grow without bound as they split
        from asx import DivergenceError, parse_spectrum

        with pytest.raises(DivergenceError):
            oracle_eval(parse_spectrum("1/(kx^2+ky^2-0.25)^2"), ObservationPoint(0, 0, 5), 1.0)

    def test_a_steep_polynomial_in_kz_converges(self):
        # on axis the evanescent leg of kz^n is 2*pi*int s*(i*s)^n*exp(-s*z)
        # ds = 2*pi*i^n*(n + 1)!/z^(n + 2), and the propagating leg adds at
        # most 2*pi/(n + 2); the integrand peaks at s = n + 1, beyond the
        # first cutoff (9.2 at rel_tol 1e-2), and its growth up to there is
        # no divergence
        from asx import parse_spectrum

        res = oracle_eval(
            parse_spectrum("kz^20"), ObservationPoint(0, 0, 1), 1.0, QuadratureConfig(rel_tol=1e-2)
        )
        assert res.converged
        assert abs(res.value - 2 * math.pi * math.factorial(21)) <= res.est_error


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


# the perfbench grazing geometry: (k0r, theta/theta0)
GRAZING_CELLS = [(50.0, 1.0), (30.0, 0.6), (20.0, 0.3)]


class TestTailBound:
    """The evanescent tail is cut where exp(-s*k0z) = rel_tol/100 and, for a
    radial spectrum off axis, bounded with J0's envelope."""

    def test_j0_stays_below_its_envelope(self):
        # |J0(x)| < sqrt(2/(pi*x)) for x > 0 (Watson, 13.74), the factor
        # _tail_bound takes; sup sqrt(x)*|J0(x)| creeps up to sqrt(2/pi)
        from scipy.special import j0

        x = np.concatenate(
            (np.linspace(0.0, 2e5, 2_000_001)[1:], np.geomspace(1e-12, 2e5, 100_001))
        )
        assert np.max(np.sqrt(x) * np.abs(j0(x))) < math.sqrt(2.0 / math.pi)

    @pytest.mark.parametrize("k0r, share", GRAZING_CELLS)
    def test_grazing_weyl_needs_no_tail_extension(self, k0r, share, monkeypatch):
        # one tail probe: the initial cutoff and the envelope close the
        # tail, and the true error against the spherical wave stays within
        # est_error
        from asx import oracle, point_from_parameters

        original, bounds = oracle._tail_bound, []

        def counting(*args):
            bounds.append(original(*args))
            return bounds[-1]

        monkeypatch.setattr(oracle, "_tail_bound", counting)
        p = point_from_parameters(share / math.sqrt(k0r), k0r, 1.0, 0.4)
        res = oracle_eval(weyl(), p, 1.0)
        assert res.converged
        assert len(bounds) == 1
        assert abs(res.value - spherical_wave(p)) <= res.est_error

    @pytest.mark.parametrize("point", [(3, 4, 5), (0, 0, 5)], ids=["off-axis", "axis"])
    @pytest.mark.parametrize("spectrum", ["weyl", RING], ids=["radial", "ring"])
    def test_only_a_radial_spectrum_off_axis_takes_the_envelope(self, spectrum, point):
        # the bound written out: max|f| on the 8 x 8 probe grid of s and
        # phi, times sqrt(2/(pi*k_rho(s_max)*rho)) for weyl off axis and 1
        # for the cos ring and on axis
        from asx import parse_spectrum
        from asx.oracle import _Counter, _tail_bound

        f = weyl() if spectrum == "weyl" else parse_spectrum(spectrum)
        p = ObservationPoint(*point)
        s_max = math.log(100.0 / 1e-7) / p.z
        s = np.linspace(s_max, 1.5 * s_max + 1.0, 8)[:, None]
        phi = 2.0 * math.pi * np.arange(8) / 8.0
        krho = np.sqrt(1.0 + s * s)
        fmax = np.max(np.abs(f.evaluate(krho * np.cos(phi), krho * np.sin(phi), 1j * s, 1.0)))
        factor = 1.0
        if f.radial and p.rho_xy > 0.0:
            factor = min(1.0, math.sqrt(2.0 / (math.pi * math.hypot(1.0, s_max) * p.rho_xy)))
            assert factor < 0.2
        expected = 2 * math.pi * fmax * factor * math.exp(-s_max * p.z) * ((s_max + 1) / p.z + 1 / p.z**2)
        assert _tail_bound(f, p, 1.0, s_max, _Counter()) == pytest.approx(expected, rel=1e-14)
