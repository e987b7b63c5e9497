import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from asx import (
    ConfigError,
    ObservationPoint,
    QuadratureConfig,
    SpectrumEvaluationError,
    SpectrumParseError,
    builtin_spectrum,
    constant,
    expr,
    gaussian,
    oracle_eval,
    parse_spectrum,
    weyl,
)
from asx.spectra import _RHO_SQUARED


def random_triples(rng, n):
    """Random complex (kx, ky, kz, k0) evaluation points."""
    out = []
    for _ in range(n):
        kx = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ky = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        kz = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(kz) < 1e-3:
            kz += 0.5
        out.append((kx, ky, kz, rng.uniform(0.5, 2.0)))
    return out


class TestBuiltins:
    def test_weyl_value(self):
        f = weyl()
        assert_allclose(f.evaluate(0.6, 0.0, 0.8, 1.0), 0.19894367886486917j, rtol=1e-14)

    def test_constant_everywhere(self):
        f = constant()
        assert f.evaluate(1.0, -2.0, 0.5j, 1.0) == 1.0
        assert np.all(f.evaluate(np.ones(4), np.zeros(4), np.ones(4), 1.0) == 1.0)

    def test_gaussian_value(self):
        f = gaussian(1.0)
        assert_allclose(f.evaluate(1.0, 1.0, 0.3, 1.0), math.exp(-0.5), rtol=1e-14)

    def test_gaussian_requires_positive_width(self):
        with pytest.raises(ConfigError):
            gaussian(0.0)
        with pytest.raises(ConfigError):
            gaussian(-2.0)

    def test_builtin_lookup(self):
        assert builtin_spectrum("weyl").label == "weyl"
        assert builtin_spectrum("constant").label == "constant"
        assert builtin_spectrum("gaussian(0.5)").label == "gaussian(0.5)"
        assert builtin_spectrum("gaussian").label == "gaussian(1)"
        with pytest.raises(ConfigError):
            builtin_spectrum("lorentzian")

    def test_weyl_rejects_branch_circle(self):
        with pytest.raises(SpectrumEvaluationError):
            weyl().evaluate(1.0, 0.0, 0.0, 1.0)

    def test_builtins_are_radial(self):
        for f in (weyl(), constant(), gaussian(2.0)):
            assert f.radial

    def test_parsed_spectrum_is_radial_when_kx_and_ky_only_form_kx2_plus_ky2(self):
        # the check is syntactic: kx and ky may occur only as the operands of
        # a sum kx^2 + ky^2 (either order); a tree that depends on kx^2 + ky^2
        # in another form is not radial
        assert parse_spectrum("i/(2*pi*kz)").radial
        assert parse_spectrum("exp(i*kz*k0)/(1 + kz^2)").radial
        assert parse_spectrum("exp(-(kx^2+ky^2)/4)").radial
        assert parse_spectrum("sqrt(k0^2-(ky^2+kx^2))*(kx^2+ky^2)^-1").radial
        assert not parse_spectrum("kz*sin(ky)").radial
        assert not parse_spectrum("1+kx^2+ky^2").radial  # (1+kx^2)+ky^2
        assert not parse_spectrum("exp(-kx^2/4)*exp(-ky^2/4)").radial
        assert not parse_spectrum("kx^2+kx^2").radial
        assert not parse_spectrum("kx^2-ky^2").radial

    def test_array_evaluation_broadcasts(self):
        f = gaussian(1.0)
        kx = np.linspace(-1, 1, 5)[:, None]
        ky = np.linspace(-1, 1, 3)[None, :]
        out = f.evaluate(kx, ky, np.float64(0.5), 1.0)
        assert out.shape == (5, 3)


class TestParserEquivalence:
    def test_weyl_expression_matches_builtin(self):
        f = parse_spectrum("i/(2*pi*kz)")
        g = weyl()
        rng = np.random.default_rng(53)
        for kx, ky, kz, k0 in random_triples(rng, 100):
            a = f.evaluate(kx, ky, kz, k0)
            b = g.evaluate(kx, ky, kz, k0)
            assert abs(a - b) <= 1e-15 * abs(b)

    def test_constant_expression(self):
        f = parse_spectrum("1")
        assert f.evaluate(0.3, 0.4, 0.5, 1.0) == 1.0
        g = constant()
        rng = np.random.default_rng(57)
        for kx, ky, kz, k0 in random_triples(rng, 100):
            assert f.evaluate(kx, ky, kz, k0) == g.evaluate(kx, ky, kz, k0)

    def test_gaussian_expression_matches_builtin(self):
        f = parse_spectrum("exp(-(kx^2+ky^2)/4)")
        g = gaussian(1.0)
        rng = np.random.default_rng(59)
        for kx, ky, kz, k0 in random_triples(rng, 100):
            a = f.evaluate(kx, ky, kz, k0)
            b = g.evaluate(kx, ky, kz, k0)
            assert abs(a - b) <= 1e-14 * abs(b)


ROUND_TRIP_CORPUS = [
    "1",
    "kx",
    "k0",
    "i",
    "pi",
    "2.5",
    "1e-3",
    "-kx",
    "kx+ky",
    "kx-ky",
    "kx*ky",
    "kx/ky",
    "kx^2",
    "kx^-2",
    "-kx^2",
    "(kx+ky)^3",
    "kx+ky+kz",
    "kx-ky-kz",
    "kx-(ky-kz)",
    "kx/(ky*kz)",
    "kx/ky/kz",
    "kx/(ky/kz)",
    "kx*(ky+kz)",
    "(kx+ky)*kz",
    "kx*ky+kz",
    "2*pi*kz",
    "i/(2*pi*kz)",
    "exp(kx)",
    "sqrt(kz)",
    "sin(kx)+cos(ky)",
    "exp(-(kx^2+ky^2)/4)",
    "exp(i*kz)",
    "1/(1+kz^2)",
    "kx^2*ky^2",
    "(kx*ky)^2",
    "-(kx+ky)",
    "kx^2+2*kx*ky+ky^2",
    "sqrt(k0^2-kx^2-ky^2)",
    "0.5*kx",
    "3.25e2*kz",
    "cos(2*pi*kx)",
    "kx- -ky",
    "-1",
    "- kx",
    "kx ^ 3",
    "( kx )",
    "exp( kx + ky )",
    "1+2+3",
    "1-2-3",
    "2^3",
    "kz^0",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_pretty_print_is_a_fixed_point(self, src):
        from asx.expr import format_expression, parse_expression

        once = format_expression(parse_expression(src))
        twice = format_expression(parse_expression(once))
        assert once == twice

    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_reprint_preserves_value(self, src):
        from asx.expr import evaluate_tree, format_expression, parse_expression

        tree = parse_expression(src)
        reparsed = parse_expression(format_expression(tree))
        env = {"kx": 0.37 + 0.21j, "ky": -1.2 + 0.4j, "kz": 0.9 - 0.1j, "k0": 1.1}
        a = complex(np.asarray(evaluate_tree(tree, env)))
        b = complex(np.asarray(evaluate_tree(reparsed, env)))
        assert a == b


class TestPowerChains:
    """^ groups to the left in the grammar, so a chain formats as it reads."""

    def test_a_chain_formats_as_itself(self):
        from asx.expr import format_expression, parse_expression

        for src in ("kx^1^1", "kx^-1^2", "(kx+1)^2^-3", "(-kz)^-2^-1", "2^3^-1"):
            assert format_expression(parse_expression(src)) == src

    def test_the_label_of_a_long_chain_parses_back(self):
        f = parse_spectrum("kx" + "^1" * 60)
        assert parse_spectrum(f.label).label == f.label

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=30), st.sampled_from(["kx", "(kx+ky)", "-kz", "2"]))
    def test_a_chain_round_trips(self, exponents, base):
        from asx.expr import format_expression, parse_expression

        tree = parse_expression(base + "".join(f"^{e}" for e in exponents))
        assert parse_expression(format_expression(tree)) == tree


MALFORMED = [
    "",
    "   ",
    "kx +* ky",
    "exp(kz",
    "(kx",
    "kx)",
    "kx + ",
    "* kx",
    "kx ky",
    "unknownvar",
    "foo(kx)",
    "kx^ky",
    "kx^2.5",
    "kx^(2)",
    "1/0",
    "kx//ky",
    "2..5",
    "kx @ ky",
    "exp()",
    "exp(,)",
    "Kx",
    "PI",
    "kx^",
    "^2",
    "()",
    "kx+()",
    "exp kx",
    "1 2",
    "kx*/ky",
    "sqrt(kx))",
    # number literals beyond the largest float
    "1e999",
    "2*1e999",
    "kx+1e400",
]


class TestErrorReporting:
    @pytest.mark.parametrize("src", MALFORMED)
    def test_malformed_input_raises_structured_error(self, src):
        with pytest.raises(SpectrumParseError) as info:
            parse_spectrum(src)
        assert info.value.position >= 1

    def test_syntax_error_carries_column(self):
        with pytest.raises(SpectrumParseError) as info:
            parse_spectrum("kx +* ky")
        assert info.value.position == 5
        assert info.value.expected

    def test_unknown_identifier_names_the_culprit(self):
        with pytest.raises(SpectrumParseError, match="qz"):
            parse_spectrum("kx + qz")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(SpectrumParseError, match="parenthesis"):
            parse_spectrum("exp(kz")

    def test_static_zero_denominator_rejected(self):
        with pytest.raises(SpectrumParseError, match="zero"):
            parse_spectrum("kx/0")

    # trees of exactly 100 levels, one per way of nesting: groups, calls,
    # signs, a sum's terms, powers; each with one level more beside it
    DEEPEST = [
        ("(" * 99 + "kx" + ")" * 99, "(" * 100 + "kx" + ")" * 100),
        ("cos(" * 99 + "kx" + ")" * 99, "cos(" * 100 + "kx" + ")" * 100),
        ("-" * 99 + "kx", "-" * 100 + "kx"),
        ("+".join(["kx"] * 100), "+".join(["kx"] * 101)),
        ("kx" + "^1" * 99, "kx" + "^1" * 100),
    ]

    @pytest.mark.parametrize("src, deeper", DEEPEST, ids=["group", "call", "sign", "sum", "power"])
    def test_the_deepest_accepted_trees_run_through_the_oracle(self, src, deeper):
        # every accepted tree formats (the label), takes the radial test and
        # evaluates inside oracle_eval under Python's default recursion limit
        f = parse_spectrum(src)
        assert not f.radial and f.label
        res = oracle_eval(f, ObservationPoint(3, 4, 5), 1.0, QuadratureConfig(rel_tol=1e-2))
        assert math.isfinite(res.est_error)
        with pytest.raises(SpectrumParseError, match="nested deeper than 100 levels") as info:
            parse_spectrum(deeper)
        assert 1 <= info.value.position <= len(deeper)

    def test_fuzz_corpus_never_crashes(self):
        rng = np.random.default_rng(61)
        fragments = list("kxyz0()+-*/^.ip ") + ["exp", "sqrt", "kx", "ky", "pi", "12"]
        crashes = 0
        structured = 0
        for _ in range(200):
            n = rng.integers(1, 12)
            src = "".join(rng.choice(fragments) for _ in range(n))
            try:
                f = parse_spectrum(src)
                f.evaluate(0.3, 0.2, 0.9, 1.0)
            except (SpectrumParseError, SpectrumEvaluationError):
                structured += 1
            except Exception:
                crashes += 1
        assert crashes == 0
        assert structured > 0


class TestEvaluationFaults:
    def test_division_by_zero_at_point(self):
        f = parse_spectrum("1/kz")
        with pytest.raises(SpectrumEvaluationError):
            f.evaluate(1.0, 0.0, 0.0, 1.0)

    def test_zero_to_negative_power(self):
        f = parse_spectrum("kz^-1")
        with pytest.raises(SpectrumEvaluationError):
            f.evaluate(0.0, 0.0, 0.0, 1.0)

    def test_overflow_is_an_error(self):
        f = parse_spectrum("exp(kx)")
        with pytest.raises(SpectrumEvaluationError):
            f.evaluate(1e6, 0.0, 1.0, 1.0)

    def test_one_non_finite_element_of_an_array_call_raises(self):
        # a complex array of the broadcast shape skips the conversion, not
        # the check
        f = parse_spectrum("exp(kx) + i*kz")
        kx = np.linspace(0.0, 1.0, 101).reshape(1, -1).repeat(3, axis=0)
        ky = np.zeros(kx.shape)
        kz = np.full(kx.shape, 0.5 + 0j)
        assert np.all(np.isfinite(f.evaluate(kx, ky, kz, 1.0)))
        kx[2, 7] = 800.0  # exp overflows in this element only
        with pytest.raises(SpectrumEvaluationError, match="non-finite"):
            f.evaluate(kx, ky, kz, 1.0)

    def test_array_call_returns_the_spectrum_values_unchanged(self):
        f = weyl()
        kz = np.linspace(0.1, 0.9, 12).reshape(3, 4) + 0j
        kx = np.zeros(kz.shape)
        out = f.evaluate(kx, kx, kz, 1.0)
        assert out.dtype == complex and out.shape == kz.shape
        assert np.array_equal(out, f._fn(kx, kx, kz, 1.0))
        assert isinstance(f.evaluate(0.0, 0.0, 0.5 + 0j, 1.0), complex)

    @pytest.mark.parametrize(
        "spectrum",
        ["weyl", "constant", "gaussian(2)", "exp(-(kx^2+ky^2))", "i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)", "2"],
    )
    def test_a_scalar_call_returns_the_bits_of_an_array_call(self, spectrum):
        # scalars with a scalar value skip numpy's broadcast: the same
        # complex, bit for bit, as the element of a one-element array call
        f = parse_spectrum(spectrum) if spectrum[0] in "ei2" else builtin_spectrum(spectrum)
        for kx, ky, kz in ((0.3, -0.2, 0.9), (0.0, 0.0, 1.0), (1.25, 0.5, 0.7j), (-0.6, 0.4, 0.69 + 0j)):
            value = f.evaluate(kx, ky, kz, 1.0)
            row = f.evaluate(np.array([kx]), np.array([ky]), np.array([kz], dtype=complex), 1.0)
            assert type(value) is complex
            assert repr(value) == repr(complex(row[0]))

    @pytest.mark.parametrize("src", ["exp(kx)", "1e308*kx*kz"])
    def test_a_non_finite_scalar_is_an_error(self, src):
        f = parse_spectrum(src)
        with pytest.raises(SpectrumEvaluationError) as fault:
            f.evaluate(1e6, 0.0, 10.0, 1.0)
        assert str(fault.value) == f"spectrum {f.label!r} produced a non-finite value"

    def test_principal_branch_sqrt(self):
        f = parse_spectrum("sqrt(kz)")
        value = f.evaluate(0.0, 0.0, -4.0 + 0.0j, 1.0)
        assert_allclose(value, 2.0j, rtol=1e-15)

    @pytest.mark.parametrize(
        "src, kx, ky, expected",
        [
            ("sqrt(-kx^2)", 0.5, 0.0, 0.5j),
            ("sqrt(-kx^2)", -0.5, 0.0, 0.5j),
            ("sqrt(-(kx^2+ky^2))", 1.25, 0.0, 1.25j),
            ("sqrt(-(kx^2+ky^2))", -0.75, -1.0, 1.25j),
        ],
    )
    def test_principal_branch_sqrt_on_signed_zeros(self, src, kx, ky, expected):
        # the complex squares and negations of real numbers carry a -0
        # imaginary part, which must not pick the lower side of the cut
        assert parse_spectrum(src).evaluate(kx, ky, 0.5, 1.0) == expected


class TestDeterminism:
    def test_parsed_evaluation_is_reproducible(self):
        f = parse_spectrum("exp(i*kz)*kx^2/(1+ky^2)")
        args = (0.3 + 0.1j, -0.7 + 0.2j, 0.9 - 0.05j, 1.0)
        assert f.evaluate(*args) == f.evaluate(*args)


# small trees from the parser's grammar; the leaves include kx^2 + ky^2 in
# both orders, so that radial trees naming kx and ky are drawn too
_LEAVES = st.one_of(
    st.sampled_from(
        [expr.Name(name) for name in ("kx", "ky", "kz", "k0", "i", "pi")] + list(_RHO_SQUARED)
    ),
    st.integers(1, 4).map(lambda v: expr.Number(float(v))),
)
TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(expr.Neg, children),
        st.builds(expr.Call, st.sampled_from(sorted(expr.FUNCTIONS)), children),
        st.builds(expr.Power, children, st.integers(-2, 3)),
        st.builds(expr.BinOp, st.sampled_from("+-*/"), children, children),
    ),
    max_leaves=8,
)
# (kx, ky) on circles k_rho = 1.25 and 0.625 where kx^2 + ky^2 is k_rho^2
# exactly, in every quadrant: in the third the complex squares of two
# negative reals sum to k_rho^2 - 0j, which sqrt must read as the row does
ROTATED = (
    (1.25, (0.75, 1.0), (-1.0, 0.75), (0.0, 1.25), (-0.75, -1.0)),
    (0.625, (0.5, -0.375), (-0.625, 0.0)),
)


class TestRadialRule:
    @settings(max_examples=200, deadline=None)
    @given(tree=TREES)
    def test_a_radial_spectrum_is_invariant_under_rotation(self, tree):
        # f at (k_rho*cos(phi), k_rho*sin(phi), kz) is f at (k_rho, 0, kz),
        # the row the oracle's radial path evaluates, to a relative 1e-12
        f = parse_spectrum(expr.format_expression(tree))
        assume(f.radial)
        for krho, *turns in ROTATED:
            try:
                row = f.evaluate(krho, 0.0, 0.75, 1.0)
                values = [f.evaluate(kx, ky, 0.75, 1.0) for kx, ky in turns]
            except SpectrumEvaluationError:  # an overflow or a pole: no claim
                continue
            for value in values:
                assert abs(value - row) <= 1e-12 * abs(row), f.label


class TestShiftRule:
    """parse_spectrum marks g*exp(i*(a*kx + b*ky + c*kz)) with the shift
    (a, b, c) and the remainder g, and leaves the rest of f as it was."""

    @pytest.mark.parametrize(
        "src, shift, remainder, radial",
        [
            ("i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)", (-1.5, 0.75, 0.0), "i/(2*pi*kz)", True),
            ("i/(2*pi*kz)*exp(-i*1.5*kx + i*0.75*ky)", (-1.5, 0.75, 0.0), "i/(2*pi*kz)", True),
            ("exp(-i*(6*kx - 3*ky))", (-6.0, 3.0, 0.0), "1", True),
            ("i/(2*pi*kz)*exp(0.5*i*kz)", (0.0, 0.0, 0.5), "i/(2*pi*kz)", True),
            ("kx/exp(i*2*kx)", (-2.0, 0.0, 0.0), "kx", False),
            ("2/(kz*exp(i*pi*ky))", (0.0, -math.pi, 0.0), "2/kz", True),
            ("exp(-(kx^2+ky^2))*exp(i*kx/2)*kz", (0.5, 0.0, 0.0), "exp(-(kx^2+ky^2))*kz", True),
        ],
    )
    def test_a_linear_phase_is_a_shift(self, src, shift, remainder, radial):
        f = parse_spectrum(src)
        assert f.shifted[0] == shift
        rest = f.shifted[1]
        assert (rest.label, rest.radial, rest.shifted) == (remainder, radial, None)

    @pytest.mark.parametrize(
        "src",
        [
            "exp(-kx)",  # a real exponent
            "exp(i*k0*kx)",  # k0 counts as a variable
            "i/(2*pi*kz)*exp(-1.5*i*kx/k0 + 0.75*i*ky/k0)",
            "1 + exp(i*kx)",  # a sum, not a chain
            "exp(i*kx*ky)",  # not linear
            "exp(i*kx)*exp(i*ky)",  # two such factors
            "exp(i*kx + 1)",  # a constant term
            "exp((1 + i)*kx)",  # a coefficient with a real part
            "exp(i*kx/(1 - 1))",  # a divisor of value 0
            "-exp(i*kx)",  # a sign is not a factor of the chain
            "i*cos(1.5*kx - 0.75*ky)/(2*pi*kz)",
        ],
    )
    def test_any_other_tree_carries_no_shift(self, src):
        f = parse_spectrum(src)
        assert f.shifted is None

    @pytest.mark.parametrize(
        "src", ["i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)", "kx/exp(i*2*kx)", "exp(-i*(6*kx - 3*ky))"]
    )
    def test_f_itself_is_unchanged(self, src):
        # label, radial mark and values are those of the whole tree, and f is
        # the remainder times the phase exp(i*shift.k)
        f = parse_spectrum(src)
        tree = expr.parse_expression(src)
        assert f.label == expr.format_expression(tree)
        assert not f.radial
        rng = np.random.default_rng(5)
        kx, ky = rng.normal(size=(2, 50))
        kz = np.sqrt(1.0 - kx * kx - ky * ky + 0j)
        values = f.evaluate(kx, ky, kz, 1.0)
        env = {"kx": kx, "ky": ky, "kz": kz, "k0": 1.0}
        assert np.array_equal(values, expr.evaluate_tree(tree, env))
        (a, b, c), rest = f.shifted
        phase = np.exp(1j * (a * kx + b * ky + c * kz))
        assert_allclose(rest.evaluate(kx, ky, kz, 1.0) * phase, values, rtol=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        g=TREES,
        coefficients=st.tuples(*[st.integers(-3, 3)] * 3),
        divides=st.booleans(),
        first=st.booleans(),
    )
    def test_the_remainder_times_the_phase_is_f(self, g, coefficients, divides, first):
        # g times or over exp(i*(a*kx + b*ky + c*kz)), in either order: the
        # shift is found unless g holds such a factor of its own, and f is
        # the remainder times exp(i*shift.k) wherever both evaluate
        terms = [
            expr.BinOp("*", expr.Number(float(abs(a))), expr.Name(name))
            for a, name in zip(coefficients, ("kx", "ky", "kz"))
        ]
        form = expr.Number(0.0)
        for a, term in zip(coefficients, terms):
            form = expr.BinOp("-" if a < 0 else "+", form, term)
        phase = expr.Call("exp", expr.BinOp("*", expr.Name("i"), form))
        pair = (g, phase) if first else (phase, g)
        tree = expr.BinOp("/" if divides else "*", *pair)
        f = parse_spectrum(expr.format_expression(tree))
        assume(f.shifted is not None)
        shift, remainder = f.shifted
        sign = -1.0 if divides and first else 1.0
        assert shift == tuple(sign * a + 0.0 for a in coefficients)
        kx, ky = np.array([0.3, -1.1, 2.5]), np.array([0.7, 0.2, -0.4])
        kz = np.array([0.6, 0.9j, 2.1j])
        try:
            value = f.evaluate(kx, ky, kz, 1.0)
            rest = remainder.evaluate(kx, ky, kz, 1.0)
        except SpectrumEvaluationError:  # an overflow or a pole: no claim
            return
        turn = np.exp(1j * (shift[0] * kx + shift[1] * ky + shift[2] * kz))
        assert_allclose(rest * turn, value, rtol=1e-12, atol=1e-300)
