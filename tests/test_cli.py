import cmath
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from asx.cli import main


def csv_rows(text):
    """Data rows of emitted CSV as dicts of floats, comment lines skipped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def run_main(capsys, args):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_weyl_oblique_point(self, capsys):
        code, out, _ = run_main(
            capsys, ["eval", "--spectrum", "weyl", "--k0", "1", "--point", "3,0,4"]
        )
        assert code == 0
        payload = json.loads(out)
        assert_allclose(payload["value_re"], 0.0567324, atol=1e-6)
        assert_allclose(payload["value_im"], -0.1917849, atol=1e-6)
        assert payload["is_valid"] is True
        assert_allclose(payload["validity_margin"], 1.7888543819998319, rtol=1e-12)
        assert_allclose(payload["theta0"], math.sqrt(0.2), rtol=1e-12)

    def test_constant_on_axis(self, capsys):
        code, out, _ = run_main(
            capsys, ["eval", "--spectrum", "constant", "--point", "0,0,100"]
        )
        assert code == 0
        payload = json.loads(out)
        expected = -2j * math.pi * cmath.exp(100j) / 100.0
        assert_allclose(payload["value_re"], expected.real, rtol=1e-12)
        assert_allclose(payload["value_im"], expected.imag, rtol=1e-12)
        assert payload["theta"] == 1.0

    def test_half_space_violation_exits_3(self, capsys):
        code, out, err = run_main(
            capsys, ["eval", "--spectrum", "weyl", "--point", "1,1,-1"]
        )
        assert code == 3
        assert out == ""
        assert "z > 0" in err

    def test_spectrum_source_is_exclusive(self, capsys):
        code, _, err = run_main(
            capsys,
            [
                "eval",
                "--spectrum",
                "weyl",
                "--spectrum-expr",
                "1",
                "--point",
                "1,1,1",
            ],
        )
        assert code == 2
        assert "exactly one" in err
        code, _, _ = run_main(capsys, ["eval", "--point", "1,1,1"])
        assert code == 2

    def test_expression_spectrum_matches_builtin(self, capsys):
        _, out_b, _ = run_main(
            capsys, ["eval", "--spectrum", "weyl", "--point", "3,0,4"]
        )
        _, out_e, _ = run_main(
            capsys,
            ["eval", "--spectrum-expr", "i/(2*pi*kz)", "--point", "3,0,4"],
        )
        a, b = json.loads(out_b), json.loads(out_e)
        assert_allclose(a["value_re"], b["value_re"], rtol=1e-14)
        assert_allclose(a["value_im"], b["value_im"], rtol=1e-14)

    def test_csv_format(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["eval", "--spectrum", "weyl", "--point", "3,0,4", "--format", "csv"],
        )
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("value_re,value_im,k0r,")
        assert len(header.split(",")) == len(row.split(","))

    def test_malformed_point_exits_2(self, capsys):
        code, _, _ = run_main(
            capsys, ["eval", "--spectrum", "weyl", "--point", "1,2"]
        )
        assert code == 2


class TestOracle:
    def test_matches_eval_for_weyl(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["oracle", "--spectrum", "weyl", "--point", "3,0,4", "--tol", "1e-7"],
        )
        assert code == 0
        payload = json.loads(out)
        exact = cmath.exp(5j) / 5.0
        value = complex(payload["value_re"], payload["value_im"])
        assert abs(value - exact) / abs(exact) < 1e-6
        assert payload["converged"] is True
        assert payload["evaluations"] > 0
        split = complex(payload["propagating_re"], payload["propagating_im"]) + complex(
            payload["evanescent_re"], payload["evanescent_im"]
        )
        assert value == split

    def test_constant_closed_form(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["oracle", "--spectrum", "constant", "--point", "0,0,20", "--tol", "1e-7"],
        )
        assert code == 0
        payload = json.loads(out)
        exact = -2 * math.pi * 20 * cmath.exp(20j) * (20j - 1) / 8000.0
        value = complex(payload["value_re"], payload["value_im"])
        assert abs(value - exact) / abs(exact) < 1e-6

    def test_kmax_caps_the_evanescent_radius(self, capsys):
        code, out, _ = run_main(
            capsys,
            [
                "oracle",
                "--spectrum",
                "constant",
                "--point",
                "0,0,20",
                "--tol",
                "1e-6",
                "--kmax",
                "5",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        exact = -2 * math.pi * 20 * cmath.exp(20j) * (20j - 1) / 8000.0
        value = complex(payload["value_re"], payload["value_im"])
        assert abs(value - exact) / abs(exact) < 1e-5

    def test_kmax_below_k0_exits_2(self, capsys):
        code, _, err = run_main(
            capsys,
            ["oracle", "--spectrum", "weyl", "--point", "3,0,4", "--kmax", "0.5"],
        )
        assert code == 2
        assert "k_max" in err

    def test_tolerance_out_of_range_exits_2(self, capsys):
        code, _, err = run_main(
            capsys,
            ["oracle", "--spectrum", "weyl", "--point", "3,0,4", "--tol", "1e-30"],
        )
        assert code == 2
        assert "rel_tol" in err

    def test_divergent_spectrum_exits_4(self, capsys):
        code, _, err = run_main(
            capsys,
            [
                "oracle",
                "--spectrum-expr",
                "exp(kx^2+ky^2)",
                "--point",
                "0,0,5",
                "--tol",
                "1e-6",
            ],
        )
        assert code == 4
        assert "integrable" in err

    def test_budget_exhaustion_exits_4_with_best_value(self, capsys):
        code, out, err = run_main(
            capsys,
            [
                "oracle",
                "--spectrum",
                "weyl",
                "--point",
                "0,0,300",
                "--tol",
                "1e-8",
                "--max-panels",
                "16",
            ],
        )
        assert code == 4
        payload = json.loads(out)  # best value still printed
        assert payload["converged"] is False
        assert "budget" in err

    def test_azimuthal_cap_exits_4_and_names_the_cap(self, capsys, monkeypatch):
        from asx import oracle

        monkeypatch.setattr(oracle, "_MAX_PHI_NODES", 64)
        argv = "oracle --spectrum-expr sqrt(kx) --point 0,0,5 --tol 1e-2"
        code, out, err = run_main(capsys, argv.split())
        assert code == 4
        assert json.loads(out)["converged"] is False
        assert "the 64-node azimuthal cap at " in err

    @staticmethod
    def check_default_cap(capsys, point):
        # sqrt(kx) has a branch point on every ring; the run stops at the
        # first capped ring, among the initial panels, so it prints 0 with
        # no bound on its error, and names the ring
        argv = f"oracle --spectrum-expr sqrt(kx) --point {point}"
        code, out, err = run_main(capsys, argv.split())
        assert code == 4
        assert '"est_error": Infinity' in out
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["est_error"] == math.inf
        assert payload["value_re"] == payload["value_im"] == 0
        assert payload["evaluations"] <= 57_408
        assert err.startswith("oracle: stopped by the 32768-node azimuthal cap at k_rho = 0.99")

    def test_default_azimuthal_cap_exits_4(self, capsys):
        self.check_default_cap(capsys, "0,0,5")

    def test_default_azimuthal_cap_exits_4_off_axis(self, capsys):
        self.check_default_cap(capsys, "0.3,0.4,5")

    def test_overflowing_sums_end_the_process(self):
        # the panel sums of 1e307*kz turn NaN, which once made every stop
        # rule compare False, so the run never ended (see BAD_INPUTS)
        args = [sys.executable, "-m", "asx", "oracle", "--spectrum-expr", "1e307*kz"]
        proc = subprocess.run([*args, "--point", "1,0,5"], capture_output=True, timeout=60)
        assert proc.returncode == 4

    def test_kmax_cap_exits_4_and_names_the_cap(self, capsys):
        argv = "oracle --spectrum weyl --point 0,0,1 --kmax 2"
        code, out, err = run_main(capsys, argv.split())
        assert code == 4
        assert len(out.splitlines()) == 1
        assert json.loads(out)["converged"] is False
        assert err == (
            "oracle: stopped by the evanescent cap k_max=2 before reaching rel_tol\n"
        )


class TestCompare:
    def test_constant_slope_summary(self, capsys):
        code, out, _ = run_main(
            capsys,
            [
                "compare",
                "--spectrum",
                "constant",
                "--theta",
                "0.8",
                "--k0r-grid",
                "20:200:8:log",
                "--tol",
                "1e-8",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("k0r,theta,")
        assert len(lines) == 10  # header + 8 records + slope line
        tag, slope = lines[-1].split(",")
        assert tag == "# slope"
        assert abs(float(slope) - (-1.0)) < 0.05

    def test_weyl_reports_exact(self, capsys):
        code, out, _ = run_main(
            capsys,
            [
                "compare",
                "--spectrum",
                "weyl",
                "--theta",
                "0.8",
                "--k0r-grid",
                "10:40:4:log",
                "--tol",
                "1e-11",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "# slope,exact"
        for row in csv_rows(out):
            assert row["rel_error"] < 1e-10

    def test_weyl_is_exact_at_a_tiny_k0(self, capsys):
        # k0 = 1e-300: k0^2 underflows, the oracle's units of k0 do not
        code, out, _ = run_main(
            capsys,
            "compare --spectrum weyl --theta 0.5 --k0r-grid 20:300:4 --k0 1e-300".split(),
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 4
        for row in rows:
            assert row["rel_error"] < 1e-8

    def test_single_point_grid_exits_2(self, capsys):
        code, _, err = run_main(
            capsys,
            [
                "compare",
                "--spectrum",
                "constant",
                "--theta",
                "0.8",
                "--k0r-grid",
                "20:200:1:log",
            ],
        )
        assert code == 2
        assert "4 points" in err

    def test_bad_grid_syntax_exits_2(self, capsys):
        code, _, _ = run_main(
            capsys,
            [
                "compare",
                "--spectrum",
                "constant",
                "--theta",
                "0.8",
                "--k0r-grid",
                "20:200:8:quadratic",
            ],
        )
        assert code == 2


class TestValidityMapCommand:
    def test_produces_csv_across_the_boundary(self, capsys):
        code, out, _ = run_main(
            capsys,
            [
                "validity-map",
                "--spectrum",
                "constant",
                "--k0r",
                "64",
                "--theta-grid",
                "0.15:0.95:5",
                "--tol",
                "1e-6",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        rows = csv_rows(out)
        margins = [row["validity_margin"] for row in rows]
        assert margins == sorted(margins)

    def test_grid_away_from_threshold_exits_2(self, capsys):
        code, _, err = run_main(
            capsys,
            [
                "validity-map",
                "--spectrum",
                "constant",
                "--k0r",
                "100",
                "--theta-grid",
                "0.5:0.9:3",
            ],
        )
        assert code == 2
        assert "threshold" in err


class TestParseCheck:
    def test_ok_echoes_normalized_form(self, capsys):
        code, out, _ = run_main(
            capsys, ["parse-check", "--spectrum-expr", "i/(2*pi*kz)"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["normalized"] == "i/(2*pi*kz)"

    def test_syntax_error_reports_column(self, capsys):
        code, out, _ = run_main(capsys, ["parse-check", "--spectrum-expr", "kx +* ky"])
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["position"] == 5

    def test_overflowing_literal_reports_its_column(self, capsys):
        code, out, _ = run_main(capsys, ["parse-check", "--spectrum-expr", "kx+1e400"])
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["position"] == 4

    def test_unbalanced_parenthesis(self, capsys):
        code, out, _ = run_main(capsys, ["parse-check", "--spectrum-expr", "exp(kz"])
        assert code == 2
        payload = json.loads(out)
        assert "parenthesis" in payload["error"]

    def test_requires_expression(self, capsys):
        code, _, err = run_main(capsys, ["parse-check"])
        assert code == 2

    def test_a_tree_deeper_than_the_limit_reports_a_column(self, capsys):
        # 200 nested parentheses: the 101st is refused, with no traceback;
        # 99 of them pass
        deep = "(" * 200 + "kx" + ")" * 200
        code, out, _ = run_main(capsys, ["parse-check", "--spectrum-expr", deep])
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert "nested deeper than 100 levels" in payload["error"]
        assert payload["position"] == 101
        code, out, _ = run_main(capsys, ["parse-check", "--spectrum-expr", deep[101:-101]])
        assert code == 0 and json.loads(out)["normalized"] == "kx"


class TestOutputFile:
    def test_out_writes_to_path(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run_main(
            capsys,
            [
                "eval",
                "--spectrum",
                "weyl",
                "--point",
                "3,0,4",
                "--out",
                str(target),
            ],
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["is_valid"] is True


class TestDeterminism:
    def test_the_shared_parser_keeps_no_arguments_between_calls(self, capsys):
        # main builds its parser once; a flag given to one call must not
        # reach the next
        from asx.cli import build_parser

        assert build_parser() is build_parser()
        argv = "oracle --spectrum weyl --point 0,0,1 --kmax 2"
        assert run_main(capsys, argv.split())[0] == 4
        code, out, err = run_main(capsys, argv.split()[:-2])
        assert code == 0 and err == ""
        assert json.loads(out)["converged"] is True

    def test_compare_is_byte_identical_across_thread_caps(self, tmp_path):
        # separate processes: the bytes depend neither on the process nor
        # on a leftover ASX_THREADS setting in its environment
        args = [
            sys.executable,
            "-m",
            "asx",
            "compare",
            "--spectrum",
            "weyl",
            "--theta",
            "0.8",
            "--k0r-grid",
            "10:20:4:log",
            "--tol",
            "1e-6",
        ]
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ, ASX_THREADS=threads)
            proc = subprocess.run(args, capture_output=True, env=env, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


# (command, exit code, stdout lines): each input ends in a documented exit
# code with a message, never in a traceback; {missing} is a path whose
# directory does not exist
BAD_INPUTS = [
    ("compare --spectrum-expr 1/kx --theta 1 --k0r-grid 20:100:4:log", 0, 6),
    ("eval --spectrum weyl --k0 nan --point 3,0,4", 2, 0),
    ("eval --spectrum weyl --k0 inf --point 3,0,4", 2, 0),
    ("validity-map --spectrum constant --k0r nan --theta-grid 0.12:0.9:6", 2, 0),
    ("compare --spectrum weyl --theta 1 --k0r-grid 20:100:4:log --azimuth nan", 2, 0),
    ("eval --spectrum weyl --point 1e200,1e200,1e200", 0, 1),
    ("oracle --spectrum weyl --point 3,0,1e-300", 3, 0),
    ("oracle --spectrum weyl --point 1e300,0,1e300", 2, 0),
    ("oracle --spectrum weyl --point 3,0,1e-150", 3, 0),
    ("oracle --spectrum weyl --point 3,0,1e-300 --kmax 2", 3, 0),
    ("oracle --spectrum weyl --point 3,0,1e-160 --kmax 2", 3, 0),
    ("oracle --spectrum weyl --point 3,0,4 --kmax 1e200", 0, 1),
    ("oracle --spectrum weyl --point 3,0,4 --kmax -1", 2, 0),
    # the oracle works in units of k0: k0^2 = 1e320 is never formed
    ("oracle --spectrum weyl --k0 1e160 --point 3e-160,0,4e-160", 0, 1),
    # k0^2 times the integral of the constant spectrum overflows
    ("oracle --spectrum constant --k0 1e200 --point 0,0,1e-199", 3, 0),
    # k0^2 times the constant's integral, and the closed form, underflow
    ("oracle --spectrum constant --k0 1e-160 --point 0,0,2e161", 3, 0),
    ("eval --spectrum constant --k0 1e-160 --point 0,0,2e161", 3, 0),
    # the azimuthal bandwidth at the initial cutoff is refused before any panel
    ("oracle --spectrum weyl --point 3,0,1e-4", 3, 0),
    # a shift to z + c <= 0 is not taken and f is integrated at p: there a
    # Gaussian beam converges and a Weyl, which does not decay, diverges
    ("oracle --spectrum-expr exp(-(kx^2+ky^2))*exp(-2*i*kz) --point 0,0,1", 0, 1),
    ("oracle --spectrum-expr i/(2*pi*kz)*exp(-2*i*kz) --point 3,4,1", 4, 0),
    # the envelope k0*r <= 300 holds at p, though the shift takes it to
    # (295, 0, 1)
    ("oracle --spectrum-expr i/(2*pi*kz)*exp(-10*i*kx) --point 305,0,1", 2, 0),
    ("compare --spectrum constant --theta 0.8 --k0r-grid 20:x:4", 2, 0),
    ("compare --spectrum constant --theta 0.8 --k0r-grid 100:20:4", 2, 0),
    ("compare --spectrum constant --theta 0.8 --k0r-grid 20:100:0", 2, 0),
    ("compare --spectrum constant --theta 0.8 --k0r-grid 20:inf:4:log", 2, 0),
    ("validity-map --spectrum weyl --k0r 1 --theta-grid 1:inf:4", 2, 0),
    ("compare --spectrum constant --theta 1.5 --k0r-grid 20:100:4", 2, 0),
    ("compare --spectrum constant --theta nan --k0r-grid 20:100:4", 2, 0),
    ("compare --spectrum constant --theta 0 --k0r-grid 20:100:4", 2, 0),
    ("validity-map --spectrum constant --k0r 50 --theta-grid 0.05:1.5:4", 2, 0),
    ("eval --spectrum weyl --point 1,a,3", 2, 0),
    ("eval --spectrum gaussian(abc) --point 1,2,3", 2, 0),
    ("compare --spectrum weyl --theta 1 --k0r-grid 20:100:4:log --out {missing}", 2, 0),
    ("eval --spectrum weyl --point 3,0,4 --out {missing}", 2, 0),
    ("parse-check --spectrum-expr kx --out {missing}", 2, 0),
    ("eval --spectrum constant --point 0,0,1e-308", 3, 0),
    ("eval --spectrum weyl --point 1e308,0,1e-308", 3, 0),
    ("eval --spectrum gaussian(2) --point 1e308,0,1e-308", 3, 0),
    ("eval --spectrum weyl --k0 1e-308 --point 1e10,0,1e-308", 3, 0),
    # a subnormal z/r: 1/kzs would overflow, and the oracle's cutoff does
    ("eval --spectrum weyl --point 1,0,1e-320", 3, 0),
    ("oracle --spectrum weyl --point 1,0,1e-320", 3, 0),
    # a sample overflows; the panel sums overflow to NaN: one message each,
    # with no numpy warning
    ("oracle --spectrum-expr 1e308*kz --point 1,0,5", 4, 0),
    ("oracle --spectrum-expr 1e307*kz --point 1,0,5", 4, 0),
    # a literal beyond the largest float is a parse error
    ("eval --spectrum-expr 1e999*kx --point 1,1,1", 2, 0),
    # so is a tree nested deeper than 100 levels: 200 nested calls, a
    # 1000-term sum
    pytest.param(f"eval --spectrum-expr {'exp(' * 200}kx{')' * 200} --point 3,0,4", 2, 0, id="calls"),
    pytest.param(f"eval --spectrum-expr {'+'.join(['kx'] * 1000)} --point 3,0,4", 2, 0, id="sum"),
]


class TestBadInputs:
    @pytest.mark.parametrize("command,code,lines", BAD_INPUTS)
    def test_documented_exit_code(self, command, code, lines, tmp_path, capsys):
        argv = command.format(missing=tmp_path / "missing" / "out").split()
        got, out, err = run_main(capsys, argv)
        assert got == code, err
        assert len(out.splitlines()) == lines
        assert code == 0 or (err.startswith("asx: ") and len(err.splitlines()) == 1)


NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-150, 1e150, 1e300, 1.7e308]),
)


@settings(max_examples=200, deadline=None)
@given(
    spectrum=st.sampled_from(["weyl", "constant", "gaussian(2)"]),
    k0=NUMBERS,
    point=st.tuples(NUMBERS, NUMBERS, NUMBERS),
)
def test_eval_exit_code_is_documented_for_any_k0_and_point(spectrum, k0, point):
    # the --flag=value form keeps argparse from reading "-1e-05" as a flag
    coords = ",".join(map(repr, point))
    argv = ["eval", "--spectrum", spectrum, f"--k0={k0!r}", f"--point={coords}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        row = json.loads(out.getvalue())
        numbers = [v for v in row.values() if not isinstance(v, bool)]
        assert all(math.isfinite(v) for v in numbers), row


def polar_point(r, theta, azimuth):
    rho = r * math.sqrt(1.0 - theta * theta)
    return f"{rho * math.cos(azimuth)!r},{rho * math.sin(azimuth)!r},{r * theta!r}"


def oracle_points(r_min):
    """Points at r_min <= k0*r <= 30 (k0 = 1) and theta >= 0.02, or malformed."""
    return st.one_of(
        st.builds(
            polar_point,
            r=st.floats(r_min, 30.0),
            theta=st.floats(0.02, 1.0),
            azimuth=st.floats(0.0, 2 * math.pi),
        ),
        st.sampled_from(["nan,0,1", "0,inf,1", "1,0,0", "1,0,-2", "1,2", "3,0,1e-300"]),
    )


def near_shifted_weyl(r, theta, azimuth, t):
    """A Weyl spectrum translated along x by t*z, at a polar point."""
    shift = t * r * theta
    return ["--spectrum-expr", f"i/(2*pi*kz)*exp(-{shift!r}*i*kx)"], polar_point(r, theta, azimuth)


def near_cos_ring(r, theta, azimuth, t):
    """A Weyl spectrum times cos(t*z*kx), the mean of two translated by
    -+t*z along x, at a polar point."""
    d = t * r * theta
    return ["--spectrum-expr", f"i*cos({d!r}*kx)/(2*pi*kz)"], polar_point(r, theta, azimuth)


# Builtins are radial and take the oracle's J0 path.  A parsed Weyl times one
# exp(i*(a*kx + b*ky)) carries a shift and takes that path at the shifted
# point: perfbench's tweyl, and a Weyl translated along x by up to 2*z.  A
# parsed spectrum that names kx or ky otherwise, such as a Weyl times a cos
# of d*kx, takes a ring of f per radial node, whose size follows the
# bandwidth of f, d*k_rho, up to the evanescent cutoff s_max ~ 30/z.  The
# cos ring of tweyl's shift (d = 1.7) keeps r >= 25, so that z >= 0.5 down
# to theta = 0.02; a cos of up to 2*z*kx has a bandwidth below ~60 wherever
# it is drawn, so it takes the ring down to k0*r = 1e-3, where the Bessel
# sum's top order often exceeds k_rho*rho_xy (Bessel's integral with a high
# top).  BAD_INPUTS pins the exit codes nearer to the z = 0 plane.
NEAR = {
    "r": st.floats(1e-3, 30.0),
    "theta": st.floats(0.02, 1.0),
    "azimuth": st.floats(0.0, 2 * math.pi),
    "t": st.floats(0.0, 2.0),
}
ORACLE_CASES = st.one_of(
    st.tuples(
        st.sampled_from([["--spectrum", name] for name in ("weyl", "constant", "gaussian(2)")]),
        oracle_points(1e-3),
    ),
    st.tuples(
        st.sampled_from(
            [
                ["--spectrum-expr", "i/(2*pi*kz)*exp(-1.5*i*kx + 0.75*i*ky)"],
                ["--spectrum-expr", "i*cos(1.5*kx - 0.75*ky)/(2*pi*kz)"],
            ]
        ),
        oracle_points(25.0),
    ),
    st.builds(near_shifted_weyl, **NEAR),
    st.builds(near_cos_ring, **NEAR),
)
ODD = [0.0, -1e-7, math.nan, math.inf, 1e200]


@settings(max_examples=50, deadline=None)
@given(
    case=ORACLE_CASES,
    tol=st.one_of(st.floats(1e-12, 1e-2), st.sampled_from([1e-13, 0.1, *ODD])),
    kmax=st.one_of(st.none(), st.floats(0.5, 100.0), st.sampled_from([1.0, *ODD])),
)
def test_oracle_exit_code_is_documented_for_any_point_tol_and_kmax(case, tol, kmax):
    spectrum, point = case
    argv = ["oracle", *spectrum, f"--point={point}", f"--tol={tol!r}"]
    if kmax is not None:
        argv.append(f"--kmax={kmax!r}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if out.getvalue():
        row = json.loads(out.getvalue())
        numbers = [v for v in row.values() if not isinstance(v, bool)]
        assert all(math.isfinite(v) for v in numbers), row


def float_text(lo, hi):
    return st.floats(lo, hi).map(repr)


def grid_text(lo, hi, counts):
    return st.builds(
        "{0[0]!r}:{0[1]!r}:{1}{2}".format,
        st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted),
        st.sampled_from(counts),
        st.sampled_from(["", ":log"]),
    )


# Valid draws keep k0*r <= 20 and theta >= 0.2, where each oracle cell takes
# milliseconds; at most one option then takes an odd value.
SWEEP_OPTIONS = {
    "compare": {"--theta": float_text(0.2, 1.0), "--k0r-grid": grid_text(1.0, 20.0, [4, 5])},
    "validity-map": {"--k0r": float_text(1.0, 20.0), "--theta-grid": grid_text(0.2, 1.0, [3, 4])},
}
SHARED_OPTIONS = {
    "--tol": float_text(1e-6, 1e-2),
    "--azimuth": float_text(-7.0, 7.0),
    "--k0": float_text(0.5, 2.0),
}
ODD_TEXT = st.sampled_from(
    ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "", "x"]
    + ["20:x:4", "100:20:4", "20:100:0", "1:2", "20:100:4:lin", "nan:20:4", "1:inf:4"]
    + ["0:20:4", "-5:20:4", "1e-300:20:4:log", "0.05:1.5:4", "0.5:0.5:4"]
)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(sorted(SWEEP_OPTIONS)),
    spectrum=st.sampled_from(["weyl", "constant", "gaussian(2)"]),
    data=st.data(),
)
def test_sweep_exit_code_is_documented_for_any_grid_and_option(command, spectrum, data):
    options = data.draw(st.fixed_dictionaries({**SWEEP_OPTIONS[command], **SHARED_OPTIONS}))
    odd = data.draw(st.none() | st.tuples(st.sampled_from(sorted(options)), ODD_TEXT))
    if odd is not None:
        options[odd[0]] = odd[1]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        # the --flag=value form keeps argparse from reading "-1" as a flag
        argv = [command, "--spectrum", spectrum, f"--out={out}"]
        argv += [f"{flag}={value}" for flag, value in options.items()]
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing a non-number
                code = exc.code
        assert code in (0, 2, 3, 4)
        # a refused sweep writes nothing
        assert code == 0 or not out.exists()
