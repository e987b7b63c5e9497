import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from asx.cli import main


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
        from asx import read_csv_records

        for row in read_csv_records("\n".join(lines[:-1])):
            assert row["rel_error"] < 1e-10

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
        from asx import read_csv_records

        rows = read_csv_records(out)
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

    def test_unbalanced_parenthesis(self, capsys):
        code, out, _ = run_main(capsys, ["parse-check", "--spectrum-expr", "exp(kz"])
        assert code == 2
        payload = json.loads(out)
        assert "parenthesis" in payload["error"]

    def test_requires_expression(self, capsys):
        code, _, err = run_main(capsys, ["parse-check"])
        assert code == 2


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
    ("oracle --spectrum weyl --point 3,0,4 --kmax 1e200", 0, 1),
    ("compare --spectrum weyl --theta 1 --k0r-grid 20:100:4:log --out {missing}", 2, 0),
    ("eval --spectrum weyl --point 3,0,4 --out {missing}", 2, 0),
    ("parse-check --spectrum-expr kx --out {missing}", 2, 0),
    ("eval --spectrum constant --point 0,0,1e-308", 3, 0),
    ("eval --spectrum weyl --point 1e308,0,1e-308", 3, 0),
    ("eval --spectrum gaussian(2) --point 1e308,0,1e-308", 3, 0),
    ("eval --spectrum weyl --k0 1e-308 --point 1e10,0,1e-308", 3, 0),
]


class TestBadInputs:
    @pytest.mark.parametrize("command,code,lines", BAD_INPUTS)
    def test_documented_exit_code(self, command, code, lines, tmp_path, capsys):
        argv = command.format(missing=tmp_path / "missing" / "out").split()
        got, out, err = run_main(capsys, argv)
        assert got == code, err
        assert len(out.splitlines()) == lines
        assert code == 0 or err.startswith("asx: ")


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
