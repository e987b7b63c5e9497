import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asx import (
    ComparisonRecord,
    ConfigError,
    InsufficientDataError,
    QuadratureConfig,
    SpectrumEvaluationError,
    SweepConfig,
    constant,
    emit,
    fit_convergence_slope,
    point_from_parameters,
    read_csv_records,
    run_sweep,
    validity_map,
    weyl,
)
from asx.harness import CSV_FIELDS
from asx.spectra import SpectrumFunction


def synthetic_record(k0r, theta, rel_error, failed=False):
    p = point_from_parameters(theta, k0r, 1.0)
    return ComparisonRecord(
        k0r=k0r,
        theta=theta,
        point=p,
        asym=complex(0.1, -0.2),
        oracle=complex(0.1, -0.2),
        rel_error=rel_error,
        validity_margin=theta * math.sqrt(k0r),
        wall_time_oracle=0.0,
        failed=failed,
    )


class TestPointConstruction:
    def test_parameters_round_trip(self):
        p = point_from_parameters(theta=0.8, k0r=5.0, k0=1.0)
        assert_allclose(p.r, 5.0, rtol=1e-15)
        assert_allclose(p.theta, 0.8, rtol=1e-15)
        assert p.y == 0.0

    def test_azimuth_places_the_point(self):
        p = point_from_parameters(0.6, 10.0, 1.0, azimuth=math.pi / 2)
        assert abs(p.x) < 1e-15
        assert_allclose(p.y, 8.0, rtol=1e-14)

    def test_k0_scales_r(self):
        p = point_from_parameters(0.5, 100.0, k0=4.0)
        assert_allclose(p.r, 25.0, rtol=1e-14)


class TestSweepConfig:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(constant(), 1.0, (), (50.0,))
        with pytest.raises(ConfigError):
            SweepConfig(constant(), 1.0, (0.5,), ())

    def test_theta_range_enforced(self):
        with pytest.raises(ConfigError):
            SweepConfig(constant(), 1.0, (1.5,), (50.0,))

    def test_desk_scale_envelope(self):
        with pytest.raises(ConfigError):
            SweepConfig(constant(), 1.0, (0.5,), (500.0,))


class TestRunSweep:
    def test_weyl_sweep_is_everywhere_exact(self):
        cfg = SweepConfig(
            spectrum=weyl(),
            k0=1.0,
            theta_values=(0.5, 0.9),
            k0r_values=(20.0, 40.0),
            oracle_cfg=QuadratureConfig(rel_tol=1e-11),
        )
        records = run_sweep(cfg)
        assert len(records) == 4
        assert [(rec.theta, rec.k0r) for rec in records] == [
            (0.5, 20.0),
            (0.5, 40.0),
            (0.9, 20.0),
            (0.9, 40.0),
        ]
        for rec in records:
            assert not rec.failed
            assert rec.rel_error < 1e-10

    def test_constant_spectrum_follows_the_error_law(self):
        cfg = SweepConfig(
            spectrum=constant(),
            k0=1.0,
            theta_values=(0.8,),
            k0r_values=(50.0, 100.0, 200.0),
            oracle_cfg=QuadratureConfig(rel_tol=1e-9),
        )
        records = run_sweep(cfg)
        for rec, expected in zip(records, (0.02, 0.01, 0.005)):
            assert expected / 1.02 <= rec.rel_error <= expected * 1.02

    def test_failed_oracle_flags_the_record_only(self):
        class Boom(SpectrumEvaluationError):
            pass

        calls = {"n": 0}

        def fn(kx, ky, kz, k0):
            calls["n"] += 1
            if calls["n"] > 1:  # saddle evaluation succeeds, oracle blows up
                raise Boom("synthetic failure")
            return np.ones(
                np.broadcast_shapes(np.shape(kx), np.shape(ky)), dtype=complex
            )

        bad = SpectrumFunction(label="bad", radial=True, _fn=fn)
        cfg = SweepConfig(bad, 1.0, (0.8,), (20.0,))
        records = run_sweep(cfg)
        assert len(records) == 1
        assert records[0].failed
        assert "Boom" in records[0].note
        assert math.isnan(records[0].rel_error)

    def test_unconverged_oracle_note_names_the_limit(self):
        budget = QuadratureConfig(rel_tol=1e-8, max_panels=16)
        (rec,) = run_sweep(SweepConfig(weyl(), 1.0, (1.0,), (300.0,), oracle_cfg=budget))
        assert rec.failed
        assert rec.note == "oracle stopped by the radial panel budget max_panels=16"

    def test_programming_errors_propagate(self):
        # only package errors become flagged records; a bug must surface
        def fn(kx, ky, kz, k0):
            raise TypeError("synthetic bug")

        bad = SpectrumFunction(label="bad", radial=True, _fn=fn)
        with pytest.raises(TypeError):
            run_sweep(SweepConfig(bad, 1.0, (0.8,), (20.0,)))

    def test_grid_order_and_values_are_reproducible(self):
        cfg = SweepConfig(
            spectrum=constant(),
            k0=1.0,
            theta_values=(0.7, 0.9),
            k0r_values=(15.0, 30.0),
            oracle_cfg=QuadratureConfig(rel_tol=1e-8),
        )
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        for a, b in zip(first, second):
            assert a.asym == b.asym
            assert a.oracle == b.oracle
            assert a.rel_error == b.rel_error


class TestSlopeFit:
    def test_exact_power_law_recovered(self):
        records = [
            synthetic_record(k0r, 0.8, 3.7 * k0r**-1.35)
            for k0r in np.geomspace(20, 200, 8)
        ]
        assert_allclose(fit_convergence_slope(records, 0.8), -1.35, atol=1e-12)

    def test_identical_errors_give_zero_slope(self):
        records = [synthetic_record(k0r, 0.8, 0.01) for k0r in (20, 40, 80, 160)]
        assert_allclose(fit_convergence_slope(records, 0.8), 0.0, atol=1e-12)

    def test_needs_four_distinct_k0r(self):
        records = [synthetic_record(k0r, 0.8, 0.01) for k0r in (20, 40, 80)]
        with pytest.raises(InsufficientDataError):
            fit_convergence_slope(records, 0.8)

    def test_other_theta_rows_are_ignored(self):
        records = [
            synthetic_record(k0r, 0.8, 2.0 / k0r) for k0r in (20, 40, 80, 160)
        ] + [synthetic_record(k0r, 0.4, 99.0) for k0r in (20, 40, 80, 160)]
        assert_allclose(fit_convergence_slope(records, 0.8), -1.0, atol=1e-12)

    def test_degenerate_errors_rejected(self):
        records = [synthetic_record(k0r, 0.8, 0.0) for k0r in (20, 40, 80, 160)]
        with pytest.raises(InsufficientDataError):
            fit_convergence_slope(records, 0.8)

    def test_constant_spectrum_slope_is_minus_one(self):
        cfg = SweepConfig(
            spectrum=constant(),
            k0=1.0,
            theta_values=(0.8,),
            k0r_values=tuple(float(v) for v in np.geomspace(20, 200, 6)),
            oracle_cfg=QuadratureConfig(rel_tol=1e-8),
        )
        slope = fit_convergence_slope(run_sweep(cfg), 0.8)
        assert abs(slope - (-1.0)) < 0.05


class TestValidityMap:
    def test_grid_must_approach_the_threshold(self):
        cfg = SweepConfig(constant(), 1.0, (0.5, 0.9), (100.0,))
        with pytest.raises(ConfigError):
            validity_map(cfg)

    def test_grid_must_extend_above_the_threshold(self):
        cfg = SweepConfig(constant(), 1.0, (0.05, 0.08), (100.0,))
        with pytest.raises(ConfigError):
            validity_map(cfg)

    def test_on_axis_theta_is_always_evaluable(self):
        cfg = SweepConfig(
            spectrum=constant(),
            k0=1.0,
            theta_values=(0.15, 1.0),
            k0r_values=(60.0,),
            oracle_cfg=QuadratureConfig(rel_tol=1e-6),
        )
        records = validity_map(cfg)
        assert all(not rec.failed for rec in records)

    def test_comfortable_margin_means_small_error(self):
        # records with validity margin above 10 stay under 5% error for
        # every builtin spectrum once k0r is large enough to reach them
        from asx import gaussian

        for spectrum in (weyl(), constant(), gaussian(2.0)):
            cfg = SweepConfig(
                spectrum=spectrum,
                k0=1.0,
                theta_values=(0.1, 0.75, 0.9),
                k0r_values=(200.0,),
                oracle_cfg=QuadratureConfig(rel_tol=1e-7),
            )
            records = validity_map(cfg)
            comfortable = [r for r in records if r.validity_margin > 10.0]
            assert comfortable, spectrum.label
            for rec in comfortable:
                assert rec.rel_error < 0.05, spectrum.label

    def test_margin_field_matches_definition(self):
        cfg = SweepConfig(
            spectrum=constant(),
            k0=1.0,
            theta_values=(0.2, 0.8),
            k0r_values=(50.0,),
            oracle_cfg=QuadratureConfig(rel_tol=1e-6),
        )
        for rec in validity_map(cfg):
            assert_allclose(
                rec.validity_margin, rec.theta * math.sqrt(rec.k0r), rtol=1e-13
            )


class TestEmit:
    def test_empty_records_emit_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit([], "csv", out)
        assert out.read_text() == ",".join(CSV_FIELDS) + "\n"

    def test_forty_records_emit_41_lines(self, tmp_path):
        records = [
            synthetic_record(k0r, theta, 1.0 / k0r)
            for theta in (0.2, 0.4, 0.6, 0.8)
            for k0r in np.linspace(20, 110, 10)
        ]
        out = tmp_path / "sweep.csv"
        emit(records, "csv", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 41

    def test_round_trip_is_bit_exact(self, tmp_path):
        record = synthetic_record(73.0, 1 / 3, 0.0123456789012345678)
        out = tmp_path / "one.csv"
        emit([record], "csv", out)
        row = read_csv_records(out)[0]
        assert row["k0r"] == record.k0r
        assert row["theta"] == record.theta
        assert row["x"] == record.point.x
        assert row["y"] == record.point.y
        assert row["z"] == record.point.z
        assert row["asym_re"] == record.asym.real
        assert row["asym_im"] == record.asym.imag
        assert row["oracle_re"] == record.oracle.real
        assert row["oracle_im"] == record.oracle.imag
        assert row["rel_error"] == record.rel_error
        assert row["validity_margin"] == record.validity_margin

    def test_rel_error_recomputable_from_emitted_values(self, tmp_path):
        cfg = SweepConfig(
            spectrum=constant(),
            k0=1.0,
            theta_values=(0.6,),
            k0r_values=(25.0, 50.0),
            oracle_cfg=QuadratureConfig(rel_tol=1e-8),
        )
        out = tmp_path / "sweep.csv"
        emit(run_sweep(cfg), "csv", out)
        for row in read_csv_records(out):
            asym = complex(row["asym_re"], row["asym_im"])
            oracle = complex(row["oracle_re"], row["oracle_im"])
            assert_allclose(
                row["rel_error"], abs(asym - oracle) / abs(oracle), rtol=1e-15
            )

    def test_obj_format_carries_the_same_fields(self):
        import json

        buffer = io.StringIO()
        emit([synthetic_record(50.0, 0.5, 0.01)], "obj", buffer)
        payload = json.loads(buffer.getvalue().splitlines()[0])
        assert set(payload) == set(CSV_FIELDS)

    def test_obj_format_survives_flagged_records(self):
        import json

        flagged = synthetic_record(50.0, 0.5, math.nan, failed=True)
        buffer = io.StringIO()
        emit([flagged], "obj", buffer)
        payload = json.loads(buffer.getvalue().splitlines()[0])
        assert math.isnan(payload["rel_error"])

    def test_stream_destination(self):
        buffer = io.StringIO()
        emit([synthetic_record(50.0, 0.5, 0.01)], "csv", buffer)
        assert buffer.getvalue().startswith("k0r,theta,")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit([], "xml", io.StringIO())
