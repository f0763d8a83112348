"""Sweep engine and CLI tests: determinism, schemas, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoband import (BlochVector, DualSSHParams, GlobalReference, NonHermitianSSHParams,
                     PiecewiseBlochReference, SpecError, SSHParams, SweepRecord, SweepSpec,
                     UndefinedRatioError, bound_check, chi_F, complexity_derivative,
                     detect_cusps, dual_windings, ground_complexity, nh_complexity_derivative,
                     nh_ground_complexity, param_derivative, plateau_reference, ratio_R,
                     records_to_csv, reference_coefficients, records_to_json, run_sweep, ssh_complexity_closed,
                     winding_cross_product, winding_log_derivative, write_records)
from twoband.cli import build_parser, main
from twoband.errors import ConvergenceError
from twoband.fidelity import _bloch_averages
from twoband.models import MODELS
from twoband.quadrature import BZQuadratureConfig
from twoband import sweeps
from twoband.sweeps import LOSSY_QUANTITIES, QUANTITIES

from conftest import rows_of

PI = math.pi
# +z for k <= 1, -z above: its jump at k = 1 is off the line of the SSH zeros, so the
# exact path declines its rows and they stay on the engine
OFF_LINE = PiecewiseBlochReference(((-PI, 1.0, BlochVector(0.0, 0.0, 1.0)),
                                    (1.0, PI, BlochVector(0.0, 0.0, -1.0))))


class TestSweepSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(SpecError):
            SweepSpec(model="kitaev", sweep=("mu", 0.0, 1.0, 5))

    def test_too_few_points(self):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t2", 0.0, 1.0, 1))

    @pytest.mark.parametrize("points", [2.7, 3.999, math.nan, math.inf])
    def test_non_integral_points(self, points):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t2", 0.0, 1.0, points))

    def test_integral_float_points(self):
        spec = SweepSpec(model="ssh", sweep=("t2", 0.0, 1.0, 3.0))
        assert spec.sweep[3] == 3 and spec.grid().size == 3

    def test_reversed_range(self):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t2", 2.0, 1.0, 5))

    def test_non_finite_bounds(self):
        for start, stop in ((-math.inf, 1.0), (0.5, math.inf)):
            with pytest.raises(SpecError):
                SweepSpec(model="ssh", sweep=("t2", start, stop, 3))

    def test_unknown_sweep_parameter(self):
        with pytest.raises(SpecError, match="cannot sweep 'mu'"):
            SweepSpec(model="ssh", sweep=("mu", 0.0, 1.0, 3))

    def test_sweep_parameter_cannot_be_fixed(self):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t2", 0.1, 1.0, 5), fixed={"t2": 1.0})

    def test_unknown_quantity(self):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t2", 0.1, 1.0, 5), quantities=("entropy",))

    @pytest.mark.parametrize("quantities", [(), ("complexity", "complexity"),
                                            ("chi_f", "winding", "chi_f")])
    def test_empty_or_repeated_quantities(self, quantities):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t2", 0.5, 1.5, 3), quantities=quantities)

    @pytest.mark.parametrize("quantities", [",", "complexity,complexity"])
    def test_cli_empty_or_repeated_quantities_exit_2(self, quantities, capsys):
        assert main(["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3",
                     "--quantities", quantities]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "configuration error" in captured.err

    def test_nh_model_rejects_hermitian_quantities(self):
        with pytest.raises(SpecError) as err:
            SweepSpec(model="nh-ssh", sweep=("t2", 0.1, 1.0, 5), quantities=("chi_f",))
        assert str(err.value) == (
            "'nh-ssh' sweeps support only ('complexity', 'dcomplexity'), not ['chi_f']")
        with pytest.raises(SpecError) as err:
            SweepSpec(model="ssh", sweep=("t2", 0.1, 1.0, 5),
                      quantities=("complexity", "entropy", "bogus"))
        assert str(err.value) == (
            "'ssh' sweeps support only ('complexity', 'dcomplexity', 'chi_f', "
            "'chi_f_components', 'bound', 'ratio', 'winding'), not ['entropy', 'bogus']")

    @pytest.mark.parametrize("model,sweep", [("ssh", "t2"), ("massive-dirac", "mu"),
                                             ("dual-ssh", "r"), ("cooper-pair-box", "ng")])
    def test_hermitian_models_reject_nh_reference_amplitudes(self, model, sweep):
        for key in ("alpha", "beta"):
            with pytest.raises(SpecError):
                SweepSpec(model=model, sweep=(sweep, 0.1, 1.0, 5), fixed={key: 3.0})

    def test_piecewise_reference_rejects_bound_and_ratio(self):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t2", 0.1, 1.0, 5),
                      reference=plateau_reference(), quantities=("bound",))
        with pytest.raises(SpecError, match="global reference"):
            SweepSpec(model="nh-ssh", sweep=("t2", 0.1, 1.0, 5), reference=plateau_reference())


class TestRunSweep:
    def test_a_lossy_average_out_of_budget_raises(self):
        # only an exceptional point skips a lossy row; an exhausted budget ends the sweep
        spec = SweepSpec("nh-ssh", ("t2", 1, 3, 5), {"t1": 2, "gamma": 1})
        with pytest.raises(ConvergenceError):
            run_sweep(spec, BZQuadratureConfig(max_subdivisions=2))

    def test_deterministic_csv(self):
        spec = SweepSpec(model="ssh", sweep=("t2", 0.2, 2.0, 7), fixed={"t1": 1.0},
                         quantities=("complexity", "chi_f"))
        a = records_to_csv(spec, run_sweep(spec))
        b = records_to_csv(spec, run_sweep(spec))
        assert a == b

    def test_resolution_consistency_at_shared_points(self):
        coarse = SweepSpec(model="ssh", sweep=("t2", 0.2, 1.8, 5), fixed={"t1": 1.0})
        fine = SweepSpec(model="ssh", sweep=("t2", 0.2, 1.8, 9), fixed={"t1": 1.0})
        cv = {r.lam: r.values["complexity"] for r in run_sweep(coarse)}
        fv = {r.lam: r.values["complexity"] for r in run_sweep(fine)}
        shared = sorted(set(cv) & set(fv))
        assert len(shared) >= 3
        for lam in shared:
            assert abs(cv[lam] - fv[lam]) < 1e-9

    def test_massive_dirac_antisymmetry(self):
        spec = SweepSpec(model="massive-dirac", sweep=("mu", -2.0, 2.0, 9),
                         reference=GlobalReference(0.0, 0.0))
        recs = run_sweep(spec)
        values = {round(r.lam, 12): r.values["complexity"] for r in recs}
        for mu in (2.0, 1.0, 0.5):
            assert values[mu] + values[-mu] == pytest.approx(1.0, abs=1e-9)

    def test_ssh_sweep_shows_derivative_cusp_at_transition(self):
        spec = SweepSpec(model="ssh", sweep=("t2", 0.2, 2.0, 61), fixed={"t1": 1.0})
        recs = run_sweep(spec)
        cusps = detect_cusps([(r.lam, r.values["complexity"]) for r in recs])
        spacing = recs[1].lam - recs[0].lam
        assert len(cusps) == 1 and abs(cusps[0] - 1.0) <= spacing

    def test_exhausted_budget_row_is_flagged_with_an_infinite_bound(self, skew):
        spec = SweepSpec(model=skew, sweep=("lam", 1.5, 1.6, 2),
                         reference=GlobalReference(0.9, 0.4), quantities=("chi_f", "bound"))
        for rec in run_sweep(spec, BZQuadratureConfig(max_subdivisions=2)):
            assert rec.flags == {"diverged"}
            assert math.isfinite(rec.values["chi_f"])
            assert math.isnan(rec.values["bound_lhs"]) and math.isinf(rec.values["bound_rhs"])

    def test_ratio_at_divergence_is_flagged_nan(self):
        # a gap point in the middle of each sweep; the winding rows at the gap
        # are NaN like the ratio, and the sweep goes on
        for spec, column, beside in (
            (SweepSpec(model="massive-dirac", sweep=("mu", -0.5, 0.5, 3),
                       reference=GlobalReference(0.3, 0.2), quantities=("ratio",)),
             "ratio", lambda v: 0.0 < v <= 1.0),
            (SweepSpec(model="massive-dirac", sweep=("mu", -0.5, 0.5, 3),
                       quantities=("winding",)),
             "winding", lambda v: abs(v) < 1e-10),
            (SweepSpec(model="ssh", sweep=("t2", 0.9375, 1.0625, 3), fixed={"t1": 1.0},
                       quantities=("winding",)),
             "winding", lambda v: v == 0.0),
        ):
            recs = run_sweep(spec, BZQuadratureConfig(max_subdivisions=300))
            assert math.isnan(recs[1].values[column]) and recs[1].flags == {"diverged"}
            assert beside(recs[0].values[column]) and recs[0].flags == frozenset()

    def test_divergence_flag_at_criticality(self, skew):
        # rows off one line, so the neighbours run on the engine beside the closed row
        spec = SweepSpec(model=skew, sweep=("lam", 0.9, 1.1, 3), quantities=("chi_f",))
        recs = run_sweep(spec, BZQuadratureConfig(max_subdivisions=300))
        flags = {round(r.lam, 6): r.flags for r in recs}
        assert "diverged" in flags[1.0]
        # the exhausted row's neighbours in the same batch keep their own budgets
        assert flags[0.9] == flags[1.1] == frozenset()

    def test_chi_components_columns(self):
        spec = SweepSpec(model="massive-dirac", sweep=("mu", 0.5, 1.5, 3),
                         quantities=("chi_f_components",))
        recs = run_sweep(spec)
        for rec in recs:
            assert set(rec.values) == {"chi_f_x", "chi_f_y", "chi_f_z"}
            assert rec.values["chi_f_y"] == 0.0

    def test_winding_column_tracks_transition(self):
        spec = SweepSpec(model="ssh", sweep=("t2", 0.4, 2.0, 5), fixed={"t1": 1.0},
                         quantities=("winding",))
        values = [r.values["winding"] for r in run_sweep(spec)]
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_bound_columns_satisfied(self):
        spec = SweepSpec(model="massive-dirac", sweep=("mu", 0.5, 2.0, 4),
                         reference=GlobalReference(0.0, 0.0), quantities=("bound",))
        for rec in run_sweep(spec):
            assert rec.values["bound_satisfied"] == 1.0
            assert rec.values["bound_lhs"] <= rec.values["bound_rhs"]

    def test_ratio_sweep_saturates(self):
        for spec in (
            SweepSpec(model="ssh", sweep=("t2", 40.0, 50.0, 3), fixed={"t1": 1.0},
                      reference=GlobalReference(0.5 * PI, PI), quantities=("ratio",)),
            SweepSpec(model="massive-dirac", sweep=("mu", 40.0, 50.0, 3),
                      reference=GlobalReference(0.0, 0.0), quantities=("ratio",)),
        ):
            recs = run_sweep(spec, BZQuadratureConfig(abs_tol=1e-12, rel_tol=1e-12))
            assert recs[-1].values["ratio"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-3)


class TestEmission:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        spec = SweepSpec(model="ssh", sweep=("t2", 0.4, 1.6, 4), fixed={"t1": 1.0},
                         quantities=("complexity",))
        recs = run_sweep(spec)
        text = records_to_csv(spec, recs)
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,complexity,flags"
        assert len(lines) == 1 + 4
        for line, rec in zip(lines[1:], recs):
            lam, comp, flags = line.split(",")
            assert float(lam) == rec.lam
            assert float(comp) == rec.values["complexity"]  # 17 digits round-trip
            assert flags == ""

    def test_json_schema(self, tmp_path):
        spec = SweepSpec(model="massive-dirac", sweep=("mu", 0.5, 1.0, 2),
                         quantities=("complexity", "dcomplexity"))
        recs = run_sweep(spec)
        path = tmp_path / "out.json"
        write_records(spec, recs, str(path))
        payload = json.loads(path.read_text())
        assert payload["model"] == "massive-dirac"
        assert payload["sweep"]["points"] == 2
        assert len(payload["records"]) == 2
        assert set(payload["records"][0]["values"]) == {"complexity", "dcomplexity"}

    def test_json_is_strict_with_null_for_non_finite_values(self, tmp_path):
        # the middle row sits on the massive-Dirac gap: lhs NaN, rhs inf
        spec = SweepSpec(model="massive-dirac", sweep=("mu", -0.5, 0.5, 3),
                         reference=GlobalReference(0.3, 0.2), quantities=("chi_f", "bound"))
        path = tmp_path / "out.json"
        write_records(spec, run_sweep(spec), str(path))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(path.read_text(), parse_constant=reject)
        gap = payload["records"][1]
        assert gap["flags"] == ["diverged"]
        assert gap["values"]["bound_lhs"] is None and gap["values"]["bound_rhs"] is None
        assert all(v is not None for v in payload["records"][0]["values"].values())

    def test_write_csv_file(self, tmp_path):
        spec = SweepSpec(model="ssh", sweep=("t2", 0.4, 1.6, 3), fixed={"t1": 1.0})
        path = tmp_path / "out.csv"
        write_records(spec, run_sweep(spec), str(path))
        assert path.read_text().startswith("lambda,complexity,flags")


def _json_oracle(spec, records):
    """The writer's oracle: the payload through json.dumps(indent=2, allow_nan=False)."""
    real = lambda x: x if math.isfinite(x) else None
    payload = {
        "model": spec.model,
        "sweep": {"parameter": spec.sweep[0], "start": real(spec.sweep[1]),
                  "stop": real(spec.sweep[2]), "points": spec.sweep[3]},
        "fixed": {k: real(float(v)) for k, v in sorted(spec.fixed.items())},
        "quantities": list(spec.quantities),
        "records": [{"lambda": real(rec.lam),
                     "values": {k: real(rec.values[k]) for k in sorted(rec.values)},
                     "flags": sorted(rec.flags)} for rec in records],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


class TestJsonWriter:
    """records_to_json writes json.dumps's layout directly, byte for byte."""

    REALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]

    def test_edge_reals_flags_and_an_empty_fixed(self):
        spec = SweepSpec(model="massive-dirac", sweep=("mu", 0.1 + 0.2, 1e16, 8),
                         quantities=("complexity", "chi_f"))
        flags = [frozenset(), frozenset({"diverged"}), frozenset({"undefined_ratio", "diverged"})]
        records = [SweepRecord(lam, {"complexity": x, "chi_f": -x}, flags[i % 3])
                   for i, (lam, x) in enumerate(zip(self.REALS, self.REALS[::-1]))]
        records.append(SweepRecord(1.0, {}, frozenset({"skipped_exceptional"})))
        assert spec.fixed == {}
        for recs in (records, records[:1], []):
            assert records_to_json(spec, recs) == _json_oracle(spec, recs)

    @pytest.mark.parametrize("spec", [
        SweepSpec("ssh", ("t2", 0.5, 1.5, 5), {"t1": 1.0}, GlobalReference(0.9, 0.4),
                  tuple(QUANTITIES)),
        SweepSpec("massive-dirac", ("mu", -0.5, 0.5, 3), {"t": 1.5}, GlobalReference(0.3, 0.2),
                  ("chi_f_components", "bound", "ratio", "winding")),
        SweepSpec("cooper-pair-box", ("ng", 0.2, 0.5, 3), {"Ej": 1.0, "Ecc": 2.0},
                  quantities=("complexity", "chi_f_components")),
        SweepSpec("nh-ssh", ("t2", 0.5, 3.0, 6), {"t1": 2.0, "gamma": 1.0},
                  quantities=("complexity", "dcomplexity")),
    ])
    def test_every_column_of_a_sweep(self, spec):
        # the ssh and massive-dirac windows each hold a closed row: nulls and flags
        records = run_sweep(spec)
        assert records_to_json(spec, records) == _json_oracle(spec, records)


# Windows of each family, (model, swept parameter, fixed, anchors): a window starts or ends on
# an anchor, or sits beside it.  The anchors are gap closings (and so exact transitions), the
# lossy t2 = 0 of t1 = 1, gamma = 2, where R^2 = 0 at every mode, and massive Dirac at mu = 50,
# whose dC the exact path declines to the engine.
_WINDOWS = (("ssh", "t2", {"t1": 1.0}, (1.0, -1.0)), ("ssh", "t1", {"t2": 1.3}, (1.3, -1.3)),
            ("massive-dirac", "mu", {}, (0.0, 50.0)), ("dual-ssh", "r", {}, (1.0,)),
            ("cooper-pair-box", "ng", {"Ej": 1.0, "Ecc": 2.0}, (0.5,)),
            ("nh-ssh", "t2", {"t1": 1.0, "gamma": 2.0}, (0.0,)),
            ("nh-ssh", "t2", {"t1": 2.0, "gamma": 0.0}, (2.0,)),
            ("nh-ssh", "t2", {"t1": 2.0, "gamma": 1.0}, (1.5, 2.5)))


@st.composite
def _sweep_specs(draw):
    """A random sweep: family, window, reference (one in three along y, with no coefficient on
    the planar axes, so that its ratios are undefined) and quantities."""
    model, name, fixed, anchors = draw(st.sampled_from(_WINDOWS))
    anchor, width = draw(st.sampled_from(anchors)), draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.5]))
    anchor += draw(st.sampled_from([0.0, 0.0, 0.137]))
    start, stop = (anchor, anchor + width) if draw(st.booleans()) else (anchor - width, anchor)
    theta, phi = draw(st.sampled_from([(0.5 * PI, 0.5 * PI), (0.0, 0.0), None])) or (
        draw(st.floats(0.05, PI - 0.05)), draw(st.floats(-PI, PI)))
    listed = LOSSY_QUANTITIES if model == "nh-ssh" else tuple(QUANTITIES)
    quantities = draw(st.lists(st.sampled_from(listed), min_size=1, unique=True))
    return SweepSpec(model, (name, start, stop, draw(st.integers(2, 6))), fixed,
                     GlobalReference(theta, phi), tuple(quantities))


def _scalar_bound(spec, lam):
    """Both sides of the bound, whether it holds and the ratio at one row, by the scalar
    rule: the ratio of the axis of the largest |integral|, NaN where chi diverged or where
    that axis has no coefficient or no susceptibility."""
    avg, = rows_of(_bloch_averages(MODELS[spec.model].model(spec.fixed, spec.sweep[0]), [lam],
                                   spec.reference, None, derivative=True, chi=True))
    if avg.chi.diverged:
        return math.nan, math.inf, 1.0, math.nan
    q = [abs(float(x)) for x in reference_coefficients(spec.reference)]
    rhs = 4.0 * PI * sum(qi * math.sqrt(max(c, 0.0)) for qi, c in zip(q, avg.chi.components))
    ints = [abs(float(x)) for x in avg.integrals]
    axis = max(range(3), key=ints.__getitem__)
    comp = avg.chi.components[axis]
    ratio = (ints[axis] / (4.0 * PI * math.sqrt(comp))
             if q[axis] >= 1e-15 and comp > 0.0 else math.nan)
    lhs = abs(avg.dcomplexity)
    return lhs, rhs, float(lhs <= rhs * (1.0 + 1e-9)), ratio


class TestEveryWriterPath:
    """The command line writes a sweep from its columns; ``run_sweep``'s records through
    ``records_to_csv`` and ``records_to_json`` give the same bytes."""

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_sweep_specs())
    def test_the_cli_writes_the_bytes_of_the_records(self, spec):
        name, start, stop, points = spec.sweep
        argv = [("nh-sweep" if spec.model == "nh-ssh" else "sweep"), "--model", spec.model,
                "--sweep", f"{name}:{start!r}:{stop!r}:{points}",
                "--quantities", ",".join(spec.quantities), "--theta", repr(spec.reference.theta),
                "--phi", repr(spec.reference.phi),
                *(arg for k, v in spec.fixed.items() for arg in ("--set", f"{k}={v!r}"))]

        def no_record(*args, **kwargs):
            raise AssertionError("a command-line sweep built a SweepRecord")

        texts = {}
        with tempfile.TemporaryDirectory() as work, mock.patch.object(
                sweeps, "SweepRecord", no_record):
            for out in ("out.csv", "out.json", None):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink):
                    assert main(argv + (["--out", f"{work}/{out}"] if out else [])) == 0
                texts[out] = Path(work, out).read_text(encoding="utf-8") if out else sink.getvalue()
        records = run_sweep(spec)
        assert texts["out.csv"] == texts[None] == records_to_csv(spec, records)
        assert texts["out.json"] == records_to_json(spec, records) == _json_oracle(spec, records)
        # the bound and the ratio of every row equal the scalar rule's at that row alone
        columns = ("bound_lhs", "bound_rhs", "bound_satisfied", "ratio")
        asked = [i for i, c in enumerate(columns) if c in records[0].values]
        for rec in records if asked else ():
            want = _scalar_bound(spec, rec.lam)
            assert [repr(rec.values[columns[i]]) for i in asked] == [repr(want[i]) for i in asked]


class TestCLI:
    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "ssh", "--set", "t1=1.0",
                     "--sweep", "t2:0.4:1.6:4", "--theta", str(0.5 * PI),
                     "--phi", str(PI), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("lambda,complexity,flags")

    def test_sweep_stdout(self, capsys):
        code = main(["sweep", "--model", "massive-dirac", "--sweep", "mu:0.5:1.5:3",
                     "--theta", "0", "--phi", "0"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("lambda,complexity,flags")

    def test_degrees_flag(self, capsys):
        code = main(["sweep", "--model", "ssh", "--set", "t1=1",
                     "--sweep", "t2:0.5:1.5:3", "--theta", "90", "--phi", "180",
                     "--degrees"])
        assert code == 0
        first_row = capsys.readouterr().out.strip().split("\n")[1]
        lam, comp, _ = first_row.split(",")
        from twoband import SSHParams, ssh_complexity_closed
        expected = ssh_complexity_closed(SSHParams(1.0, 0.5), GlobalReference(0.5 * PI, PI))
        assert float(comp) == pytest.approx(expected, abs=1e-8)

    def test_piecewise_reference_file(self, tmp_path, capsys):
        ref_file = tmp_path / "ref.txt"
        ref_file.write_text(f"{-PI} 0 0 0 1\n0 {PI} 0 0 -1\n")
        code = main(["sweep", "--model", "ssh", "--set", "t1=1",
                     "--sweep", "t2:1.5:3.0:3", "--ref-piecewise", str(ref_file)])
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        for row in rows:
            assert float(row.split(",")[1]) == pytest.approx(0.5 - 1.0 / PI, abs=1e-8)

    @pytest.mark.parametrize("line", ["a b c d e", "nan 0 0 0 1", f"{-PI} 0 inf 0 1", "0 1 2 3"])
    def test_bad_piecewise_line_is_spec_error(self, line, tmp_path, capsys):
        ref_file = tmp_path / "ref.txt"
        ref_file.write_text(f"# comment\n\n{line}\n0 {PI} 0 0 -1\n")
        assert main(["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3",
                     "--ref-piecewise", str(ref_file)]) == 2
        assert repr(line) in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(
            "model = ssh\n"
            "sweep = t2:0.5:1.5:3\n"
            "set.t1 = 1.0\n"
            "theta = 1.0   # overridden by the flag below\n"
        )
        code = main(["sweep", "--config", str(conf), "--theta", str(0.5 * PI)])
        assert code == 0
        assert capsys.readouterr().out.startswith("lambda,complexity,flags")

    def test_explicit_flag_equal_to_its_default_beats_the_config(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text("model = ssh\nsweep = t2:0.5:1.5:3\nset.t1 = 1.0\ntheta = 0.3\n")
        code = main(["sweep", "--config", str(conf), "--theta", "1.5707963267948966",
                     "--set", "t1=2.0"])
        assert code == 0
        lam, comp, _ = capsys.readouterr().out.strip().split("\n")[1].split(",")
        from twoband import SSHParams, ssh_complexity_closed
        expected = ssh_complexity_closed(SSHParams(2.0, 0.5), GlobalReference(0.5 * PI, PI))
        assert float(comp) == pytest.approx(expected, abs=1e-8)

    def test_config_supplies_unset_flags(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text("model = ssh\nsweep = t2:0.5:1.5:3\nset.t1 = 1.0\ntheta = 0.3\n"
                        "phi = 0.0\nabs-tol = 1e-11\n")
        assert main(["sweep", "--config", str(conf)]) == 0
        lam, comp, _ = capsys.readouterr().out.strip().split("\n")[1].split(",")
        from twoband import SSHParams, ssh_complexity_closed
        expected = ssh_complexity_closed(SSHParams(1.0, 0.5), GlobalReference(0.3, 0.0))
        assert float(comp) == pytest.approx(expected, abs=1e-8)

    def test_verify_suite_passes(self, capsys):
        assert main(["verify", "winding"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_all_passes(self, capsys):
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "84/84 checks passed"

    def test_winding_subcommand(self, capsys):
        assert main(["winding", "--model", "ssh", "--set", "t1=1", "--set", "t2=2"]) == 0
        assert "winding(contour) = 1" in capsys.readouterr().out

    def test_dual_winding_subcommand(self, capsys):
        assert main(["winding", "--model", "dual-ssh", "--set", "r=0.5"]) == 0
        out = capsys.readouterr().out
        assert "winding(I)  = 0" in out and "winding(II) = 1" in out

    def test_duality_subcommand(self, capsys):
        assert main(["duality", "--set", "r=2", "--theta", str(0.5 * PI),
                     "--phi", str(PI)]) == 0
        assert "residual" in capsys.readouterr().out

    def test_bound_subcommand(self, capsys):
        assert main(["bound", "--model", "massive-dirac", "--set", "mu=1",
                     "--lam", "1.0", "--theta", "0", "--phi", "0"]) == 0
        assert "satisfied=True" in capsys.readouterr().out

    def test_ratio_subcommand(self, capsys):
        assert main(["ratio", "--model", "ssh", "--set", "t1=1", "--lam", "50",
                     "--theta", str(0.5 * PI), "--phi", str(PI)]) == 0
        assert "R(50)" in capsys.readouterr().out

    # the rows' products overflow, and numpy warns of it while the rows are not scaled;
    # the warnings are not what is tested here
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["bound", "--model", "ssh", "--set", "t1=2", "--set", "t2=0.99999999", "--lam", "1e308"],
        ["ratio", "--model", "ssh", "--lam", "1e308"]])
    def test_a_non_finite_engine_average_exits_3(self, argv, capsys):
        # these exited 0 with lhs NaN, rhs inf and satisfied=True, or R = nan
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: BZ average did not converge to a finite error: [nan, nan]\n"

    # the lossy chain's products overflow too (the warnings are not what is tested here): a
    # non-finite average that met no mode where R^2 = 0 is a numerical failure, not an
    # exceptional point
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["nh-sweep", "--set", "t1=1e300", "--set", "gamma=1", "--sweep", "t2:1e300:3e300:3"],
        ["nh-sweep", "--set", "t1=3e102", "--set", "gamma=3e102", "--sweep", "t2:3e102:9e102:3",
         "--theta", "0.9", "--phi", "0.4"]])
    def test_a_non_finite_lossy_average_exits_3(self, argv, capsys):
        # these exited 0 with their NaN rows flagged skipped_exceptional
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: BZ average did not converge to a finite error: [nan]\n"

    def test_nh_sweep_subcommand(self, tmp_path):
        out = tmp_path / "nh.json"
        code = main(["nh-sweep", "--set", "t1=2", "--set", "gamma=1",
                     "--sweep", "t2:1.4:1.6:3", "--theta", str(0.5 * PI),
                     "--phi", "0", "--quantities", "complexity", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "nh-ssh"

    def test_spec_error_exit_code(self, tmp_path, capsys):
        assert main(["sweep", "--model", "ssh", "--sweep", "bogus"]) == 2
        assert main(["sweep", "--model", "ssh", "--sweep", "t2:2:1:5"]) == 2
        # non-finite numbers are configuration errors, not numerical failures
        assert main(["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:-inf:1:3"]) == 2
        assert main(["sweep", "--model", "ssh", "--set", "t1=inf", "--sweep", "t2:0.5:1:2"]) == 2
        assert main(["bound", "--model", "ssh", "--set", "t1=nan", "--lam", "1"]) == 2
        assert main(["nh-sweep", "--set", "t1=2", "--set", "gamma=1", "--set", "alpha=nan",
                     "--set", "beta=1", "--sweep", "t2:0.5:1:2"]) == 2
        # a missing input file and a zero reference vector are the user's input, too
        missing = str(tmp_path / "missing.txt")
        capsys.readouterr()
        for argv in (["sweep", "--config", missing],
                     ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3",
                      "--ref-piecewise", missing]):
            assert main(argv) == 2
            assert missing in capsys.readouterr().err
        zero = tmp_path / "zero.txt"
        zero.write_text(f"{-PI} 0.0 0 0 0\n0 {PI} 0 0 -1\n")
        assert main(["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3",
                     "--ref-piecewise", str(zero)]) == 2
        assert repr(f"{-PI} 0.0 0 0 0") in capsys.readouterr().err
        untiled = tmp_path / "untiled.txt"
        untiled.write_text(f"{-PI} 0.5 0 0 1\n0 {PI} 0 0 -1\n")
        assert main(["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3",
                     "--ref-piecewise", str(untiled)]) == 2
        assert str(untiled) in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--model", "ssh", "--set", "t1=inf", "--sweep", "t2:0.5:1:2"],
         "SSH hoppings must be finite"),
        (["sweep", "--model", "ssh", "--set", "t1=nan", "--sweep", "t2:0.5:1:2"],
         "SSH hoppings must be finite"),
        (["sweep", "--model", "ssh", "--set", "t1=abc", "--sweep", "t2:0.5:1:2"],
         "--set value for 't1' is not a number: 'abc'"),
        (["sweep", "--model", "ssh", "--set", "foo=inf", "--sweep", "t2:0.5:1:2"],
         "unknown fixed parameters ['foo']"),
        (["sweep", "--model", "massive-dirac", "--set", "t=-inf", "--sweep", "mu:0.5:1:2"],
         "massive-Dirac parameters must be finite"),
        (["nh-sweep", "--set", "gamma=inf", "--sweep", "t2:0.5:1:2"],
         "non-Hermitian SSH parameters must be finite"),
        (["winding", "--model", "cooper-pair-box", "--set", "ng=nan"],
         "the gate charge ng finite"),
        (["duality", "--set", "r=inf"], "ratio r must be finite"),
        (["bound", "--model", "dual-ssh", "--set", "t=nan", "--lam", "2"],
         "coupling t must be finite"),
    ])
    def test_set_values_are_judged_by_the_params(self, argv, message, capsys):
        # --set only parses; each params type rejects its non-finite values
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    def test_rows_beside_the_transition_are_unflagged(self, capsys):
        # chi_f there is 6.2e8 and 6.2e10: large, correct and not divergent
        assert main(["sweep", "--model", "ssh", "--set", "t1=1",
                     "--sweep", f"t2:{1 + 1e-12!r}:{1 + 1e-10!r}:2",
                     "--theta", "0.9", "--phi", "0.4", "--quantities", "chi_f,bound"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lambda,chi_f,bound_lhs,bound_rhs,bound_satisfied,flags"
        assert len(lines) == 3
        for line in lines[1:]:
            lam, chi, lhs, rhs, satisfied, flags = line.split(",")
            assert flags == "" and satisfied == "1"
            assert float(chi) > 1e8
            assert all(math.isfinite(float(x)) for x in (chi, lhs, rhs))

    def test_numerical_error_exit_code(self, capsys):
        # equatorial reference leaves the dominant massive-Dirac component
        # with a vanishing coefficient -> undefined ratio
        code = main(["ratio", "--model", "massive-dirac", "--set", "mu=1",
                     "--lam", "1.0", "--theta", str(0.5 * PI), "--phi", "0"])
        assert code == 3
        # the point command refuses a gap point that a sweep row flags
        assert main(["winding", "--model", "ssh", "--set", "t2=1"]) == 3

    def test_undefined_ratio_is_flagged_and_the_sweep_goes_on(self, capsys):
        # the equatorial reference has no coefficient on the dominant axis
        assert main(["sweep", "--model", "massive-dirac", "--sweep", "mu:0.5:1.5:3",
                     "--quantities", "bound,ratio"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lambda,bound_lhs,bound_rhs,bound_satisfied,ratio,flags"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-2] == "nan" and cells[-1] == "undefined_ratio"
            assert cells[3] == "1"

    def test_parser_is_built_once(self, monkeypatch, capsys):
        import twoband.cli as cli

        assert main(["winding", "--model", "ssh"]) == 0  # builds the parser if not yet built
        monkeypatch.setattr(cli, "build_parser", None)  # any further build would raise
        assert main(["winding", "--model", "ssh"]) == 0

    def test_missing_model_is_spec_error(self):
        assert main(["sweep", "--sweep", "t2:0.5:1.5:3"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--model", "ssh", "--set", "t1", "--sweep", "t2:1:2:3"],
         "--set expects key=value, got 't1'"),
        (["sweep", "--model", "ssh", "--sweep", "t2:a:b:3"],
         "bad --sweep specification 't2:a:b:3'"),
        (["sweep", "--model", "ssh"], "a sweep needs --sweep name:start:stop:points"),
        (["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:2.5"],
         "a sweep needs a whole number of points, not 2.5"),
    ])
    def test_a_malformed_sweep_is_spec_error(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_a_whole_float_point_count_is_that_count(self, capsys):
        # the library's rule: SweepSpec takes 3.0 as 3
        argv = ["nh-sweep", "--set", "t1=2", "--set", "gamma=1", "--sweep", "t2:0.5:1.5:3"]
        assert _stdout(capsys, argv[:-1] + ["t2:0.5:1.5:3.0"]) == _stdout(capsys, argv)

    @pytest.mark.parametrize("argv,code,text", [
        (["--help"], 0, "positional arguments:"),
        ([], 2, "twoband: error: the following arguments are required: command"),
        (["frobnicate"], 2, "twoband: error: argument command: invalid choice: 'frobnicate'"),
    ])
    def test_a_line_without_a_command_takes_the_full_parse(self, argv, code, text,
                                                           monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        shown = captured.out if code == 0 else captured.err
        assert shown.startswith("usage: twoband [-h] {sweep,nh-sweep,verify,winding,duality,"
                                "bound,ratio} ...\n") and text in shown

    def test_an_unknown_flag_is_reported_by_the_top_level_parser(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--model", "ssh", "--bogus", "1", "--sweep", "t2:0.5:1.5:3", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: twoband [-h] {sweep,nh-sweep,verify,winding,duality,bound,ratio} ...\n"
            "twoband: error: unrecognized arguments: --bogus 1 x\n")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "ssh", "--set", "t1=1", "--set", "t2=2", "--sweep", "t2:0.5:1:3"],
        ["nh-sweep", "--set", "t1=2", "--sweep", "t2:0.5:1:2", "--degrees", "--theta", "30"],
        ["verify", "all"],
        ["bound", "--model", "dual-ssh", "--lam", "2.5", "--abs-tol", "1e-9"],
        ["duality", "--set", "r=2", "--phi=0.3"],
    ])
    def test_one_pass_parses_as_the_full_parser_does(self, argv):
        import twoband.cli as cli

        assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv))

    def test_a_command_line_is_parsed_by_its_command_alone(self, monkeypatch, capsys):
        import twoband.cli as cli

        parser, _ = cli._default_parser()
        monkeypatch.setattr(parser, "parse_known_args", None)  # the full parse would raise
        assert main(["winding", "--model", "ssh"]) == 0


def _stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestConfigFile:
    """A config file stands for the sweep flags it names, placed before the command line's."""

    SWEEP = ["--model", "ssh", "--sweep", "t2:0.5:1.5:3", "--set", "t1=1"]
    CONF = "model = ssh\nsweep = t2:0.5:1.5:3\nset.t1 = 1\n"

    def test_ref_piecewise_key_equals_the_flag(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text(f"{-PI} 0 0 0 1\n0 {PI} 0 0 -1\n")
        conf = tmp_path / "sweep.conf"
        conf.write_text(self.CONF + f"ref-piecewise = {ref}\n")
        flag = _stdout(capsys, ["sweep", *self.SWEEP, "--ref-piecewise", str(ref)])
        assert flag[0] == 0
        assert _stdout(capsys, ["sweep", "--config", str(conf)]) == flag
        # the plateau reference's trivial-side value 1/2 - t2/pi at t2 = 0.5
        first = flag[1].splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(0.5 - 0.5 / PI, abs=1e-8)

    @pytest.mark.parametrize("line", ["quantity = chi_f", "the = 0.3", "bogus = 1"])
    def test_unknown_key_exits_2(self, line, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(self.CONF + line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(conf)])
        assert exc.value.code == 2
        assert line.split()[0] in capsys.readouterr().err

    def test_a_line_without_equals_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(self.CONF + "theta\n")
        assert main(["sweep", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: config line must be key = value: 'theta'\n")

    def test_config_key_naming_another_config_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(self.CONF + f"config = {conf}\n")
        assert main(["sweep", "--config", str(conf)]) == 2
        assert "config" in capsys.readouterr().err

    def test_degrees_key_equals_the_flag(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(self.CONF + "theta = 60\nphi = 30\ndegrees = true\n")
        flag = _stdout(capsys, ["sweep", *self.SWEEP, "--theta", "60", "--phi", "30",
                                "--degrees"])
        assert flag[0] == 0
        assert _stdout(capsys, ["sweep", "--config", str(conf)]) == flag

    def test_underscore_spelling_and_later_flags_win(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(self.CONF + "quantities = chi_f\nabs_tol = 1e-11\n")
        flag = _stdout(capsys, ["sweep", *self.SWEEP, "--set", "t1=2",
                                "--quantities", "complexity", "--abs-tol", "1e-11"])
        assert flag[0] == 0
        got = _stdout(capsys, ["sweep", "--config", str(conf), "--set", "t1=2",
                               "--quantities", "complexity"])
        assert got == flag

    def test_config_run_builds_no_second_parser(self, monkeypatch, tmp_path, capsys):
        import twoband.cli as cli

        conf = tmp_path / "sweep.conf"
        conf.write_text(self.CONF)
        assert main(["winding", "--model", "ssh"]) == 0  # builds the parser if not yet built
        monkeypatch.setattr(cli, "build_parser", None)  # any further build would raise
        assert main(["sweep", "--config", str(conf)]) == 0


class TestNHSweepIsSweep:
    FLAGS = ["--set", "t1=2", "--set", "gamma=1", "--sweep", "t2:1.4:1.6:3",
             "--theta", "90", "--phi", "0", "--degrees"]

    def test_default_quantities(self, capsys):
        code, out = _stdout(capsys, ["nh-sweep", *self.FLAGS])
        assert code == 0
        assert out.splitlines()[0] == "lambda,complexity,dcomplexity,flags"

    def test_sweep_with_model_nh_ssh_equals_nh_sweep(self, capsys):
        flags = [*self.FLAGS, "--quantities", "complexity"]
        nh = _stdout(capsys, ["nh-sweep", *flags])
        assert nh[0] == 0
        assert _stdout(capsys, ["sweep", "--model", "nh-ssh", *flags]) == nh


class TestBatchedRows:
    """Every sweep row equals the library call at its point."""

    REF = GlobalReference(0.9, 0.4)

    @staticmethod
    def same(got, want):
        return (math.isnan(got) and math.isnan(want)) or got == pytest.approx(
            want, rel=2e-15, abs=0.0)

    def library_values(self, model, lam):
        complexity = lambda x: ground_complexity(model.at(x), self.REF)
        values = {"complexity": complexity(lam)}
        values["dcomplexity"] = (param_derivative(complexity, lam) if model.at(lam).gap_closed()
                                 else complexity_derivative(model, self.REF, lam))
        chi = chi_F(model, lam)
        values["chi_f"] = chi.total
        values["chi_f_x"], values["chi_f_y"], values["chi_f_z"] = chi.components
        report = bound_check(model, self.REF, lam)
        values["bound_lhs"], values["bound_rhs"] = report.lhs, report.rhs
        values["bound_satisfied"] = 1.0 if report.satisfied else 0.0
        try:
            values["ratio"] = ratio_R(model, self.REF, lam)
        except UndefinedRatioError:
            values["ratio"] = math.nan
        point = model.at(lam)  # the grid oracle of the winding column
        values["winding"] = (math.nan if point.gap_closed() else
                             winding_log_derivative(point.contour) if point.rotated
                             else winding_cross_product(point))
        return values

    # each window has its transition on a grid point, a closed-gap row
    @pytest.mark.parametrize("model,parameter,fixed,start,stop", [
        ("ssh", "t2", {"t1": 1.0}, 0.5, 1.5),
        ("ssh", "t1", {"t2": 1.25}, 0.75, 1.75),
        ("massive-dirac", "mu", {}, -1.0, 1.0),
        ("dual-ssh", "r", {}, 0.5, 1.5),
        ("cooper-pair-box", "ng", {}, 0.0, 1.0),
    ])
    @pytest.mark.parametrize("quantities", [
        ("complexity", "dcomplexity", "chi_f", "chi_f_components", "bound", "ratio", "winding"),
        ("complexity",), ("dcomplexity", "chi_f", "winding"), ("complexity", "dcomplexity"),
        ("chi_f_components", "bound", "winding"), ("ratio",), ("complexity", "winding"),
    ])
    def test_hermitian_rows(self, model, parameter, fixed, start, stop, quantities):
        spec = SweepSpec(model=model, sweep=(parameter, start, stop, 5), fixed=fixed,
                         reference=self.REF, quantities=quantities)
        family = MODELS[model].model(fixed, parameter)
        for row in run_sweep(spec):
            want = self.library_values(family, row.lam)
            assert all(self.same(got, want[col]) for col, got in row.values.items()), row
            # a closed row flags all but its C, whatever else the row asks for
            closed = family.at(row.lam).gap_closed()
            assert row.flags == ({"diverged"} if closed and quantities != ("complexity",)
                                 else set()), row

    def test_row_where_the_swept_coupling_is_zero(self):
        # t1 = 0 zeroes one entry of the a row that the sweep's nodes carry, which
        # _bloch_sum sums as b cos k there and as (a + b) - 2 b sin^2(k/2) elsewhere
        spec = SweepSpec(model="ssh", sweep=("t1", -1.0, 1.0, 5), fixed={"t2": 1.5},
                         reference=OFF_LINE, quantities=("complexity", "dcomplexity"))
        family = MODELS["ssh"].model(spec.fixed, "t1")
        for row in run_sweep(spec):
            (want,) = rows_of(_bloch_averages(family, [row.lam], spec.reference, None,
                                              complexity=True, derivative=True))
            assert row.values == {"complexity": want.complexity,
                                  "dcomplexity": want.dcomplexity}, row

    def test_gapped_winding_sweep_runs_one_average_and_no_grid(self, calls, monkeypatch):
        def grid(*args, **kwargs):
            raise AssertionError("a sweep evaluated a winding grid")

        for module in [m for m in sys.modules.values() if m.__name__.startswith("twoband")]:
            for name in ("winding_phase_accumulation", "winding_log_derivative",
                         "winding_cross_product"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, grid)
        spec = SweepSpec(model="ssh", sweep=("t1", 1.5, 2.5, 9), fixed={"t2": 1.25},
                         reference=OFF_LINE, quantities=("complexity", "winding"))
        rows = run_sweep(spec)
        assert calls["bz_averages"] == 1 and calls["averages"] == 9
        assert calls["bz_average_vec"] == calls["param_derivative"] == 0
        assert [row.values["winding"] for row in rows] == [0.0] * 9

    @pytest.mark.parametrize("parameter,fixed,start,stop", [
        ("t2", {"t1": 2.0, "gamma": 1.0}, 1.0, 3.0),  # closings at 1.5 and 2.5
        ("gamma", {"t1": 2.0, "t2": 1.5}, 0.0, 2.0),  # a closing at gamma = 1
    ])
    def test_lossy_rows(self, parameter, fixed, start, stop):
        spec = SweepSpec(model="nh-ssh", sweep=(parameter, start, stop, 5), fixed=fixed,
                         reference=self.REF, quantities=("complexity", "dcomplexity"))
        for row in run_sweep(spec):
            params = NonHermitianSSHParams(**{**fixed, parameter: row.lam})
            c, dc = nh_complexity_derivative(params, parameter, self.REF.alpha, self.REF.beta)
            assert row.flags == frozenset() and self.same(row.values["complexity"], c)
            assert self.same(row.values["dcomplexity"], dc)


class TestLossyExceptionalPoints:
    @pytest.mark.parametrize("quantities", [None, "complexity"])
    def test_exact_exceptional_row_is_skipped_alone(self, quantities, capsys):
        # at t2 = 0 with |t1| = |gamma|/2, R^2 = 0 at every mode
        argv = ["nh-sweep", "--set", "t1=1", "--set", "gamma=2", "--sweep", "t2:-1:1:3"]
        code, out = _stdout(capsys, argv + (["--quantities", quantities] if quantities else []))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        ref = GlobalReference(0.5 * PI, PI)
        assert rows[1] == ["0", "nan"] + (["nan"] if quantities is None else []) + [
            "skipped_exceptional"]
        for row, t2 in ((rows[0], -1.0), (rows[2], 1.0)):
            params = NonHermitianSSHParams(1.0, t2, 2.0)
            want = (nh_complexity_derivative(params, "t2", ref.alpha, ref.beta)
                    if quantities is None else (nh_ground_complexity(params, ref.alpha, ref.beta),))
            assert row == [f"{t2:.17g}", *(f"{x:.17g}" for x in want), ""]


    def test_rows_on_and_beside_the_closings_are_not_flagged(self, capsys):
        # t2 = 1.75 and 3.25 are closings; an absolute |R^2| threshold kept
        # beside the graded panels flagged a row here skipped_exceptional
        code, out = _stdout(capsys, ["nh-sweep", "--set", "t1=2.5", "--set", "gamma=1.5",
                                     "--sweep", "t2:1.5625:3.34375:20",
                                     "--theta", "2.1119833563959167",
                                     "--phi", "0.9747569814724744"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 20
        for lam, c, dc, flags in rows:
            assert flags == ""
            assert math.isfinite(float(c)) and math.isfinite(float(dc))


class TestLosslessDiracPoint:
    """At gamma = 0, t2 = +-t1 both Laurent factors of R^2 vanish at one k: the lossy row is
    closed as a Hermitian one, its C averaged and its dC a finite difference flagged diverged."""

    REF = GlobalReference(0.5 * PI, PI)

    @pytest.mark.parametrize("window,quantities", [
        ("t2:-2.5:2.5:11", "complexity,dcomplexity"), ("t2:1.5:2.5:3", "complexity,dcomplexity"),
        ("t2:1.5:2.5:3", "complexity")])
    def test_sweep_through_the_closing_exits_cleanly(self, window, quantities, capsys):
        code = main(["nh-sweep", "--set", "t1=2", "--set", "gamma=0", "--sweep", window,
                     "--quantities", quantities])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        for row in (line.split(",") for line in out.splitlines()[1:]):
            closed = abs(float(row[0])) == 2.0
            assert all(math.isfinite(float(x)) for x in row[1:-1]), row
            assert row[-1] == ("diverged" if closed and "dcomplexity" in quantities else ""), row

    @pytest.mark.parametrize("start,stop", [(1.5, 2.5), (-2.5, -1.5)])
    def test_closed_row_is_the_ssh_closed_form_with_a_finite_difference(self, start, stop):
        spec = lambda quantities: SweepSpec(
            model="nh-ssh", sweep=("t2", start, stop, 3), fixed={"t1": 2.0, "gamma": 0.0},
            reference=self.REF, quantities=quantities)
        rows = run_sweep(spec(("complexity", "dcomplexity")))
        c_only = run_sweep(spec(("complexity",)))
        c = rows[1].values["complexity"]
        assert c == c_only[1].values["complexity"] == pytest.approx(
            ssh_complexity_closed(SSHParams(2.0, 2.0), self.REF), abs=1e-16)
        assert rows[1].flags == {"diverged"} and c_only[1].flags == frozenset()
        lone = lambda t2: nh_ground_complexity(NonHermitianSSHParams(2.0, t2, 0.0),
                                               self.REF.alpha, self.REF.beta)
        assert rows[1].values["dcomplexity"] == pytest.approx(param_derivative(lone, rows[1].lam),
                                                              rel=2e-15, abs=0.0)

    def test_two_eps_at_opposite_points_are_not_flagged(self, capsys):
        # t1 = 0, t2 = +-gamma/2: the factors vanish at k = 0 and at pi, not at one point
        code, out = _stdout(capsys, ["nh-sweep", "--set", "t1=0", "--set", "gamma=2",
                                     "--sweep", "t2:-1:1:3"])
        assert code == 0
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["", "", ""]


class TestWindingGapThreshold:
    """A winding cell is undefined only where the model itself calls the gap closed."""

    def test_sweep_rows_beside_the_transition_are_not_flagged(self, capsys):
        lo, hi = 1.0 - 5e-13, 1.0 + 5e-13
        code, out = _stdout(capsys, ["sweep", "--model", "ssh", "--set", "t1=1",
                                     "--sweep", f"t2:{lo!r}:{hi!r}:2",
                                     "--quantities", "chi_f,winding"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[2:] for row in rows] == [["0", ""], ["1", ""]]
        assert all(math.isfinite(float(row[1])) for row in rows)

    @pytest.mark.parametrize("argv, line", [
        (["--model", "massive-dirac", "--set", "mu=5e-13"], "winding(planar) = 0.0"),
        (["--model", "ssh", "--set", "t1=1", "--set", "t2=1.0000000000005"],
         "winding(contour) = 1"),
        (["--model", "dual-ssh", "--set", "r=0.9999999999995"], "winding(II) = 1"),
    ])
    def test_winding_command_beside_the_transition(self, argv, line, capsys):
        assert main(["winding", *argv]) == 0
        assert line in capsys.readouterr().out

    @pytest.mark.parametrize("t2", ["1.0000000000005", "1.00001"])
    def test_contour_families_print_only_the_contour_winding(self, t2, capsys):
        # the planar integral read 0.818 and 0.820 here: its grid cannot follow
        # d_hat turning by pi over a width |t2 - t1| at k = 0
        assert main(["winding", "--model", "ssh", "--set", "t1=1", "--set", f"t2={t2}"]) == 0
        assert capsys.readouterr().out == "winding(contour) = 1\n"

    @pytest.mark.parametrize("window", ["t2:-1.0000000001:-0.9999999999:3",
                                        "t2:-1.0000000000005:-0.9999999999995:3"])
    @pytest.mark.parametrize("quantities", ["complexity,winding", "winding"])
    def test_rows_beside_the_pi_closing_keep_their_winding(self, window, quantities, capsys):
        # beside t2 = -t1 the gap closes at k = +-pi, the ends of the zone; the
        # root count of the contour t1 - t2 e^{ik} compares |t2| with t1 exactly,
        # and C, the closed row's too, is the library's average
        code, out = _stdout(capsys, ["sweep", "--model", "ssh", "--set", "t1=1",
                                     "--sweep", window, "--quantities", quantities])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[-2:] for row in rows] == [["1", ""], ["nan", "diverged"], ["0", ""]]
        if quantities == "complexity,winding":
            ssh, ref = MODELS["ssh"].model({"t1": 1.0}), GlobalReference(0.5 * PI, PI)
            for row in rows:
                assert row[1] == f"{ground_complexity(ssh.at(float(row[0])), ref):.17g}"

    @pytest.mark.parametrize("quantities,runs,owners", [
        ("winding", 0, 0), ("complexity,winding", 1, 3)])
    def test_winding_beside_the_pi_closing_averages_nothing(self, quantities, runs, owners,
                                                            calls, capsys, tmp_path):
        # the winding is counted, not averaged: only C runs, on every row, closed or not;
        # a piecewise reference that jumps off the zeros' line (k = 1) keeps C on the engine
        plateau = tmp_path / "split.txt"
        plateau.write_text(f"{-PI!r} 1.0 0 0 1\n1.0 {PI!r} 0 0 -1\n", encoding="utf-8")
        code, _ = _stdout(capsys, ["sweep", "--model", "ssh", "--set", "t1=1", "--sweep",
                                   "t2:-1.0000000001:-0.9999999999:3", "--quantities", quantities,
                                   "--ref-piecewise", str(plateau)])
        assert code == 0
        assert calls["bz_averages"] == runs and calls["averages"] == owners
        assert calls["bz_average_vec"] == calls["param_derivative"] == 0

    @pytest.mark.parametrize("model,fixed", [
        *(("ssh", {"t1": 1.0, "t2": 1.0 + sign * delta})
          for delta in (5e-13, 1e-10, 1e-6, 0.5) for sign in (1, -1)),
        *(("dual-ssh", {"r": r}) for r in (1.0 + 5e-13, 1.0 - 5e-13, 0.5, 3.0)),
        *(("massive-dirac", {"mu": mu}) for mu in (1e-12, -1e-12, 0.5)),
        *(("cooper-pair-box", {"ng": ng}) for ng in (0.3, 0.5 + 1e-10, 0.5 - 1e-10)),
    ])
    def test_winding_command_prints_the_root_count_of_the_grid(self, model, fixed, capsys):
        argv = ["winding", "--model", model]
        for key, value in fixed.items():
            argv += ["--set", f"{key}={value!r}"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        entry = MODELS[model]
        count = entry.model(fixed).windings([fixed[entry.parameters[0]]])[0]
        if model == "dual-ssh":
            params = DualSSHParams(**fixed)
            count_ii = MODELS["ssh"].model({"t1": params.t}).windings([params.t / params.r])[0]
            assert (count, count_ii) == dual_windings(params)
            assert out == f"winding(I)  = {count:.0f}\nwinding(II) = {count_ii:.0f}\n"
        elif entry.rotated:
            assert count == winding_log_derivative(entry.model(fixed).contour)
            assert out == f"winding(contour) = {count:.0f}\n"
        else:
            assert count == winding_cross_product(entry.model(fixed)) == 0.0
            assert out == f"winding(planar) = {count:.12e}\n"

    def test_winding_command_on_the_transition_exits_3(self):
        for argv in (["--model", "massive-dirac", "--set", "mu=0"],
                     ["--model", "dual-ssh", "--set", "r=1"],
                     ["--model", "ssh", "--set", "t1=1", "--set", "t2=1"],
                     ["--model", "cooper-pair-box", "--set", "ng=0.5"]):
            assert main(["winding", *argv]) == 3

    def test_negative_coupling_closes_at_pi_and_the_sweep_goes_on(self, capsys):
        # t2 = -t1 closes the gap at k = pi, a singular point of the chain
        code, out = _stdout(capsys, ["sweep", "--model", "ssh", "--sweep", "t2:-1.5:-0.5:3",
                                     "--quantities", "chi_f,winding"])
        assert code == 0
        assert out.splitlines()[2] == "-1,inf,nan,diverged"
        code, out = _stdout(capsys, ["bound", "--model", "ssh", "--lam", "-1"])
        assert code == 0
        assert "lhs=|dC/dlambda|=nan" in out and "rhs=4*pi*sum|Q_i|sqrt(chiF_i)=inf" in out


class TestDualityGapThreshold:
    """The duality command diverges only where the model calls the gap closed."""

    def test_beside_the_self_dual_point_exits_0(self, capsys):
        assert main(["duality", "--set", "r=1.0000000000005"]) == 0
        assert "susceptibility:" in capsys.readouterr().out

    def test_on_the_self_dual_point_exits_3(self):
        assert main(["duality", "--set", "r=1"]) == 3

    @pytest.mark.parametrize("r", ["1e20", "1e-20", "1e78", "1e-300", "1e-12"])
    def test_beyond_the_ratio_domain_exits_3(self, r, capsys):
        # these printed a traceback and exited 1, the code of a failed verify; r = 1e-12,
        # below the complexity duality's range, printed a residual of 1.1e-5 and exited 0;
        # a check that fails after another passed left that one's line on stdout
        assert main(["duality", "--set", f"r={r}"]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert out == ""


def _model_choices(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a for a in sub.choices[command]._actions if a.dest == "model").choices)


class TestRegistryCLI:
    def test_model_choices_are_the_registry(self):
        hermitian = ("ssh", "massive-dirac", "dual-ssh", "cooper-pair-box")
        assert _model_choices("sweep") == tuple(MODELS)
        for command in ("winding", "bound", "ratio"):
            assert _model_choices(command) == hermitian

    def test_stray_reference_amplitude_on_hermitian_sweep_is_spec_error(self, capsys):
        assert main(["sweep", "--model", "ssh", "--set", "alpha=3",
                     "--sweep", "t2:1.5:2:2"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bound", "--model", "ssh", "--set", "t1=1", "--lam", "nan"],
        ["ratio", "--model", "ssh", "--lam", "inf"],
        ["bound", "--model", "ssh", "--lam", "2", "--theta", "nan"],
        ["ratio", "--model", "ssh", "--lam", "2", "--phi", "-inf"],
        ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3", "--theta", "inf"],
        ["nh-sweep", "--set", "t1=2", "--sweep", "t2:0.5:1:2", "--phi", "nan"],
        ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3", "--abs-tol", "0"],
        ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3", "--rel-tol", "-1"],
        ["bound", "--model", "ssh", "--lam", "2", "--abs-tol", "nan"],
        ["duality", "--rel-tol", "inf"],
    ])
    def test_bad_float_option_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("line", ["theta = nan", "phi = inf", "abs_tol = 0", "rel-tol = -1"])
    def test_bad_float_from_config_exits_2(self, line, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(f"model = ssh\nsweep = t2:0.5:1.5:3\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(conf)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bound", "--model", "dual-ssh", "--lam", "2.5", "--theta", "0.9", "--phi", "0.4"],
        ["bound", "--model", "cooper-pair-box", "--lam", "0.2", "--theta", "0.9", "--phi", "0.4"],
        ["ratio", "--model", "dual-ssh", "--set", "t=1.3", "--lam", "0.4"],
        ["ratio", "--model", "cooper-pair-box", "--lam", "0.2", "--theta", "0.9", "--phi", "0.4"],
        ["winding", "--model", "cooper-pair-box", "--set", "ng=0.2"],
    ])
    def test_point_commands_accept_every_hermitian_model(self, argv):
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["winding", "--model", "ssh", "--set", "t2=-2"],
        ["bound", "--model", "ssh", "--set", "t2=-2", "--lam", "-1.5"],
    ])
    def test_point_command_rejects_a_value_outside_the_domain(self, argv, capsys):
        # the sweep parameter's value comes from --lam, but --set builds the params
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_point_command_rejects_unknown_parameter(self, capsys):
        assert main(["bound", "--model", "ssh", "--set", "mu=1", "--lam", "2"]) == 2


class TestPlanarRowsOnTheCommandLine:
    def test_bound_beside_the_massive_dirac_closing_has_finite_sides(self, capsys):
        # the engine's budget ran out here: lhs=nan, rhs=inf, satisfied=True on an open gap
        code, out = _stdout(capsys, ["bound", "--model", "massive-dirac", "--lam", "1e-10",
                                     "--theta", "0.9"])
        assert code == 0
        lines = out.splitlines()
        lhs, rhs = (float(line.rsplit("=", 1)[1]) for line in lines[1:3])
        ratio = float(lines[3].split("ratio=")[1])
        assert math.isfinite(lhs) and math.isfinite(rhs) and 0.0 < lhs <= rhs
        assert "satisfied=True" in out and 0.0 < ratio <= 1.0

    @pytest.mark.parametrize("argv,lam,dc", [
        (["--model", "ssh", "--set", "t2=1.3", "--sweep",
          "t1:-1.3000000000010001:-1.2999999999989999:3"], -1.2999999999989999, None),
        (["--model", "massive-dirac", "--sweep", "mu:1e-12:1e-3:3"], 1e-12, 4.49725203472981)])
    def test_a_split_sweep_beside_a_closing_exits_0(self, argv, lam, dc, tmp_path, capsys,
                                                    calls):
        # the engine ran out of budget on the split's dC 1e-12 from the closing (exit 3); the
        # exact path takes every row, the closed one flagged, and dC at mu = 1e-12 is the
        # 30-digit value to 1e-14
        split = tmp_path / "split.txt"
        split.write_text(f"{-PI} 0 0.3 -0.5 0.8\n0 {PI} -0.6 0.2 0.1\n")
        code, out = _stdout(capsys, ["sweep", *argv, "--quantities", "complexity,dcomplexity",
                                     "--ref-piecewise", str(split)])
        assert code == 0 and calls["bz_averages"] == 0
        rows = {float(row[0]): row[1:] for row in csv.reader(out.splitlines()[1:])}
        assert len(rows) == 3 and all(math.isfinite(float(v)) for c, d, _ in rows.values()
                                      for v in (c, d))
        assert dc is None or float(rows[lam][1]) == pytest.approx(dc, rel=1e-14)

    def test_nh_sweep_help_names_only_the_lossy_quantities(self, capsys):
        with pytest.raises(SystemExit):
            main(["nh-sweep", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "comma list from: complexity,dcomplexity; the lossy chain takes a global " \
               "reference" in text
        assert not any(q in text for q in QUANTITIES if q not in ("complexity", "dcomplexity"))
