import dataclasses
import json
import os

import numpy as np
import pytest

from dynlie import LieBasis, dynamics, extend_basis
from dynlie.cli import build_parser, main
from dynlie.fileio import loads_report, pairs_to_matrix, matrix_to_pairs

from helpers import dense_terms

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

def write_two_spin_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"model": "two-spin"}\n')
    return str(path)


def write_schedule(tmp_path, segments):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"segments": segments}))
    return str(path)


def run(args):
    return main(args)


class TestDecompose:
    def test_two_spin_report(self, tmp_path, capsys):
        spec = write_two_spin_spec(tmp_path)
        out = tmp_path / "report.json"
        code = run(["decompose", spec, "--pivot", "1,0,0",
                    "--out", str(out)])
        assert code == 0
        doc = loads_report(out.read_text())
        assert doc["status"] == "ok"
        assert doc["algebra_dim"] == 6
        assert doc["controllability"] == "uncontrollable"
        assert doc["radical_dim"] == 0
        assert doc["cartan_dim"] == 2
        assert doc["splitting"]["coefficients"] == [1.0, 2.0]
        np.testing.assert_allclose(doc["splitting"]["frequencies"],
                                   [3.0, 1.0], atol=1e-10)
        comps = doc["components"]
        assert [c["kind"] for c in comps] == ["simple", "simple"]
        assert [c["dim"] for c in comps] == [3, 3]
        assert [c["su2"] for c in comps] == [True, True]

    def test_stdout_when_no_out_flag(self, tmp_path, capsys):
        spec = write_two_spin_spec(tmp_path)
        assert run(["decompose", spec, "--pivot", "1,0,0"]) == 0
        doc = loads_report(capsys.readouterr().out)
        assert doc["algebra_dim"] == 6

    def test_deterministic_bytes(self, tmp_path):
        spec = write_two_spin_spec(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["decompose", spec, "--pivot", "1,0,0",
                    "--out", str(out1)]) == 0
        assert run(["decompose", spec, "--pivot", "1,0,0",
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_drift_only_system(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 2,
            "drift": matrix_to_pairs(np.array([[0, 0.5], [0.5, 0]])),
            "controls": [],
        }))
        out = tmp_path / "report.json"
        assert run(["decompose", str(spec), "--out", str(out)]) == 0
        doc = loads_report(out.read_text())
        assert doc["algebra_dim"] == 1
        assert doc["radical_dim"] == 1
        assert doc["semisimple_dim"] == 0
        assert doc["splitting"] is None
        assert doc["components"] == [
            {"kind": "radical-line", "dim": 1, "su2": False}]

    def test_su2_spec_controllable(self, tmp_path):
        spec = tmp_path / "spec.json"
        sx = np.array([[0, 0.5], [0.5, 0]])
        sy = np.array([[0, 0.5j], [-0.5j, 0]])
        spec.write_text(json.dumps({
            "dim": 2,
            "drift": matrix_to_pairs(sx),
            "controls": [matrix_to_pairs(sy)],
        }))
        out = tmp_path / "report.json"
        assert run(["decompose", str(spec), "--out", str(out)]) == 0
        doc = loads_report(out.read_text())
        assert doc["algebra_dim"] == 3
        assert doc["controllability"] == "controllable-SU"

    def test_u2_spec_controllable(self, tmp_path):
        spec = tmp_path / "spec.json"
        sx = np.array([[0, 0.5], [0.5, 0]])
        sy = np.array([[0, 0.5j], [-0.5j, 0]])
        spec.write_text(json.dumps({
            "dim": 2,
            "drift": matrix_to_pairs(np.eye(2)),
            "controls": [matrix_to_pairs(sx), matrix_to_pairs(sy)],
        }))
        out = tmp_path / "report.json"
        assert run(["decompose", str(spec), "--out", str(out)]) == 0
        doc = loads_report(out.read_text())
        assert doc["algebra_dim"] == 4
        assert doc["controllability"] == "controllable-U"

    def test_splitting_coeffs_flag(self, tmp_path):
        spec = write_two_spin_spec(tmp_path)
        out = tmp_path / "report.json"
        assert run(["decompose", spec, "--pivot", "1,0,0",
                    "--splitting-coeffs", "1,2",
                    "--out", str(out)]) == 0
        doc = loads_report(out.read_text())
        assert doc["splitting"]["coefficients"] == [1.0, 2.0]

    def test_degenerate_splitting_coeffs_fail(self, tmp_path, capsys):
        spec = write_two_spin_spec(tmp_path)
        code = run(["decompose", spec, "--pivot", "1,0,0",
                    "--splitting-coeffs", "1,1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "primary" in err

    def test_pivot_outside_semisimple_part(self, tmp_path, capsys):
        # The identity drift sits in the radical, so pinning the pivot to
        # it is a spec error, not a numerical failure.
        spec = tmp_path / "spec.json"
        sx = np.array([[0, 0.5], [0.5, 0]])
        sy = np.array([[0, 0.5j], [-0.5j, 0]])
        spec.write_text(json.dumps({
            "dim": 2,
            "drift": matrix_to_pairs(np.eye(2)),
            "controls": [matrix_to_pairs(sx), matrix_to_pairs(sy)],
        }))
        code = run(["decompose", str(spec), "--pivot", "1,0,0"])
        assert code == 2

    def test_pivot_wrong_arity(self, tmp_path, capsys):
        spec = write_two_spin_spec(tmp_path)
        assert run(["decompose", spec, "--pivot", "1,0"]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["decompose", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert run(["decompose", str(spec)]) == 2

    def test_unknown_model(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"model": "three-spin"}')
        assert run(["decompose", str(spec)]) == 2

    def test_non_hermitian_drift(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 2,
            "drift": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            "controls": [],
        }))
        assert run(["decompose", str(spec)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("drift", [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]),
        ("labels", "ab"),
        # Its squared norm overflows; this used to report the empty
        # algebra with status "ok".
        ("drift", matrix_to_pairs(np.diag([1e200, 0.0]))),
        # These containers used to end in a TypeError traceback.
        ("controls", 5),
        ("controls", None),
        ("model", ["two-spin"]),
    ], ids=["boolean-entries", "string-labels", "norm-overflows",
            "number-controls", "null-controls", "list-model"])
    def test_malformed_spec_field(self, tmp_path, capsys, field, value):
        doc = {"dim": 2, "drift": matrix_to_pairs(np.eye(2)),
               "controls": [matrix_to_pairs(np.diag([1.0, -1.0]))] * 2}
        doc[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run(["decompose", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_overlapping_components_exit_3(self, tmp_path, capsys,
                                           monkeypatch):
        # An ideal that overlaps a radical line cannot join the adapted
        # basis; assembling it used to raise a bare ValueError and end in
        # a traceback.
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        sy = np.array([[0, -0.5j], [0.5j, 0]])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 2, "drift": matrix_to_pairs(sx),
            "controls": [matrix_to_pairs(sy), matrix_to_pairs(np.eye(2))]}))
        real = dynamics.simple_decompose

        def overlapping(semisimple, c, primary, tol):
            found = real(semisimple, c, primary, tol)
            ideal = extend_basis(LieBasis(2, found.ideals[0].mats[:2]),
                                 [1j * np.eye(2)])
            return dataclasses.replace(found, ideals=(ideal,))

        monkeypatch.setattr(dynamics, "simple_decompose", overlapping)
        assert run(["decompose", str(spec)]) == 3
        assert "stage 'assembly'" in capsys.readouterr().err

    def test_dense_u6_draw(self, tmp_path, capsys):
        # The minimal-ideal sweep made this draw's ideal overlap the
        # radical line (exit 3, stage 'assembly').
        drift, ctrl = dense_terms([7, 6, 1], 6)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 6, "drift": matrix_to_pairs(drift),
            "controls": [matrix_to_pairs(ctrl)]}))
        assert run(["decompose", str(spec)]) == 0
        doc = loads_report(capsys.readouterr().out)
        assert [c["dim"] for c in doc["components"]] == [35, 1]

    def test_su2_flags_at_run_tolerance(self, tmp_path, capsys):
        # With the 1e-7 drift term, the ideals found at --tol-rank 1e-6 are
        # bracket-closed only to 7e-8.  Their su(2) flags used to be
        # re-derived by re-bracketing at 1e-8, which exited 3.
        sx, sy, sz = (np.array(m) for m in ([[0, 1], [1, 0]],
                                            [[0, -1j], [1j, 0]],
                                            [[1, 0], [0, -1]]))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 4,
            "drift": matrix_to_pairs(np.kron(sx + 1e-7 * sz, np.eye(2))),
            "controls": [matrix_to_pairs(np.kron(sz, sz)),
                         matrix_to_pairs(np.kron(sy, sy))]}))
        assert run(["decompose", str(spec), "--tol-rank", "1e-6"]) == 0
        doc = loads_report(capsys.readouterr().out)
        assert doc["algebra_dim"] == 6
        assert doc["components"] == [
            {"kind": "simple", "dim": 3, "su2": True}] * 2

    def test_matches_reference_report(self, tmp_path):
        # Written by the minimal-ideal code; the ideals from linked root
        # planes may differ from it only in rounding.
        spec = write_two_spin_spec(tmp_path)
        out = tmp_path / "report.json"
        assert run(["decompose", spec, "--out", str(out)]) == 0
        with open(os.path.join(DATA, "two_spin_decompose.json")) as fh:
            want = loads_report(fh.read())
        assert_same_report(loads_report(out.read_text()), want, 1e-12)

    @pytest.mark.parametrize("defect, code", [(1e-9, 0), (1e-7, 2)])
    def test_spec_hermitian_tolerance(self, tmp_path, defect, code):
        # Spec files are held to 1e-8, looser than ControlSystem's 1e-10.
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        sy = np.array([[0, 0.5j], [-0.5j, 0]])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 2,
            "drift": matrix_to_pairs(sx + defect * np.array([[0, 1], [0, 0]])),
            "controls": [matrix_to_pairs(sy)],
        }))
        assert run(["decompose", str(spec)]) == code


class TestSimulate:
    def test_two_segment_run(self, tmp_path):
        spec = write_two_spin_spec(tmp_path)
        sched = write_schedule(tmp_path, [
            {"duration": 0.5, "u": [1.0, 0.0]},
            {"duration": 1.0, "u": [0.2, -0.7]},
        ])
        out = tmp_path / "prop.json"
        code = run(["simulate", spec, sched, "--pivot", "1,0,0",
                    "--out", str(out)])
        assert code == 0
        doc = loads_report(out.read_text())
        assert doc["final_time"] == pytest.approx(1.5)
        assert doc["factorization_error"] <= 1e-8
        assert doc["commutation_residual"] <= 1e-8
        assert doc["unitarity_residual"] <= 1e-10
        total = pairs_to_matrix(doc["total"])
        assert total.shape == (4, 4)
        factors = [pairs_to_matrix(f["matrix"]) for f in doc["factors"]]
        product = np.eye(4, dtype=complex)
        for f in factors:
            product = product @ f
        np.testing.assert_allclose(product, total, atol=1e-8)

    def test_empty_schedule(self, tmp_path):
        spec = write_two_spin_spec(tmp_path)
        sched = write_schedule(tmp_path, [])
        out = tmp_path / "prop.json"
        assert run(["simulate", spec, sched, "--pivot", "1,0,0",
                    "--out", str(out)]) == 0
        doc = loads_report(out.read_text())
        assert doc["final_time"] == 0.0
        np.testing.assert_allclose(pairs_to_matrix(doc["total"]),
                                   np.eye(4), atol=0)

    def test_dense_u3_draw(self, tmp_path):
        # This draw's closure basis used to leave u(3) by 1e-9, and the
        # ValueError from expm_skew escaped as a traceback.
        drift, ctrl = dense_terms([7, 3, 793], 3)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 3, "drift": matrix_to_pairs(drift),
            "controls": [matrix_to_pairs(ctrl)]}))
        sched = write_schedule(tmp_path, [
            {"duration": 0.5, "u": [1.0]}, {"duration": 1.0, "u": [-0.7]}])
        out = tmp_path / "prop.json"
        assert run(["simulate", str(spec), sched, "--out", str(out)]) == 0
        doc = loads_report(out.read_text())
        assert doc["factorization_error"] <= 1e-8
        assert [f["kind"] for f in doc["factors"]] == ["simple",
                                                        "radical-line"]

    def test_wrong_control_arity(self, tmp_path):
        spec = write_two_spin_spec(tmp_path)
        sched = write_schedule(tmp_path, [
            {"duration": 0.5, "u": [1.0, 0.0, 3.0]}])
        assert run(["simulate", spec, sched]) == 2

    def test_negative_duration(self, tmp_path):
        spec = write_two_spin_spec(tmp_path)
        sched = write_schedule(tmp_path, [
            {"duration": -0.5, "u": [1.0, 0.0]}])
        assert run(["simulate", spec, sched]) == 2

    @pytest.mark.parametrize("doc", ['{"segments": 5}',
                                     '{"segments": null}'])
    def test_malformed_schedule_container(self, tmp_path, capsys, doc):
        # These used to end in a TypeError traceback.
        spec = write_two_spin_spec(tmp_path)
        sched = tmp_path / "schedule.json"
        sched.write_text(doc)
        assert run(["simulate", spec, str(sched)]) == 2
        assert "'segments' list" in capsys.readouterr().err

    @pytest.mark.parametrize("segment", [
        '{"duration": 1e400, "u": [1.0, 0.0]}',
        '{"duration": NaN, "u": [1.0, 0.0]}',
        '{"duration": 0.5, "u": [1e400, 0.0]}',
        '{"duration": 0.5, "u": [1.0, NaN]}',
        '{"duration": 1e300, "u": [1e10, 2]}'])
    def test_non_finite_schedule_values(self, tmp_path, capsys, segment):
        # An infinite duration, or finite values whose product overflows,
        # used to end in a NaN propagator and a traceback from the report
        # writer.
        spec = write_two_spin_spec(tmp_path)
        sched = tmp_path / "schedule.json"
        sched.write_text('{"segments": [' + segment + "]}")
        assert run(["simulate", spec, str(sched)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_matches_reference_report(self, tmp_path):
        # The reference was written by the one-segment-at-a-time
        # propagation; the chunked one may differ only in rounding.
        spec = write_two_spin_spec(tmp_path)
        out = tmp_path / "prop.json"
        assert run(["simulate", spec,
                    os.path.join(DATA, "two_spin_schedule_40seg.json"),
                    "--out", str(out)]) == 0
        with open(os.path.join(DATA, "two_spin_simulate_40seg.json")) as fh:
            want = loads_report(fh.read())
        assert_same_report(loads_report(out.read_text()), want, 1e-12)


def assert_same_report(got, want, atol, path="report"):
    """Equal structure and non-numeric fields; numbers within ``atol``.

    Reports print whole floats without a point, so JSON reads some of
    them back as ints: numbers are compared by value, whatever their type.
    """
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_same_report(got[key], want[key], atol, f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, atol, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert abs(got - want) <= atol, f"{path}: {got} vs {want}"
    else:
        assert got == want, path


class TestDemo:
    def test_demo_stdout_report(self, capsys):
        assert run(["demo", "two-spin", "--pivot", "1,0,0"]) == 0
        doc = loads_report(capsys.readouterr().out)
        assert doc["algebra_dim"] == 6
        assert doc["status"] == "ok"

    def test_demo_with_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["demo", "two-spin", "--pivot", "1,0,0",
                    "--out", str(out)]) == 0
        assert loads_report(out.read_text())["algebra_dim"] == 6
        # A short human summary lands on stdout instead of the report.
        summary = capsys.readouterr().out
        assert summary.strip()
        assert str(out) in summary

    def test_nearly_equal_splitting_coeffs(self, capsys):
        assert run(["demo", "two-spin", "--splitting-coeffs", "1,1.0001"]) == 0
        doc = loads_report(capsys.readouterr().out)
        assert doc["splitting"]["coefficients"] == [1.0, 1.0001]

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run(["demo", "three-spin"])


class TestFlagValues:
    @pytest.mark.parametrize("flags", [
        ["--pivot", "0,0,0"],
        ["--pivot", "nan,0,0"],
        ["--pivot", "1,inf,0"],
        ["--splitting-coeffs", "1"],
        ["--splitting-coeffs", "1,2,3"],
        ["--splitting-coeffs", "nan,1"],
        ["--splitting-coeffs", "inf,1"],
        ["--tol-rank", "-1"],
        ["--tol-rank", "0"],
        ["--tol-rank", "nan"],
        ["--tol-rank", "inf"],
        ["--tol-rank", "1e300"],
        ["--tol-rank", "1"],
        ["--tol-eig=-1e-6"],
        ["--tol-eig", "nan"],
        ["--tol-eig", "1"],
        ["--splitting-coeffs", "1e308,1e308"],
    ])
    def test_bad_value_exits_2(self, capsys, flags):
        # A flag value the analysis cannot use is an input error: a
        # message and exit 2, never a traceback or a report built on it.
        assert main(["demo", "two-spin", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "error:" in captured.err

    def test_tiny_pivot_is_not_zero(self, capsys):
        # The pivot's zero test is relative: a rescaled pivot names the
        # same element and gives the same report.
        docs = []
        for pivot in ("1,0,0", "1e-9,0,0"):
            assert run(["demo", "two-spin", "--pivot", pivot]) == 0
            docs.append(loads_report(capsys.readouterr().out))
        assert_same_report(docs[1], docs[0], 1e-12)


class TestParser:
    def test_no_command_is_error(self, capsys):
        with pytest.raises(SystemExit):
            run([])

    def test_version_like_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--help"])
        assert info.value.code == 0

    def test_parser_built_once_gives_fresh_results(self, tmp_path, capsys):
        spec = write_two_spin_spec(tmp_path)
        sched = write_schedule(tmp_path, [{"duration": 0.4, "u": [1.0, -0.5]}])
        calls = [["decompose", spec], ["simulate", spec, sched],
                 ["decompose", spec, "--tol-rank", "abc"]]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [outcome(argv) for argv in calls]
        assert build_parser() is build_parser()
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2]
        assert "invalid float value: 'abc'" in shared[2][2]
