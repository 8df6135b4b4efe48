import dataclasses
import json

import numpy as np
import pytest

from dynlie import analyze_system, two_spin_system, ControlSchedule, propagate
from dynlie.linalg import TOL_RESIDUAL
from dynlie.fileio import (
    SpecError,
    build_propagation_report,
    build_structure_report,
    dumps_report,
    load_schedule,
    load_system_spec,
    loads_report,
    matrix_to_pairs,
    pairs_to_matrix,
    system_from_doc,
)

from helpers import two_pass_emit


@pytest.fixture(scope="module")
def two_spin_analysis():
    sys = two_spin_system()
    return sys, analyze_system(sys, pivots=[1j * sys.drift])


class TestCanonicalJson:
    def test_round_trip_is_byte_identical(self, two_spin_analysis):
        _, analysis = two_spin_analysis
        text = dumps_report(build_structure_report(analysis))
        assert dumps_report(loads_report(text)) == text

    def test_deterministic_output(self, two_spin_analysis):
        _, analysis = two_spin_analysis
        a = dumps_report(build_structure_report(analysis))
        b = dumps_report(build_structure_report(analysis))
        assert a == b

    def test_parses_as_plain_json(self, two_spin_analysis):
        _, analysis = two_spin_analysis
        text = dumps_report(build_structure_report(analysis))
        assert json.loads(text)["format"] == "dynlie-structure-report"

    def test_float_formatting_survives(self):
        doc = {"x": 0.1, "y": 1.0 / 3.0, "z": [1e-300, 2.0 ** 53]}
        text = dumps_report(doc)
        back = loads_report(text)
        assert back["x"] == 0.1
        assert back["y"] == 1.0 / 3.0
        assert back["z"] == [1e-300, 2.0 ** 53]

    def test_negative_zero_round_trips(self):
        # "-0" would read back as the integer 0 and print as "0".
        doc = {"x": -0.0, "m": [[-0.0, 1.5], [0.0, -0.0]]}
        text = dumps_report(doc)
        assert dumps_report(loads_report(text)) == text

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_report({"x": float("nan")})

    def test_trailing_newline(self):
        assert dumps_report({"a": 1}).endswith("\n")

    def test_same_bytes_as_the_two_pass_writer(self):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings, strategies as st

        scalars = (st.none() | st.booleans() | st.text(max_size=12)
                   | st.integers(-10 ** 20, 10 ** 20)
                   | st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from([-0.0, 0.0, np.float64(-0.0),
                                      np.int64(-7)]))
        # Lists of 30 to 36 small integers print inline at 90 to 144
        # characters, so they fall on both sides of the 100-character cut.
        near_cut = st.lists(st.integers(0, 99), min_size=30, max_size=36)
        docs = st.recursive(
            scalars | near_cut,
            lambda kids: (st.lists(kids, max_size=6)
                          | st.lists(kids, max_size=4).map(tuple)
                          | st.dictionaries(st.text(max_size=6), kids,
                                            max_size=4)),
            max_leaves=30)

        @settings(derandomize=True, max_examples=50, deadline=None)
        @given(doc=docs)
        # Inline lengths 99, 100 and 101, alone and nested one level down.
        @example(doc=[1] * 33)
        @example(doc=[1] * 32 + [10])
        @example(doc=[1] * 31 + [10, 10])
        @example(doc={"a": [[1] * 32 + [10], [1] * 31 + [10, 10]]})
        @example(doc=[[-0.0, 1.5], {"k": [None, True, False, "s"]}, []])
        def check(doc):
            assert dumps_report(doc) == two_pass_emit(doc, 0) + "\n"

        check()


class TestMatrixEncoding:
    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pairs = matrix_to_pairs(m)
        back = pairs_to_matrix(pairs)
        np.testing.assert_allclose(back, m, atol=0)

    def test_rejects_ragged(self):
        with pytest.raises(SpecError):
            pairs_to_matrix([[[1, 0]], [[1, 0], [0, 0]]])

    def test_rejects_non_pairs(self):
        with pytest.raises(SpecError):
            pairs_to_matrix([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("entry", [True, False, "1.5"])
    def test_rejects_non_number_entries(self, entry):
        # np.asarray(obj, dtype=float) read true as 1.0 and "1.5" as 1.5.
        pairs = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [entry, 0.0]]]
        with pytest.raises(SpecError, match="must be a number"):
            pairs_to_matrix(pairs, "drift")


class TestSystemSpec:
    def test_model_reference(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"model": "two-spin"}')
        sys = load_system_spec(path)
        assert sys.dim == 4
        assert sys.labels == ("u1", "u2")

    def test_explicit_matrices(self):
        doc = {
            "dim": 2,
            "drift": matrix_to_pairs(np.array([[0, 0.5], [0.5, 0]])),
            "controls": [matrix_to_pairs(np.array([[0.5, 0], [0, -0.5]]))],
            "labels": ["w"],
        }
        sys = system_from_doc(doc)
        assert sys.dim == 2
        assert sys.labels == ("w",)

    @pytest.mark.parametrize("labels", ["ab", ["a", 2], ("a", "b")])
    def test_labels_must_be_a_list_of_strings(self, labels):
        # The string "ab" used to be iterated into the labels ('a', 'b').
        doc = {"dim": 2, "drift": matrix_to_pairs(np.eye(2)),
               "controls": [matrix_to_pairs(np.eye(2))] * 2,
               "labels": labels}
        with pytest.raises(SpecError, match="labels"):
            system_from_doc(doc)

    def test_unknown_model_rejected(self):
        with pytest.raises(SpecError):
            system_from_doc({"model": "three-spin"})

    def test_non_hermitian_rejected(self):
        doc = {
            "dim": 2,
            "drift": matrix_to_pairs(np.array([[0, 1], [0, 0]],
                                              dtype=complex)),
            "controls": [],
        }
        with pytest.raises(SpecError):
            system_from_doc(doc)

    def test_dim_mismatch_rejected(self):
        doc = {
            "dim": 3,
            "drift": matrix_to_pairs(np.eye(2)),
            "controls": [],
        }
        with pytest.raises(SpecError):
            system_from_doc(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(SpecError):
            system_from_doc({"dim": 2})

    @pytest.mark.parametrize("dim", [2.7, "2", True, float("nan")])
    def test_non_integer_dim_rejected(self, dim):
        # 2.7 used to be truncated to 2, and "2" and True read as numbers.
        doc = {"dim": dim, "drift": matrix_to_pairs(np.eye(2)),
               "controls": []}
        with pytest.raises(SpecError, match="dim"):
            system_from_doc(doc)

    def test_integral_float_dim_accepted(self):
        doc = {"dim": 2.0, "drift": matrix_to_pairs(np.eye(2)),
               "controls": []}
        assert system_from_doc(doc).dim == 2


class TestScheduleSpec:
    def test_load(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({
            "segments": [
                {"duration": 0.5, "u": [1.0, 0.0]},
                {"duration": 1.0, "u": [0.0, -1.0]},
            ]
        }))
        sched = load_schedule(path, 2)
        assert isinstance(sched, ControlSchedule)
        assert sched.total_time == pytest.approx(1.5)

    def test_empty_segments(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text('{"segments": []}')
        assert load_schedule(path, 2).total_time == 0.0

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(
            {"segments": [{"duration": 0.5, "u": [1.0]}]}))
        with pytest.raises(SpecError):
            load_schedule(path, 2)

    def test_nonpositive_duration_rejected(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(
            {"segments": [{"duration": 0.0, "u": [1.0, 2.0]}]}))
        with pytest.raises(SpecError):
            load_schedule(path, 2)

    @pytest.mark.parametrize("segment", [
        {"duration": 0.5, "u": "12"},
        {"duration": 0.5, "u": [True, False]},
        {"duration": "0.25", "u": [1.0, 2.0]},
        {"duration": 0.5, "u": [1.0, None]},
        {"duration": 10 ** 400, "u": [1.0, 2.0]}],
        ids=["u-string", "u-bools", "duration-string", "u-null",
             "duration-huge-int"])
    def test_non_numbers_rejected(self, tmp_path, segment):
        # A string "u" used to be read character by character, "12" as
        # [1.0, 2.0], and bools and numeric strings as numbers.
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"segments": [segment]}))
        with pytest.raises(SpecError, match="segment 0"):
            load_schedule(path, 2)


class TestStructureReport:
    def test_two_spin_contents(self, two_spin_analysis):
        _, analysis = two_spin_analysis
        doc = build_structure_report(analysis)
        assert doc["format"] == "dynlie-structure-report"
        assert doc["status"] == "ok"
        assert doc["algebra_dim"] == 6
        assert doc["closure_depth"] == 2
        assert doc["controllability"] == "uncontrollable"
        assert doc["radical_dim"] == 0
        assert doc["semisimple_dim"] == 6
        assert doc["cartan_dim"] == 2
        np.testing.assert_allclose(doc["splitting"]["coefficients"],
                                   [1.0, 2.0])
        np.testing.assert_allclose(doc["splitting"]["frequencies"],
                                   [3.0, 1.0], atol=1e-10)
        assert [c["kind"] for c in doc["components"]] == ["simple", "simple"]
        assert [c["dim"] for c in doc["components"]] == [3, 3]
        assert all(c["su2"] for c in doc["components"])
        assert all(v <= 1e-8 for v in doc["residuals"].values())

    def test_status_reads_the_residual_gate(self, two_spin_analysis):
        # "ok" up to TOL_RESIDUAL inclusive, the bound the stages gate at.
        _, analysis = two_spin_analysis

        def status(residual):
            levi = dataclasses.replace(analysis.levi,
                                       commutation_residual=residual)
            return build_structure_report(
                dataclasses.replace(analysis, levi=levi))["status"]

        assert status(TOL_RESIDUAL) == "ok"
        assert status(np.nextafter(TOL_RESIDUAL, 1.0)) == "degraded"

    def test_key_order_stable(self, two_spin_analysis):
        _, analysis = two_spin_analysis
        doc = build_structure_report(analysis)
        keys = list(doc.keys())
        assert keys.index("format") == 0
        assert keys.index("version") == 1
        assert keys.index("status") < keys.index("system")
        assert keys == sorted(keys, key=keys.index)


class TestPropagationReport:
    def test_contents(self, two_spin_analysis):
        sys, analysis = two_spin_analysis
        sched = ControlSchedule(((0.4, (1.0, -0.5)), (0.6, (0.2, 0.2))))
        result = propagate(analysis.decomposition, sys, sched)
        doc = build_propagation_report(analysis.decomposition, result)
        assert doc["format"] == "dynlie-propagation-report"
        assert doc["final_time"] == pytest.approx(1.0)
        assert doc["factorization_error"] <= 1e-8
        assert doc["commutation_residual"] <= 1e-8
        assert doc["unitarity_residual"] <= 1e-10
        total = pairs_to_matrix(doc["total"])
        np.testing.assert_allclose(total, result.total, atol=0)
        assert len(doc["factors"]) == 2
        for entry in doc["factors"]:
            assert entry["kind"] == "simple"
            assert entry["dim"] == 3
            mat = pairs_to_matrix(entry["matrix"])
            np.testing.assert_allclose(mat.conj().T @ mat, np.eye(4),
                                       atol=1e-10)
