import importlib.util
import json
import math
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "corpus_diff", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "corpus_diff.py")
)
corpus_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus_diff)


def _write(directory, name, text):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(text, encoding="utf-8")


def _compare(a, b):
    return corpus_diff.compare_artifacts(str(a), str(b))


NOTHING = {"largest": 0.0, "one_sided": 0, "sign_of_zero": 0, "text": 0}


class TestMaxNumericDifference:
    def test_pairs_numbers_by_key_path_and_by_cell(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, "run.json", json.dumps({"r": [1.0, 2.5e-10], "pass": True, "n": 3, "name": "x"}))
        _write(b, "run.json", json.dumps({"r": [1.0, 2.5e-10 + 3e-15], "pass": False, "n": 3, "name": "y"}))
        _write(a, "run.csv", "component,residual\nmass,1e-12\nmomentum,-4e-11\n")
        _write(b, "run.csv", "component,residual\nmass,1e-12\nmomentum,-4.0000001e-11\n")
        found = _compare(a, b)
        assert found["largest"] == pytest.approx(abs(-4e-11 - -4.0000001e-11), rel=1e-6)
        assert (found["one_sided"], found["sign_of_zero"], found["text"]) == (0, 0, 2)
        assert _compare(a, a) == NOTHING

    def test_other_files_and_missing_directories_give_zero(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, "run.txt", "1.0")
        _write(b, "run.txt", "2.0")
        assert _compare(a, b) == NOTHING
        assert _compare(a, tmp_path / "none") == NOTHING

    def test_nan_against_a_number_is_infinite(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        _write(a, "run.csv", "x\nnan\n")
        _write(b, "run.csv", "x\nnan\n")
        _write(c, "run.csv", "x\n1.0\n")
        assert _compare(a, b)["largest"] == 0.0
        assert _compare(a, c)["largest"] == math.inf


class TestPlaceCounts:
    def test_sign_of_zero_in_json_and_csv(self, tmp_path):
        # The emitted JSON writes -0.0 as the integer-looking "-0".
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, "rh_solve.json", '{"residuals": {"entropy_var": -0, "mass": 0}}')
        _write(b, "rh_solve.json", '{"residuals": {"entropy_var": 0, "mass": 0}}')
        _write(a, "rh_solve.csv", "quantity,value\nentropy_var,-0\n")
        _write(b, "rh_solve.csv", "quantity,value\nentropy_var,0\n")
        assert _compare(a, b) == {**NOTHING, "sign_of_zero": 2}

    def test_added_key_row_and_file_are_one_sided(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, "run.json", json.dumps({"mass": 0.0}))
        _write(b, "run.json", json.dumps({"mass": 0.0, "entropy": 1.0, "label": "s"}))
        _write(a, "run.csv", "quantity,value\nmass,0\n")
        _write(b, "run.csv", "quantity,value\nmass,0\nentropy,1\n")
        _write(b, "extra.csv", "x\n2\n")
        # b's new numbers: one JSON key, one CSV cell, one cell of a file a lacks.
        assert _compare(a, b) == {**NOTHING, "one_sided": 3, "text": 3}
        assert _compare(b, a) == {**NOTHING, "one_sided": 3, "text": 3}

    def test_number_turned_text_is_a_text_place(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, "run.json", json.dumps({"v": 1.0}))
        _write(b, "run.json", json.dumps({"v": None}))
        assert _compare(a, b) == {**NOTHING, "text": 1}
