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


class TestMaxNumericDifference:
    def test_pairs_numbers_by_key_path_and_by_cell(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, "run.json", json.dumps({"r": [1.0, 2.5e-10], "pass": True, "n": 3, "name": "x"}))
        _write(b, "run.json", json.dumps({"r": [1.0, 2.5e-10 + 3e-15], "pass": False, "n": 3, "name": "y"}))
        _write(a, "run.csv", "component,residual\nmass,1e-12\nmomentum,-4e-11\n")
        _write(b, "run.csv", "component,residual\nmass,1e-12\nmomentum,-4.0000001e-11\n")
        delta = corpus_diff.max_numeric_difference(str(a), str(b))
        assert delta == pytest.approx(abs(-4e-11 - -4.0000001e-11), rel=1e-6)
        assert corpus_diff.max_numeric_difference(str(a), str(a)) == 0.0

    def test_other_files_and_missing_directories_give_zero(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, "run.txt", "1.0")
        _write(b, "run.txt", "2.0")
        assert corpus_diff.max_numeric_difference(str(a), str(b)) == 0.0
        assert corpus_diff.max_numeric_difference(str(a), str(tmp_path / "none")) == 0.0

    def test_nan_against_a_number_is_infinite(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        _write(a, "run.csv", "x\nnan\n")
        _write(b, "run.csv", "x\nnan\n")
        _write(c, "run.csv", "x\n1.0\n")
        assert corpus_diff.max_numeric_difference(str(a), str(b)) == 0.0
        assert corpus_diff.max_numeric_difference(str(a), str(c)) == math.inf
