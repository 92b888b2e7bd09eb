import ctypes
import json
import math
import os
import shutil
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import oracles
import shockaudit
from shockaudit import cli
from shockaudit.cli import main
from shockaudit.config import (
    dumps_deterministic,
    format_float,
    jump_from_dict,
    jump_to_dict,
    model_from_dict,
    model_to_dict,
    solution_from_dict,
    solution_to_dict,
    validate_config,
)
from shockaudit.eos import FluidState, GasModel
from shockaudit.errors import ConfigError
from shockaudit.fv_solver import Grid1D, ShockTrack, Snapshots, cell_primitives, field_from_solution, simulate
from shockaudit.rh import ShockJump, hugoniot_solve
from shockaudit.shock1d import stationary_shock_example
from shockaudit.weakcheck import SpacetimeQuadrature, standard_battery, weak_residuals


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_summary(tmp_path, stem):
    with open(os.path.join(tmp_path, "out", f"{stem}.json")) as fh:
        return json.load(fh)


class TestShockExample:
    def test_reference_numbers(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path / "out"), "shock-example", "--gamma", "2"])
        assert code == 0
        summary = read_summary(tmp_path, "shock_example")
        assert summary["K"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert summary["v_s"] == 0.0
        assert summary["dEdt"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert summary["gap"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        printed = capsys.readouterr().out
        assert json.loads(printed)["K"] == summary["K"]

    def test_csv_summary_columns(self, tmp_path):
        main(["--out-dir", str(tmp_path / "out"), "shock-example", "--gamma", "2"])
        lines = (tmp_path / "out" / "shock_example.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        quantities = [line.split(",")[0] for line in lines[1:]]
        assert quantities[:5] == ["K", "v_s", "dEdt", "length_rate", "gap"]

    def test_determinism(self, tmp_path):
        main(["--out-dir", str(tmp_path / "a"), "shock-example", "--gamma", "1.4"])
        main(["--out-dir", str(tmp_path / "b"), "shock-example", "--gamma", "1.4"])
        a = (tmp_path / "a" / "shock_example.json").read_bytes()
        b = (tmp_path / "b" / "shock_example.json").read_bytes()
        assert a == b


class TestRhSolve:
    def test_reference_completion(self, tmp_path):
        code = main(
            [
                "--out-dir",
                str(tmp_path / "out"),
                "rh-solve",
                "--kind",
                "barotropic_polytropic",
                "--gamma",
                "2",
                "--K",
                str(2.0 / 3.0),
                "--left",
                "1,2",
                "--rho-right",
                "2",
            ]
        )
        assert code == 0
        summary = read_summary(tmp_path, "rh_solve")
        assert summary["u_right"] == pytest.approx(1.0, abs=1e-12)
        assert summary["v_s"] == pytest.approx(0.0, abs=1e-12)

    def test_jump_audit_mode(self, tmp_path):
        cfg = {
            "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
            "task": {
                "name": "rh-solve",
                "jump": {"left": {"rho": 1.0, "u": 2.0}, "right": {"rho": 2.0, "u": 1.0}, "v_s": 0.0},
            },
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        summary = read_summary(tmp_path, "rh_solve")
        assert abs(summary["residuals"]["mass"]) < 1e-12

    def test_numerical_failure_status(self, tmp_path):
        code = main(
            [
                "--out-dir",
                str(tmp_path / "out"),
                "rh-solve",
                "--kind",
                "ideal_gas_entropy",
                "--gamma",
                "1.4",
                "--left",
                f"1,0,{math.log(2.5)}",
                "--rho-right",
                "6.5",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("rho_right", ["6", str(1.0 / 6.0)])
    def test_limiting_density_ratio_has_no_shock(self, tmp_path, capsys, rho_right):
        # (gamma + 1) / (gamma - 1) = 6 at gamma = 1.4, compression or expansion.
        argv = [
            "--out-dir", str(tmp_path / "out"), "rh-solve", "--kind", "ideal_gas_entropy",
            "--gamma", "1.4", "--left", "1,0,0", "--rho-right", rho_right,
        ]
        assert main(argv) == 4
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "numerical"
        assert not (tmp_path / "out").exists()

    def test_overflow_is_numerical_error(self, tmp_path, capsys):
        # u**2 overflows a double inside the admissibility check.
        argv = ["--out-dir", str(tmp_path / "out"), "rh-solve", "--left", "1,1e200", "--rho-right", "2"]
        assert main(argv) == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "numerical"
        assert "overflow" in record["error"]["message"]

    @pytest.mark.parametrize("mode,message", [
        # On this left state the entropy inversion's (gamma - 1) e_ref rho**gamma is 0.
        ("config", "(gamma - 1) e_ref rho**gamma underflows to 0 at rho=2.346"),
        # On (1, 0, 0) the left pressure (gamma - 1) e_ref is already 0.
        ("flags", "downstream pressure underflows to 0 (left pressure 0.0)"),
    ], ids=["config", "flags"])
    def test_underflow_is_numerical_error(self, tmp_path, capsys, mode, message):
        # e_ref = 5e-324 is finite and positive: valid input whose arithmetic underflows.
        out = str(tmp_path / "out")
        if mode == "flags":
            argv = ["--out-dir", out, "rh-solve", "--kind", "ideal_gas_entropy", "--gamma", "1.4",
                    "--e-ref", "5e-324", "--left", "1,0,0", "--rho-right", "2"]
        else:
            cfg = {
                "model": {"kind": "ideal_gas_entropy", "gamma": 1.4, "e_ref": 5e-324, "c_v": 1.207},
                "task": {"name": "rh-solve", "left": {"rho": 2.2412, "u": -2.6222, "s": 2.5039},
                         "rho_right": 2.346, "branch": "inadmissible"},
            }
            argv = ["--config", write_config(tmp_path, cfg), "--out-dir", out]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)["error"]
        assert (record["kind"], record["message"]) == ("numerical", message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["flags", "jump"])
    def test_flux_overflow_is_numerical_error(self, tmp_path, capsys, mode):
        # u = 1e150 squares within the double range, but the energy flux
        # (E + p) u overflows and the energy residual is NaN.
        out = str(tmp_path / "out")
        if mode == "flags":
            argv = ["--out-dir", out, "rh-solve", "--left", "1,1e150", "--rho-right", "2"]
        else:
            cfg = {
                "model": {"kind": "barotropic_polytropic", "K": 1.0, "gamma": 1.4},
                "task": {
                    "name": "rh-solve",
                    "jump": {"left": {"rho": 1.0, "u": 1e150}, "right": {"rho": 2.0, "u": 1e150}, "v_s": 0.0},
                },
            }
            argv = ["--config", write_config(tmp_path, cfg), "--out-dir", out]
        assert main(argv) == 4
        record = json.loads(capsys.readouterr().err)["error"]
        assert (record["kind"], record["message"]) == ("numerical", "non-finite energy jump residual nan")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--gamma", "inf"], ["--K", "nan"], ["--left", "1,inf"]])
    def test_non_finite_flags_are_validation_errors(self, tmp_path, capsys, flags):
        argv = ["--out-dir", str(tmp_path / "out"), "rh-solve", "--left", "1,2", "--rho-right", "2"]
        assert main(argv + flags) == 3
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "validation"

    @pytest.mark.parametrize("left", ["abc,1", "1,", ",", "1,2,3,4"])
    def test_malformed_left_is_validation_error(self, tmp_path, capsys, left):
        # float() of a part used to raise ValueError out of main: a traceback and exit 1.
        argv = ["--out-dir", str(tmp_path / "out"), "rh-solve", "--left", left, "--rho-right", "2"]
        assert main(argv) == 3
        record = json.loads(capsys.readouterr().err)["error"]
        assert record["kind"] == "validation"
        assert "--left" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_non_finite_jump_audit_is_validation_error(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "barotropic_polytropic", "K": 1.0, "gamma": 2.0},
            "task": {
                "name": "rh-solve",
                "jump": {"left": {"rho": 1.0, "u": float("nan")}, "right": {"rho": 2.0, "u": 1.0}},
            },
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "validation"
        assert "finite" in record["error"]["message"]

    @pytest.mark.parametrize("key", ["sigma_left", "js_left"])
    @pytest.mark.parametrize(
        "model",
        [{"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0}, {"kind": "ideal_gas_entropy", "gamma": 1.4}],
        ids=lambda m: m["kind"],
    )
    def test_jump_takes_states_normal_and_speed_only(self, tmp_path, capsys, model, key):
        # A barotropic js_left used to exit 4: its temperature is undefined.
        s = {"s": 0.0} if model["kind"] == "ideal_gas_entropy" else {}
        jump = {"left": {"rho": 1.0, "u": 2.0, **s}, "right": {"rho": 2.0, "u": 1.0, **s}, "n": 1.0, "v_s": 0.0, key: 0.1}
        cfg = {"model": model, "task": {"name": "rh-solve", "jump": jump}, "output": {"dir": str(tmp_path / "out")}}
        assert main(["--config", write_config(tmp_path, cfg)]) == 3
        record = json.loads(capsys.readouterr().err)["error"]
        assert (record["kind"], record["message"]) == ("validation", f"unknown keys ['{key}'] in jump")
        assert not (tmp_path / "out").exists()


class TestConfigErrors:
    def test_missing_model_is_validation_error(self, tmp_path):
        cfg = {"task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 2.0}, "rho_right": 2.0}}
        assert main(["--config", write_config(tmp_path, cfg)]) == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = {
            "model": {"kind": "barotropic_polytropic", "K": 1.0, "gamma": 2.0},
            "task": {"name": "shock-example", "gamma": 2.0},
            "tolerances": {"residul": 1e-10},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 3

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 2

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            validate_config({"task": {"name": "frobnicate"}})

    def test_nonpositive_tolerance(self):
        doc = {"task": {"name": "shock-example", "gamma": 2.0}, "tolerances": {"residual": 0.0}}
        with pytest.raises(ConfigError):
            validate_config(doc)


    @pytest.mark.parametrize(
        "data",
        [b'{"task": {"name": "shock-example", "gamma": 2.0}, "x": "\xe9"}', b"[" * 100_000 + b"]" * 100_000],
        ids=["latin-1", "nested-too-deep"],
    )
    def test_undecodable_file_is_parse_error(self, tmp_path, capsys, data):
        # UnicodeDecodeError and RecursionError used to escape main as a traceback with exit 1.
        path = tmp_path / "run.json"
        path.write_bytes(data)
        assert main(["--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"

    def test_admissibility_tolerance_is_unknown(self, tmp_path):
        doc = {"task": {"name": "shock-example", "gamma": 2.0}, "tolerances": {"admissibility": 1e-12}}
        with pytest.raises(ConfigError, match="admissibility"):
            validate_config(doc)


class TestJumpGate:
    """A claimed solution that breaks the jump conditions stops at the config, in every task."""

    RECORD = (
        "{\n"
        '  "error": {\n'
        '    "kind": "validation",\n'
        '    "message": "shock 0 violates the jump conditions (residual 1.380e+00)",\n'
        '    "status": 3\n'
        "  }\n"
        "}\n"
    )

    @pytest.mark.parametrize(
        "task",
        [
            {"name": "energy-audit"},
            {"name": "weak-verify"},
            {"name": "fv-run", "n_cells": 400, "t_final": 0.25, "snapshots": 3},
        ],
        ids=lambda task: task["name"],
    )
    def test_refusal_bytes(self, tmp_path, capsys, task):
        # The README's reference claim with u_R = 1.3: momentum is off by 1.38.
        cfg = _baro_stationary_shock()
        cfg["solution"]["states"][1]["u"] = 1.3
        cfg["task"] = task
        cfg["output"] = {"dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == self.RECORD
        assert not (tmp_path / "out").exists()


class TestBadArgv:
    """Bad command lines end as a returned status and one JSON record, never SystemExit."""

    @pytest.mark.parametrize(
        "argv, status, names",
        [
            (["shock-example", "--gamma", "2", "--frob", "1"], 2, "--frob"),
            (["shock-example", "--gamma"], 2, "--gamma"),
            (["frobnicate", "--gamma", "2"], 2, "frobnicate"),
            (["shock-example", "--gamma", "2", "extra"], 2, "extra"),
            (["shock-example", "--gamma", "2", "--config", ""], 2, "''"),
            (["rh-solve", "--left", "1,2", "--rho-right", "abc"], 3, "--rho-right"),
            (["shock-example", "--gamma", "abc"], 3, "--gamma"),
            (["rh-solve", "--left", "1,2", "--rho-right", "2", "--K", "x"], 3, "--K"),
            (["weak-verify", "--seed", "x"], 3, "--seed"),
            (["weak-verify", "--seed", "1.5"], 3, "--seed"),
            (["shock-example", "--gamma", "2", "--out-dir", ""], 3, "output.dir"),
            (["rh-solve", "--left", "1,2", "--rho-right", "2", "--branch", "sideways"], 3, "branch"),
            (["rh-solve", "--left", "1,2", "--rho-right", "2", "--kind", "vapour"], 3, "vapour"),
            # --K belongs to the barotropic model only.
            (["rh-solve", "--kind", "ideal_gas_entropy", "--K", "2", "--left", "1,2,0", "--rho-right", "2"],
             3, "'K'"),
            ([], 3, "no task"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_status_and_record(self, tmp_path, capsys, monkeypatch, argv, status, names):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            pytest.fail(f"SystemExit({exc.code}) escaped main")
        captured = capsys.readouterr()
        record = json.loads(captured.err)["error"]
        assert (code, record["status"]) == (status, status)
        assert record["kind"] == {2: "parse", 3: "validation"}[status]
        assert names in record["message"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: shockaudit")
        assert all(flag in text for flag in cli._FLAGS)

    @pytest.mark.parametrize(
        "argv, flag, task",
        [
            (["shock-example", "--gamma", "2", "--seed", "3"], "--seed", "shock-example"),
            (["energy-audit", "--gamma", "2", "--K", "1"], "--K", "energy-audit"),
            (["shock-example", "--left", "1,2"], "--left", "shock-example"),
            (["--config", "FV", "--gamma", "2"], "--gamma", "fv-run"),
            (["--config", "FV", "--branch", "admissible"], "--branch", "fv-run"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_flag_outside_its_task_is_validation_error(self, tmp_path, capsys, argv, flag, task):
        fv = write_config(tmp_path, dict(_baro_stationary_shock(), task={"name": "fv-run"}))
        argv = [fv if a == "FV" else a for a in argv] + ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 3
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == f"{flag} does not apply to task {task!r}"
        assert not (tmp_path / "out").exists()


class TestFlagsMatchConfig:
    """A flag sets one config key: the flag argv and the equivalent document give the same bytes."""

    BARO = {"kind": "barotropic_polytropic", "gamma": 2.0, "K": 2.0 / 3.0}
    IDEAL = {"kind": "ideal_gas_entropy", "gamma": 1.4}

    @pytest.mark.parametrize(
        "flags, doc",
        [
            (["rh-solve", "--kind", "barotropic_polytropic", "--gamma", "2", "--K", repr(2.0 / 3.0),
              "--left", "1,2", "--rho-right", "0.5"],
             {"model": BARO, "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 2.0}, "rho_right": 0.5}}),
            (["rh-solve", "--kind", "barotropic_polytropic", "--gamma", "2", "--K", repr(2.0 / 3.0),
              "--left", "1,2", "--rho-right", "0.5", "--branch", "inadmissible"],
             {"model": BARO, "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 2.0}, "rho_right": 0.5,
                                      "branch": "inadmissible"}}),
            (["rh-solve", "--kind", "ideal_gas_entropy", "--gamma", "1.4", "--left", "1,0,0",
              "--rho-right", "2", "--branch", "admissible"],
             {"model": IDEAL, "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 0.0, "s": 0.0},
                                       "rho_right": 2.0, "branch": "admissible"}}),
            (["rh-solve", "--kind", "ideal_gas_entropy", "--gamma", "1.4", "--e-ref", "0.9", "--c-v", "1.1",
              "--left", "1,0,0", "--rho-right", "2", "--branch", "inadmissible"],
             {"model": {**IDEAL, "e_ref": 0.9, "c_v": 1.1},
              "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 0.0, "s": 0.0}, "rho_right": 2.0,
                       "branch": "inadmissible"}}),
            # Without a file rh-solve's model defaults to barotropic, gamma 1.4, K 1.
            (["rh-solve", "--left", "1,2", "--rho-right", "2"],
             {"model": {"kind": "barotropic_polytropic", "gamma": 1.4, "K": 1.0},
              "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 2.0}, "rho_right": 2.0}}),
            (["shock-example", "--gamma", "2"], {"task": {"name": "shock-example", "gamma": 2.0}}),
            (["energy-audit", "--gamma", "1.6", "--format", "csv"],
             {"task": {"name": "energy-audit", "gamma": 1.6}, "output": {"formats": ["csv"]}}),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_same_bytes(self, tmp_path, capsys, flags, doc):
        runs = []
        for out, argv in [("a", flags), ("b", ["--config", write_config(tmp_path, doc)])]:
            status = main(argv + ["--out-dir", str(tmp_path / out)])
            artifacts = {p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())}
            runs.append((status, capsys.readouterr().out, artifacts))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == len(doc.get("output", {}).get("formats", ["json", "csv"]))

    def test_one_validation_per_call(self, tmp_path, monkeypatch):
        calls = []

        def counting(raw):
            calls.append(raw)
            return validate_config(raw)

        monkeypatch.setattr(cli.cfgmod, "validate_config", counting)
        doc = {"task": {"name": "shock-example", "gamma": 2.0}}
        for argv in (["shock-example", "--gamma", "2"], ["--config", write_config(tmp_path, doc), "--format", "csv"],
                     ["rh-solve", "--left", "1,2", "--rho-right", "2", "--gamma", "2", "--K", "1"]):
            calls.clear()
            assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
            assert len(calls) == 1

    def test_flags_override_the_file(self, tmp_path):
        doc = {"model": self.BARO, "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 2.0}, "rho_right": 2.0},
               "output": {"dir": str(tmp_path / "ignored")}}
        argv = ["rh-solve", "--config", write_config(tmp_path, doc), "--left", "5,0", "--rho-right", "9",
                "--gamma", "3", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        summary = read_summary(tmp_path, "rh_solve")
        assert summary["left"] == {"rho": 5.0, "u": 0.0}
        assert summary["right"]["rho"] == 9.0
        assert summary["model"] == {**self.BARO, "gamma": 3.0}
        assert not (tmp_path / "ignored").exists()


class TestIgnoredInputs:
    """Config inputs that a task would accept and then ignore are validation errors."""

    JUMP = {"left": {"rho": 1.0, "u": 2.0}, "right": {"rho": 2.0, "u": 1.0}, "v_s": 0.0}

    @pytest.mark.parametrize("extra", [{"left": {"rho": 5.0, "u": 0.0}}, {"rho_right": 9.0}, {"branch": "admissible"}],
                             ids=lambda e: next(iter(e)))
    def test_rh_solve_jump_with_solve_keys(self, extra):
        doc = {"model": TestFlagsMatchConfig.BARO, "task": {"name": "rh-solve", "jump": self.JUMP, **extra}}
        with pytest.raises(ConfigError, match=next(iter(extra))):
            validate_config(doc)

    def test_energy_audit_gamma_with_solution(self):
        doc = {**_baro_stationary_shock(), "task": {"name": "energy-audit", "gamma": 2.0}}
        with pytest.raises(ConfigError, match="exactly one of gamma and a solution"):
            validate_config(doc)

    @staticmethod
    def rejected(tmp_path, capsys, argv):
        """The validation message of a main call that must exit 3 before writing anything."""
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
        record = json.loads(capsys.readouterr().err)["error"]
        assert record["kind"] == "validation"
        assert not (tmp_path / "out").exists()
        return record["message"]

    @pytest.mark.parametrize("blocks", [["model"], ["solution"], ["model", "solution"]], ids="+".join)
    def test_shock_example_with_model_or_solution(self, tmp_path, capsys, blocks):
        doc = {"task": {"name": "shock-example", "gamma": 2.0}}
        doc.update((block, _baro_stationary_shock()[block]) for block in blocks)
        message = self.rejected(tmp_path, capsys, ["--config", write_config(tmp_path, doc)])
        assert f"does not read the {blocks} block" in message

    def test_energy_audit_gamma_with_model(self, tmp_path, capsys):
        doc = {"model": _baro_stationary_shock()["model"], "task": {"name": "energy-audit", "gamma": 2.0}}
        message = self.rejected(tmp_path, capsys, ["--config", write_config(tmp_path, doc)])
        assert "gamma or a model block" in message

    def test_rh_solve_with_solution(self, tmp_path, capsys):
        doc = {"model": TestFlagsMatchConfig.BARO, "solution": _baro_stationary_shock()["solution"],
               "task": {"name": "rh-solve", "jump": self.JUMP}}
        message = self.rejected(tmp_path, capsys, ["--config", write_config(tmp_path, doc)])
        assert "does not read the ['solution'] block" in message

    @pytest.mark.parametrize(
        "task, flags, keys",
        [({"count": 3}, [], ["count"]), ({"seed": 1}, [], ["seed"]), ({}, ["--seed", "1"], ["seed"]),
         ({"count": 3, "seed": 1}, [], ["count", "seed"])],
        ids=["count", "seed", "seed-flag", "count+seed"],
    )
    def test_weak_verify_bumps_with_battery_keys(self, tmp_path, capsys, task, flags, keys):
        bumps = [{"t0": 0.25, "x0": 0.0, "rt": 0.1, "rx": 0.1}]
        doc = {**_baro_stationary_shock(), "task": {"name": "weak-verify", "bumps": bumps, **task}}
        message = self.rejected(tmp_path, capsys, ["--config", write_config(tmp_path, doc)] + flags)
        assert f"takes bumps or {keys}, not both" in message

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"kind": "ideal_gas_entropy", "gamma": 1.4, "K": 1.0}, "K"),
            ({"kind": "barotropic_polytropic", "gamma": 2.0, "K": 1.0, "e_ref": 1.0}, "e_ref"),
            ({"kind": "barotropic_polytropic", "gamma": 2.0, "K": 1.0, "c_v": 1.0}, "c_v"),
        ],
        ids=lambda v: v if isinstance(v, str) else v["kind"],
    )
    def test_model_keys_of_the_other_kind(self, model, key):
        doc = {"model": model, "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 2.0, "s": 0.0}, "rho_right": 2.0}}
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            validate_config(doc)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestNumberFields:
    """Every numeric config field must be a finite JSON number, never a string, bool or null."""

    @staticmethod
    def base(kind):
        baro = {"kind": "barotropic_polytropic", "K": 1.0, "gamma": 1.4}
        ideal = {"kind": "ideal_gas_entropy", "gamma": 1.4, "e_ref": 1.0, "c_v": 1.0}
        left, right = {"rho": 1.0, "u": 0.0, "s": 0.0}, {"rho": 2.0, "u": 0.0, "s": 0.0}
        jump = {"left": left, "right": right, "n": 1.0, "v_s": 0.0}
        return {
            "example": {"task": {"name": "shock-example", "gamma": 2.0}},
            "solve": {"model": baro, "task": {"name": "rh-solve", "left": {"rho": 1.0, "u": 0.0}, "rho_right": 2.0}},
            "ideal": {"model": ideal, "task": {"name": "rh-solve", "left": left, "rho_right": 2.0}},
            "jump": {"model": ideal, "task": {"name": "rh-solve", "jump": jump}},
            "weak": {
                **_baro_stationary_shock(),
                "task": {"name": "weak-verify", "bumps": [{"t0": 0.5, "x0": 0.0, "rt": 0.2, "rx": 0.2}]},
            },
        }[kind]

    @pytest.mark.parametrize(
        "kind, path, value",
        [
            ("example", ("task", "gamma"), "abc"),
            ("example", ("task", "gamma"), True),
            # A JSON integer past the double range used to end as exit 4.
            ("example", ("task", "gamma"), 10 ** 400),
            ("solve", ("task", "rho_right"), "x"),
            ("solve", ("task", "rho_right"), "2"),
            ("solve", ("task", "left", "rho"), "1"),
            ("solve", ("task", "left", "u"), True),
            ("solve", ("model", "gamma"), "abc"),
            ("solve", ("model", "K"), True),
            ("solve", ("model", "K"), None),
            ("ideal", ("model", "e_ref"), "1"),
            ("ideal", ("model", "c_v"), False),
            ("ideal", ("task", "left", "s"), "0"),
            ("jump", ("task", "jump", "n"), "1"),
            ("jump", ("task", "jump", "v_s"), True),
            ("jump", ("task", "jump", "v_s"), [0.0]),
            ("jump", ("task", "jump", "n"), None),
            ("jump", ("task", "jump", "right", "rho"), "2"),
            ("weak", ("solution", "domain", "x_min"), "-1"),
            ("weak", ("solution", "domain", "x_max"), True),
            ("weak", ("solution", "shock_positions"), ["0"]),
            ("weak", ("solution", "shock_speeds"), [True]),
            ("weak", ("solution", "shock_positions"), 0.0),
            ("weak", ("solution", "states"), 1.0),
            ("weak", ("solution", "states", 1, "rho"), "2"),
            ("weak", ("task", "bumps", 0, "t0"), "0.5"),
            ("weak", ("task", "bumps", 0, "rx"), True),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v)[:16],
    )
    def test_non_number_is_validation_error(self, tmp_path, capsys, monkeypatch, kind, path, value):
        monkeypatch.chdir(tmp_path)
        doc = self.base(kind)
        _set(doc, path, value)
        assert main(["--config", write_config(tmp_path, doc)]) == 3
        record = json.loads(capsys.readouterr().err)["error"]
        assert record["kind"] == "validation"
        assert [k for k in path if isinstance(k, str)][-1] in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["example", "solve", "ideal", "jump", "weak"])
    def test_bases_run(self, tmp_path, kind):
        doc = {**self.base(kind), "output": {"dir": str(tmp_path / "out")}}
        assert main(["--config", write_config(tmp_path, doc)]) in (0, 1)

    def test_integers_are_numbers(self, tmp_path):
        doc = self.base("solve")
        doc["model"] = {"kind": "barotropic_polytropic", "K": 1, "gamma": 2}
        doc["task"]["left"] = {"rho": 1, "u": 0}
        doc["task"]["rho_right"] = 2
        doc["output"] = {"dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, doc)]) == 0


class TestOutputBlock:
    @pytest.mark.parametrize(
        "output",
        [
            {"dir": 5},
            {"dir": ""},
            {"dir": None},
            {"dir": ["out"]},
            {"formats": None},
            {"formats": "json"},
            {"formats": {"json": True}},
            {"formats": ["xml"]},
            {"formats": [["json"]]},
        ],
        ids=repr,
    )
    def test_bad_output_block_is_validation_error(self, tmp_path, capsys, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        doc = {"task": {"name": "shock-example", "gamma": 2.0}, "output": {"dir": "out", **output}}
        assert main(["--config", write_config(tmp_path, doc)]) == 3
        record = json.loads(capsys.readouterr().err)["error"]
        assert record["kind"] == "validation"
        assert "output" in record["message"]
        assert sorted(os.listdir(tmp_path)) == ["run.json"]

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_regular_file_as_output_dir_is_validation_error(self, tmp_path, capsys, sub):
        # Unlike a read-only directory, a regular file cannot be written into
        # by any user, root included.
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out_dir = os.path.join(blocker, sub) if sub else str(blocker)
        status = main(["shock-example", "--gamma", "2", "--out-dir", out_dir])
        captured = capsys.readouterr()
        record = json.loads(captured.err)["error"]
        assert (status, record["status"], record["kind"]) == (3, 3, "validation")
        assert record["message"].startswith(f"output.dir {out_dir!r}")
        assert captured.out == ""
        assert blocker.read_text() == "kept\n"

    def test_format_subset_written(self, tmp_path):
        doc = {"task": {"name": "shock-example", "gamma": 2.0},
               "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]}}
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        assert os.listdir(tmp_path / "out") == ["shock_example.csv"]


class TestEnergyAudit:
    def test_summary_fields(self, tmp_path):
        code = main(["--out-dir", str(tmp_path / "out"), "energy-audit", "--gamma", "2"])
        assert code == 0
        summary = read_summary(tmp_path, "energy_audit")
        assert summary["dEdt"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert summary["neg_dVdt_volume"] == pytest.approx(-1.0, abs=1e-12)
        assert summary["gap"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert summary["lambda_calibrated"]["left"] == 0.0
        assert abs(summary["augmented_rate"]) < 1e-12

    @staticmethod
    def audit_config(tmp_path, K, states, shock_positions, shock_speeds):
        return {
            "model": {"kind": "barotropic_polytropic", "K": K, "gamma": 2.0},
            "solution": {
                "states": states,
                "shock_positions": shock_positions,
                "shock_speeds": shock_speeds,
                "domain": {"x_min": -1.0, "x_max": 1.0},
            },
            "task": {"name": "energy-audit"},
            "output": {"dir": str(tmp_path / "out")},
        }

    @pytest.mark.parametrize("s", [1.0, 2.0 ** -47])
    def test_config_solution_block(self, tmp_path, s):
        # The reference shock with u scaled by s and K by s**2.  An absolute
        # 1e-13 cut on u - v_s found no gauge at s = 2**-47 (exit 4).
        states = [{"rho": 1.0, "u": 2.0 * s}, {"rho": 2.0, "u": s}]
        cfg = self.audit_config(tmp_path, 2.0 / 3.0 * s * s, states, [0.0], [0.0])
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        summary = read_summary(tmp_path, "energy_audit")
        assert summary["lambda_calibrated"]["left"] == 0.0
        assert summary["lambda_calibrated"]["right"] == pytest.approx(-s * s / 3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "positions, status, kind, message",
        [
            ([-0.5, 0.5], 3, "validation", "calibration is defined for two-state"),
            ([0.0], 4, "numerical", "both states move with the interface"),
        ],
    )
    def test_refusal_writes_nothing(self, tmp_path, capsys, positions, status, kind, message):
        # Zero jumps moving with the flow: a three-state solution has no
        # single shock to calibrate, and with u = v_s on both sides the
        # calibration fixes nothing beyond the gauge.
        states = [{"rho": 1.0, "u": 0.5}] * (len(positions) + 1)
        cfg = self.audit_config(tmp_path, 1.0, states, positions, [0.5] * len(positions))
        assert main(["--config", write_config(tmp_path, cfg)]) == status
        record = json.loads(capsys.readouterr().err)["error"]
        assert record["kind"] == kind
        assert message in record["message"]
        assert not (tmp_path / "out").exists()


class TestFvRun:
    def test_run_emits_series_and_csv(self, tmp_path):
        cfg = {
            "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
            "solution": {
                "states": [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}],
                "shock_positions": [0.0],
                "shock_speeds": [0.0],
                "domain": {"x_min": -1.0, "x_max": 1.0},
            },
            "task": {"name": "fv-run", "n_cells": 100, "t_final": 0.1, "snapshots": 2},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        summary = read_summary(tmp_path, "fv_run")
        assert summary["conservation_drift"]["mass"] < 1e-10
        assert len(summary["shock_position_series"]) >= 2
        lines = (tmp_path / "out" / "fv_run.csv").read_text().splitlines()
        assert lines[0] == "t,x,rho,u"
        assert len(lines) == 1 + 2 * 100

    def test_full_model_adds_entropy_column(self, tmp_path):
        s0 = math.log(1.0 / 0.4)
        model = GasModel.ideal_gas(gamma=1.4)
        jump = hugoniot_solve(FluidState(1.0, 0.0, s0), 2.0, model)
        u_r, s_r, v_s = jump.right.u, jump.right.s, jump.v_s
        cfg = {
            "model": {"kind": "ideal_gas_entropy", "gamma": 1.4},
            "solution": {
                "states": [{"rho": 1.0, "u": 0.0, "s": s0}, {"rho": 2.0, "u": u_r, "s": s_r}],
                "shock_positions": [0.0],
                "shock_speeds": [v_s],
                "domain": {"x_min": -1.2, "x_max": 0.4},
            },
            "task": {"name": "fv-run", "n_cells": 100, "t_final": 0.05, "snapshots": 1},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        lines = (tmp_path / "out" / "fv_run.csv").read_text().splitlines()
        assert lines[0] == "t,x,rho,u,s"
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(s0, rel=1e-6)

    def test_moving_shock_speed_is_measured(self, tmp_path):
        # measured_v_s is the slope of the tracked shock trajectory.
        jump = hugoniot_solve(FluidState(1.0, 0.0, 0.0), 3.5, GasModel.ideal_gas(gamma=1.4))
        u_r, s_r, v_s = jump.right.u, jump.right.s, jump.v_s
        cfg = {
            "model": {"kind": "ideal_gas_entropy", "gamma": 1.4},
            "solution": {
                "states": [{"rho": 1.0, "u": 0.0, "s": 0.0}, {"rho": 3.5, "u": u_r, "s": s_r}],
                "shock_positions": [0.5],
                "shock_speeds": [v_s],
                "domain": {"x_min": 0.0, "x_max": 1.0},
            },
            "task": {"name": "fv-run", "n_cells": 400, "t_final": 0.1},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        assert v_s == pytest.approx(-1.9799, abs=1e-4)
        assert read_summary(tmp_path, "fv_run")["measured_v_s"] == pytest.approx(v_s, rel=0.01)


def _tiny_t_final_run(tmp_path, t_final):
    cfg = {
        "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
        "solution": {"states": [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}],
                     "shock_positions": [0.0], "shock_speeds": [0.0]},
        "task": {"name": "fv-run", "n_cells": 64, "snapshots": 0, "t_final": t_final},
        "output": {"dir": str(tmp_path / "out")},
    }
    # Any numpy RuntimeWarning would be a second thing on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["--config", write_config(tmp_path, cfg)])


class TestFvRunTinyTFinal:
    """A trajectory whose times all square to 0 cannot be fitted; one a little longer still is."""

    @pytest.mark.parametrize("t_final", [1e-300, 1e-200])
    def test_unfittable_trajectory_is_numerical_error(self, tmp_path, capsys, t_final):
        assert _tiny_t_final_run(tmp_path, t_final) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)["error"]
        assert record["kind"] == "numerical"
        assert record["message"] == (f"shock trajectory times up to {t_final!r} are too short to fit a speed"
                                     " (their squares underflow)")
        assert not (tmp_path / "out").exists()

    def test_short_fittable_trajectory_runs(self, tmp_path, capsys):
        assert _tiny_t_final_run(tmp_path, 1e-30) == 0
        assert capsys.readouterr().err == ""
        summary = read_summary(tmp_path, "fv_run")
        assert (summary["t_final"], summary["n_steps"]) == (1e-30, 1)
        assert summary["shock_position_series"] == [[0, 0], [1e-30, 0]]
        assert summary["measured_v_s"] == 0
        assert summary["audit"]["pass"] is True


class TestFvRunValidation:
    def config(self, tmp_path, task=None, tolerances=None):
        cfg = {
            "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
            "solution": {
                "states": [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}],
                "shock_positions": [0.0],
                "shock_speeds": [0.0],
            },
            "task": {"name": "fv-run", "n_cells": 40, "t_final": 0.05, **(task or {})},
            "output": {"dir": str(tmp_path / "out")},
        }
        if tolerances is not None:
            cfg["tolerances"] = tolerances
        return cfg

    @pytest.mark.parametrize(
        "task",
        [
            # JSON 1e400 parses to inf, which int() cannot convert.
            {"n_cells": float("inf")},
            {"n_cells": 400.7},
            {"n_cells": 40.0},
            {"n_cells": 3},
            {"n_cells": True},
            # A NaN run length used to take 0 steps and pass.
            {"t_final": float("nan")},
            {"t_final": float("inf")},
            {"t_final": 0.0},
            {"t_final": -0.1},
            {"t_final": "0.1"},
            {"cfl": 0.0},
            {"cfl": 1.5},
            {"cfl": float("nan")},
            {"snapshots": -2},
            {"snapshots": 2.5},
            # The shock is always tracked and sampled 6 cells from the interface,
            # so any track_shock or k_sample is an unknown task key.
            {"k_sample": 0},
            {"k_sample": 2.0},
            {"k_sample": 6},
            {"track_shock": "yes"},
            {"track_shock": 1},
            {"track_shock": True},
            {"bc": "reflective"},
        ],
        ids=lambda task: "-".join(f"{k}={v!r}" for k, v in task.items()),
    )
    def test_bad_task_value_is_validation_error(self, tmp_path, capsys, task):
        assert main(["--config", write_config(tmp_path, self.config(tmp_path, task))]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "validation"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1e-10, "1e-10", True])
    def test_bad_tolerance_is_validation_error(self, tmp_path, capsys, value):
        # An infinite tolerance used to pass validation and fail only when
        # the summary was serialized.
        cfg = self.config(tmp_path, tolerances={"conservation": value})
        assert main(["--config", write_config(tmp_path, cfg)]) == 3
        record = json.loads(capsys.readouterr().err)["error"]
        assert record["kind"] == "validation"
        assert "conservation" in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["n_cells", "snapshots"])
    def test_unallocatable_size_is_numerical_error(self, tmp_path, capsys, key):
        # 10**15 float64 values are 8 PB: numpy refuses the array at once,
        # which used to escape as a MemoryError traceback with exit 1.
        assert main(["--config", write_config(tmp_path, self.config(tmp_path, {key: 10**15}))]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)["error"]
        assert record["kind"] == "numerical"
        assert record["message"].startswith("out of memory: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t_final", [1e-15, 1e-20])
    def test_tiny_t_final_is_run(self, tmp_path, t_final):
        # Absolute 1e-14 time tolerances used to take no step and report t_final 0.
        assert main(["--config", write_config(tmp_path, self.config(tmp_path, {"t_final": t_final}))]) == 0
        summary = read_summary(tmp_path, "fv_run")
        assert summary["n_steps"] >= 1
        assert summary["t_final"] == pytest.approx(t_final, rel=1e-12)

    def test_defaults_filled_once(self, tmp_path):
        cfg = self.config(tmp_path)
        cfg["task"] = {"name": "fv-run"}
        task = validate_config(cfg).task
        assert task == {"name": "fv-run", "n_cells": 400, "t_final": 0.5, "cfl": 0.45, "bc": "outflow",
                        "snapshots": 3}
        assert cfg["task"] == {"name": "fv-run"}

    def test_limit_values_accepted(self, tmp_path):
        task = {"n_cells": 4, "cfl": 1.0, "snapshots": 0, "bc": "periodic"}
        cfg = validate_config(self.config(tmp_path, task, tolerances={"conservation": 1}))
        assert cfg.task["n_cells"] == 4
        assert cfg.tolerances["conservation"] == 1.0


def _ideal_moving_shock():
    s0 = math.log(1.0 / 0.4)
    jump = hugoniot_solve(FluidState(1.0, 0.0, s0), 2.0, GasModel.ideal_gas(gamma=1.4))
    u_r, s_r, v_s = jump.right.u, jump.right.s, jump.v_s
    return {
        "model": {"kind": "ideal_gas_entropy", "gamma": 1.4},
        "solution": {
            "states": [{"rho": 1.0, "u": 0.0, "s": s0}, {"rho": 2.0, "u": u_r, "s": s_r}],
            "shock_positions": [0.0],
            "shock_speeds": [v_s],
            "domain": {"x_min": -1.2, "x_max": 0.4},
        },
    }


def _baro_stationary_shock():
    return {
        "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
        "solution": {
            "states": [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}],
            "shock_positions": [0.0],
            "shock_speeds": [0.0],
            "domain": {"x_min": -1.0, "x_max": 1.0},
        },
    }


def _fv_rows(cfg):
    """(t, x, rho, u[, s]) rows of an fv-run config, built cell by cell from its own simulate call."""
    run = validate_config(cfg)
    model, sol, task = run.model, run.solution, run.task
    grid = Grid1D(sol.domain.x_min, sol.domain.x_max, task["n_cells"])
    times = list(np.linspace(0.0, task["t_final"], task["snapshots"])) if task["snapshots"] else []
    snapshots = Snapshots(times, task["t_final"])
    simulate(
        model, grid, field_from_solution(model, grid, sol), task["t_final"], cfl=task["cfl"],
        bc=task["bc"], observers=[snapshots, ShockTrack(grid)],
    )
    rows = []
    for t, snap in snapshots.taken:
        columns = [grid.centers(), *cell_primitives(model, snap.data)]
        rows += [(float(t), *cell) for cell in zip(*(col.tolist() for col in columns))]
    return rows


class TestRepeatedMain:
    """Many main calls in one process: no call may see another call's flags or state."""

    @staticmethod
    def run(capsys, out_dir, argv):
        shutil.rmtree(out_dir, ignore_errors=True)
        status = main(argv)
        captured = capsys.readouterr()
        artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}
        return status, captured.out, captured.err, artifacts

    def test_each_call_matches_its_first_run(self, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        fv = dict(_baro_stationary_shock(), task={"name": "fv-run", "n_cells": 32, "t_final": 0.05})
        weak = dict(_baro_stationary_shock(), task={"name": "weak-verify", "count": 3, "seed": 1},
                    output={"dir": str(c)})
        fv_path = write_config(tmp_path, fv, "fv.json")
        weak_path = write_config(tmp_path, weak, "weak.json")
        calls = [
            (a, ["--out-dir", str(a), "shock-example", "--gamma", "2"]),
            (b, ["energy-audit", "--gamma", "1.6", "--out-dir", str(b), "--format", "csv"]),
            (a, ["--out-dir", str(a), "shock-example"]),  # no --gamma after a call with one: exit 3
            (b, ["rh-solve", "--kind", "ideal_gas_entropy", "--gamma", "1.4", "--left", "1,0,0",
                 "--rho-right", "2", "--out-dir", str(b)]),
            (a, ["--config", weak_path, "--seed", "5", "--out-dir", str(a), "--format", "json"]),
            (c, ["--config", weak_path]),  # no --seed, --out-dir or --format after a call with them
            (b, ["fv-run", "--config", fv_path, "--out-dir", str(b), "--format", "json,csv"]),
            (a, ["--out-dir", str(a), "energy-audit", "--gamma", "2"]),
        ]
        first = [self.run(capsys, out_dir, argv) for out_dir, argv in calls]
        assert [r[0] for r in first] == [0, 0, 3, 0, 0, 0, 0, 0]
        assert first[4][1] != first[5][1]  # the --seed call ran another battery
        for order in (calls, calls[::-1]):
            for out_dir, argv in order:
                assert self.run(capsys, out_dir, argv) == first[calls.index((out_dir, argv))], argv


# Runs each argv list of sys.argv[1] (JSON) through cli.main in this fresh
# interpreter and prints the exit statuses and which array modules got loaded
# (ctypes included: only the array tasks set the heap thresholds through it;
# numpy.random too: no task draws from it).
_FRESH_MAIN = """
import contextlib, io, json, sys
from shockaudit import cli
statuses = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(cli.main(argv))
array_modules = ("numpy", "numpy.random", "shockaudit.fv_solver", "shockaudit.weakcheck", "ctypes")
print(json.dumps({"statuses": statuses, "loaded": [m for m in array_modules if m in sys.modules]}))
"""


def _fresh_main(argvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(shockaudit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyImports:
    """Only fv-run and weak-verify load numpy, ctypes and the array oracles."""

    def test_closed_form_tasks_import_no_array_module(self, tmp_path):
        out = str(tmp_path / "out")
        jump = {
            "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
            "task": {
                "name": "rh-solve",
                "jump": {"left": {"rho": 1.0, "u": 2.0}, "right": {"rho": 2.0, "u": 1.0}, "v_s": 0.0},
            },
        }
        argvs = [
            ["rh-solve", "--left", "1,2", "--rho-right", "2", "--out-dir", out],
            ["--config", write_config(tmp_path, jump), "--out-dir", out],
            ["shock-example", "--gamma", "2", "--out-dir", out],
            ["energy-audit", "--gamma", "1.6", "--out-dir", out],
        ]
        assert _fresh_main(argvs) == {"statuses": [0, 0, 0, 0], "loaded": []}

    def test_array_tasks_run_in_a_fresh_interpreter(self, tmp_path):
        out = str(tmp_path / "out")
        fv = dict(_baro_stationary_shock(), task={"name": "fv-run", "n_cells": 32, "t_final": 0.05})
        weak = dict(_baro_stationary_shock(), task={"name": "weak-verify", "count": 2, "seed": 1})
        argvs = [
            ["--config", write_config(tmp_path, fv, "fv.json"), "--out-dir", out],
            ["--config", write_config(tmp_path, weak, "weak.json"), "--out-dir", out],
        ]
        # The weak-verify battery draws numpy's default_rng(seed) stream in
        # pure Python, so neither array task pays for numpy.random.
        result = _fresh_main(argvs)
        assert result["statuses"] == [0, 0]
        assert "numpy" in result["loaded"] and "numpy.random" not in result["loaded"]

    def test_every_exported_name_resolves(self):
        for name in shockaudit.__all__:
            assert getattr(shockaudit, name) is not None, name
        assert shockaudit.weak_residuals is weak_residuals
        with pytest.raises(AttributeError):
            shockaudit.no_such_name


class TestKeepFreedHeap:
    """The array tasks' malloc thresholds: set through mallopt where libc has it."""

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert cli._keep_freed_heap.__wrapped__() is None
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_returns_quietly_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_heap.__wrapped__() is None


class TestCsvColumns:
    """fv-run hands its table to the writer as float64 columns; the bytes stay per-value."""

    @pytest.mark.parametrize("snapshots", [0, 1, 3])
    @pytest.mark.parametrize("bc", ["outflow", "periodic"])
    @pytest.mark.parametrize("case", [_baro_stationary_shock, _ideal_moving_shock], ids=["barotropic", "ideal"])
    def test_fv_run_csv_matches_per_value_writer(self, tmp_path, case, bc, snapshots):
        # Two steps: under a periodic boundary the seam joins the two states,
        # and a longer run smears it until locate_shock's isolation gate fails.
        task = {"name": "fv-run", "n_cells": 64, "t_final": 0.002, "cfl": 0.45, "bc": bc,
                "snapshots": snapshots}
        cfg = {**case(), "task": task, "output": {"dir": str(tmp_path / "out")}}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        header = ("t", "x", "rho", "u", "s") if "s" in cfg["solution"]["states"][0] else ("t", "x", "rho", "u")
        rows = _fv_rows(cfg)
        assert len(rows) == snapshots * 64
        emitted = (tmp_path / "out" / "fv_run.csv").read_bytes()
        assert emitted == oracles.csv_text_per_value(header, rows).encode()
        if snapshots == 0:
            assert emitted == (",".join(header) + "\n").encode()

    @staticmethod
    def awkward_columns():
        one = 1.0
        a = np.array([
            -0.0, 0.0, 0.0, -0.0, one, np.nextafter(one, 2.0), np.nextafter(one, 0.0), one,
            5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
            1e-300, -1e-300, 2.0 / 3.0, 2.0 / 3.0, 0.1, 0.1,
        ])
        b = -a[::-1]
        return a, b

    def test_array_columns_match_per_value_writer(self):
        a, b = self.awkward_columns()
        names = [f"r{i}" for i in range(a.size)]
        text = cli._csv_text(("name", "a", "b"), [names, a, b])
        rows = list(zip(names, a.tolist(), b.tolist()))
        assert text == oracles.csv_text_per_value(("name", "a", "b"), rows)
        cells = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert cells[:4] == ["-0", "0", "0", "-0"]
        assert len(set(cells[4:8])) == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_array_value_raises(self, bad):
        column = np.array([1.0, 2.0, bad, 3.0])
        with pytest.raises(ConfigError):
            cli._csv_text(("t", "x"), [np.zeros(4), column])

    def test_format_float_called_once_per_distinct_value(self, monkeypatch):
        a, b = self.awkward_columns()
        calls = []

        def counting(x):
            calls.append(x)
            return format_float(x)

        monkeypatch.setattr(cli, "format_float", counting)
        cli._csv_text(("a", "b"), [a, b])
        distinct = [sorted(set(col.view(np.uint64).tolist())) for col in (a, b)]
        assert len(calls) == len(distinct[0]) + len(distinct[1]) < 2 * a.size
        # Column by column, each bit pattern once (-0.0 and 0.0 are two).
        seen = np.array(calls).view(np.uint64).tolist()
        split = len(distinct[0])
        assert [sorted(seen[:split]), sorted(seen[split:])] == distinct


class TestWeakVerify:
    def base_config(self, tmp_path, states, out="out"):
        return {
            "model": {"kind": "barotropic_polytropic", "K": 2.0 / 3.0, "gamma": 2.0},
            "solution": {
                "states": states,
                "shock_positions": [0.0],
                "shock_speeds": [0.0],
                "domain": {"x_min": -1.0, "x_max": 1.0},
            },
            "task": {"name": "weak-verify", "count": 6, "seed": 1},
            "tolerances": {"residual": 10.0},
            "output": {"dir": str(tmp_path / out)},
        }

    def test_valid_solution_passes(self, tmp_path):
        cfg = self.base_config(
            tmp_path, [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}]
        )
        cfg["tolerances"] = {}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        summary = read_summary(tmp_path, "weak_verify")
        assert summary["max_abs_residual"] < 1e-8

    def test_material_domain_default_battery_passes(self, tmp_path):
        # Every bump of the default battery stays inside the material domain
        # over its whole time support, so the audit runs and passes.
        cfg = _baro_stationary_shock()
        cfg["solution"]["domain"]["motion"] = "material"
        cfg["task"] = {"name": "weak-verify"}
        cfg["output"] = {"dir": str(tmp_path / "out")}
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        summary = read_summary(tmp_path, "weak_verify")
        assert summary["n_bumps"] == 20
        assert summary["max_abs_residual"] < 1e-8

    def test_csv_rows_equal_single_component_residuals(self, tmp_path):
        # One shared evaluation per bump, yet the rows stay component-major
        # and each equals the single-component residual exactly.
        model = GasModel.ideal_gas(gamma=1.4)
        left = FluidState(1.0, 0.0, 0.0)
        jump = hugoniot_solve(left, 2.5, model)
        u_r, s_r, v_s = jump.right.u, jump.right.s, jump.v_s
        cfg = {
            "model": model_to_dict(model),
            "solution": {
                "states": [{"rho": 1.0, "u": 0.0, "s": 0.0}, {"rho": 2.5, "u": u_r, "s": s_r}],
                "shock_positions": [0.5],
                "shock_speeds": [v_s],
                "domain": {"x_min": -1.0, "x_max": 1.0},
            },
            "task": {"name": "weak-verify", "count": 5, "seed": 7, "components": ["energy", "mass", "momentum"]},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 0
        sol = validate_config(cfg).solution
        quad = SpacetimeQuadrature()
        bumps = standard_battery(sol, count=5, seed=7)
        lines = (tmp_path / "out" / "weak_verify.csv").read_text().splitlines()
        assert lines[0] == "component,t0,x0,rt,rx,residual"
        rows = [line.split(",") for line in lines[1:]]
        expected = [(comp, bump) for comp in ("energy", "mass", "momentum") for bump in bumps]
        assert len(rows) == len(expected)
        worst = 0.0
        for row, (comp, bump) in zip(rows, expected):
            assert row[0] == comp
            assert [float(v) for v in row[1:5]] == [bump.t0, bump.x0, bump.rt, bump.rx]
            r = weak_residuals(sol, (comp,), bump, quad)[0]
            assert float(row[5]) == r
            worst = max(worst, abs(r))
        assert read_summary(tmp_path, "weak_verify")["max_abs_residual"] == worst

    def test_invalid_solution_fails_audit(self, tmp_path):
        # Loose residual tolerance lets the broken solution through config
        # validation; the weak-form audit then rejects it with status 1.
        cfg = self.base_config(
            tmp_path, [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.3}]
        )
        assert main(["--config", write_config(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize(
        "task",
        [
            {"panels": 0},
            {"panels": -3},
            {"order": 0},
            {"order": 2.7},
            {"order": True},
            {"count": 0},
            {"bumps": []},
            {"bumps": [{"t0": 0.25, "x0": 0.0, "rt": 0.1}]},
            {"components": []},
            {"components": ["vorticity"]},
            {"seed": -1},
            {"seed": 1.5},
        ],
    )
    def test_vacuous_or_malformed_battery_is_validation_error(self, tmp_path, capsys, task):
        # Each of these used to pass with zero work, truncate silently, or
        # escape as a traceback; none may reach an audit verdict.
        cfg = self.base_config(tmp_path, [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}])
        cfg["task"].update(task)
        assert main(["--config", write_config(tmp_path, cfg)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "validation"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_is_validation_error(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path, [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}])
        assert main(["--config", write_config(tmp_path, cfg), "--seed", "-2"]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "validation"

    def test_non_finite_state_is_validation_error(self, tmp_path, capsys):
        # A NaN state is refused where it enters (FluidState), before any
        # residual is computed.
        nan_state = {"rho": 1.0, "u": float("nan")}
        cfg = self.base_config(tmp_path, [nan_state, nan_state])
        cfg["task"]["components"] = ["momentum"]
        assert main(["--config", write_config(tmp_path, cfg)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "validation"

    def test_short_horizon_battery_is_numerical_error(self, tmp_path, capsys):
        # The second shock overtakes the first at t ~ 0.082, before any drawn
        # bump's time support fits; this used to escape as a ValueError
        # traceback with exit 1, which reads as a failed audit.
        cfg = self.base_config(
            tmp_path, [{"rho": 1.0, "u": 2.0}, {"rho": 2.0, "u": 1.0}, {"rho": 4.0, "u": -0.41421356237309515}]
        )
        cfg["solution"]["shock_positions"] = [-0.1, 0.05]
        cfg["solution"]["shock_speeds"] = [0.0, -1.8284271247461903]
        cfg["task"] = {"name": "weak-verify", "count": 4, "seed": 0}
        del cfg["tolerances"]
        assert main(["--config", write_config(tmp_path, cfg)]) == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "numerical"
        assert "validity horizon" in record["error"]["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", range(5))
    def test_shock_outside_material_interval_is_numerical_error(self, tmp_path, capsys, seed):
        # The exact gamma = 2 shock from rest leaves the narrow material box
        # [-0.2, 0.2] at speed -2.45.  Seeds 0, 2 and 3 draw a shock bump
        # whose centre lies outside the interval that stays inside the domain
        # (once a validation error, "bump radii must be positive"); seeds 1
        # and 4 find no such interval at all.
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        jump = hugoniot_solve(FluidState(1.0, 0.0), 2.0, model)
        cfg = {
            "model": model_to_dict(model),
            "solution": {
                "states": [{"rho": 1.0, "u": 0.0}, {"rho": 2.0, "u": jump.right.u}],
                "shock_positions": [0.0],
                "shock_speeds": [jump.v_s],
                "domain": {"x_min": -0.2, "x_max": 0.2, "motion": "material"},
            },
            "task": {"name": "weak-verify", "count": 4, "seed": seed},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["--config", write_config(tmp_path, cfg)]) == 4
        record = json.loads(capsys.readouterr().err)["error"]
        assert record["kind"] == "numerical"
        if seed in (0, 2, 3):
            assert record["message"].startswith("shock 0 bump centre")
            assert "lies outside (-0.2, " in record["message"]
        else:
            assert record["message"].startswith("no interval stays inside")
        assert not (tmp_path / "out").exists()

    def test_overflow_is_numerical_error(self, tmp_path, capsys):
        # u = 1e200 is finite, but u**2 overflows a double inside the
        # config's jump gate; that is a numerical failure, not a traceback.
        cfg = self.base_config(tmp_path, [{"rho": 1.0, "u": 1e200}, {"rho": 2.0, "u": 1e200}])
        assert main(["--config", write_config(tmp_path, cfg)]) == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "numerical"
        assert "overflow" in record["error"]["message"]


class TestRoundTrips:
    def test_model_round_trip(self):
        for model in (GasModel.barotropic(K=0.7, gamma=1.8), GasModel.ideal_gas(gamma=1.4, e_ref=0.9, c_v=1.1)):
            assert model_from_dict(model_to_dict(model)) == model

    def test_solution_round_trip(self):
        sol = stationary_shock_example(1.7)
        block = solution_to_dict(sol)
        back = solution_from_dict(sol.model, block)
        assert back.states == sol.states
        assert back.shock_positions_t0 == sol.shock_positions_t0
        assert back.shock_speeds == sol.shock_speeds
        assert back.domain == sol.domain

    def test_jump_round_trip(self):
        sol = stationary_shock_example(2.0)
        jump = ShockJump(left=sol.states[0], right=sol.states[1], n=-1.0, v_s=0.25)
        assert list(jump_to_dict(jump)) == ["left", "right", "n", "v_s"]
        assert jump_from_dict(jump_to_dict(jump)) == jump

    def test_emitted_solution_block_reparses(self, tmp_path):
        main(["--out-dir", str(tmp_path / "out"), "shock-example", "--gamma", "2"])
        summary = read_summary(tmp_path, "shock_example")
        doc = {
            "model": summary["model"],
            "solution": summary["solution"],
            "task": {"name": "weak-verify", "count": 2},
        }
        cfg = validate_config(doc)
        assert cfg.solution is not None
        assert cfg.solution.states == stationary_shock_example(2.0).states


class TestSerialization:
    def test_seventeen_significant_digits(self):
        assert format_float(2.0 / 3.0) == "0.66666666666666663"
        assert format_float(0.0) == "0"

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            format_float(float("nan"))

    def test_numpy_scalars_dump_like_python_scalars(self):
        for value, plain in ((np.bool_(True), True), (np.bool_(False), False), (np.int64(-7), -7),
                             (np.float64(2.0 / 3.0), 2.0 / 3.0), (np.float64(-0.0), -0.0)):
            assert dumps_deterministic(value) == dumps_deterministic(plain)
            assert dumps_deterministic({"k": [value]}) == dumps_deterministic({"k": [plain]})

    def test_deterministic_dump_sorts_keys(self):
        a = dumps_deterministic({"b": 1.0, "a": [1, 2.5]})
        b = dumps_deterministic({"a": [1, 2.5], "b": 1.0})
        assert a == b
        assert a.index('"a"') < a.index('"b"')
