"""The four seeded workloads: each builds a deck of CLI audits plus their checks.

A deck is built once per process from the seed; the timed phase replays it
in order, whole passes at a time, so every count (and the set of failing
cases) depends only on the seed.  Inputs that set an audit's cost are
stratified rather than drawn independently, so one seed's deck costs about
what another's does.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from reference import (
    REFERENCE_LEFT,
    REFERENCE_RIGHT,
    Gas,
    State,
    close,
    energy_rate,
    hugoniot,
    jump_residuals,
    reference_K,
)

# Program defaults the checks rely on (config.TOLERANCE_DEFAULTS, fv-run snapshots).
WEAK_TOL = 1e-8
CONSERVATION_TOL = 1e-10
FV_SNAPSHOTS = 3
# Roundoff allowance, relative to the magnitudes a recomputed residual cancels.
ROUNDOFF = 1e-11
# A captured shock may sit this many cells from x0 + v_s t.
POSITION_CELLS = 3.0
# stderr text of the known fv-run defect: locate_shock's isolation test only
# excludes +-3 cells, so a smeared moving HLL shock can fail it.
ISOLATION_GATE = "no isolated discontinuity"

EULER = Gas(gamma=1.4, entropy=True)
EULER_LEFT = State(1.0, 0.0, 0.0)
EULER_X0 = 0.5
# fv_euler_sweep keeps the shock at least this far inside x_min = 0.
EULER_MARGIN = 0.1


@dataclass
class Case:
    """One CLI audit: its argv, artifact layout and independent check."""

    label: str
    argv: list
    stem: str
    csv_lines: int
    check: Callable[[dict], str | None]
    known_defect: str | None = None


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list:
    """One uniform draw from each of k equal slices of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _write_config(work_dir: str, name: str, doc: dict) -> str:
    path = os.path.join(work_dir, "configs", f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _solution(left: State, right: State, x0: float, v_s: float, domain) -> dict:
    return {
        "states": [left.config(), right.config()],
        "shock_positions": [x0],
        "shock_speeds": [v_s],
        "domain": {"x_min": domain[0], "x_max": domain[1]},
    }


def _residual_problem(gas: Gas, left: State, right: State, v_s: float, laws: int) -> str | None:
    for name, (res, scale) in zip(("mass", "momentum", "energy"), jump_residuals(gas, left, right, v_s)[:laws]):
        if abs(res) > ROUNDOFF * scale:
            return f"recomputed {name} residual {res:.3g} (scale {scale:.3g})"
    return None


def _emitted_state(block: dict) -> State:
    return State(block["rho"], block["u"], block.get("s"))


# --- finite-volume workloads -------------------------------------------------


def _check_fv(n_cells: int, t_final: float, x_expected: float, dx: float):
    def check(s: dict) -> str | None:
        if s["n_cells"] != n_cells:
            return f"n_cells {s['n_cells']} != {n_cells}"
        if not close(s["t_final"], t_final, rel=1e-12):
            return f"t_final {s['t_final']} != {t_final}"
        drift = max(s["conservation_drift"].values())
        if not drift <= CONSERVATION_TOL:
            return f"conservation drift {drift:.3g} > {CONSERVATION_TOL:g}"
        offset = abs(s["measured_position"] - x_expected)
        if not offset <= POSITION_CELLS * dx:
            return f"shock at {s['measured_position']:.6g}, expected {x_expected:.6g} +- {POSITION_CELLS:g} dx"
        if s["audit"]["pass"] is not True:
            return "program audit did not pass"
        return None

    return check


def _fv_case(work_dir, out_dir, name, label, doc, x_expected, known_defect=None) -> Case:
    task = doc["task"]
    dom = doc["solution"]["domain"]
    dx = (dom["x_max"] - dom["x_min"]) / task["n_cells"]
    path = _write_config(work_dir, name, doc)
    return Case(
        label=label,
        argv=["fv-run", "--config", path, "--out-dir", out_dir],
        stem="fv_run",
        csv_lines=1 + FV_SNAPSHOTS * task["n_cells"],
        check=_check_fv(task["n_cells"], task["t_final"], x_expected, dx),
        known_defect=known_defect,
    )


def fv_reference(rng: random.Random, work_dir: str, out_dir: str) -> list:
    cases = []
    for i, gamma in enumerate(_strata(rng, 10, 1.4, 3.0)):
        gas = Gas(gamma=gamma, K=reference_K(gamma))
        doc = {
            "model": gas.config(),
            "solution": _solution(REFERENCE_LEFT, REFERENCE_RIGHT, 0.0, 0.0, (-1.0, 1.0)),
            "task": {"name": "fv-run", "n_cells": 3200, "t_final": 0.05},
        }
        cases.append(_fv_case(work_dir, out_dir, f"fv_reference_{i}", f"gamma={gamma:.6f}", doc, 0.0))
    return cases


def fv_euler_sweep(rng: random.Random, work_dir: str, out_dir: str) -> list:
    # Per resolution, one draw in each cell of a 5 x 4 grid over (rho_right,
    # t_final): the mix of weak and strong, short and long runs is the same
    # for every seed, so is the deck's cost.
    specs = [
        (n_cells, 1.5 + 0.5 * (i + rng.random()), 0.1 + 0.1 * (j + rng.random()))
        for n_cells in (100, 200, 400)
        for i in range(5)
        for j in range(4)
    ]
    rng.shuffle(specs)
    cases = []
    for i, (n_cells, rho_right, t_seeded) in enumerate(specs):
        right, v_s = hugoniot(EULER, EULER_LEFT, rho_right)
        t_final = min(t_seeded, (EULER_X0 - EULER_MARGIN) / abs(v_s))
        doc = {
            "model": EULER.config(),
            "solution": _solution(EULER_LEFT, right, EULER_X0, v_s, (0.0, 1.0)),
            "task": {"name": "fv-run", "n_cells": n_cells, "t_final": t_final},
        }
        label = f"rho_right={rho_right:.6f} n_cells={n_cells} t_final={t_final:.6f}"
        cases.append(
            _fv_case(work_dir, out_dir, f"fv_euler_{i}", label, doc, EULER_X0 + v_s * t_final, ISOLATION_GATE)
        )
    return cases


# --- weak-form workload ---------------------------------------------------------


def _check_weak(components: list, count: int):
    def check(s: dict) -> str | None:
        if s["components"] != components or s["n_bumps"] != count:
            return f"ran {s['components']} x {s['n_bumps']} bumps, asked {components} x {count}"
        if not s["max_abs_residual"] <= WEAK_TOL:
            return f"weak residual {s['max_abs_residual']:.3g} > {WEAK_TOL:g}"
        if s["audit"]["pass"] is not True:
            return "program audit did not pass"
        return None

    return check


def weak_battery(rng: random.Random, work_dir: str, out_dir: str) -> list:
    counts = [4, 5, 6, 7, 8] * 5
    ref_counts = rng.sample(counts, len(counts))
    # deck[0] is the untimed warm-up inside setup_s: give it the middle bump
    # count, so set-up time does not depend on the seed.
    middle = ref_counts.index(6)
    ref_counts[0], ref_counts[middle] = ref_counts[middle], ref_counts[0]
    euler_counts = rng.sample(counts, len(counts))
    rhos = _strata(rng, len(counts), 1.5, 4.0)
    gamma = 2.0
    ref_gas = Gas(gamma=gamma, K=reference_K(gamma))
    cases = []
    for i in range(len(counts)):
        right, v_s = hugoniot(EULER, EULER_LEFT, rhos[i])
        for kind, gas, solution, comps, count, label in (
            ("reference", ref_gas, _solution(REFERENCE_LEFT, REFERENCE_RIGHT, 0.0, 0.0, (-1.0, 1.0)),
             ["mass", "momentum"], ref_counts[i], "gamma=2 reference shock"),
            ("euler", EULER, _solution(EULER_LEFT, right, EULER_X0, v_s, (-1.0, 1.0)),
             ["mass", "momentum", "energy"], euler_counts[i], f"euler rho_right={rhos[i]:.6f}"),
        ):
            battery_seed = rng.randrange(2 ** 31)
            doc = {
                "model": gas.config(),
                "solution": solution,
                "task": {"name": "weak-verify", "count": count, "seed": battery_seed},
            }
            path = _write_config(work_dir, f"weak_{kind}_{i}", doc)
            cases.append(Case(
                label=f"{label} bumps={count} battery_seed={battery_seed}",
                argv=["weak-verify", "--config", path, "--out-dir", out_dir],
                stem="weak_verify",
                csv_lines=1 + len(comps) * count,
                check=_check_weak(comps, count),
            ))
    return cases


# --- closed-form workload -------------------------------------------------------


def _check_rh_solve(gas: Gas, left: State, rho_right: float, branch: str):
    expected, v_s = hugoniot(gas, left, rho_right, branch)
    laws = 3 if gas.entropy else 2

    def check(s: dict) -> str | None:
        if s["mode"] != "solve" or s["branch"] != branch:
            return f"mode/branch {s['mode']}/{s['branch']}"
        if not (close(s["u_right"], expected.u) and close(s["v_s"], v_s)):
            return f"(u_right, v_s) = ({s['u_right']}, {s['v_s']}), expected ({expected.u}, {v_s})"
        if gas.entropy and not close(s["s_right"], expected.s):
            return f"s_right {s['s_right']} != {expected.s}"
        problem = _residual_problem(gas, _emitted_state(s["left"]), _emitted_state(s["right"]), s["v_s"], laws)
        if problem:
            return problem
        if s["audit"]["pass"] is not True:
            return "program audit did not pass"
        return None

    return check


def _check_rh_audit(gas: Gas, left: State, right: State, v_s: float):
    expected = jump_residuals(gas, left, right, v_s)

    def check(s: dict) -> str | None:
        if s["mode"] != "audit":
            return f"mode {s['mode']}"
        for name, (res, scale) in zip(("mass", "momentum", "energy"), expected):
            if abs(s["residuals"][name] - res) > ROUNDOFF * scale:
                return f"{name} residual {s['residuals'][name]!r}, expected {res!r}"
        if s["audit"]["pass"] is not True:
            return "program audit did not pass"
        return None

    return check


def _reference_rates(gamma: float):
    gas = Gas(gamma=gamma, K=reference_K(gamma))
    dedt = energy_rate(gas, REFERENCE_LEFT, REFERENCE_RIGHT, 0.0)
    return gas, dedt, REFERENCE_RIGHT.u - REFERENCE_LEFT.u


def _check_shock_example(gamma: float):
    gas, dedt, length_rate = _reference_rates(gamma)

    def check(s: dict) -> str | None:
        if not close(s["K"], gas.K, rel=1e-12):
            return f"K {s['K']} != {gas.K}"
        if s["v_s"] != 0.0:
            return f"v_s {s['v_s']} != 0"
        if not (close(s["dEdt"], dedt) and close(s["length_rate"], length_rate)
                and close(s["gap"], abs(dedt - length_rate))):
            return f"(dEdt, length_rate, gap) = ({s['dEdt']}, {s['length_rate']}, {s['gap']})"
        emitted = Gas(gamma=gamma, K=s["K"])
        left, right = (_emitted_state(b) for b in s["states"])
        problem = _residual_problem(emitted, left, right, s["v_s"], 2)
        if problem:
            return problem
        if s["audit"]["pass"] is not True:
            return "program audit did not pass"
        return None

    return check


def _check_energy_audit(gamma: float):
    _, dedt, length_rate = _reference_rates(gamma)
    # Gauge lambda_left = 0; lambda_right (u_R - v_s) = dE/dt with v_s = 0.
    lam_right = dedt / REFERENCE_RIGHT.u

    def check(s: dict) -> str | None:
        if not (close(s["dEdt"], dedt) and close(s["neg_dVdt_volume"], length_rate)):
            return f"(dEdt, neg_dVdt_volume) = ({s['dEdt']}, {s['neg_dVdt_volume']})"
        lam = s["lambda_calibrated"]
        if lam["left"] != 0.0 or not close(lam["right"], lam_right):
            return f"lambda ({lam['left']}, {lam['right']}), expected (0, {lam_right})"
        if not abs(s["augmented_rate"]) <= ROUNDOFF * abs(dedt):
            return f"augmented rate {s['augmented_rate']:.3g} is not 0"
        if s["audit"]["pass"] is not True:
            return "program audit did not pass"
        return None

    return check


def _jump_gas(rng: random.Random, entropy: bool) -> tuple:
    """A gas, a left state and a downstream density (half compressive)."""
    left_rho, left_u = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    ratio = rng.uniform(1.25, 3.0) if rng.random() < 0.5 else rng.uniform(0.4, 0.8)
    if entropy:
        gas = Gas(gamma=rng.uniform(1.2, 1.8), entropy=True)
        left = State(left_rho, left_u, rng.uniform(-1.0, 1.0))
    else:
        gas = Gas(gamma=rng.uniform(1.2, 3.0), K=rng.uniform(0.5, 2.0))
        left = State(left_rho, left_u)
    return gas, left, left_rho * ratio


def jump_sweep(rng: random.Random, work_dir: str, out_dir: str) -> list:
    cases = []
    out = ["--out-dir", out_dir]
    for i in range(24):
        entropy = i % 4 >= 2
        branch = "admissible" if i % 2 == 0 else "inadmissible"
        gas, left, rho_right = _jump_gas(rng, entropy)
        kind = gas.config()["kind"]
        argv = ["rh-solve", "--kind", kind, "--gamma", repr(gas.gamma)]
        if not entropy:
            argv += ["--K", repr(gas.K)]
        left_flag = ",".join(repr(v) for v in (left.rho, left.u, left.s) if v is not None)
        argv += ["--left", left_flag, "--rho-right", repr(rho_right), "--branch", branch] + out
        cases.append(Case(
            label=f"rh-solve {kind} {branch} left={left_flag} rho_right={rho_right!r}",
            argv=argv, stem="rh_solve", csv_lines=5,
            check=_check_rh_solve(gas, left, rho_right, branch),
        ))
    for i in range(8):
        gas, left, rho_right = _jump_gas(rng, entropy=i % 2 == 1)
        branch = "admissible" if i % 4 < 2 else "inadmissible"
        right, v_s = hugoniot(gas, left, rho_right, branch)
        doc = {
            "model": gas.config(),
            "task": {"name": "rh-solve",
                     "jump": {"left": left.config(), "right": right.config(), "n": 1.0, "v_s": v_s}},
        }
        path = _write_config(work_dir, f"rh_audit_{i}", doc)
        cases.append(Case(
            label=f"rh-solve audit {gas.config()['kind']} {branch} config={os.path.basename(path)}",
            argv=["rh-solve", "--config", path] + out, stem="rh_solve", csv_lines=5,
            check=_check_rh_audit(gas, left, right, v_s),
        ))
    for gamma in _strata(rng, 8, 1.2, 3.0):
        cases.append(Case(
            label=f"shock-example gamma={gamma!r}",
            argv=["shock-example", "--gamma", repr(gamma)] + out, stem="shock_example", csv_lines=7,
            check=_check_shock_example(gamma),
        ))
    for gamma in _strata(rng, 8, 1.2, 3.0):
        cases.append(Case(
            label=f"energy-audit gamma={gamma!r}",
            argv=["energy-audit", "--gamma", repr(gamma)] + out, stem="energy_audit", csv_lines=7,
            check=_check_energy_audit(gamma),
        ))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "fv_reference": fv_reference,
    "fv_euler_sweep": fv_euler_sweep,
    "weak_battery": weak_battery,
    "jump_sweep": jump_sweep,
}


def build_deck(workload: str, seed: int, work_dir: str, out_dir: str) -> list:
    """Write the workload's configs under work_dir and return its cases."""
    os.makedirs(os.path.join(work_dir, "configs"), exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work_dir, out_dir)
