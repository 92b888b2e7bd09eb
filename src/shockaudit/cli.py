"""Command-line front-end tying the solvers, audits, and emitters together.

Every run is one configuration document: the --config file's JSON object, or
{"task": {"name": <subcommand>}} without a file.  Each flag given writes its
value into the one key _FLAGS names for the task (so it overrides the file),
a flag outside its task row is a validation error, and the document is then
checked once by config.validate_config.

Only fv-run and weak-verify import numpy and the two array oracles
(`fv_solver`, `weakcheck`), inside their task functions: the closed-form
tasks never load them.  Neither array task loads numpy's random module: the
weak-verify battery draws numpy's default_rng(seed) stream through a
pure-Python copy in `weakcheck`, so each seed gives the same bumps.

The two array tasks also raise glibc's malloc thresholds, once per process
(`_keep_freed_heap`): M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD to
64 MiB.  Their node and cell arrays are 128 KiB to a few hundred KiB, at
or above glibc's default 128 KiB mmap threshold, so by default each such
temporary is mapped, unmapped when freed, and its pages faulted in again
on the next bump or step.  With the thresholds raised, freed arrays stay in
the process heap for reuse; the cost is that up to 64 MiB of freed heap
may stay resident instead of going back to the kernel.  Where libc has no
mallopt (macOS, Windows) nothing is changed.

Each task hands main its gated figures by tolerance name, and main writes the
summary's audit block from them: {"checks": [...], "pass": ...}, one check each.

Exit status: 0 every check passed, 1 a check failed, 2 the
configuration or the command line could not be parsed, 3 it failed
validation (an unusable output.dir included), 4 a numerical procedure
failed (an array size too large to allocate included).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial

from . import config as cfgmod
from .config import RunConfig, dumps_deterministic, format_float
from .eos import FAMILIES
from .errors import (
    ConfigError,
    ConfigParseError,
    InvalidJumpError,
    InvalidStateError,
    ShockAuditError,
)
from .lagrangian_maps import augmented_energy_rate, calibrate_lambda
from .rh import gated_residual, hugoniot_solve, rh_residuals
from .shock1d import volume_potential_mismatch

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _text(flag: str, text: str) -> str:
    return text


def _number(flag: str, text: str, kind=float):
    """A flag's text as a float (or int); anything else is a ConfigError naming the flag."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{flag} needs a number ({kind.__name__}), got {text!r}") from None


def _formats(flag: str, text: str) -> list:
    return [f.strip() for f in text.split(",") if f.strip()]


def _state(flag: str, text: str) -> dict:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise ConfigError(f"{flag} needs numbers 'rho,u' or 'rho,u,s', got {text!r}")
    return dict(zip(("rho", "u", "s"), (_number(flag, p) for p in parts)))


# flag -> (converter, {task: (block, key)}, help).  A given flag writes its
# converted value into that key of the run's document; for a task it does not
# list it is a validation error.
_FLAGS = {
    "--out-dir": (_text, dict.fromkeys(cfgmod.TASK_NAMES, ("output", "dir")), "artifact directory"),
    "--format": (_formats, dict.fromkeys(cfgmod.TASK_NAMES, ("output", "formats")),
                 "comma-separated artifact formats: json,csv"),
    "--seed": (partial(_number, kind=int), {"weak-verify": ("task", "seed")}, "bump battery seed"),
    "--gamma": (_number, {"shock-example": ("task", "gamma"), "energy-audit": ("task", "gamma"),
                          "rh-solve": ("model", "gamma")}, "adiabatic exponent"),
    "--kind": (_text, {"rh-solve": ("model", "kind")}, " or ".join(kind.value for kind in FAMILIES)),
    "--K": (_number, {"rh-solve": ("model", "K")}, "barotropic pressure scale"),
    "--e-ref": (_number, {"rh-solve": ("model", "e_ref")}, "ideal-gas reference energy"),
    "--c-v": (_number, {"rh-solve": ("model", "c_v")}, "ideal-gas heat capacity"),
    "--left": (_state, {"rh-solve": ("task", "left")}, "left state as 'rho,u' or 'rho,u,s'"),
    "--rho-right": (_number, {"rh-solve": ("task", "rho_right")}, "right density to solve for"),
    "--branch": (_text, {"rh-solve": ("task", "branch")}, "admissible (default) or inadmissible"),
}


class _Parser(argparse.ArgumentParser):
    # argparse would print usage and raise SystemExit(2) (exit_on_error differs
    # across Python versions); a bad command line is a parse error from main.
    def error(self, message):
        raise ConfigParseError(message)


# Built once per process: parse_args leaves the parser unchanged and returns
# a new namespace each call.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shockaudit",
        description="Exact shock solutions, jump-condition audits, and energy balances",
    )
    parser.add_argument("task", nargs="?", choices=cfgmod.TASK_NAMES,
                        help="task to run (default: the --config file's task)")
    parser.add_argument("--config", help="JSON run configuration")
    for flag, (_, keys, text) in _FLAGS.items():
        targets = {}
        for task, key in keys.items():
            targets.setdefault(".".join(key), []).append(task)
        sets = "; ".join(f"{key} for {', '.join(tasks)}" for key, tasks in targets.items())
        parser.add_argument(flag, help=f"{text} (sets {sets})")
    return parser


# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@cache
def _keep_freed_heap() -> None:
    """Keep freed array memory in the process heap (see the module docstring)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _resolve_config(args) -> RunConfig:
    """The --config document (or a bare task), each given flag written into its key, validated once."""
    if args.config is not None:
        doc = cfgmod.load_config(args.config)
    elif args.task:
        doc = {"task": {"name": args.task}}
    else:
        raise ConfigError("no task given: pass a subcommand or --config")
    name = cfgmod.task_name(doc)
    if args.task not in (None, name):
        raise ConfigError(f"subcommand {args.task!r} disagrees with configured task {name!r}")
    for flag, (convert, keys, _) in _FLAGS.items():
        text = getattr(args, flag[2:].replace("-", "_"))
        if text is None:
            continue
        if name not in keys:
            raise ConfigError(f"{flag} does not apply to task {name!r}")
        block, key = keys[name]
        target = doc.setdefault(block, {})
        if not isinstance(target, dict):
            raise ConfigError(f"{block} must be an object, got {type(target).__name__}")
        target[key] = convert(flag, text)
    if name == "rh-solve" and args.config is None:
        model = doc["model"] = {"kind": "barotropic_polytropic", **doc.get("model", {})}
        listed = next((f.parameters for kind, f in FAMILIES.items() if kind.value == model["kind"]), ())
        for key, value in (("gamma", 1.4), ("K", 1.0)):  # each for a family that lists it
            if key in listed:
                model.setdefault(key, value)
    return cfgmod.validate_config(doc)


def _csv_cells(column) -> list:
    """One column's cell strings.

    A short list or tuple of Python scalars is formatted value by value; a
    float64 array (an fv-run field) is formatted once per distinct bit
    pattern, so -0.0 and 0.0 stay apart, after a finiteness check on the
    whole array.
    """
    if isinstance(column, (list, tuple)):
        return [format_float(v) if isinstance(v, float) else str(v) for v in column]
    import numpy as np

    finite = np.isfinite(column)
    if not finite.all():
        format_float(float(column[~finite][0]))  # raises ConfigError
    bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    text = [format_float(v) for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _csv_text(header, columns) -> str:
    lines = [",".join(header)]
    lines += [",".join(row) for row in zip(*map(_csv_cells, columns))]
    return "\n".join(lines) + "\n"


def _run_shock_example(cfg: RunConfig):
    sol = cfg.solution
    residuals = [rh_residuals(j, sol.model) for j in sol.jumps()]
    dedt, neg_dvdt, gap = volume_potential_mismatch(sol)
    worst = max(gated_residual(r, sol.model) for r in residuals)
    summary = {
        "gamma": cfg.task["gamma"],
        "K": sol.model.K,
        "states": [cfgmod.state_to_dict(s) for s in sol.states],
        "v_s": sol.shock_speeds[0],
        "dEdt": dedt,
        "length_rate": neg_dvdt,
        "gap": gap,
        "residuals": residuals[0].as_dict(),
        "solution": cfgmod.solution_to_dict(sol),
    }
    rows = [
        ("K", sol.model.K),
        ("v_s", sol.shock_speeds[0]),
        ("dEdt", dedt),
        ("length_rate", neg_dvdt),
        ("gap", gap),
        ("max_residual", worst),
    ]
    return summary, {"residual": worst}, ("quantity", "value"), list(zip(*rows))


def _run_energy_audit(cfg: RunConfig):
    sol = cfg.solution
    dedt, neg_dvdt, gap = volume_potential_mismatch(sol)
    lam_l, lam_r = calibrate_lambda(sol)
    aug = augmented_energy_rate(sol, (lam_l, lam_r))
    summary = {
        "dEdt": dedt,
        "neg_dVdt_volume": neg_dvdt,
        "gap": gap,
        "lambda_calibrated": {"left": lam_l, "right": lam_r},
        "augmented_rate": aug,
        "solution": cfgmod.solution_to_dict(sol),
    }
    rows = [
        ("dEdt", dedt),
        ("neg_dVdt_volume", neg_dvdt),
        ("gap", gap),
        ("lambda_left", lam_l),
        ("lambda_right", lam_r),
        ("augmented_rate", aug),
    ]
    return summary, {"augmented": abs(aug)}, ("quantity", "value"), list(zip(*rows))


def _run_rh_solve(cfg: RunConfig):
    model = cfg.model
    if "jump" in cfg.task:
        jump = cfg.task["jump"]
        summary = {"mode": "audit", "jump": cfgmod.jump_to_dict(jump)}
    else:
        left = cfg.task["left"]
        branch = cfg.task["branch"]
        jump = hugoniot_solve(left, cfg.task["rho_right"], model, branch=branch)
        summary = {
            "mode": "solve",
            "branch": branch,
            "u_right": jump.right.u,
            "v_s": jump.v_s,
            "left": cfgmod.state_to_dict(left),
            "right": cfgmod.state_to_dict(jump.right),
        }
        if model.carries_entropy:
            summary["s_right"] = jump.right.s
    res = rh_residuals(jump, model)
    summary["residuals"] = res.as_dict()
    rows = list(summary["residuals"].items())
    return summary, {"residual": gated_residual(res, model)}, ("quantity", "value"), list(zip(*rows))


def _run_fv(cfg: RunConfig):
    _keep_freed_heap()
    import numpy as np

    from .fv_solver import Grid1D, ShockTrack, Snapshots, cell_primitives, field_from_solution
    from .fv_solver import measure_shock, simulate

    model = cfg.model
    sol = cfg.solution
    task = cfg.task

    grid = Grid1D(sol.domain.x_min, sol.domain.x_max, task["n_cells"])
    field0 = field_from_solution(model, grid, sol)
    snaps = Snapshots(np.linspace(0.0, task["t_final"], task["snapshots"]), task["t_final"])
    track = ShockTrack(grid)
    result = simulate(
        model, grid, field0, task["t_final"], cfl=task["cfl"], bc=task["bc"],
        observers=[snaps, track],
    )
    measurement = measure_shock(model, grid, result.field, trajectory=track.points)
    summary = {
        "n_cells": task["n_cells"],
        "t_final": result.t,
        "n_steps": result.n_steps,
        "conservation_drift": {comp: float(d) for comp, d in zip(cfgmod.LAWS, result.conservation_drift)},
        "shock_position_series": [[t, x] for t, x in track.points],
        "measured_residuals": measurement.residual.as_dict(),
        "measured_position": measurement.position,
        "measured_v_s": measurement.jump.v_s,
    }

    header = ("t", "x", "rho", "u", "s") if model.carries_entropy else ("t", "x", "rho", "u")
    centers = grid.centers()
    blocks = [
        [np.full(grid.n_cells, float(t)), centers, *cell_primitives(model, snap.data)]
        for t, snap in snaps.taken
    ]
    # One float64 array per header name, snapshots one after another; with
    # no snapshots there are no columns and the CSV is the header alone.
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    return summary, {"conservation": float(np.max(result.conservation_drift))}, header, columns


def _run_weak_verify(cfg: RunConfig):
    _keep_freed_heap()
    from .weakcheck import BumpTestFunction, SpacetimeQuadrature, battery_residuals, standard_battery

    sol = cfg.solution
    task = cfg.task
    components = task["components"]
    quad = SpacetimeQuadrature(order=task["order"], panels=task["panels"])
    if "bumps" in task:
        bumps = [BumpTestFunction(**b) for b in task["bumps"]]
    else:
        bumps = standard_battery(sol, count=task["count"], seed=task["seed"])
    # One quadrature pass for the whole battery; rows stay component-major.
    residuals = battery_residuals(sol, components, bumps, quad)
    rows = []
    worst = 0.0
    for m, comp in enumerate(components):
        for bump, per_law in zip(bumps, residuals):
            r = per_law[m]
            worst = max(worst, abs(r))
            rows.append((comp, bump.t0, bump.x0, bump.rt, bump.rx, r))
    summary = {
        "components": list(components),
        "n_bumps": len(bumps),
        "max_abs_residual": worst,
        "solution": cfgmod.solution_to_dict(sol),
    }
    header = ("component", "t0", "x0", "rt", "rx", "residual")
    return summary, {"weak_residual": worst}, header, list(zip(*rows))


_TASKS = {
    "shock-example": _run_shock_example,
    "energy-audit": _run_energy_audit,
    "rh-solve": _run_rh_solve,
    "fv-run": _run_fv,
    "weak-verify": _run_weak_verify,
}


def _emit(cfg: RunConfig, summary, header, columns):
    """Write the artifacts, then stdout; an unusable output.dir is a ConfigError."""
    out_dir = cfg.output["dir"]
    stem = cfg.task_name.replace("-", "_")
    text = dumps_deterministic(summary) + "\n"
    try:
        os.makedirs(out_dir, exist_ok=True)
        if "json" in cfg.output["formats"]:
            with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
        if "csv" in cfg.output["formats"]:
            with open(os.path.join(out_dir, f"{stem}.csv"), "w", encoding="utf-8") as fh:
                fh.write(_csv_text(header, columns))
    except OSError as exc:
        raise ConfigError(f"output.dir {out_dir!r} is not usable: {exc}") from None
    sys.stdout.write(text)


def _error_record(status: int, kind: str, message: str) -> str:
    return dumps_deterministic({"error": {"status": status, "kind": kind, "message": message}}) + "\n"


def main(argv=None) -> int:
    try:
        cfg = _resolve_config(_build_parser().parse_args(argv))
        summary, figures, header, columns = _TASKS[cfg.task_name](cfg)
        checks = [
            {"check": name, "oracle": cfgmod.TOLERANCE_ORACLES[name], "value": value,
             "tolerance": cfg.tolerances[name], "pass": value <= cfg.tolerances[name]}  # NaN fails
            for name, value in figures.items()
        ]
        audit = {"checks": checks, "pass": all(check["pass"] for check in checks)}
        summary.update(task=cfg.task_name, model=cfgmod.model_to_dict(cfg.model), audit=audit)
        _emit(cfg, summary, header, columns)
        return EXIT_OK if audit["pass"] else EXIT_AUDIT
    except ConfigParseError as exc:
        sys.stderr.write(_error_record(EXIT_PARSE, "parse", str(exc)))
        return EXIT_PARSE
    except (ConfigError, InvalidStateError, InvalidJumpError) as exc:
        sys.stderr.write(_error_record(EXIT_VALIDATION, "validation", str(exc)))
        return EXIT_VALIDATION
    except ShockAuditError as exc:
        sys.stderr.write(_error_record(EXIT_NUMERICAL, "numerical", str(exc)))
        return EXIT_NUMERICAL
    except OverflowError as exc:
        # Scalar float arithmetic (u**2, exp) past the double range.
        message = f"floating-point overflow: {exc}"
        sys.stderr.write(_error_record(EXIT_NUMERICAL, "numerical", message))
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # An array size (n_cells, snapshots, order, panels) the machine cannot allocate.
        sys.stderr.write(_error_record(EXIT_NUMERICAL, "numerical", f"out of memory: {exc}"))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
