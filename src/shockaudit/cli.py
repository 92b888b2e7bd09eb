"""Command-line front-end tying the solvers, audits, and emitters together.

Exit status: 0 all configured audits passed, 1 an audit failed, 2 the
configuration could not be parsed, 3 it failed validation, 4 a numerical
procedure failed.  Set SHOCKAUDIT_LOG (debug/info/warning) to control log
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import config as cfgmod
from .config import RunConfig, dumps_deterministic, format_float
from .eos import FluidState
from .errors import (
    ConfigError,
    ConfigParseError,
    InvalidJumpError,
    InvalidStateError,
    ShockAuditError,
)
from .fv_solver import Grid1D, ShockTrack, Snapshots, entropy_density_cells, field_from_solution
from .fv_solver import measure_shock, simulate
from .lagrangian_maps import augmented_energy_rate, calibrate_lambda, calibrated_flow_map
from .rh import hugoniot_solve_barotropic, hugoniot_solve_full, rh_residuals, ShockJump
from .shock1d import stationary_shock_example, volume_potential_mismatch
from .weakcheck import BumpTestFunction, SpacetimeQuadrature, standard_battery, weak_residuals

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("shockaudit")


def _setup_logging():
    level = os.environ.get("SHOCKAUDIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _parse_state_flag(text: str) -> dict:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (2, 3):
        raise ConfigError(f"--left needs numbers 'rho,u' or 'rho,u,s', got {text!r}")
    return dict(zip(("rho", "u", "s"), parts))


def _build_parser() -> argparse.ArgumentParser:
    # Global flags live on a parent parser with SUPPRESS defaults so they are
    # accepted both before and after the subcommand without clobbering.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="JSON run configuration")
    common.add_argument(
        "--out-dir", default=argparse.SUPPRESS, help="artifact directory (default: config or 'out')"
    )
    common.add_argument(
        "--format", default=argparse.SUPPRESS, help="comma-separated artifact formats: json,csv"
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized batteries"
    )

    parser = argparse.ArgumentParser(
        prog="shockaudit",
        description="Exact shock solutions, jump-condition audits, and energy balances",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="task")

    p = sub.add_parser(
        "rh-solve", parents=[common], help="solve the jump system for a prescribed density"
    )
    p.add_argument("--kind", choices=["barotropic_polytropic", "ideal_gas_entropy"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--e-ref", type=float)
    p.add_argument("--c-v", type=float)
    p.add_argument("--left", help="left state as 'rho,u' or 'rho,u,s'")
    p.add_argument("--rho-right", type=float)
    p.add_argument("--branch", choices=["admissible", "inadmissible"])

    p = sub.add_parser("shock-example", parents=[common], help="reference stationary-shock audit")
    p.add_argument("--gamma", type=float)

    p = sub.add_parser(
        "energy-audit", parents=[common], help="energy, volume, and calibrated-potential rates"
    )
    p.add_argument("--gamma", type=float)

    sub.add_parser(
        "fv-run", parents=[common], help="finite-volume run with conservation and shock audits"
    )
    sub.add_parser(
        "weak-verify", parents=[common], help="weak-form residual battery for a solution"
    )
    return parser


def _resolve_config(args) -> RunConfig:
    config_path = getattr(args, "config", None)
    cfg = cfgmod.load_config(config_path) if config_path else None

    if cfg is None:
        if not args.task:
            raise ConfigError("no task given: pass a subcommand or --config")
        task: dict = {"name": args.task}
        if args.task in ("shock-example", "energy-audit"):
            if args.gamma is None:
                raise ConfigError(f"{args.task} needs --gamma (or a config file)")
            task["gamma"] = args.gamma
        elif args.task == "rh-solve":
            if args.left is None or args.rho_right is None:
                raise ConfigError("rh-solve needs --left and --rho-right (or a config file)")
            task["left"] = _parse_state_flag(args.left)
            task["rho_right"] = args.rho_right
            if args.branch:
                task["branch"] = args.branch
            kind = args.kind or "barotropic_polytropic"
            model = {"kind": kind, "gamma": args.gamma if args.gamma is not None else 1.4}
            if kind == "barotropic_polytropic":
                model["K"] = args.K if args.K is not None else 1.0
            else:
                if args.e_ref is not None:
                    model["e_ref"] = args.e_ref
                if args.c_v is not None:
                    model["c_v"] = args.c_v
            cfg = cfgmod.validate_config({"model": model, "task": task})
            return _apply_output_flags(cfg, args)
        else:
            raise ConfigError(f"task {args.task!r} needs --config")
        cfg = cfgmod.validate_config({"task": task})
    else:
        if args.task and args.task != cfg.task_name:
            raise ConfigError(
                f"subcommand {args.task!r} disagrees with configured task {cfg.task_name!r}"
            )
        gamma_flag = getattr(args, "gamma", None)
        if gamma_flag is not None and cfg.task_name in ("shock-example", "energy-audit"):
            cfg.task["gamma"] = gamma_flag
    return _apply_output_flags(cfg, args)


def _apply_output_flags(cfg: RunConfig, args) -> RunConfig:
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        cfg.output["dir"] = out_dir
    fmt = getattr(args, "format", None)
    if fmt:
        formats = [f.strip() for f in fmt.split(",") if f.strip()]
        bad = [f for f in formats if f not in ("json", "csv")]
        if bad:
            raise ConfigError(f"unknown output formats {bad}")
        cfg.output["formats"] = formats
    seed = getattr(args, "seed", None)
    if seed is not None and cfg.task_name == "weak-verify":
        cfg.task["seed"] = seed
    return cfg


def _csv_cells(column) -> list:
    """One column's cell strings.

    A float64 array (an fv-run field) is formatted once per distinct bit
    pattern, so -0.0 and 0.0 stay apart, after a finiteness check on the
    whole array; a short list of Python scalars is formatted value by value.
    """
    if isinstance(column, np.ndarray):
        finite = np.isfinite(column)
        if not finite.all():
            format_float(float(column[~finite][0]))  # raises ConfigError
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        text = [format_float(v) for v in bits.view(np.float64).tolist()]
        return [text[i] for i in inverse.tolist()]
    return [format_float(v) if isinstance(v, float) else str(v) for v in column]


def _csv_text(header, columns) -> str:
    lines = [",".join(header)]
    lines += [",".join(row) for row in zip(*map(_csv_cells, columns))]
    return "\n".join(lines) + "\n"


def _run_shock_example(cfg: RunConfig):
    gamma = float(cfg.task["gamma"])
    sol = stationary_shock_example(gamma)
    residuals = [rh_residuals(j, sol.model) for j in sol.jumps()]
    dedt, neg_dvdt, gap = volume_potential_mismatch(sol)
    tol = cfg.tolerances["residual"]
    worst = max(r.conserved_max_abs() for r in residuals)
    summary = {
        "task": "shock-example",
        "gamma": gamma,
        "K": sol.model.K,
        "states": [cfgmod.state_to_dict(s) for s in sol.states],
        "v_s": sol.shock_speeds[0],
        "dEdt": dedt,
        "length_rate": neg_dvdt,
        "gap": gap,
        "residuals": residuals[0].as_dict(),
        "model": cfgmod.model_to_dict(sol.model),
        "solution": cfgmod.solution_to_dict(sol),
        "audit": {"max_residual": worst, "tolerance": tol, "pass": worst <= tol},
    }
    rows = [
        ("K", sol.model.K),
        ("v_s", sol.shock_speeds[0]),
        ("dEdt", dedt),
        ("length_rate", neg_dvdt),
        ("gap", gap),
        ("max_residual", worst),
    ]
    return summary, ("quantity", "value"), list(zip(*rows))


def _run_energy_audit(cfg: RunConfig):
    if cfg.solution is not None:
        sol = cfg.solution
    else:
        sol = stationary_shock_example(float(cfg.task["gamma"]))
    dedt, neg_dvdt, gap = volume_potential_mismatch(sol)
    lam_l, lam_r = calibrate_lambda(sol)
    fmap = calibrated_flow_map(sol)
    aug = augmented_energy_rate(sol, fmap)
    tol = cfg.tolerances["augmented"]
    summary = {
        "task": "energy-audit",
        "dEdt": dedt,
        "neg_dVdt_volume": neg_dvdt,
        "gap": gap,
        "lambda_calibrated": {"left": lam_l, "right": lam_r},
        "augmented_rate": aug,
        "model": cfgmod.model_to_dict(sol.model),
        "solution": cfgmod.solution_to_dict(sol),
        "audit": {"augmented_rate": aug, "tolerance": tol, "pass": abs(aug) <= tol},
    }
    rows = [
        ("dEdt", dedt),
        ("neg_dVdt_volume", neg_dvdt),
        ("gap", gap),
        ("lambda_left", lam_l),
        ("lambda_right", lam_r),
        ("augmented_rate", aug),
    ]
    return summary, ("quantity", "value"), list(zip(*rows))


def _run_rh_solve(cfg: RunConfig):
    model = cfg.model
    tol = cfg.tolerances["residual"]
    if "jump" in cfg.task:
        jump = cfgmod.jump_from_dict(cfg.task["jump"])
        summary = {"mode": "audit", "jump": cfgmod.jump_to_dict(jump)}
    else:
        left = cfgmod.state_from_dict(cfg.task["left"], "task.left")
        rho_right = float(cfg.task["rho_right"])
        branch = cfg.task.get("branch", "admissible")
        if model.carries_entropy:
            u_r, s_r, v_s = hugoniot_solve_full(left, rho_right, model, branch=branch)
            right = FluidState(rho_right, u_r, s_r)
        else:
            u_r, v_s = hugoniot_solve_barotropic(left, rho_right, model, branch=branch)
            right = FluidState(rho_right, u_r)
        jump = ShockJump(left=left, right=right, n=1.0, v_s=v_s)
        summary = {
            "mode": "solve",
            "branch": branch,
            "u_right": u_r,
            "v_s": v_s,
            "left": cfgmod.state_to_dict(left),
            "right": cfgmod.state_to_dict(right),
        }
        if model.carries_entropy:
            summary["s_right"] = s_r
    res = rh_residuals(jump, model)
    # Mechanical energy is legitimately dissipated at barotropic shocks,
    # so the audit gates only on the model's conserved components.
    worst = res.max_abs() if model.carries_entropy else res.conserved_max_abs()
    summary.update(
        task="rh-solve",
        residuals=res.as_dict(),
        model=cfgmod.model_to_dict(model),
        audit={"max_residual": worst, "tolerance": tol, "pass": worst <= tol},
    )
    rows = list(summary["residuals"].items())
    return summary, ("quantity", "value"), list(zip(*rows))


def _run_fv(cfg: RunConfig):
    model = cfg.model
    sol = cfg.solution
    task = cfg.task
    t_final = float(task["t_final"])

    grid = Grid1D(sol.domain.x_min, sol.domain.x_max, task["n_cells"])
    field0 = field_from_solution(model, grid, sol)
    snaps = Snapshots(np.linspace(0.0, t_final, task["snapshots"]), t_final)
    track = ShockTrack(grid)
    result = simulate(
        model, grid, field0, t_final, cfl=float(task["cfl"]), bc=task["bc"],
        observers=[snaps, track] if task["track_shock"] else [snaps],
    )
    measurement = measure_shock(model, grid, result.field, trajectory=track.points, k=task["k_sample"])
    tol = cfg.tolerances["conservation"]
    drift = float(np.max(result.conservation_drift))
    summary = {
        "task": "fv-run",
        "n_cells": task["n_cells"],
        "t_final": result.t,
        "n_steps": result.n_steps,
        "conservation_drift": {
            comp: float(d)
            for comp, d in zip(("mass", "momentum", "energy"), result.conservation_drift)
        },
        "shock_position_series": [[t, x] for t, x in track.points],
        "measured_residuals": measurement.residual.as_dict(),
        "measured_position": measurement.position,
        "measured_v_s": measurement.v_s,
        "model": cfgmod.model_to_dict(model),
        "audit": {"max_drift": drift, "tolerance": tol, "pass": drift <= tol},
    }

    header = ("t", "x", "rho", "u", "s") if model.carries_entropy else ("t", "x", "rho", "u")
    blocks = []
    centers = grid.centers()
    for t, snap in snaps.taken:
        rho = snap.data[0]
        block = [np.full(grid.n_cells, float(t)), centers, rho, snap.data[1] / rho]
        if model.carries_entropy:
            block.append(entropy_density_cells(model, snap.data))
        blocks.append(block)
    # One float64 array per header name, snapshots one after another; with
    # no snapshots there are no columns and the CSV is the header alone.
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    return summary, header, columns


def _run_weak_verify(cfg: RunConfig):
    sol = cfg.solution
    task = cfg.task
    default_components = ["mass", "momentum"]
    if sol.model.carries_entropy:
        default_components.append("energy")
    components = task.get("components", default_components)
    quad = SpacetimeQuadrature(order=task.get("order", 8), panels=task.get("panels", 16))
    if "bumps" in task:
        bumps = [
            BumpTestFunction(float(b["t0"]), float(b["x0"]), float(b["rt"]), float(b["rx"]))
            for b in task["bumps"]
        ]
    else:
        bumps = standard_battery(sol, count=task.get("count", 20), seed=task.get("seed", 0))
    tol = cfg.tolerances["weak_residual"]
    # One shared h evaluation per bump; rows stay component-major.
    residuals = [weak_residuals(sol, components, bump, quad) for bump in bumps]
    rows = []
    worst = 0.0
    for m, comp in enumerate(components):
        for bump, per_law in zip(bumps, residuals):
            r = per_law[m]
            worst = max(worst, abs(r))
            rows.append((comp, bump.t0, bump.x0, bump.rt, bump.rx, r))
    summary = {
        "task": "weak-verify",
        "components": list(components),
        "n_bumps": len(bumps),
        "max_abs_residual": worst,
        "model": cfgmod.model_to_dict(sol.model),
        "solution": cfgmod.solution_to_dict(sol),
        "audit": {"max_abs_residual": worst, "tolerance": tol, "pass": worst <= tol},
    }
    header = ("component", "t0", "x0", "rt", "rx", "residual")
    return summary, header, list(zip(*rows))


_TASKS = {
    "shock-example": _run_shock_example,
    "energy-audit": _run_energy_audit,
    "rh-solve": _run_rh_solve,
    "fv-run": _run_fv,
    "weak-verify": _run_weak_verify,
}


def _emit(cfg: RunConfig, summary, header, columns):
    out_dir = cfg.output["dir"]
    os.makedirs(out_dir, exist_ok=True)
    stem = cfg.task_name.replace("-", "_")
    log.info("writing %s artifacts to %s", cfg.task_name, out_dir)
    text = dumps_deterministic(summary) + "\n"
    if "json" in cfg.output["formats"]:
        with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    if "csv" in cfg.output["formats"]:
        with open(os.path.join(out_dir, f"{stem}.csv"), "w", encoding="utf-8") as fh:
            fh.write(_csv_text(header, columns))
    sys.stdout.write(text)


def _error_record(status: int, kind: str, message: str) -> str:
    return dumps_deterministic({"error": {"status": status, "kind": kind, "message": message}}) + "\n"


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        log.debug("running task %s", cfg.task_name)
        summary, header, columns = _TASKS[cfg.task_name](cfg)
        _emit(cfg, summary, header, columns)
        return EXIT_OK if summary["audit"]["pass"] else EXIT_AUDIT
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


if __name__ == "__main__":
    sys.exit(main())
