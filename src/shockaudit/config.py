"""Strict JSON run-configuration schema shared by the CLI and the library.

Unknown keys are rejected everywhere (including tolerance names) so typos
fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

from .eos import FAMILIES, FluidState, GasKind, GasModel
from .errors import ConfigError, ConfigParseError, InvalidStateError
from .rh import RESIDUAL_TOL, ShockJump, gated_residual, rh_residuals
from .shock1d import Domain1D, PiecewiseShockSolution, stationary_shock_example

TOLERANCE_DEFAULTS = {
    "residual": RESIDUAL_TOL,
    "weak_residual": 1e-8,
    "conservation": 1e-10,
    "augmented": 1e-12,
}

# The oracle behind the figure each tolerance gates: an audit check's "oracle" tag.
TOLERANCE_ORACLES = {
    "residual": "closed_form",
    "weak_residual": "weak",
    "conservation": "fv",
    "augmented": "closed_form",
}

LAWS = ("mass", "momentum", "energy")

# One row per task: its task-block keys, each with its default (None: no
# default); the top-level blocks it reads besides task, tolerances and output
# (any other block would be ignored); and those it cannot run without.
TASKS = {
    "rh-solve": ({"left": None, "rho_right": None, "branch": "admissible", "jump": None},
                 ("model",), ("model",)),
    "shock-example": ({"gamma": None}, (), ()),
    "energy-audit": ({"gamma": None}, ("model", "solution"), ()),
    "fv-run": ({"n_cells": 400, "t_final": 0.5, "cfl": 0.45, "bc": "outflow", "snapshots": 3},
               ("model", "solution"), ("model", "solution")),
    "weak-verify": ({"components": None, "count": 20, "seed": 0, "order": 8, "panels": 16, "bumps": None},
                    ("model", "solution"), ("model", "solution")),
}

TASK_NAMES = tuple(TASKS)


def _check_keys(block: dict, allowed, required, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {type(block).__name__}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(block))
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _require_int(task: dict, key: str, minimum: int) -> None:
    """task[key] must be an integer (not a bool) of at least minimum."""
    value = task[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"task.{key} must be an integer >= {minimum}, got {value!r}")


def _is_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer past the double range
        return False


def _real(value, where: str) -> float:
    """A finite JSON number as a float; a string, bool or non-finite value is a ConfigError."""
    if not _is_real(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _reals(block: dict, key: str, where: str) -> tuple:
    values = block[key]
    if not isinstance(values, list):
        raise ConfigError(f"{where}.{key} must be a list, got {values!r}")
    return tuple(_real(v, f"{where}.{key}[{i}]") for i, v in enumerate(values))


def _validate_weak_task(task: dict) -> None:
    """Quadrature sizes and the bump battery must make a non-vacuous audit."""
    for key, minimum in (("order", 1), ("panels", 1), ("count", 1), ("seed", 0)):
        _require_int(task, key, minimum)
    for key in ("components", "bumps"):
        if key in task and not (isinstance(task[key], list) and task[key]):
            raise ConfigError(f"task.{key} must be a non-empty list")
    components = task.get("components", ())
    for i, component in enumerate(components):
        if component not in LAWS:
            raise ConfigError(f"unknown component {component!r}")
        if component in components[:i]:
            raise ConfigError(f"component {component!r} is repeated")
    keys = ("rt", "rx", "t0", "x0")
    bumps = []  # new dicts: the caller's bumps keep their JSON numbers
    for i, bump in enumerate(task.get("bumps", [])):
        _check_keys(bump, keys, keys, f"task.bumps[{i}]")
        bumps.append({key: _real(bump[key], f"task.bumps[{i}].{key}") for key in keys})
    if bumps:
        task["bumps"] = bumps


def _validate_fv_task(task: dict) -> None:
    """Grid size, run length and snapshot count must be usable as given, never truncated."""
    _require_int(task, "n_cells", 4)
    _require_int(task, "snapshots", 0)
    if not (_is_real(task["t_final"]) and task["t_final"] > 0.0):
        raise ConfigError(f"task.t_final must be a finite number > 0, got {task['t_final']!r}")
    if not (_is_real(task["cfl"]) and 0.0 < task["cfl"] <= 1.0):
        raise ConfigError(f"task.cfl must be a finite number in (0, 1], got {task['cfl']!r}")
    if task["bc"] not in ("outflow", "periodic"):
        raise ConfigError(f"task.bc must be 'outflow' or 'periodic', got {task['bc']!r}")


def model_to_dict(model: GasModel) -> dict:
    names = FAMILIES[model.kind].parameters
    return {"kind": model.kind.value, **{name: getattr(model, name) for name in names}}


def model_from_dict(block: dict) -> GasModel:
    _check_keys(block, {f.name for f in fields(GasModel)}, {"kind"}, "model")
    try:
        kind = GasKind(block["kind"])
    except ValueError:
        raise ConfigError(f"unknown model kind {block['kind']!r}") from None
    parameters = FAMILIES[kind].parameters
    required = {name for name, (default, _, _) in parameters.items() if default is None}
    _check_keys(block, {"kind", *parameters}, required, f"model of kind {kind.value!r}")
    return GasModel(kind, **{name: _real(block[name], f"model.{name}") for name in parameters if name in block})


def state_to_dict(state: FluidState) -> dict:
    out = {"rho": state.rho, "u": state.u}
    if state.s is not None:
        out["s"] = state.s
    return out


def state_from_dict(block: dict, where: str = "state") -> FluidState:
    _check_keys(block, {"rho", "u", "s"}, {"rho", "u"}, where)
    s = block.get("s")
    return FluidState(
        _real(block["rho"], f"{where}.rho"),
        _real(block["u"], f"{where}.u"),
        None if s is None else _real(s, f"{where}.s"),
    )


def jump_to_dict(jump: ShockJump) -> dict:
    return {
        "left": state_to_dict(jump.left),
        "right": state_to_dict(jump.right),
        "n": jump.n,
        "v_s": jump.v_s,
    }


def jump_from_dict(block: dict) -> ShockJump:
    _check_keys(block, {"left", "right", "n", "v_s"}, {"left", "right"}, "jump")
    return ShockJump(
        left=state_from_dict(block["left"], "jump.left"),
        right=state_from_dict(block["right"], "jump.right"),
        n=_real(block.get("n", 1.0), "jump.n"),
        v_s=_real(block.get("v_s", 0.0), "jump.v_s"),
    )


def solution_to_dict(sol: PiecewiseShockSolution) -> dict:
    return {
        "states": [state_to_dict(s) for s in sol.states],
        "shock_positions": list(sol.shock_positions_t0),
        "shock_speeds": list(sol.shock_speeds),
        "domain": {
            "x_min": sol.domain.x_min,
            "x_max": sol.domain.x_max,
            "motion": sol.domain.motion,
        },
    }


def solution_from_dict(model: GasModel, block: dict) -> PiecewiseShockSolution:
    _check_keys(
        block,
        {"states", "shock_positions", "shock_speeds", "domain"},
        {"states", "shock_positions", "shock_speeds"},
        "solution",
    )
    dom_block = block.get("domain", {"x_min": -1.0, "x_max": 1.0})
    _check_keys(dom_block, {"x_min", "x_max", "motion"}, {"x_min", "x_max"}, "solution.domain")
    domain = Domain1D(
        _real(dom_block["x_min"], "solution.domain.x_min"),
        _real(dom_block["x_max"], "solution.domain.x_max"),
        dom_block.get("motion", "fixed"),
    )
    if not isinstance(block["states"], list):
        raise ConfigError(f"solution.states must be a list, got {block['states']!r}")
    states = tuple(state_from_dict(s, f"solution.states[{i}]") for i, s in enumerate(block["states"]))
    return PiecewiseShockSolution(
        model=model,
        states=states,
        shock_positions_t0=_reals(block, "shock_positions", "solution"),
        shock_speeds=_reals(block, "shock_speeds", "solution"),
        domain=domain,
    )


@dataclass
class RunConfig:
    """Validated run configuration: one task plus the blocks it references."""

    task_name: str
    task: dict
    model: GasModel | None
    solution: PiecewiseShockSolution | None
    tolerances: dict
    output: dict


def task_name(raw: dict) -> str:
    """The task a raw configuration document names, after checking its top-level keys."""
    _check_keys(raw, {"model", "solution", "task", "tolerances", "output"}, {"task"}, "config")
    task_block = raw["task"]
    if not isinstance(task_block, dict) or "name" not in task_block:
        raise ConfigError("task block must carry a name")
    name = task_block["name"]
    if name not in TASK_NAMES:
        raise ConfigError(f"unknown task {name!r}; expected one of {list(TASK_NAMES)}")
    return name


def validate_config(raw: dict) -> RunConfig:
    """Validate raw (strict mode) into a RunConfig whose new task block has defaults filled, reals as floats.

    rh-solve's `left` comes back as a FluidState and its `jump` as a ShockJump.
    """
    name = task_name(raw)
    keys, reads, needs = TASKS[name]
    unread = sorted(set(raw) - {"task", "tolerances", "output"} - set(reads))
    if unread:
        raise ConfigError(f"task {name!r} does not read the {unread} block(s)")
    given = raw["task"]
    _check_keys(given, {"name", *keys}, {"name"}, "task")
    task_block = {key: value for key, value in keys.items() if value is not None}
    task_block.update(given)
    if name == "weak-verify":
        _validate_weak_task(task_block)
    elif name == "fv-run":
        _validate_fv_task(task_block)
    for key in ("gamma", "rho_right", "t_final", "cfl"):
        if key in task_block:
            task_block[key] = _real(task_block[key], f"task.{key}")
    if task_block.get("branch", "admissible") not in ("admissible", "inadmissible"):
        raise ConfigError(f"task.branch must be 'admissible' or 'inadmissible', got {task_block['branch']!r}")

    tolerances = dict(TOLERANCE_DEFAULTS)
    if "tolerances" in raw:
        _check_keys(raw["tolerances"], set(TOLERANCE_DEFAULTS), set(), "tolerances")
        for key, val in raw["tolerances"].items():
            if not (_is_real(val) and val > 0.0):
                raise ConfigError(f"tolerance {key!r} must be a finite number > 0, got {val!r}")
            tolerances[key] = float(val)

    output = {"dir": "out", "formats": ["json", "csv"]}
    if "output" in raw:
        _check_keys(raw["output"], {"dir", "formats"}, set(), "output")
        output.update(raw["output"])
        if not (isinstance(output["dir"], str) and output["dir"]):
            raise ConfigError(f"output.dir must be a non-empty string, got {output['dir']!r}")
        if not isinstance(output["formats"], list):
            raise ConfigError(f"output.formats must be a list, got {output['formats']!r}")
        bad = [f for f in output["formats"] if f not in ("json", "csv")]
        if bad:
            raise ConfigError(f"unknown output formats {bad}")

    model = model_from_dict(raw["model"]) if "model" in raw else None
    solution = None
    if "solution" in raw:
        if model is None:
            raise ConfigError("a solution block needs a model block")
        solution = solution_from_dict(model, raw["solution"])
        # The one jump gate: a claim that breaks the jump conditions never reaches a task.
        for i, jump in enumerate(solution.jumps()):
            bad = gated_residual(rh_residuals(jump, model), model)
            if not bad <= tolerances["residual"]:  # NaN fails too
                raise InvalidStateError(f"shock {i} violates the jump conditions (residual {bad:.3e})")

    for block in needs:
        if block not in raw:
            raise ConfigError(f"task {name!r} needs a {block} block")
    if name == "shock-example" and "gamma" not in task_block:
        raise ConfigError("task 'shock-example' needs gamma")
    if name == "energy-audit" and ("gamma" in task_block) == (solution is not None):
        raise ConfigError("task 'energy-audit' needs exactly one of gamma and a solution block")
    if name == "energy-audit" and "gamma" in task_block and model is not None:
        raise ConfigError("task 'energy-audit' takes gamma or a model block, not both")
    if name == "weak-verify" and "bumps" in given:
        battery_keys = sorted({"count", "seed"} & set(given))
        if battery_keys:
            raise ConfigError(f"task 'weak-verify' takes bumps or {battery_keys}, not both")
    if name == "rh-solve" and "jump" in given:
        solve_keys = sorted({"left", "rho_right", "branch"} & set(given))
        if solve_keys:
            raise ConfigError(f"task 'rh-solve' takes a jump block or {solve_keys}, not both")
    elif name == "rh-solve":
        for key in ("left", "rho_right"):
            if key not in task_block:
                raise ConfigError(f"task 'rh-solve' needs {key!r} (or a jump block)")

    if name == "weak-verify":
        # A barotropic shock dissipates energy, so its energy residual is not 0
        # and cannot be gated against a tolerance (rh.gated_residual skips it too).
        if not model.carries_entropy and "energy" in task_block.get("components", ()):
            raise ConfigError("component 'energy' needs an entropy-carrying model:"
                              " a barotropic shock dissipates energy")
        task_block.setdefault("components", list(LAWS if model.carries_entropy else LAWS[:2]))
    if "jump" in task_block:
        task_block["jump"] = jump_from_dict(task_block["jump"])
    elif "left" in task_block:
        task_block["left"] = state_from_dict(task_block["left"], "task.left")
    if "gamma" in task_block:  # shock-example, or energy-audit without a solution block
        solution = stationary_shock_example(task_block["gamma"])
        model = solution.model
    return RunConfig(name, task_block, model, solution, tolerances, output)


def load_config(path: str) -> dict:
    """The JSON object in the file at path, parsed but not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read configuration {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigParseError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError("configuration must be a JSON object")
    return raw


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering used by every emitted artifact."""
    if math.isnan(x) or math.isinf(x):
        raise ConfigError(f"non-finite value {x} cannot be serialized")
    return format(x, ".17g")


def dumps_deterministic(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and fixed float formatting (byte-stable)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    # A numpy scalar can exist only once numpy has been imported.
    np = sys.modules.get("numpy")
    if isinstance(obj, bool) or np is not None and isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, int) or np is not None and isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, float) or np is not None and isinstance(obj, np.floating):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_deterministic(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            parts.append(f"{inner}{json.dumps(str(key))}: {dumps_deterministic(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise ConfigError(f"cannot serialize {type(obj).__name__}")
