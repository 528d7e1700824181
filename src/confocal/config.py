"""Run-configuration loading: a versioned YAML key tree, schema-validated.

A config fully determines a run together with the seed; the same
(config, seed) pair reproduces every output byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from .billiard import BilliardSpec, ImpactState
from .dynamics import KINDS, PhaseState, SystemSpec
from .errors import ConfigError
from .sampling import random_impact_state, random_state

_NUMBER = {"type": "number"}
_VECTOR = {"type": "array", "items": _NUMBER, "minItems": 1}
_POSITIVE_VECTOR = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "system": {
            "type": "object",
            "required": ["kind", "axes"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(KINDS)},
                "axes": _POSITIVE_VECTOR,
                "sigma": _NUMBER,
                "sigmas": _VECTOR,
                "mu": _VECTOR,
            },
        },
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x": _VECTOR,
                "y": _VECTOR,
                "xi": _VECTOR,
                "eta": _VECTOR,
                "random": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"count": {"type": "integer", "minimum": 1}},
                },
            },
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "ctol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "billiard": {
            "type": "object",
            "required": ["axes"],
            "additionalProperties": False,
            "properties": {
                "axes": _POSITIVE_VECTOR,
                "sigma": _NUMBER,
                "mu": _VECTOR,
                "bounces": {"type": "integer", "minimum": 1},
                "oracle_check": {"type": "boolean"},
                "oracle_tol": _NUMBER,
                "poncelet_max": {"type": "integer", "minimum": 0},
                "initial": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"x": _VECTOR, "y": _VECTOR},
                },
            },
        },
        "suites": {"type": "array", "items": {"type": "string"}},
        "tolerances": {"type": "object",
                       "additionalProperties": {"type": "number"}},
        "drift_tol": _NUMBER,
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
        },
        "plot": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "input": {"type": "string"},
                "kind": {"enum": ["trajectory", "orbit", "domain"]},
                "axes": _POSITIVE_VECTOR,
                "mu": _VECTOR,
                "caustics": _VECTOR,
                "columns": {"type": "array", "items": {"type": "string"},
                            "minItems": 2, "maxItems": 2},
            },
        },
    },
}


def load_config(path) -> dict:
    """Parse and schema-validate a YAML config; failures carry the field path."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        msgs = []
        for e in errors[:5]:
            loc = "/".join(str(s) for s in e.absolute_path) or "<root>"
            msgs.append(f"{loc}: {e.message}")
        raise ConfigError("config schema violations: " + "; ".join(msgs))
    _check_tolerances({"drift_tol": raw.get("drift_tol"),
                       "billiard/oracle_tol": raw.get("billiard", {}).get("oracle_tol"),
                       **{f"tolerances/{k}": v for k, v in raw.get("tolerances", {}).items()}})
    return raw


def _check_tolerances(tols: dict) -> dict:
    """Tolerances by name (None if not given); one that is not > 0, nan
    included, is a ConfigError."""
    for name, tol in tols.items():
        if tol is not None and not tol > 0:
            raise ConfigError(f"tolerance {name} must be > 0, got {tol!r}")
    return tols


def system_from_config(cfg: dict) -> SystemSpec:
    if "system" not in cfg:
        raise ConfigError("config lacks a 'system' section")
    sc = cfg["system"]
    try:
        return SystemSpec(sc["kind"], sc["axes"], sigma=sc.get("sigma", 0.0),
                          sigmas=tuple(sc.get("sigmas", ())),
                          mu=tuple(sc.get("mu", ())))
    except Exception as exc:
        raise ConfigError(f"system: {exc}") from exc


def _require_x_and_y(init: dict, where: str) -> bool:
    """Whether `init` gives a state; a partial one is a config error rather
    than a silent fall-back to a random draw."""
    given = sorted(init.keys() & {"x", "y", "xi", "eta"})
    if given and not {"x", "y"} <= init.keys():
        raise ConfigError(f"{where} gives {', '.join(given)} but needs both x and y")
    return bool(given)


def initial_states(cfg: dict, sys: SystemSpec, seed: int) -> list[PhaseState]:
    init = cfg.get("initial", {})
    if _require_x_and_y(init, "initial"):
        if "count" in init.get("random", {}):
            raise ConfigError("initial gives both x/y and random.count; keep one")
        for key in ("x", "y", "xi", "eta"):
            if key in init and len(init[key]) != len(sys.axes):
                raise ConfigError(f"initial.{key} has {len(init[key])} entries, "
                                  f"axes {len(sys.axes)}")
        second = sorted(init.keys() & {"xi", "eta"})
        if sys.paired and len(second) < 2:
            raise ConfigError(f"{sys.kind} initial state needs xi and eta")
        if second and not sys.paired:
            raise ConfigError(f"initial gives {', '.join(second)}, but kind "
                              f"{sys.kind!r} has no second pair (xi, eta)")
        dtype = complex if sys.complex else float
        x = np.asarray(init["x"], dtype=dtype)
        y = np.asarray(init["y"], dtype=dtype)
        xi = np.asarray(init["xi"], dtype=float) if sys.paired else None
        eta = np.asarray(init["eta"], dtype=float) if sys.paired else None
        return [PhaseState(x, y, 0.0, xi, eta)]
    count = init.get("random", {}).get("count", 1)
    rng = np.random.default_rng(seed)
    return [random_state(sys, rng) for _ in range(count)]


def billiard_from_config(cfg: dict, seed: int) -> tuple[BilliardSpec, ImpactState, dict]:
    if "billiard" not in cfg:
        raise ConfigError("config lacks a 'billiard' section")
    bc = cfg["billiard"]
    try:
        spec = BilliardSpec(bc["axes"], sigma=bc.get("sigma", 0.0),
                            mu=tuple(bc.get("mu", ())))
    except Exception as exc:
        raise ConfigError(f"billiard: {exc}") from exc
    init = bc.get("initial", {})
    if _require_x_and_y(init, "billiard.initial"):
        for key in ("x", "y"):
            if len(init[key]) != len(spec.axes):
                raise ConfigError(f"billiard.initial.{key} has {len(init[key])} "
                                  f"entries, axes {len(spec.axes)}")
        s0 = ImpactState(np.asarray(init["x"], dtype=float),
                         np.asarray(init["y"], dtype=float))
        if abs(spec.boundary_residual(s0.x)) > 1e-8:
            raise ConfigError("billiard initial point is not on the boundary")
    else:
        x, y = random_impact_state(spec.axes, spec.sigma, spec.mu, seed)
        s0 = ImpactState(x, y)
    opts = {
        "bounces": bc.get("bounces", 50),
        "oracle_check": bc.get("oracle_check", False),
        "oracle_tol": bc.get("oracle_tol", 1e-6),
        "poncelet_max": bc.get("poncelet_max", 0),
    }
    return spec, s0, opts


def fmt(v: float) -> str:
    """Canonical float formatting used in every text output (17 significant digits)."""
    return format(float(v), ".17g")


def dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
