"""Sweep configuration: a flat JSON document, strictly parsed.

Unknown keys are rejected rather than ignored so that a typo in a grid
name cannot silently run a default sweep.  ``validate`` never raises; it
returns a report with problems, warnings, and size estimates.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .experiments import REGISTRY, resolve_cutoff


class ConfigError(ValueError):
    """Unparseable or structurally invalid configuration input."""


@dataclass
class ExperimentConfig:
    experiment: str
    N_list: list = field(default_factory=lambda: [2, 4, 8, 16, 32])
    b_list: list = field(default_factory=lambda: [2.0])
    r_list: list = field(default_factory=lambda: [0.0])
    phi_list: list = field(default_factory=lambda: [0.0])
    alpha_list: list = field(default_factory=lambda: [1.0])
    beta_mag_list: list = field(default_factory=lambda: [0.25])
    varphi_list: list = field(default_factory=lambda: [0.0])
    theta_list: list = field(default_factory=lambda: [0.0])
    T_list: list = field(default_factory=lambda: [0.5, 0.25, 0.1, 0.04, 0.01])
    p_list: Optional[list] = None          # conformation: default = all rings 1..N
    eff_re: float = 0.3                    # displacement_bs: fixed sqrt(T)*gamma
    eff_im: float = 0.0
    input_kind: str = "even_coherent"      # displacement_bs input: vacuum | even_coherent
    input_beta_mag: float = 1.0
    input_varphi: float = 0.0
    cutoff: Optional[int] = None           # n_max; None = per-experiment default
    tail_tol: float = 1e-8
    out: Optional[str] = None
    format: str = "csv"
    workers: int = 1

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_INT_FIELDS = {"cutoff", "workers"}
_INT_LIST_FIELDS = {"N_list", "p_list"}
_FLOAT_FIELDS = {"eff_re", "eff_im", "input_beta_mag", "input_varphi", "tail_tol"}
_STR_FIELDS = {"experiment", "input_kind", "out", "format"}


def _want_int(name, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {name!r} must be an integer, got {v!r}")
    return v


def _want_real(name, v):
    # json.load also yields NaN, Infinity and integers beyond the double range
    if not isinstance(v, bool) and isinstance(v, (int, float)):
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"field {name!r} must be a finite number, got {v!r}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    if "experiment" not in doc:
        raise ConfigError("missing required field 'experiment'")

    kwargs = {}
    for name, v in doc.items():
        if v is None and name in ("p_list", "cutoff", "out"):
            continue
        if name in _STR_FIELDS:
            if not isinstance(v, str):
                raise ConfigError(f"field {name!r} must be a string, got {v!r}")
            kwargs[name] = v
        elif name in _INT_FIELDS:
            kwargs[name] = _want_int(name, v)
        elif name in _FLOAT_FIELDS:
            kwargs[name] = _want_real(name, v)
        elif name.endswith("_list"):
            if not isinstance(v, list):
                raise ConfigError(f"field {name!r} must be a list, got {v!r}")
            if name in _INT_LIST_FIELDS:
                kwargs[name] = [_want_int(f"{name}[{i}]", x) for i, x in enumerate(v)]
            else:
                kwargs[name] = [_want_real(f"{name}[{i}]", x) for i, x in enumerate(v)]
        else:
            raise ConfigError(f"unhandled config field {name!r}")  # unreachable
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError, int-string limit
        raise ConfigError(f"config {path!r} is not valid JSON: {e}") from e
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    info: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = []
        for p in self.problems:
            lines.append(f"problem: {p}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for i in self.info:
            lines.append(f"info: {i}")
        lines.append("config valid" if self.ok else "config INVALID")
        return "\n".join(lines)


def _mb(entries: int) -> float:
    return entries * 16 / 1e6  # complex128


def validate(cfg: ExperimentConfig) -> ValidationReport:
    rep = ValidationReport()
    bad = rep.problems.append

    if cfg.experiment not in REGISTRY:
        bad(f"unknown experiment {cfg.experiment!r}; choose from {', '.join(REGISTRY)}")
        return rep
    exp = REGISTRY[cfg.experiment]

    for grid in exp.grids:
        if not getattr(cfg, grid):
            bad(f"grid {grid!r} must not be empty for experiment {cfg.experiment!r}")

    if any(n < 1 for n in cfg.N_list):
        bad("N_list entries must be >= 1")
    if any(b <= 0 for b in cfg.b_list):
        bad("b_list entries must be > 0")
    if any(r < 0 for r in cfg.r_list):
        bad("r_list entries must be >= 0")
    if any(m < 0 for m in cfg.beta_mag_list):
        bad("beta_mag_list entries must be >= 0")
    if any(not 0 < t <= 1 for t in cfg.T_list):
        bad("T_list entries must lie in (0, 1]")
    if cfg.p_list is not None and any(p < 1 for p in cfg.p_list):
        bad("p_list entries must be >= 1")
    if cfg.tail_tol <= 0:
        bad("tail_tol must be > 0")
    if cfg.cutoff is not None and cfg.cutoff < 1:
        bad("cutoff must be >= 1")
    if cfg.format not in ("csv", "json"):
        bad(f"format must be 'csv' or 'json', got {cfg.format!r}")
    if cfg.workers < 1:
        bad("workers must be >= 1")
    if cfg.input_beta_mag < 0:
        bad("input_beta_mag must be >= 0")
    if cfg.experiment == "displacement_bs" and cfg.input_kind not in ("vacuum",
                                                                      "even_coherent"):
        bad(f"input_kind must be 'vacuum' or 'even_coherent', got {cfg.input_kind!r}")

    if rep.problems:
        return rep

    try:
        need = exp.heuristic_minimum(cfg)
    except OverflowError:  # the square in heuristic_cutoff, for b past ~1e154
        bad(f"amplitude scale {exp.scale(cfg):.3g} is beyond any Fock cutoff")
        return rep
    n_max = resolve_cutoff(cfg)
    d = n_max + 1
    how = "explicit" if cfg.cutoff is not None else "heuristic default" if need else "default"
    rep.info.append(f"cutoff n_max = {n_max} ({how})")

    if n_max < need:
        rep.warnings.append(
            f"cutoff {n_max} is below the heuristic minimum {need} for amplitude "
            f"scale {exp.scale(cfg):.3g}; expect tail-mass failures")

    if exp.two_mode:
        blocks = (2 * d ** 3 + d) // 3
        rep.info.append(
            f"two-mode basis dimension {d * d} ({d} per mode); the beam splitter "
            f"holds {blocks} complex block entries (~{_mb(blocks):.1f} MB), "
            f"built once and reused across the grid")
    else:
        rep.info.append(
            f"basis dimension {d}; density matrices hold {d * d} complex entries "
            f"(~{_mb(d * d):.3f} MB)")
    return rep
