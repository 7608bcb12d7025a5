"""Sweep configuration: a flat JSON document, strictly parsed.

A config describes the sweep and nothing else, so it alone determines the
rows; where they go is a `cvpqc run` flag.  Unknown keys are rejected rather
than ignored so that a typo in a grid name cannot silently run a default
sweep; so is a field the experiment never reads, other than the fields in
``RUN_FIELDS``.  ``validate`` never raises; it returns a report of problems,
the cutoff, and the run's memory: the terms its experiment's ``memory``
lists for what the run holds at once and its rows, and their sum, which
must not exceed the machine's physical memory.  It does not judge whether a
cutoff is large enough: the run's own tail checks do, and a cutoff that is
too small makes the run exit 3 at the grid point it fails.
"""
from __future__ import annotations

import json
import math
import os
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
    eff_re: float = 0.3                    # displacement_bs: fixed sqrt(T)*gamma
    eff_im: float = 0.0
    input_kind: str = "even_coherent"      # displacement_bs input: vacuum | even_coherent
    input_beta_mag: float = 1.0
    input_varphi: float = 0.0
    cutoff: Optional[int] = None           # n_max; None = per-experiment default
    tail_tol: float = 1e-8

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def echo(self) -> dict:
        """The fields the experiment accepts: ``config_from_dict`` takes the
        result back, and the run it describes gives the same rows."""
        keep = _accepted_fields(REGISTRY[self.experiment])
        return {k: v for k, v in self.to_dict().items() if k in keep}


_INT_FIELDS = {"cutoff"}
_INT_LIST_FIELDS = {"N_list"}
_FLOAT_FIELDS = {"eff_re", "eff_im", "input_beta_mag", "input_varphi", "tail_tol"}
_STR_FIELDS = {"experiment", "input_kind"}
# fields every experiment accepts; the rest are grids or an experiment's ``reads``
RUN_FIELDS = {"experiment", "cutoff", "tail_tol"}


def _accepted_fields(exp) -> set:
    """The config fields experiment ``exp`` accepts."""
    return RUN_FIELDS | set(exp.grids) | set(exp.reads)


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
        if v is None and name == "cutoff":
            continue
        if name in _STR_FIELDS:
            if not isinstance(v, str):
                raise ConfigError(f"field {name!r} must be a string, got {v!r}")
            kwargs[name] = v
        elif name in _INT_FIELDS:
            kwargs[name] = _want_int(name, v)
        elif name in _FLOAT_FIELDS:
            kwargs[name] = _want_real(name, v)
        else:  # every other known field is a _list grid
            if not isinstance(v, list):
                raise ConfigError(f"field {name!r} must be a list, got {v!r}")
            if name in _INT_LIST_FIELDS:
                kwargs[name] = [_want_int(f"{name}[{i}]", x) for i, x in enumerate(v)]
            else:
                kwargs[name] = [_want_real(f"{name}[{i}]", x) for i, x in enumerate(v)]
    exp = REGISTRY.get(kwargs["experiment"])  # validate reports an unknown experiment
    if exp is not None:
        unread = sorted(set(doc) - _accepted_fields(exp))
        if unread:
            raise ConfigError(f"experiment {kwargs['experiment']!r} does not read "
                              f"field(s): {', '.join(unread)}")
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
    info: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        return "\n".join([f"problem: {p}" for p in self.problems]
                         + [f"info: {i}" for i in self.info]
                         + ["config valid" if self.ok else "config INVALID"])


def _physical_bytes() -> int:
    """Physical memory of the machine, or 0 where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


def _megabytes(entries: int, places: int) -> str:
    """MB of ``entries`` complex128 entries, in integers: a peak can pass the float range."""
    whole, part = divmod((16 * entries * 10 ** places + 500_000) // 10 ** 6, 10 ** places)
    return f"{whole}.{part:0{places}d}"


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
    elif any(b * b == 0.0 for b in cfg.b_list):  # the disk-uniform state divides by b^2
        bad("b_list entries must be large enough that b^2 does not underflow to 0")
    elif any(b * b == math.inf for b in cfg.b_list):
        bad("b_list entries must be small enough that b^2 does not overflow")
    if any(r < 0 for r in cfg.r_list):
        bad("r_list entries must be >= 0")
    if any(m < 0 for m in cfg.beta_mag_list):
        bad("beta_mag_list entries must be >= 0")
    if any(not 0 < t <= 1 for t in cfg.T_list):
        bad("T_list entries must lie in (0, 1]")
    if not 0 < cfg.tail_tol < 1:  # at 1 a row that lost all its mass would pass
        bad("tail_tol must lie in (0, 1)")
    else:  # the experiment's own limits, each judged against a valid tail_tol
        rep.problems += exp.limits(cfg)
    if cfg.cutoff is not None and cfg.cutoff < 1:
        bad("cutoff must be >= 1")
    if cfg.input_beta_mag < 0:
        bad("input_beta_mag must be >= 0")
    if cfg.input_kind not in ("vacuum", "even_coherent"):
        bad(f"input_kind must be 'vacuum' or 'even_coherent', got {cfg.input_kind!r}")

    if rep.problems:
        return rep

    try:
        n_max = resolve_cutoff(cfg)
    except OverflowError:  # b e^r past the float range
        bad(f"the amplitude scale of {cfg.experiment!r} is beyond any Fock cutoff")
        return rep
    d = n_max + 1
    rep.info.append(f"cutoff n_max = {n_max} ({'explicit' if cfg.cutoff else 'default'})")

    try:  # str raises ValueError past 4300 digits: a count that long fits no memory
        terms = exp.memory(cfg, d)
        peak = sum(entries for _, entries in terms)  # complex128 entries, 16 bytes each
        physical = _physical_bytes()
        if physical and 16 * peak > physical:
            what, entries = max(terms, key=lambda t: t[1])
            bad(f"the run needs about {_megabytes(peak, 1)} MB, more than the "
                f"{physical / 1e6:.0f} MB of physical memory; its largest part is {what} "
                f"(~{_megabytes(entries, 1)} MB)")
            return rep
        of = f" of {physical / 1e6:.0f} MB physical memory" if physical else ""
        rep.info.append(f"the run peaks at about {_megabytes(peak, 1)} MB "
                        f"({peak} complex entries){of}, the sum of:")
        rep.info += [f"  {entries} complex entries (~{_megabytes(entries, 3)} MB): {what}"
                     for what, entries in terms]
    except ValueError:
        bad("the run's count of entries is too long to print: beyond any memory")
    return rep
