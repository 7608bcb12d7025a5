"""Sweep configuration: a flat JSON document, strictly parsed.

A config describes the sweep and nothing else, so it alone determines the
rows; where they go and how many processes compute them are `cvpqc run`
flags.  Unknown keys are rejected rather than ignored so that a typo in a
grid name cannot silently run a default sweep; so is a field the experiment
never reads, other than the fields in ``RUN_FIELDS``.  ``validate``
never raises; it returns a report of problems, the cutoff and a memory
estimate, and a task (for ``conformation``, the run's rows) whose estimate
exceeds the machine's physical memory is a problem.  It does not judge
whether a cutoff is large enough: the run's own tail checks do, and a cutoff
that is too small makes the run exit 3 at the grid point it fails.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

from .channel import key_count
from .experiments import REGISTRY


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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def echo(self) -> dict:
        """The fields the experiment accepts: ``config_from_dict`` takes the
        result back, and the run it describes gives the same rows."""
        keep = _accepted_fields(REGISTRY[self.experiment])
        return {k: v for k, v in self.to_dict().items() if k in keep}


_INT_FIELDS = {"cutoff"}
_INT_LIST_FIELDS = {"N_list", "p_list"}
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
        if v is None and name in ("p_list", "cutoff"):
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
        lines = []
        for p in self.problems:
            lines.append(f"problem: {p}")
        for i in self.info:
            lines.append(f"info: {i}")
        lines.append("config valid" if self.ok else "config INVALID")
        return "\n".join(lines)


def _mb(entries: float) -> float:
    return entries * 16 / 1e6  # complex128


def _physical_bytes() -> int:
    """Physical memory of the machine, or 0 where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


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
    if cfg.p_list is not None:  # only conformation reads it
        if not cfg.p_list:
            bad("p_list must not be empty: it selects no ring (leave it out for every ring)")
        elif any(p < 1 for p in cfg.p_list):
            bad("p_list entries must be >= 1")
        elif cfg.N_list and max(cfg.p_list) > max(cfg.N_list):  # ring p exists for N >= p
            bad(f"p_list entry {max(cfg.p_list)} exceeds every N in N_list, "
                f"so it selects no ring")
    if not 0 < cfg.tail_tol < 1:  # at 1 a row that lost all its mass would pass
        bad("tail_tol must lie in (0, 1)")
    if cfg.cutoff is not None and cfg.cutoff < 1:
        bad("cutoff must be >= 1")
    if cfg.input_beta_mag < 0:
        bad("input_beta_mag must be >= 0")
    if cfg.input_kind not in ("vacuum", "even_coherent"):
        bad(f"input_kind must be 'vacuum' or 'even_coherent', got {cfg.input_kind!r}")

    if rep.problems:
        return rep

    n_max = cfg.cutoff
    if n_max is None:
        try:
            n_max = exp.default_cutoff(cfg)
        except OverflowError:  # b e^r past the float range
            bad(f"the amplitude scale of {cfg.experiment!r} is beyond any Fock cutoff")
            return rep
    d = n_max + 1
    rep.info.append(f"cutoff n_max = {n_max} "
                    f"({'default' if cfg.cutoff is None else 'explicit'})")

    physical = _physical_bytes()
    if exp.holds == "rows":
        rows = (len(cfg.b_list) * len(cfg.r_list) * len(cfg.phi_list)
                * sum(key_count(N) for N in cfg.N_list))
        # the run holds every row until it writes them: under tracemalloc, execute
        # peaks at 218-226 bytes a row (45150 to 201295 rows) and at 245 where
        # every q passes 256, the ints CPython caches; the CSV writer, one row at
        # a time, adds nothing to that peak
        need = 256 * rows
        if physical and need > physical:
            bad(f"the run's {rows} rows need more than the {physical / 1e6:.0f} MB of "
                f"physical memory; lower N")
            return rep
        rep.info.append(f"rows are closed forms: a task holds no Fock-space array; the run "
                        f"holds its {rows} rows (~{need / 1e6:.1f} MB) until it writes them")
        return rep
    # Upper bound on a task's peak, in complex entries, from tracemalloc: at most
    # 6 d x d matrices are live at once (measured 1.0 d^2 for nongauss_*, 2.0 for
    # mmstate, 4 beside the key stack, 5.7 for displacement_bs and 5.6 beside the
    # splitter blocks for attack at cutoff 100).  Exact integers, so no cutoff
    # overflows it.
    peak = 6 * d * d
    if exp.holds == "two_mode":
        blocks = d * (d + 1) * (2 * d + 1) // 6  # sectors s = 0..n_max, (s + 1)^2 each
        # an attack task stacks its input and its target row for every alpha, and
        # builds the target stack beside the input stack: coherent_amplitudes'
        # 4.4 stacks of temporaries (as for the key rows) beside one stack, 2.7
        # times the two (tracemalloc measured at most 2.5 above the rest, at
        # cutoff 20 and 64 alphas, and 1.0 from cutoff 60 on)
        stacks = 2 * len(cfg.alpha_list) * d
        peak += blocks + 27 * stacks // 10
    elif exp.holds == "key_stack":
        N = max(cfg.N_list)
        stack = key_count(N) * d
        # coherent_amplitudes holds log-magnitude, phase and product temporaries
        # beside the stack it builds: tracemalloc peaks at 4.4 stacks (7.27 MB
        # against 1.66 MB at N = 32, cutoff 195), and at 4.1 for larger N
        peak += 44 * stack // 10
    if physical and 16 * peak > physical:
        bad(f"the largest task needs more than the {physical / 1e6:.0f} MB of physical "
            f"memory; lower the cutoff{' or N' if exp.holds == 'key_stack' else ''}")
        return rep

    if exp.holds == "two_mode":
        rep.info.append(
            f"two-mode basis dimension {d * d} ({d} per mode); the beam splitter "
            f"holds {blocks} complex block entries (~{_mb(blocks):.1f} MB), "
            f"built once and reused across the grid; a task's input and target "
            f"stacks hold {stacks} complex entries, one row per alpha each")
    else:
        memory = (f"basis dimension {d}; density matrices hold {d * d} complex entries "
                  f"(~{_mb(d * d):.3f} MB)")
        if exp.holds == "key_stack":
            memory += (f"; the key-row stack at N = {N} holds {stack} complex entries, "
                       f"and building it peaks at 4.4 times that (~{_mb(4.4 * stack):.3f} MB)")
        rep.info.append(memory)
    rep.info.append(f"the largest task peaks at about {_mb(peak):.1f} MB"
                    + (f" of {physical / 1e6:.0f} MB physical memory" if physical else ""))
    return rep
