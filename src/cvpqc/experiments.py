"""Experiment drivers: turn a config into (columns, rows).

``REGISTRY`` holds the one definition of each experiment: its columns, the
config grids it loops over (outermost first) with the compute function for
one task, the function that gives its default cutoff, the function that
lists what its largest task and its rows hold, and the other config fields
it reads.  A default is either fixed or ``heuristic_cutoff`` at the largest
amplitude the experiment truncates; an explicit cutoff is used as given, and
the run's own tail checks judge whether it is large enough.

A task is one point of the product of the grids other than the experiment's
``shared`` grids, which come last in its loop order: a task covers every
value of them at once, so its rows are contiguous.  A convergence task is one
b, and it builds the target once, each distinct squeezer once, and the key
rows and the plain mixture once per distinct N for all of its squeezings; an
attack config is one task, which builds the squeezers S(xi) and S(xi/2) once
per distinct squeezing for all of its alphas; a nongauss_overlap task is one
(r, phi), which builds its squeezed vacuum once for all of its (beta,
varphi); a nongauss_variance task builds its state once for all of its
thetas; a displacement_bs config is one task, which builds its input and
target once for all of its transmissions.  ``execute`` runs the tasks one
after another in one process, in row order; points whose values agree on the
grids other than the shared ones share one task.  A failing run names a point
of the first failing task, which need not be the first failing point in row
order.

Compute functions take ``(cfg, n_max, **point)``, where ``point`` maps each
grid to its value under the grid's name without the ``_list`` suffix, and
each shared grid to its whole list under its own name; they read
``tail_tol`` and the experiment's ``reads`` fields from ``cfg``, which is
``_cfg`` where a function reads neither.  They return the task's rows as one
list, in loop order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from . import attack, channel, nongauss
from .fock import (FockCutoff, SqueezeParam, quadrature_variance, squeezed_coherent_state,
                   wrap_angle)


def heuristic_cutoff(a: float) -> int:
    """Cutoff rule n_max = ceil((a + 4 sqrt(a))^2) for a disk radius or amplitude a > 0."""
    return math.ceil((a + 4.0 * math.sqrt(a)) ** 2)


@dataclass(frozen=True)
class Experiment:
    """One sweep.

    ``stages`` is a tuple of (grids in loop order, compute) pairs; rows of a
    later stage follow all rows of an earlier one.  One task covers every
    value of the ``shared`` grids, which come last in a stage's loop order (the
    N and the squeezings of a convergence sweep, the whole grid of attack, the
    (beta, varphi) of nongauss_overlap, the thetas of nongauss_variance, the
    transmissions of displacement_bs), and returns their rows in that order.
    ``default_cutoff(cfg)`` is the cutoff a config without one runs at.
    ``memory(cfg, d)`` lists what the largest task holds at d = cutoff + 1,
    and the run's rows, which ``execute`` holds until they are written, as
    (what, complex entries) pairs whose sum bounds the run's tracemalloc peak
    from cutoff 1 on; it sits beside the compute function.
    ``reads`` names the config fields other than the grids and the run
    fields that the compute functions read.
    """

    columns: tuple
    stages: tuple
    default_cutoff: Callable
    memory: Callable
    reads: tuple = ()
    shared: tuple = ()

    @property
    def grids(self) -> tuple:
        """Every grid the experiment loops over, in order of first use."""
        return tuple(dict.fromkeys(g for grids, _ in self.stages for g in grids))


def _disk_cutoff(cfg) -> int:
    """The heuristic at the largest disk radius b."""
    return heuristic_cutoff(max(cfg.b_list))


def _squeezed_disk_cutoff(cfg) -> int:
    """The heuristic at max b times e^{max r}: squeezing stretches a key's
    largest quadrature by e^r."""
    return heuristic_cutoff(max(cfg.b_list) * math.exp(max(cfg.r_list)))


def _input_beta_mag(cfg) -> float:
    """|beta| of the displacement_bs input; the vacuum is beta = 0."""
    return 0.0 if cfg.input_kind == "vacuum" else cfg.input_beta_mag


def _displacement_cutoff(cfg) -> int:
    """The heuristic at |eff| + |beta|, the largest amplitude a truncated
    displacement_bs vector holds; 20 when that amplitude is 0."""
    a = math.hypot(cfg.eff_re, cfg.eff_im) + _input_beta_mag(cfg)
    return heuristic_cutoff(a) if a > 0 else 20


def resolve_cutoff(cfg) -> int:
    """Explicit cutoff, or the experiment's default."""
    if cfg.cutoff is not None:
        return cfg.cutoff
    return REGISTRY[cfg.experiment].default_cutoff(cfg)


# --- mmstate ---------------------------------------------------------------


def _compute_mmstate(cfg, n_max, b):
    mm = channel.maximally_mixed(b, FockCutoff(n_max), cfg.tail_tol)
    diag, mass = mm.diagonal().real, float(mm.trace().real)
    return [(b, n_max, cfg.tail_tol, n, float(diag[n]), mass) for n in range(n_max + 1)]


def _matrices(d, count=6):
    # at most 6 d x d matrices are live at once (tracemalloc at cutoff 100: 1.0 d^2
    # for nongauss_*, 2.0 for mmstate, 4 beside the key stack, 5.7 for
    # displacement_bs); attack counts its own
    return (f"{count} d x d matrices, d = {d} ({d * d} entries each)", count * d * d)


def _rows(cfg, row_bytes, per_point=1):
    """The run's rows, which ``execute`` holds until the CSV is written:
    ``per_point`` rows at each point of each stage's grids, ``row_bytes`` (a
    multiple of 16) each."""
    count = per_point * sum(math.prod(len(getattr(cfg, g)) for g in grids)
                            for grids, _ in REGISTRY[cfg.experiment].stages)
    return (f"the run's {count} rows, {row_bytes} bytes each", row_bytes * count // 16)


def _single_mode_memory(cfg, d, row_bytes, per_point=1):
    # the mmstate, nongauss and displacement_bs memory.  Python objects: tracemalloc
    # peaks 7.5-10 KB above the matrices at cutoff 1 in a fresh process
    return [_matrices(d), ("Python objects", 1024), _rows(cfg, row_bytes, per_point)]


def _mmstate_memory(cfg, d):
    # d rows a b: 122-133 bytes a row under tracemalloc (2020 to 202000 rows at
    # cutoff 100), and 28 more where n passes 256, the ints CPython caches
    return _single_mode_memory(cfg, d, 176, per_point=d)


# --- conformation (ring geometry / angular weights) -------------------------


def _compute_conformation(_cfg, n_max, N, b, r, phi):
    """Every ring p = 1..N.  The vacuum weight |<0|S(xi) D(alpha)|0>|^2 of a key
    alpha = r_p e^{i theta} is e^{-r_p^2 K} / cosh r, with K the row's k-factor."""
    xi, cosh_r = SqueezeParam(r, phi), math.cosh(r)
    rows = []
    for p in range(1, N + 1):
        radius, angles = channel.ring(N, b, p)
        for q, theta in enumerate(angles.tolist(), start=1):
            k = channel.k_factor(xi, theta)
            rows.append((N, b, r, phi, n_max, p, q, radius, theta, k,
                         math.exp(-radius * radius * k) / cosh_r))
    return rows


def _conformation_memory(cfg, _d):
    # no Fock-space array; the run holds every row until it writes them: execute
    # peaks at 218-226 bytes a row (45150 to 201295 rows), 245 where every q
    # passes 256, the ints CPython caches, and 2.3 KB for a one-row run (1.7 in a
    # fresh process); the CSV writer, one row at a time, adds nothing to that peak
    rows = (len(cfg.b_list) * len(cfg.r_list) * len(cfg.phi_list)
            * sum(channel.key_count(N) for N in cfg.N_list))
    return [(f"the run's {rows} closed-form rows, 256 bytes each", 16 * rows),
            ("Python objects", 256)]


# --- convergence sweeps ------------------------------------------------------


def _compute_convergence(cfg, n_max, b, N_list, r_list=(0.0,), phi_list=(0.0,)):
    # a row prints r and phi as configured; SqueezeParam keys the squeezers
    squeezings = [(r, phi) for r in r_list for phi in phi_list]
    xis = [SqueezeParam(r, phi) for r, phi in squeezings]
    at = channel.convergence_rows(N_list, b, xis, FockCutoff(n_max), cfg.tail_tol)
    rows = []
    for (r, phi), xi in zip(squeezings, xis):
        for N in N_list:
            d_hs, bound, entropy = at[N, xi]
            rows.append((N, b, r, phi, n_max, d_hs, d_hs * (N + 1), bound, entropy))
    return rows


def _convergence_memory(cfg, d):
    # a task is one b: mixture_gamma holds the real stack [Re; Im] beside the key
    # rows of the largest N, two stacks (2.19 with the mixture at N = 32, cutoff
    # 195), and the squeezer of each distinct squeezing with r > 0.  Python
    # objects: 20 entries a key (at most 17 above the rest, at cutoff 15), and
    # 1024 more for a fresh process at cutoff 1 (10.3 KB)
    N = max(cfg.N_list)
    keys = channel.key_count(N)
    squeezers = len({SqueezeParam(r, phi) for r in cfg.r_list if r > 0 for phi in cfg.phi_list})
    terms = [_matrices(d),
             (f"the key-row stack at N = {N} ({keys * d} entries) and the plain "
              f"mixture's real stack [Re; Im] beside it", 2 * keys * d)]
    if squeezers:
        terms.append((f"{squeezers} squeezers S(xi) side by side", squeezers * d * d))
    # the rows: 138-183 bytes a row (400 to 4000 rows)
    return terms + [("Python objects, 20 entries a key and 1024 more", 20 * keys + 1024),
                    _rows(cfg, 256)]


# --- beam-splitter tap -------------------------------------------------------


def _compute_attack(cfg, n_max, alpha_list, r_list, phi_list):
    """The whole grid, alpha-major: the tap runs once per distinct squeezer, for
    every alpha, in (r, phi) order; a row prints r and phi as configured."""
    alphas = [complex(a) for a in alpha_list]
    squeezings = [(r, phi, SqueezeParam(r, phi)) for r in r_list for phi in phi_list]
    taps = {}
    for _, _, xi in squeezings:
        if xi not in taps:
            taps[xi] = attack.attack(alphas, xi, FockCutoff(n_max), cfg.tail_tol)
    return [("coherent" if r == 0.0 else "squeezed_coherent", a.real, a.imag, r, phi, n_max,
             *taps[xi][i]) for i, a in enumerate(alphas) for r, phi, xi in squeezings]


def _attack_memory(cfg, d):
    # a run is one task, which taps every alpha at one distinct squeezing at a
    # time: each tap builds its target stack beside its input stack, a row per
    # alpha each, with coherent_amplitudes' temporaries: 2.7 times the two (at
    # most 0.4 above the rest).  Beside the splitter's blocks, the stacks and the
    # objects it holds the two-mode state and apply's output, or a squeezer
    # before the blocks are built: tracemalloc peaks 2.9 d^2 above the blocks
    # and the stacks at cutoff 100 and 2.7 d^2 at 150, objects included.  Python
    # objects: 24 entries a sector and an alpha (290 and at most 300 bytes), and
    # 512 more for a fresh process at cutoff 1 (7.9 KB).  The task holds each
    # tap's tuples, a point each, until it lays out the rows, which share their
    # floats: 283-318 bytes a row with its tuple (800 to 8000 rows)
    n_alpha = len(cfg.alpha_list)
    stacks = 2 * n_alpha * d
    return [_matrices(d, 3),
            (f"the beam splitter's blocks, sectors s = 0..{d - 1} of the "
             f"{d * d}-dimensional two-mode basis", d * (d + 1) * (2 * d + 1) // 6),
            (f"2.7 times the input and target stacks ({stacks} entries, a row per "
             f"alpha each)", 27 * stacks // 10),
            ("Python objects, 24 entries a sector and an alpha and 512 more",
             512 + 24 * (d + n_alpha)),
            _rows(cfg, 400)]


# --- even-coherent vs squeezed-vacuum overlap --------------------------------


def _compute_overlap(cfg, n_max, r, phi, beta_mag_list, varphi_list):
    pairs = [(bm, vp) for bm in beta_mag_list for vp in varphi_list]
    results = nongauss.overlap_even_vs_squeezed(
        [bm for bm, _ in pairs], [wrap_angle(vp) for _, vp in pairs], SqueezeParam(r, phi),
        FockCutoff(n_max), cfg.tail_tol)
    return [(r, phi, bm, vp, n_max, exact, approx, abs(exact - approx))
            for (bm, vp), (exact, approx) in zip(pairs, results)]


def _overlap_memory(cfg, d):
    # the rows: 193-201 bytes a row (4000 to 40000 rows at cutoff 10)
    return _single_mode_memory(cfg, d, 288)


# --- quadrature variances ----------------------------------------------------


def _variance_row(kind, r, phi, bm, vp, theta, n_max, exact, closed, approx):
    return (kind, r, phi, bm, vp, theta, n_max, exact, closed, approx, abs(exact - closed))


def _compute_squeezed_variance(cfg, n_max, r, phi, theta_list):
    xi, rows = SqueezeParam(r, phi), []
    (state,) = squeezed_coherent_state(xi, [0.0], FockCutoff(n_max), cfg.tail_tol)
    for theta in theta_list:
        th = wrap_angle(theta)
        rows.append(_variance_row("squeezed_vacuum", r, phi, 0.0, 0.0, theta, n_max,
                                  quadrature_variance(state, th),
                                  nongauss.squeezed_vacuum_variance(xi, th),
                                  nongauss.squeezed_vacuum_variance_approx(xi, th)))
    return rows


def _compute_even_variance(cfg, n_max, beta_mag, varphi, theta_list):
    vp, rows = wrap_angle(varphi), []
    state = nongauss.even_coherent_state(beta_mag, vp, FockCutoff(n_max), cfg.tail_tol)
    for theta in theta_list:
        th = wrap_angle(theta)
        rows.append(_variance_row("even_coherent", 0.0, 0.0, beta_mag, varphi, theta, n_max,
                                  quadrature_variance(state, th),
                                  nongauss.even_variance_closed_form(beta_mag, vp, th),
                                  nongauss.even_variance_approx(beta_mag, vp, th)))
    return rows


def _variance_memory(cfg, d):
    # the rows: 222-248 bytes a row (800 to 8000 rows at cutoff 10)
    return _single_mode_memory(cfg, d, 288)


# --- displacement from a strong ancilla --------------------------------------


def _compute_displacement_bs(cfg, n_max, T_list):
    bm, vp = cfg.input_beta_mag, cfg.input_varphi
    eff = complex(cfg.eff_re, cfg.eff_im)
    fids = nongauss.displacement_via_beamsplitter(
        T_list, eff, _input_beta_mag(cfg), wrap_angle(vp), FockCutoff(n_max), cfg.tail_tol)
    rows = []
    for T, fid in zip(T_list, fids):
        gamma = eff / math.sqrt(T)
        rows.append((cfg.input_kind, bm, vp, T, gamma.real, gamma.imag, cfg.eff_re,
                     cfg.eff_im, n_max, fid))
    return rows


def _displacement_memory(cfg, d):
    # the rows: 86-135 bytes a row (100 to 1000 transmissions at cutoff 5), which
    # share every cell but T, gamma and the fidelity
    return _single_mode_memory(cfg, d, 352)


_CONVERGENCE_COLUMNS = ("N", "b", "r", "phi", "cutoff", "d_hs", "d_hs_times_Np1",
                        "triangle_bound", "entropy")

REGISTRY = {
    "mmstate": Experiment(
        ("b", "cutoff", "tail_tol", "n", "weight", "mass"),
        ((("b_list",), _compute_mmstate),),
        _disk_cutoff, _mmstate_memory),
    "conformation": Experiment(
        ("N", "b", "r", "phi", "cutoff", "p", "q", "r_p", "theta_pq",
         "k_factor", "vacuum_weight"),
        ((("N_list", "b_list", "r_list", "phi_list"), _compute_conformation),),
        lambda cfg: 1, _conformation_memory),
    "convergence": Experiment(
        _CONVERGENCE_COLUMNS,
        ((("b_list", "N_list"), _compute_convergence),),
        _disk_cutoff, _convergence_memory, shared=("N_list",)),
    "squeezed_convergence": Experiment(
        _CONVERGENCE_COLUMNS,
        ((("b_list", "r_list", "phi_list", "N_list"), _compute_convergence),),
        _squeezed_disk_cutoff, _convergence_memory, shared=("r_list", "phi_list", "N_list")),
    "attack": Experiment(
        ("input_kind", "alpha_re", "alpha_im", "r", "phi", "cutoff",
         "bob_purity", "eve_purity", "ent_proxy", "fidelity"),
        ((("alpha_list", "r_list", "phi_list"), _compute_attack),),
        lambda cfg: 60, _attack_memory, shared=("alpha_list", "r_list", "phi_list")),
    "nongauss_overlap": Experiment(
        ("r", "phi_xi", "beta_mag", "varphi", "cutoff", "exact", "approx",
         "abs_err"),
        ((("r_list", "phi_list", "beta_mag_list", "varphi_list"), _compute_overlap),),
        lambda cfg: 40, _overlap_memory, shared=("beta_mag_list", "varphi_list")),
    "nongauss_variance": Experiment(
        ("kind", "r", "phi_xi", "beta_mag", "varphi", "theta", "cutoff",
         "exact", "closed_form", "approx", "abs_err"),
        ((("r_list", "phi_list", "theta_list"), _compute_squeezed_variance),
         (("beta_mag_list", "varphi_list", "theta_list"), _compute_even_variance)),
        lambda cfg: 40, _variance_memory, shared=("theta_list",)),
    "displacement_bs": Experiment(
        ("input_kind", "input_beta_mag", "input_varphi", "T", "gamma_re",
         "gamma_im", "eff_re", "eff_im", "cutoff", "fidelity"),
        ((("T_list",), _compute_displacement_bs),),
        _displacement_cutoff, _displacement_memory,
        reads=("eff_re", "eff_im", "input_kind", "input_beta_mag", "input_varphi"),
        shared=("T_list",)),
}


def execute(cfg):
    """Expand the grids and evaluate them; returns (columns, rows) in grid order.

    Each stage walks the product of its grids other than the shared ones, in
    loop order, and appends the rows of each point's task.  A task is looked up
    by its point's values, so a repeated value is computed once; the sign of a
    zero is part of the value, so a -0.0 row still prints -0.0.
    """
    exp = REGISTRY[cfg.experiment]
    n_max = resolve_cutoff(cfg)
    rows = []
    for grids, compute in exp.stages:
        own = [g for g in grids if g not in exp.shared]
        shared = {g: getattr(cfg, g) for g in grids if g in exp.shared}
        tasks = {}
        for values in itertools.product(*(getattr(cfg, g) for g in own)):
            key = tuple((v, math.copysign(1.0, v)) for v in values)
            if key not in tasks:
                point = {g[:-len("_list")]: v for g, v in zip(own, values)}
                tasks[key] = compute(cfg, n_max, **point, **shared)
            rows += tasks[key]
    return list(exp.columns), rows
