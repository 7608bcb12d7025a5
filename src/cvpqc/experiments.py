"""Experiment drivers: turn a config into (columns, rows).

``REGISTRY`` holds the one definition of each experiment: its columns, the
config grids it loops over (outermost first) with the compute function for
one task, the function that gives its default cutoff, the other config
fields it reads, and what arrays its tasks hold.  A default is either fixed
or ``heuristic_cutoff`` at the largest amplitude the experiment truncates;
an explicit cutoff is used as given, and the run's own tail checks judge
whether it is large enough.

A task is one point of the grids' product, except that a task covers every
value of the experiment's ``shared`` grids at once: a convergence task is
one (b, N) pair, and it builds the target, the key rows and the plain
mixture once for all of its squeezings; an attack task is one (r, phi)
pair, and it builds the squeezers S(xi) and S(xi/2) once for all of its
alphas; a displacement_bs config is one task, which builds its input and
target once for all of its transmissions.  Tasks and their rows hold only
plain values so they cross process boundaries; tasks come in a fixed order,
the order of the grids other than the shared ones, and ``execute`` puts
every row back at its grid position, so output is deterministic for a given
config regardless of worker count.  A task that fails raises in that order,
so a failing run names a point of the first failing task, which need not be
the first failing point in row order.

Compute functions take ``(cfg, n_max, **point)``, where ``point`` maps each
grid to its value under the grid's name without the ``_list`` suffix, and
each shared grid to its whole list under its own name; they read
``tail_tol`` and the experiment's ``reads`` fields from ``cfg``.  They
return one list of rows per grid point the task covers, in loop order.
"""
from __future__ import annotations

import itertools
import math
import os
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
    value of the ``shared`` grids (the squeezings of a convergence sweep, the
    alphas of attack, the transmissions of displacement_bs).
    ``default_cutoff(cfg)`` is the cutoff a config without one runs at.
    ``reads`` names the config fields other than the grids and the run
    fields that the compute functions read.
    ``holds`` says what the largest arrays of a task are: "matrices" (d x d),
    "key_stack" (also the M x d stack of key rows), "two_mode" (also the
    beam splitter's blocks and the task's stacks of input and target rows, one
    per alpha each) or "rows" (closed forms, no Fock-space array).
    """

    columns: tuple
    stages: tuple
    default_cutoff: Callable
    reads: tuple = ()
    shared: tuple = ()
    holds: str = "matrices"

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
    return [[(b, n_max, cfg.tail_tol, n, float(diag[n]), mass)
             for n in range(n_max + 1)]]


# --- conformation (ring geometry / angular weights) -------------------------


def _compute_conformation(cfg, n_max, N, b, r, phi):
    xi = SqueezeParam(r, phi)
    rows = []
    for p in (cfg.p_list if cfg.p_list is not None else range(1, N + 1)):
        if p > N:
            continue
        radius, angles = channel.ring(N, b, p)
        for q, theta in enumerate(angles, start=1):
            alpha = radius * complex(math.cos(theta), math.sin(theta))
            rows.append((N, b, r, phi, n_max, p, q, radius, float(theta),
                         channel.k_factor(xi, float(theta)),
                         channel.vacuum_weight(xi, alpha)))
    return [rows]


# --- convergence sweeps ------------------------------------------------------


def _compute_convergence(cfg, n_max, N, b, r_list=(0.0,), phi_list=(0.0,)):
    xis = [SqueezeParam(r, phi) for r in r_list for phi in phi_list]
    triples = channel.convergence_rows(N, b, xis, FockCutoff(n_max), cfg.tail_tol)
    return [[(N, b, xi.r, xi.phi, n_max, d_hs, d_hs * (N + 1), bound, entropy)]
            for xi, (d_hs, bound, entropy) in zip(xis, triples)]


# --- beam-splitter tap -------------------------------------------------------


def _compute_attack(cfg, n_max, r, phi, alpha_list):
    alphas = [complex(a) for a in alpha_list]
    kind = "coherent" if r == 0.0 else "squeezed_coherent"
    results = attack.attack(alphas, SqueezeParam(r, phi), FockCutoff(n_max), cfg.tail_tol)
    return [[(kind, a.real, a.imag, r, phi, n_max, *res)] for a, res in zip(alphas, results)]


# --- even-coherent vs squeezed-vacuum overlap --------------------------------


def _compute_overlap(cfg, n_max, r, phi, beta_mag, varphi):
    exact, approx = nongauss.overlap_even_vs_squeezed(
        beta_mag, wrap_angle(varphi), SqueezeParam(r, phi), FockCutoff(n_max), cfg.tail_tol)
    return [[(r, phi, beta_mag, varphi, n_max, exact, approx, abs(exact - approx))]]


# --- quadrature variances ----------------------------------------------------


def _variance_row(kind, r, phi, bm, vp, theta, n_max, exact, closed, approx):
    return [[(kind, r, phi, bm, vp, theta, n_max, exact, closed, approx, abs(exact - closed))]]


def _compute_squeezed_variance(cfg, n_max, r, phi, theta):
    xi = SqueezeParam(r, phi)
    state = squeezed_coherent_state(xi, 0.0, FockCutoff(n_max), cfg.tail_tol)
    return _variance_row("squeezed_vacuum", r, phi, 0.0, 0.0, theta, n_max,
                         quadrature_variance(state, theta),
                         nongauss.squeezed_vacuum_variance(xi, theta),
                         nongauss.squeezed_vacuum_variance_approx(xi, theta))


def _compute_even_variance(cfg, n_max, beta_mag, varphi, theta):
    vp = wrap_angle(varphi)
    state = nongauss.even_coherent_state(beta_mag, vp, FockCutoff(n_max), cfg.tail_tol)
    return _variance_row("even_coherent", 0.0, 0.0, beta_mag, varphi, theta, n_max,
                         quadrature_variance(state, theta),
                         nongauss.even_variance_closed_form(beta_mag, vp, theta),
                         nongauss.even_variance_approx(beta_mag, vp, theta))


# --- displacement from a strong ancilla --------------------------------------


def _compute_displacement_bs(cfg, n_max, T_list):
    bm, vp = cfg.input_beta_mag, cfg.input_varphi
    eff = complex(cfg.eff_re, cfg.eff_im)
    fids = nongauss.displacement_via_beamsplitter(
        T_list, eff, _input_beta_mag(cfg), wrap_angle(vp), FockCutoff(n_max), cfg.tail_tol)
    rows = []
    for T, fid in zip(T_list, fids):
        gamma = eff / math.sqrt(T)
        rows.append([(cfg.input_kind, bm, vp, T, gamma.real, gamma.imag, cfg.eff_re,
                      cfg.eff_im, n_max, fid)])
    return rows


_CONVERGENCE_COLUMNS = ("N", "b", "r", "phi", "cutoff", "d_hs", "d_hs_times_Np1",
                        "triangle_bound", "entropy")

REGISTRY = {
    "mmstate": Experiment(
        ("b", "cutoff", "tail_tol", "n", "weight", "mass"),
        ((("b_list",), _compute_mmstate),),
        _disk_cutoff),
    "conformation": Experiment(
        ("N", "b", "r", "phi", "cutoff", "p", "q", "r_p", "theta_pq",
         "k_factor", "vacuum_weight"),
        ((("N_list", "b_list", "r_list", "phi_list"), _compute_conformation),),
        _disk_cutoff, reads=("p_list",), holds="rows"),
    "convergence": Experiment(
        _CONVERGENCE_COLUMNS,
        ((("b_list", "N_list"), _compute_convergence),),
        _disk_cutoff, holds="key_stack"),
    "squeezed_convergence": Experiment(
        _CONVERGENCE_COLUMNS,
        ((("b_list", "r_list", "phi_list", "N_list"), _compute_convergence),),
        _squeezed_disk_cutoff, shared=("r_list", "phi_list"), holds="key_stack"),
    "attack": Experiment(
        ("input_kind", "alpha_re", "alpha_im", "r", "phi", "cutoff",
         "bob_purity", "eve_purity", "ent_proxy", "fidelity"),
        ((("alpha_list", "r_list", "phi_list"), _compute_attack),),
        lambda cfg: 60, shared=("alpha_list",), holds="two_mode"),
    "nongauss_overlap": Experiment(
        ("r", "phi_xi", "beta_mag", "varphi", "cutoff", "exact", "approx",
         "abs_err"),
        ((("r_list", "phi_list", "beta_mag_list", "varphi_list"), _compute_overlap),),
        lambda cfg: 40),
    "nongauss_variance": Experiment(
        ("kind", "r", "phi_xi", "beta_mag", "varphi", "theta", "cutoff",
         "exact", "closed_form", "approx", "abs_err"),
        ((("r_list", "phi_list", "theta_list"), _compute_squeezed_variance),
         (("beta_mag_list", "varphi_list", "theta_list"), _compute_even_variance)),
        lambda cfg: 40),
    "displacement_bs": Experiment(
        ("input_kind", "input_beta_mag", "input_varphi", "T", "gamma_re",
         "gamma_im", "eff_re", "eff_im", "cutoff", "fidelity"),
        ((("T_list",), _compute_displacement_bs),),
        _displacement_cutoff,
        reads=("eff_re", "eff_im", "input_kind", "input_beta_mag", "input_varphi"),
        shared=("T_list",)),
}


def _plan(exp: Experiment, cfg):
    """(tasks, order): a task (compute, cfg, n_max, point) for every
    point of the grids other than the shared ones, in loop order, and for every
    full grid point in loop order the (task, chunk) that holds its rows."""
    n_max = resolve_cutoff(cfg)
    tasks, order = [], []
    for grids, compute in exp.stages:
        outer = [g for g in grids if g not in exp.shared]
        inner = [g for g in grids if g in exp.shared]
        task_of = {}
        for i in _indices(cfg, outer):
            task_of[i] = len(tasks)
            point = {g[:-len("_list")]: getattr(cfg, g)[k] for g, k in zip(outer, i)}
            point.update((g, getattr(cfg, g)) for g in inner)
            tasks.append((compute, cfg, n_max, point))
        chunk_of = {i: c for c, i in enumerate(_indices(cfg, inner))}
        for i in _indices(cfg, grids):
            at = dict(zip(grids, i))
            order.append((task_of[tuple(at[g] for g in outer)],
                          chunk_of[tuple(at[g] for g in inner)]))
    return tasks, order


def _indices(cfg, grids):
    """Index tuples of the grids' product, in loop order."""
    return itertools.product(*(range(len(getattr(cfg, g))) for g in grids))


def _run_task(task) -> list:
    compute, cfg, n_max, point = task
    return compute(cfg, n_max, **point)


def execute(cfg, workers: int = 1):
    """Expand the grid and evaluate it; returns (columns, rows) in grid order.

    At most one worker process per task and per CPU is started: each runs
    one BLAS thread under the CLI, so more processes than CPUs only contend.
    """
    exp = REGISTRY[cfg.experiment]
    tasks, order = _plan(exp, cfg)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery costs every validate and serial run
        # tens of milliseconds of import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_task, tasks))
    else:
        chunks = [_run_task(t) for t in tasks]
    return list(exp.columns), [row for t, c in order for row in chunks[t][c]]
