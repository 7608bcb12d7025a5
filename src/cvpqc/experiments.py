"""Experiment drivers: turn a config into (columns, rows).

``REGISTRY`` holds the one definition of each experiment: its columns, the
config grids it loops over (outermost first) with the compute function for
one point of their product, its default cutoff, and whether it works on two
modes.  A task is one grid point; it and its rows hold only plain values so
they cross process boundaries, and tasks come in a fixed grid order, so
output is deterministic for a given config regardless of worker count.

Compute functions take ``(cfg, n_max, **point)``, where ``point`` maps each
grid to its value under the grid's name without the ``_list`` suffix; they
read ``tail_tol``, ``p_list`` and the ``input_*`` fields from ``cfg``.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from . import attack, channel, nongauss
from .fock import (FockCutoff, SqueezeParam, heuristic_cutoff, quadrature_variance,
                   squeezed_coherent_state)


@dataclass(frozen=True)
class Experiment:
    """One sweep.

    ``stages`` is a tuple of (grids in loop order, compute) pairs; rows of a
    later stage follow all rows of an earlier one.  The default cutoff is
    ``heuristic_cutoff(scale(cfg))`` when ``scale`` is given and positive,
    otherwise ``n_max``.
    """

    columns: tuple
    stages: tuple
    n_max: int = 0
    scale: Optional[Callable] = None
    two_mode: bool = False

    @property
    def grids(self) -> tuple:
        """Every grid the experiment loops over, in order of first use."""
        return tuple(dict.fromkeys(g for grids, _ in self.stages for g in grids))

    def heuristic_minimum(self, cfg) -> int:
        """heuristic_cutoff of the amplitude scale; 0 when there is none."""
        scale = self.scale(cfg) if self.scale else 0.0
        return heuristic_cutoff(scale) if scale > 0 else 0


def _max_b(cfg) -> float:
    return max(cfg.b_list, default=0.0)


def _input_beta_mag(cfg) -> float:
    """|beta| of the displacement_bs input; the vacuum is beta = 0."""
    return 0.0 if cfg.input_kind == "vacuum" else cfg.input_beta_mag


def _displaced_amplitude(cfg) -> float:
    """|eff| + |beta|: the largest amplitude a truncated displacement_bs vector holds."""
    return math.hypot(cfg.eff_re, cfg.eff_im) + _input_beta_mag(cfg)


def resolve_cutoff(cfg) -> int:
    """Explicit cutoff, or the experiment's default."""
    if cfg.cutoff is not None:
        return cfg.cutoff
    exp = REGISTRY[cfg.experiment]
    return exp.heuristic_minimum(cfg) or exp.n_max


# --- mmstate ---------------------------------------------------------------


def _compute_mmstate(cfg, n_max, b):
    mm = channel.maximally_mixed(b, FockCutoff(n_max), cfg.tail_tol)
    diag = mm.matrix.diagonal().real
    return [(b, n_max, cfg.tail_tol, n, float(diag[n]), mm.mass)
            for n in range(n_max + 1)]


# --- conformation (ring geometry / angular weights) -------------------------


def _compute_conformation(cfg, n_max, N, b, r, phi):
    xi = SqueezeParam(r, phi)
    rows = []
    for p in (cfg.p_list if cfg.p_list is not None else range(1, N + 1)):
        if p > N:
            continue
        spec = channel.ConformationSpec(N, b, p)
        for q, theta in enumerate(spec.angles(), start=1):
            alpha = spec.radius * complex(math.cos(theta), math.sin(theta))
            rows.append((N, b, r, phi, n_max, p, q, spec.radius, float(theta),
                         channel.k_factor(xi, float(theta)),
                         channel.vacuum_weight(xi, alpha)))
    return rows


# --- convergence sweeps ------------------------------------------------------


def _compute_convergence(cfg, n_max, N, b, r=0.0, phi=0.0):
    xi = SqueezeParam(r, phi)
    d_hs, bound, entropy = channel.convergence_point(N, b, xi, FockCutoff(n_max),
                                                     cfg.tail_tol)
    return [(N, b, xi.r, xi.phi, n_max, d_hs, d_hs * (N + 1), bound, entropy)]


# --- beam-splitter tap -------------------------------------------------------


def _compute_attack(cfg, n_max, alpha, r, phi):
    rep = attack.attack(complex(alpha), SqueezeParam(r, phi),
                        FockCutoff(n_max), cfg.tail_tol)
    return [(rep.input_kind, rep.alpha.real, rep.alpha.imag, r, phi, n_max,
             rep.bob_reduced_purity, rep.eve_reduced_purity,
             rep.entanglement_proxy, rep.bob_fidelity_vs_expected)]


# --- even-coherent vs squeezed-vacuum overlap --------------------------------


def _compute_overlap(cfg, n_max, r, phi, beta_mag, varphi):
    exact, approx = nongauss.overlap_even_vs_squeezed(
        nongauss.EvenCoherentParam(beta_mag, varphi), SqueezeParam(r, phi),
        FockCutoff(n_max), cfg.tail_tol)
    return [(r, phi, beta_mag, varphi, n_max, exact, approx, abs(exact - approx))]


# --- quadrature variances ----------------------------------------------------


def _variance_row(kind, r, phi, bm, vp, theta, n_max, exact, closed, approx):
    return [(kind, r, phi, bm, vp, theta, n_max, float(exact), float(closed),
             float(approx), abs(float(exact) - float(closed)))]


def _compute_squeezed_variance(cfg, n_max, r, phi, theta):
    xi = SqueezeParam(r, phi)
    state = squeezed_coherent_state(xi, 0.0, FockCutoff(n_max), cfg.tail_tol)
    return _variance_row("squeezed_vacuum", r, phi, 0.0, 0.0, theta, n_max,
                         quadrature_variance(state, theta, cfg.tail_tol),
                         nongauss.squeezed_vacuum_variance(xi, theta),
                         nongauss.squeezed_vacuum_variance_approx(xi, theta))


def _compute_even_variance(cfg, n_max, beta_mag, varphi, theta):
    param = nongauss.EvenCoherentParam(beta_mag, varphi)
    exact, closed = nongauss.quadrature_variance_even(param, FockCutoff(n_max), theta,
                                                      cfg.tail_tol)
    return _variance_row("even_coherent", 0.0, 0.0, beta_mag, varphi, theta, n_max,
                         exact, closed, nongauss.even_variance_approx(param, theta))


# --- displacement from a strong ancilla --------------------------------------


def _compute_displacement_bs(cfg, n_max, T):
    bm, vp = cfg.input_beta_mag, cfg.input_varphi
    gamma = complex(cfg.eff_re, cfg.eff_im) / math.sqrt(T)
    real = nongauss.BeamSplitterRealization(T, gamma)
    _, fid = nongauss.displacement_via_beamsplitter(
        real, nongauss.EvenCoherentParam(_input_beta_mag(cfg), vp), FockCutoff(n_max),
        cfg.tail_tol)
    return [(cfg.input_kind, bm, vp, T, gamma.real, gamma.imag, cfg.eff_re, cfg.eff_im,
             n_max, fid)]


_CONVERGENCE_COLUMNS = ("N", "b", "r", "phi", "cutoff", "d_hs", "d_hs_times_Np1",
                        "triangle_bound", "entropy")

REGISTRY = {
    "mmstate": Experiment(
        ("b", "cutoff", "tail_tol", "n", "weight", "mass"),
        ((("b_list",), _compute_mmstate),),
        scale=_max_b),
    "conformation": Experiment(
        ("N", "b", "r", "phi", "cutoff", "p", "q", "r_p", "theta_pq",
         "k_factor", "vacuum_weight"),
        ((("N_list", "b_list", "r_list", "phi_list"), _compute_conformation),),
        scale=_max_b),
    "convergence": Experiment(
        _CONVERGENCE_COLUMNS,
        ((("b_list", "N_list"), _compute_convergence),),
        scale=_max_b),
    "squeezed_convergence": Experiment(
        _CONVERGENCE_COLUMNS,
        ((("b_list", "r_list", "phi_list", "N_list"), _compute_convergence),),
        scale=_max_b),
    "attack": Experiment(
        ("input_kind", "alpha_re", "alpha_im", "r", "phi", "cutoff",
         "bob_purity", "eve_purity", "ent_proxy", "fidelity"),
        ((("alpha_list", "r_list", "phi_list"), _compute_attack),),
        n_max=60, two_mode=True),
    "nongauss_overlap": Experiment(
        ("r", "phi_xi", "beta_mag", "varphi", "cutoff", "exact", "approx",
         "abs_err"),
        ((("r_list", "phi_list", "beta_mag_list", "varphi_list"), _compute_overlap),),
        n_max=40),
    "nongauss_variance": Experiment(
        ("kind", "r", "phi_xi", "beta_mag", "varphi", "theta", "cutoff",
         "exact", "closed_form", "approx", "abs_err"),
        ((("r_list", "phi_list", "theta_list"), _compute_squeezed_variance),
         (("beta_mag_list", "varphi_list", "theta_list"), _compute_even_variance)),
        n_max=40),
    "displacement_bs": Experiment(
        ("input_kind", "input_beta_mag", "input_varphi", "T", "gamma_re",
         "gamma_im", "eff_re", "eff_im", "cutoff", "fidelity"),
        ((("T_list",), _compute_displacement_bs),),
        n_max=20, scale=_displaced_amplitude),
}


def _plan(exp: Experiment, cfg) -> list:
    """(compute, cfg, n_max, point) for every grid point, in loop order."""
    n_max = resolve_cutoff(cfg)
    tasks = []
    for grids, compute in exp.stages:
        names = [g[:-len("_list")] for g in grids]
        for values in itertools.product(*(getattr(cfg, g) for g in grids)):
            tasks.append((compute, cfg, n_max, dict(zip(names, values))))
    return tasks


def _run_task(task) -> list:
    compute, cfg, n_max, point = task
    return compute(cfg, n_max, **point)


def execute(cfg, workers: int = 1):
    """Expand the grid and evaluate it; returns (columns, rows) in grid order.

    At most one worker process per task and per CPU is started: each runs
    one BLAS thread under the CLI, so more processes than CPUs only contend.
    """
    exp = REGISTRY[cfg.experiment]
    tasks = _plan(exp, cfg)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_task, tasks))
    else:
        chunks = [_run_task(t) for t in tasks]
    return list(exp.columns), [row for chunk in chunks for row in chunk]
