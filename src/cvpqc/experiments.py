"""Experiment drivers: turn a config into (columns, rows).

``REGISTRY`` holds the one definition of each experiment: its columns, the
config grids it sweeps (outermost first), its compute function, the function
that gives its default cutoff, the function that lists what a run holds, and
the other config fields it reads.  A default cutoff is either fixed or
``heuristic_cutoff`` at the largest amplitude the experiment truncates; an
explicit cutoff is used as given, and the run's own tail checks judge
whether it is large enough.

``execute`` is one call, ``compute(cfg, n_max)``, which returns every row of
the sweep in grid order (``nongauss_variance`` lists its squeezed vacua, then
its even coherent states).  A row prints its grid values as configured, -0
included.  A compute keys each state it builds by its physical value, so
that a repeat, the sign of a zero or a 2 pi wrap builds no Fock-space state
twice: a ``SqueezeParam`` for each squeezing, b for each disk target and its
key mixtures, and T for each transmission, each distinct value found with
``dict.fromkeys``; ``attack.attack`` and ``channel.convergence_rows`` each
take a run's distinct values in one call.  ``conformation``,
``nongauss_overlap`` and ``nongauss_variance`` print closed forms, recomputed
at every point: they build no Fock-space state, so no tail check fails them,
and their ``cutoff`` column prints the configured or default cutoff, which
truncates nothing.  An experiment's ``limits`` refuse the inputs past which
its computation rounds by more than tail_tol, which no tail check sees: the
non-Gaussian closed forms' r and |beta|, ``conformation``'s r, and the
amplitudes the squeezer takes at each r.
A failing run names the first point whose state fails its tail check, in the
order the compute builds them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from . import attack, channel, nongauss
from .fock import FockCutoff, SqueezeParam, padded_dim, quadrature_variance, wrap_angle


def heuristic_cutoff(a: float) -> int:
    """Cutoff rule n_max = ceil((a + 4 sqrt(a))^2) for a disk radius or amplitude a > 0."""
    return math.ceil((a + 4.0 * math.sqrt(a)) ** 2)


@dataclass(frozen=True)
class Experiment:
    """One sweep.

    ``grids`` names the config grids the sweep covers, outermost first, and
    ``compute(cfg, n_max)`` returns its rows in that order.
    ``default_cutoff(cfg)`` is the cutoff a config without one runs at.
    ``memory(cfg, d)`` lists what a run holds at once at d = cutoff + 1, its
    rows included, which ``execute`` holds until they are written, as (what,
    complex entries) pairs whose sum bounds the run's tracemalloc peak from
    cutoff 1 on; it sits beside the compute function.  ``reads`` names the
    config fields other than the grids and the run fields that the compute
    reads.  ``limits(cfg)`` yields the config problems past which the compute
    rounds by more than tail_tol; ``validate`` asks for them once tail_tol is
    valid.
    """

    columns: tuple
    grids: tuple
    compute: Callable
    default_cutoff: Callable
    memory: Callable
    reads: tuple = ()
    limits: Callable = lambda cfg: ()


# 64 eps, the unit of every rounding limit: a few eps of rounding, amplified by
# the computation, must stay below tail_tol with this margin
_UNIT = 2.0 ** -46


def _squeezer_limits(cfg, grid, amplitude, what):
    """The problem at the first r of r_list at which ``squeeze_operator`` rounds
    a squeezed state of ``amplitude``, the largest of ``grid``, by more than
    tail_tol, if any; r = 0 builds no squeezer.

    The squeezer rounds a level probability of S(xi) D(alpha)|0> by at most 5
    times 2^-53 e^{|alpha|^2 tanh r} (measured over r <= 2, |alpha| <= 12 and
    cutoffs from 10 below the smallest that passes to three times it), so the
    limit keeps 64 eps e^{|alpha|^2 tanh r} at most tail_tol."""
    log_tol = math.log(cfg.tail_tol / _UNIT)
    for r in cfg.r_list:
        if r > 0 and not amplitude * amplitude * math.tanh(r) <= log_tol:
            a_max = math.sqrt(max(log_tol, 0.0) / math.tanh(r))
            yield (f"{grid} entries must be at most {a_max:.4g} at r = {r:.4g}: past it "
                   "the squeezer's recurrence, which grows rounding by up to "
                   f"e^{{|alpha|^2 tanh r}}, rounds {what} by more than tail_tol")
            return


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


def _compute_mmstate(cfg, n_max):
    """b-major: each distinct b is one disk state, a list of floats, and its
    ``mass`` the correctly rounded sum of that list."""
    cutoff = FockCutoff(n_max)
    disks = {b: channel.maximally_mixed(b, cutoff, cfg.tail_tol)
             for b in dict.fromkeys(cfg.b_list)}
    masses = {b: math.fsum(diag) for b, diag in disks.items()}
    return [(b, n_max, cfg.tail_tol, n, w, masses[b])
            for b in cfg.b_list for n, w in enumerate(disks[b])]


def _matrices(d, count=6, name="d"):
    # at most 6 d x d matrices are live at once (tracemalloc at cutoff 100: 4
    # beside the key stack, 5.7 for displacement_bs); attack counts its own
    return (f"{count} {name} x {name} matrices, {name} = {d} ({d * d} entries each)",
            count * d * d)


def _points(cfg, *grids):
    """The number of points of the product of ``grids``, by default the experiment's."""
    return math.prod(len(getattr(cfg, g)) for g in grids or REGISTRY[cfg.experiment].grids)


def _held(cfg, rows, keys):
    """What a run holds beside its arrays: its ``rows`` rows, which ``execute``
    holds until the CSV is written, each a tuple, its list slot and at most one
    fresh object of up to 32 bytes a cell; 512 bytes for each of the ``keys``
    grid points whose values a compute keys its states by; and 16 KB for a
    fresh interpreter."""
    row_bytes = 64 + 40 * len(REGISTRY[cfg.experiment].columns)
    return (f"Python objects: {rows} rows of {row_bytes} bytes, {keys} keyed values of "
            f"512 bytes and 16 KB", -(-(row_bytes * rows + 512 * keys) // 16) + 1024)


def _mmstate_memory(cfg, d):
    return [(f"the disk state's pmf walk, lists of floats over {2 * d + 64} levels, "
             f"10 entries a level", 10 * (2 * d + 64)),
            _held(cfg, d * _points(cfg), _points(cfg))]


# --- conformation (ring geometry / angular weights) -------------------------


def _compute_conformation(cfg, n_max):
    """Every ring p = 1..N of every (N, b, r, phi).  The vacuum weight
    |<0|S(xi) D(alpha)|0>|^2 of a key alpha = r_p e^{i theta} is
    e^{-r_p^2 K} / cosh r, with K the row's k-factor."""
    rows = []
    for N, b, r, phi in itertools.product(cfg.N_list, cfg.b_list, cfg.r_list, cfg.phi_list):
        xi, cosh_r = SqueezeParam(r, phi), math.cosh(r)
        for p in range(1, N + 1):
            radius, angles = channel.ring(N, b, p)
            for q, theta in enumerate(angles, start=1):
                k = channel.k_factor(xi, theta)
                rows.append((N, b, r, phi, n_max, p, q, radius, theta, k,
                             math.exp(-radius * radius * k) / cosh_r))
    return rows


def _conformation_limits(cfg):
    # k_factor cancels 1 - tanh r cos(2 theta - phi) down to 1 - tanh r =
    # 2 / (1 + e^{2r}) where the cosine is 1, rounding by a few eps tanh r: by
    # a few eps (e^{2r} - 1) / 2 relative to the value
    r_max = 0.5 * math.log1p(2.0 * cfg.tail_tol / _UNIT)
    if any(r > r_max for r in cfg.r_list):
        yield (f"r_list entries must be at most {r_max:.4g}: past it k_factor, which "
               "cancels 1 - tanh r cos(2 theta - phi) down to 2 / (1 + e^{2r}), rounds "
               "by more than tail_tol")


def _conformation_memory(cfg, _d):
    # no Fock-space array and no keyed state: its rows are all it holds; the CSV
    # writer, one row at a time, adds nothing to that peak
    return [_held(cfg, _points(cfg, "b_list", "r_list", "phi_list")
                  * sum(channel.key_count(N) for N in cfg.N_list), 0)]


# --- convergence sweeps ------------------------------------------------------


def _compute_convergence(cfg, n_max):
    """b-major, then (r, phi), then N, from one ``convergence_rows`` call over
    every distinct b, N and squeezing; a row prints r and phi as configured,
    and SqueezeParam keys the squeezers.  ``convergence`` accepts no r_list or
    phi_list, so it sweeps their default, [0.0] each."""
    squeezings = [(r, phi, SqueezeParam(r, phi)) for r in cfg.r_list for phi in cfg.phi_list]
    results = channel.convergence_rows(cfg.b_list, cfg.N_list, [xi for *_, xi in squeezings],
                                       FockCutoff(n_max), cfg.tail_tol)
    rows = []
    for b, (r, phi, xi), N in itertools.product(cfg.b_list, squeezings, cfg.N_list):
        d_hs, bound, entropy = results[b, N, xi]
        rows.append((N, b, r, phi, n_max, d_hs, d_hs * (N + 1), bound, entropy))
    return rows


def _convergence_limits(cfg):
    # a key's amplitude is below b
    return _squeezer_limits(cfg, "b_list", max(cfg.b_list, default=0.0),
                            "the squeezed key states")


def _convergence_memory(cfg, d):
    # one b at a time: mixture_gamma holds the real stack [Re; Im] beside the key
    # rows of the largest N, two stacks (3.62 MB with the mixture against a 1.66 MB
    # stack at N = 32, cutoff 195), and the squeezer of each distinct squeezing
    # with r > 0.  convergence_rows holds one squeezed mixture, and
    # squeezed_mixture one block product, at a time: at N <= 32, cutoff 195 and
    # four squeezings the run peaks at 6.74 MB, 1.6 d^2 above the squeezers and
    # the two stacks (7.95 MB while each product and mixture outlived its use),
    # under a bound of 9.7 MB.  The key rows' temporaries: 20 entries a key (at
    # most 17 above the rest, at cutoff 15).  With a squeezer, the squeezers and
    # key rows are d' = padded_dim of the largest b wide, and so is the key
    # rows' half-stack of reals, which can outgrow the real stack [Re; Im]
    N = max(cfg.N_list)
    keys = channel.key_count(N)
    squeezers = len({SqueezeParam(r, phi) for r in cfg.r_list if r > 0 for phi in cfg.phi_list})
    w = padded_dim(max(cfg.b_list), d) if squeezers else d
    terms = [_matrices(d),
             (f"the key-row stack at N = {N} ({keys * w} entries) and the plain "
              f"mixture's real stack [Re; Im] beside it", 2 * keys * w)]
    if squeezers:
        terms.append((f"{squeezers} squeezers S(xi) side by side, {d} x {w} each",
                      squeezers * d * w))
    return terms + [("the key rows' temporaries, 20 entries a key", 20 * keys),
                    _held(cfg, _points(cfg), _points(cfg, "b_list")
                          + _points(cfg, "r_list", "phi_list"))]


# --- beam-splitter tap -------------------------------------------------------


def _compute_attack(cfg, n_max):
    """alpha-major: one tap call runs every distinct squeezer, for every alpha, in
    (r, phi) order; a row prints r and phi as configured."""
    alphas = [complex(a) for a in cfg.alpha_list]
    squeezings = [(r, phi, SqueezeParam(r, phi)) for r in cfg.r_list for phi in cfg.phi_list]
    xis = list(dict.fromkeys(xi for _, _, xi in squeezings))
    taps = dict(zip(xis, attack.attack(alphas, xis, FockCutoff(n_max), cfg.tail_tol)))
    return [("coherent" if r == 0.0 else "squeezed_coherent", a.real, a.imag, r, phi, n_max,
             *taps[xi][i]) for i, a in enumerate(alphas) for r, phi, xi in squeezings]


def _attack_limits(cfg):
    # the inputs; each target, at |alpha| / sqrt 2 and r / 2, has the smaller
    # exponent |alpha|^2 tanh(r/2) / 2
    return _squeezer_limits(cfg, "alpha_list", max(map(abs, cfg.alpha_list), default=0.0),
                            "the squeezed inputs")


def _attack_memory(cfg, d):
    # the run taps every alpha at one distinct squeezing at a time: each tap
    # builds its target stack beside its input stack, a row per alpha each, with
    # coherent_amplitudes' temporaries: 2.7 times the two (at most 0.4 above the
    # rest).  Beside the splitter's blocks, the stacks and the objects it holds
    # the two-mode state and apply's output, or a squeezer: tracemalloc peaks
    # 3.0 d^2 above the blocks and the stacks at cutoff 100 and 2.7 d^2 at 150,
    # objects included.  A squeezer is d x d', and the squeezed stacks d' wide,
    # d' = padded_dim of the largest |alpha|.  Per-sector and per-alpha
    # objects: 24 entries each (290 and at most 300 bytes).  The run holds each
    # tap's tuples, a point each, until it lays out the rows, which share their
    # floats: a row's cells cover them
    n_alpha = len(cfg.alpha_list)
    squeezed = any(r > 0 for r in cfg.r_list)
    w = padded_dim(max(abs(a) for a in cfg.alpha_list), d) if squeezed else d
    stacks = 2 * n_alpha * w
    blocks = d * (d + 1) * (2 * d + 1) // 6
    return [(f"3 d x d' matrices, d = {d}, d' = {w} ({d * w} entries each)", 3 * d * w),
            (f"the beam splitter's blocks, {blocks} real entries (8 bytes each)",
             -(-blocks // 2)),
            (f"2.7 times the input and target stacks ({stacks} entries, a row per "
             f"alpha each)", 27 * stacks // 10),
            ("per-sector and per-alpha objects, 24 entries each", 24 * (d + n_alpha)),
            _held(cfg, _points(cfg), _points(cfg, "r_list", "phi_list"))]


# --- even-coherent vs squeezed-vacuum overlap --------------------------------


def _compute_overlap(cfg, n_max):
    """(r, phi)-major; each row is its closed form."""
    rows = []
    for r, phi, bm, vp in itertools.product(cfg.r_list, cfg.phi_list, cfg.beta_mag_list,
                                            cfg.varphi_list):
        exact, approx = nongauss.overlap_even_vs_squeezed(bm, wrap_angle(vp),
                                                          SqueezeParam(r, phi))
        rows.append((r, phi, bm, vp, n_max, exact, approx, abs(exact - approx)))
    return rows


def _closed_form_limits(cfg):
    # The closed forms cancel terms of size |beta|^2 and, in the squeezed vacuum's
    # variance, of size e^{2r}/8 down to e^{-2r}/4: relative to the value they
    # round by up to about 5 eps |beta|^2 and 5 eps (e^{4r} - 1)/2.  At 64 eps a
    # unit, these bounds keep every exact and closed_form cell within tail_tol of
    # its value; the overlap shares the r bound, which keeps |beta|^2 r finite.
    if any(m * m * _UNIT > cfg.tail_tol for m in cfg.beta_mag_list):
        yield (f"beta_mag_list entries must be at most {math.sqrt(cfg.tail_tol / _UNIT):.4g}: "
               "past it the closed forms, which cancel terms of size |beta|^2, "
               "round by more than tail_tol")
    r_max = 0.25 * math.log1p(2.0 * cfg.tail_tol / _UNIT)
    if any(r > r_max for r in cfg.r_list):
        yield (f"r_list entries must be at most {r_max:.4g}: past it the squeezed "
               "vacuum's variance, which cancels terms of size e^{2r} to reach "
               "e^{-2r}/4, rounds by more than tail_tol")


def _overlap_memory(cfg, _d):
    return [_held(cfg, _points(cfg), 0)]


# --- quadrature variances ----------------------------------------------------


def _variance_row(kind, r, phi, bm, vp, theta, n_max, exact, closed, approx):
    return (kind, r, phi, bm, vp, theta, n_max, exact, closed, approx, abs(exact - closed))


def _compute_variance(cfg, n_max):
    """Every squeezed vacuum, (r, phi)-major, then every even coherent state,
    (|beta|, varphi)-major, each read at every theta.  ``exact`` is the moment
    formula on the state's closed-form moments, ``closed_form`` the paper's
    variance."""
    thetas = [(theta, wrap_angle(theta)) for theta in cfg.theta_list]
    rows = []
    for r, phi in itertools.product(cfg.r_list, cfg.phi_list):
        xi = SqueezeParam(r, phi)
        # <a> = 0, <a^2> = -e^{i phi} sinh r cosh r, <a+ a> = sinh^2 r
        sh = math.sinh(xi.r)
        ea2 = complex(math.cos(xi.phi), math.sin(xi.phi)) * (-sh * math.cosh(xi.r))
        rows += [_variance_row("squeezed_vacuum", r, phi, 0.0, 0.0, theta, n_max,
                               quadrature_variance(0j, ea2, sh * sh, th),
                               nongauss.squeezed_vacuum_variance(xi, th),
                               nongauss.squeezed_vacuum_variance_approx(xi, th))
                 for theta, th in thetas]
    for bm, varphi in itertools.product(cfg.beta_mag_list, cfg.varphi_list):
        vp, b2 = wrap_angle(varphi), bm * bm
        # <a> = 0, <a^2> = beta^2, <a+ a> = |beta|^2 tanh |beta|^2
        ea2 = complex(math.cos(2.0 * vp), math.sin(2.0 * vp)) * b2
        rows += [_variance_row("even_coherent", 0.0, 0.0, bm, varphi, theta, n_max,
                               quadrature_variance(0j, ea2, b2 * math.tanh(b2), th),
                               nongauss.even_variance_closed_form(bm, vp, th),
                               nongauss.even_variance_approx(bm, vp, th))
                 for theta, th in thetas]
    return rows


def _variance_memory(cfg, _d):
    states = _points(cfg, "r_list", "phi_list") + _points(cfg, "beta_mag_list", "varphi_list")
    return [_held(cfg, states * len(cfg.theta_list), 0)]


# --- displacement from a strong ancilla --------------------------------------


def _compute_displacement_bs(cfg, n_max):
    """A row per transmission; each distinct T is mixed once."""
    bm, vp = cfg.input_beta_mag, cfg.input_varphi
    eff = complex(cfg.eff_re, cfg.eff_im)
    Ts = list(dict.fromkeys(cfg.T_list))
    fids = dict(zip(Ts, nongauss.displacement_via_beamsplitter(
        Ts, eff, _input_beta_mag(cfg), wrap_angle(vp), FockCutoff(n_max), cfg.tail_tol)))
    rows = []
    for T in cfg.T_list:
        gamma = eff / math.sqrt(T)
        rows.append((cfg.input_kind, bm, vp, T, gamma.real, gamma.imag, cfg.eff_re,
                     cfg.eff_im, n_max, fids[T]))
    return rows


def _displacement_memory(cfg, d):
    return [_matrices(d), _held(cfg, _points(cfg), _points(cfg))]


_CONVERGENCE_COLUMNS = ("N", "b", "r", "phi", "cutoff", "d_hs", "d_hs_times_Np1",
                        "triangle_bound", "entropy")

REGISTRY = {
    "mmstate": Experiment(
        ("b", "cutoff", "tail_tol", "n", "weight", "mass"),
        ("b_list",), _compute_mmstate, _disk_cutoff, _mmstate_memory),
    "conformation": Experiment(
        ("N", "b", "r", "phi", "cutoff", "p", "q", "r_p", "theta_pq",
         "k_factor", "vacuum_weight"),
        ("N_list", "b_list", "r_list", "phi_list"), _compute_conformation,
        lambda cfg: 1, _conformation_memory, limits=_conformation_limits),
    "convergence": Experiment(
        _CONVERGENCE_COLUMNS, ("b_list", "N_list"), _compute_convergence,
        _disk_cutoff, _convergence_memory),
    "squeezed_convergence": Experiment(
        _CONVERGENCE_COLUMNS, ("b_list", "r_list", "phi_list", "N_list"),
        _compute_convergence, _squeezed_disk_cutoff, _convergence_memory,
        limits=_convergence_limits),
    "attack": Experiment(
        ("input_kind", "alpha_re", "alpha_im", "r", "phi", "cutoff",
         "bob_purity", "eve_purity", "ent_proxy", "fidelity"),
        ("alpha_list", "r_list", "phi_list"), _compute_attack,
        lambda cfg: 60, _attack_memory, limits=_attack_limits),
    "nongauss_overlap": Experiment(
        ("r", "phi_xi", "beta_mag", "varphi", "cutoff", "exact", "approx",
         "abs_err"),
        ("r_list", "phi_list", "beta_mag_list", "varphi_list"), _compute_overlap,
        lambda cfg: 40, _overlap_memory, limits=_closed_form_limits),
    "nongauss_variance": Experiment(
        ("kind", "r", "phi_xi", "beta_mag", "varphi", "theta", "cutoff",
         "exact", "closed_form", "approx", "abs_err"),
        ("r_list", "phi_list", "theta_list", "beta_mag_list", "varphi_list"),
        _compute_variance, lambda cfg: 40, _variance_memory, limits=_closed_form_limits),
    "displacement_bs": Experiment(
        ("input_kind", "input_beta_mag", "input_varphi", "T", "gamma_re",
         "gamma_im", "eff_re", "eff_im", "cutoff", "fidelity"),
        ("T_list",), _compute_displacement_bs, _displacement_cutoff, _displacement_memory,
        reads=("eff_re", "eff_im", "input_kind", "input_beta_mag", "input_varphi")),
}


def execute(cfg):
    """The experiment's (columns, rows), its rows in grid order."""
    exp = REGISTRY[cfg.experiment]
    return list(exp.columns), exp.compute(cfg, resolve_cutoff(cfg))
