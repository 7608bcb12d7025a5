"""Workload grids for the sweep benchmark, their seeded redraws, and the
honesty screen every drawn grid point must pass.

Seed 0 is the fixed grid each workload is defined by.  Any other seed
redraws the angles and amplitudes (phi, varphi, theta, alpha, beta) inside
the range the seed-0 values span, and keeps b, N, the grid sizes and the
cutoffs.  The squeeze magnitudes r and the transmissions T keep their
seed-0 values too: `expm` squares more often as r, or the beam-splitter
angle asin(sqrt T), grows, so redrawing them would change how much work a
run does (on a 2-core Xeon VM, seeds with r near 0.15 ran large_mixtures
in 4.2 s, seeds with r near 0.28 in 4.9 s).  With them fixed, the cost of a
workload does not depend on the seed.

Every config is written out in full (cutoff, tail_tol and the grids an
experiment iterates over), so a change to the program's defaults cannot
change what the benchmark feeds it.
"""
from __future__ import annotations

import math
import random

import numpy as np

PI = math.pi
TAIL_TOL = 1e-8
N_LIST = [2, 4, 8, 16, 32]


class ScreenError(RuntimeError):
    """A grid point would lose more than tail_tol to truncation."""


class Draw:
    """A grid whose seed-0 values are fixed and whose other seeds draw the same
    number of values uniformly from [lo, hi]."""

    def __init__(self, seed0, lo, hi):
        self.seed0, self.lo, self.hi = list(seed0), lo, hi

    def draw(self, rng: random.Random) -> list:
        vals = (rng.uniform(self.lo, self.hi) for _ in self.seed0)
        return sorted(min(self.hi, max(self.lo, float(f"{v:.4g}"))) for v in vals)


# config id -> fields; a Draw field is redrawn for seeds other than 0
CONFIGS = {
    # paper scale: b = 2, N <= 32, cutoff about 60
    "mmstate_b2": {"experiment": "mmstate", "b_list": [2.0], "cutoff": 59},
    "conformation_n32": {
        "experiment": "conformation", "N_list": [32], "b_list": [2.0],
        "r_list": [0.5], "cutoff": 60,
        "phi_list": Draw([0.0, PI / 2, -PI / 2, -PI / 4], -PI / 2, PI / 2)},
    "convergence_b2": {"experiment": "convergence", "N_list": N_LIST,
                       "b_list": [2.0], "cutoff": 59},
    "squeezed_convergence_b2": {
        "experiment": "squeezed_convergence", "N_list": N_LIST, "b_list": [2.0],
        "cutoff": 59,
        "r_list": [0.1, 0.3],
        "phi_list": Draw([0.0, PI / 2], 0.0, PI / 2)},
    "attack_paper": {
        "experiment": "attack", "phi_list": [0.0], "cutoff": 60,
        "alpha_list": Draw([0.5, 1.0, 2.0], 0.5, 2.0),
        "r_list": [0.0, 0.3, 0.6]},
    "nongauss_overlap": {
        "experiment": "nongauss_overlap", "cutoff": 40,
        "r_list": [0.05, 0.1, 0.2],
        "phi_list": Draw([0.0, 1.0], 0.0, 1.0),
        "beta_mag_list": Draw([0.1, 0.25, 0.5], 0.1, 0.5),
        "varphi_list": Draw([0.0, PI / 2], 0.0, PI / 2)},
    "nongauss_variance": {
        "experiment": "nongauss_variance", "cutoff": 40,
        "phi_list": [0.0], "varphi_list": [0.0],
        "r_list": [0.05, 0.1],
        "beta_mag_list": Draw([0.1, 0.25], 0.1, 0.25),
        "theta_list": Draw([0.0, 0.5, 1.0, PI / 2], 0.0, PI / 2)},
    # the documented displacement_bs defaults, spelled out
    "displacement_bs_paper": {
        "experiment": "displacement_bs", "cutoff": 98,
        "eff_re": 0.3, "eff_im": 0.0, "input_kind": "even_coherent",
        "input_beta_mag": 1.0, "input_varphi": 0.0,
        "T_list": [0.5, 0.25, 0.1, 0.04, 0.01]},
    # large tier: b = 5, cutoff 195
    "mmstate_b5": {"experiment": "mmstate", "b_list": [5.0], "cutoff": 195},
    "convergence_b5": {"experiment": "convergence", "N_list": N_LIST,
                       "b_list": [5.0], "cutoff": 195},
    "squeezed_convergence_b5": {
        "experiment": "squeezed_convergence", "N_list": N_LIST, "b_list": [5.0],
        "cutoff": 195,
        "r_list": [0.1, 0.3],
        "phi_list": Draw([0.0, PI / 2], 0.0, PI / 2)},
    # two-mode gates: the 50:50 tap and ancilla displacement
    "attack_tap": {
        "experiment": "attack", "cutoff": 100,
        "alpha_list": Draw([0.5, 1.0, 2.0, 3.0], 0.5, 3.0),
        "r_list": [0.0, 0.3, 0.6],
        "phi_list": Draw([0.0, PI / 2], 0.0, PI / 2)},
    "displacement_bs_tap": {
        "experiment": "displacement_bs", "cutoff": 98,
        "eff_re": 0.3, "eff_im": 0.0, "input_kind": "even_coherent",
        "input_beta_mag": 1.0, "input_varphi": 0.0,
        "T_list": [0.5, 0.3237, 0.2096, 0.1357, 0.08788, 0.0569, 0.03684,
                   0.02385, 0.01544, 0.01]},
}

# workload -> config ids, run serially in this order
WORKLOADS = {
    "paper_suite": ["mmstate_b2", "conformation_n32", "convergence_b2",
                    "squeezed_convergence_b2", "attack_paper", "nongauss_overlap",
                    "nongauss_variance", "displacement_bs_paper"],
    "large_mixtures": ["mmstate_b5", "convergence_b5", "squeezed_convergence_b5"],
    "tap_gates": ["attack_tap", "displacement_bs_tap"],
}

# experiments whose grid points each build key-averaged mixtures
MIXTURE_EXPERIMENTS = ("convergence", "squeezed_convergence")


def build(workload: str, seed: int) -> list:
    """[(config id, config dict)] for one workload, each screened for honesty."""
    return [(cid, build_config(cid, seed)) for cid in WORKLOADS[workload]]


def build_config(cid: str, seed: int, attempts: int = 50) -> dict:
    spec = CONFIGS[cid]
    for attempt in range(attempts if seed else 1):
        rng = random.Random(f"{seed}/{cid}/{attempt}")
        cfg = {"tail_tol": TAIL_TOL}
        for k, v in spec.items():
            if isinstance(v, Draw):
                cfg[k] = v.draw(rng) if seed else list(v.seed0)
            else:
                cfg[k] = list(v) if isinstance(v, list) else v
        what, worst = max(screen(cfg), key=lambda p: p[1], default=("", 0.0))
        if worst <= TAIL_TOL:
            return cfg
    raise ScreenError(f"{cid} at seed {seed}: no grid within tail_tol after "
                      f"{attempts if seed else 1} draw(s); last worst: {what}, tail {worst:.3e}")


def grid_points(cfg: dict) -> int:
    """Number of grid points (tasks) the config asks for."""
    n = {k: len(v) for k, v in cfg.items() if k.endswith("_list")}
    exp = cfg["experiment"]
    if exp == "mmstate":
        return n["b_list"]
    if exp == "conformation":
        return n["N_list"] * n["b_list"] * n["r_list"] * n["phi_list"]
    if exp == "convergence":
        return n["N_list"] * n["b_list"]
    if exp == "squeezed_convergence":
        return n["N_list"] * n["b_list"] * n["r_list"] * n["phi_list"]
    if exp == "attack":
        return n["alpha_list"] * n["r_list"] * n["phi_list"]
    if exp == "nongauss_overlap":
        return n["r_list"] * n["phi_list"] * n["beta_mag_list"] * n["varphi_list"]
    if exp == "nongauss_variance":
        return (n["r_list"] * n["phi_list"] + n["beta_mag_list"] * n["varphi_list"]) \
            * n["theta_list"]
    if exp == "displacement_bs":
        return n["T_list"]
    raise ValueError(f"unknown experiment {exp!r}")


# ---------------------------------------------------------------------------
# honesty screen


def fock_probabilities(alpha, r: float, phi: float, m_max: int) -> np.ndarray:
    """|<m|S(xi) D(alpha)|0>|^2 for m = 0..m_max, one row per alpha.

    The closed form is (nu / 2 cosh r)^{m/2} / sqrt(m! cosh r) * prefactor
    * H_m(alpha / sqrt(2 nu cosh r)) with nu = e^{i phi} sinh r.  Its Hermite
    recurrence, rewritten for the amplitudes themselves,

        c_{m+1} = (alpha c_m - nu sqrt(m) c_{m-1}) / (cosh r sqrt(m+1)),

    carries only numbers of modulus <= 1, so it cannot overflow at the large
    levels where H_m alone does.  r = 0 gives the coherent state.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    ch = math.cosh(r)
    nu = complex(math.cos(phi), math.sin(phi)) * math.sinh(r)
    probs = np.empty((alpha.shape[0], m_max + 1))
    prev = np.zeros_like(alpha)
    cur = np.exp(-0.5 * (np.abs(alpha) ** 2 - nu.conjugate() * alpha ** 2 / ch)) \
        / math.sqrt(ch)
    probs[:, 0] = np.abs(cur) ** 2
    for m in range(m_max):
        prev, cur = cur, (alpha * cur - nu * math.sqrt(m) * prev) / (ch * math.sqrt(m + 1))
        probs[:, m + 1] = np.abs(cur) ** 2
    return probs


def true_tails(alpha, r: float, phi: float, n_max: int, even: bool = False) -> np.ndarray:
    """Probability beyond level n_max of S(xi) D(alpha)|0>, per alpha.

    Summed directly over levels n_max+1 .. 2 n_max + 200 rather than taken as
    1 - (kept mass), so tails near 1e-8 keep their digits.  With ``even`` the
    state is the even coherent state (|alpha> + |-alpha>)/norm (r must be 0).
    """
    m_max = 2 * n_max + 200
    p = fock_probabilities(alpha, r, phi, m_max)
    if even:
        a2 = np.abs(np.atleast_1d(alpha)) ** 2
        p[:, 1::2] = 0.0
        p *= (2.0 / (1.0 + np.exp(-2.0 * a2)))[:, None]
    lost = np.abs(1.0 - p.sum(axis=1))
    if lost.max() > 1e-10:
        raise ScreenError(f"closed form not converged by level {m_max}: "
                          f"missing mass {lost.max():.3e}")
    return p[:, n_max + 1:].sum(axis=1)


def key_displacements(N: int, b: float) -> np.ndarray:
    """The M = N(N+1)/2 key displacements: ring p has p points at radius
    (p-1) b / N and angles (pi/p)(2q-1), q = 1..p."""
    return np.concatenate([
        (p - 1) * b / N * np.exp(1j * (PI / p) * (2 * np.arange(1, p + 1) - 1))
        for p in range(1, N + 1)])


def screen(cfg: dict) -> list:
    """[(what, true tail)] for every state the config's grid constructs.

    mmstate and conformation build no truncated state from drawn values (the
    disk state is checked exactly by the program), so they yield nothing.
    """
    exp, n_max = cfg["experiment"], cfg["cutoff"]
    out = []

    def add(what, tails):
        out.append((what, float(np.max(tails))))

    if exp in MIXTURE_EXPERIMENTS:
        squeezes = [(0.0, 0.0)]
        if exp == "squeezed_convergence":
            squeezes += [(r, phi) for r in cfg["r_list"] for phi in cfg["phi_list"]]
        for b in cfg["b_list"]:
            for N in cfg["N_list"]:
                keys = key_displacements(N, b)
                for r, phi in squeezes:
                    add(f"mixture N={N} b={b} r={r} phi={phi}",
                        true_tails(keys, r, phi, n_max))
    elif exp == "attack":
        for a in cfg["alpha_list"]:
            for r in cfg["r_list"]:
                for phi in cfg["phi_list"]:
                    add(f"tap input alpha={a} r={r} phi={phi}",
                        true_tails(a, r, phi, n_max))
                    add(f"tap target alpha={a}/sqrt2 r={r}/2 phi={phi}",
                        true_tails(a / math.sqrt(2.0), r / 2.0, phi, n_max))
    elif exp in ("nongauss_overlap", "nongauss_variance"):
        for r in cfg["r_list"]:
            for phi in cfg["phi_list"]:
                add(f"squeezed vacuum r={r} phi={phi}", true_tails(0.0, r, phi, n_max))
        for bm in cfg["beta_mag_list"]:
            for vp in cfg["varphi_list"]:
                beta = bm * complex(math.cos(vp), math.sin(vp))
                add(f"even coherent beta={beta}",
                    true_tails(beta, 0.0, 0.0, n_max, even=True))
    elif exp == "displacement_bs":
        if cfg["input_kind"] == "even_coherent":
            beta = cfg["input_beta_mag"] * complex(math.cos(cfg["input_varphi"]),
                                                   math.sin(cfg["input_varphi"]))
            add(f"input even coherent beta={beta}",
                true_tails(beta, 0.0, 0.0, n_max, even=True))
        eff = math.hypot(cfg["eff_re"], cfg["eff_im"])
        for t in cfg["T_list"]:
            add(f"ancilla T={t}", true_tails(eff / math.sqrt(t), 0.0, 0.0, n_max))
    return out
