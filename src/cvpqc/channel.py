"""Coherent-state private channel on a disk of phase space.

The key space is a family of rings: ring p carries p coherent states,
equally spaced with a half-step angular offset, at radius (p-1)b/N.
Averaging the encrypted projectors over the whole key space gives a
mixture that approaches the disk-uniform target state as N grows; the
squeezed variant conjugates everything by a single-mode squeezer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaln

from .fock import (
    DEFAULT_TAIL_TOL,
    DensityOperator,
    FockCutoff,
    SqueezeParam,
    TailMassError,
    _hermite_series,
    coherent_amplitudes,
    displacement_operator,
    hs_distance,
    squeeze_operator,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class ConformationSpec:
    """Ring p of an N-ring family bounded by radius b."""

    N: int
    b: float
    p: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.b <= 0:
            raise ValueError(f"boundary radius must be > 0, got {self.b}")
        if not 1 <= self.p <= self.N:
            raise ValueError(f"p must lie in [1, {self.N}], got {self.p}")

    @property
    def radius(self) -> float:
        return (self.p - 1) * self.b / self.N

    def angles(self) -> np.ndarray:
        q = np.arange(1, self.p + 1)
        return (np.pi / self.p) * (2 * q - 1)

    def displacements(self) -> np.ndarray:
        return self.radius * np.exp(1j * self.angles())


# ---------------------------------------------------------------------------
# key bookkeeping: lexicographic over (p, q), p major


def key_count(N: int) -> int:
    return N * (N + 1) // 2


def secret_bits(N: int) -> float:
    """log2 of the message alphabet: the M keys plus one."""
    return math.log2(key_count(N) + 1)


def key_to_ring(key_index: int, N: int):
    """Inverse of the lexicographic key layout; returns (p, q), both 1-based."""
    M = key_count(N)
    if not 0 <= key_index < M:
        raise ValueError(f"key index {key_index} outside [0, {M})")
    p = (math.isqrt(8 * key_index + 1) + 1) // 2  # exact: p(p-1)/2 <= k < p(p+1)/2
    q = key_index - p * (p - 1) // 2 + 1
    return p, q


def key_displacement(key_index: int, N: int, b: float) -> complex:
    p, q = key_to_ring(key_index, N)
    spec = ConformationSpec(N, b, p)
    return complex(spec.radius * np.exp(1j * (np.pi / p) * (2 * q - 1)))


def key_displacements(N: int, b: float) -> np.ndarray:
    """All M displacements in key order."""
    return np.concatenate(
        [ConformationSpec(N, b, p).displacements() for p in range(1, N + 1)]
    )


def random_key(N: int, rng: np.random.Generator) -> int:
    return int(rng.integers(0, key_count(N)))


# ---------------------------------------------------------------------------
# target state and ring mixtures


def maximally_mixed(b: float, cutoff: FockCutoff,
                    tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Disk-uniform average of coherent projectors up to radius b.

    Fock-diagonal with entries equal to the Poisson(b^2) upper-tail
    probability beyond level n, divided by b^2; evaluated through the
    regularized incomplete gamma function for stability.
    """
    if b <= 0:
        raise ValueError(f"radius must be > 0, got {b}")
    n = cutoff.levels()
    diag = gammainc(n + 1, b * b) / (b * b)
    mass = float(diag.sum())
    if 1.0 - mass > tail_tol:
        raise TailMassError(1.0 - mass, tail_tol, f"disk-uniform state b={b}")
    return DensityOperator(np.diag(diag.astype(complex)), cutoff)


_NO_SQUEEZE = SqueezeParam(0.0)


def _key_average(rows: np.ndarray, xi: SqueezeParam, cutoff: FockCutoff,
                 tail_tol: float, what) -> DensityOperator:
    """Mean of the projectors on the rows v_k of ``rows``, each squeezed by S(xi).

    ``what(k)`` names row k in the TailMassError raised when any squeezed row
    has lost more than ``tail_tol`` to truncation.
    """
    if xi.r != 0:
        rows = rows @ squeeze_operator(xi, cutoff).T
    tails = 1.0 - np.einsum("ij,ij->i", rows, rows.conj()).real
    k = int(np.argmax(tails))
    if tails[k] > tail_tol:
        raise TailMassError(float(tails[k]), tail_tol, what(k))
    return DensityOperator(rows.T @ rows.conj() / rows.shape[0], cutoff)


def _coherent_rows(alphas, cutoff: FockCutoff) -> np.ndarray:
    return np.vstack([coherent_amplitudes(a, cutoff) for a in alphas])


def _worst_key(N: int, what: str):
    """Names key row k by its ring coordinates, for a TailMassError."""
    def name(k):
        p, q = key_to_ring(k, N)
        return f"{what}, worst key p={p}, q={q}"
    return name


def conformation_ring(p: int, radius: float, cutoff: FockCutoff,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """p-point ring mixture at an explicit radius (decoupled from the N schedule)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    alphas = radius * np.exp(1j * (np.pi / p) * (2 * np.arange(1, p + 1) - 1))
    return _key_average(_coherent_rows(alphas, cutoff), _NO_SQUEEZE, cutoff, tail_tol,
                        lambda k: f"ring p={p}, radius={radius}, q={k + 1}")


def conformation(spec: ConformationSpec, cutoff: FockCutoff,
                 tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Ring p of the family, at its scheduled radius (p-1)b/N."""
    return conformation_ring(spec.p, spec.radius, cutoff, tail_tol=tail_tol)


def mixture_gamma(N: int, b: float, cutoff: FockCutoff,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Flat average over all M displaced vacua of the key space."""
    return _key_average(_coherent_rows(key_displacements(N, b), cutoff), _NO_SQUEEZE,
                        cutoff, tail_tol,
                        _worst_key(N, f"mixture N={N}, b={b}"))


def squeezed_conformation(spec: ConformationSpec, xi: SqueezeParam, cutoff: FockCutoff,
                          tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Ring average of squeezed displaced vacua, built operationally."""
    return _key_average(_coherent_rows(spec.displacements(), cutoff), xi, cutoff, tail_tol,
                        lambda k: f"squeezed ring p={spec.p}, r={xi.r}, q={k + 1}")


def squeezed_mixture(N: int, b: float, xi: SqueezeParam, cutoff: FockCutoff,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Flat average over all M squeezed displaced vacua."""
    return _key_average(_coherent_rows(key_displacements(N, b), cutoff), xi, cutoff, tail_tol,
                        _worst_key(N, f"squeezed mixture N={N}, b={b}, r={xi.r}"))


# ---------------------------------------------------------------------------
# encryption


def _displaced_coherent(alpha: complex, beta: complex, cutoff: FockCutoff) -> np.ndarray:
    """Amplitudes of D(alpha)|beta> = e^{i Im(alpha conj(beta))} |alpha + beta>."""
    phase = np.exp(1j * (alpha * np.conj(beta)).imag)
    return phase * coherent_amplitudes(alpha + beta, cutoff)


def encrypt(beta: complex, xi: SqueezeParam, key_index: int, N: int, b: float,
            cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """One key branch: squeeze(displace_key(|beta>)) as a projector."""
    row = _displaced_coherent(key_displacement(key_index, N, b), beta, cutoff)
    p, q = key_to_ring(key_index, N)
    return _key_average(row[None, :], xi, cutoff, tail_tol,
                        lambda k: f"encrypt beta={beta}, key p={p}, q={q}, r={xi.r}")


def decrypt(rho: DensityOperator, xi: SqueezeParam, key_index: int, N: int, b: float,
            cutoff: FockCutoff) -> DensityOperator:
    """Undo one key branch: conjugate by (squeeze . displace_key)^dagger."""
    alpha = key_displacement(key_index, N, b)
    u = squeeze_operator(xi, cutoff) @ displacement_operator(alpha, cutoff)
    mat = u.conj().T @ rho.matrix @ u
    return DensityOperator(mat, cutoff)


def channel_output(beta: complex, xi: SqueezeParam, N: int, b: float,
                   cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Key-averaged encryption of |beta>."""
    rows = np.vstack([_displaced_coherent(a, beta, cutoff) for a in key_displacements(N, b)])
    return _key_average(rows, xi, cutoff, tail_tol,
                        _worst_key(N, f"channel output beta={beta}, N={N}"))


# ---------------------------------------------------------------------------
# squeezed-ring geometry


def k_factor(xi: SqueezeParam, theta: float) -> float:
    """Angular weight factor 1 - tanh(r) cos(2 theta - phi); range [1-tanh r, 1+tanh r]."""
    return float(1.0 - math.tanh(xi.r) * math.cos(2.0 * theta - xi.phi))


def vacuum_weight(xi: SqueezeParam, alpha: complex) -> float:
    """|<0| squeeze(displace(|0>)) |0>|^2 = e^{-|alpha|^2 K} / cosh r, exactly."""
    theta = float(np.angle(alpha)) if alpha != 0 else 0.0
    return math.exp(-abs(alpha) ** 2 * k_factor(xi, theta)) / math.cosh(xi.r)


def squeezed_projector_prefactor(xi: SqueezeParam, alpha: complex,
                                 cutoff: FockCutoff) -> np.ndarray:
    """Matrix kappa with projector elements [m,n] = kappa[m,n] e^{-|alpha|^2 K}.

    Evaluated through complex-argument Hermite polynomials at
    x = |alpha| e^{i(theta - phi/2)} / sqrt(sinh 2r):

        kappa[m,n] = (tanh(r)/2)^{(m+n)/2} / (cosh r sqrt(m! n!))
                     * e^{i phi (m-n)/2} H_m(x) conj(H_n(x)).

    At r=0 the prefactor degenerates to alpha^m conj(alpha)^n / sqrt(m! n!)
    (the x -> infinity limit; magnitude |alpha|^{m+n}/sqrt(m! n!)).
    """
    d = cutoff.dim
    m = np.arange(d)
    fact = np.exp(-0.5 * gammaln(m + 1))
    if xi.r == 0.0:
        col = alpha ** m * fact
        return np.outer(col, col.conj())
    theta = float(np.angle(alpha)) if alpha != 0 else 0.0
    x = abs(alpha) * np.exp(1j * (theta - xi.phi / 2.0)) / math.sqrt(math.sinh(2.0 * xi.r))
    herm = _hermite_series(x, d)
    col = (math.tanh(xi.r) / 2.0) ** (m / 2.0) * fact * np.exp(1j * xi.phi * m / 2.0) * herm
    return np.outer(col, col.conj()) / math.cosh(xi.r)


# ---------------------------------------------------------------------------
# convergence experiments


@dataclass(frozen=True)
class DistanceReport:
    """Distances from the disk-uniform target, with the triangle-bound split."""

    d_hs: float            # target vs squeezed mixture
    d_coherent: float      # target vs unsqueezed mixture
    d_squeeze: float       # squeezed mixture vs unsqueezed mixture
    triangle_bound: float  # d_coherent + d_squeeze >= d_hs

    def __float__(self) -> float:
        return self.d_hs


def _distances(mm: DensityOperator, N: int, b: float, xi: SqueezeParam,
               cutoff: FockCutoff, tail_tol: float):
    """(DistanceReport, the mixture its d_hs measures); squeezed only when xi.r > 0."""
    gam = mixture_gamma(N, b, cutoff, tail_tol)
    d_coh = hs_distance(mm, gam)
    if xi.r == 0.0:
        return DistanceReport(d_coh, d_coh, 0.0, d_coh), gam
    gam_xi = squeezed_mixture(N, b, xi, cutoff, tail_tol)
    d_sq = hs_distance(gam_xi, gam)
    return DistanceReport(hs_distance(mm, gam_xi), d_coh, d_sq, d_coh + d_sq), gam_xi


def distance_to_mm(N: int, b: float, xi: SqueezeParam, cutoff: FockCutoff,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> DistanceReport:
    return _distances(maximally_mixed(b, cutoff, tail_tol), N, b, xi, cutoff, tail_tol)[0]


def squeezed_vacuum_distance_closed_form(r: float) -> float:
    """Distance between a squeezed vacuum and the vacuum: 2 sinh(r/2)/sqrt(cosh r)."""
    return 2.0 * math.sinh(r / 2.0) / math.sqrt(math.cosh(r))


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    b: float
    r: float
    phi: float
    cutoff: int
    d_hs: float
    d_hs_times_Np1: float
    triangle_bound: float
    entropy: float


def convergence_sweep(N_list: Sequence[int], b: float, xi: SqueezeParam,
                      cutoff: FockCutoff,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> list:
    """One row per N; each mixture is built once and serves distances and entropy."""
    mm = maximally_mixed(b, cutoff, tail_tol)
    rows = []
    for N in N_list:
        rep, gam_xi = _distances(mm, N, b, xi, cutoff, tail_tol)
        rows.append(ConvergenceRow(
            N=int(N), b=float(b), r=xi.r, phi=xi.phi, cutoff=cutoff.n_max,
            d_hs=rep.d_hs, d_hs_times_Np1=rep.d_hs * (N + 1),
            triangle_bound=rep.triangle_bound,
            entropy=von_neumann_entropy(gam_xi)))
    return rows
