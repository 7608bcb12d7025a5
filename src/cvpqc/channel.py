"""Coherent-state private channel on a disk of phase space.

The key space is a family of rings: ring p carries p coherent states,
equally spaced with a half-step angular offset, at radius (p-1)b/N.
Averaging the key projectors over the whole key space gives a mixture
that approaches the disk-uniform target state as N grows; the squeezed
variant conjugates everything by a single-mode squeezer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .fock import (
    DEFAULT_TAIL_TOL,
    DensityOperator,
    FockCutoff,
    SqueezeParam,
    TailMassError,
    coherent_amplitudes,
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


def key_to_ring(key_index: int, N: int):
    """Inverse of the lexicographic key layout; returns (p, q), both 1-based."""
    M = key_count(N)
    if not 0 <= key_index < M:
        raise ValueError(f"key index {key_index} outside [0, {M})")
    p = (math.isqrt(8 * key_index + 1) + 1) // 2  # exact: p(p-1)/2 <= k < p(p+1)/2
    q = key_index - p * (p - 1) // 2 + 1
    return p, q


def key_displacements(N: int, b: float) -> np.ndarray:
    """All M displacements in key order."""
    return np.concatenate(
        [ConformationSpec(N, b, p).displacements() for p in range(1, N + 1)]
    )


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

    The squeezer holds the exact truncated matrix elements, so a squeezed row
    keeps only the mass inside the cutoff; ``what(k)`` names row k in the
    TailMassError raised when any row has lost more than ``tail_tol``.
    """
    if xi.r != 0:
        rows = rows @ squeeze_operator(xi, cutoff).T
    tails = 1.0 - np.einsum("ij,ij->i", rows, rows.conj()).real
    k = int(np.argmax(tails))
    if tails[k] > tail_tol:
        raise TailMassError(float(tails[k]), tail_tol, what(k))
    return DensityOperator(rows.T @ rows.conj() / rows.shape[0], cutoff)


def _worst_key(N: int, what: str):
    """Names key row k by its ring coordinates, for a TailMassError."""
    def name(k):
        p, q = key_to_ring(k, N)
        return f"{what}, worst key p={p}, q={q}"
    return name


def mixture_gamma(N: int, b: float, cutoff: FockCutoff,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Flat average over all M displaced vacua of the key space."""
    return _key_average(coherent_amplitudes(key_displacements(N, b), cutoff), _NO_SQUEEZE,
                        cutoff, tail_tol,
                        _worst_key(N, f"mixture N={N}, b={b}"))


def squeezed_mixture(N: int, b: float, xi: SqueezeParam, cutoff: FockCutoff,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Flat average over all M squeezed displaced vacua."""
    return _key_average(coherent_amplitudes(key_displacements(N, b), cutoff), xi, cutoff,
                        tail_tol,
                        _worst_key(N, f"squeezed mixture N={N}, b={b}, r={xi.r}"))


# ---------------------------------------------------------------------------
# squeezed-ring geometry


def k_factor(xi: SqueezeParam, theta: float) -> float:
    """Angular weight factor 1 - tanh(r) cos(2 theta - phi); range [1-tanh r, 1+tanh r]."""
    return float(1.0 - math.tanh(xi.r) * math.cos(2.0 * theta - xi.phi))


def vacuum_weight(xi: SqueezeParam, alpha: complex) -> float:
    """|<0| squeeze(displace(|0>)) |0>|^2 = e^{-|alpha|^2 K} / cosh r, exactly."""
    theta = float(np.angle(alpha)) if alpha != 0 else 0.0
    return math.exp(-abs(alpha) ** 2 * k_factor(xi, theta)) / math.cosh(xi.r)


# ---------------------------------------------------------------------------
# convergence experiments


def convergence_point(N: int, b: float, xi: SqueezeParam, cutoff: FockCutoff,
                      tail_tol: float = DEFAULT_TAIL_TOL):
    """(d_hs, triangle_bound, entropy) of one convergence grid point.

    d_hs is the distance from the disk-uniform target to the key-averaged
    mixture, squeezed when xi.r > 0; triangle_bound >= d_hs is the distance
    from the target to the plain mixture plus the distance between the two
    mixtures; entropy is that of the mixture d_hs measures.  Each mixture is
    built once.
    """
    mm = maximally_mixed(b, cutoff, tail_tol)
    gam = mixture_gamma(N, b, cutoff, tail_tol)
    d_coh = hs_distance(mm, gam)
    if xi.r == 0.0:
        return d_coh, d_coh, von_neumann_entropy(gam)
    gam_xi = squeezed_mixture(N, b, xi, cutoff, tail_tol)
    return (hs_distance(mm, gam_xi), d_coh + hs_distance(gam_xi, gam),
            von_neumann_entropy(gam_xi))
