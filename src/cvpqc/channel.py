"""Coherent-state private channel on a disk of phase space.

The key space is a family of rings: ring p carries p coherent states,
equally spaced with a half-step angular offset, at radius (p-1)b/N.
Averaging the key projectors over the whole key space gives a mixture
that approaches the disk-uniform target state as N grows; the squeezed
variant conjugates everything by a single-mode squeezer.  Every state here
is a plain d x d density matrix, and every tail is judged by
``fock.check_tails``.
"""
from __future__ import annotations

import math

import numpy as np

from .fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    SqueezeParam,
    check_row_tails,
    check_tails,
    coherent_amplitudes,
    hs_distance,
    row_tails,
    von_neumann_entropy,
)


def ring(N: int, b: float, p: int):
    """(radius, angles) of ring p, 1 <= p <= N, of the N-ring family bounded by
    radius b: radius (p-1) b / N, and angles pi (2q - 1) / p for q = 1..p."""
    q = np.arange(1, p + 1)
    return (p - 1) * b / N, (np.pi / p) * (2 * q - 1)


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
    """All M displacements radius e^{i angle} in key order."""
    rings = [ring(N, b, p) for p in range(1, N + 1)]
    return np.concatenate([radius * np.exp(1j * angles) for radius, angles in rings])


# ---------------------------------------------------------------------------
# target state and ring mixtures


def maximally_mixed(b: float, cutoff: FockCutoff,
                    tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Disk-uniform average of coherent projectors up to radius b.

    Fock-diagonal with entries equal to the Poisson(b^2) upper-tail
    probability beyond level n, divided by b^2.  The pmf over levels
    k < 2 d + 64 runs outward from its mode by the ratio b^2 / k, so no entry
    overflows and each carries a few roundings, whatever b is.  Each tail is
    summed on its smaller side: one minus the running sum while that is below
    1/2, otherwise from the top down, where past the median the levels beyond
    2 d + 64 hold a negligible share.
    """
    if b <= 0:
        raise ValueError(f"radius must be > 0, got {b}")
    n = cutoff.levels()
    x = b * b
    k = np.arange(2 * cutoff.dim + 64)
    mode = int(min(x, k[-1]))
    peak = math.exp(2.0 * mode * math.log(b) - x - math.lgamma(mode + 1.0))
    pmf = peak * np.concatenate((np.cumprod(k[mode:0:-1] / x)[::-1], [1.0],
                                 np.cumprod(x / k[mode + 1:])))
    cdf = np.cumsum(pmf)[n]
    diag = np.where(cdf < 0.5, 1.0 - cdf, np.cumsum(pmf[::-1])[::-1][n + 1]) / x
    mm = np.diag(diag.astype(complex))
    check_tails(np.array([1.0 - np.trace(mm).real]), tail_tol,
                lambda k: f"disk-uniform state b={b}")
    return mm


def _worst_key(N: int, what: str):
    """Names key row k by its ring coordinates, for a TailMassError."""
    def name(k):
        p, q = key_to_ring(k, N)
        return f"{what}, worst key p={p}, q={q}"
    return name


def key_rows(N: int, b: float, cutoff: FockCutoff) -> np.ndarray:
    """The M coherent key rows <n|alpha_k>, in key order, in one batched call."""
    return coherent_amplitudes(key_displacements(N, b), cutoff)


def mixture_gamma(N: int, b: float, rows: np.ndarray,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Flat average over all M displaced vacua of the key space, a real array.

    ``rows`` is ``key_rows(N, b, cutoff)``, which the squeezed mixtures of
    the same (b, N) share.  Ring p's angles pi (2q - 1) / p are closed under
    conjugation, so the mixture is real: it is the Gram matrix x^T x / M of
    the real stack x = [Re rows; Im rows], which numpy forms as a symmetric
    rank-k update, and then divides by M in place, so no second d x d array
    is built beside it.
    """
    check_row_tails(rows, tail_tol, _worst_key(N, f"mixture N={N}, b={b}"))
    x = np.concatenate((rows.real, rows.imag))
    gram = x.T @ x
    gram /= rows.shape[0]
    return gram


# keys per block of squeezed rows: at cutoff 195 a block's product with S(xi)
# holds 200 KB, where the whole stack's would hold 1.7 MB at N = 32.  Beside
# the running sum, one block and its d x d Gram product are live at a time
_KEY_BLOCK = 64


def squeezed_mixture(N: int, b: float, rows: np.ndarray, xi: SqueezeParam,
                     squeezer: np.ndarray, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Flat average over all M squeezed displaced vacua, summed over blocks of
    keys; ``rows`` as for mixture_gamma, and ``squeezer`` is
    ``squeeze_operator(xi, cutoff)``.

    The squeezer holds the exact truncated matrix elements, so a squeezed row
    keeps only the mass inside the cutoff; a TailMassError names the worst key
    when any row has lost more than ``tail_tol``.

    Beside the running sum, one block and its d x d product are live at a
    time: each product is added into the sum as soon as it is formed.
    """
    tails, gram = np.empty(rows.shape[0]), None
    for k in range(0, rows.shape[0], _KEY_BLOCK):
        block = rows[k:k + _KEY_BLOCK] @ squeezer.T
        tails[k:k + _KEY_BLOCK] = row_tails(block)
        if gram is None:  # no d x d pass over zeros: it would double a small mixture's time
            gram = block.T @ block.conj()
        else:
            gram += block.T @ block.conj()
    check_tails(tails, tail_tol, _worst_key(N, f"squeezed mixture N={N}, b={b}, r={xi.r}"))
    gram /= rows.shape[0]
    return gram


# ---------------------------------------------------------------------------
# squeezed-ring geometry


def k_factor(xi: SqueezeParam, theta: float) -> float:
    """Angular weight factor 1 - tanh(r) cos(2 theta - phi); range [1-tanh r, 1+tanh r]."""
    return float(1.0 - math.tanh(xi.r) * math.cos(2.0 * theta - xi.phi))


# ---------------------------------------------------------------------------
# convergence experiments


def convergence_rows(N_list, b: float, squeezers: dict, cutoff: FockCutoff,
                     tail_tol: float = DEFAULT_TAIL_TOL) -> dict:
    """{(N, xi): (d_hs, triangle_bound, entropy)} at radius b for every N in
    ``N_list`` and every squeezing xi of ``squeezers``, which maps each xi to
    ``squeeze_operator(xi, cutoff)``, or to None where xi.r is 0.

    d_hs is the distance from the disk-uniform target to the key-averaged
    mixture, squeezed when xi.r > 0; triangle_bound >= d_hs is the distance
    from the target to the plain mixture plus the distance between the two
    mixtures.  entropy is the plain mixture's: S(xi) is unitary, so it is every
    squeezed mixture's too, free of the squeezed rows' truncation error.

    The target is built once, and the key rows, the plain mixture and its
    entropy once per N of ``N_list``, whose entries are distinct.  N is the
    outer loop, and one N's rows and mixture are dropped before the next N's
    are built; within one N, one squeezed mixture is live at a time, dropped
    once its two distances are taken.
    """
    mm = maximally_mixed(b, cutoff, tail_tol)
    out = {}
    for N in N_list:
        rows = key_rows(N, b, cutoff)
        gam = mixture_gamma(N, b, rows, tail_tol)
        d_coh, entropy = hs_distance(mm, gam), von_neumann_entropy(gam)
        for xi, squeezer in squeezers.items():
            if squeezer is None:
                out[N, xi] = (d_coh, d_coh, entropy)
            else:
                gam_xi = squeezed_mixture(N, b, rows, xi, squeezer, tail_tol)
                out[N, xi] = (hs_distance(mm, gam_xi), d_coh + hs_distance(gam_xi, gam),
                              entropy)
                del gam_xi  # the next squeezed mixture is summed without this beside it
        del rows, gam  # the next N's rows are built without these beside them
    return out
