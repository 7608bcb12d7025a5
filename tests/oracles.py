"""Reference implementations the tests compare the library against.

Each one computes a library quantity a second, independent way: by
exponentiating a truncated generator, from a closed form, or by
materializing a block-structured operator densely.  None of them is used
by any experiment.
"""
import math

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from cvpqc.fock import FockCutoff, TwoModeUnitary, annihilation


def displacement_expm(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """D(alpha) as expm of the truncated generator; agrees with the Laguerre
    matrix on the interior of the basis."""
    a = annihilation(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def ring_analytic_matrix(p: int, radius: float, cutoff: FockCutoff) -> np.ndarray:
    """Closed form of the p-point ring average.

    Entries live on the pattern m = n (mod p) and carry magnitude
    e^{-radius^2} radius^{m+n}/sqrt(m! n!) and the sign (-1)^{(m-n)/p} that
    the half-step angular offset of the ring produces.
    """
    d = cutoff.dim
    if radius == 0.0:
        mat = np.zeros((d, d), dtype=complex)
        mat[0, 0] = 1.0
        return mat
    m = np.arange(d)[:, None]
    n = np.arange(d)[None, :]
    logmag = (-radius * radius + (m + n) * math.log(radius)
              - 0.5 * (gammaln(m + 1) + gammaln(n + 1)))
    onpat = (m - n) % p == 0
    sign = np.where(onpat, (-1.0) ** ((m - n) // p), 1.0)
    return np.where(onpat, np.exp(logmag), 0.0) * sign + 0j


def _partner(u: TwoModeUnitary, idx, label):
    return label - idx if u.conserved == "sum" else idx - label


def two_mode_dense(u: TwoModeUnitary) -> np.ndarray:
    """Full (dim^2 x dim^2) matrix of a block-stored two-mode unitary."""
    d = u.cutoff.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for label, (idx, blk) in u.blocks.items():
        rows = idx * d + _partner(u, idx, label)
        out[np.ix_(rows, rows)] = blk
    return out


def two_mode_inverse(u: TwoModeUnitary) -> TwoModeUnitary:
    """The adjoint, block by block."""
    inv = {label: (idx, blk.conj().T) for label, (idx, blk) in u.blocks.items()}
    return TwoModeUnitary(u.cutoff, inv, u.conserved)
