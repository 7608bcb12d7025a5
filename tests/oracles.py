"""Reference implementations the tests compare the library against.

Each one computes a library quantity a second, independent way: by
exponentiating a truncated generator, from a closed form, or by
materializing a block-structured operator or a two-mode density matrix
densely.  ``check_density`` holds the Hermiticity and positivity checks
the library never runs.  None of them is used by any experiment.
"""
import math

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from cvpqc.fock import (DensityOperator, FockCutoff, PureState, TwoModeUnitary,
                        annihilation)

HERMITICITY_TOL = 1e-12
EIG_FLOOR = -1e-10


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


def partial_trace_dense(state: PureState, mode: int) -> np.ndarray:
    """Reduced matrix of one mode of a two-mode pure state, traced out of the
    full (dim^2 x dim^2) density matrix, which holds dim^4 entries."""
    d = state.cutoff.dim
    rho = np.outer(state.amplitudes, state.amplitudes.conj()).reshape(d, d, d, d)
    # axes [i, j, i', j'] for |i>_0 |j>_1 <i'|_0 <j'|_1
    return np.trace(rho, axis1=1, axis2=3) if mode == 0 else np.trace(rho, axis1=0, axis2=2)


def check_density(rho: DensityOperator) -> None:
    """Raise ValueError unless the matrix is Hermitian and positive semidefinite
    (DensityOperator itself checks only the shape and a trace in (0, 1])."""
    m = rho.matrix
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"matrix not Hermitian: max |M - M+| = {herm:.3e}")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < EIG_FLOOR:
        raise ValueError(f"matrix not positive semidefinite: min eigenvalue {lo:.3e}")
