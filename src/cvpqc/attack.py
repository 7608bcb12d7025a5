"""Passive eavesdropping on one channel branch with a 50:50 beam splitter.

The tap sends half of the signal to an eavesdropper arm.  For a coherent
input the two output arms are an unentangled product, so the tap leaves
no correlation trace; squeezing the input changes that, and the reduced
states of both arms become mixed.  The two-mode output is pure, held as its
amplitude matrix psi[i, j] = <i, j|out> (receiver i, eavesdropper j), so the
entropy of either arm is an exact entanglement measure rather than a proxy
bound.  The input sits in column 0, inside the triangle i + j <= n_max that
the beam splitter covers, so the gate itself truncates nothing.
"""
from __future__ import annotations

import numpy as np

from .fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    SqueezeParam,
    beam_splitter,
    fidelity,
    purity,
    squeezed_coherent_state,
    von_neumann_entropy,
)

_SQRT2 = np.sqrt(2.0)


def attack(alpha: complex, xi: SqueezeParam, cutoff: FockCutoff,
           tail_tol: float = DEFAULT_TAIL_TOL):
    """Send S(xi) D(alpha)|0> through the 50:50 tap, the vacuum in the other port.

    Returns (bob_purity, eve_purity, ent_proxy, fidelity): the purities of the
    receiver's and the eavesdropper's reduced states, the von Neumann entropy
    (bits) of the receiver's, which is the exact entanglement entropy between
    the arms because the output is pure, and the fidelity of the receiver's
    state with the undisturbed local target, the input with its amplitude cut
    by sqrt 2 and its squeezing in half.
    """
    psi = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    psi[:, 0] = squeezed_coherent_state(xi, alpha, cutoff, tail_tol)
    out = beam_splitter(np.pi / 4, cutoff).apply(psi, tail_tol)
    rho_b = out @ out.conj().T
    expected = squeezed_coherent_state(SqueezeParam(xi.r / 2, xi.phi), alpha / _SQRT2,
                                       cutoff, tail_tol)
    return (purity(rho_b), purity(out.T @ out.conj()), von_neumann_entropy(rho_b),
            fidelity(expected, rho_b))
