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


def attack(alpha, xi: SqueezeParam, cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL):
    """Send S(xi) D(alpha)|0> through the 50:50 tap, the vacuum in the other port.

    Returns (bob_purity, eve_purity, ent_proxy, fidelity): the purities of the
    receiver's and the eavesdropper's reduced states, the von Neumann entropy
    (bits) of the receiver's, which is the exact entanglement entropy between
    the arms because the output is pure, and the fidelity of the receiver's
    state with the undisturbed local target, the input with its amplitude cut
    by sqrt 2 and its squeezing in half.

    ``alpha`` is one amplitude, or a 1-D array of them for a list of those
    tuples, each the same as its own call.  The squeezers S(xi) and S(xi/2) are
    built once for the stacks of inputs and targets, and one two-mode state
    is held at a time.
    """
    scalar = np.ndim(alpha) == 0
    alphas = [alpha] if scalar else list(alpha)
    inputs = squeezed_coherent_state(xi, alphas, cutoff, tail_tol)
    targets = squeezed_coherent_state(SqueezeParam(xi.r / 2, xi.phi),
                                      [a / _SQRT2 for a in alphas], cutoff, tail_tol)
    tap = beam_splitter(np.pi / 4, cutoff)
    psi = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    rows = []
    for signal, expected in zip(inputs, targets):
        psi[:, 0] = signal
        out = tap.apply(psi, tail_tol)
        rho_b = out @ out.conj().T
        rows.append((purity(rho_b), purity(out.T @ out.conj()), von_neumann_entropy(rho_b),
                     fidelity(expected, rho_b)))
    return rows[0] if scalar else rows
