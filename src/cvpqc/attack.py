"""Passive eavesdropping on one channel branch with a 50:50 beam splitter.

The tap sends half of the signal to an eavesdropper arm.  For a coherent
input the two output arms are an unentangled product, so the tap leaves
no correlation trace; squeezing the input changes that, and the reduced
states of both arms become mixed.  The output is pure, so both arms share
one Schmidt spectrum: each is a displaced, squeezed thermal state with
mean photon number nbar = sinh^2(r/2) (Weedbrook et al., Rev. Mod. Phys.
84, 621 (2012)), whatever alpha and phi are.  Its purity 1/(2 nbar + 1)
and entropy g(nbar), the exact entanglement of the arms, are closed forms.
The fidelity with the undisturbed target comes from the tap in the Fock
basis: the input sits in column 0 of the output's amplitude matrix
psi[i, j] = <i, j|out> (receiver i, eavesdropper j), inside the triangle
i + j <= n_max that the beam splitter covers.
"""
from __future__ import annotations

import math

from .fock import (
    DEFAULT_TAIL_TOL,
    FockCutoff,
    SqueezeParam,
    beam_splitter,
    np,
    squeezed_coherent_state,
)

_SQRT2 = math.sqrt(2.0)


def thermal_entropy(nbar: float) -> float:
    """g(nbar) = (nbar+1) log2(nbar+1) - nbar log2 nbar, the entropy in bits of a
    thermal state, summed as log1p(nbar) + nbar log(1 + 1/nbar), with the second
    log split as log1p(nbar) - log nbar below nbar = 1, where 1/nbar can
    overflow: every term is non-negative, so nothing cancels; g(0) = 0."""
    if nbar == 0.0:
        return 0.0
    if nbar < 1.0:
        rest = nbar * (math.log1p(nbar) - math.log(nbar))
    else:
        rest = nbar * math.log1p(1.0 / nbar)
    return (math.log1p(nbar) + rest) / math.log(2.0)


def attack(alphas, xis, cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL):
    """Send S(xi) D(alpha)|0> through the 50:50 tap, the vacuum in the other port,
    for each squeezing xi of the list ``xis`` and each alpha of the list ``alphas``.

    Returns a list per xi of a (bob_purity, eve_purity, ent_proxy, fidelity) tuple
    per alpha, each the same as from one-element lists: the purity of the
    receiver's reduced state, twice, since the eavesdropper's is the same; its von
    Neumann entropy (bits), the exact entanglement entropy of the arms; and the
    fidelity of the receiver's state with the undisturbed local target, the input
    with its amplitude cut by sqrt 2 and its squeezing in half.  The gate is built
    once; one xi's stacks of inputs and targets and one two-mode state are held
    at a time.
    """
    tap = beam_splitter(np.pi / 4, cutoff)
    psi = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    out = []
    for xi in xis:
        inputs = squeezed_coherent_state(xi, alphas, cutoff, tail_tol)
        targets = squeezed_coherent_state(SqueezeParam(xi.r / 2, xi.phi),
                                          [a / _SQRT2 for a in alphas], cutoff, tail_tol)
        nbar = math.sinh(xi.r / 2.0) ** 2
        p, ent = 1.0 / (2.0 * nbar + 1.0), thermal_entropy(nbar)
        rows = []
        for signal, expected in zip(inputs, targets):
            psi[:, 0] = signal
            # <e| rho_B |e> = || (<e| x 1) out ||^2, with rho_B = out out+
            v = expected.conj() @ tap.apply(psi, tail_tol)
            rows.append((p, p, ent, float(np.vdot(v, v).real)))
        out.append(rows)
        del inputs, targets  # the next xi's are built without these beside them
    return out
