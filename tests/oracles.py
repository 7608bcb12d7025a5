"""Reference implementations the tests compare the library against.

Each one computes a library quantity a second, independent way: by
exponentiating a truncated generator (displacement, squeezing), from a closed
form or a series (the squeezed-vacuum term ratio), or by
materializing a block-structured operator or a two-mode density matrix
densely.  ``check_density`` holds the Hermiticity and positivity checks
the library never runs.  The protocol helpers (encrypt, decrypt, the
channel output), the single-ring mixtures, the factorized tap model and
the first-order squeezer live here too: the acceptance criteria use them,
and no experiment does.  The ancilla displacement simulated in the two-mode
Fock space is the reference for its closed form in ``nongauss``.
"""
import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from cvpqc.attack import _SQRT2, _tap_output
from cvpqc.channel import (_NO_SQUEEZE, ConformationSpec, _key_average, _worst_key,
                           key_count, key_displacements, key_to_ring)
from cvpqc.fock import (DEFAULT_TAIL_TOL, DensityOperator, FockCutoff, PureState,
                        SqueezeParam, TwoModeUnitary, _finish_state, _hermite_series,
                        beam_splitter, coherent_amplitudes,
                        displacement_operator, fidelity, partial_trace, squeeze_operator,
                        tensor, wrap_angle)
from cvpqc.nongauss import BeamSplitterRealization

HERMITICITY_TOL = 1e-12
EIG_FLOOR = -1e-10


def annihilation(cutoff: FockCutoff) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff.dim, dtype=float)), 1).astype(complex)


def displacement_expm(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """D(alpha) as expm of the truncated generator; agrees with the Laguerre
    matrix on the interior of the basis."""
    a = annihilation(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze_expm(xi: SqueezeParam, cutoff: FockCutoff) -> np.ndarray:
    """S(xi) as expm of the truncated generator: exactly unitary on the truncated
    space, so it agrees with the library's exact matrix elements only on the
    interior of the basis."""
    a = annihilation(cutoff)
    adag = a.conj().T
    z = xi.xi
    return expm((np.conj(z) * (a @ a) - z * (adag @ adag)) / 2.0)


def squeezed_vacuum_amplitudes(xi: SqueezeParam, cutoff: FockCutoff) -> np.ndarray:
    """Analytic series: c_{2n} = (1/sqrt(cosh r)) sqrt((2n)!)/(2^n n!) (-e^{i phi} tanh r)^n,
    built by the term ratio; truncated, not renormalized."""
    c = np.zeros(cutoff.dim, dtype=complex)
    c[0] = 1.0 / math.sqrt(math.cosh(xi.r))
    t = -np.exp(1j * xi.phi) * math.tanh(xi.r)
    for n in range(0, (cutoff.dim - 1) // 2):
        c[2 * n + 2] = c[2 * n] * t * math.sqrt((2 * n + 1) * (2 * n + 2)) / (2 * (n + 1))
    return c


def squeezed_coherent_amplitudes(xi: SqueezeParam, alpha: complex, m_max: int) -> np.ndarray:
    """<m|S(xi) D(alpha)|0> for m = 0..m_max, from the Hermite closed form.

    Its recurrence, rewritten for the amplitudes themselves,
    c_{m+1} = (alpha c_m - nu sqrt(m) c_{m-1}) / (cosh r sqrt(m+1)) with
    nu = e^{i phi} sinh r, carries only numbers of modulus <= 1, so it reaches
    the levels far past any cutoff where H_m alone overflows.
    """
    ch = math.cosh(xi.r)
    nu = complex(math.cos(xi.phi), math.sin(xi.phi)) * math.sinh(xi.r)
    alpha = complex(alpha)
    amps = np.empty(m_max + 1, dtype=complex)
    amps[0] = cmath.exp(-0.5 * (abs(alpha) ** 2 - nu.conjugate() * alpha ** 2 / ch)) \
        / math.sqrt(ch)
    prev = 0j
    for m in range(m_max):
        prev, amps[m + 1] = amps[m], (alpha * amps[m] - nu * math.sqrt(m) * prev) \
            / (ch * math.sqrt(m + 1))
    return amps


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


def two_mode_dense(u: TwoModeUnitary) -> np.ndarray:
    """Full (dim^2 x dim^2) matrix of a block-stored two-mode unitary."""
    d = u.cutoff.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for label, (idx, blk) in u.blocks.items():
        rows = idx * d + (label - idx)
        out[np.ix_(rows, rows)] = blk
    return out


def two_mode_inverse(u: TwoModeUnitary) -> TwoModeUnitary:
    """The adjoint, block by block."""
    inv = {label: (idx, blk.conj().T) for label, (idx, blk) in u.blocks.items()}
    return TwoModeUnitary(u.cutoff, inv)


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


# ---------------------------------------------------------------------------
# single-mode states and two-mode operators no experiment builds


def coherent_state(alpha: complex, cutoff: FockCutoff,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> PureState:
    raw = coherent_amplitudes(alpha, cutoff)
    return _finish_state(raw, cutoff, tail_tol, f"coherent state alpha={alpha}")


def apply_mode_operator(op: np.ndarray, state: PureState, mode: int) -> PureState:
    """Apply a single-mode operator to one mode of a two-mode state."""
    if state.modes != 2:
        raise ValueError("expects a two-mode state")
    d = state.cutoff.dim
    if op.shape != (d, d):
        raise ValueError("operator dimension does not match the cutoff")
    psi = state.amplitudes.reshape(d, d)
    out = op @ psi if mode == 0 else psi @ op.T
    return PureState(out.reshape(-1), state.cutoff, modes=2, tail_mass=state.tail_mass)


class PairUnitary:
    """Two-mode unitary stored block-diagonally over the photon-number
    difference i - j, which pair creation and annihilation conserve (the
    library's ``TwoModeUnitary`` keys its blocks by the sum i + j)."""

    def __init__(self, cutoff: FockCutoff, blocks):
        self.cutoff = cutoff
        self.blocks = blocks  # i - j -> (i-index array, block matrix)

    def apply(self, state: PureState) -> PureState:
        if state.modes != 2 or state.cutoff != self.cutoff:
            raise ValueError("expects a two-mode state at the same cutoff")
        d = self.cutoff.dim
        psi = state.amplitudes.reshape(d, d)
        out = np.zeros_like(psi)
        for diff, (idx, blk) in self.blocks.items():
            out[idx, idx - diff] = blk @ psi[idx, idx - diff]
        return PureState(out.reshape(-1), self.cutoff, modes=2,
                         tail_mass=state.tail_mass)


@lru_cache(maxsize=16)
def two_mode_squeezer(zeta: SqueezeParam, cutoff: FockCutoff) -> PairUnitary:
    """exp[conj(z) a0 a1 - z a0+ a1+]; conserves the photon-number difference.

    Cached; treat the result as read-only.
    """
    d = cutoff.dim
    z = zeta.xi
    blocks = {}
    for diff in range(-(d - 1), d):
        idx = np.arange(diff, d) if diff >= 0 else np.arange(0, d + diff)
        gen = np.zeros((len(idx), len(idx)), dtype=complex)
        for a_, i in enumerate(idx):
            j = i - diff
            if a_ - 1 >= 0:
                gen[a_ - 1, a_] += np.conj(z) * math.sqrt(i) * math.sqrt(j)
            if a_ + 1 < len(idx):
                gen[a_ + 1, a_] -= z * math.sqrt(i + 1) * math.sqrt(j + 1)
        blocks[diff] = (idx, expm(gen))
    return PairUnitary(cutoff, blocks)


# ---------------------------------------------------------------------------
# the channel protocol: one key branch, its inverse, the key-averaged output


def _displaced_coherent(alpha: complex, beta: complex, cutoff: FockCutoff) -> np.ndarray:
    """Amplitudes of D(alpha)|beta> = e^{i Im(alpha conj(beta))} |alpha + beta>."""
    phase = np.exp(1j * (alpha * np.conj(beta)).imag)
    return phase * coherent_amplitudes(alpha + beta, cutoff)


def encrypt(beta: complex, xi: SqueezeParam, key_index: int, N: int, b: float,
            cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """One key branch: squeeze(displace_key(|beta>)) as a projector."""
    p, q = key_to_ring(key_index, N)
    row = _displaced_coherent(key_displacements(N, b)[key_index], beta, cutoff)
    return _key_average(row[None, :], xi, cutoff, tail_tol,
                        lambda k: f"encrypt beta={beta}, key p={p}, q={q}, r={xi.r}")


def decrypt(rho: DensityOperator, xi: SqueezeParam, key_index: int, N: int, b: float,
            cutoff: FockCutoff) -> DensityOperator:
    """Undo one key branch: conjugate by (squeeze . displace_key)^dagger."""
    key_to_ring(key_index, N)  # range check
    alpha = key_displacements(N, b)[key_index]
    u = squeeze_operator(xi, cutoff) @ displacement_operator(alpha, cutoff)
    mat = u.conj().T @ rho.matrix @ u
    return DensityOperator(mat, cutoff)


def channel_output(beta: complex, xi: SqueezeParam, N: int, b: float,
                   cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Key-averaged encryption of |beta>."""
    rows = np.vstack([_displaced_coherent(a, beta, cutoff) for a in key_displacements(N, b)])
    return _key_average(rows, xi, cutoff, tail_tol,
                        _worst_key(N, f"channel output beta={beta}, N={N}"))


def secret_bits(N: int) -> float:
    """log2 of the message alphabet: the M keys plus one."""
    return math.log2(key_count(N) + 1)


# ---------------------------------------------------------------------------
# single-ring mixtures and squeezed-ring closed forms


def conformation_ring(p: int, radius: float, cutoff: FockCutoff,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """p-point ring mixture at an explicit radius (decoupled from the N schedule),
    through the library's key-average pipeline."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    alphas = radius * np.exp(1j * (np.pi / p) * (2 * np.arange(1, p + 1) - 1))
    return _key_average(coherent_amplitudes(alphas, cutoff), _NO_SQUEEZE, cutoff, tail_tol,
                        lambda k: f"ring p={p}, radius={radius}, q={k + 1}")


def squeezed_conformation(spec: ConformationSpec, xi: SqueezeParam, cutoff: FockCutoff,
                          tail_tol: float = DEFAULT_TAIL_TOL) -> DensityOperator:
    """Ring average of squeezed displaced vacua, built operationally."""
    return _key_average(coherent_amplitudes(spec.displacements(), cutoff), xi, cutoff,
                        tail_tol, lambda k: f"squeezed ring p={spec.p}, r={xi.r}, q={k + 1}")


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


def squeezed_vacuum_distance_closed_form(r: float) -> float:
    """Distance between a squeezed vacuum and the vacuum: 2 sinh(r/2)/sqrt(cosh r)."""
    return 2.0 * math.sinh(r / 2.0) / math.sqrt(math.cosh(r))


# ---------------------------------------------------------------------------
# factorized model of the 50:50 tap


@dataclass(frozen=True)
class DecompositionReport:
    """Fit of the factorized tap model against direct simulation.

    The model: local squeezers at half strength on both arms, a two-mode
    squeezer at half strength across them, and equal displacements on both
    arms.  Two displacement conventions are scored, amplitude/2 and
    amplitude/sqrt(2); ``best`` is the larger fidelity.
    """

    alpha: complex
    xi: SqueezeParam
    fidelity_half: float
    fidelity_sqrt2: float

    @property
    def best(self) -> float:
        return max(self.fidelity_half, self.fidelity_sqrt2)

    def __float__(self) -> float:
        return self.best


def _factorized_model(alpha_each: complex, xi: SqueezeParam, cutoff: FockCutoff,
                      tail_tol: float) -> PureState:
    """Local-squeeze(half) x2 . two-mode-squeeze(half) . displace(each arm)."""
    half = xi.half()
    c = coherent_state(alpha_each, cutoff, tail_tol)
    state = two_mode_squeezer(half, cutoff).apply(tensor(c, c))
    s = squeeze_operator(half, cutoff)
    state = apply_mode_operator(s, state, 0)
    return apply_mode_operator(s, state, 1)


def verify_decomposition(alpha: complex, xi: SqueezeParam, cutoff: FockCutoff,
                         tail_tol: float = DEFAULT_TAIL_TOL) -> DecompositionReport:
    """Score the factorized tap model under both displacement conventions."""
    lhs = _tap_output(alpha, xi, cutoff, tail_tol)

    def score(amp_each: complex) -> float:
        rhs = _factorized_model(amp_each, xi, cutoff, tail_tol)
        num = abs(np.vdot(lhs.amplitudes, rhs.amplitudes)) ** 2
        den = float(np.vdot(rhs.amplitudes, rhs.amplitudes).real)
        return float(num / den) if den > 0 else 0.0

    return DecompositionReport(
        alpha=complex(alpha), xi=xi,
        fidelity_half=score(alpha / 2.0),
        fidelity_sqrt2=score(alpha / _SQRT2),
    )


# ---------------------------------------------------------------------------
# displacement from a strong ancilla, simulated in the two-mode Fock space


def displacement_via_beamsplitter_fock(realization: BeamSplitterRealization,
                                       input_state: PureState, cutoff: FockCutoff,
                                       tail_tol: float = DEFAULT_TAIL_TOL):
    """Mix the input with the coherent ancilla and keep the signal arm.

    Returns (signal-arm reduced state, fidelity against the ideally displaced
    input).  With the effective displacement held fixed, the fidelity climbs
    toward 1 as the transmission shrinks, because the signal amplitude
    sqrt(1-T) approaches unity.
    """
    if input_state.modes != 1 or input_state.cutoff != cutoff:
        raise ValueError("input must be a single-mode state at the given cutoff")
    T = realization.transmission
    gamma = complex(realization.ancilla_amp)

    ancilla = _finish_state(coherent_amplitudes(gamma, cutoff), cutoff, tail_tol,
                            f"ancilla gamma={gamma} at T={T} (raise the cutoff)")

    both = tensor(input_state, ancilla)
    # signal arm picks up sqrt(1-T) of itself and sqrt(T) of the ancilla
    mixed = beam_splitter(-math.asin(math.sqrt(T)), cutoff).apply(both)

    signal = partial_trace(mixed, 0)

    ideal = displacement_operator(realization.effective_displacement, cutoff) \
        @ input_state.amplitudes
    ideal = PureState(ideal / np.linalg.norm(ideal), cutoff)
    return signal, fidelity(ideal, signal) / signal.mass


# ---------------------------------------------------------------------------
# first-order squeezer and the even-coherent matching angles


def matching_varphi(phi_xi: float):
    """The two amplitude arguments that align an even coherent state with a
    squeezed vacuum of argument phi_xi: (phi_xi +/- pi) / 2."""
    return wrap_angle((phi_xi + math.pi) / 2.0), wrap_angle((phi_xi - math.pi) / 2.0)


def truncated_squeeze_operator(xi: SqueezeParam, cutoff: FockCutoff) -> np.ndarray:
    """First-order squeezer: 1 + (conj(xi)/2) a^2 - (xi/2) a+^2."""
    a = annihilation(cutoff)
    z = xi.xi
    eye = np.eye(cutoff.dim, dtype=complex)
    return eye + (np.conj(z) / 2.0) * (a @ a) - (z / 2.0) * (a.conj().T @ a.conj().T)


def truncated_squeeze_check(xi: SqueezeParam, cutoff: FockCutoff) -> float:
    """Norm of (full squeezer - first-order squeezer) on the low Fock block.

    Restricted to levels n <= n_max/3 so the comparison is free of
    truncation-boundary artifacts; the value scales as O(r^2).
    """
    full = squeeze_operator(xi, cutoff)
    trunc = truncated_squeeze_operator(xi, cutoff)
    lo = cutoff.n_max // 3 + 1
    return float(np.linalg.norm(full[:lo, :lo] - trunc[:lo, :lo]))
