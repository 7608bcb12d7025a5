"""Reference implementations the tests compare the library against.

Each one computes a library quantity a second, independent way: by
exponentiating a truncated generator (displacement, squeezing, the beam
splitter's blocks), through scipy's special functions (the Laguerre
displacement matrix, the incomplete-gamma disk-uniform diagonal), from a
closed form or a series (the squeezed-vacuum term ratio, the Hermite form
of the squeezed coherent amplitudes, the vacuum weight of a squeezed key
from its amplitude α), or by
materializing a block-structured operator or a two-mode density matrix
densely.  A two-mode pure state is its amplitude matrix
psi[i, j] = <i, j|psi>, as in the library.  ``check_density`` holds the
trace, Hermiticity and positivity checks the library never runs.  The protocol
helpers (encrypt, decrypt, the channel output), the single-ring mixtures,
the factorized tap model and the first-order squeezer live here too: the
acceptance criteria use them, and no experiment does.  The ancilla
displacement simulated in the two-mode Fock space is the reference for its
closed form in ``nongauss``; the even coherent state and the squeezed vacuum
in the Fock basis, with their moments, are the reference for the overlap and
variance closed forms at small r and |beta|, and cancellation-free forms of the
same closed forms are their reference at any r and |beta|; and ``convergence_point``, one convergence grid point
built from scratch, is the reference for the convergence sweeps that share
work across squeezings.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammainc, gammaln

from cvpqc.attack import _SQRT2
from cvpqc.channel import (_worst_key, k_factor, key_count, key_displacements, key_rows,
                           key_to_ring, maximally_mixed, mixture_gamma, ring,
                           squeezed_mixture)
from cvpqc.fock import (DEFAULT_TAIL_TOL, FockCutoff,
                        SqueezeParam, TwoModeUnitary, _finish_state,
                        beam_splitter, check_tails, coherent_amplitudes, row_tails,
                        displacement_operator, fidelity, hs_distance, squeeze_operator,
                        squeezed_coherent_state, von_neumann_entropy, wrap_angle)
from cvpqc.nongauss import even_coherent_state

HERMITICITY_TOL = 1e-12
EIG_FLOOR = -1e-10
# how far the Fock tap's arm purity and entropy may sit from attack's closed forms
# at tail_tol 1e-8.  The Fock input is the truncated coherent row squeezed, S P c,
# which near the smallest cutoff that passes its tail check is off by more than
# its tail: over 300 draws (r <= 1, |alpha| <= 3) at that cutoff the purity moved
# by up to 8.7e-7 and the entropy by up to 3.9e-7; its trace distance from the
# exact state is of order sqrt(tail_tol)
TAP_CLOSED_FORM_TOL = 1e-5


def xi_value(xi: SqueezeParam) -> complex:
    """The complex squeezing parameter r e^{i phi}."""
    return xi.r * np.exp(1j * xi.phi)


def annihilation(cutoff: FockCutoff) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff.dim, dtype=float)), 1).astype(complex)


def displacement_expm(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """D(alpha) as expm of the truncated generator; agrees with the exact
    matrix elements only on the interior of the basis."""
    a = annihilation(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def displacement_laguerre(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """D(alpha) from the analytic elements

        <m|D|n> = sqrt(n!/m!) alpha^{m-n} e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2)

    for m >= n (the m < n triangle follows from D(alpha)+ = D(-alpha))."""
    if alpha == 0:
        return np.eye(cutoff.dim, dtype=complex)
    m = cutoff.levels()[:, None]
    n = cutoff.levels()[None, :]
    lo = np.minimum(m, n)
    k = np.abs(m - n)
    x = abs(alpha) ** 2
    base = np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + k + 1)) - x / 2.0)
    lag = eval_genlaguerre(lo, k, x)
    # one base per triangle raised to |m - n|: no negative power of a tiny alpha
    power = np.where(m >= n, alpha, -np.conj(alpha)) ** (k + 0j)
    return base * lag * power


def beam_splitter_expm(theta: float, cutoff: FockCutoff) -> "BoxUnitary":
    """The beam splitter over the whole d x d box, each photon-number-sum block
    expm of its generator truncated to the box.  Blocks s <= n_max are the
    library's; the sectors s > n_max are cut short by the box, so their blocks
    approximate the gate, which the library never applies there."""
    d = cutoff.dim
    blocks = {}
    for s in range(2 * d - 1):
        lo, hi = max(0, s - (d - 1)), min(s, d - 1)
        idx = np.arange(lo, hi + 1)
        gen = np.zeros((len(idx), len(idx)))
        for a_, i in enumerate(idx):
            j = s - i
            if i - 1 >= lo:
                gen[a_ - 1, a_] += math.sqrt(i) * math.sqrt(j + 1)  # a0 a1+
            if i + 1 <= hi:
                gen[a_ + 1, a_] -= math.sqrt(i + 1) * math.sqrt(j)  # -a0+ a1
        blocks[s] = (idx, expm(theta * gen).astype(complex))
    return BoxUnitary(blocks)


def disk_uniform_diagonal(b: float, cutoff: FockCutoff) -> np.ndarray:
    """Diagonal of the disk-uniform state: the regularized lower incomplete gamma
    function P(n+1, b^2), which is the Poisson(b^2) tail beyond level n, over b^2."""
    return gammainc(cutoff.levels() + 1, b * b) / (b * b)


def squeeze_expm(xi: SqueezeParam, cutoff: FockCutoff) -> np.ndarray:
    """S(xi) as expm of the truncated generator: exactly unitary on the truncated
    space, so it agrees with the library's exact matrix elements only on the
    interior of the basis."""
    a = annihilation(cutoff)
    adag = a.conj().T
    z = xi_value(xi)
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


def hermite_series(x: complex, dim: int) -> np.ndarray:
    """Physicists' Hermite polynomials H_0(x) .. H_{dim-1}(x) at a complex argument,
    by the three-term recurrence H_{m+1} = 2x H_m - 2m H_{m-1}."""
    herm = np.zeros(dim, dtype=complex)
    herm[0] = 1.0
    if dim > 1:
        herm[1] = 2.0 * x
    for m in range(1, dim - 1):
        herm[m + 1] = 2.0 * x * herm[m] - 2.0 * m * herm[m - 1]
    return herm


def squeezed_coherent_hermite(xi: SqueezeParam, alpha: complex,
                              cutoff: FockCutoff) -> np.ndarray:
    """<m|S(xi) D(alpha)|0> for m = 0..n_max via complex-argument Hermite polynomials:

        <m| . > = (nu/(2 cosh r))^{m/2} / sqrt(cosh r * m!)
                  * exp[-(|alpha|^2 - conj(nu) alpha^2 / cosh r)/2]
                  * H_m(alpha / sqrt(2 nu cosh r)),      nu = e^{i phi} sinh r.

    The H_m branch ambiguity cancels against (nu)^{m/2} since H_m(-x) = (-1)^m H_m(x).
    H_m alone overflows at large m, so this reference serves only at modest
    cutoffs; the tests use it at 60.
    """
    if xi.r == 0.0:
        return coherent_amplitudes([alpha], cutoff)[0]
    nu = np.exp(1j * xi.phi) * math.sinh(xi.r)
    ch = math.cosh(xi.r)
    pref = np.exp(-0.5 * (abs(alpha) ** 2 - np.conj(nu) * alpha ** 2 / ch))
    herm = hermite_series(alpha / np.sqrt(2.0 * nu * ch), cutoff.dim)
    m = cutoff.levels()
    scale = (nu / (2.0 * ch)) ** (m / 2.0) / math.sqrt(ch) * np.exp(-0.5 * gammaln(m + 1))
    return scale * pref * herm


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
    """Full (dim^2 x dim^2) matrix of the library's two-mode unitary on the
    triangle i + j <= n_max; rows and columns outside it are zero."""
    d = len(u.blocks)
    out = np.zeros((d * d, d * d), dtype=complex)
    for s, blk in enumerate(u.blocks):
        idx = np.arange(s + 1)
        rows = idx * d + (s - idx)
        out[np.ix_(rows, rows)] = blk
    return out


def two_mode_inverse(u: TwoModeUnitary) -> TwoModeUnitary:
    """The adjoint, block by block."""
    return TwoModeUnitary([blk.conj().T for blk in u.blocks])


def partial_trace_dense(psi: np.ndarray, mode: int) -> np.ndarray:
    """Reduced matrix of one mode of a two-mode pure state, traced out of the
    full (dim^2 x dim^2) density matrix, which holds dim^4 entries."""
    d = psi.shape[0]
    rho = np.outer(psi, psi.conj()).reshape(d, d, d, d)
    # axes [i, j, i', j'] for |i>_0 |j>_1 <i'|_0 <j'|_1
    return np.trace(rho, axis1=1, axis2=3) if mode == 0 else np.trace(rho, axis1=0, axis2=2)


def purity(rho: np.ndarray) -> float:
    """tr rho^2 of a Hermitian rho, its squared Frobenius norm."""
    return float(np.linalg.norm(rho) ** 2)


def check_density(m: np.ndarray) -> None:
    """Raise ValueError unless the density matrix has a real trace in (0, 1] and
    is Hermitian and positive semidefinite (the library checks only the mass
    its constructions lose to truncation, through ``fock.check_tails``)."""
    tr = complex(np.trace(m))
    # negated comparisons, so that a NaN trace fails them too
    if not abs(tr.imag) <= 1e-10:
        raise ValueError(f"trace has imaginary part {tr.imag:.3e}")
    if not 0.0 < tr.real <= 1.0 + 1e-9:
        raise ValueError(f"trace {tr.real!r} outside (0, 1]")
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"matrix not Hermitian: max |M - M+| = {herm:.3e}")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < EIG_FLOOR:
        raise ValueError(f"matrix not positive semidefinite: min eigenvalue {lo:.3e}")


# ---------------------------------------------------------------------------
# single-mode states and two-mode operators no experiment builds


def vacuum(cutoff: FockCutoff) -> np.ndarray:
    return np.eye(cutoff.dim, dtype=complex)[0]


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of normalized amplitudes."""
    return np.outer(psi, psi.conj())


def coherent_state(alpha: complex, cutoff: FockCutoff,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    (raw,) = coherent_amplitudes([alpha], cutoff)
    return _finish_state(raw, tail_tol, f"coherent state alpha={alpha}")


def apply_mode_operator(op: np.ndarray, psi: np.ndarray, mode: int) -> np.ndarray:
    """Apply a single-mode operator to one mode of a two-mode amplitude matrix."""
    if op.shape != psi.shape:
        raise ValueError("operator dimension does not match the cutoff")
    return op @ psi if mode == 0 else psi @ op.T


class BoxUnitary:
    """Two-mode operator over the whole d x d box, stored block-diagonally over
    the photon-number sum s = i + j = 0..2 n_max; unlike the library's
    ``TwoModeUnitary`` it keeps the sectors s > n_max and judges no tail."""

    def __init__(self, blocks):
        self.blocks = blocks  # i + j -> (i-index array, block matrix)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(psi)
        for s, (idx, blk) in self.blocks.items():
            out[idx, s - idx] = blk @ psi[idx, s - idx]
        return out


class PairUnitary:
    """Two-mode unitary stored block-diagonally over the photon-number
    difference i - j, which pair creation and annihilation conserve (the
    library's ``TwoModeUnitary`` keys its blocks by the sum i + j)."""

    def __init__(self, blocks):
        self.blocks = blocks  # i - j -> (i-index array, block matrix)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(psi)
        for diff, (idx, blk) in self.blocks.items():
            out[idx, idx - diff] = blk @ psi[idx, idx - diff]
        return out


@lru_cache(maxsize=16)
def two_mode_squeezer(zeta: SqueezeParam, cutoff: FockCutoff) -> PairUnitary:
    """exp[conj(z) a0 a1 - z a0+ a1+]; conserves the photon-number difference.

    Cached; treat the result as read-only.
    """
    d = cutoff.dim
    z = xi_value(zeta)
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
    return PairUnitary(blocks)


# ---------------------------------------------------------------------------
# the channel protocol: one key branch, its inverse, the key-averaged output


def _displaced_coherent(alpha: complex, beta: complex, cutoff: FockCutoff) -> np.ndarray:
    """Amplitudes of D(alpha)|beta> = e^{i Im(alpha conj(beta))} |alpha + beta>."""
    phase = np.exp(1j * (alpha * np.conj(beta)).imag)
    return phase * coherent_amplitudes([alpha + beta], cutoff)[0]


def key_average(rows: np.ndarray, squeezer: np.ndarray, tail_tol: float,
                what) -> np.ndarray:
    """Mean of the projectors on the rows v_k of ``rows``, each squeezed by the
    matrix ``squeezer``: the whole stack at once, where
    ``channel.squeezed_mixture`` sums blocks of keys.  ``what(k)`` names row k
    in the TailMassError raised when any row has lost more than ``tail_tol``."""
    squeezed = rows @ squeezer.T
    check_tails(row_tails(squeezed), tail_tol, what)
    return squeezed.T @ squeezed.conj() / rows.shape[0]


def encrypt(beta: complex, xi: SqueezeParam, key_index: int, N: int, b: float,
            cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """One key branch: squeeze(displace_key(|beta>)) as a projector."""
    p, q = key_to_ring(key_index, N)
    row = _displaced_coherent(key_displacements(N, b)[key_index], beta, cutoff)
    return key_average(row[None, :], squeeze_operator(xi, cutoff), tail_tol,
                        lambda k: f"encrypt beta={beta}, key p={p}, q={q}, r={xi.r}")


def decrypt(rho: np.ndarray, xi: SqueezeParam, key_index: int, N: int, b: float,
            cutoff: FockCutoff) -> np.ndarray:
    """Undo one key branch: conjugate by (squeeze . displace_key)^dagger."""
    key_to_ring(key_index, N)  # range check
    alpha = key_displacements(N, b)[key_index]
    u = squeeze_operator(xi, cutoff) @ displacement_operator(alpha, cutoff)
    return u.conj().T @ rho @ u


def channel_output(beta: complex, xi: SqueezeParam, N: int, b: float,
                   cutoff: FockCutoff, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Key-averaged encryption of |beta>."""
    rows = np.vstack([_displaced_coherent(a, beta, cutoff) for a in key_displacements(N, b)])
    return key_average(rows, squeeze_operator(xi, cutoff), tail_tol,
                        _worst_key(N, f"channel output beta={beta}, N={N}"))


def secret_bits(N: int) -> float:
    """log2 of the message alphabet: the M keys plus one."""
    return math.log2(key_count(N) + 1)


def convergence_point(N: int, b: float, xi: SqueezeParam, cutoff: FockCutoff,
                      tail_tol: float = DEFAULT_TAIL_TOL):
    """(d_hs, triangle_bound, entropy) of one convergence grid point, built from
    scratch: its own target, key rows and plain mixture, shared with no other
    squeezing.  The entropy is the plain mixture's, which S(xi) leaves
    unchanged (``test_squeezed_mixture_entropy_is_the_plain_mixtures`` checks
    that identity).  ``channel.convergence_rows`` must match it cell for cell."""
    mm = maximally_mixed(b, cutoff, tail_tol)
    gam = mixture_gamma(N, b, key_rows(N, b, cutoff), tail_tol)
    d_coh = hs_distance(mm, gam)
    entropy = von_neumann_entropy(gam)
    if xi.r == 0.0:
        return d_coh, d_coh, entropy
    gam_xi = squeezed_mixture(N, b, key_rows(N, b, cutoff), xi,
                              squeeze_operator(xi, cutoff), tail_tol)
    return hs_distance(mm, gam_xi), d_coh + hs_distance(gam_xi, gam), entropy


# ---------------------------------------------------------------------------
# single-ring mixtures and squeezed-ring closed forms


def conformation_ring(p: int, radius: float, cutoff: FockCutoff,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """p-point ring mixture at an explicit radius (decoupled from the N schedule),
    through the oracles' key average."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    alphas = radius * np.exp(1j * (np.pi / p) * (2 * np.arange(1, p + 1) - 1))
    return key_average(coherent_amplitudes(alphas, cutoff), np.eye(cutoff.dim), tail_tol,
                        lambda k: f"ring p={p}, radius={radius}, q={k + 1}")


def ring_displacements(N: int, b: float, p: int) -> np.ndarray:
    """The p displacements radius e^{i angle} of ring p of the N-ring family."""
    radius, angles = ring(N, b, p)
    return radius * np.exp(1j * angles)


def squeezed_conformation(N: int, b: float, p: int, xi: SqueezeParam, cutoff: FockCutoff,
                          tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Ring average of squeezed displaced vacua on ring p, built operationally."""
    return key_average(coherent_amplitudes(ring_displacements(N, b, p), cutoff),
                        squeeze_operator(xi, cutoff), tail_tol,
                        lambda k: f"squeezed ring p={p}, r={xi.r}, q={k + 1}")


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
    herm = hermite_series(x, d)
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


def tap_output(alpha: complex, xi: SqueezeParam, cutoff: FockCutoff,
               tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Amplitude matrix of the 50:50 tap's output for S(xi) D(alpha)|0> (x) |0>."""
    (signal,) = squeezed_coherent_state(xi, [alpha], cutoff, tail_tol)
    return beam_splitter(math.pi / 4, cutoff).apply(np.outer(signal, vacuum(cutoff)))


def _factorized_model(alpha_each: complex, xi: SqueezeParam, cutoff: FockCutoff,
                      tail_tol: float) -> np.ndarray:
    """Local-squeeze(half) x2 . two-mode-squeeze(half) . displace(each arm)."""
    half = SqueezeParam(xi.r / 2, xi.phi)
    c = coherent_state(alpha_each, cutoff, tail_tol)
    state = two_mode_squeezer(half, cutoff).apply(np.outer(c, c))
    s = squeeze_operator(half, cutoff)
    state = apply_mode_operator(s, state, 0)
    return apply_mode_operator(s, state, 1)


def verify_decomposition(alpha: complex, xi: SqueezeParam, cutoff: FockCutoff,
                         tail_tol: float = DEFAULT_TAIL_TOL) -> DecompositionReport:
    """Score the factorized tap model under both displacement conventions."""
    lhs = tap_output(alpha, xi, cutoff, tail_tol)

    def score(amp_each: complex) -> float:
        rhs = _factorized_model(amp_each, xi, cutoff, tail_tol)
        num = abs(np.vdot(lhs, rhs)) ** 2
        den = float(np.vdot(rhs, rhs).real)
        return float(num / den) if den > 0 else 0.0

    return DecompositionReport(
        alpha=complex(alpha), xi=xi,
        fidelity_half=score(alpha / 2.0),
        fidelity_sqrt2=score(alpha / _SQRT2),
    )


# ---------------------------------------------------------------------------
# displacement from a strong ancilla, simulated in the two-mode Fock space


def displacement_via_beamsplitter_fock(T: float, eff: complex, psi: np.ndarray,
                                       cutoff: FockCutoff,
                                       tail_tol: float = DEFAULT_TAIL_TOL):
    """Mix the input with the coherent ancilla gamma = eff / sqrt(T) and keep the
    signal arm.

    ``psi`` holds the input's normalized amplitudes at ``cutoff``.  Returns
    (signal-arm reduced state, fidelity against the input displaced by eff).
    With the effective displacement held fixed, the fidelity climbs toward 1
    as the transmission shrinks, because the signal amplitude sqrt(1-T)
    approaches unity.
    """
    if psi.shape != (cutoff.dim,):
        raise ValueError("input must be a state at the given cutoff")
    gamma = complex(eff) / math.sqrt(T)

    ancilla = _finish_state(coherent_amplitudes([gamma], cutoff)[0], tail_tol,
                            f"ancilla gamma={gamma} at T={T} (raise the cutoff)")

    # signal arm picks up sqrt(1-T) of itself and sqrt(T) of the ancilla, on the
    # box-wide splitter: independent of the library's, and it judges no tail
    mixed = beam_splitter_expm(-math.asin(math.sqrt(T)), cutoff).apply(
        np.outer(psi, ancilla))
    signal = mixed @ mixed.conj().T

    ideal = displacement_operator(eff, cutoff) @ psi
    ideal = ideal / np.linalg.norm(ideal)
    return signal, fidelity(ideal, signal) / np.trace(signal).real


# ---------------------------------------------------------------------------
# the non-Gaussian experiments' states in the Fock basis


def mode_moments(c: np.ndarray):
    """(<a>, <a^2>, <a+ a>) of normalized amplitudes c, from amplitude shifts."""
    n = np.arange(c.shape[0], dtype=float)
    ea = complex(np.sum(np.conj(c[:-1]) * np.sqrt(n[1:]) * c[1:]))
    ea2 = complex(np.sum(np.conj(c[:-2]) * np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) * c[2:]))
    en = float(np.sum(n * np.abs(c) ** 2))
    return ea, ea2, en


def overlap_even_vs_squeezed_fock(beta_mag: float, varphi: float, xi: SqueezeParam,
                                  cutoff: FockCutoff) -> float:
    """|<even beta|S(xi)|0>|^2 as the truncated Fock sum: the even coherent state
    from ``coherent_amplitudes`` against the squeezed vacuum from ``squeeze_operator``."""
    even = even_coherent_state(beta_mag, varphi, cutoff)
    (squeezed,) = squeezed_coherent_state(xi, [0.0], cutoff)
    return float(abs(np.vdot(even, squeezed)) ** 2)


# Cancellation-free forms of the same closed forms: every term they add is
# non-negative, or, in the even state's variance, takes away less than 0.56 of
# 1, so they round by a few eps relative to the value at any r and |beta|.


def squeezed_vacuum_variance_stable(r: float, phi: float, theta: float) -> float:
    """(1/4)(e^{-2r} cos^2(theta - phi/2) + e^{2r} sin^2(theta - phi/2))."""
    half = theta - 0.5 * phi
    return 0.25 * (math.exp(-2.0 * r) * math.cos(half) ** 2
                   + math.exp(2.0 * r) * math.sin(half) ** 2)


def even_variance_stable(beta_mag: float, varphi: float, theta: float) -> float:
    """(1/4)(1 + 4|b|^2 cos^2(theta - varphi) - 4|b|^2 / (e^{2|b|^2} + 1))."""
    b2 = beta_mag * beta_mag
    return 0.25 * (1.0 + 4.0 * b2 * math.cos(theta - varphi) ** 2
                   - 4.0 * b2 * math.exp(-2.0 * b2) / (1.0 + math.exp(-2.0 * b2)))


def overlap_stable(beta_mag: float, varphi: float, xi: SqueezeParam) -> float:
    """exp(-|b|^2 tanh r cos(2 varphi - phi)) / (cosh r cosh |b|^2), with
    1 + tanh r cos(2 varphi - phi) = 2 / (e^{2r} + 1) + 2 tanh r cos^2(varphi - phi/2)."""
    b2, e = beta_mag * beta_mag, math.exp(-xi.r)
    bracket = (2.0 * e * e / (1.0 + e * e)
               + 2.0 * math.tanh(xi.r) * math.cos(varphi - 0.5 * xi.phi) ** 2)
    return 4.0 * e * math.exp(-b2 * bracket) / ((1.0 + e * e) * (1.0 + math.exp(-2.0 * b2)))


# ---------------------------------------------------------------------------
# first-order squeezer and the even-coherent matching angles


def matching_varphi(phi_xi: float):
    """The two amplitude arguments that align an even coherent state with a
    squeezed vacuum of argument phi_xi: (phi_xi +/- pi) / 2."""
    return wrap_angle((phi_xi + math.pi) / 2.0), wrap_angle((phi_xi - math.pi) / 2.0)


def truncated_squeeze_operator(xi: SqueezeParam, cutoff: FockCutoff) -> np.ndarray:
    """First-order squeezer: 1 + (conj(xi)/2) a^2 - (xi/2) a+^2."""
    a = annihilation(cutoff)
    z = xi_value(xi)
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
