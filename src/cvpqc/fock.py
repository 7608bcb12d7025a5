"""Truncated Fock-basis linear algebra for one or two bosonic modes.

Everything is a dense complex array over the number basis |0>..|n_max>
(per mode).  Truncation is the dominant numerical hazard, so state
constructors measure the probability weight they lose (the tail mass)
and refuse to proceed when it exceeds a caller-supplied budget.

Conventions used throughout:
    D(alpha) = exp(alpha a+ - conj(alpha) a)
    S(xi)    = exp((conj(xi) a^2 - xi a+^2) / 2),  xi = r e^{i phi}
    X_theta  = (a e^{-i theta} + a+ e^{i theta}) / 2
Entropies are in bits (log base 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

DEFAULT_TAIL_TOL = 1e-8

# eigenvalues below this are treated as exact zeros in entropies
ENTROPY_CLIP = 1e-14

_TWO_PI = 2.0 * math.pi


class TailMassError(ValueError):
    """Raised when a construction loses more probability to truncation than allowed."""

    def __init__(self, tail: float, tol: float, what: str):
        self.tail = float(tail)
        self.tol = float(tol)
        self.what = what
        super().__init__(
            f"truncation tail mass {tail:.3e} exceeds tolerance {tol:.3e} for {what}"
        )

    def __reduce__(self):
        # survives pickling through worker pools
        return (TailMassError, (self.tail, self.tol, self.what))


def wrap_angle(x: float) -> float:
    """Map an angle into [0, 2*pi)."""
    y = math.fmod(float(x), _TWO_PI)
    return y + _TWO_PI if y < 0.0 else y


@dataclass(frozen=True)
class FockCutoff:
    """Highest retained Fock level; basis dimension is n_max + 1 per mode."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def levels(self) -> np.ndarray:
        return np.arange(self.dim)


def heuristic_cutoff(b: float) -> int:
    """Cutoff rule n_max = ceil((b + 4*sqrt(b))^2) for disk-radius / amplitude scale b."""
    b = float(b)
    if b <= 0:
        raise ValueError("scale must be positive")
    return int(math.ceil((b + 4.0 * math.sqrt(b)) ** 2))


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing parameter xi = r e^{i phi} with r >= 0 and phi in [0, 2*pi)."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeezing magnitude must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", wrap_angle(self.phi))

    @property
    def xi(self) -> complex:
        return self.r * np.exp(1j * self.phi)

    def half(self) -> "SqueezeParam":
        return SqueezeParam(self.r / 2.0, self.phi)


def _check_same_cutoff(a, b):
    if a.cutoff != b.cutoff:
        raise ValueError(f"cross-cutoff operation rejected: {a.cutoff} vs {b.cutoff}")


@dataclass
class PureState:
    """Normalized state vector in the truncated basis.

    ``tail_mass`` records the probability weight lost to truncation at
    construction time (before renormalization).  Treated as immutable;
    the amplitude buffer is write-locked.
    """

    amplitudes: np.ndarray
    cutoff: FockCutoff
    modes: int = 1
    tail_mass: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        expected = self.cutoff.dim ** self.modes
        if self.modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {self.modes}")
        if amp.shape != (expected,):
            raise ValueError(f"amplitude vector must have shape ({expected},), got {amp.shape}")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        _check_same_cutoff(self, other)
        if self.modes != other.modes:
            raise ValueError("mode-count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density_operator(self) -> "DensityOperator":
        """|psi><psi| of a single-mode state; two-mode states reduce by partial_trace."""
        if self.modes != 1:
            raise ValueError("density_operator expects a single-mode state")
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.cutoff)


def _finish_state(raw: np.ndarray, cutoff: FockCutoff, tail_tol: float,
                  what: str) -> PureState:
    """Tail-check raw amplitudes, then normalize."""
    nrm2 = float(np.vdot(raw, raw).real)
    tail = max(0.0, 1.0 - nrm2)
    if tail > tail_tol:
        raise TailMassError(tail, tail_tol, what)
    return PureState(raw / math.sqrt(nrm2), cutoff, tail_mass=tail)


class DensityOperator:
    """Single-mode density matrix with recorded mass (trace; < 1 quantifies truncation loss).

    Only the shape and the trace are checked here.  Every library matrix is
    Hermitian and positive semidefinite by construction (an average of
    projectors, a conjugation, or a partial trace of a pure state).
    """

    def __init__(self, matrix, cutoff: FockCutoff):
        m = np.asarray(matrix, dtype=complex)
        d = cutoff.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d} for this cutoff, got {m.shape}")
        tr = complex(np.trace(m))
        if abs(tr.imag) > 1e-10:
            raise ValueError(f"trace has imaginary part {tr.imag:.3e}")
        if tr.real > 1.0 + 1e-9 or tr.real <= 0.0:
            raise ValueError(f"trace {tr.real!r} outside (0, 1]")
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self.cutoff = cutoff
        self.mass = tr.real


# ---------------------------------------------------------------------------
# elementary states


def vacuum(cutoff: FockCutoff, modes: int = 1) -> PureState:
    if modes not in (1, 2):
        raise ValueError(f"modes must be 1 or 2, got {modes}")
    amp = np.zeros(cutoff.dim ** modes, dtype=complex)
    amp[0] = 1.0
    return PureState(amp, cutoff, modes=modes, tail_mass=0.0)


def coherent_amplitudes(alpha, cutoff: FockCutoff) -> np.ndarray:
    """Exact amplitudes e^{-|a|^2/2} a^n / sqrt(n!), truncated (not renormalized).

    ``alpha`` is one amplitude, or a 1-D array of them for one row per alpha.
    """
    scalar = np.ndim(alpha) == 0
    alphas = [alpha] if scalar else alpha
    n = cutoff.levels()
    rows = np.zeros((len(alphas), cutoff.dim), dtype=complex)
    rows[:, 0] = 1.0  # alpha = 0 keeps this vacuum row exactly
    nonzero = [k for k, a in enumerate(alphas) if a != 0]
    if nonzero:
        # per-alpha scalars in scalar arithmetic: np.log and np.angle over an array
        # can differ in the last bit, and a row must not depend on its batch
        log_abs, half_sq, angle = np.array(
            [(math.log(abs(alphas[k])), abs(alphas[k]) * abs(alphas[k]) / 2.0,
              np.angle(alphas[k])) for k in nonzero]).T[:, :, None]
        # log-space magnitudes keep large |alpha| from overflowing the factorial ratio;
        # beyond |alpha| ~ 1e154 the square is inf and the row is zero, a tail of 1
        logmag = n * log_abs - 0.5 * gammaln(n + 1) - half_sq
        rows[nonzero] = np.exp(logmag) * np.exp(1j * n * angle)
    return rows[0] if scalar else rows


# ---------------------------------------------------------------------------
# displacement and squeezing


def displacement_operator(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """Matrix of D(alpha) in the truncated basis, from the analytic elements

        <m|D|n> = sqrt(n!/m!) alpha^{m-n} e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2)

    for m >= n (the m < n triangle follows from D(alpha)+ = D(-alpha)).
    """
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


def squeeze_operator(xi: SqueezeParam, cutoff: FockCutoff) -> np.ndarray:
    """Exact matrix elements <m|S(xi)|n>, m, n <= n_max, by their two-term recurrence

        S_00 = sqrt(sech r),   S_m0 = -sqrt((m-1)/m) t S_{m-2,0},
        S_mn = sqrt((n-1)/n) conj(t) S_{m,n-2} + sqrt(m/n) sech r S_{m-1,n-1},

    with t = e^{i phi} tanh r.  Column n is the truncated S|n>, so it is not
    unitary on the truncated space: a squeezed row keeps exactly the mass that
    truncation leaves it, and the tail checks see what is lost.
    """
    d = cutoff.dim
    e = math.exp(-xi.r)
    sech = 2.0 * e / (1.0 + e * e)  # from e^{-r}: cosh r overflows for r above ~710
    t = complex(math.cos(xi.phi), math.sin(xi.phi)) * math.tanh(xi.r)
    m = np.arange(d)
    s = np.zeros((d, d), dtype=complex)
    s[0, 0] = math.sqrt(sech)
    for k in range(2, d, 2):
        s[k, 0] = -math.sqrt((k - 1) / k) * t * s[k - 2, 0]
    for n in range(1, d):
        s[1:, n] = np.sqrt(m[1:] / n) * sech * s[:-1, n - 1]
        if n >= 2:
            s[:, n] += math.sqrt((n - 1) / n) * t.conjugate() * s[:, n - 2]
    return s


def squeezed_coherent_state(xi: SqueezeParam, alpha: complex, cutoff: FockCutoff,
                            tail_tol: float = DEFAULT_TAIL_TOL) -> PureState:
    """S(xi) D(alpha) |0> from the exact truncated matrix elements of both factors;
    alpha = 0 gives the squeezed vacuum.  The tail check sees the mass that the
    coherent row and the squeezing both lose at the cutoff."""
    raw = squeeze_operator(xi, cutoff) @ coherent_amplitudes(alpha, cutoff)
    return _finish_state(raw, cutoff, tail_tol,
                         f"squeezed coherent r={xi.r}, phi={xi.phi}, alpha={alpha}")


def _hermite_series(x: complex, dim: int) -> np.ndarray:
    """Physicists' Hermite polynomials H_0(x) .. H_{dim-1}(x) at a complex argument,
    by the three-term recurrence H_{m+1} = 2x H_m - 2m H_{m-1}."""
    herm = np.zeros(dim, dtype=complex)
    herm[0] = 1.0
    if dim > 1:
        herm[1] = 2.0 * x
    for m in range(1, dim - 1):
        herm[m + 1] = 2.0 * x * herm[m] - 2.0 * m * herm[m - 1]
    return herm


def squeezed_coherent_closed_form(xi: SqueezeParam, alpha: complex,
                                  cutoff: FockCutoff) -> np.ndarray:
    """Closed-form amplitudes of S(xi) D(alpha) |0> via complex-argument Hermite polynomials.

        <m| . > = (nu/(2 cosh r))^{m/2} / sqrt(cosh r * m!)
                  * exp[-(|alpha|^2 - conj(nu) alpha^2 / cosh r)/2]
                  * H_m(alpha / sqrt(2 nu cosh r)),      nu = e^{i phi} sinh r.

    The H_m branch ambiguity cancels against (nu)^{m/2} since H_m(-x) = (-1)^m H_m(x).
    Used as the independent oracle for the operational construction.
    """
    if xi.r == 0.0:
        return coherent_amplitudes(alpha, cutoff)
    nu = np.exp(1j * xi.phi) * math.sinh(xi.r)
    ch = math.cosh(xi.r)
    pref = np.exp(-0.5 * (abs(alpha) ** 2 - np.conj(nu) * alpha ** 2 / ch))
    herm = _hermite_series(alpha / np.sqrt(2.0 * nu * ch), cutoff.dim)
    m = cutoff.levels()
    scale = (nu / (2.0 * ch)) ** (m / 2.0) / math.sqrt(ch) * np.exp(-0.5 * gammaln(m + 1))
    return scale * pref * herm


# ---------------------------------------------------------------------------
# two-mode machinery

# Mode ordering: amplitude index i*dim + j means |i>_0 (x) |j>_1.


def tensor(a: PureState, b: PureState) -> PureState:
    _check_same_cutoff(a, b)
    if a.modes != 1 or b.modes != 1:
        raise ValueError("tensor expects two single-mode states")
    amp = np.kron(a.amplitudes, b.amplitudes)
    tail = a.tail_mass + b.tail_mass
    return PureState(amp, a.cutoff, modes=2, tail_mass=tail)


class TwoModeUnitary:
    """Photon-number-conserving two-mode unitary, stored block-diagonally over
    the total photon number s = i + j.

    Each block is exactly unitary, so the whole operator is.
    """

    def __init__(self, cutoff: FockCutoff, blocks):
        self.cutoff = cutoff
        self.blocks = blocks  # s -> (i-index array, block matrix)

    def apply(self, state: PureState) -> PureState:
        if state.modes != 2 or state.cutoff != self.cutoff:
            raise ValueError("expects a two-mode state at the same cutoff")
        d = self.cutoff.dim
        psi = state.amplitudes.reshape(d, d)
        out = np.zeros_like(psi)
        for s, (idx, blk) in self.blocks.items():
            out[idx, s - idx] = blk @ psi[idx, s - idx]
        return PureState(out.reshape(-1), self.cutoff, modes=2,
                         tail_mass=state.tail_mass)


@lru_cache(maxsize=1)
def beam_splitter(theta: float, cutoff: FockCutoff) -> TwoModeUnitary:
    """exp[theta (a0 a1+ - a0+ a1)]; mode-0 annihilation maps to a0 cos + a1 sin.

    Conserves total photon number, so it is exponentiated block-by-block
    (each block exactly unitary).  Its (2d^3 + d)/3 block entries are cached
    for the last angle only, which the tap reuses across its grid.
    Treat the result as read-only.
    """
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
    return TwoModeUnitary(cutoff, blocks)


def beam_splitter_5050(cutoff: FockCutoff) -> TwoModeUnitary:
    """50:50 mixer: |alpha> (x) |0>  ->  |alpha/sqrt2> (x) |alpha/sqrt2>."""
    return beam_splitter(math.pi / 4.0, cutoff)


# ---------------------------------------------------------------------------
# metrics


def hs_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """sqrt(tr (rho1 - rho2)^2); equals the Frobenius norm for Hermitian arguments.

    Orthogonal pure states are at distance sqrt(2).
    """
    _check_same_cutoff(rho1, rho2)
    return float(np.linalg.norm(rho1.matrix - rho2.matrix))


def fidelity(state: PureState, rho: DensityOperator) -> float:
    """<psi| rho |psi> of a pure state against a density operator."""
    v = state.amplitudes
    return float((v.conj() @ rho.matrix @ v).real)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-tr rho log2 rho with eigenvalues below the clip treated as exact zeros."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > ENTROPY_CLIP]
    return float(-(w * np.log2(w)).sum() + 0.0)


def purity(rho: DensityOperator) -> float:
    return float(np.linalg.norm(rho.matrix) ** 2)  # tr rho^2 for Hermitian rho


def partial_trace(state: PureState, mode: int) -> DensityOperator:
    """Reduced state of mode ``mode`` (0 or 1) of a two-mode pure state.

    With the amplitude matrix psi[i, j] = <i, j|state>, mode 0 keeps
    psi psi+ and mode 1 keeps psi^T psi*; no two-mode density matrix is formed.
    """
    if state.modes != 2:
        raise ValueError("partial trace expects a two-mode state")
    if mode not in (0, 1):
        raise ValueError("mode must be 0 or 1")
    d = state.cutoff.dim
    psi = state.amplitudes.reshape(d, d)
    red = psi @ psi.conj().T if mode == 0 else psi.T @ psi.conj()
    return DensityOperator(red, state.cutoff)


def mode_moments(state: PureState):
    """(<a>, <a^2>, <a+ a>) of a single-mode pure state, from amplitude shifts."""
    if state.modes != 1:
        raise ValueError("expects a single-mode state")
    c = state.amplitudes
    n = np.arange(c.shape[0], dtype=float)
    ea = complex(np.sum(np.conj(c[:-1]) * np.sqrt(n[1:]) * c[1:]))
    ea2 = complex(np.sum(np.conj(c[:-2]) * np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) * c[2:]))
    en = float(np.sum(n * np.abs(c) ** 2))
    return ea, ea2, en


def quadrature_variance(state: PureState, theta: float,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Var X_theta from <a>, <a^2>, <a+ a>; vacuum gives 1/4."""
    if state.tail_mass > tail_tol:
        raise TailMassError(state.tail_mass, tail_tol, "quadrature variance input")
    ea, ea2, en = mode_moments(state)
    ex = (ea * np.exp(-1j * theta)).real
    ex2 = (2.0 * (ea2 * np.exp(-2j * theta)).real + 2.0 * en + 1.0) / 4.0
    return float(ex2 - ex * ex)
