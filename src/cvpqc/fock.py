"""Truncated Fock-basis linear algebra for one bosonic mode, and the beam
splitter that mixes two.

Every state and single-mode operator is a dense complex array over the number
basis |0>..|n_max>; only the beam splitter is real.  A single-mode pure state
is its normalized 1-D amplitude vector; a two-mode pure state is its d x d
amplitude matrix psi[i, j] = <i, j|psi>, and the reduced state of either mode
is a product of psi with its adjoint.  A two-mode gate conserves the total
photon number and covers the triangle i + j <= n_max, the sectors the cutoff
holds whole; a state's mass beyond it is a truncation tail like any other.
A density matrix is a plain d x d array.  Truncation is the dominant
numerical hazard, so every construction computes the probability weight its
raw amplitudes or matrix lose (the tail mass) and hands it to ``check_tail``,
the one judge of the caller-supplied budget: it raises TailMassError past the
budget, on a NaN tail, and on a tail below -1e-9 (more than unit mass);
``check_tails`` hands it the worst of many.  A state constructor then returns
the amplitudes renormalized.

Conventions used throughout:
    D(alpha) = exp(alpha a+ - conj(alpha) a)
    S(xi)    = exp((conj(xi) a^2 - xi a+^2) / 2),  xi = r e^{i phi}
    X_theta  = (a e^{-i theta} + a+ e^{i theta}) / 2
Entropies are in bits (log base 2).
"""
from __future__ import annotations

import importlib.util
import math
import numbers
import sys
from dataclasses import dataclass


def _lazy_numpy():
    """numpy, loaded at its first attribute access rather than here, so that a
    run that builds no array (``validate``, and the closed-form experiments)
    never pays for its import.  A numpy that is already loaded is returned as
    is; a missing one raises ModuleNotFoundError now.  The module stands in
    ``sys.modules``, so a later ``import numpy`` anywhere gets it and loads it."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


# channel, attack and nongauss take ``np`` from here
np = _lazy_numpy()

DEFAULT_TAIL_TOL = 1e-8

# eigenvalues below this are treated as exact zeros in entropies
ENTROPY_CLIP = 1e-14

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)


class TailMassError(ValueError):
    """Raised when a construction loses more probability to truncation than allowed."""

    def __init__(self, tail: float, tol: float, what: str):
        self.tail = float(tail)
        self.tol = float(tol)
        self.what = what
        super().__init__(
            f"truncation tail mass {tail:.3e} exceeds tolerance {tol:.3e} for {what}"
        )


def wrap_angle(x: float) -> float:
    """Map an angle into [0, 2*pi); the zero angle comes back as +0.0."""
    y = math.fmod(float(x), _TWO_PI)
    if y < 0.0:
        y += _TWO_PI  # rounds to 2 pi itself when -y is below half its ulp
    return 0.0 if y == 0.0 or y == _TWO_PI else y  # also -0.0 from -0.0 or -2 pi


@dataclass(frozen=True)
class FockCutoff:
    """Highest retained Fock level; basis dimension is n_max + 1 per mode."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, numbers.Integral) or self.n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def levels(self) -> np.ndarray:
        return np.arange(self.dim)


def log_factorial(n) -> np.ndarray:
    """log n! for each entry of the integer array ``n``."""
    return np.array([math.lgamma(k + 1.0) for k in n])


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing parameter xi = r e^{i phi} with r >= 0 and phi in [0, 2*pi);
    phi is 0 at r = 0, where S(xi) is the identity for every phi."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeezing magnitude must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", wrap_angle(self.phi) if self.r else 0.0)


def check_tail(tail: float, tail_tol: float, what: str) -> None:
    """Raise TailMassError, naming ``what``, unless ``tail`` lies in [-1e-9, tail_tol].

    The comparison is negated, so that a NaN tail fails it; a tail below
    -1e-9 is a mass above one, which no truncation of a state can hold.
    """
    if not -1e-9 <= tail <= tail_tol:
        raise TailMassError(tail, tail_tol, what)


def check_tails(tails: np.ndarray, tail_tol: float, what) -> None:
    """check_tail on the entry k of the 1-D array ``tails`` furthest outside
    [-1e-9, tail_tol], or on its first NaN, named ``what(k)``."""
    k = int(np.argmax(np.maximum(tails - tail_tol, -1e-9 - tails)))
    check_tail(float(tails[k]), tail_tol, what(k))


def _finish_state(raw: np.ndarray, tail_tol: float, what: str) -> np.ndarray:
    """Tail-check raw amplitudes, then return them normalized."""
    nrm2 = float(np.vdot(raw, raw).real)
    check_tail(1.0 - nrm2, tail_tol, what)
    return raw / math.sqrt(nrm2)


def row_tails(rows: np.ndarray) -> np.ndarray:
    """The mass each row of truncated amplitudes has lost."""
    return 1.0 - np.einsum("ij,ij->i", rows, rows.conj()).real


def check_row_tails(rows: np.ndarray, tail_tol: float, what) -> None:
    """check_tails on the mass each row of truncated amplitudes has lost."""
    check_tails(row_tails(rows), tail_tol, what)


# ---------------------------------------------------------------------------
# elementary states


def coherent_amplitudes(alphas, cutoff: FockCutoff) -> np.ndarray:
    """Exact amplitudes e^{-|a|^2/2} a^n / sqrt(n!), truncated (not renormalized),
    one row per amplitude a of the list ``alphas``."""
    alphas = np.asarray(alphas).tolist()
    n = cutoff.levels()
    # per-alpha scalars in Python floats: np.log and np.angle over an array can
    # differ in the last bit, and a row must not depend on its batch; a Python
    # square past the float range is inf without numpy's overflow warning.  An
    # alpha of 0 takes zeros here and gets the exact vacuum row below.
    log_abs, half_sq, angle = np.array(
        [(math.log(abs(a)), abs(a) * abs(a) / 2.0, np.angle(a)) if a != 0 else (0.0, 0.0, 0.0)
         for a in alphas]).reshape(-1, 3).T[:, :, None]
    # the phases e^{i n angle}, then the magnitudes multiplied in place: the
    # rows and a half-stack of reals are all that is live
    rows = np.multiply(1j * n, angle)
    np.exp(rows, out=rows)
    # log-space magnitudes keep large |alpha| from overflowing the factorial ratio;
    # beyond |alpha| ~ 1e154 the square is inf and the row is zero, a tail of 1
    mag = n * log_abs
    mag -= 0.5 * log_factorial(n)
    mag -= half_sq
    np.exp(mag, out=mag)
    np.multiply(mag, rows, out=rows)
    vacuum = [k for k, a in enumerate(alphas) if a == 0]
    rows[vacuum] = 0.0
    rows[vacuum, 0] = 1.0
    return rows


# ---------------------------------------------------------------------------
# displacement and squeezing


def displacement_operator(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """Matrix of D(alpha) in the truncated basis, from its exact elements

        g_n = <n+k|D|n> = e^{-x/2} alpha^k sqrt(n!/(n+k)!) L_n^(k)(x),   x = |alpha|^2,

    (the upper triangle follows from D(alpha)+ = D(-alpha)).  All diagonals k
    step down n at once by the Laguerre recurrence written for g and its
    difference u; the plain three-term form drifts at small x, where its two
    solutions nearly coincide:

        u_n = (-x g_{n-1} + (n-1) u_{n-1}) / sqrt(n (n+k)),
        g_n = sqrt((n+k)/n) g_{n-1} + u_n,

    from u_0 = 0 and g_0 the coherent amplitude of alpha (or of -conj(alpha))
    at level k, so every g is a matrix element of modulus <= 1.
    """
    if alpha == 0:
        return np.eye(cutoff.dim, dtype=complex)
    d = cutoff.dim
    x = abs(alpha) ** 2
    k = cutoff.levels()
    # g[n, 0, k] = <n+k|D|n> (below the main diagonal), g[n, 1, k] = <n|D|n+k> (above)
    g = np.zeros((d, 2, d), dtype=complex)
    g[0] = coherent_amplitudes(np.array([alpha, -np.conj(alpha)]), cutoff)
    u = np.zeros((2, d), dtype=complex)
    for n in range(1, d):
        kk = k[:d - n]  # diagonal k reaches row n + k <= n_max
        u = (-x * g[n - 1, :, :d - n] + (n - 1) * u[:, :d - n]) / np.sqrt(n * (n + kk))
        g[n, :, :d - n] = np.sqrt((n + kk) / n) * g[n - 1, :, :d - n] + u
    m, n = k[:, None], k[None, :]
    return g[np.minimum(m, n), (m < n).astype(int), np.abs(m - n)]


def squeeze_operator(xi: SqueezeParam, cutoff: FockCutoff, width: int) -> np.ndarray:
    """The d x width block <m|S(xi)|n>, m <= n_max and n < width, by the two-term
    recurrence of the matrix elements

        S_00 = sqrt(sech r),   S_m0 = -sqrt((m-1)/m) t S_{m-2,0},
        S_mn = sqrt((n-1)/n) conj(t) S_{m,n-2} + sqrt(m/n) sech r S_{m-1,n-1},

    with t = e^{i phi} tanh r.  Row m of a column needs only rows m and m - 1
    of the columns before, so the recurrence is closed on the first d rows:
    column n is the truncated S|n>, not unitary on the truncated space, and a
    squeezed row keeps only the mass the cutoff leaves it.

    The recurrence is not exact: it grows rounding by up to sech r + tanh r a
    level along the diagonal.  At r = 0.3 its entries hold to 1e-12 only while
    min(m, n) < 49, and at (193, 195) it gives -24.85 where the element is
    0.0172.  Applied to a coherent row, it rounds a level probability of
    S(xi) D(alpha)|0> by up to about 2^-53 e^{|alpha|^2 tanh r}, which the
    experiments' ``limits`` keep below tail_tol.
    """
    d = cutoff.dim
    e = math.exp(-xi.r)
    sech = 2.0 * e / (1.0 + e * e)  # from e^{-r}: cosh r overflows for r above ~710
    t = complex(math.cos(xi.phi), math.sin(xi.phi)) * math.tanh(xi.r)
    m = np.arange(d)
    s = np.zeros((d, width), dtype=complex)
    s[0, 0] = math.sqrt(sech)
    for k in range(2, d, 2):
        s[k, 0] = -math.sqrt((k - 1) / k) * t * s[k - 2, 0]
    for n in range(1, width):
        s[1:, n] = np.sqrt(m[1:] / n) * sech * s[:-1, n - 1]
        if n >= 2:
            s[:, n] += math.sqrt((n - 1) / n) * t.conjugate() * s[:, n - 2]
    return s


def padded_dim(amplitude: float, dim: int) -> int:
    """The smallest dimension d' >= dim past which a coherent state of the given
    amplitude holds less than 2^-106 of its mass, so its amplitudes beyond are
    below rounding: S(xi) applied to its row truncated at d' gives the first
    levels of S(xi) D(alpha)|0> to rounding.

    The Poisson(x) tail from level n > x, x = |alpha|^2, is at most the pmf at n
    over 1 - x / (n + 1); d' is where that bound falls below 2^-106, found by
    bisection below a level the bound has passed.  A vacuum needs no padding,
    and from x = 2^52 on no memory holds a dimension past x: both return dim.
    """
    x = amplitude * amplitude
    if not 0.0 < x < 2.0 ** 52:
        return dim
    log_x = math.log(x)
    lo = max(dim, math.floor(x) + 1)
    hi = lo + 150 + 16 * math.ceil(math.sqrt(x))
    while lo < hi:
        n = (lo + hi) // 2
        if n * log_x - x - math.lgamma(n + 1.0) - math.log1p(-x / (n + 1.0)) < -106 * _LN2:
            hi = n
        else:
            lo = n + 1
    return lo


def squeezed_coherent_state(xi: SqueezeParam, alphas, cutoff: FockCutoff,
                            tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Normalized amplitudes of S(xi) D(alpha) |0>, one row per alpha of the list
    ``alphas``, from the matrix elements of both factors; alpha = 0 gives the
    squeezed vacuum.  Each coherent row is squeezed at its ``padded_dim``,
    so the tail check sees the mass the state itself loses at the cutoff.

    Each row is the same as from a one-element list: S(xi) is built once, as
    its d x d' block, d' the widest row's dimension, and none at r = 0, where
    it is the identity; the rows are checked in order, so the first that fails
    names its alpha.
    """
    d = cutoff.dim
    widths = [padded_dim(abs(a), d) if xi.r != 0.0 else d for a in alphas]
    wide = max(widths, default=d)
    s = squeeze_operator(xi, cutoff, wide) if xi.r != 0.0 else None
    rows = coherent_amplitudes(alphas, FockCutoff(wide - 1))
    for k, (a, w) in enumerate(zip(alphas, widths)):
        rows[k, :d] = _finish_state(rows[k, :d] if s is None else s[:, :w] @ rows[k, :w],
                                    tail_tol,
                                    f"squeezed coherent r={xi.r}, phi={xi.phi}, alpha={a}")
    return rows[:, :d]


def squeezed_coherent_closed_form(xi: SqueezeParam, alpha: complex,
                                  cutoff: FockCutoff) -> np.ndarray:
    """Untruncated amplitudes <m|S(xi) D(alpha)|0>, m = 0..n_max, of the closed form

        <m| . > = (nu/(2 cosh r))^{m/2} / sqrt(cosh r * m!)
                  * exp[-(|alpha|^2 - conj(nu) alpha^2 / cosh r)/2]
                  * H_m(alpha / sqrt(2 nu cosh r)),      nu = e^{i phi} sinh r,

    computed by its Hermite recurrence rewritten for the amplitudes themselves,

        c_{m+1} = (alpha c_m - nu sqrt(m) c_{m-1}) / (cosh r sqrt(m+1)),

    which carries only numbers of modulus <= 1, so no level overflows where
    H_m alone would.  c_0 itself underflows for |alpha| near 40 and above,
    where the levels near |alpha|^2 are still of order 1, so the recurrence
    carries c_m = cur 2^e from a c_0 started in log space and moves whole
    powers of two, exactly, from cur into e whenever |cur| passes 1; where
    c_0 is normal, e stays 0.  It shares no code with ``squeeze_operator``, so
    the tests and the benchmark's honesty screen read it as the untruncated
    state.
    """
    ch = math.cosh(xi.r)
    nu = complex(math.cos(xi.phi), math.sin(xi.phi)) * math.sinh(xi.r)
    alpha = complex(alpha)
    arg = -0.5 * (abs(alpha) ** 2 - nu.conjugate() * alpha ** 2 / ch)  # c_0 = e^arg / sqrt(cosh r)
    e = min(0, math.floor(arg.real / _LN2))
    cur, prev = np.exp(arg - e * _LN2) / math.sqrt(ch), 0j
    amps = np.empty(cutoff.dim, dtype=complex)
    for m in range(cutoff.dim):
        amps[m] = complex(math.ldexp(cur.real, e), math.ldexp(cur.imag, e))
        prev, cur = cur, (alpha * cur - nu * math.sqrt(m) * prev) / (ch * math.sqrt(m + 1))
        if e < 0 and abs(cur) > 1.0:
            k = min(-e, math.frexp(abs(cur))[1])
            prev, cur, e = prev * 2.0 ** -k, cur * 2.0 ** -k, e + k
    return amps


# ---------------------------------------------------------------------------
# two-mode machinery


class TwoModeUnitary:
    """Photon-number-conserving real orthogonal two-mode gate on the triangle
    i + j <= n_max of the d x d amplitude matrix, stored block-diagonally over
    the total photon number s = i + j, 8 bytes an entry.

    Sector s <= n_max lies whole inside the cutoff, so each block is the exact
    gate on its sector, and the operator is exactly orthogonal on the triangle.
    A state's mass beyond the triangle is its truncation tail.  A complex block
    is refused: ``apply`` multiplies real and imaginary parts alike, and would
    drop its imaginary part.
    """

    def __init__(self, blocks):
        if any(np.iscomplexobj(blk) for blk in blocks):
            raise TypeError("a TwoModeUnitary's blocks must be real")
        self.blocks = blocks  # blocks[s]: the gate on sector s, basis |i, s-i>, i = 0..s
        d = len(blocks)
        n = np.arange(d)
        self.beyond = n[:, None] + n[None, :] >= d  # i + j > n_max
        # sector s of the flattened d x d matrix: i * d + (s - i), i = 0..s, a slice
        # (of step 1 at d = 1, where it holds the one entry 0)
        step = max(d - 1, 1)
        self._sectors = [(slice(s, s * d + 1, step), blk) for s, blk in enumerate(blocks)]

    def apply(self, psi: np.ndarray, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
        """U psi for the d x d amplitude matrix psi[i, j] = <i, j|psi>; the mass
        of psi beyond i + j <= n_max is dropped and judged by check_tail."""
        lost = psi[self.beyond]
        check_tail(float(np.vdot(lost, lost).real), tail_tol,
                   f"two-mode state beyond i + j <= {len(self.blocks) - 1}")
        # each real block multiplies its sector's (re, im) pairs, rows of a
        # (d^2, 2) float view; a real psi is cast first, or the view would pair
        # neighbouring entries
        psi = np.ascontiguousarray(psi, dtype=complex)
        out = np.zeros_like(psi)
        flat, out_flat = (a.reshape(-1).view(float).reshape(-1, 2) for a in (psi, out))
        for at, blk in self._sectors:
            out_flat[at] = blk @ flat[at]
        return out


def beam_splitter(theta: float, cutoff: FockCutoff) -> TwoModeUnitary:
    """exp[theta (a0 a1+ - a0+ a1)]; mode-0 annihilation maps to a0 cos + a1 sin.

    Conserves total photon number, so it is built block by block over the
    sectors s = 0..n_max that the cutoff holds whole (Campos, Saleh & Teich,
    Phys. Rev. A 40, 1371 (1989)).  Column i of block s is U|i, s-i>, and since
    U a0+ U+ = A = c a0+ + sn a1+ and U a1+ U+ = B = -sn a0+ + c a1+
    (c = cos theta, sn = sin theta) it follows exactly from block s - 1:

        U|i, j> = [sqrt(i) A U|i-1, j> + sqrt(j) B U|i, j-1>] / (i + j),

    four real elementwise updates per sector and no exponential of a truncated
    generator (the Fock form of Risbo's recursion for the Wigner d-matrix).  The
    generator a0 a1+ - a0+ a1 is real in the Fock basis, so every block is real
    orthogonal (Campos et al.), and its d (d+1) (2d+1) / 6 entries are held as
    float64, 8 bytes each, in one array: 2.8 MB at cutoff 100.  A sweep builds
    it once and applies it to every state of its grid.
    """
    c, sn = math.cos(theta), math.sin(theta)
    d = cutoff.dim
    root = np.sqrt(np.arange(d))
    # the blocks are views of one array: a block per allocation left the freed
    # temporaries of each sector as holes between kept blocks, 1.2 MB of peak
    # RSS at cutoff 100
    store = np.empty(d * (d + 1) * (2 * d + 1) // 6)
    blocks, prev = [], np.ones((1, 1))
    for s in range(d):
        at = s * (s + 1) * (2 * s + 1) // 6  # the entries of blocks 0..s-1
        if s:
            # a0+ and a1+ on the columns of block s - 1: row k - 1 -> k with
            # factor sqrt(k), and row k -> k with sqrt(s - k)
            up, stay = root[1:s + 1, None] * prev, root[s:0:-1, None] * prev
            # sqrt(i) / s for columns i = 1..s, and sqrt(j) / s for j = s - i, i = 0..s-1
            w, v = root[1:s + 1] / s, root[s:0:-1] / s
            prev = np.zeros((s + 1, s + 1))
            prev[1:, 1:] = (c * w) * up
            prev[:-1, 1:] += (sn * w) * stay
            prev[1:, :-1] -= (sn * v) * up
            prev[:-1, :-1] += (c * v) * stay
        blk = store[at:at + (s + 1) ** 2].reshape(s + 1, s + 1)
        blk[...] = prev
        blocks.append(blk)
    return TwoModeUnitary(blocks)


# ---------------------------------------------------------------------------
# metrics


def hs_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """sqrt(tr (rho1 - rho2)^2); equals the Frobenius norm for Hermitian arguments.

    Orthogonal pure states are at distance sqrt(2).
    """
    if rho1.shape != rho2.shape:
        raise ValueError(f"cross-cutoff operation rejected: {rho1.shape} vs {rho2.shape}")
    return float(np.linalg.norm(rho1 - rho2))


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """<psi| rho |psi> of normalized amplitudes against a density matrix."""
    return float((psi.conj() @ rho @ psi).real)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-tr rho log2 rho with eigenvalues below the clip treated as exact zeros."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > ENTROPY_CLIP]
    return float(-(w * np.log2(w)).sum() + 0.0)


def quadrature_variance(ea: complex, ea2: complex, en: float, theta: float) -> float:
    """Var X_theta of a state with moments <a> = ea, <a^2> = ea2 and <a+ a> = en:
    <X_theta^2> - <X_theta>^2, with <X_theta> = Re(ea e^{-i theta}) and
    <X_theta^2> = (2 Re(ea2 e^{-2 i theta}) + 2 en + 1) / 4, summed a quarter at a
    time, so that it is finite wherever its terms are; the vacuum gives 1/4."""
    ex = ea.real * math.cos(theta) + ea.imag * math.sin(theta)
    ex2 = (0.5 * (ea2.real * math.cos(2.0 * theta) + ea2.imag * math.sin(2.0 * theta))
           + 0.5 * en + 0.25)
    return ex2 - ex * ex
