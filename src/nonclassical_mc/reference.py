"""Deterministic oracles for the infinite-medium point-source problem.

Two oracles are provided:

* the exact closed form of every law, f = M delta(x) + sum_j R_j
  e^{-kappa_j r} / (4 pi r), with no grid, truncated domain or tolerance,
  against which Monte Carlo tallies are scored; and
* a radial solver for the collision-rate balance f = c K[f] + first
  flight, valid for every law, which only the reference command runs:
  the discretized equation (nodal error O(h^2), classical O(h)) is one
  symmetric Toeplitz system, solved in O(M) memory, and the command
  reports the solution's weighted gap to the closed form.

Both run on numpy alone: the classical profile's exponential integral E1
is computed here, and the Toeplitz solve is preconditioned conjugate
gradients for T^-1 e_0 (O(M log M) per iteration, a handful of
iterations), the Gohberg-Semencul inverse applied by np.fft and
refinement against exponentially scaled FFT residuals, O(M log M) in all.

The 3-D convolution with kernel p(|x - x'|) / (4 pi |x - x'|^2) reduces,
for spherically symmetric fields, to the 1-D form

    K[g](r) = (1 / 2r) * integral_0^inf r' g(r') [P(|r - r'|) - P(r + r')] dr'

with the kernel profile P(u) = integral_u^inf p(s) / s ds read in closed
form off the model's mixture, or E1 for the classical law, which has none.
P is finite at 0+ for all laws except the classical one,
whose exponential-integral profile diverges logarithmically; the quadrature
handles that by integrating P analytically over the grid cells adjacent to
the diagonal instead of evaluating it at the singular node.

The sp2 atom re-deposits a fraction 4/9 of each collision at the same
location. The solver tracks the resulting point mass at the origin
explicitly (it feeds the volumetric source) and folds the same-radius
redeposition into the diagonal of the solved matrix (the Toeplitz symbol
at lag 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import CrossSectionSpec, PathLengthModel

__all__ = [
    "RadialGrid",
    "RadialSolution",
    "ConvergenceError",
    "ClosedForm",
    "closed_form",
    "solve_integral_equation",
]

EPS = float(np.finfo(float).eps)


def _exp1(x):
    """The exponential integral E1(x) = integral_x^inf e^{-t} / t dt, x > 0.

    On (0, 2] its series -gamma - ln x + sum_k (-1)^{k+1} x^k / (k k!),
    whose terms fall at least twofold from k = 2 on; above 2 the continued
    fraction e^{-x} / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - ...))) by modified
    Lentz, each point stopping once its factor is within eps of 1. Within
    2.2e-14 (relative) of scipy.special.exp1 on [1e-300, 700].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    series = x <= 2.0
    s = x[series]
    term = total = s
    k = 1
    while np.any(np.abs(term) > EPS * total):
        k += 1
        term = term * -s * (k - 1) / (k * k)
        total = total + term
    out[series] = -np.euler_gamma - np.log(s) + total
    v = x[~series]
    d = 1.0 / (v + 1.0)
    h = d.copy()
    c = np.full(v.shape, np.inf)
    todo = np.arange(v.size)
    i = 0
    while todo.size:
        i += 1
        b = v[todo] + (2 * i + 1)
        d[todo] = 1.0 / (b - i * i * d[todo])
        c[todo] = b - i * i / c[todo]
        delta = c[todo] * d[todo]
        h[todo] *= delta
        todo = todo[np.abs(delta - 1.0) > EPS]
    out[~series] = h * np.exp(-v)
    return out


class ConvergenceError(RuntimeError):
    """The oracle solve failed (singular matrix, f not finite, not within
    tolerance of the fixed point, or negative); carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _profile(model: PathLengthModel, u):
    """Kernel profile P(u) = integral_u^inf p(s)/s ds at u > 0."""
    st = model.xs.sigma_t
    if not model.mu:
        return st * _exp1(st * u)
    return st * sum(w * m * np.exp(-m * st * u) for m, w in zip(model.mu, model.weights))


def _profile_integral(model: PathLengthModel, x):
    """integral_0^x P(u) du at x > 0, exactly (tends to 1 - atom as x -> inf);
    the cell integral that stands in for the classical profile's log
    singularity next to the diagonal."""
    st = model.xs.sigma_t
    if not model.mu:
        w = st * x
        return w * _exp1(w) - np.exp(-w) + 1.0
    return -sum(w * np.expm1(-m * st * x) for m, w in zip(model.mu, model.weights))


@dataclass(frozen=True)
class RadialGrid:
    """m uniform radial nodes r_j = j r_max / m, j = 1..m, with trapezoid
    weights (the last node's halved)."""

    r_max: float
    m: int

    @property
    def spacing(self) -> float:
        return self.r_max / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.spacing, self.r_max, self.m)

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.m, self.spacing)
        w[-1] = 0.5 * self.spacing
        return w


def _operator(model: PathLengthModel, grid: RadialGrid, c: float):
    """The solved matrix A = I(1 - c atom) - cK as A = D^-1 S D, D = diag(r).

    Returns (tau, u): tau[k] is the symbol at lag k = 0..2M of a symmetric
    Toeplitz matrix T of order 2M + 1 on the indices -M..M, and u the
    correction to S's last column, so that S = T restricted to odd vectors
    plus u e_M^T. On the uniform grid r_n = nh, the kernel
    P(|r - r'|) - P(r + r') of K is P(|n - n'| h) - P((n + n') h), which
    is T's action on the odd extension x_{-n} = -x_n of a nodal vector.
    Nodal trapezoid everywhere except the two cells adjacent to each row's
    diagonal, where the (possibly singular) P(|r - r'|) factor is replaced
    by its exact cell integral against the endpoint-averaged integrand:
    that sets lags 0 and 1. u halves the last column's nodal part, as its
    node carries half a trapezoid weight and has no right cell; the
    near-diagonal correction at lag 1 stays whole.
    """
    m = grid.m
    h = grid.spacing
    # the last column's symbol: hP(kh), and the cell integral at lag 0
    half = np.concatenate(([float(_profile_integral(model, h))],
                           h * _profile(model, h * np.arange(1, 2 * m + 1))))
    tau = -0.5 * c * half
    tau[0] += 1.0 - c * model.atom_at_zero
    tau[1] = -0.25 * c * (half[0] + half[1])
    u = 0.25 * c * (half[m - 1::-1] - half[m + 1:])
    return tau, u


CG_MAX_ITERATIONS = 64  # _first_column's cap; it took 2 to 9 on every law tried
SCALE_LIMIT = -math.log(EPS)  # ln(1/eps): the most e-folds a refinement step scales by


def _first_column(tau: np.ndarray) -> np.ndarray:
    """x = T^-1 e_0 for the symmetric Toeplitz T of symbol tau, by conjugate
    gradients preconditioned with a circulant (Chan and Strang, SIAM J.
    Sci. Stat. Comput. 10, 104, 1989): O(N log N) per iteration, O(N)
    memory. With T normalized by tau[0], ft is the spectrum of the
    circulant of order nfft (as in _gohberg_semencul) whose leading block
    is T: T v is the leading block of its FFT product with v, and the
    preconditioner the same with 1 / ft. As tau[k] <= 0 for k >= 1, ft is
    at least the symbol at theta = 0, sum_k tau[|k|]; near c = 1 the
    quadrature's excess mass can make that negative while T itself stays
    definite, and CG converges all the same. An exact 0 in ft (a symbol
    summing to 0, as a 1-D Laplacian's does) gets a reciprocal of 0: the
    preconditioner, a leading block of that circulant pseudo-inverse, stays
    definite on vectors padded with zeros. CG stops once the residual's
    2-norm is eps (|e_0| = 1); a NaN in ft leaves x non-finite and the cap
    leaves it unconverged, which the solver's checks refuse."""
    n = tau.size
    nfft = 1 << (2 * n - 1).bit_length()
    rho = tau / tau[0]
    ft = np.fft.rfft(np.concatenate((rho, np.zeros(nfft - 2 * n + 1), rho[:0:-1]))).real
    preconditioner = np.divide(1.0, ft, out=np.zeros(ft.size), where=ft != 0.0)

    def block(spectrum, v):
        return np.fft.irfft(spectrum * np.fft.rfft(v, nfft), nfft)[:n]

    x = np.zeros(n)
    r = np.zeros(n)
    r[0] = 1.0
    d = z = block(preconditioner, r)
    rz = r @ z
    for _ in range(CG_MAX_ITERATIONS):
        td = block(ft, d)
        step = rz / (d @ td)
        x += step * d
        r -= step * td
        if not np.linalg.norm(r) > EPS:
            break
        z = block(preconditioner, r)
        rz, previous = r @ z, rz
        d = z + (rz / previous) * d
    return x / tau[0]


def _gohberg_semencul(x: np.ndarray):
    """T^-1 from its first column x: (L(x) L(x)^T - L(v) L(v)^T) / x_0 with
    v = (0, x_{N-1}, .., x_1) and L(a) lower-triangular Toeplitz of first
    column a (Gohberg and Semencul, 1972), x from _first_column. Returns
    the map from the columns b of an M-row array to rows 1..M of T^-1
    applied to their odd extensions; the four triangular products are FFT
    convolutions, O(M log M) per call."""
    n = x.size
    m = n // 2
    nfft = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(x, nfft)[:, None]
    fv = np.fft.rfft(np.concatenate(([0.0], x[:0:-1])), nfft)[:, None]

    def solve(b):
        # the odd extension is its own reversal negated, and L(a)^T = J L(a) J
        fb = np.fft.rfft(np.concatenate((b[::-1], np.zeros((1, b.shape[1])), -b)), nfft, axis=0)
        lx = np.fft.irfft(fx * fb, nfft, axis=0)[n - 1::-1]
        lv = np.fft.irfft(fv * fb, nfft, axis=0)[n - 1::-1]
        out = np.fft.irfft(fx * np.fft.rfft(lx, nfft, axis=0)
                           - fv * np.fft.rfft(lv, nfft, axis=0), nfft, axis=0)
        return out[m + 1:n] / x[0]

    return solve


def _scaled_toeplitz(tau: np.ndarray, kappa: float):
    """The map from x to rows 1..M of T applied to the odd extension of x, as
    one FFT product of E T E^-1 and E x scaled back by E^-1, with
    E = diag(e^{kappa n}) on the nodes n = -M..M (kappa per node spacing).

    The FFT's rounding is relative to the largest entries of the pair. For
    kappa = 0 that is eps max|T||x| in every row. With kappa near the decay
    rate of x's tail, E x is nearly flat and the scaled symbol tau_k e^{kappa k}
    still decays (the kernel falls faster than the collision density), so
    every row is accurate to its own |T||x|. The spectrum is built once per
    call; each product is O(M log M).
    """
    m = tau.size // 2
    nfft = 1 << (3 * m - 1).bit_length()
    lags = np.arange(1 - m, 2 * m + 1)
    spectrum = np.fft.rfft(np.concatenate((tau[m - 1:0:-1], tau)) * np.exp(kappa * lags), nfft)
    weight = np.exp(kappa * np.arange(-m, m + 1))

    def apply(x):
        odd = np.concatenate((-x[::-1], [0.0], x)) * weight
        return np.fft.irfft(spectrum * np.fft.rfft(odd, nfft), nfft)[2 * m:3 * m] / weight[m + 1:]

    return apply


@dataclass(frozen=True)
class RadialSolution:
    """Collision density on the grid plus the origin point mass (sp2 only).

    residual is the relative fixed-point residual of f on the grid, taken
    by the last refinement step's scaled FFT product, and rcond the
    reciprocal 1-norm condition number 1 / (||A||_1 ||A^-1||_1) of the
    solved matrix A (1 for a pure absorber, where no matrix is solved);
    solve_integral_equation reads ||A||_1 off an unscaled FFT product and
    ||A^-1||_1 off a second right-hand side of the same solve, exactly but
    for the last node while A^-1 >= 0, which solve_integral_equation
    checks as f >= 0. exact is the law's closed_form, whose slowest decay
    scales the refinement's residuals, kept for the caller to check f
    against.
    """

    grid: RadialGrid
    f: np.ndarray
    origin_mass: float
    iterations: int
    residual: float
    rcond: float
    exact: ClosedForm

    def volume_integral(self) -> float:
        """4 pi integral f r^2 dr over the grid plus the origin mass."""
        r = self.grid.nodes
        y = r * r * self.f
        # r^2 f is finite but nonzero at the origin for the classical law;
        # the node weights alone would drop the [0, h] half-cell
        y0 = max(y[0] - (y[1] - y[0]), 0.0)
        core = 0.5 * self.grid.spacing * y0
        return float(4.0 * math.pi * (np.sum(self.grid.weights * y) + core) + self.origin_mass)


def solve_integral_equation(model: PathLengthModel, xs: CrossSectionSpec,
                            grid: RadialGrid, tol: float = 1e-10) -> RadialSolution:
    """Direct solve of f = c K[f] + first flight, unit point source.

    Solves A f = first flight with A = I(1 - c atom) - cK = D^-1 S D
    (see _operator) directly: circulant-preconditioned CG gives T^-1 e_0
    in a few O(M log M) iterations, the Gohberg-Semencul formula applies
    T^-1 to three right-hand sides at once (D first flight, D G^-1 e for
    rcond and S's last-column correction u, which Sherman-Morrison folds
    in), and refinement brings f to working precision against residuals
    that are FFT products scaled by e^{kappa r}, kappa the closed form's
    slowest decay (see _scaled_toeplitz). The first x's tail is rounding
    noise of about eps max|x|, so step j scales by at most
    e^{j ln(1/eps)} at r_max: one step when kappa r_max <= ln(1/eps), else
    a second at min(kappa, 2 ln(1/eps) / r_max), whose product also gives
    the reported residual. Where kappa r_max exceeds 2 ln(1/eps), as on a
    1,000-mfp sp3 domain, f below about eps e^{-2 ln(1/eps) r / r_max} of
    its peak is rounding. Time is O(M log M) and memory O(M). For the sp2
    law the atom term c (4/9) f is the same-radius redeposition, and the
    origin point mass M = (4/9) / (1 - 4c/9) feeds the volumetric
    first-flight source.
    Raises ConvergenceError when the matrix is singular (rcond below machine
    epsilon), f is not finite, the fixed-point residual
    max|c(atom f + K f) + src - f| / max|f| is not below tol, or f dips
    below -tol max|f|: A is a Z-matrix and src > 0, so f >= 0 exactly when
    A^-1 >= 0, and a negative f means a supercritical discrete operator
    (the classical quadrature over-integrates its kernel near c = 1).
    Raises closed_form's ArithmeticError for a mixture that has no closed
    form, which make_model never builds.
    """
    if model.xs != xs:
        raise ValueError("model was built for a different medium than xs")
    c = xs.c
    atom = model.atom_at_zero
    r = grid.nodes
    origin_mass = atom / (1.0 - atom * c)
    src = (c * origin_mass + 1.0) * (model.density(r) / (4.0 * math.pi * r * r))
    if c == 0.0:
        return RadialSolution(grid, src, origin_mass, 0, 0.0, 1.0, closed_form(model))
    tau, u = _operator(model, grid, c)
    # A's off-diagonal entries are <= 0 and its diagonal is positive, so
    # ||A||_1 is the largest column sum of |A| = 2 diag(A) - A. While the
    # discrete problem is subcritical, A^-1 >= 0 and ||A^-1||_1 is the
    # largest column sum of A^-1: G A^-1 G^-1 e, as A^T = G A G^-1 with
    # G = diag(w r^2) but for the last node's near-diagonal pair (where w
    # halves); the second right-hand side is D G^-1 e.
    g = grid.weights * r**2
    with np.errstate(all="ignore"):  # a singular or non-finite operator shows in rcond
        inverse = _gohberg_semencul(_first_column(tau))
        z = inverse(np.column_stack((r * src, r / g, u)))
        # Sherman-Morrison: S^-1 b = z_b - z_u z_b[M] / (1 + z_u[M]), z = T^-1 b
        zu = z[:, 2] / (1.0 + z[-1, 2])
        x, y = (z[:, :2] - np.outer(zu, z[-1, :2])).T
        # kappa is read after the three-column solve, which sets the peak
        # memory: read before it, it added 0.25 MB to the 3,072-node peak RSS
        exact = closed_form(model)
        kappa = np.min(exact.decay) * grid.spacing
        # x's tail is eps max|x| noise until refined, which E must not lift
        # above max|x|: step j scales by at most e^{j ln(1/eps)} at r_max
        for step in (1, 2):
            product = _scaled_toeplitz(tau, min(kappa, step * SCALE_LIMIT / grid.m))
            dx = inverse((r * src - product(x) - u * x[-1])[:, None])[:, 0]
            x += dx - zu * dx[-1]
            if kappa * grid.m <= step * SCALE_LIMIT:
                break
        f = x / r
        # A's column sums D S^T D^-1 e, with S^T = T + e_M u^T on odd vectors;
        # 1/r does not decay, so the product is unscaled
        colsum = r * _scaled_toeplitz(tau, 0.0)(1.0 / r)
        colsum[-1] += r[-1] * (u @ (1.0 / r))
        diag = tau[0] - tau[2::2]
        diag[-1] += u[-1]
        rcond = 1.0 / (np.max(2.0 * diag - colsum) * np.max(np.abs(g * y / r)))
        residual = float(np.max(np.abs(src - (product(x) + u * x[-1]) / r)) / np.max(np.abs(f)))
    if not rcond >= EPS:
        raise ConvergenceError(f"oracle matrix is singular (rcond {rcond:.3e}, c={c})",
                               residual=math.inf)
    if not (np.all(np.isfinite(f)) and residual < tol):
        raise ConvergenceError(
            f"oracle solve left residual {residual:.3e} (rcond {rcond:.3e}, c={c}, tol={tol})",
            residual=residual)
    if np.min(f) < -tol * np.max(np.abs(f)):
        raise ConvergenceError(
            f"oracle collision density is negative (min f {np.min(f):.3e}, c={c}): "
            "the discrete operator is supercritical", residual=residual)
    return RadialSolution(grid, f, origin_mass, 1, residual, rcond, exact)


CONTINUUM_NODES = 256  # Gauss-Legendre nodes on the classical law's continuum
SECULAR_MAX_STEPS = 100  # _secular_gaps' cap; Newton from eigvalsh takes a few


@dataclass(frozen=True)
class ClosedForm:
    """f(r) = origin_mass delta(x) + sum_j amplitude_j e^{-decay_j r} / (4 pi r),
    the exact collision density of a unit point source (see closed_form).

    The classical shell averages are exact, but its density only where the
    continuum rule resolves e^{-r/t}: against 800 nodes it is off by 3.2e-7
    at sigma_t r = 0.02 and 9e-12 at sigma_t r = 0.1.
    """

    origin_mass: float
    decay: np.ndarray  # 1/length
    amplitude: np.ndarray  # 1/length^2

    def density(self, r):
        """Continuous part of f at r > 0 (the origin mass is excluded)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("density requires r > 0 (the 1/r form is singular at 0)")
        return np.exp(-np.multiply.outer(r, self.decay)) @ self.amplitude / (4.0 * math.pi * r)

    def shell_averages(self, edges) -> np.ndarray:
        """Exact volume averages of f over radial shells, with the origin
        mass in the innermost one when it starts at r = 0."""
        edges = np.asarray(edges, dtype=float)
        a = np.multiply.outer(edges[:-1], self.decay)
        d = np.multiply.outer(edges[1:], self.decay) - a
        # kappa^2 int r e^{-kappa r} dr = e^{-a} [(a + 1) g - d e^{-d}] with
        # g = 1 - e^{-d}: nothing cancels against 1 in the tail
        g = -np.expm1(-d)
        radial = np.exp(-a) * ((a + 1.0) * g - d * np.exp(-d)) @ (self.amplitude / self.decay**2)
        out = 3.0 * radial / (4.0 * math.pi * np.diff(edges**3))
        if edges[0] == 0.0:
            out[0] += 3.0 * self.origin_mass / (4.0 * math.pi * edges[1] ** 3)
        return out


def _secular_gaps(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """delta_j = d_j - lambda_j for the eigenvalues lambda_j of diag(d) - v v^T,
    d ascending and v nonzero.

    lambda_j is a root of the secular equation 1 = sum_i v_i^2 / (d_i - lambda),
    and so delta_j of 1 = sum_i v_i^2 / (d_i - d_j + delta), which is solved for
    delta directly, as LAPACK's dlaed4 does: subtracting an eigenvalue from d_j
    would cancel as delta_j -> 0 with c. Each root is the one zero of that
    decreasing sum on its interlacing bracket (0, d_j - d_{j-1}), or
    (0, 2 |v|^2) for j = 1; Newton's step starts from eigvalsh and falls back
    to bisection whenever it leaves the bracket.
    """
    v2 = v * v
    gaps = d - np.linalg.eigvalsh(np.diag(d) - np.outer(v, v))
    for j in range(d.size):
        a = d - d[j]
        lo, hi = 0.0, (d[j] - d[j - 1] if j else 2.0 * v2.sum())
        delta = gaps[j]
        for _ in range(SECULAR_MAX_STEPS):
            if not lo < delta < hi:
                delta = 0.5 * (lo + hi)
            t = v2 / (a + delta)
            g = t.sum() - 1.0
            lo, hi = (delta, hi) if g > 0.0 else (lo, delta)
            step = g / np.sum(t / (a + delta))
            delta += step
            if not abs(step) > EPS * delta:
                break
        gaps[j] = delta
    return gaps


def _mixture_modes(model: PathLengthModel):
    """Decays and amplitudes at sigma_t = 1 of a rational law (see closed_form)."""
    atom, c = model.atom_at_zero, model.xs.c
    mu, w = np.array(model.mu), np.array(model.weights)
    if c == 0.0:
        return mu, w * mu * mu
    order = np.argsort(mu)
    mu, w = mu[order], w[order]
    d = mu * mu
    delta = _secular_gaps(d, mu * np.sqrt(c * w / (1.0 - c * atom)))
    gap = np.subtract.outer(d, d) + delta  # d_i - lambda_j
    return np.sqrt(d - delta), 1.0 / (c * c * ((w * d) @ gap**-2))


def _case_root(c: float) -> float:
    """1/nu0, the root of c artanh(x) = x in (0, 1), by bisection; 1 when nu0 - 1
    rounds to 0, which is then the smallest decay of the continuum."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if c * math.atanh(mid) > mid else (mid, hi)
    return hi


@functools.cache
def _continuum_rule():
    """The classical continuum's nodes t, their artanh t and the weights
    2 g (1 - s)^3 of the Gauss-Legendre rule in s (see closed_form): the part
    of _classical_modes that does not depend on c, built once per process."""
    x, g = np.polynomial.legendre.leggauss(CONTINUUM_NODES)
    s = 0.5 * (x + 1.0)
    u = (1.0 - s) ** 4  # 1 - t, kept apart since t rounds to 1 near s = 1
    t = 1.0 - u
    rule = t, 0.5 * np.log((2.0 - u) / u), 2.0 * g * (1.0 - s) ** 3
    for a in rule:
        a.flags.writeable = False  # shared by every later call
    return rule


def _classical_modes(c: float):
    """Decays and amplitudes at sigma_t = 1 of the classical law (see closed_form)."""
    t, artanh, weight = _continuum_rule()
    rho = 1.0 / (t * t * ((1.0 - c * t * artanh) ** 2 + (0.5 * math.pi * c * t) ** 2))
    decay, amplitude = 1.0 / t, weight * rho
    hi = _case_root(c)
    if hi < 1.0:  # else nu0 - 1 rounds to 0 (c = 0, or c below about 0.05): no mode
        nu2 = hi**-2
        r0 = 2.0 * (nu2 - 1.0) / (c * nu2 * (1.0 - (1.0 - c) * nu2))
        decay, amplitude = np.append(hi, decay), np.append(r0, amplitude)
    return decay, amplitude


def closed_form(model: PathLengthModel) -> ClosedForm:
    """Exact collision density of a unit point source, for every law.

    f = p / (1 - c p) in transform: the origin mass atom / (1 - c atom) plus
    e^{-kappa r} / (4 pi r) terms, here at sigma_t = 1 (decays scale with
    sigma_t, amplitudes with sigma_t^2). For p = atom + sum_j w_j mu_j^2 /
    (mu_j^2 + k^2), one term per pole k^2 = -lambda, an eigenvalue of
    diag(mu^2) - v v^T with v_j = mu_j sqrt(c w_j / (1 - c atom)), of residue
    1 / (c^2 sum_j w_j mu_j^2 / (mu_j^2 - lambda)^2); at c = 0, f is p.
    For p = arctan(k)/k, Case's expansion (Case and Zweifel, Linear Transport
    Theory, 1967): the mode 1/nu0, c nu0 artanh(1/nu0) = 1, of residue
    R0 = 2 (nu0^2 - 1) / (c nu0^2 (1 - (1 - c) nu0^2)), plus the continuum
    int_0^1 rho(t) e^{-r/t} dt, rho = t^-2 / [(1 - c t artanh t)^2 +
    (pi c t / 2)^2], on a Gauss-Legendre rule in s, 1 - t = (1 - s)^4: that
    map resolves rho's peak at 1 - t ~ 2 e^{-2/c}, pi wide in log(1 - t).
    Raises ArithmeticError unless every decay is positive and finite and
    (1 - c)(M + sum_j R_j / kappa_j^2) = 1 to 1e-12 / (1 - c): rounding in
    the slowest decay, which carries most of the mass, grows like 1 / (1 - c).
    """
    atom, c, st = model.atom_at_zero, model.xs.c, model.xs.sigma_t
    decay, amplitude = _mixture_modes(model) if model.mu else _classical_modes(c)
    exact = ClosedForm(atom / (1.0 - c * atom), st * decay, st * st * amplitude)
    mass = (1.0 - c) * (exact.origin_mass + float(np.sum(exact.amplitude / exact.decay**2)))
    if not (np.all(np.isfinite(exact.decay) & (exact.decay > 0.0))
            and abs(mass - 1.0) <= 1e-12 / (1.0 - c)):
        raise ArithmeticError(f"closed form of {model.kind.value} at c={c} has smallest decay "
                              f"{np.min(exact.decay)} and mass balance {mass!r} (want 1)")
    return exact
