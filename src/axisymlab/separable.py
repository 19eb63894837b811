"""Fast direct solver for the lab's separable implicit operators.

Every implicit operator in the lab (the stream operator B and the xi, omega
and dual diffusions) has the form

    A x = shift * x + scale * (R x + T x),

where R is a tridiagonal radial stencil applied alike to every z column and
T is the cell-centered axial second difference -d2/dz2 with either
homogeneous Dirichlet (ghost = -value) or zero-flux closures at z_min and
z_max.  The coefficients of R and the z closure are the only definition of
each operator: apply_separable applies A from them and SeparableOperator
inverts it.  T is diagonalized by the DST-II (Dirichlet) or the DCT-II (zero
flux) along z, with eigenvalues 4 sin^2(pi m / 2 nz) / hz^2; in that basis A
splits into nz independent tridiagonal systems in r, solved together by one
Thomas sweep vectorized over the modes.  This is the fast direct method of
Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7 (1970) 627), as in FISHPACK.

As there, factoring is kept apart from solving.  A SeparableOperator computes
the pivots and back-substitution coefficients of its sweep once; each solve
reuses them in the same operations, so reuse changes no bit of a result.
The factors live on the grid: HalfPlaneGrid.stream_operator holds B for as
long as the grid lives, and HalfPlaneGrid.diffusion_operator keeps one slot
per diffusion (xi, omega, dual), refactored only when theta nu dt changes,
as on a truncated last step or with an adaptive dt.  The stream solve's
residual is computed only when its report is read
(biot_savart.EllipticSolveReport).

The orthonormal transforms and their inverses take one numpy.fft.rfft or
irfft of length nz each, after Makhoul's even/odd reorder (J. Makhoul, IEEE
Trans. Acoust. Speech Signal Process. 28 (1980) 27), so the solver, and with
it the zero-boundary stream solve and every diffusion, needs numpy only.

Elimination without pivoting is safe.  Each radial stencil the lab passes is
R = D S with D a positive diagonal and S symmetric positive semidefinite
(the flux form makes S symmetric; its off-diagonals are nonpositive and its
rows weakly diagonally dominant).  The system of mode m is therefore
D (shift D^-1 + scale (S + lambda_m D^-1)), a positive diagonal times a
symmetric positive definite matrix whenever shift > 0, lambda_m > 0 or the
closures make S definite, as they do for B.  Scaling rows by a positive
diagonal scales the elimination pivots by the same positive factors, and
the pivots of a symmetric positive definite matrix are positive.  So every
pivot is positive and the sweep is backward stable; the solve is exact up
to round-off, and reruns are bit-identical.
"""

from __future__ import annotations

import numpy as np


def flux_form_radial(cell: np.ndarray, face: np.ndarray):
    """Tridiagonal coefficients (lower, diag, upper) of the radial stencil

        (R x)_i = -cell_i * (face_{i+1} (x_{i+1} - x_i) - face_i (x_i - x_{i-1})),

    with cell of length nr and face of length nr + 1 (face i sits between
    cells i - 1 and i).  Zero end faces give zero-flux closures; callers add
    any other closure to diag.
    """
    lower = -cell * face[:-1]
    upper = -cell * face[1:]
    return lower, -(lower + upper), upper


def _twiddle(n: int) -> np.ndarray:
    """exp(-i pi k / 2n) for k = 0..n//2, times the orthonormal DCT-II scale."""
    tw = np.sqrt(2.0 / n) * np.exp((-0.5j * np.pi / n) * np.arange(n // 2 + 1))
    tw[0] *= np.sqrt(0.5)
    return tw


def _forward(x: np.ndarray, dst: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DCT-II (dst False) or DST-II (dst True) of each row of x.

    Makhoul's reorder: v holds the even samples, then the odd samples
    reversed, and Re(tw_k V_k), V = rfft(v), is the DCT-II at k; the upper
    half n - k comes from -Im(tw_k V_k).  The DST-II is the DCT-II of
    (-1)^j x with its output reversed, so the sign goes on the odd samples
    and the reversal into the view that takes the output.  out, a
    C-contiguous float array of x's shape, takes the result if given.
    """
    n = x.shape[1]
    half = (n + 1) // 2
    v = np.empty(x.shape) if out is None else out
    v[:, :half] = x[:, ::2]
    odd = x[:, 1::2][:, ::-1]
    if dst:
        np.negative(odd, out=v[:, half:])
    else:
        v[:, half:] = odd
    V = np.fft.rfft(v, axis=1)
    V *= _twiddle(n)
    cos = v[:, ::-1] if dst else v  # rfft has read v, so v takes the output
    cos[:, : n // 2 + 1] = V.real
    np.negative(V.imag[:, 1:half], out=cos[:, n - 1 : n // 2 : -1])
    return v


def _inverse(X: np.ndarray, dst: bool, spectrum: np.ndarray | None = None) -> np.ndarray:
    """The inverse of _forward: its steps backwards, with one irfft.

    V_k = (X_k - i X_{n-k}) / tw_k, with X_n = 0; for even n the Nyquist
    term k = n/2 is its own mirror.  spectrum, a complex array of shape
    (rows, n // 2 + 1), holds V if given; the result is always a new array.
    """
    n = X.shape[1]
    half = (n + 1) // 2
    cos = X[:, ::-1] if dst else X
    V = np.empty((X.shape[0], n // 2 + 1), dtype=complex) if spectrum is None else spectrum
    V.real = cos[:, : n // 2 + 1]
    V.imag[:, 0] = 0.0
    np.negative(cos[:, n - 1 : n // 2 : -1], out=V.imag[:, 1:half])
    if n % 2 == 0:
        np.negative(cos[:, n // 2], out=V.imag[:, n // 2])
    V *= 1.0 / _twiddle(n)  # a product costs less than a complex quotient
    v = np.fft.irfft(V, n, axis=1)
    out = np.empty(X.shape)
    out[:, ::2] = v[:, :half]
    odd = v[:, half:][:, ::-1]
    if dst:
        np.negative(odd, out=out[:, 1::2])
    else:
        out[:, 1::2] = odd
    return out


class SeparableOperator:
    """shift * x + scale * (R x + T x) on (nr, nz) arrays, factored once for many solves.

    radial is (lower, diag, upper) of R, each of length nr; lower[0] and
    upper[-1] are ignored.  z_bc selects the axial closure, "dirichlet" or
    "neumann" (zero flux).  The caller guarantees the system is nonsingular;
    see the module docstring for the conditions.

    The constructor does the part of the Thomas sweep that does not depend
    on the right-hand side: the eigenvalues of T, the pivots and the
    back-substitution coefficients c of every mode, 2 nr nz doubles.  solve
    runs the rest in the same operations and order as one unfactored sweep,
    so its result does not depend on how often the factors are reused.  The
    sweep works in buffers of the operator (one real (nr, nz) array and one
    complex spectrum), so a solve allocates only the rfft and irfft outputs
    and the array it returns.
    """

    def __init__(self, radial, hz: float, nz: int, z_bc: str, shift: float = 0.0,
                 scale: float = 1.0):
        if z_bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown z closure {z_bc!r}")
        self.scale = scale
        self._dst = z_bc == "dirichlet"
        modes = np.arange(1, nz + 1) if self._dst else np.arange(nz)
        lam = (2.0 * np.sin(0.5 * np.pi * modes / nz) / hz) ** 2
        lower, diag, upper = radial
        lower = scale * lower
        upper = scale * upper
        pivot = shift + scale * (diag[:, None] + lam[None, :])  # main diagonal, then pivots
        c = np.empty_like(pivot)
        c[0] = upper[0] / pivot[0]
        for i in range(1, diag.shape[0]):
            pivot[i] -= lower[i] * c[i - 1]
            c[i] = upper[i] / pivot[i]
        self._work = np.empty_like(pivot)
        self._spectrum = np.empty((diag.shape[0], nz // 2 + 1), dtype=complex)
        self._row = np.empty(nz)
        # each sweep step's operands, paired once: rows of the work buffer
        # with the factors of their row
        rows = list(self._work)
        self._first_pivot = pivot[0]
        self._down = list(zip(rows[:-1], rows[1:], lower[1:], pivot[1:]))
        self._up = list(zip(rows[:-1], rows[1:], c[:-1]))[::-1]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with shift * x + scale * (R x + T x) = rhs, as a new (nr, nz) array."""
        if np.shape(rhs) != self._work.shape:
            raise ValueError(f"array of shape {np.shape(rhs)} does not match the operator's "
                             f"shape {self._work.shape}")
        x = _forward(rhs, self._dst, out=self._work)
        row = self._row
        x[0] /= self._first_pivot
        for prev, cur, lower, pivot in self._down:  # cur = (cur - lower * prev) / pivot
            np.multiply(lower, prev, out=row)
            np.subtract(cur, row, out=cur)
            np.divide(cur, pivot, out=cur)
        for cur, nxt, c in self._up:  # cur -= c * nxt
            np.multiply(c, nxt, out=row)
            np.subtract(cur, row, out=cur)
        return _inverse(x, self._dst, spectrum=self._spectrum)


def apply_separable(x: np.ndarray, radial, hz: float, z_bc: str) -> np.ndarray:
    """(R + T) x for x of shape (nr, nz): the operator that SeparableOperator inverts.

    radial and z_bc are as in SeparableOperator; the z closures put the ghost
    value -x (Dirichlet) or x (zero flux) beyond each end.
    """
    if z_bc not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown z closure {z_bc!r}")
    if np.ndim(x) != 2 or np.shape(x)[:1] != np.shape(radial[1]):
        raise ValueError(f"array of shape {np.shape(x)} does not match radial coefficients "
                         f"of shape {np.shape(radial[1])}; need (nr, nz) for nr coefficients")
    lower, diag, upper = radial
    ghost = -1.0 if z_bc == "dirichlet" else 1.0
    ext = np.concatenate([ghost * x[:, :1], x, ghost * x[:, -1:]], axis=1)
    out = diag[:, None] * x + (2.0 * x - ext[:, :-2] - ext[:, 2:]) / hz**2
    out[1:] += lower[1:, None] * x[:-1]
    out[:-1] += upper[:-1, None] * x[1:]
    return out


def theta_step(values, grid, radial, z_bc: str, nu: float, dt: float, theta=0.5):
    """One theta-scheme step of d_t x = -nu A x (nu >= 0), the step of every lab diffusion.

    A = R + T as in SeparableOperator, with radial(grid) the coefficients of
    R.  The step (I + theta c A)^-1 (I - (1 - theta) c A) x, c = nu dt,
    equals (1/theta) (I + theta c A)^-1 x - ((1 - theta)/theta) x, so one
    solve gives it and A is never applied.  The factored I + theta c A comes
    from grid.diffusion_operator, which keeps it while theta c stays the
    same.  theta = 0.5 is Crank-Nicolson (second order in dt), theta = 1
    backward Euler; nu = 0 returns a copy.
    """
    if not (0.0 < dt < np.inf and 0.0 <= nu < np.inf):
        raise ValueError(f"need finite dt > 0 and nu >= 0, got dt = {dt}, nu = {nu}")
    if not (0.5 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0.5, 1], got {theta}")
    if nu == 0.0:
        return values.copy()
    sol = grid.diffusion_operator(radial, z_bc, theta * nu * dt).solve(values / theta)
    sol -= ((1.0 - theta) / theta) * values
    return sol
