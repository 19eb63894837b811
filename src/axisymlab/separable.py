"""Fast direct solver for the lab's separable implicit operators.

Every implicit operator in the lab (the stream operator B and the xi, omega
and dual diffusions) has the form

    A x = shift * x + scale * (R x + T x),

where R is a tridiagonal radial stencil applied alike to every z column and
T is the cell-centered axial second difference -d2/dz2 with either
homogeneous Dirichlet (ghost = -value) or zero-flux closures at z_min and
z_max.  The coefficients of R and the z closure are the only definition of
each operator: apply_separable applies A from them and solve_separable
inverts it.  T is diagonalized by the DST-II (Dirichlet) or the DCT-II (zero
flux) along z, with eigenvalues 4 sin^2(pi m / 2 nz) / hz^2; in that basis A
splits into nz independent tridiagonal systems in r, solved together by one
Thomas sweep vectorized over the modes.  This is the fast direct method of
Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7 (1970) 627), as in FISHPACK.

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


def solve_separable(
    rhs: np.ndarray,
    radial,
    hz: float,
    z_bc: str,
    shift: float = 0.0,
    scale: float = 1.0,
) -> np.ndarray:
    """Solve shift * x + scale * (R x + T x) = rhs for x of shape (nr, nz).

    radial is (lower, diag, upper) of R, each of length nr; lower[0] and
    upper[-1] are ignored.  z_bc selects the axial closure, "dirichlet" or
    "neumann" (zero flux).  The caller guarantees the system is nonsingular;
    see the module docstring for the conditions.
    """
    # deferred import: scipy.fft adds tens of ms to `import axisymlab`
    from scipy import fft

    nz = rhs.shape[1]
    if z_bc == "dirichlet":
        forward, inverse, modes = fft.dst, fft.idst, np.arange(1, nz + 1)
    elif z_bc == "neumann":
        forward, inverse, modes = fft.dct, fft.idct, np.arange(nz)
    else:
        raise ValueError(f"unknown z closure {z_bc!r}")
    lam = (2.0 * np.sin(0.5 * np.pi * modes / nz) / hz) ** 2
    lower, diag, upper = radial
    lower = scale * lower
    upper = scale * upper
    main = shift + scale * (diag[:, None] + lam[None, :])

    x = forward(rhs, type=2, axis=1, norm="ortho")
    c = np.empty_like(x)
    pivot = main[0]
    c[0] = upper[0] / pivot
    x[0] /= pivot
    for i in range(1, x.shape[0]):
        pivot = main[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / pivot
        x[i] = (x[i] - lower[i] * x[i - 1]) / pivot
    for i in range(x.shape[0] - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return inverse(x, type=2, axis=1, norm="ortho")


def apply_separable(x: np.ndarray, radial, hz: float, z_bc: str) -> np.ndarray:
    """(R + T) x for x of shape (nr, nz): the operator that solve_separable inverts.

    radial and z_bc are as in solve_separable; the z closures put the ghost
    value -x (Dirichlet) or x (zero flux) beyond each end.
    """
    if z_bc not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown z closure {z_bc!r}")
    lower, diag, upper = radial
    ghost = -1.0 if z_bc == "dirichlet" else 1.0
    ext = np.concatenate([ghost * x[:, :1], x, ghost * x[:, -1:]], axis=1)
    out = diag[:, None] * x + (2.0 * x - ext[:, :-2] - ext[:, 2:]) / hz**2
    out[1:] += lower[1:, None] * x[:-1]
    out[:-1] += upper[:-1, None] * x[1:]
    return out


def theta_step(values, radial, hz: float, z_bc: str, nu: float, dt: float, theta=0.5):
    """One theta-scheme step of d_t x = -nu A x (nu >= 0), the step of every lab diffusion.

    A = R + T as in solve_separable, with radial the coefficients of R.  The
    step (I + theta c A)^-1 (I - (1 - theta) c A) x, c = nu dt, equals
    (1/theta) (I + theta c A)^-1 x - ((1 - theta)/theta) x, so one solve
    gives it and A is never applied.  theta = 0.5 is Crank-Nicolson (second
    order in dt), theta = 1 backward Euler; nu = 0 returns a copy.
    """
    if not (0.0 < dt < np.inf and 0.0 <= nu < np.inf):
        raise ValueError(f"need finite dt > 0 and nu >= 0, got dt = {dt}, nu = {nu}")
    if not (0.5 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0.5, 1], got {theta}")
    if nu == 0.0:
        return values.copy()
    sol = solve_separable(values / theta, radial, hz, z_bc, shift=1.0, scale=theta * nu * dt)
    return sol - ((1.0 - theta) / theta) * values
