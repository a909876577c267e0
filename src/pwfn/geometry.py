"""Field propagation in static curved metrics and the spinor representation.

Curved space
------------
For a static metric g_munu (signature +,-,-,-) the field equations keep
their flat-space form, i dF/dt = rho_3 curl G, with all geometry carried by
the pointwise linear constitutive map between the six-component F and its
partner G:

    G_i = -(1/g^00) (g_ij / sqrt(-g) - i rho_3 g^0k eps_ikj) F_j,

inverted exactly at every point.  The map contains only rho_3, so the two
helicity blocks never mix, in contrast with material media.  Sign and index
conventions are anchored by the exact Minkowski reduction G = F.

Spinor form
-----------
One helicity vector F maps linearly onto a symmetric second-rank spinor,
(phi_00, phi_01, phi_11) = (-F_x + i F_y, F_z, F_x + i F_y).  Stacking the
four components (phi_00, phi_01, phi_10, phi_11) turns the free evolution
into a four-component Dirac-type equation i d(phi)/dt = alpha . (grad/i) phi
with (alpha . k)^2 = k^2, integrated here exactly per Fourier mode.  The
transversality condition div F = 0 is equivalent to the symmetry constraint
phi_01 = phi_10 being preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .evolve import check_cfl, free_generator, rk4
from .fieldcore import LEVI_CIVITA
from .spectral import GridSpec, SixField, _fft, _ifft

__all__ = [
    "MetricField", "minkowski_metric", "conformal_metric",
    "g_from_f", "f_from_g", "curved_generator", "step_curved",
    "spinor_from_rs", "rs_from_spinor",
    "four_spinor_from_rs", "rs_from_four_spinor", "dirac_form_step",
    "four_spinor_constraint_defect",
    "ALPHA_X", "ALPHA_Y", "ALPHA_Z",
]

@dataclass
class MetricField:
    """Static metric samples g (4, 4[, nx, ny, nz]) with cached inverse and
    constitutive blocks M (2, 3, 3, nx, ny, nz) of G = M F, built once."""

    spec: GridSpec
    g: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.shape == (4, 4):
            self.g = np.broadcast_to(self.g[:, :, None, None, None],
                                     (4, 4) + self.spec.n).copy()
        if self.g.shape != (4, 4) + self.spec.n:
            raise ShapeError("metric shape must be (4, 4) or (4, 4, nx, ny, nz)")
        gm = np.moveaxis(self.g.reshape(4, 4, -1), -1, 0)
        with np.errstate(over="ignore"):
            det = np.linalg.det(gm)
        if np.any(self.g[0, 0] <= 0.0):
            raise DomainError("metric must have g_00 > 0")
        if not np.all((det < 0.0) & (det > -np.inf)):
            raise DomainError("metric determinant must be negative and finite")
        inv = np.linalg.inv(gm)
        self.g_inv = np.moveaxis(inv, 0, -1).reshape((4, 4) + self.spec.n)
        self.det = det.reshape(self.spec.n)
        self.constitutive = _constitutive_matrices(self)

    def light_speed_bound(self):
        """Largest local light speed, from the optical-medium equivalent."""
        eps_eq = np.sqrt(-self.det)[None, None] * (-self.g_inv[1:, 1:]) \
            / self.g[0, 0]
        em = np.moveaxis(eps_eq.reshape(3, 3, -1), -1, 0)
        eig = np.linalg.eigvalsh(0.5 * (em + np.swapaxes(em, 1, 2)))
        if np.any(eig <= 0.0):
            raise DomainError("metric's optical equivalent is not positive")
        return float(np.max(1.0 / eig.min(axis=1)))


def minkowski_metric(spec: GridSpec) -> MetricField:
    return MetricField(spec=spec, g=np.diag([1.0, -1.0, -1.0, -1.0]))


def conformal_metric(spec: GridSpec, refractive_index) -> MetricField:
    """Static metric diag(1, -n^2, -n^2, -n^2) with n = n(r) sampled."""
    with np.errstate(over="ignore"):
        n2 = np.asarray(refractive_index, dtype=float) ** 2
    if not np.all(n2 < np.inf):
        raise DomainError("refractive index squared must be finite")
    if n2.shape != spec.n:
        n2 = np.full(spec.n, float(n2))
    g = np.zeros((4, 4) + spec.n)
    g[0, 0] = 1.0
    for i in range(1, 4):
        g[i, i] = -n2
    return MetricField(spec=spec, g=g)


def _constitutive_matrices(metric: MetricField):
    """Pointwise blocks -(A0 -/+ i B)/g^00 of G = -(1/g^00)(A0 - i rho_3 B) F,
    with A0 = g_ij/sqrt(-g) symmetric and B built from g^{0k}."""
    ginv = metric.g_inv
    g00_up = ginv[0, 0]
    if np.any(g00_up == 0.0):
        raise DomainError("metric has g^00 = 0 somewhere (degenerate)")
    a0 = metric.g[1:, 1:] / np.sqrt(-metric.det)[None, None]
    b = np.einsum("k...,ikj->ij...", ginv[0, 1:], LEVI_CIVITA)
    return np.stack([-(a0 - 1j * sign * b) / g00_up[None, None]
                     for sign in (+1.0, -1.0)])


def g_from_f(field: SixField, metric: MetricField) -> SixField:
    """Constitutive partner G of the six-component field F."""
    if metric.spec != field.spec:
        raise ShapeError("metric and field grids differ")
    m = metric.constitutive
    f = field.data[:, None]
    out = m[:, :, 0] * f[:, :, 0]
    out += m[:, :, 1] * f[:, :, 1]
    out += m[:, :, 2] * f[:, :, 2]
    return SixField(spec=field.spec, data=out)


def f_from_g(gfield: SixField, metric: MetricField) -> SixField:
    """Inverse constitutive map, by exact pointwise linear solve."""
    if metric.spec != gfield.spec:
        raise ShapeError("metric and field grids differ")
    mm = np.moveaxis(metric.constitutive.reshape(2, 3, 3, -1), -1, 1)
    rhs = np.moveaxis(gfield.data.reshape(2, 3, -1), -1, 1)[..., None]
    sol = np.linalg.solve(mm, rhs)[..., 0]
    out = np.moveaxis(sol, 1, -1).reshape(gfield.data.shape)
    return SixField(spec=gfield.spec, data=out)


def curved_generator(field: SixField, metric: MetricField) -> SixField:
    """Apply the curved-space generator: H F = rho_3 curl G(F)."""
    return free_generator(g_from_f(field, metric))


def step_curved(field: SixField, metric: MetricField, cfg, steps: int) -> SixField:
    """RK4 integration of i dF/dt = rho_3 curl G(F) in a static metric."""
    spec = field.spec
    check_cfl(cfg.dt, spec.spacing, metric.light_speed_bound(), cfg.cfl_safety)

    def rhs(arr):
        return -1j * curved_generator(SixField(spec=spec, data=arr), metric).data

    return SixField(spec=spec, data=rk4(rhs, field.data, cfg.dt, steps))


def spinor_from_rs(f):
    """Map one helicity vector onto the (3, ...) symmetric spinor
    (phi_00, phi_01, phi_11); phi_10 = phi_01 by storage."""
    f = np.asarray(f)
    return np.stack([-f[0] + 1j * f[1], f[2], f[0] + 1j * f[1]])


def rs_from_spinor(phi):
    """Inverse of spinor_from_rs."""
    phi = np.asarray(phi)
    return np.stack([0.5 * (phi[2] - phi[0]), -0.5j * (phi[2] + phi[0]),
                     phi[1]])


ALPHA_X = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
                   dtype=complex)
ALPHA_Y = np.array([[0, 0, -1j, 0], [0, 0, 0, -1j], [1j, 0, 0, 0],
                    [0, 1j, 0, 0]], dtype=complex)
ALPHA_Z = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
_ALPHA = np.stack([ALPHA_X, ALPHA_Y, ALPHA_Z])


def four_spinor_from_rs(f):
    """Stack (phi_00, phi_01, phi_10, phi_11) of one helicity vector."""
    return spinor_from_rs(f)[[0, 1, 1, 2]]


def rs_from_four_spinor(phi):
    """Project a four-component spinor back to the helicity vector.

    The symmetric part of (phi_01, phi_10) is used; their difference is the
    transversality defect and is reported by the caller if needed.
    """
    phi = np.asarray(phi)
    return rs_from_spinor(np.stack([phi[0], 0.5 * (phi[1] + phi[2]), phi[3]]))


def dirac_form_step(spec: GridSpec, phi, t: float):
    """Exact spectral evolution of i d(phi)/dt = alpha . (grad/i) phi.

    Uses (alpha.k)^2 = |k|^2: exp(-i alpha.k t) = cos(|k|t) - i sin(|k|t)
    (alpha.k)/|k| per mode.  phi has shape (4, nx, ny, nz).
    """
    phi = np.ascontiguousarray(phi, dtype=complex)
    if phi.shape != (4,) + spec.n:
        raise ShapeError("spinor lattice shape does not match the grid")
    kvec = spec.k_grid()
    knorm = spec.k_norm()
    phihat = _fft(phi)
    akphi = np.einsum("aij,a...,j...->i...", _ALPHA, kvec, phihat)
    # At k = 0, alpha.k phi vanishes, so the value of sin(|k|t)/|k| there
    # does not matter.
    sinc = np.sin(knorm * t) * spec.k_inverse()
    out_hat = np.cos(knorm * t) * phihat - 1j * sinc * akphi
    return _ifft(out_hat)


def four_spinor_constraint_defect(phi) -> float:
    """Relative size of phi_01 - phi_10 (the transversality constraint)."""
    phi = np.asarray(phi)
    scale = np.max(np.abs(phi))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(phi[1] - phi[2])) / scale)
