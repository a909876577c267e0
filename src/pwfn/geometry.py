"""Field propagation in static curved metrics and the spinor representation.

Curved space
------------
For a static metric g_munu (signature +,-,-,-) the field equations keep
their flat-space form, i dF/dt = rho_3 curl G, with all geometry carried by
the pointwise linear constitutive map between the six-component F and its
partner G:

    G_i = -(1/g^00) (g_ij / sqrt(-g) - i rho_3 g^0k eps_ikj) F_j,

inverted exactly at every point.  The map contains only rho_3, so the two
helicity blocks never mix, in contrast with material media.  Its g_ij part
is symmetric and its g^0k part antisymmetric, so it is one 3 x 3 table M
per point: G = (M F+, M^T F-).  Sign and index conventions are anchored by
the exact Minkowski reduction G = F.  A metric is thus applied and stepped
as a medium is, by the generator and runner of :mod:`pwfn.evolve`.

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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .evolve import _run, _turner, hamiltonian_apply
from .fieldcore import LEVI_CIVITA
from .spectral import (GridSpec, SixField, _check_phase, _distinct, _expand,
                       _fft, _ifft)

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
    """Symmetric static metric samples g (4, 4[, nx, ny, nz]) with cached
    inverse and table M (3, 3, nx, ny, nz) of G = (M F+, M^T F-), built once.

    Each lattice axis of g is 1 or n_d.  The determinant, inverse,
    constitutive table and optical equivalent are computed at g's distinct
    points, of size 1 along each axis where g is exactly constant, and g,
    g_inv, det and constitutive are read-only views broadcasting them over
    the lattice.  uniform_scale is w where M = w I everywhere with w real
    (a Minkowski or uniform conformal metric), else None.
    """

    spec: GridSpec
    g: np.ndarray

    def __post_init__(self):
        g = _distinct(self.g, self.spec.n, "metric shape must be (4, 4) or "
                      "(4, 4, nx, ny, nz)", lead=(4, 4))
        if not np.array_equal(g, g.swapaxes(0, 1), equal_nan=True):
            raise DomainError("metric must be symmetric, g_munu = g_numu",
                              arg="g")
        points = g.shape[2:]
        gm = np.moveaxis(g.reshape(4, 4, -1), -1, 0)
        with np.errstate(over="ignore"):
            det = np.linalg.det(gm)
        if np.any(g[0, 0] <= 0.0):
            raise DomainError("metric must have g_00 > 0")
        if not np.all((det < 0.0) & (det > -np.inf)):
            raise DomainError("metric determinant must be negative and finite")
        inv = np.linalg.inv(gm)
        self._points = (g, np.moveaxis(inv, 0, -1).reshape((4, 4) + points),
                        det.reshape(points))
        self._table = constitutive = _constitutive_matrices(self)
        w = constitutive.flat[0]  # w if G = w F everywhere, with w real
        self.uniform_scale = float(w.real) if w.imag == 0.0 and np.all(
            constitutive == w * np.eye(3)[:, :, None, None, None]) else None
        self.g, self.g_inv, self.det, self.constitutive = (
            np.broadcast_to(x, x.shape[:-3] + self.spec.n)
            for x in self._points + (constitutive,))
        self.uniform_axes = tuple(d for d in range(3) if points[d] == 1)

    def _tables(self):
        """:func:`pwfn.evolve._run`'s tables: F turned to G = (M F+, M^T F-),
        at speed 1, uncoupled, and the rate (largest light speed) k_max.  M,
        of size 1 along each uniform axis, commutes with transforms there."""
        one = np.ones((1, 1, 1))
        return one, self._table, one, None, self._rate

    @functools.cached_property
    def _rate(self):
        """RK4's rate bound, found once: a run reads the tables twice."""
        return self.light_speed_bound() * self.spec.k_max()

    def light_speed_bound(self):
        """Largest local light speed, from the optical-medium equivalent."""
        g, g_inv, det = self._points
        eps_eq = np.sqrt(-det)[None, None] * (-g_inv[1:, 1:]) / g[0, 0]
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
    g = np.multiply.outer(np.diag([1.0, -1.0, -1.0, -1.0]), n2)
    g[0, 0] = 1.0
    return MetricField(spec=spec, g=g)


def _constitutive_matrices(metric: MetricField):
    """Upper block M = -(A0 - i B)/g^00 of G = -(1/g^00)(A0 - i rho_3 B) F,
    A0 = g_ij/sqrt(-g) symmetric and B from g^{0k} antisymmetric (lower M^T),
    on the metric's distinct points (one where g is the same everywhere)."""
    g, g_inv, det = metric._points
    g00_up = g_inv[0, 0]
    if np.any(g00_up == 0.0):
        raise DomainError("metric has g^00 = 0 somewhere (degenerate)")
    a0 = g[1:, 1:] / np.sqrt(-det)[None, None]
    b = np.einsum("k...,ikj->ij...", g_inv[0, 1:], LEVI_CIVITA)
    return -(a0 - 1j * b) / g00_up[None, None]


def g_from_f(field: SixField, metric: MetricField) -> SixField:
    """Constitutive partner G = (M F+, M^T F-) of the six-component field F."""
    if metric.spec != field.spec:
        raise ShapeError("metric and field grids differ")
    return SixField(spec=field.spec,
                    data=_turner(metric.constitutive, field.data))


def f_from_g(gfield: SixField, metric: MetricField) -> SixField:
    """Inverse constitutive map F = (M^-1 G+, M^-T G-), with M inverted once
    at the metric's distinct points."""
    if metric.spec != gfield.spec:
        raise ShapeError("metric and field grids differ")
    m = metric._table
    inv = np.linalg.inv(np.moveaxis(m.reshape(3, 3, -1), -1, 0))
    inv = np.moveaxis(inv, 0, -1).reshape(m.shape)
    return SixField(spec=gfield.spec, data=_turner(inv, gfield.data))


def curved_generator(field: SixField, metric: MetricField) -> SixField:
    """Apply the curved-space generator H F = rho_3 curl G(F): the metric's
    generator as a medium's (:func:`pwfn.evolve.hamiltonian_apply`)."""
    return hamiltonian_apply(field, metric)


def step_curved(field: SixField, metric: MetricField, cfg, steps: int) -> SixField:
    """RK4 integration of i dF/dt = rho_3 curl G(F) in a static metric, by
    the runner of media (:func:`pwfn.evolve._run`); any other cfg.scheme
    raises."""
    if cfg.scheme != "rk4":
        raise DomainError(f"curved-space evolution runs rk4 only, got "
                          f"scheme {cfg.scheme!r}", arg="scheme")
    return _run(field, metric, cfg, steps)


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
    (alpha.k)/|k| per mode, phi (4, nx, ny, nz); a t whose phase |k| t is
    not finite on the lattice raises DomainError.
    """
    phi = np.ascontiguousarray(phi, dtype=complex)
    if phi.shape != (4,) + spec.n:
        raise ShapeError("spinor lattice shape does not match the grid")
    _check_phase(spec, t)
    kvec = _expand(spec.k_lines())
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
