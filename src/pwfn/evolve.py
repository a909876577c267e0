"""Time evolution of six-component fields in free space and in media.

Free-space propagation is exact per Fourier mode.  In a linear, static,
isotropic medium with permittivity eps(r) and permeability mu(r) the
generator is

    H = sqrt(v) rho_3 (s . grad/i) sqrt(v) + (v / 2h) rho_2 (s . grad h),

with v = 1/sqrt(eps mu) the local light speed and h = sqrt(mu/eps) the
medium resistance.  Only a spatially varying h couples the two helicity
blocks.  Derivatives are spectral, so media must be smooth and periodic;
step-index geometries belong to the semi-analytic fiber solver instead.

Steppers integrate i dF/dt = H F with classic RK4 (default) or, for
uniform-speed media, Strang splitting between the exact kinetic phase and
the pointwise helicity-coupling term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, StabilityError
from .fieldcore import RSPair
from .spectral import GridSpec, SixField, curl, to_k, to_r, triad_arrays

__all__ = [
    "MediumMap", "StepperConfig",
    "propagate_free", "free_generator", "hamiltonian_apply",
    "step_medium", "divergence_residual", "medium_basis_change",
]


def _grad_spectral(spec: GridSpec, scalar):
    """Spectral gradient of a real scalar lattice; returns (3, nx, ny, nz)."""
    shat = to_k(spec, scalar.astype(complex))
    return to_r(spec, 1j * spec.k_grid_diff() * shat, overwrite=True).real.copy()


@dataclass
class MediumMap:
    """Samples of eps(r), mu(r) with derived speed and resistance fields."""

    spec: GridSpec
    eps: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        self.eps = np.ascontiguousarray(self.eps, dtype=float)
        self.mu = np.ascontiguousarray(self.mu, dtype=float)
        if self.eps.shape != self.spec.n or self.mu.shape != self.spec.n:
            raise ShapeError("eps/mu shape does not match the grid")
        if np.any(self.eps <= 0.0) or np.any(self.mu <= 0.0):
            raise DomainError("eps and mu must be strictly positive everywhere")
        self.v = 1.0 / np.sqrt(self.eps * self.mu)
        self.h = np.sqrt(self.mu / self.eps)
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.h))):
            raise DomainError("derived v, h must be finite")
        self.sqrt_v = np.sqrt(self.v)
        self.grad_v = _grad_spectral(self.spec, self.v)
        self.grad_h = _grad_spectral(self.spec, self.h)

    @classmethod
    def uniform(cls, spec: GridSpec, eps=1.0, mu=1.0):
        return cls(spec=spec, eps=np.full(spec.n, float(eps)),
                   mu=np.full(spec.n, float(mu)))

    @property
    def is_uniform_v(self):
        return bool(np.ptp(self.v) <= 1e-14 * np.max(self.v))

    @property
    def is_uniform_h(self):
        return bool(np.ptp(self.h) <= 1e-14 * np.max(self.h))

    def smoothness_metric(self):
        """max |grad v| * dx / v; large values mean an under-resolved medium."""
        dx = max(self.spec.spacing)
        return float(np.max(np.sqrt(np.sum(self.grad_v**2, axis=0)) * dx / self.v))


@dataclass
class StepperConfig:
    """Time-step configuration; dt must satisfy dt <= cfl_safety * dx / max v."""

    dt: float
    scheme: str = "rk4"
    cfl_safety: float = 0.5

    def __post_init__(self):
        if self.dt <= 0.0:
            raise DomainError("dt must be positive")
        if self.scheme not in ("rk4", "split_step"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise DomainError("cfl_safety must lie in (0, 1]")


def propagate_free(psi: SixField, t: float) -> SixField:
    """Exact free propagation by time t.

    Per mode the upper block is resolved on the (e, e*, n) frame with phases
    exp(-i|k|t), exp(+i|k|t), 1 and the lower block with the opposite
    transverse phases, which is the exact action of the free generator.
    """
    spec = psi.spec
    e, nhat, knorm = triad_arrays(spec)
    ec = np.conj(e)
    ph_minus = np.exp(-1j * knorm * float(t))
    ph_plus = np.conj(ph_minus)
    hat = to_k(spec, psi.data)
    for block, (ph_e, ph_ec) in enumerate([(ph_minus, ph_plus), (ph_plus, ph_minus)]):
        bhat = hat[block]
        ce = np.sum(ec * bhat, axis=0)
        cec = np.sum(e * bhat, axis=0)
        cn = np.sum(nhat * bhat, axis=0)
        dc = bhat[:, 0, 0, 0].copy()
        bhat[...] = e * (ph_e * ce) + ec * (ph_ec * cec) + nhat * cn
        # k = 0 carries no frame; it is static under the free generator.
        bhat[:, 0, 0, 0] = dc
    return SixField(spec=spec, data=to_r(spec, hat, overwrite=True))


def free_generator(psi: SixField) -> SixField:
    """Apply the free Hamiltonian rho_3 (s . grad/i): (curl F+, -curl F-)."""
    out = curl(psi.spec, psi.data)
    np.negative(out[1], out=out[1])
    return SixField(spec=psi.spec, data=out)


def hamiltonian_apply(psi: SixField, medium: MediumMap) -> SixField:
    """Apply the medium Hamiltonian to a six-component field.

    H F = sqrt(v) rho_3 (s . grad/i)(sqrt(v) F) + (v/2h) rho_2 (s . grad h) F.
    (s . grad/i) X is evaluated as the spectral curl of X.
    """
    if medium.spec.n != psi.spec.n or medium.spec.length != psi.spec.length:
        raise ShapeError("medium and field grids differ")
    spec = psi.spec
    sv = medium.sqrt_v
    out = curl(spec, sv * psi.data)
    out *= sv
    np.negative(out[1], out=out[1])
    if not medium.is_uniform_h:
        # (s . grad h) X = i grad h x X, pointwise; rho_2 mixes the blocks.
        coef = medium.v / (2.0 * medium.h)
        gh = medium.grad_h
        sx_up = 1j * np.cross(gh, psi.upper, axisa=0, axisb=0, axisc=0)
        sx_lo = 1j * np.cross(gh, psi.lower, axisa=0, axisb=0, axisc=0)
        out[0] += coef * (-1j) * sx_lo
        out[1] += coef * (1j) * sx_up
    return SixField(spec=spec, data=out)


def _cfl_limit(spec: GridSpec, medium: MediumMap, cfg: StepperConfig) -> float:
    return cfg.cfl_safety * min(spec.spacing) / float(np.max(medium.v))


def _check_cfl(spec, medium, cfg):
    limit = _cfl_limit(spec, medium, cfg)
    if cfg.dt > limit:
        raise StabilityError(
            f"dt = {cfg.dt:.3e} exceeds CFL bound {limit:.3e} "
            f"(cfl_safety = {cfg.cfl_safety}, max v = {np.max(medium.v):.3e})"
        )


def _coupling_matrices(medium: MediumMap):
    """Pointwise 6x6 coupling generator B = (v/2h) rho_2 (s . grad h)."""
    coef = medium.v / (2.0 * medium.h)
    gh = medium.grad_h
    n = medium.spec.n
    b = np.zeros((6, 6) + n, dtype=complex)
    # (s.a)_{jk} = -i sum_a a_a eps_{ajk}
    sdot = np.zeros((3, 3) + n, dtype=complex)
    eps_sym = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps_sym[i, j, k] = 1.0
        eps_sym[i, k, j] = -1.0
    for jj in range(3):
        for kk in range(3):
            sdot[jj, kk] = -1j * np.einsum("a...,a->...", gh, eps_sym[:, jj, kk])
    b[0:3, 3:6] = -1j * coef * sdot
    b[3:6, 0:3] = 1j * coef * sdot
    return b


def step_medium(psi: SixField, medium: MediumMap, cfg: StepperConfig,
                steps: int) -> SixField:
    """Integrate i dF/dt = H F for the given number of steps.

    RK4 treats the full generator; split_step (uniform-speed media only)
    alternates the exact kinetic phase with the pointwise coupling phase in
    Strang order.
    """
    _check_cfl(psi.spec, medium, cfg)
    if cfg.scheme == "rk4":
        return _step_rk4(psi, medium, cfg.dt, steps)
    if not medium.is_uniform_v:
        raise DomainError("split_step requires a uniform-speed medium")
    return _step_split(psi, medium, cfg.dt, steps)


def _step_rk4(psi, medium, dt, steps):
    data = psi.data.copy()
    spec = psi.spec

    def rhs(arr):
        f = SixField(spec=spec, data=arr)
        return -1j * hamiltonian_apply(f, medium).data

    for _ in range(steps):
        k1 = rhs(data)
        k2 = rhs(data + 0.5 * dt * k1)
        k3 = rhs(data + 0.5 * dt * k2)
        k4 = rhs(data + dt * k3)
        data = data + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return SixField(spec=spec, data=data)


def _step_split(psi, medium, dt, steps):
    spec = psi.spec
    v0 = float(np.mean(medium.v))
    data = psi.data.copy()
    if medium.is_uniform_h:
        out = propagate_free(SixField(spec=spec, data=data), v0 * dt * steps)
        return out
    b = _coupling_matrices(medium)
    # exp(-i dt B) by eigendecomposition of the pointwise Hermitian B.
    bm = np.moveaxis(b.reshape(6, 6, -1), -1, 0)
    w, q = np.linalg.eigh(bm)
    phase = np.exp(-1j * dt * w)
    expb = np.einsum("pij,pj,pkj->pik", q, phase, np.conj(q))

    def apply_coupling(arr):
        flat = arr.reshape(6, -1)
        return np.einsum("pik,kp->ip", expb, flat).reshape(arr.shape)

    for _ in range(steps):
        data = propagate_free(SixField(spec=spec, data=data), 0.5 * v0 * dt).data
        data = apply_coupling(data)
        data = propagate_free(SixField(spec=spec, data=data), 0.5 * v0 * dt).data
    return SixField(spec=spec, data=data)


def divergence_residual(psi: SixField, medium: MediumMap | None = None) -> float:
    """Relative violation of the medium divergence condition.

    Returns || div F - (1/2v) F . grad v - rho_1 (1/2h) F . grad h || / ||F||
    with spectral derivatives; the free-space condition div F = 0 is the
    uniform-medium special case.
    """
    spec = psi.spec
    bhat = to_k(spec, psi.data)
    res = to_r(spec, 1j * np.sum(spec.k_grid_diff() * bhat, axis=1),
               overwrite=True)
    if medium is not None:
        if medium.spec.n != spec.n:
            raise ShapeError("medium and field grids differ")
        fv = np.sum(psi.data * medium.grad_v, axis=1) / (2.0 * medium.v)
        fh = np.sum(psi.data * medium.grad_h, axis=1) / (2.0 * medium.h)
        res[0] -= fv[0] + fh[1]
        res[1] -= fv[1] + fh[0]
    norm = psi.norm()
    if norm == 0.0:
        return 0.0
    resn = np.sqrt(float(np.sum(np.abs(res) ** 2)) * spec.cell_volume)
    return resn / norm


def medium_basis_change(free_pair: RSPair, eps: float, mu: float) -> RSPair:
    """Re-express a free-space RS pair with medium normalization (eps, mu).

    F+ = [(a + b) F0+ + (a - b) F0-]/2 and F- = [(a - b) F0+ + (a + b) F0-]/2
    with a = sqrt(eps0/eps), b = sqrt(mu0/mu) and eps0 = mu0 = 1.
    """
    if eps <= 0.0 or mu <= 0.0:
        raise DomainError("eps and mu must be strictly positive")
    a = 1.0 / np.sqrt(eps)
    b = 1.0 / np.sqrt(mu)
    fp = np.asarray(free_pair.f_plus)
    fm = np.asarray(free_pair.f_minus)
    return RSPair(
        f_plus=0.5 * ((a + b) * fp + (a - b) * fm),
        f_minus=0.5 * ((a - b) * fp + (a + b) * fm),
    )
