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
the pointwise helicity-coupling term.  :func:`rk4` and :func:`check_cfl`
are the one integrator and the one step bound that the medium, curved-space
and reduced Wigner evolutions share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, StabilityError
from .fieldcore import cross, rodrigues
from .spectral import (GridSpec, SixField, _curl_k, _fft, _ifft, div, grad,
                       triad_arrays)

__all__ = [
    "MediumMap", "StepperConfig", "rk4", "check_cfl",
    "propagate_free", "free_generator", "hamiltonian_apply",
    "step_medium", "divergence_residual", "medium_basis_change",
]


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
        for name, values in (("eps", self.eps), ("mu", self.mu)):
            if not np.all(values > 0.0):
                raise DomainError(f"{name} must be strictly positive "
                                  f"everywhere", arg=name)
        # Finite eps, mu can still overflow or underflow v or h to inf or 0.
        with np.errstate(over="ignore"):
            self.v = 1.0 / np.sqrt(self.eps * self.mu)
            self.h = np.sqrt(self.mu / self.eps)
        if not all(np.all((x > 0.0) & (x < np.inf)) for x in (self.v, self.h)):
            raise DomainError("derived v, h must be finite and > 0")
        self.sqrt_v = np.sqrt(self.v)
        self.grad_v = grad(self.spec, self.v)
        self.grad_h = grad(self.spec, self.h)
        # c = (v/2h) grad h: (v/2h) rho_2 (s . grad h) F = (c x F-, -c x F+).
        self.coupling = self.v / (2.0 * self.h) * self.grad_h
        self.is_uniform_v = bool(np.ptp(self.v) <= 1e-14 * np.max(self.v))
        self.is_uniform_h = bool(np.ptp(self.h) <= 1e-14 * np.max(self.h))

    @classmethod
    def uniform(cls, spec: GridSpec, eps=1.0, mu=1.0):
        return cls(spec=spec, eps=np.full(spec.n, float(eps)),
                   mu=np.full(spec.n, float(mu)))

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
        if not (0.0 < self.dt < np.inf):
            raise DomainError(f"dt must be positive and finite, got {self.dt}",
                              arg="dt")
        if self.scheme not in ("rk4", "split_step"):
            raise DomainError(f"scheme must be rk4 or split_step, "
                              f"got {self.scheme!r}", arg="scheme")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise DomainError(f"cfl_safety must lie in (0, 1], "
                              f"got {self.cfl_safety}", arg="cfl_safety")


def check_cfl(dt, spacing, vmax, cfl_safety):
    """Raise StabilityError unless dt <= cfl_safety * min(spacing) / vmax."""
    limit = cfl_safety * min(spacing) / vmax
    if dt > limit:
        raise StabilityError(
            f"dt = {dt:.3e} exceeds CFL bound {limit:.3e} "
            f"(cfl_safety = {cfl_safety}, max speed = {vmax:.3e})"
        )


@np.errstate(over="ignore", invalid="ignore")
def rk4(rhs, y, dt, steps):
    """Classic RK4 for dy/dt = rhs(y); returns the state after `steps` steps.

    The result is a new array; y is not modified.  A blow-up turns into inf/NaN that the spectral
    right-hand sides carry forward, so one finiteness check of the final
    state catches it and raises StabilityError, with no numpy overflow
    warnings on the way.
    """
    y = np.array(y)
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(y)):
        raise StabilityError(
            f"state is non-finite after {steps} RK4 steps of dt = {dt:.3e}; "
            "the time step is beyond the stability limit of the scheme"
        )
    return y


def _kinetic(spec: GridSpec, t: float):
    """Exact free propagation of field data by time t, as a function.

    Per mode the free generator rotates the upper block by the angle |k| t
    about n = k/|k| and the lower block by -|k| t (:func:`rodrigues`); the
    k = 0 mode, where n = 0 and the angle vanishes, stays static.  The
    angles are built once, here, for every application.
    """
    _, nhat, knorm = triad_arrays(spec)
    cos_a, sin_a = np.cos(knorm * float(t)), np.sin(knorm * float(t))

    def apply(data):
        hat = _fft(data)
        hat[0] = rodrigues(nhat, cos_a, sin_a, hat[0])
        hat[1] = rodrigues(nhat, cos_a, -sin_a, hat[1])
        return _ifft(hat)
    return apply


def propagate_free(psi: SixField, t: float) -> SixField:
    """Exact free propagation by time t (see :func:`_kinetic`)."""
    return SixField(spec=psi.spec, data=_kinetic(psi.spec, t)(psi.data))


def free_generator(psi: SixField) -> SixField:
    """Apply the free Hamiltonian rho_3 (s . grad/i): (curl F+, -curl F-)."""
    return SixField(spec=psi.spec,
                    data=_free_generator_k(psi.spec, _fft(psi.data)))


def _free_generator_k(spec: GridSpec, hat):
    """free_generator data of the field whose raw transform _fft(data) is hat."""
    out = _curl_k(spec, hat)
    np.negative(out[1], out=out[1])
    return out


def hamiltonian_apply(psi: SixField, medium: MediumMap) -> SixField:
    """Apply the medium Hamiltonian to a six-component field.

    H F = sqrt(v) rho_3 (s . grad/i)(sqrt(v) F) + (v/2h) rho_2 (s . grad h) F.
    (s . grad/i) X is evaluated as the spectral curl of X.
    """
    if medium.spec != psi.spec:
        raise ShapeError("medium and field grids differ")
    spec = psi.spec
    sv = medium.sqrt_v
    out = free_generator(SixField(spec=spec, data=sv * psi.data)).data
    out *= sv
    if not medium.is_uniform_h:
        # rho_2 mixes the blocks: + c x F- above, - c x F+ below.
        out[0] += cross(medium.coupling, psi.lower)
        out[1] -= cross(medium.coupling, psi.upper)
    return SixField(spec=spec, data=out)


def step_medium(psi: SixField, medium: MediumMap, cfg: StepperConfig,
                steps: int) -> SixField:
    """Integrate i dF/dt = H F for the given number of steps.

    RK4 treats the full generator; split_step (uniform-speed media only)
    alternates the exact kinetic phase with the pointwise coupling phase in
    Strang order.
    """
    spec = psi.spec
    check_cfl(cfg.dt, spec.spacing, float(np.max(medium.v)), cfg.cfl_safety)
    if cfg.scheme == "rk4":
        def rhs(arr):
            return -1j * hamiltonian_apply(SixField(spec=spec, data=arr),
                                           medium).data
        return SixField(spec=spec, data=rk4(rhs, psi.data, cfg.dt, steps))
    if not medium.is_uniform_v:
        raise DomainError("split_step requires a uniform-speed medium",
                          arg="scheme")
    return _step_split(psi, medium, cfg.dt, steps)


def _step_split(psi, medium, dt, steps):
    spec = psi.spec
    v0 = float(np.mean(medium.v))
    if not steps:
        return psi.copy()
    if medium.is_uniform_h:
        return propagate_free(psi, v0 * dt * steps)
    # The pointwise coupling B F = (c x F-, -c x F+) obeys B^3 = |c|^2 B and
    # B^2 F = |c|^2 F - c (c . F) per block, so with theta = dt |c|
    #   exp(-i dt B) F = cos(theta) F + s2 c (c . F) - i s1 B F,
    # s1 = sin(theta)/|c| and s2 = (1 - cos theta)/|c|^2; np.sinc carries
    # both through their |c| -> 0 limits dt and dt^2/2.
    c = medium.coupling
    cnorm = np.sqrt(np.sum(c * c, axis=0))
    cos_t = np.cos(dt * cnorm)
    s1c = dt * np.sinc(dt * cnorm / np.pi) * c
    s2 = 0.5 * dt**2 * np.sinc(dt * cnorm / (2.0 * np.pi)) ** 2

    def apply_coupling(arr):
        out = cos_t * arr
        out += c * (s2 * np.sum(c * arr, axis=1))[:, None]
        out[0] -= 1j * cross(s1c, arr[1])
        out[1] += 1j * cross(s1c, arr[0])
        return out

    # Strang order K/2 C K/2 per step; the closing K/2 of one step and the
    # opening K/2 of the next merge into one kinetic step K.  Both kinetic
    # propagators are built once for the run.
    half = 0.5 * v0 * dt
    kinetic_half = _kinetic(spec, half)
    kinetic_full = _kinetic(spec, 2.0 * half)
    data = kinetic_half(psi.data)
    for step in range(steps):
        data = apply_coupling(data)
        data = (kinetic_full if step < steps - 1 else kinetic_half)(data)
    return SixField(spec=spec, data=data)


def divergence_residual(psi: SixField, medium: MediumMap | None = None) -> float:
    """Relative violation of the medium divergence condition.

    Returns || div F - (1/2v) F . grad v - rho_1 (1/2h) F . grad h || / ||F||
    with spectral derivatives; the free-space condition div F = 0 is the
    uniform-medium special case.
    """
    spec = psi.spec
    res = div(spec, psi.data)
    if medium is not None:
        if medium.spec != spec:
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


def medium_basis_change(calf, eps: float, mu: float):
    """Re-express a free-space (2, 3, ...) RS stack with medium normalization
    (eps, mu).

    F+ = [(a + b) F0+ + (a - b) F0-]/2 and F- = [(a - b) F0+ + (a + b) F0-]/2
    with a = sqrt(eps0/eps), b = sqrt(mu0/mu) and eps0 = mu0 = 1.
    """
    if eps <= 0.0 or mu <= 0.0:
        raise DomainError("eps and mu must be strictly positive")
    a = 1.0 / np.sqrt(eps)
    b = 1.0 / np.sqrt(mu)
    fp, fm = np.asarray(calf)
    return 0.5 * np.stack([(a + b) * fp + (a - b) * fm,
                           (a - b) * fp + (a + b) * fm])
