"""Wigner phase-space distribution and hydrodynamic form of the field.

Wigner matrix
-------------
For one helicity block psi the reduced distribution is the 3x3 Hermitian
matrix

    W_ij(r, k) = dV * sum_s exp(-i k.s) psi_i(r + s/2) psi_j*(r - s/2),

with the half-step samples obtained by exact spectral interpolation onto the
doubled lattice.  W splits into a real symmetric tensor and a real vector,
W_ij = w_ij + (c/2i) eps_ijk u_k.  Distributions built from genuine
transverse solutions satisfy two pointwise subsidiary conditions in (r, k)
and the trace/vector pair (w, u) closes under

    dw/dt = -c^2 div u,        du_i/dt = -2 c eps_ijk k_j u_k - grad_i w,

which wigner_reduced_step integrates per k fiber.

Hydrodynamic variables
----------------------
From one helicity vector F: energy density rho = F*.F, flow velocity
rho v = c Im(F* x F), normalized stress t_ij = c (F_i* F_j + F_j* F_i)/rho
(so that t_ii = 2c identically), and phase-gradient vector
rho u = c Im(F_j* grad F_j).  The identities t_ii = 2c, v_i t_ik = 0 and
t_ij t_ij = 4c^2 - 2 v^2 hold pointwise wherever rho > 0.  The quantization
integral counts vortex lines piercing a lattice surface: the integrand is
curl-like, so a rectangular patch evaluates to the boundary circulation of
u minus the stress/velocity correction flux, in units of 2 pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import DomainError, InconsistencyError, ShapeError
from .evolve import StepperConfig, check_cfl, rk4
from .fieldcore import LEVI_CIVITA, cross, poynting
from .spectral import GridSpec, curl, div, grad, to_k, to_r

__all__ = [
    "WignerField", "WignerDecomp", "HydroState",
    "wigner_build", "wigner_marginal_r", "wigner_marginal_k",
    "wigner_decompose", "wigner_subsidiary_residual",
    "wigner_reduced_step", "reduced_pair_from_wigner",
    "hydro_from_field", "hydro_identity_residuals", "gradient_bilinears",
    "hydro_divergence_residuals", "hydro_evolution_residual",
    "quantization_integral",
]

_HERM_RTOL = 1e-9    # hermiticity defect wigner_decompose accepts
_RHO_FLOOR = 1e-8    # hydro variables are read where rho > _RHO_FLOOR max(rho)


@dataclass
class WignerField:
    """W_ij(r, k): complex array of shape (3, 3, nx, ny, nz, nx, ny, nz)."""

    spec: GridSpec
    w: np.ndarray

    def __post_init__(self):
        expected = (3, 3) + self.spec.n + self.spec.n
        if self.w.shape != expected:
            raise ShapeError(f"wigner shape {self.w.shape} != {expected}")

    def hermiticity_defect(self):
        swapped = np.conj(np.swapaxes(self.w, 0, 1))
        scale = np.max(np.abs(self.w))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.w - swapped)) / scale)


@dataclass
class WignerDecomp:
    """Real decomposition W_ij = w_ij + (c/2i) eps_ijk u_k."""

    spec: GridSpec
    w_sym: np.ndarray   # (3, 3, r..., k...) real symmetric
    u: np.ndarray       # (3, r..., k...) real

    def reconstruct(self):
        anti = np.einsum("ijk,k...->ij...", LEVI_CIVITA, self.u) / 2j
        return self.w_sym + anti


def _doubled_field(spec: GridSpec, block):
    """Exact band-limited interpolation of one block onto the 2x lattice."""
    n = spec.n
    big = GridSpec(n=tuple(2 * m for m in n), length=spec.length)
    bhat = to_k(spec, block)
    out = np.zeros((3,) + big.n, dtype=complex)
    kx = sfft.fftfreq(n[0], 1.0 / n[0]).astype(int)
    ky = sfft.fftfreq(n[1], 1.0 / n[1]).astype(int)
    kz = sfft.fftfreq(n[2], 1.0 / n[2]).astype(int)
    out[np.ix_(range(3), kx % (2 * n[0]), ky % (2 * n[1]), kz % (2 * n[2]))] = bhat
    return to_r(big, out), big


def wigner_build(spec: GridSpec, block) -> WignerField:
    """Reduced Wigner matrix of one helicity block (3, nx, ny, nz array)."""
    block = np.ascontiguousarray(block, dtype=complex)
    if block.shape != (3,) + spec.n:
        raise ShapeError("block shape does not match the grid")
    half, _ = _doubled_field(spec, block)
    n = spec.n
    # Half-lattice indices of r + s/2 and r - s/2 (r index a on axis ax, s
    # index b on axis 3 + ax, both box-centered): h+ = 2a + b - m/2 and
    # h- = 2a - b + m/2 (mod 2m).
    plus, minus = [], []
    for ax, m in enumerate(n):
        a = np.arange(m)[:, None]
        b = np.arange(m)[None, :] - m // 2
        others = tuple(d for d in range(6) if d not in (ax, 3 + ax))
        plus.append(np.expand_dims((2 * a + b) % (2 * m), others))
        minus.append(np.expand_dims((2 * a - b) % (2 * m), others))
    w = np.empty((3, 3) + n + n, dtype=complex)
    partners = [np.conj(half[j][tuple(minus)]) for j in range(3)]
    for i in range(3):
        fp = half[i][tuple(plus)]
        for j in range(3):
            # transform over the s axes with the box-centered convention
            w[i, j] = to_k(spec, fp * partners[j])
    # The s = -L/2 lag slice has no +L/2 partner on the lattice; averaging
    # W with its matrix adjoint restores exact hermiticity (the symmetric
    # treatment of the half-period lag).
    w += np.conj(np.swapaxes(w, 0, 1))
    w *= 0.5
    return WignerField(spec=spec, w=w)


def wigner_marginal_k(wf: WignerField):
    """sum_k W_ii(r, k) / V; equals |psi(r)|^2 for a genuine distribution."""
    tr = np.einsum("ii...->...", wf.w)
    return np.sum(tr, axis=(-3, -2, -1)).real / wf.spec.volume


def wigner_marginal_r(wf: WignerField):
    """sum_r W_ii(r, k) dV; equals |psi_hat(k)|^2."""
    tr = np.einsum("ii...->...", wf.w)
    return np.sum(tr, axis=(0, 1, 2)).real * wf.spec.cell_volume


def wigner_decompose(wf: WignerField) -> WignerDecomp:
    """Split into the real symmetric tensor and the real vector."""
    defect = wf.hermiticity_defect()
    if defect > _HERM_RTOL:
        raise InconsistencyError(
            f"Wigner matrix hermiticity defect {defect:.3e} exceeds {_HERM_RTOL:.1e}"
        )
    w_sym = 0.5 * (wf.w + np.conj(np.swapaxes(wf.w, 0, 1))).real
    u = np.einsum("ijk,ij...->k...", LEVI_CIVITA, wf.w) * 1j
    return WignerDecomp(spec=wf.spec, w_sym=w_sym, u=u.real)


def _r_last(vec):
    """(3, r..., k...) view as (k..., 3, r...), the layout grad/div/curl take."""
    return np.moveaxis(vec, (0, 1, 2, 3), (3, 4, 5, 6))


def wigner_subsidiary_residual(decomp: WignerDecomp):
    """Residuals (r1, r2) of the two pointwise subsidiary conditions.

    r1: eps_ijk k_j u_k = grad_j w_ij   (gradient over r),
    r2: eps_ijk grad_j u_k = -4 k_j w_ij.
    Both normalized by the representable field scale k_max (|u| + |w|), so
    single modes whose terms vanish identically report zero rather than a
    0/0 artifact.  The sign of the second condition follows from the
    forward-phase exp(-i k.s) convention used here (checked against
    solution-built distributions in the tests).
    """
    spec = decomp.spec
    kvec = spec.k_grid()    # broadcasts over the trailing k axes
    lhs1 = cross(kvec, decomp.u)
    # one row i at a time keeps a single row's transform in memory
    rhs1 = np.stack([np.moveaxis(div(spec, _r_last(decomp.w_sym[i])),
                                 (0, 1, 2), (3, 4, 5)) for i in range(3)])
    # normalize by the representable field scale, not by the residual terms
    # themselves (which vanish identically for single modes)
    kmax = float(np.max(spec.k_norm()))
    scale1 = kmax * (np.max(np.abs(decomp.u)) + np.max(np.abs(decomp.w_sym)))
    r1 = float(np.max(np.abs(lhs1 - rhs1)) / scale1) if scale1 > 0 else 0.0

    lhs2 = np.moveaxis(curl(spec, _r_last(decomp.u)), (3, 4, 5, 6), (0, 1, 2, 3))
    rhs2 = np.stack([
        sum(-4.0 * kvec[j] * decomp.w_sym[i, j] for j in range(3))
        for i in range(3)
    ])
    scale2 = 4.0 * kmax * (np.max(np.abs(decomp.w_sym))
                           + np.max(np.abs(decomp.u)))
    r2 = float(np.max(np.abs(lhs2 - rhs2)) / scale2) if scale2 > 0 else 0.0
    return r1, r2


def reduced_pair_from_wigner(decomp: WignerDecomp, k_index):
    """Extract (w, u) on one k fiber: trace of w_sym and the vector u."""
    w = np.einsum("ii...->...", decomp.w_sym)[..., k_index[0], k_index[1],
                                              k_index[2]]
    u = decomp.u[..., k_index[0], k_index[1], k_index[2]]
    return np.ascontiguousarray(w), np.ascontiguousarray(u)


def wigner_reduced_step(spec: GridSpec, k, w, u, dt, steps, cfl_safety=0.5):
    """RK4 integration of the closed (w, u) pair on one k fiber.

    dw/dt = -c^2 div u,  du/dt = -2 c (k x u) - grad w,

    that is du_i/dt = -2 c eps_ijk k_j u_k - grad_i w: a rotation of u about
    k and the gradient of w.  c = 1 internally.
    """
    cfg = StepperConfig(dt=dt, cfl_safety=cfl_safety)
    check_cfl(cfg.dt, spec.spacing, 1.0, cfg.cfl_safety)
    k = np.asarray(k, dtype=float)

    def rhs(y):
        # y packs (w, u) as (4, nx, ny, nz)
        out = np.empty_like(y)
        out[0] = -div(spec, y[1:])
        out[1:] = -2.0 * cross(k, y[1:]) - grad(spec, y[0])
        return out

    y = np.empty((4,) + spec.n)
    y[0] = w
    y[1:] = u
    y = rk4(rhs, y, cfg.dt, steps)
    return y[0], y[1:]


@dataclass
class HydroState:
    """Pointwise hydrodynamic variables of one helicity vector field."""

    spec: GridSpec
    rho: np.ndarray
    v: np.ndarray
    t: np.ndarray
    u: np.ndarray


def hydro_from_field(spec: GridSpec, f) -> HydroState:
    """Hydrodynamic variables of a complex vector field on the grid."""
    f = np.ascontiguousarray(f, dtype=complex)
    if f.shape != (3,) + spec.n:
        raise ShapeError("field shape does not match the grid")
    rho = np.sum(np.abs(f) ** 2, axis=0)
    safe = np.where(rho > 0.0, rho, 1.0)
    v = poynting(f) / safe
    t = np.einsum("i...,j...->ij...", np.conj(f), f)
    t = (t + np.swapaxes(t, 0, 1)).real / safe
    grad_f = grad(spec, f)      # [j, i]: d_i f_j
    u = np.zeros((3,) + spec.n)
    for j in range(3):
        u += (np.conj(f[j]) * grad_f[j]).imag
    u /= safe
    return HydroState(spec=spec, rho=rho, v=v, t=t, u=u)


def hydro_identity_residuals(state: HydroState):
    """Pointwise violations of t_ii = 2c, v_i t_ik = 0, t.t = 4c^2 - 2v^2.

    Evaluated where rho > _RHO_FLOOR * max(rho); returns the three maxima.
    """
    mask = state.rho > _RHO_FLOOR * np.max(state.rho)
    tr = np.einsum("ii...->...", state.t)
    r1 = np.max(np.abs(tr - 2.0)[mask])
    vt = np.einsum("i...,ik...->k...", state.v, state.t)
    r2 = np.max(np.abs(vt)[:, mask])
    tt = np.einsum("ij...,ij...->...", state.t, state.t)
    v2 = np.sum(state.v**2, axis=0)
    r3 = np.max(np.abs(tt - (4.0 - 2.0 * v2))[mask])
    return float(r1), float(r2), float(r3)


def gradient_bilinears(state: HydroState, g_rho=None, g_v=None, g_t=None):
    """The complex gradient bilinears C_a = F* (x) grad_a F in hydro form.

    The one-point matrix B = rho (t + i eps.v)/2 equals F* (x) F and has
    rank one, which closes the gradient sector exactly:

        C_a = (B dB_a)/rho - conj(Theta_a) B / rho,
        Theta_a = (grad_a rho)/2 + i rho u_a.

    Returns an array of shape (3, 3, 3, nx, ny, nz) indexed [a, i, b] with
    C[a, i, b] = F_i* d_a F_b.  Everything downstream of the field's first
    derivatives (stress evolution, divergence conditions) follows from it.
    """
    spec = state.spec
    rho, v, t, u = state.rho, state.v, state.t, state.u
    if g_rho is None:
        g_rho = grad(spec, rho)
    if g_v is None:
        g_v = grad(spec, v)
    if g_t is None:
        g_t = grad(spec, t)
    epsv = np.einsum("ijk,k...->ij...", LEVI_CIVITA, v)
    big_b = 0.5 * rho * (t + 1j * epsv)
    out = np.empty((3, 3, 3) + spec.n, dtype=complex)
    for a in range(3):
        depsv = np.einsum("ijk,k...->ij...", LEVI_CIVITA, g_v[:, a])
        db = 0.5 * (g_rho[a] * (t + 1j * epsv)
                    + rho * (g_t[:, :, a] + 1j * depsv))
        theta = 0.5 * g_rho[a] + 1j * rho * u[a]
        out[a] = (np.einsum("ik...,kj...->ij...", big_b, db)
                  - np.conj(theta) * big_b) / rho
    return out


def hydro_divergence_residuals(state: HydroState):
    """The two pointwise transversality conditions in hydro variables.

    A transverse field satisfies F_i* (div F) = 0, whose hydro form is
    sum_a C[a, i, a] = 0; the real and imaginary parts give the two real
    vector conditions.  Returns their maxima relative to the bilinear
    scale."""
    return _transversality_ratios(gradient_bilinears(state))


def _transversality_ratios(c):
    """Real and imaginary parts of sum_a C[a, i, a] = F_i* div F, each as
    its maximum over 3 max |C|; (0, 0) for a zero field."""
    vec = sum(c[a, :, a] for a in range(3))
    scale = float(np.max(np.abs(c))) * 3.0
    if scale == 0.0:
        return 0.0, 0.0
    return (float(np.max(np.abs(vec.real)) / scale),
            float(np.max(np.abs(vec.imag)) / scale))


def hydro_evolution_residual(state_m: HydroState, state_0: HydroState,
                             state_p: HydroState, dt: float):
    """Residuals of the hydrodynamic evolution and divergence equations.

    Time derivatives are centered differences of the outer states; right
    hand sides are evaluated on the middle state with spectral gradients.
    Returns a dict of relative residuals keyed by equation name: the four
    evolution budgets (continuity, velocity, stress, u) and the two
    transversality conditions (div1/div2, the real and imaginary parts of
    the hydro form of F* div F).  On exact solutions the evolution budgets
    vanish at second order under dt halving and the transversality
    conditions sit at the grid-representation floor.
    """
    spec = state_0.spec
    rho, v, t, u = state_0.rho, state_0.v, state_0.t, state_0.u
    g_rho = grad(spec, rho)
    g_v = grad(spec, v)      # [i, d, ...]
    g_t = grad(spec, t)      # [i, j, d, ...]
    g_u = grad(spec, u)
    div_v = sum(g_v[i][i] for i in range(3))

    def vdot(arr_grad):
        return np.einsum("d...,d...->...", v, arr_grad)

    out = {}

    # continuity
    dt_rho = (state_p.rho - state_m.rho) / (2.0 * dt)
    res = dt_rho + vdot(g_rho) + rho * div_v
    out["continuity"] = float(np.max(np.abs(res)) / np.max(np.abs(dt_rho) + 1e-300))

    # velocity
    dt_v = (state_p.v - state_m.v) / (2.0 * dt)
    # flux[i] = d_j [rho (v_i v_j + t_ij - delta_ij)]
    delta = np.eye(3)[:, :, None, None, None]
    flux = div(spec, rho * (v[:, None] * v[None, :] + t - delta))
    res_v = np.empty_like(v)
    for i in range(3):
        res_v[i] = dt_v[i] + vdot(g_v[i]) - flux[i] / rho
    out["velocity"] = float(np.max(np.abs(res_v))
                            / (np.max(np.abs(dt_v)) + 1e-300))

    # u equation
    dt_u = (state_p.u - state_m.u) / (2.0 * dt)
    # flux[i] = d_j [rho eps_jkl (t_km d_i t_ml + v_k d_i v_l)]
    tgrad = np.einsum("km...,mli...->kli...", t, g_t) + v[:, None, None] * g_v
    flux = div(spec, rho * np.einsum("jkl,kli...->ij...", LEVI_CIVITA, tgrad))
    res_u = np.empty_like(u)
    for i in range(3):
        res_u[i] = dt_u[i] + vdot(g_u[i]) - flux[i] / (4.0 * rho)
    out["u"] = float(np.max(np.abs(res_u)) / (np.max(np.abs(dt_u)) + 1e-300))

    # stress equation, via the closed gradient-bilinear form:
    # d/dt t_un = 2 Im(P + P^T) with P_ij = eps_jab C[a, i, b], so
    # d/dt t = (2 Im(P + P^T) - t d rho/dt)/rho, d rho/dt = -div(rho v).
    dt_t = (state_p.t - state_m.t) / (2.0 * dt)
    c = gradient_bilinears(state_0, g_rho=g_rho, g_v=g_v, g_t=g_t)
    p = np.einsum("jab,aib...->ij...", LEVI_CIVITA, c)
    drho_t = -(vdot(g_rho) + rho * div_v)
    rhs_t = (2.0 * np.imag(p + np.swapaxes(p, 0, 1)) - t * drho_t) / rho
    res_t = dt_t - rhs_t
    out["stress"] = float(np.max(np.abs(res_t)) / (np.max(np.abs(dt_t)) + 1e-300))

    # transversality conditions (no time derivative)
    out["div1"], out["div2"] = _transversality_ratios(c)
    return out


def quantization_integral(state: HydroState, surface):
    """Winding number detected through a lattice surface.

    surface = ("plane", axis, index) integrates over the full periodic
    cross-section perpendicular to ``axis`` (a closed 2-cycle of the torus;
    its total winding vanishes for any single-valued field, so it serves as
    the untwisted reference).  surface = ("patch", axis, index, (lo1, hi1),
    (lo2, hi2)) restricts to the plaquettes in the given index ranges of the
    two remaining axes (in axis order); since the integrand is curl-like,
    the patch value equals the boundary circulation and counts the vortex
    lines piercing it, oriented by the +axis normal.  Returns (phase-wrapped
    circulation of u minus the stress/velocity correction flux) / (2 pi),
    near an integer for states built from a genuine field.  Raises
    DomainError when rho falls below _RHO_FLOOR * max(rho) on the surface
    (phase undefined).
    """
    kind, axis, index = surface[:3]
    if kind not in ("plane", "patch"):
        raise DomainError(f"unsupported surface kind {kind!r}")
    spec = state.spec
    ax1, ax2 = [a for a in range(3) if a != axis]
    take = tuple(index if a == axis else slice(None) for a in range(3))
    d1 = spec.spacing[ax1]
    d2 = spec.spacing[ax2]
    if kind == "patch":
        (lo1, hi1), (lo2, hi2) = surface[3], surface[4]
        n1 = spec.n[ax1]
        n2 = spec.n[ax2]
        if hi1 <= lo1 or hi2 <= lo2 or hi1 - lo1 >= n1 or hi2 - lo2 >= n2:
            raise DomainError("patch index ranges must be increasing and "
                              "smaller than one period")
        idx1 = np.arange(lo1, hi1 + 1) % n1
        idx2 = np.arange(lo2, hi2 + 1) % n2
        psel = (idx1[:-1][:, None], idx2[:-1][None, :])
        rho_b = state.rho[take][np.ix_(idx1, idx2)]
        if np.min([rho_b[0, :].min(), rho_b[-1, :].min(),
                   rho_b[:, 0].min(), rho_b[:, -1].min()]) \
                < _RHO_FLOOR * np.max(state.rho):
            raise DomainError("rho vanishes on the patch boundary; "
                              "phase undefined")
        # boundary line integral of u, trapezoid along each edge,
        # counterclockwise in the (ax1, ax2) plane
        u1 = state.u[ax1][take][np.ix_(idx1, idx2)]
        u2 = state.u[ax2][take][np.ix_(idx1, idx2)]

        def edge(vals, step):
            return float(np.sum(0.5 * (vals[:-1] + vals[1:])) * step)

        total = (edge(u1[:, 0], d1) + edge(u2[-1], d2)      # +ax1, +ax2
                 - edge(u1[:, -1], d1) - edge(u2[0], d2))   # -ax1, -ax2
        # orient by the +axis normal; (axis, ax1, ax2) is odd for axis = 1
        total *= LEVI_CIVITA[axis, ax1, ax2]
    else:
        psel = (slice(None), slice(None))
        rho_s = state.rho[take]
        if np.min(rho_s) < _RHO_FLOOR * np.max(state.rho):
            raise DomainError("rho vanishes on the surface; phase undefined")
        total = 0.0  # closed 2-cycle: the u circulation has no boundary

    # correction flux: (1/8c^3) eps_ijk (v_i dv_j x dv_k + v_i dt_jl x dt_kl
    #                                     - 2 t_il dt_jl x dv_k) . n,
    # built for the normal component on the surface slice only
    on_surface = (Ellipsis,) + take
    v = state.v[on_surface]
    t = state.t[on_surface]
    g_v = grad(spec, state.v)[on_surface]      # [j, d]: d_d v_j
    g_t = grad(spec, state.t)[on_surface]      # [j, l, d]: d_d t_jl
    p, q = (axis + 1) % 3, (axis + 2) % 3

    def normal_cross(a, b):
        # the +axis component of fieldcore.cross(a, b), alone
        return a[p] * b[q] - a[q] * b[p]

    corr = np.zeros(v.shape[1:])
    for i, j, k in np.argwhere(LEVI_CIVITA):
        term = v[i] * normal_cross(g_v[j], g_v[k])
        for l in range(3):
            term = term + v[i] * normal_cross(g_t[j, l], g_t[k, l]) \
                - 2.0 * t[i, l] * normal_cross(g_t[j, l], g_v[k])
        corr += LEVI_CIVITA[i, j, k] * term
    corr /= 8.0
    flux = float(np.sum(corr[psel]) * d1 * d2)
    return (total - flux) / (2.0 * np.pi)
