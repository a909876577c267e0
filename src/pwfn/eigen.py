"""Eigenmode solvers: boost eigenfunctions and guided fiber modes.

Boost eigenfunctions
--------------------
The z-component of the boost generator, -i rho_3 (s . grad) z, has continuum
spectrum; its eigenfunctions at transverse wave vector (kx, ky) have
psi_z(z) = K_{i kappa}(k_perp z) on z > 0, the Macdonald function of
imaginary index, here evaluated by the trapezoidal rule on

    K_{i kappa}(x) = integral_0^inf exp(-x cosh t) cos(kappa t) dt.

The remaining components follow from psi_z and its derivative; residuals of
the defining first-order system are the correctness certificate.

Fiber modes
-----------
An infinite cylinder of radius ``a`` with permittivity eps_in inside and
eps_out outside (mu = 1 everywhere) guides single-helicity modes
psi = exp(i k_z z) exp(i M phi) f(rho).  The axial profile solves a Bessel
equation with k_perp^2 = eps omega^2 - k_z^2: oscillatory J_M inside, decaying
K_M outside whenever omega lies in the bound window
(k_z/sqrt(eps_in), k_z/sqrt(eps_out)).  Matching at rho = a imposes two real
conditions on the single interior/exterior amplitude ratio: continuity of
the axial component in its local field normalization (f_z / sqrt(eps), the
E_z-type condition) and continuity of the tangential azimuthal component
f_phi (the H_z-type condition carried by the transverse quadrature).  The
2x2 determinant of this system, cleared of its k_perp^(-2) pole factors, is a
real analytic function of omega whose sign changes mark the discrete guided
modes.  How this two-condition spectrum relates to the classical
four-condition hybrid-mode dispersion is deliberately left open; a classical
cross-scan is available for comparison (classical_dispersion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import jv, jvp, kv, kvp

from .errors import DomainError, TruncationError, WindowError
from .spectral import GridSpec, SixField

__all__ = [
    "macdonald_imag", "macdonald_imag_moment",
    "BoostEigenfunction", "boost_eigenfunction",
    "FiberSpec", "FiberMode", "bound_window",
    "fiber_matching_determinant", "fiber_modes", "fiber_mode_field",
    "fiber_mode_divergence_residual", "classical_dispersion",
]


# The smallest x the rule takes: below it the second moment's scale
# (45/x)^2, and below about 2.5e-307 also the truncation point, overflow.
_X_MIN = 45.0 / math.sqrt(np.finfo(float).max)
# The largest k_perp a profile takes: k_perp^2 stays finite.
_K_PERP_MAX = math.sqrt(np.finfo(float).max)
# The largest exterior decay q a over a fiber's bound window: past about 705
# K_M(q a) falls below the smallest normal double, and the matched
# amplitude ratio J_M / K_M overflows.
_QA_MAX = 700.0
_DECAY_LENGTHS = 6.0    # exterior decay lengths fiber_mode_field needs
_DIV_SAMPLES = 200      # radii per region of fiber_mode_divergence_residual
_INTERFACE_PAD = 0.05   # their distance from the interface, in radii


def macdonald_imag_moment(kappa, x, moment=0):
    """integral_0^inf exp(-x cosh t) cosh(t)^moment cos(kappa t) dt.

    moment = 0 gives K_{i kappa}(x); moments 1, 2 give derivatives of the
    integrand used for d/dx terms.  The integrand is entire and decays
    double-exponentially, so the trapezoidal rule on [0, T] with step
    h = min(0.1, 0.5/sqrt(x)) converges geometrically; T = arccosh(1 + 45/x)
    cuts it where it has fallen by exp(-45) below its value at t = 0.
    Takes a float x or an array of x, and returns the same.  x outside
    [_X_MIN, inf), _X_MIN about 3.4e-153, raises DomainError naming x.
    """
    x = np.asarray(x, dtype=float)
    kappa = float(kappa)
    bad = ~((x >= _X_MIN) & (x < np.inf))
    if bad.any():
        value = float(x[bad][0])
        raise DomainError(f"macdonald quadrature needs finite x >= "
                          f"{_X_MIN:.3g}, got x = {value:.3g}", arg="x",
                          value=value)
    tmax = np.arccosh(1.0 + 45.0 / x)
    h = np.minimum(0.1, 0.5 / np.sqrt(x))
    # The integrand is even in t: the t = 0 node carries half weight.
    total = 0.5 * np.exp(-x)
    for j in range(1, int(np.max(tmax / h)) + 1):
        t = j * h
        cosh = np.cosh(t)
        term = np.exp(-x * cosh) * cosh**moment * np.cos(kappa * t)
        total += np.where(t <= tmax, term, 0.0)
    total *= h
    return float(total) if total.ndim == 0 else total


def macdonald_imag(kappa, x):
    """Macdonald function of imaginary index, K_{i kappa}(x), for x > 0.

    Even in kappa by construction.
    """
    return macdonald_imag_moment(kappa, x, moment=0)


@dataclass
class BoostEigenfunction:
    """Eigenfunction data of the z-boost generator on z > 0.

    The full field is exp(i(kx x + ky y)) (psi_x, psi_y, psi_z)(z) in the
    upper helicity block; psi_z(z) = K_{i kappa}(k_perp z).  z < 0 is covered
    by z -> -z with kappa -> -kappa.  The normalization is fixed by psi_z
    itself (continuum spectrum; delta-normalizable only).
    """

    kappa: float
    kx: float
    ky: float
    k_perp: float = field(init=False)

    def __post_init__(self):
        self.k_perp = float(np.hypot(self.kx, self.ky))
        if not 0.0 < self.k_perp <= _K_PERP_MAX:
            raise DomainError(f"boost eigenfunction needs k_perp > 0 with "
                              f"k_perp^2 finite (k_perp <= "
                              f"{_K_PERP_MAX:.3g}), got k_perp = "
                              f"{self.k_perp:.3g}", arg="k_perp")

    def ode_residual(self, z):
        """Relative residual of z^2 w'' + z w' + (kappa^2 - k_perp^2 z^2) w = 0.

        Refuses the samples :meth:`profile` refuses, with the same error.
        """
        z, w, dw, d2w = self._samples(z)[:4]
        res = z**2 * d2w + z * dw + (self.kappa**2 - self.k_perp**2 * z**2) * w
        scale = (z**2 * np.abs(d2w) + z * np.abs(dw)
                 + (self.kappa**2 + self.k_perp**2 * z**2) * np.abs(w))
        return np.abs(res) / scale

    def profile(self, z):
        """(psi_x, psi_y, psi_z, eigen_residual) at the sampled z values,
        from one evaluation of each moment.  eigen_residual is the relative
        residual of the three component equations of K_z psi = kappa psi.

        Raises DomainError naming x = k_perp z where a sample leaves double
        precision: past x of about 708, psi_z ~ exp(-x) falls below the
        smallest normal double and loses digits (to 0 past about 745), and
        the derivative moments overflow at tiny x.  The x reported is the
        one at fault farthest from 1, so it sits at an end of the z range.
        """
        _, w, _, _, px, py, res = self._samples(z)
        return px, py, w, res

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def _samples(self, z):
        """(z, psi_z, psi_z', psi_z'', psi_x, psi_y, eigen_residual), with
        the check of :meth:`profile`.

        d^n/dz^n K_{i kappa}(k_perp z) is (-k_perp)^n times the n-th
        moment; each moment is evaluated once, over all samples.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if np.any(z <= 0.0):
            raise DomainError("profiles are defined on z > 0")
        kx, ky, kap = self.kx, self.ky, self.kappa
        w, dw, d2w = ((-self.k_perp) ** n
                      * macdonald_imag_moment(kap, self.k_perp * z, n)
                      for n in range(3))
        kp2 = self.k_perp**2
        # Transverse components solving the first-order system; the kappa
        # term carries the 1/z, the derivative term does not.
        px = (1j / kp2) * (ky * kap * w / z + kx * dw)
        py = (1j / kp2) * (-kx * kap * w / z + ky * dw)
        # z psi_x = (i/kp2)(ky kap w + kx z w'), so
        # d/dz (z psi_x) = (i/kp2)(ky kap w' + kx (w' + z w'')); same for y.
        d_zpx = (1j / kp2) * (ky * kap * dw + kx * (dw + z * d2w))
        d_zpy = (1j / kp2) * (-kx * kap * dw + ky * (dw + z * d2w))
        r1 = 1j * ky * z * w - d_zpy - kap * px
        r2 = d_zpx - 1j * kx * z * w - kap * py
        r3 = 1j * kx * z * py - 1j * ky * z * px - kap * w
        scale = np.abs(kap) * (np.abs(px) + np.abs(py) + np.abs(w)) + np.abs(z * w)
        res = (np.abs(r1) + np.abs(r2) + np.abs(r3)) / scale
        # a zero scale (psi_z and its derivatives all 0) makes res 0/0
        bad = ~np.isfinite(np.stack([px, py, w, res])).all(axis=0)
        bad |= np.abs(w) < np.finfo(float).tiny
        if bad.any():
            x = self.k_perp * z[bad]
            x = float(x[np.argmax(np.abs(np.log(x)))])
            raise DomainError(f"psi under- or overflows at x = k_perp z = "
                              f"{x:.3g}", arg="x", value=x)
        return z, w, dw, d2w, px, py, res


def boost_eigenfunction(kappa, kx, ky) -> BoostEigenfunction:
    """Eigenfunction of the z-boost generator at transverse momentum (kx, ky)."""
    return BoostEigenfunction(kappa=float(kappa), kx=float(kx), ky=float(ky))


@dataclass
class FiberSpec:
    """Step-index cylinder: radius, interior/exterior permittivity, mode numbers."""

    radius: float
    eps_in: float
    eps_out: float
    m_angular: int
    k_z: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError("fiber radius must be finite and positive",
                              arg="radius")
        if not (math.isfinite(self.eps_out) and self.eps_out > 0.0):
            raise DomainError("eps_out must be finite and positive",
                              arg="eps_out")
        if not (math.isfinite(self.eps_in) and self.eps_in > self.eps_out):
            raise DomainError("guiding needs a finite eps_in > eps_out",
                              arg="eps_in")
        if not math.isfinite(self.k_z):
            raise DomainError("k_z must be finite", arg="k_z")
        # The window's squares run from eps_out k_z^2 to eps_in k_z^2.
        square = self.k_z * self.k_z
        if self.k_z and not (np.finfo(float).tiny <= self.eps_out * square
                             and self.eps_in * square < np.inf):
            raise DomainError(f"eps k_z^2 must be a finite normal float for "
                              f"eps from eps_out to eps_in, got k_z = "
                              f"{self.k_z:.3g}", arg="k_z")
        qa = abs(self.k_z) * self.radius \
            * math.sqrt(1.0 - self.eps_out / self.eps_in)
        if not qa <= _QA_MAX:
            raise DomainError(f"the bound window reaches the exterior decay "
                              f"q a = |k_z| radius sqrt(1 - eps_out/eps_in) "
                              f"= {qa:.3g}, past {_QA_MAX:g}, where K_M(q a) "
                              f"underflows: lower radius or |k_z|",
                              arg="radius")


def bound_window(spec: FiberSpec):
    """(omega_min, omega_max) where k_perp is real inside, imaginary outside."""
    kz = abs(spec.k_z)
    return kz / np.sqrt(spec.eps_in), kz / np.sqrt(spec.eps_out)


def _transverse_wavenumbers(spec: FiberSpec, omega):
    """(k_in, q) at omega, a float or an array of frequencies in the window."""
    lo, hi = bound_window(spec)
    om = np.asarray(omega, dtype=float)
    outside = ~((lo < om) & (om < hi))
    if np.any(outside):
        raise WindowError(
            f"omega = {om[outside].flat[0]:.6g} outside bound window "
            f"({lo:.6g}, {hi:.6g}): "
            "need eps_in omega^2 > k_z^2 > eps_out omega^2"
        )
    kin = np.sqrt(spec.eps_in * omega**2 - spec.k_z**2)
    q = np.sqrt(spec.k_z**2 - spec.eps_out * omega**2)
    return kin, q


def fiber_matching_determinant(spec: FiberSpec, omega):
    """Real matching determinant whose sign changes locate guided modes.

    Rows: continuity of f_z/sqrt(eps) and of f_phi at rho = a, with the
    amplitude vector (A_in, A_out); the k_perp^(-2) pole factors of f_phi are
    cleared by the positive factor k_in^2 q^2, so the determinant is
    continuous throughout the open window.  A float omega gives a float, an
    array of omega an array.
    """
    omega = np.asarray(omega, dtype=float)
    kin, q = _transverse_wavenumbers(spec, omega)
    m = spec.m_angular
    a = spec.radius
    u = kin * a
    w = q * a
    mkz = m * spec.k_z / a
    g_in = mkz * jv(m, u) + omega * np.sqrt(spec.eps_in) * kin * jvp(m, u)
    g_out = mkz * kv(m, w) + omega * np.sqrt(spec.eps_out) * q * kvp(m, w)
    det = (-(jv(m, u) / np.sqrt(spec.eps_in)) * kin**2 * g_out
           - (kv(m, w) / np.sqrt(spec.eps_out)) * q**2 * g_in)
    return float(det) if det.ndim == 0 else det


def _omega_at(spec: FiberSpec, w):
    """The frequency whose exterior decay constant is q = w / a."""
    return np.sqrt(spec.k_z**2 - (w / spec.radius) ** 2) / np.sqrt(spec.eps_out)


@dataclass
class FiberMode:
    """One guided mode at frequency omega, which must lie in the bound window.

    k_in and q are the interior and exterior transverse wavenumbers at
    omega, and amp_ratio = A_out / A_in makes f_z / sqrt(eps) continuous at
    rho = a; all three are derived from (omega, spec).
    """

    omega: float
    spec: FiberSpec
    k_in: float = field(init=False)
    q: float = field(init=False)
    amp_ratio: complex = field(init=False)

    def __post_init__(self):
        s = self.spec
        self.k_in, self.q = _transverse_wavenumbers(s, self.omega)
        self.amp_ratio = complex(
            (jv(s.m_angular, self.k_in * s.radius) / np.sqrt(s.eps_in))
            / (kv(s.m_angular, self.q * s.radius) / np.sqrt(s.eps_out)))

    def profile(self, rho, inside):
        """(f_+, f_-, f_z) = (f_rho + i f_phi, f_rho - i f_phi, f_z) at rho.

        f_rho = (i/k_perp^2)((W M / rho) f_z + k_z f_z') and
        f_phi = -(1/k_perp^2)((M k_z / rho) f_z + W f_z'), with W = omega
        sqrt(eps) and k_perp^2 = k_in^2 inside, -q^2 outside.  The Bessel
        recurrences make their circular combinations regular at rho = 0:
            f_+ = i (W - k_z)/k_in J_{M+1},  f_- = i (W + k_z)/k_in J_{M-1}
        inside, with f_z = J_M (unit amplitude), and
            f_+ = -i (W - k_z)/q K_{M+1},  f_- = i (W + k_z)/q K_{M-1}
        outside, with f_z = K_M, all three scaled by amp_ratio.
        """
        s = self.spec
        m = s.m_angular
        kin, q = self.k_in, self.q
        rho = np.asarray(rho, dtype=float)
        if inside:
            wloc = self.omega * np.sqrt(s.eps_in)
            plus = 1j * (wloc - s.k_z) / kin * jv(m + 1, kin * rho)
            minus = 1j * (wloc + s.k_z) / kin * jv(m - 1, kin * rho)
            fz = jv(m, kin * rho).astype(complex)
            return plus, minus, fz
        wloc = self.omega * np.sqrt(s.eps_out)
        plus = -1j * (wloc - s.k_z) / q * kv(m + 1, q * rho) * self.amp_ratio
        minus = 1j * (wloc + s.k_z) / q * kv(m - 1, q * rho) * self.amp_ratio
        fz = kv(m, q * rho) * self.amp_ratio
        return plus, minus, fz

    def _cylindrical(self, rho, inside):
        """(f_rho, f_phi, f_z) at rho, from the profile."""
        plus, minus, fz = self.profile(rho, inside)
        return 0.5 * (plus + minus), -0.5j * (plus - minus), fz

    def matched_component_jump(self):
        """Relative jump of (f_z/sqrt(eps), f_phi) across rho = a.

        The profile is written in J/K_{M+-1} and the matching determinant in
        J_M, J_M', K_M and K_M', so a small jump also checks the root.
        """
        s = self.spec
        _, phi_in, fz_in = self._cylindrical(s.radius, inside=True)
        _, phi_out, fz_out = self._cylindrical(s.radius, inside=False)
        w1_in = fz_in / np.sqrt(s.eps_in)
        w1_out = fz_out / np.sqrt(s.eps_out)
        scale = max(abs(w1_in), abs(w1_out), abs(phi_in), abs(phi_out))
        return float(max(abs(w1_in - w1_out), abs(phi_in - phi_out)) / scale)

    def exterior_log_slope(self):
        """Fitted decay rate of the scaled tail sqrt(rho) |f_z|.

        The sqrt(rho) factor removes the known algebraic prefactor of the
        evanescent Bessel tail, so the fit converges to -|k_perp_out|.  The
        window is chosen in units of the decay length so that the next
        asymptotic correction, of order (4 M^2 - 1) / (8 q rho), stays below
        one percent: it starts max(6, 4 M^2) decay lengths out.
        """
        q = self.q
        m = self.spec.m_angular
        rho_lo = max(1.5 * self.spec.radius, max(6.0, 4.0 * m * m) / q)
        rr = np.linspace(rho_lo, rho_lo + 4.0 / q, 64)
        fz = np.abs(self.profile(rr, inside=False)[2])
        slope = np.polyfit(rr, np.log(np.sqrt(rr) * fz), 1)[0]
        return float(slope)


def fiber_modes(spec: FiberSpec, max_modes=8, scan_points=2000):
    """Guided modes found by bracketing sign changes of the determinant.

    Each bracket is refined in w = q a, not in omega: near cutoff
    dq/domega ~ 1/q, so a root good to roundoff in omega is not one in the
    exterior decay.  Returns a list of FiberMode sorted by frequency; empty
    when the window is empty (k_z = 0) or holds no sign change.
    """
    from scipy import optimize

    if spec.k_z == 0.0:
        return []
    lo, hi = bound_window(spec)
    margin = 1e-6 * (hi - lo)
    grid = np.linspace(lo + margin, hi - margin, scan_points)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fiber_matching_determinant(spec, grid)
    # FiberSpec bounds k_z^2 and the exterior decay q a over the window; an
    # index contrast eps_in/eps_out far from 1 is left to overflow the
    # determinant or to make the interior phase k_in a too fine to scan.
    ratio = spec.eps_in / spec.eps_out
    contrast = (f"omega up to {hi:.3g}, k_in a up to "
                f"{np.sqrt(ratio - 1.0) * abs(spec.k_z) * spec.radius:.3g} "
                f"at eps_in/eps_out = {ratio:.3g}")
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"the matching determinant is not finite on the "
                          f"bound window scan ({contrast})",
                          arg="eps_in/eps_out")
    # A root is an isolated zero: adjacent exact zeros are an underflow.
    zero = vals == 0.0
    if np.any(zero[:-1] & zero[1:]):
        raise DomainError(f"the matching determinant underflows to 0 on the "
                          f"bound window scan at k_z = {spec.k_z:.3g}",
                          arg="k_z")
    _, q = _transverse_wavenumbers(spec, grid)
    a = spec.radius
    signs = np.sign(vals)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0.0))
    modes = []

    def det(w):
        return fiber_matching_determinant(spec, _omega_at(spec, w))

    for i in hits[:max_modes]:
        om = grid[i]
        if vals[i] != 0.0:
            # q falls as omega rises; the tiny xtol leaves rtol in charge.
            ends = q[i + 1] * a, q[i] * a
            with np.errstate(over="ignore", invalid="ignore"):
                signs = np.sign(det(ends[0])) * np.sign(det(ends[1]))
            if not signs < 0.0:
                raise DomainError(
                    f"the determinant's sign change between omega = "
                    f"{grid[i]:.6g} and {grid[i + 1]:.6g} is not one across "
                    f"q a from {ends[0]:.6g} to {ends[1]:.6g}: the scan does "
                    f"not resolve the window ({contrast})",
                    arg="eps_in/eps_out")
            w = optimize.brentq(det, *ends, xtol=np.finfo(float).tiny,
                                rtol=4 * np.finfo(float).eps)
            om = _omega_at(spec, w)
        modes.append(FiberMode(omega=float(om), spec=spec))
    return modes


def fiber_mode_field(mode: FiberMode, grid: GridSpec) -> SixField:
    """Sample a guided mode onto a 3-D grid as an upper-block field.

    The fiber axis runs along z through the box center.  The transverse box
    must leave at least _DECAY_LENGTHS exterior decay lengths between the
    fiber surface and the nearest box face, and k_z must be commensurate
    with the z period.
    """
    spec = mode.spec
    q = mode.q
    half = 0.5 * min(grid.length[0], grid.length[1])
    if half - spec.radius < _DECAY_LENGTHS / q:
        raise TruncationError(
            f"transverse half-box {half:.3g} leaves fewer than "
            f"{_DECAY_LENGTHS} decay lengths (1/q = {1.0 / q:.3g}) outside "
            f"radius {spec.radius:.3g}"
        )
    kz_lattice = 2.0 * np.pi / grid.length[2]
    ratio_z = spec.k_z / kz_lattice
    if abs(ratio_z - round(ratio_z)) > 1e-9:
        raise TruncationError(
            f"k_z = {spec.k_z:.6g} is not commensurate with the z period "
            f"(needs an integer multiple of {kz_lattice:.6g})"
        )
    if abs(spec.k_z) >= np.pi * grid.n[2] / grid.length[2]:
        raise TruncationError(
            f"k_z = {spec.k_z:.6g} reaches the z Nyquist wave number; "
            "increase the axial point count"
        )
    x, y, z = grid.axes()
    xx = x[:, None]
    yy = y[None, :]
    rho = np.hypot(xx, yy)
    phi = np.arctan2(yy, xx)
    m = spec.m_angular
    plus = np.empty(rho.shape, dtype=complex)
    minus = np.empty(rho.shape, dtype=complex)
    fz = np.empty(rho.shape, dtype=complex)
    inside = rho <= spec.radius
    for region, sel in ((True, inside), (False, ~inside)):
        plus[sel], minus[sel], fz[sel] = mode.profile(rho[sel], region)
    psi_plus = plus * np.exp(1j * (m + 1) * phi)
    psi_minus = minus * np.exp(1j * (m - 1) * phi)
    psi_z2d = fz * np.exp(1j * m * phi)
    zphase = np.exp(1j * spec.k_z * z)[None, None, :]
    data = np.zeros((2, 3) + grid.n, dtype=complex)
    data[0, 0] = (0.5 * (psi_plus + psi_minus))[:, :, None] * zphase
    data[0, 1] = (-0.5j * (psi_plus - psi_minus))[:, :, None] * zphase
    data[0, 2] = psi_z2d[:, :, None] * zphase
    return SixField(spec=grid, data=data)


def fiber_mode_divergence_residual(mode: FiberMode):
    """Relative residual of div psi = 0 evaluated semi-analytically.

    In cylindrical coordinates div psi = (1/rho) d(rho f_rho)/drho
    + i M f_phi / rho + i k_z f_z per azimuthal/axial factor; the radial
    derivative d f_rho/d rho is a central difference with step 1e-6 * radius
    over the mode profile.  Evaluated at radii away from the interface by
    _INTERFACE_PAD * radius.
    """
    s = mode.spec
    a = s.radius
    m = s.m_angular
    out = []
    for inside in (True, False):
        if inside:
            rr = np.linspace(0.05 * a, a * (1 - _INTERFACE_PAD), _DIV_SAMPLES)
        else:
            rr = np.linspace(a * (1 + _INTERFACE_PAD), 4.0 * a, _DIV_SAMPLES)
        f_rho, f_phi, f_z = mode._cylindrical(rr, inside)
        h = 1e-6 * a
        df_rho = (mode._cylindrical(rr + h, inside)[0]
                  - mode._cylindrical(rr - h, inside)[0]) / (2 * h)
        div = df_rho + f_rho / rr + 1j * m * f_phi / rr + 1j * s.k_z * f_z
        scale = np.abs(f_rho) / rr + np.abs(df_rho) + np.abs(s.k_z * f_z) + 1e-300
        out.append(np.max(np.abs(div) / scale))
    return float(max(out))


def classical_dispersion(spec: FiberSpec, omega: float) -> float:
    """Standard four-condition hybrid-mode determinant for cross-reference.

    (J'/(u J) + K'/(w K)) (eps_in w^2 J'/(u J) + eps_out w^2 K'/(w K))
    - (M k_z)^2 (1/u^2 + 1/w^2)^2 with K' evaluated at w and J' at u; its
    zeros are the classical HE/EH (and TE/TM at M = 0) frequencies.  Used
    only as a comparison scan, never asserted equal to the two-condition
    spectrum.
    """
    kin, q = _transverse_wavenumbers(spec, omega)
    m = spec.m_angular
    a = spec.radius
    u, w = kin * a, q * a
    ju = jvp(m, u) / (u * jv(m, u))
    kw = kvp(m, w) / (w * kv(m, w))
    lhs = (ju + kw) * (spec.eps_in * omega**2 * ju + spec.eps_out * omega**2 * kw)
    rhs = (m * spec.k_z) ** 2 * (1.0 / u**2 + 1.0 / w**2) ** 2
    return float(lhs - rhs)
