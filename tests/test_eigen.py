import warnings

import numpy as np
import pytest

from pwfn import eigen
from pwfn.cli import main
from pwfn.errors import DomainError, TruncationError, WindowError
from pwfn.spectral import GridSpec, to_k, to_r


def k0_series(x, terms=40):
    """Independent small-argument series for K_0 (power series + log part)."""
    euler_gamma = 0.5772156649015328606
    total = 0.0
    harmonic = 0.0
    fact = 1.0
    q = x * x / 4.0
    power = 1.0
    for k in range(terms):
        if k > 0:
            harmonic += 1.0 / k
            fact *= k
            power *= q
        term = power / fact**2 * (harmonic - np.log(x / 2.0) - euler_gamma)
        total += term
    return total


def test_macdonald_matches_independent_series():
    # frozen reference value of K_0(1) from the series oracle
    ref = k0_series(1.0)
    assert abs(ref - 0.42102443824070834) < 1e-14
    assert abs(eigen.macdonald_imag(0.0, 1.0) - ref) < 1e-10 * ref
    for x in (0.01, 0.5, 2.0):
        assert abs(eigen.macdonald_imag(0.0, x) - k0_series(x)) \
            < 1e-10 * k0_series(x)


def test_macdonald_asymptotic_and_evenness():
    x = 30.0
    asym = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
    val = eigen.macdonald_imag(0.0, x)
    assert abs(val - asym) < 0.005 * asym  # 1 + O(1/x) band at zero index
    for kappa, x in ((0.5, 0.3), (2.0, 1.7)):
        assert eigen.macdonald_imag(kappa, x) == eigen.macdonald_imag(-kappa, x)
    for x in (0.0, np.inf):
        with pytest.raises(DomainError):
            eigen.macdonald_imag(1.0, x)


def test_macdonald_ode_residual_finite_differences():
    kappa, kperp = 1.3, 1.0
    z = np.linspace(0.3, 4.0, 12)
    h = 5e-3

    def w(zz):
        return np.array([eigen.macdonald_imag(kappa, kperp * v) for v in zz])

    w0 = w(z)
    # fourth-order stencils keep the truncation error below the target
    d1 = (w(z - 2 * h) - 8 * w(z - h) + 8 * w(z + h) - w(z + 2 * h)) / (12 * h)
    d2 = (-w(z - 2 * h) + 16 * w(z - h) - 30 * w0 + 16 * w(z + h)
          - w(z + 2 * h)) / (12 * h**2)
    res = z**2 * d2 + z * d1 + (kappa**2 - kperp**2 * z**2) * w0
    scale = z**2 * np.abs(d2) + (kappa**2 + kperp**2 * z**2) * np.abs(w0)
    assert np.max(np.abs(res) / scale) < 1e-7


def test_boost_eigenfunction_k0_case_and_decay():
    from scipy.special import kv
    b = eigen.boost_eigenfunction(0.0, 1.0, 0.0)
    z = np.array([0.5, 1.0, 2.0])
    assert np.max(np.abs(b.profile(z)[2] - kv(0, z))) < 1e-10
    b2 = eigen.boost_eigenfunction(1.0, 1.0, 0.7)
    psi_z = b2.profile(np.array([2.0, 4.0]))[2]
    ratio = psi_z[1] / psi_z[0]
    expected = np.exp(-2.0 * b2.k_perp) * np.sqrt(2.0 / 4.0)
    assert abs(ratio - expected) < 0.2 * abs(expected)
    with pytest.raises(DomainError):
        eigen.boost_eigenfunction(1.0, 0.0, 0.0)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_boost_eigen_residuals(kappa):
    b = eigen.boost_eigenfunction(kappa, 1.0, 0.7)
    z = np.linspace(0.1, 5.0, 20)
    assert np.max(b.ode_residual(z)) < 1e-7
    assert np.max(b.profile(z)[3]) < 1e-6


def test_cli_boost_run_evaluates_each_moment_once(tmp_path, monkeypatch):
    # psi_z, psi_x, psi_y and the eigen residual share one evaluation: one
    # call for each of the moments 0, 1 and 2, each over all samples.
    calls = []
    moment = eigen.macdonald_imag_moment

    def counted(kappa, x, n=0):
        calls.append((n, np.shape(x)))
        return moment(kappa, x, n)

    monkeypatch.setattr(eigen, "macdonald_imag_moment", counted)
    cfg = tmp_path / "boost.ini"
    cfg.write_text("[scenario]\nkind = boost-eigen\n[physics]\nsamples = 12\n")
    assert main(["boost-eigen", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == [(0, (12,)), (1, (12,)), (2, (12,))]


def test_boost_run_near_a_zero_of_psi_z_is_not_warned(tmp_path):
    # At x = k_perp z_min = 0.057, K_{2.5i}(x) is near a zero: it reads
    # -3.9e-4, against K_0(x) = 3.0.  No warning reaches stderr.
    cfg = tmp_path / "boost.ini"
    cfg.write_text("[scenario]\nkind = boost-eigen\n[physics]\nkappa = 2.5\n"
                   "kx = 0.3\nky = -1.1\nz_min = 0.05\nsamples = 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["boost-eigen", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0


def test_macdonald_moments_at_zero_index_match_scipy():
    # At kappa = 0 the moments are K_0, K_1 and (K_0 + K_2)/2, since
    # cosh^2 t = (1 + cosh 2t)/2; on an array of x and on each float x.
    from scipy.special import kv
    x = np.geomspace(1e-3, 500.0, 200)
    refs = (kv(0, x), kv(1, x), 0.5 * (kv(0, x) + kv(2, x)))
    for n, ref in enumerate(refs):
        got = eigen.macdonald_imag_moment(0.0, x, n)
        assert np.max(np.abs(got - ref) / ref) < 1e-13, n
        assert got[7] == eigen.macdonald_imag_moment(0.0, x[7], n)
    assert type(eigen.macdonald_imag_moment(0.0, 1.0)) is float


def _trapezoid_at_half_step(kappa, x, moment):
    """The rule of macdonald_imag_moment on [0, T] at step h/2, summed
    from one (samples, nodes) table."""
    tmax = np.arccosh(1.0 + 45.0 / x)
    h = 0.5 * np.minimum(0.1, 0.5 / np.sqrt(x))
    t = h[:, None] * np.arange(int(np.max(tmax / h)) + 1)
    cosh = np.cosh(t)
    f = np.exp(-x[:, None] * cosh) * cosh**moment * np.cos(kappa * t)
    f[:, 0] *= 0.5
    return h * np.sum(np.where(t <= tmax[:, None], f, 0.0), axis=1)


def test_macdonald_rule_is_converged_in_its_step():
    # Halving h moves no value by more than 1e-13 of the integrand's scale
    # exp(-x) max(1, 45/x)^moment, so the step resolves every kappa the
    # config admits.
    x = np.geomspace(1e-3, 700.0, 120)
    worst = 0.0
    for kappa in (0.0, 0.7, -3.0, 8.5, 13.0, -20.0, 20.0):
        for n in range(3):
            scale = np.exp(-x) * np.maximum(1.0, 45.0 / x) ** n
            change = (eigen.macdonald_imag_moment(kappa, x, n)
                      - _trapezoid_at_half_step(kappa, x, n))
            worst = max(worst, float(np.max(np.abs(change) / scale)))
    assert worst < 1e-13, worst


def test_boost_profile_memory_is_a_few_arrays_of_the_samples():
    # Each moment is summed node by node into arrays of the samples' size.
    # At k_perp z = 1e-3 the rule takes 115 nodes, so a (samples, nodes)
    # table alone would hold 115 such arrays.
    import tracemalloc
    b = eigen.boost_eigenfunction(1.0, 1.0, 0.0)
    z = np.linspace(1e-3, 5.0, 10_000)
    b.profile(z[:2])
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        b.profile(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays, bound = (peak - base) / z.nbytes, 40.0
    assert arrays <= bound, (arrays, bound)


def test_macdonald_refuses_x_below_its_floor():
    # Below _X_MIN the moment-2 scale (45/x)^2 overflows; below about
    # 2.5e-307 the truncation point arccosh(45/x) is infinite as well.
    for moment in (0, 1, 2):
        assert np.isfinite(eigen.macdonald_imag_moment(1.0, eigen._X_MIN,
                                                       moment))
        for x in (1e-160, 1e-310):
            with pytest.raises(DomainError) as err:
                eigen.macdonald_imag_moment(1.0, x, moment)
            assert err.value.arg == "x"
    b = eigen.boost_eigenfunction(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        b.profile(np.array([1e-160, 0.1]))


def test_boost_profile_refuses_samples_that_under_or_overflow():
    # past x = k_perp z of about 745, psi_z = K_{i kappa}(x) underflows to 0
    # and the residual is 0/0; past about 708 it is subnormal (1.05e-315 at
    # x = 722.2, where the eigen residual reads 3.7e-7); at x = 1e-152 the
    # moment-2 term overflows.  The x reported is the extreme one, at an end
    # of the z range; the readers built on the profile refuse the same x.
    b = eigen.boost_eigenfunction(1.0, 1000.0, 0.0)
    for z, x_bad in ((np.linspace(0.1, 5.0, 64), 5000.0),
                     (np.array([0.5, 0.7222]), 722.2),
                     (np.array([1e-155, 2.5, 5.0]), 1e-152)):
        for method in (b.profile, b.ode_residual):
            with pytest.raises(DomainError) as err:
                method(z)
            assert err.value.arg == "x", method
            assert err.value.value == pytest.approx(x_bad), method


def test_boost_eigenfunction_norm_grows_with_domain():
    # continuum spectrum: transverse plane waves make the norm scale with
    # the sampled transverse area
    b = eigen.boost_eigenfunction(1.0, 1.0, 0.0)
    z = np.linspace(0.1, 6.0, 200)
    psi_x, psi_y, psi_z, _ = b.profile(z)
    line = np.trapezoid(np.abs(psi_z) ** 2 + np.abs(psi_x) ** 2
                        + np.abs(psi_y) ** 2, z)
    norms = [line * (2 * w) ** 2 for w in (1.0, 2.0, 4.0)]
    assert norms[1] > 2.0 * norms[0] and norms[2] > 2.0 * norms[1]


ACC_FIBER = dict(radius=1.0, eps_in=2.25, eps_out=1.0, k_z=5.0)


def test_fiber_window_and_errors():
    spec = eigen.FiberSpec(m_angular=0, **ACC_FIBER)
    lo, hi = eigen.bound_window(spec)
    assert abs(lo - 5.0 / 1.5) < 1e-14 and abs(hi - 5.0) < 1e-14
    with pytest.raises(WindowError):
        eigen.fiber_matching_determinant(spec, 5.5)
    with pytest.raises(WindowError):
        eigen.FiberMode(5.5, spec)
    with pytest.raises(DomainError):
        eigen.FiberSpec(radius=1.0, eps_in=1.0, eps_out=1.0, m_angular=0,
                        k_z=5.0)


@pytest.mark.parametrize("m_angular", [0, 1, 3])
def test_fiber_determinant_on_array_matches_scalar_calls(m_angular):
    spec = eigen.FiberSpec(m_angular=m_angular, **ACC_FIBER)
    lo, hi = eigen.bound_window(spec)
    om = np.linspace(lo + 1e-6, hi - 1e-6, 2000)
    scalar = [eigen.fiber_matching_determinant(spec, w) for w in om]
    assert all(type(v) is float for v in scalar)
    scalar = np.array(scalar)
    vals = eigen.fiber_matching_determinant(spec, om)
    assert np.all(np.abs(vals - scalar) <= 1e-12 * np.abs(scalar))
    assert np.array_equal(np.sign(vals), np.sign(scalar))
    with pytest.raises(WindowError):
        eigen.fiber_matching_determinant(spec, np.array([lo + 1e-3, hi]))


def test_fiber_window_shrinks_with_contrast():
    spec = eigen.FiberSpec(radius=1.0, eps_in=1.0 + 1e-9, eps_out=1.0,
                           m_angular=0, k_z=5.0)
    lo, hi = eigen.bound_window(spec)
    assert hi - lo < 1e-8


def test_fiber_determinant_continuous():
    spec = eigen.FiberSpec(m_angular=0, **ACC_FIBER)
    lo, hi = eigen.bound_window(spec)
    om = np.linspace(lo + 1e-4, hi - 1e-4, 400)
    vals = np.array([eigen.fiber_matching_determinant(spec, w) for w in om])
    assert np.all(np.isfinite(vals))
    steps = np.abs(np.diff(vals))
    assert np.max(steps) < 0.2 * np.max(np.abs(vals))  # no poles/jumps


@pytest.mark.parametrize("m_angular", [0, 1, 2, 3])
def test_fiber_modes_against_independent_scan(m_angular):
    spec = eigen.FiberSpec(m_angular=m_angular, **ACC_FIBER)
    modes = eigen.fiber_modes(spec)
    assert len(modes) >= 1
    # independent oracle: 4x denser scan refined with brentq
    from scipy.optimize import brentq
    lo, hi = eigen.bound_window(spec)
    margin = 1e-6 * (hi - lo)
    grid = np.linspace(lo + margin, hi - margin, 8000)
    vals = np.array([eigen.fiber_matching_determinant(spec, w) for w in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            roots.append(brentq(
                lambda w: eigen.fiber_matching_determinant(spec, w),
                grid[i], grid[i + 1], xtol=1e-13, rtol=1e-14))
    assert len(roots) == len(modes)
    for md, ref in zip(modes, roots):
        assert abs(md.omega - ref) < 1e-8 * ref
        assert md.matched_component_jump() < 1e-9
        slope = md.exterior_log_slope()
        assert abs(slope + md.q) < 0.01 * md.q
        assert eigen.fiber_mode_divergence_residual(md) < 1e-6


def test_fiber_mode_near_cutoff_matches_at_the_interface():
    # Its exterior decay q a is 0.0063; there dq/domega ~ 1/q, so a root
    # refined in omega alone left a matched-component jump of 5e-8, and a
    # J_M' form of the transverse components read div psi at 7.6e-7.
    spec = eigen.FiberSpec(radius=1.0, eps_in=2.25, eps_out=1.0,
                           m_angular=1, k_z=6.33)
    modes = eigen.fiber_modes(spec)
    assert modes[-1].q * spec.radius < 0.01
    for md in modes:
        assert md.matched_component_jump() < 1e-9
        assert eigen.fiber_mode_divergence_residual(md) <= 1e-8


def test_fiber_empty_spectrum_without_axial_momentum():
    spec = eigen.FiberSpec(radius=1.0, eps_in=2.25, eps_out=1.0,
                           m_angular=0, k_z=0.0)
    assert eigen.fiber_modes(spec) == []


def test_fiber_eigenvalues_stable_under_scan_density():
    spec = eigen.FiberSpec(m_angular=1, **ACC_FIBER)
    a = [m.omega for m in eigen.fiber_modes(spec, scan_points=1000)]
    b = [m.omega for m in eigen.fiber_modes(spec, scan_points=2000)]
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert abs(x - y) < 1e-8 * y


def test_fiber_classical_dispersion_cross_scan_recorded():
    # comparison scan only: both spectra are recorded, equality is not
    # asserted (the two-condition matching is a reduced model)
    spec = eigen.FiberSpec(m_angular=0, **ACC_FIBER)
    lo, hi = eigen.bound_window(spec)
    grid = np.linspace(lo * 1.001, hi * 0.999, 500)
    vals = [eigen.classical_dispersion(spec, w) for w in grid]
    classical_roots = [0.5 * (grid[i] + grid[i + 1])
                       for i in range(len(grid) - 1)
                       if vals[i] * vals[i + 1] < 0]
    ours = [m.omega for m in eigen.fiber_modes(spec)]
    assert len(classical_roots) >= 1 and len(ours) >= 1


def _fd6(arr, ax, h):
    out = np.zeros_like(arr)
    for off, wgt in zip((1, 2, 3), (3 / 4, -3 / 20, 1 / 60)):
        out += wgt * (np.roll(arr, -off, axis=ax) - np.roll(arr, off, axis=ax))
    return out / h


def _fiber_grid_setup(m_angular=1):
    spec = eigen.FiberSpec(m_angular=m_angular, **ACC_FIBER)
    mode = eigen.fiber_modes(spec)[0]
    half = (1.0 + 6.5 / mode.q) * 1.08
    grid = GridSpec(n=(96, 96, 16),
                    length=(2 * half, 2 * half, 2 * np.pi * 4 / 5))
    fld = eigen.fiber_mode_field(mode, grid)
    return spec, mode, grid, fld, half


def test_fiber_mode_field_box_guards():
    spec = eigen.FiberSpec(m_angular=0, **ACC_FIBER)
    mode = eigen.fiber_modes(spec)[0]
    small = GridSpec(n=(16, 16, 16), length=(2.5, 2.5, 2 * np.pi * 4 / 5))
    with pytest.raises(TruncationError):
        eigen.fiber_mode_field(mode, small)
    bad_z = GridSpec(n=(96, 96, 16), length=(12.0, 12.0, 5.0))
    with pytest.raises(TruncationError):
        eigen.fiber_mode_field(mode, bad_z)


def test_fiber_mode_field_eigen_relations():
    spec, mode, grid, fld, half = _fiber_grid_setup()
    scale = np.abs(fld.data).max()
    kz = grid.k_grid()[2]

    # axial momentum: exact by construction
    r1 = max(np.abs(to_r(grid, kz * to_k(grid, fld.data[0, c]))
                    - spec.k_z * fld.data[0, c]).max() for c in range(3))
    assert r1 < 1e-10 * scale

    coords = grid.coords()
    dx, dy, _ = grid.spacing
    rho2d = np.hypot(coords[0], coords[1])[:, :, 0]
    pad = 4.0 * dx
    mask2 = ((rho2d < spec.radius - pad) | (rho2d > spec.radius + pad)) \
        & (rho2d < half - 5 * dx)
    mask = mask2[:, :, None] & np.ones((1, 1, grid.n[2]), dtype=bool)

    # total angular momentum about the axis
    from pwfn.fieldcore import SPIN
    dphi = np.stack([coords[0] * _fd6(fld.data[0, c], 1, dy)
                     - coords[1] * _fd6(fld.data[0, c], 0, dx)
                     for c in range(3)])
    lhs = -1j * dphi + np.einsum("jk,k...->j...", SPIN[2], fld.data[0])
    res2 = np.abs(lhs - spec.m_angular * fld.data[0]).max(axis=0)
    assert res2[mask].max() < 5e-5 * scale

    # frequency eigenrelation: curl psi = (omega/v) psi
    def curl(u):
        dxu = np.stack([_fd6(u[c], 0, dx) for c in range(3)])
        dyu = np.stack([_fd6(u[c], 1, dy) for c in range(3)])
        dzu = np.stack([to_r(grid, 1j * kz * to_k(grid, u[c]))
                        for c in range(3)])
        return np.stack([dyu[2] - dzu[1], dzu[0] - dxu[2], dxu[1] - dyu[0]])

    vloc = np.where(rho2d <= spec.radius, 1 / np.sqrt(spec.eps_in),
                    1.0)[None, :, :, None]
    res3 = np.abs(curl(fld.data[0]) - (mode.omega / vloc) * fld.data[0]).max(axis=0)
    assert res3[mask].max() < 1e-4 * scale
