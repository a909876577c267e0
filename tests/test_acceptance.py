"""Acceptance suite: one test per criterion, one printed line per check.

Grids stay at desk scale (<= 64^3) and each criterion prints its measured
numbers next to the tolerance it must meet, so a bare `pytest -s
tests/test_acceptance.py` doubles as a verification report.
"""

import time

import numpy as np
import pytest

from pwfn import eigen, geometry as geo, metrics as mt, phasespace as ps
from pwfn.evolve import (MediumMap, StepperConfig, free_generator,
                         hamiltonian_apply, propagate_free, step_medium)
from pwfn.metrics import GeneratorTag as G
from pwfn.spectral import (HelicitySpectrum, SixField, decompose,
                           synthesize, to_k, to_r)
from pwfn.states import (balanced_packet_params, gaussian_packet,
                         plane_wave_mode, vortex_field)

from conftest import cube, random_field, rel_err


def check(label, value, bound, comparator="<="):
    ok = value <= bound if comparator == "<=" else value >= bound
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {value:.3e} "
          f"({comparator} {bound:.3e})")
    assert ok, f"{label}: {value:.3e} vs {bound:.3e}"


def test_criterion_1_helicity_eigenstructure():
    started = time.perf_counter()
    spec = cube(16)
    worst_h = 0.0
    worst_j = 0.0
    for helicity in (+1, -1):
        mode = synthesize(plane_wave_mode(spec, (0, 0, 2), helicity=helicity),
                          t=0.0)
        out = free_generator(mode)
        worst_h = max(worst_h, rel_err(out.data, 2.0 * mode.data))
        spectrum = decompose(mode)
        jz = mt.observables_momentum(spectrum).angular_momentum[2]
        worst_j = max(worst_j, abs(jz - helicity))
    elapsed = time.perf_counter() - started
    check("c1 frequency eigenvalue residual", worst_h, 1e-12)
    check("c1 helicity expectation |J.n - lambda|", worst_j, 1e-12)
    check("c1 runtime [s]", elapsed, 1.0)


def _commutator_sweep(spec):
    k0, sig = balanced_packet_params(spec)
    psi = gaussian_packet(spec, k0, sig)
    worst_flat = 0.0
    worst_position = 0.0
    for tag_a, tag_b, r in mt.commutator_residuals(psi):
        if {tag_a.family, tag_b.family} <= {"H", "P"}:
            worst_flat = max(worst_flat, r)
        else:
            worst_position = max(worst_position, r)
    return worst_flat, worst_position


def test_criterion_2_poincare_algebra():
    started = time.perf_counter()
    flat32, pos32 = _commutator_sweep(cube(32, length=4 * np.pi))
    flat64, pos64 = _commutator_sweep(cube(64, length=4 * np.pi))
    elapsed = time.perf_counter() - started
    print(f"       45-pair sweep: 32^3 position-weighted worst {pos32:.3e}, "
          f"64^3 worst {pos64:.3e}")
    check("c2 derivative-only pairs (64^3)", max(flat32, flat64), 1e-8)
    check("c2 position-weighted pairs (64^3)", pos64, 1e-6)
    check("c2 refinement improvement factor", pos64 / pos32, 0.05)
    check("c2 runtime [s]", elapsed, 60.0)


def test_criterion_3_scalar_product_equivalence(rng):
    started = time.perf_counter()
    worst_direct = 0.0
    for n in (8, 12):
        spec = cube(n)
        a = random_field(spec, rng, kmax=n / 4)
        b = random_field(spec, rng, kmax=n / 4)
        direct = mt.scalar_product_coordinate(a, b, method="direct")
        spectral = mt.scalar_product_coordinate(a, b, method="spectral")
        scale = np.sqrt(mt.norm_h(a) * mt.norm_h(b))
        worst_direct = max(worst_direct, abs(direct - spectral) / scale)
        exact = mt.scalar_product_momentum(decompose(a), decompose(b))
        assert abs(spectral - exact) <= 1e-12 * abs(exact)
    worst_kernel = 0.0
    for r1, r2 in [((0, 0, 0), (1.0, 0, 0)),
                   ((0.3, 0.2, 0.1), (0.3, 0.2, 2.1)),
                   ((0.1, -0.2, 0.0), (0.4, 0.1, 0.3))]:
        lhs, rhs = mt.kernel_identity_check(np.array(r1), np.array(r2))
        worst_kernel = max(worst_kernel, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - started
    check("c3 direct vs spectral product", worst_direct, 0.02)
    check("c3 kernel identity", worst_kernel, 0.01)
    check("c3 runtime [s]", elapsed, 120.0)


def test_criterion_4_landau_peierls(rng):
    spec = cube(12)
    a = random_field(spec, rng, kmax=3.0)
    b = random_field(spec, rng, kmax=3.0)
    lhs = mt.scalar_product_momentum(decompose(a), decompose(b))
    pa, pb = mt.landau_peierls(a), mt.landau_peierls(b)
    rhs = np.sum(np.conj(pa.data) * pb.data) * spec.cell_volume
    check("c4 norm identity", abs(lhs - rhs) / abs(lhs), 1e-10)
    twice = mt.landau_peierls(mt.landau_peierls(a))
    kvec = spec.k_norm()
    inv = np.where(kvec > 0, 1.0 / np.where(kvec == 0, 1, kvec), 0.0)
    ref = np.stack([to_r(spec, inv * to_k(spec, a.data[block]))
                    for block in range(2)])
    check("c4 double application vs 1/|k|", rel_err(twice.data, ref), 1e-12)


def test_criterion_5_medium_dynamics(rng):
    spec = cube(16)
    # (a) uniform dispersion
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    med = MediumMap.uniform(spec, eps=4.0, mu=1.0)
    out = hamiltonian_apply(mode, med)
    check("c5a uniform dispersion omega = v|k|",
          rel_err(out.data, 1.0 * mode.data), 1e-10)
    # (b) helicity leakage
    pure = random_field(spec, rng, kmax=3.0, helicities=(0,))
    x = spec.coords()
    prof = 1.0 + 0.15 * np.cos(x[0]) * np.cos(x[1])
    const_h = MediumMap(spec=spec, eps=prof, mu=prof)
    leak = np.max(np.abs(hamiltonian_apply(pure, const_h).data[1]))
    check("c5b leakage with constant resistance", leak, 1e-10)
    varying_h = MediumMap(spec=spec, eps=prof, mu=np.ones(spec.n))
    leak2 = np.max(np.abs(hamiltonian_apply(pure, varying_h).data[1]))
    check("c5b resistance-gradient coupling", leak2, 1e-3, comparator=">=")
    # (c) norm drift over 1000 steps and convergence order
    psi = random_field(spec, rng, kmax=3.0)
    cfg = StepperConfig(dt=0.002)
    evolved = step_medium(psi, varying_h, cfg, 1000)
    drift = abs(evolved.norm2() - psi.norm2()) / psi.norm2()
    check("c5c norm drift per 1000 steps", drift, 1e-8)
    t_total = 0.4
    ref = step_medium(psi, varying_h, StepperConfig(dt=t_total / 320), 320)
    errs = [np.max(np.abs(step_medium(psi, varying_h,
                                      StepperConfig(dt=t_total / s), s).data
                          - ref.data)) for s in (20, 40)]
    order = np.log2(errs[0] / errs[1])
    check("c5c convergence order", order, 3.7, comparator=">=")


def test_criterion_6_fiber_bound_states():
    started = time.perf_counter()
    from scipy.optimize import brentq
    for m_angular in (0, 1):
        spec = eigen.FiberSpec(radius=1.0, eps_in=2.25, eps_out=1.0,
                               m_angular=m_angular, k_z=5.0)
        modes = eigen.fiber_modes(spec)
        assert len(modes) >= 1
        lo, hi = eigen.bound_window(spec)
        margin = 1e-6 * (hi - lo)
        grid = np.linspace(lo + margin, hi - margin, 8000)
        vals = np.array([eigen.fiber_matching_determinant(spec, w)
                         for w in grid])
        oracle = [brentq(lambda w: eigen.fiber_matching_determinant(spec, w),
                         grid[i], grid[i + 1], xtol=1e-13, rtol=1e-14)
                  for i in range(len(grid) - 1)
                  if vals[i] * vals[i + 1] < 0]
        assert len(oracle) == len(modes)
        worst_root = max(abs(m.omega - r) / r for m, r in zip(modes, oracle))
        worst_jump = max(m.matched_component_jump() for m in modes)
        worst_slope = max(abs(m.exterior_log_slope() + m.q) / m.q
                          for m in modes)
        print(f"       M={m_angular}: roots "
              f"{[f'{m.omega:.8f}' for m in modes]}")
        check(f"c6 M={m_angular} root vs independent scan", worst_root, 1e-8)
        check(f"c6 M={m_angular} matched-component jump", worst_jump, 1e-9)
        check(f"c6 M={m_angular} exterior log-slope", worst_slope, 0.01)
    empty = eigen.fiber_modes(eigen.FiberSpec(
        radius=1.0, eps_in=2.25, eps_out=1.0, m_angular=0, k_z=0.0))
    assert empty == []
    print("[PASS] c6 k_z = 0 spectrum empty")
    check("c6 runtime [s]", time.perf_counter() - started, 30.0)


def test_criterion_7_boost_eigenfunctions():
    from test_eigen import k0_series
    worst = max(abs(eigen.macdonald_imag(0.0, x) - k0_series(x))
                / k0_series(x) for x in (0.5, 1.0, 2.0))
    check("c7 quadrature vs independent series", worst, 1e-10)
    z = np.linspace(0.1, 5.0, 20)
    worst_ode = 0.0
    worst_eig = 0.0
    for kappa in (0.5, 1.0, 2.0):
        b = eigen.boost_eigenfunction(kappa, 1.0, 0.7)
        worst_ode = max(worst_ode, float(np.max(b.ode_residual(z))))
        worst_eig = max(worst_eig, float(np.max(b.profile(z)[3])))
    check("c7 radial equation residual", worst_ode, 1e-7)
    check("c7 eigen-relation residual", worst_eig, 1e-6)


def test_criterion_8_wigner(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.5, helicities=(0,), even_modes=True)
    dec = ps.wigner_build(spec, psi.upper)
    dens = np.sum(np.abs(psi.upper) ** 2, axis=0)
    spec_dens = np.sum(np.abs(to_k(spec, psi.upper)) ** 2, axis=0)
    check("c8 k marginal", rel_err(ps.wigner_marginal_k(dec), dens), 1e-10)
    check("c8 r marginal", rel_err(ps.wigner_marginal_r(dec), spec_dens), 1e-10)
    r1, r2 = ps.wigner_subsidiary_residual(dec)
    check("c8 subsidiary condition 1", r1, 1e-8)
    check("c8 subsidiary condition 2", r2, 1e-8)
    kidx = (2, 0, 0)
    kvec = spec.k_grid()[:, kidx[0], kidx[1], kidx[2]]
    w0, u0 = ps.reduced_pair_from_wigner(dec, kidx)
    t_total = 0.5
    w1, u1 = ps.wigner_reduced_step(spec, kvec, w0, u0, t_total / 100, 100)
    dec_t = ps.wigner_build(spec, propagate_free(psi, t_total).upper)
    w_t, u_t = ps.reduced_pair_from_wigner(dec_t, kidx)
    check("c8 reduced pair vs field path (100 steps)",
          max(rel_err(w1, w_t), rel_err(u1, u_t)), 1e-7)


def _hydro_residuals(spec, psi, dt):
    mid = ps.hydro_from_field(spec, psi.upper)
    lo = ps.hydro_from_field(spec, propagate_free(psi, -dt).upper)
    hi = ps.hydro_from_field(spec, propagate_free(psi, +dt).upper)
    return ps.hydro_evolution_residual(lo, mid, hi, dt)


def _carrier_field(spec, rng):
    kn = spec.k_norm()
    amp = np.zeros((2,) + spec.n, dtype=complex)
    mask = (kn > 0) & (kn <= 2.2)
    amp[0][mask] = 0.5 * (rng.normal(size=mask.sum())
                          + 1j * rng.normal(size=mask.sum()))
    amp[0, 0, 0, 1] += 14.0
    return synthesize(HelicitySpectrum(spec=spec, amp=amp), 0.0)


def test_criterion_9_hydrodynamics(rng):
    spec = cube(16)
    psi = random_field(spec, rng, kmax=2.5, helicities=(0,))
    st = ps.hydro_from_field(spec, psi.upper)
    r1, r2, r3 = ps.hydro_identity_residuals(st)
    check("c9 trace identity", r1, 1e-10)
    check("c9 orthogonality identity", r2, 1e-10)
    check("c9 contraction identity", r3, 1e-10)

    spec32 = cube(32)
    carrier = _carrier_field(spec32, rng)
    res_a = _hydro_residuals(spec32, carrier, 0.08)
    res_b = _hydro_residuals(spec32, carrier, 0.04)
    for key in ("continuity", "velocity", "stress", "u"):
        order = np.log2(res_a[key] / res_b[key])
        check(f"c9 {key} budget convergence order", order, 1.8,
              comparator=">=")
    check("c9 transversality condition (real part)", res_b["div1"], 1e-7)
    check("c9 transversality condition (imag part)", res_b["div2"], 1e-7)

    mode = synthesize(plane_wave_mode(spec32, (0, 0, 2)), t=0.0)
    st_pw = ps.hydro_from_field(spec32, mode.upper)
    check("c9 plane-wave winding",
          abs(ps.quantization_integral(st_pw, ("plane", 2, 3))), 1e-10)
    core = (0.37, -0.81)
    field = vortex_field(spec32, core_xy=core)
    st_v = ps.hydro_from_field(spec32, field.upper)
    x = spec32.axes()[0]
    i0 = int(np.searchsorted(x, core[0]))
    j0 = int(np.searchsorted(x, core[1]))
    winding = ps.quantization_integral(
        st_v, ("patch", 2, 7, (i0 - 6, i0 + 6), (j0 - 6, j0 + 6)))
    check("c9 vortex winding |n - 1|", abs(winding - 1.0), 0.05)


def test_criterion_10_curved_space(rng):
    spec = cube(16)
    psi = random_field(spec, rng, kmax=3.0)
    cfg = StepperConfig(dt=0.005, cfl_safety=0.9)
    flat = geo.step_curved(psi, geo.minkowski_metric(spec), cfg, 100)
    free = propagate_free(psi, 0.5)
    check("c10 flat metric vs free propagation (100 steps)",
          rel_err(flat.data, free.data), 1e-8)

    spec12 = cube(12)
    coords = spec12.coords()
    n_prof = 1.2 + 0.1 * np.cos(coords[0]) * np.sin(coords[1])
    psi12 = random_field(spec12, rng, kmax=2.5)
    met = geo.conformal_metric(spec12, n_prof)
    med = MediumMap(spec=spec12, eps=n_prof, mu=n_prof)
    cfg12 = StepperConfig(dt=0.005, cfl_safety=0.9)
    curved = geo.step_curved(psi12, met, cfg12, 100)
    medium = step_medium(SixField(spec=spec12,
                                  data=psi12.data / np.sqrt(n_prof)),
                         med, cfg12, 100)
    check("c10 conformal metric vs medium solver",
          rel_err(curved.data / np.sqrt(n_prof), medium.data), 1e-6)

    pure = random_field(spec12, rng, kmax=2.5, helicities=(0,))
    leak = np.max(np.abs(geo.curved_generator(pure, met).data[1]))
    check("c10 helicity-block leakage", leak, 1e-15)


def test_criterion_11_spinor(rng):
    f = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
    check("c11 map round trip",
          rel_err(geo.rs_from_spinor(geo.spinor_from_rs(f)), f), 1e-14)
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0, helicities=(0,))
    phi = geo.four_spinor_from_rs(psi.upper)
    t = 0.8
    phi_t = geo.dirac_form_step(spec, phi, t)
    direct = propagate_free(psi, t)
    check("c11 four-component vs six-component evolution",
          rel_err(geo.rs_from_four_spinor(phi_t), direct.upper), 1e-10)
    check("c11 transversality constraint drift",
          geo.four_spinor_constraint_defect(phi_t), 1e-12)
