import itertools
import tracemalloc

import numpy as np
import pytest

from pwfn import phasespace as ps
from pwfn.errors import DomainError, InconsistencyError, StabilityError
from pwfn.evolve import propagate_free
from pwfn.fieldcore import LEVI_CIVITA
from pwfn.spectral import GridSpec, HelicitySpectrum, grad, synthesize, to_k
from pwfn.states import plane_wave_mode, two_mode_spectrum, vortex_field

from conftest import cube, random_field, rel_err


def even_field(spec, rng, kmax):
    from conftest import random_field as rf
    return rf(spec, rng, kmax, helicities=(0,), even_modes=True)


def test_wigner_plane_wave_concentrated():
    spec = cube(8)
    psi = synthesize(plane_wave_mode(spec, (0, 0, 2), amplitude=1.0), t=0.0)
    dec = ps.wigner_build(spec, psi.upper)
    power = np.abs(np.einsum("ii...->...", dec.w_sym))
    ksum = power.sum(axis=(0, 1, 2))
    peak = np.unravel_index(np.argmax(ksum), ksum.shape)
    assert peak == (0, 0, 2)
    others = ksum.copy()
    others[peak] = 0.0
    assert others.max() < 1e-10 * ksum[peak]
    # r independence
    assert np.ptp(power[..., 0, 0, 2]) < 1e-10 * power[..., 0, 0, 2].max()


def test_wigner_marginals(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.5, helicities=(0,))
    dec = ps.wigner_build(spec, psi.upper)
    dens = np.sum(np.abs(psi.upper) ** 2, axis=0)
    assert rel_err(ps.wigner_marginal_k(dec), dens) < 1e-10
    spec_dens = np.sum(np.abs(to_k(spec, psi.upper)) ** 2, axis=0)
    assert rel_err(ps.wigner_marginal_r(dec), spec_dens) < 1e-10


def test_wigner_two_mode_midpoint_fringe():
    spec = cube(8)
    s = two_mode_spectrum(spec, (0, 0, 1), (0, 0, 3))
    psi = synthesize(s, 0.0)
    trace = np.einsum("ii...->...", ps.wigner_build(spec, psi.upper).w_sym)
    power = np.abs(trace)
    # interference lives at the midpoint wave vector (0, 0, 2)
    fringe = power[..., 0, 0, 2]
    assert fringe.max() > 0.1 * power.max()
    # and oscillates in r along z with the difference wave number
    line = trace[0, 0, :, 0, 0, 2]
    assert line.max() > 0 > line.min()


def test_wigner_decompose_round_trip(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.5, helicities=(0,))
    dec = ps.wigner_build(spec, psi.upper)
    w = dec.reconstruct()
    back = ps.wigner_decompose(ps.WignerField(spec=spec, w=w))
    assert back.hermiticity_defect < 1e-12
    scale = np.max(np.abs(w))
    assert np.max(np.abs(back.w_sym - dec.w_sym)) < 1e-12 * scale
    assert np.max(np.abs(back.u - dec.u)) < 1e-12 * scale
    bad = ps.WignerField(spec=spec, w=w + 1e-3 * 1j)
    with pytest.raises(InconsistencyError):
        ps.wigner_decompose(bad)


def test_wigner_decompose_pure_cases():
    spec = cube(8)
    shape = (3, 3) + spec.n + spec.n
    w = np.zeros(shape, dtype=complex)
    w[0, 1] = 0.5
    w[1, 0] = 0.5
    dec = ps.wigner_decompose(ps.WignerField(spec=spec, w=w))
    assert np.max(np.abs(dec.u)) < 1e-14
    # antisymmetric imaginary part encodes the vector: W = (1/2i) eps_ij1
    w2 = np.zeros(shape, dtype=complex)
    w2[1, 2] = 1 / 2j
    w2[2, 1] = -1 / 2j
    dec2 = ps.wigner_decompose(ps.WignerField(spec=spec, w=w2))
    assert rel_err(dec2.u[0], np.ones(spec.n + spec.n)) < 1e-14
    assert np.max(np.abs(dec2.w_sym)) < 1e-14


def _symmetrized_lag_sums(spec, block):
    """The complex W formed as nine whole lag-sum blocks, then symmetrized."""
    half, plus, minus = ps._half_lattice(spec, block)
    w = np.empty((3, 3) + spec.n + spec.n, dtype=complex)
    for i, j in itertools.product(range(3), repeat=2):
        w[i, j] = to_k(spec, half[i][plus] * np.conj(half[j][minus]))
    w += np.conj(np.swapaxes(w, 0, 1))
    w *= 0.5
    return w


def test_wigner_build_matches_symmetrized_lag_sums(rng):
    spec = GridSpec(n=(6, 8, 10), length=(4.2, 5.6, 7.0))
    block = random_field(spec, rng, kmax=2.5, helicities=(0,)).upper
    dec = ps.wigner_build(spec, block)
    w = _symmetrized_lag_sums(spec, block)
    ref = ps.wigner_decompose(ps.WignerField(spec=spec, w=w))
    # w is Hermitian bit for bit, so its split is also the whole-array
    # w_sym = Re W, u_k = -eps_ijk Im W_ij
    whole_u = -np.einsum("ijk,ij...->k...", LEVI_CIVITA, w.imag)
    # value for value; an exact zero may differ in sign
    for got in (dec, ref):
        assert np.array_equal(got.w_sym, w.real)
        assert np.array_equal(got.u, whole_u)
    # a plain random field is far from Hermitian before symmetrization
    assert dec.hermiticity_defect > 0.1


def test_wigner_build_memory_bound(rng):
    # The build transforms each lag product in place and conjugates each
    # fresh A_ji in place: 1.344 W above its input (numpy 2.4, scipy 1.17),
    # where out-of-place transforms held 1.454 W.
    spec = cube(8)
    psi = even_field(spec, rng, kmax=2.5)
    ps.wigner_subsidiary_residual(ps.wigner_build(spec, psi.upper))  # tables
    one_w = 9 * spec.npoints ** 2 * 16   # one complex (3, 3, N, N) matrix
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        ps.wigner_subsidiary_residual(ps.wigner_build(spec, psi.upper))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 2 * one_w, (peak - base) / one_w
    measured, bound = (peak - base) / one_w, 1.4
    ok = measured <= bound
    print(f"[{'PASS' if ok else 'FAIL'}] wigner build peak memory [W]: "
          f"{measured:.3e} (<= {bound:.3e})")
    assert ok, (measured, bound)


def test_wigner_subsidiary_residual_memory(rng):
    # The residual forms r1's divergence in the transform of one row of w
    # and r2's curl in place in the one transform of u: 0.559 W above its
    # input (numpy 2.4, scipy 1.17), where the curl held 0.84 W.
    spec = cube(8)
    dec = ps.wigner_build(spec, even_field(spec, rng, kmax=2.5).upper)
    ps.wigner_subsidiary_residual(dec)  # tables
    one_w = 9 * spec.npoints ** 2 * 16
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        ps.wigner_subsidiary_residual(dec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    measured, bound = (peak - base) / one_w, 0.6
    ok = measured <= bound
    print(f"[{'PASS' if ok else 'FAIL'}] wigner residual peak memory [W]: "
          f"{measured:.3e} (<= {bound:.3e})")
    assert ok, (measured, bound)


def test_wigner_subsidiary_solution_vs_detector(rng):
    spec = cube(8)
    psi = even_field(spec, rng, kmax=2.5)
    dec = ps.wigner_build(spec, psi.upper)
    r1, r2 = ps.wigner_subsidiary_residual(dec)
    assert r1 < 1e-8 and r2 < 1e-8
    junk = ps.WignerDecomp(
        spec=spec,
        w_sym=0.5 * (lambda a: a + np.swapaxes(a, 0, 1))(
            rng.normal(size=(3, 3) + spec.n + spec.n)),
        u=rng.normal(size=(3,) + spec.n + spec.n))
    j1, j2 = ps.wigner_subsidiary_residual(junk)
    assert j1 > 0.1 and j2 > 0.1


def test_wigner_plane_wave_subsidiary_exact():
    spec = cube(8)
    psi = synthesize(plane_wave_mode(spec, (0, 2, 0)), t=0.0)
    dec = ps.wigner_build(spec, psi.upper)
    r1, r2 = ps.wigner_subsidiary_residual(dec)
    assert r1 < 1e-12 and r2 < 1e-12


def test_reduced_step_dalembert_at_zero_k():
    # on the k = 0 fiber the pair is a wave system: standing wave solution
    spec = cube(16)
    x = spec.coords()
    q = 1.0
    w0 = np.cos(q * x[0])
    u0 = np.zeros((3,) + spec.n)
    t_total = 0.7
    steps = 560
    w1, u1 = ps.wigner_reduced_step(spec, np.zeros(3), w0, u0,
                                    t_total / steps, steps)
    assert rel_err(w1, np.cos(q * t_total) * w0) < 1e-7
    # du/dt = -grad w: u = sin(qt)/q * q sin(qx) x_hat = sin(qt) sin(qx)
    assert rel_err(u1[0], np.sin(q * t_total) * np.sin(q * x[0])) < 1e-7


def test_reduced_step_rotation_term_inactive_along_k():
    spec = cube(8)
    k = np.array([0.0, 0.0, 2.0])
    u0 = np.zeros((3,) + spec.n)
    u0[2] = 1.0  # uniform u parallel to k: rotation term vanishes
    w0 = np.zeros(spec.n)
    w1, u1 = ps.wigner_reduced_step(spec, k, w0, u0, 0.01, 50)
    assert rel_err(u1, u0) < 1e-12
    assert np.max(np.abs(w1)) < 1e-12


def test_reduced_step_matches_field_evolution(rng):
    spec = cube(8)
    psi = even_field(spec, rng, kmax=2.5)
    dec0 = ps.wigner_build(spec, psi.upper)
    kidx = (2, 0, 0)
    kvec = spec.k_grid()[:, kidx[0], kidx[1], kidx[2]]
    w0, u0 = ps.reduced_pair_from_wigner(dec0, kidx)
    t_total = 0.5
    steps = 100
    w1, u1 = ps.wigner_reduced_step(spec, kvec, w0, u0, t_total / steps, steps)
    decT = ps.wigner_build(spec, propagate_free(psi, t_total).upper)
    wT, uT = ps.reduced_pair_from_wigner(decT, kidx)
    assert rel_err(w1, wT) < 1e-7
    assert rel_err(u1, uT) < 1e-7


def test_reduced_step_cfl_guard():
    spec = cube(8)
    with pytest.raises(StabilityError):
        ps.wigner_reduced_step(spec, np.zeros(3), np.zeros(spec.n),
                               np.zeros((3,) + spec.n), dt=10.0, steps=1)


@pytest.mark.parametrize("cfl_safety", [5.0, -1.0])
def test_reduced_step_rejects_bad_cfl_safety(cfl_safety):
    spec = cube(8)
    with pytest.raises(DomainError) as err:
        ps.wigner_reduced_step(spec, np.zeros(3), np.zeros(spec.n),
                               np.zeros((3,) + spec.n), dt=2 * spec.spacing[0],
                               steps=3, cfl_safety=cfl_safety)
    assert err.value.arg == "cfl_safety"


def test_hydro_identities_and_plane_wave(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=2.5, helicities=(0,))
    st = ps.hydro_from_field(spec, psi.upper)
    r1, r2, r3 = ps.hydro_identity_residuals(st)
    assert r1 < 1e-10 and r2 < 1e-10 and r3 < 1e-10
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    stp = ps.hydro_from_field(spec, mode.upper)
    assert np.ptp(stp.rho) < 1e-12 * stp.rho.max()
    assert rel_err(stp.v[2], np.ones(spec.n)) < 1e-12
    assert rel_err(stp.u[2], 2.0 * np.ones(spec.n)) < 1e-12


def test_hydro_from_field_transforms_field_once(monkeypatch, rng):
    from pwfn import spectral
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.5, helicities=(0,))
    calls = {"_fft": [], "_ifft": []}

    def counting(name, fn):
        def wrapper(arr, **kwargs):
            calls[name].append((int(np.prod(arr.shape[:-3])),
                                kwargs["axes"]))
            return fn(arr, **kwargs)
        return wrapper

    # every transform of the package goes through these two
    monkeypatch.setattr(spectral, "_fft", counting("_fft", spectral._fft))
    monkeypatch.setattr(spectral, "_ifft", counting("_ifft", spectral._ifft))
    ps.hydro_from_field(spec, psi.upper)
    # one transform pair of the three components along each axis alone
    along = [(3, (-3,)), (3, (-2,)), (3, (-1,))]
    assert calls == {"_fft": along, "_ifft": along}


def test_hydro_standing_wave_nodal_velocity():
    from pwfn.states import standing_wave_classical
    spec = cube(16)
    psi = standing_wave_classical(spec, k_index=(0, 0, 1))
    st = ps.hydro_from_field(spec, psi.upper)
    # D follows cos(kz), B follows sin(kz): the flow velocity vanishes on
    # both families of node planes (real-field degeneracy of Im(F* x F))
    z = spec.axes()[2]
    nodes = np.where(np.isclose(np.sin(2.0 * z), 0.0, atol=1e-12))[0]
    assert nodes.size > 0
    assert np.max(np.abs(st.v[:, :, :, nodes])) < 1e-12


def carrier_field(spec, rng, eps_amp=0.5, carrier=14.0, kmax=2.2):
    kn = spec.k_norm()
    amp = np.zeros((2,) + spec.n, dtype=complex)
    mask = (kn > 0) & (kn <= kmax)
    amp[0][mask] = eps_amp * (rng.normal(size=mask.sum())
                              + 1j * rng.normal(size=mask.sum()))
    amp[0, 0, 0, 1] += carrier
    return synthesize(HelicitySpectrum(spec=spec, amp=amp), 0.0)


def hydro_residuals_at(spec, psi, dt):
    mid = ps.hydro_from_field(spec, psi.upper)
    lo = ps.hydro_from_field(spec, propagate_free(psi, -dt).upper)
    hi = ps.hydro_from_field(spec, propagate_free(psi, +dt).upper)
    return ps.hydro_evolution_residual(lo, mid, hi, dt)


def test_hydro_evolution_budgets_converge(rng):
    spec = cube(32)
    psi = carrier_field(spec, rng)
    res_a = hydro_residuals_at(spec, psi, 0.08)
    res_b = hydro_residuals_at(spec, psi, 0.04)
    for key in ("continuity", "velocity", "stress", "u"):
        order = np.log2(res_a[key] / res_b[key])
        assert order >= 1.8, (key, order)
    # the transversality conditions carry no time derivative: they sit at
    # the grid-representation floor for genuine solution states
    assert res_b["div1"] < 1e-6 and res_b["div2"] < 1e-6


def test_hydro_evolution_plane_wave_trivial():
    spec = cube(8)
    psi = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    res = hydro_residuals_at(spec, psi, 0.01)
    for key, val in res.items():
        assert val < 1e-9, (key, val)


def test_hydro_corrupted_state_detector(rng):
    spec = cube(16)
    psi = carrier_field(spec, rng)
    dt = 0.02
    mid = ps.hydro_from_field(spec, psi.upper)
    lo = ps.hydro_from_field(spec, propagate_free(psi, -dt).upper)
    hi = ps.hydro_from_field(spec, propagate_free(psi, +dt).upper)
    mid.v = 1.1 * mid.v
    res = ps.hydro_evolution_residual(lo, mid, hi, dt)
    assert res["continuity"] > 0.05


def test_gradient_bilinear_closure_and_detector(rng):
    # the rank-one closure reproduces F* (x) grad F exactly, so the
    # transversality residuals vanish for genuine states and fire on
    # longitudinal contamination
    spec = cube(16)
    psi = carrier_field(spec, rng)
    st = ps.hydro_from_field(spec, psi.upper)
    r1, r2 = ps.hydro_divergence_residuals(st)
    assert r1 < 1e-3 and r2 < 1e-3  # 16^3 grid-representation floor
    bad = psi.copy()
    x = spec.coords()
    bad.data[0, 2] += 0.5 * np.exp(2j * x[2])
    b1, b2 = ps.hydro_divergence_residuals(
        ps.hydro_from_field(spec, bad.upper))
    assert max(b1, b2) > 1e-2


def _relabel(f, shift):
    """The vector field f with every axis a renamed (a + shift) % 3, in its
    components and on the lattice; a cyclic relabelling keeps handedness."""
    f = np.roll(f, shift, axis=0)
    return np.moveaxis(f, (1, 2, 3),
                       tuple(1 + (a + shift) % 3 for a in range(3)))


def test_quantization_plane_wave_and_vortex():
    spec = cube(32)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    st = ps.hydro_from_field(spec, mode.upper)
    assert abs(ps.quantization_integral(st, ("plane", 2, 3))) < 1e-10
    assert abs(ps.quantization_integral(
        st, ("patch", 2, 3, (4, 20), (6, 28)))) < 1e-10

    core = (0.37, -0.81)
    field = vortex_field(spec, core_xy=core)
    x = spec.axes()[0]
    i0 = int(np.searchsorted(x, core[0]))
    j0 = int(np.searchsorted(x, core[1]))
    m = 6
    # the vortex line runs along each axis in turn; every patch is read
    # with its ranges in axis order and oriented by the +axis normal
    for shift in range(3):
        stv = ps.hydro_from_field(spec, _relabel(field.upper, shift))
        normal = (2 + shift) % 3

        def patch(range_x, range_y):
            by_axis = {shift: range_x, (1 + shift) % 3: range_y}
            ranges = tuple(by_axis[a] for a in sorted(by_axis))
            return ps.quantization_integral(stv, ("patch", normal, 7) + ranges)

        hit = patch((i0 - m, i0 + m), (j0 - m, j0 + m))
        assert abs(hit - 1.0) < 0.05
        # nested deformation of the same patch agrees
        nested = patch((i0 - m - 3, i0 + m + 2), (j0 - m + 2, j0 + m + 3))
        assert abs(nested - hit) < 0.05
        # a patch avoiding all vortex lines reads zero
        empty = patch((i0 + 4, i0 + 12), (j0 + 4, j0 + 12))
        assert abs(empty) < 0.05
        # the full periodic cross-section encloses cancelling vortex pairs
        assert abs(ps.quantization_integral(stv, ("plane", normal, 7))) < 0.05


def test_quantization_flux_matches_full_grid_correction():
    # the correction is built for the normal component on the surface only;
    # it must equal the full-grid, all-component form bit for bit
    spec = GridSpec(n=(16, 12, 20), length=(6.0, 5.0, 7.0))
    st = ps.hydro_from_field(spec, vortex_field(spec, core_xy=(0.3, -0.4)).upper)
    g_v = grad(spec, st.v)
    g_t = grad(spec, st.t)

    def npcross(a, b):
        return np.cross(a, b, axisa=0, axisb=0, axisc=0)

    corr = np.zeros((3,) + spec.n)
    for i, j, k in itertools.permutations(range(3)):
        term = st.v[i] * npcross(g_v[j], g_v[k])
        for l in range(3):
            term = term + st.v[i] * npcross(g_t[j, l], g_t[k, l]) \
                - 2.0 * st.t[i, l] * npcross(g_t[j, l], g_v[k])
        corr += LEVI_CIVITA[i, j, k] * term
    corr /= 8.0
    for axis, index in ((0, 3), (1, 5), (2, 9)):
        take = [slice(None)] * 3
        take[axis] = index
        d1, d2 = (spec.spacing[a] for a in range(3) if a != axis)
        flux = float(np.sum(corr[axis][tuple(take)]) * d1 * d2)
        assert ps.quantization_integral(st, ("plane", axis, index)) \
            == -flux / (2.0 * np.pi)


def test_quantization_rho_floor_guard():
    spec = cube(16)
    field = vortex_field(spec, core_xy=(0.0, 0.0))
    st = ps.hydro_from_field(spec, field.upper)
    x = spec.axes()[0]
    i0 = int(np.searchsorted(x, 0.0))
    with pytest.raises(DomainError):
        # boundary passes straight through the vortex core where rho -> 0
        ps.quantization_integral(
            st, ("patch", 2, 3, (i0, i0 + 4), (i0, i0 + 4)))
