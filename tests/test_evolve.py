import numpy as np
import pytest

from pwfn.errors import DomainError, ShapeError, StabilityError
from pwfn.evolve import (MediumMap, StepperConfig, divergence_residual,
                         free_generator, hamiltonian_apply,
                         medium_basis_change, propagate_free, rk4,
                         step_medium)
from pwfn.fieldcore import rs_from_fields, fields_from_rs
from pwfn.spectral import (GridSpec, SixField, synthesize, to_k, to_r,
                           triad_arrays)
from pwfn.states import plane_wave_mode

from conftest import cube, random_field, rel_err


def smooth_medium(spec, kind="eps"):
    x = spec.coords()
    bump = 0.15 * np.cos(2 * np.pi * x[0] / spec.length[0]) \
        * np.cos(2 * np.pi * x[1] / spec.length[1])
    if kind == "eps":
        return MediumMap(spec=spec, eps=1.0 + bump, mu=np.ones(spec.n))
    return MediumMap(spec=spec, eps=1.0 + bump, mu=1.0 + bump)


def test_propagate_identity_and_plane_wave_phase():
    spec = cube(8)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    assert rel_err(propagate_free(mode, 0.0).data, mode.data) < 1e-14
    out = propagate_free(mode, 0.37)
    assert rel_err(out.data, np.exp(-1j * 2.0 * 0.37) * mode.data) < 1e-14


def _propagate_on_triad(psi, t):
    """Free propagation resolved on the (e, e*, n) frame of each mode."""
    spec = psi.spec
    e, nhat, knorm = triad_arrays(spec)
    ec = np.conj(e)
    ph = np.exp(-1j * knorm * t)
    hat = to_k(spec, psi.data)
    for bhat, ph_e in ((hat[0], ph), (hat[1], np.conj(ph))):
        ce = np.sum(ec * bhat, axis=0)
        cec = np.sum(e * bhat, axis=0)
        cn = np.sum(nhat * bhat, axis=0)
        dc = bhat[:, 0, 0, 0].copy()
        bhat[...] = e * (ph_e * ce) + ec * (np.conj(ph_e) * cec) + nhat * cn
        bhat[:, 0, 0, 0] = dc
    return to_r(spec, hat)


@pytest.mark.parametrize("n", [(16, 16, 16), (12, 8, 10)])
def test_propagate_free_matches_triad_propagator(rng, n):
    spec = GridSpec(n=n, length=(6.0, 7.5, 5.0))
    # generic data: longitudinal, k = 0 and both frequency signs included
    psi = SixField(spec=spec, data=rng.normal(size=(2, 3) + n)
                   + 1j * rng.normal(size=(2, 3) + n))
    for t in (0.3, -2.7, 11.0):
        ref = _propagate_on_triad(psi, t)
        out = propagate_free(psi, t).data
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)


def test_propagate_conserves_observables(rng):
    from pwfn.metrics import observables_momentum, photon_number
    from pwfn.spectral import decompose
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0)
    base = observables_momentum(decompose(psi))
    n0 = photon_number(decompose(psi))
    for t in (1.0, 10.0, 100.0):
        out = propagate_free(psi, t)
        obs = observables_momentum(decompose(out))
        assert abs(obs.energy - base.energy) < 1e-12 * base.energy
        assert np.max(np.abs(obs.momentum - base.momentum)) < 1e-12 * base.energy
        assert abs(photon_number(decompose(out)) - n0) < 1e-13 * n0
        assert abs(out.norm2() - psi.norm2()) < 1e-13 * psi.norm2()


def test_hamiltonian_uniform_reduces_to_free(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0)
    med = MediumMap.uniform(spec)
    assert rel_err(hamiltonian_apply(psi, med).data,
                   free_generator(psi).data) < 1e-13


def test_hamiltonian_dispersion_halves_at_quarter_eps():
    spec = cube(12)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    med = MediumMap.uniform(spec, eps=4.0, mu=1.0)
    out = hamiltonian_apply(mode, med)
    assert rel_err(out.data, 1.0 * mode.data) < 1e-13  # v |k| = 0.5 * 2


def test_hamiltonian_hermitian_plain_product(rng):
    spec = cube(12)
    med = smooth_medium(spec)
    a = random_field(spec, rng, kmax=3.0)
    b = random_field(spec, rng, kmax=3.0)
    dv = spec.cell_volume
    lhs = np.sum(np.conj(hamiltonian_apply(a, med).data) * b.data) * dv
    rhs = np.sum(np.conj(a.data) * hamiltonian_apply(b, med).data) * dv
    assert abs(lhs - rhs) < 1e-10 * (abs(lhs) + abs(rhs))


def test_hamiltonian_shape_mismatch():
    spec = cube(8)
    other = cube(12)
    psi = SixField.zeros(spec)
    with pytest.raises(ShapeError):
        hamiltonian_apply(psi, MediumMap.uniform(other))


def test_divergence_residual_refuses_a_medium_of_another_box():
    spec = cube(8)
    stretched = cube(8, length=3.0)
    with pytest.raises(ShapeError):
        divergence_residual(SixField.zeros(spec), MediumMap.uniform(stretched))


def test_helicity_mixing_only_through_resistance(rng):
    spec = cube(12)
    pure = random_field(spec, rng, kmax=3.0, helicities=(0,))
    # eps = mu: resistance constant, speed varies: exactly no coupling
    med_h_const = smooth_medium(spec, kind="both")
    leak = hamiltonian_apply(pure, med_h_const).data[1]
    assert np.max(np.abs(leak)) == 0.0
    # mu = 1, eps varies: resistance gradient couples the blocks
    med_h_var = smooth_medium(spec, kind="eps")
    leak2 = hamiltonian_apply(pure, med_h_var).data[1]
    assert np.max(np.abs(leak2)) > 1e-3 * np.max(np.abs(pure.data))


def test_step_medium_uniform_matches_analytic_phase():
    spec = cube(12)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    med = MediumMap.uniform(spec, eps=4.0, mu=1.0)
    cfg = StepperConfig(dt=0.002)
    out = step_medium(mode, med, cfg, 100)
    exact = np.exp(-1j * 1.0 * 0.2) * mode.data
    assert rel_err(out.data, exact) < 1e-11


def test_step_medium_cfl_guard():
    spec = cube(8)
    med = MediumMap.uniform(spec)
    psi = SixField.zeros(spec)
    with pytest.raises(StabilityError):
        step_medium(psi, med, StepperConfig(dt=10.0), 1)


def test_step_medium_conjugation_symmetry(rng):
    from conftest import random_classical_field
    spec = cube(12)
    psi = random_classical_field(spec, rng, kmax=3.0)
    med = smooth_medium(spec)
    cfg = StepperConfig(dt=0.005)
    out = step_medium(psi, med, cfg, 100)
    defect = np.max(np.abs(out.data[1] - np.conj(out.data[0])))
    assert defect < 1e-10 * np.max(np.abs(out.data))


def test_step_medium_norm_drift_and_reversibility(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0)
    med = smooth_medium(spec)
    cfg = StepperConfig(dt=0.005)
    fwd = step_medium(psi, med, cfg, 200)
    assert abs(fwd.norm2() - psi.norm2()) < 1e-8 * psi.norm2()

    def rhs(arr):
        return -1j * hamiltonian_apply(SixField(spec=spec, data=arr), med).data

    back = rk4(rhs, fwd.data, -cfg.dt, 200)
    assert rel_err(back, psi.data) < 1e-7


def test_step_medium_rk4_convergence_order(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0)
    med = smooth_medium(spec)
    t_total = 0.4
    ref = step_medium(psi, med, StepperConfig(dt=t_total / 320), 320)
    errs = []
    for steps in (20, 40):
        out = step_medium(psi, med, StepperConfig(dt=t_total / steps), steps)
        errs.append(np.max(np.abs(out.data - ref.data)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.7


def test_split_step_uniform_speed(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0)
    med = MediumMap.uniform(spec, eps=4.0, mu=1.0)
    cfg = StepperConfig(dt=0.01, scheme="split_step")
    out = step_medium(psi, med, cfg, 30)
    exact = propagate_free(psi, 0.5 * 0.3)
    assert rel_err(out.data, exact.data) < 1e-12
    with pytest.raises(DomainError):
        step_medium(psi, smooth_medium(spec), cfg, 1)


def test_split_step_with_varying_resistance(rng):
    # uniform speed, varying resistance: eps * mu held constant.  The band
    # is kept well below Nyquist so the spectral tails generated by the
    # coupling never saturate the grid during the run.
    spec = cube(16)
    psi = random_field(spec, rng, kmax=1.5)
    x = spec.coords()
    mu = 1.0 + 0.1 * np.cos(x[0])
    med = MediumMap(spec=spec, eps=1.0 / mu, mu=mu)
    assert med.is_uniform_v and not med.is_uniform_h
    t_total = 0.2
    ref = step_medium(psi, med, StepperConfig(dt=t_total / 1600), 1600)
    e1 = rel_err(step_medium(psi, med,
                             StepperConfig(dt=t_total / 50,
                                           scheme="split_step"), 50).data,
                 ref.data)
    e2 = rel_err(step_medium(psi, med,
                             StepperConfig(dt=t_total / 100,
                                           scheme="split_step"), 100).data,
                 ref.data)
    assert e1 < 1e-6
    # Strang splitting converges at second order
    assert 3.0 < e1 / e2 < 5.0


def test_split_step_merges_kinetic_half_steps(monkeypatch, rng):
    import pwfn.evolve as ev
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    x = spec.coords()
    mu = 1.0 + 0.1 * np.cos(x[0])
    med = MediumMap(spec=spec, eps=1.0 / mu, mu=mu)
    times = []
    builds = []
    kinetic = ev._kinetic

    def counting(spec_, t):
        builds.append(t)
        apply = kinetic(spec_, t)

        def counted(data):
            times.append(t)
            return apply(data)
        return counted

    monkeypatch.setattr(ev, "_kinetic", counting)
    cfg = StepperConfig(dt=0.01, scheme="split_step")
    for steps in (0, 1, 5):
        times.clear()
        builds.clear()
        step_medium(psi, med, cfg, steps)
        assert len(times) == (steps + 1 if steps else 0)
        assert sum(times) == pytest.approx(steps * 0.01, abs=1e-15)
        # the kinetic phases are built once per run, not once per step
        assert len(builds) == (2 if steps else 0)


def test_split_coupling_matches_eigh_reference(monkeypatch, rng):
    import pwfn.evolve as ev
    from pwfn.fieldcore import LEVI_CIVITA
    spec = cube(16)
    psi = random_field(spec, rng, kmax=3.0)
    x = spec.coords()
    mu = 1.0 + 0.5 * np.cos(x[0]) * np.sin(x[1]) + 0.2 * np.cos(x[2])
    med = MediumMap(spec=spec, eps=1.0 / mu, mu=mu)
    dt = 0.35    # dt |c| reaches 0.14
    # exp(-i dt B) of the pointwise Hermitian 6x6 generator
    # B = (v/2h) rho_2 (s . grad h), (s.a)_jk = -i a_a eps_ajk, by eigh
    coef = med.v / (2.0 * med.h)
    sdot = -1j * np.einsum("a...,ajk->jk...", med.grad_h, LEVI_CIVITA)
    b = np.zeros((6, 6) + spec.n, dtype=complex)
    b[0:3, 3:6] = -1j * coef * sdot
    b[3:6, 0:3] = 1j * coef * sdot
    w, q = np.linalg.eigh(np.moveaxis(b.reshape(6, 6, -1), -1, 0))
    expb = np.einsum("pij,pj,pkj->pik", q, np.exp(-1j * dt * w), np.conj(q))
    ref = np.einsum("pik,kp->ip", expb, psi.data.reshape(6, -1))
    # one split step with the kinetic part switched off is one coupling step
    monkeypatch.setattr(ev, "_kinetic", lambda spec_, t: lambda data: data)
    out = step_medium(psi, med, StepperConfig(dt=dt, scheme="split_step",
                                                cfl_safety=1.0), 1)
    assert rel_err(out.data, ref.reshape(psi.data.shape)) <= 1e-14


def test_divergence_residual_detector(rng):
    spec = cube(12)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    assert divergence_residual(mode) < 1e-13
    # deliberately longitudinal field
    coords = spec.coords()
    bad = SixField.zeros(spec)
    bad.data[0, 2] = np.exp(1j * 2.0 * coords[2])
    assert divergence_residual(bad) > 0.5


def test_divergence_transported_in_medium(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=2.5)
    med = smooth_medium(spec)
    r0 = divergence_residual(psi, med)
    out = step_medium(psi, med, StepperConfig(dt=0.002), 1000)
    r1 = divergence_residual(out, med)
    assert r1 <= 10.0 * max(r0, 1e-12)


def test_medium_basis_change_cases(rng):
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    calf = np.stack([f, np.conj(f)])
    same = medium_basis_change(calf, 1.0, 1.0)
    assert rel_err(same[0], f) == 0.0
    scaled = medium_basis_change(calf, 4.0, 4.0)
    assert rel_err(scaled[0], 0.5 * f) < 1e-15
    assert rel_err(scaled[1], 0.5 * np.conj(f)) < 1e-15
    # two-path oracle through the real fields
    d, b = fields_from_rs(calf, 1.0, 1.0)
    direct = rs_from_fields(d, b, eps=2.5, mu=1.3)
    via = medium_basis_change(calf, 2.5, 1.3)
    assert rel_err(via[0], direct[0]) < 1e-14
    assert rel_err(via[1], direct[1]) < 1e-14


def test_medium_map_validation_and_smoothness():
    spec = cube(8)
    with pytest.raises(DomainError) as err:
        MediumMap(spec=spec, eps=-np.ones(spec.n), mu=np.ones(spec.n))
    assert err.value.arg == "eps"
    # Each of eps and mu is checked on its own, NaN included.
    mu = np.ones(spec.n)
    mu[1, 2, 3] = np.nan
    with pytest.raises(DomainError) as err:
        MediumMap(spec=spec, eps=np.ones(spec.n), mu=mu)
    assert err.value.arg == "mu" and "eps" not in str(err.value)
    med = MediumMap.uniform(spec, eps=2.0)
    assert med.smoothness_metric() < 1e-12
