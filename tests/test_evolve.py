import decimal
from decimal import Decimal

import numpy as np
import pytest
from scipy import fft as sfft

from pwfn import spectral
from pwfn.errors import DomainError, ShapeError, StabilityError
from pwfn.evolve import (MediumMap, StepperConfig, divergence_residual,
                         free_generator, hamiltonian_apply,
                         medium_basis_change, propagate_free, rk4,
                         step_medium)
from pwfn.fieldcore import fields_from_rs, rodrigues, rs_from_fields
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


@pytest.mark.parametrize("helicities", [(0, 1), (0,), (1,)])
def test_propagate_free_transforms_only_the_live_blocks(rng, helicities):
    spec = GridSpec(n=(8, 12, 10), length=(6.0, 7.5, 5.0))
    psi = random_field(spec, rng, kmax=2.0, helicities=helicities)
    t = 0.9
    _, nhat, knorm = triad_arrays(spec)
    cos_a, sin_a = np.cos(knorm * t), np.sin(knorm * t)
    axes = (-3, -2, -1)
    hat = sfft.fftn(psi.data, axes=axes)
    # The per-mode table of rodrigues(n, cos, sin), applied as a 3 x 3
    # product: the table above, its transpose below.
    turn = rodrigues(nhat, cos_a, sin_a, np.eye(3)[:, :, None, None, None])
    for b, m in ((0, turn), (1, turn.swapaxes(0, 1))):
        hat[b] = np.stack([m[i, 0] * hat[b, 0] + m[i, 1] * hat[b, 1]
                           + m[i, 2] * hat[b, 2] for i in range(3)])
    spectral.reset_transform_counts()
    out = propagate_free(psi, t).data
    points = 3 * len(helicities) * spec.npoints
    assert spectral.transform_counts() == {
        "fft_calls": 1, "fft_points": points, "ifft_calls": 1,
        "ifft_points": points, "fft_axis_points": 3 * points,
        "ifft_axis_points": 3 * points}
    assert np.array_equal(out, sfft.ifftn(hat, axes=axes))
    for b in {0, 1} - set(helicities):
        assert not np.any(out[b])


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


def test_hamiltonian_in_vacuum_is_the_free_generator_bit_for_bit(rng):
    # In vacuum the runner's right-hand side and free_generator form one
    # curl (spectral._curl) of the same one-axis derivatives, and the
    # factors sqrt(v) = v = 1 and -i rho_3 are exact: the two agree bit for
    # bit, on an anisotropic grid with every mode, Nyquist planes included,
    # occupied.
    spec = GridSpec(n=(12, 10, 8), length=(6.0, 5.0, 7.0))
    psi = SixField(spec=spec, data=rng.normal(size=(2, 3) + spec.n)
                   + 1j * rng.normal(size=(2, 3) + spec.n))
    assert np.array_equal(hamiltonian_apply(psi, MediumMap.uniform(spec)).data,
                          free_generator(psi).data)


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
    # The steppers check too: a uniform medium or metric never reaches the
    # check of its r-space generator.
    from pwfn import geometry as geo
    cfg = StepperConfig(dt=0.01)
    with pytest.raises(ShapeError):
        step_medium(psi, MediumMap.uniform(other), cfg, 1)
    with pytest.raises(ShapeError):
        geo.step_curved(psi, geo.minkowski_metric(other), cfg, 1)


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

    # ||H|| <= max v * k_max + max |c|, the rate step_medium passes
    rate = np.max(med.v) * spec.k_max() + np.max(med.coupling_norm)
    back = rk4(rhs, fwd.data, -cfg.dt, 200, rate, cfg.cfl_safety)
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
    assert med.uniform_axes == (1, 2)   # the kinetic tables are sectors'
    times = []
    builds = []
    kinetic = ev._kinetic

    def counting(sectors, t):
        builds.append(t)
        apply = kinetic(sectors, t)

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


def _coupling_exp(med, dt):
    """exp(-i dt B) per point, as (points, 6, 6), of the pointwise Hermitian
    6x6 generator B = (v/2h) rho_2 (s . grad h), (s.a)_jk = -i a_a eps_ajk,
    by eigh."""
    from pwfn.fieldcore import LEVI_CIVITA
    coef = med.v / (2.0 * med.h)
    sdot = -1j * np.einsum("a...,ajk->jk...", med.grad_h, LEVI_CIVITA)
    b = np.zeros((6, 6) + med.spec.n, dtype=complex)
    b[0:3, 3:6] = -1j * coef * sdot
    b[3:6, 0:3] = 1j * coef * sdot
    w, q = np.linalg.eigh(np.moveaxis(b.reshape(6, 6, -1), -1, 0))
    return np.einsum("pij,pj,pkj->pik", q, np.exp(-1j * dt * w), np.conj(q))


def _apply_points(expb, data):
    """The per-point 6x6 matrices expb applied to a (2, 3, ...) state."""
    return np.einsum("pik,kp->ip", expb, data.reshape(6, -1)).reshape(
        data.shape)


def test_split_coupling_matches_eigh_reference(monkeypatch, rng):
    import pwfn.evolve as ev
    spec = cube(16)
    psi = random_field(spec, rng, kmax=3.0)
    x = spec.coords()
    mu = 1.0 + 0.5 * np.cos(x[0]) * np.sin(x[1]) + 0.2 * np.cos(x[2])
    med = MediumMap(spec=spec, eps=1.0 / mu, mu=mu)
    dt = 0.35    # dt |c| reaches 0.14
    ref = _apply_points(_coupling_exp(med, dt), psi.data)
    # one split step with the kinetic part switched off is one coupling step
    monkeypatch.setattr(ev, "_kinetic", lambda sectors, t: lambda data: data)
    out = step_medium(psi, med, StepperConfig(dt=dt, scheme="split_step",
                                                cfl_safety=1.0), 1)
    assert rel_err(out.data, ref) <= 1e-14


# Backgrounds for the sector tests: a profile p of the coordinates (None
# for the off-diagonal metric, the same everywhere) and the axes along
# which it is uniform.
SECTOR_MEDIA = {
    "z-invariant": (lambda x: 1.0 + 0.15 * np.cos(x[0]) * np.cos(x[1]), (2,)),
    "y,z-invariant": (lambda x: 1.0 + 0.1 * np.cos(x[0]), (1, 2)),
    "varying": (lambda x: 1.0 + 0.1 * np.cos(x[0]) * np.cos(x[1])
                + 0.05 * np.sin(x[2]), ()),
    "uniform": (None, (0, 1, 2)),
}
# (case, scheme) pairs; "curved" is step_curved's rk4 in a metric.
SECTOR_CASES = [(case, scheme) for case in SECTOR_MEDIA
                for scheme in ("rk4", "split_step", "curved")
                if case != "uniform" or scheme == "curved"]


def _sector_medium(spec, case, scheme):
    """The background of case for scheme: eps = p with mu = 1 for rk4, and
    mu = 1/p for split_step; for curved, the conformal metric of index p,
    or the off-diagonal metric of the uniform case."""
    from pwfn import geometry as geo
    from test_geometry import offdiag_metric
    profile, uniform = SECTOR_MEDIA[case]
    if scheme == "curved":
        med = offdiag_metric(spec) if profile is None else \
            geo.conformal_metric(spec, profile(spec.coords()))
    else:
        p = profile(spec.coords())
        med = MediumMap(spec=spec, eps=p, mu=1.0 / p
                        if scheme == "split_step" else np.ones(spec.n))
    assert med.uniform_axes == uniform
    return med


def _sector_step(psi, med, scheme, dt, steps):
    """step_curved's rk4 of psi in a metric, else step_medium's scheme."""
    from pwfn import geometry as geo
    if scheme == "curved":
        return geo.step_curved(psi, med, StepperConfig(dt=dt), steps)
    return step_medium(psi, med, StepperConfig(dt=dt, scheme=scheme), steps)


def _sector_run(psi, case, scheme):
    """The run of psi in the background of case for scheme as the stepper
    makes it, the run's transform counters, the same run on the full grid
    (rk4 of the public hamiltonian_apply or curved_generator, or Strang
    steps of propagate_free and the per-point exponential of the
    coupling), and the number of right-hand sides or kinetic steps."""
    from pwfn import evolve as ev, geometry as geo
    spec = psi.spec
    med = _sector_medium(spec, case, scheme)
    if scheme != "split_step":
        dt, steps = 0.02, 20
        if scheme == "curved":
            rate = med.light_speed_bound() * spec.k_max()
            generator = geo.curved_generator
        else:
            rate, generator = _medium_rate(spec, med), hamiltonian_apply
        ref = rk4(lambda a: -1j * generator(
            SixField(spec=spec, data=a), med).data, psi.data, dt, steps,
            rate, 0.5)
        applications = len(ev._rk4_series(dt * rate, steps)) - 1
    else:
        dt, steps = 0.1, 10
        expb = _coupling_exp(med, dt)
        half = 0.5 * float(np.mean(med.v)) * dt
        ref = psi
        for _ in range(steps):
            ref = propagate_free(ref, half)
            ref = propagate_free(SixField(spec=spec, data=_apply_points(
                expb, ref.data)), half)
        ref = ref.data
        applications = steps + 1
    spectral.reset_transform_counts()
    out = _sector_step(psi, med, scheme, dt, steps)
    return out.data, spectral.transform_counts(), ref, applications


def _live_slabs(data, axes):
    """The live slab count along each of the lattice axes `axes` of data, by
    the steppers' rule: its largest |amplitude| after transforming along
    `axes` above 16 eps times the largest of the state."""
    size = np.abs(sfft.fftn(data, axes=[d - 3 for d in axes]))
    return [np.count_nonzero(
        np.max(size, axis=tuple(a for a in range(5) if a != d + 2))
        > 16 * np.finfo(float).eps * size.max()) for d in axes]


@pytest.mark.parametrize("case,scheme", SECTOR_CASES)
def test_step_medium_steps_the_live_sectors_of_uniform_axes(rng, case,
                                                            scheme):
    # Along an axis where the medium or metric is uniform every operator of
    # a run is diagonal in k: the state is transformed along the uniform
    # axes once at each end, and each right-hand side or Strang step
    # transforms the varying axes of the slabs that carry field: 5 of 8
    # (or 10) k_z planes, and 5 x 5 of 12 x 8 (or 6 x 10) (k_y, k_z)
    # pairs.  A Strang step transforms the slabs along all varying axes
    # in one call; a right-hand side makes one call per varying axis a,
    # of the two components its curl differentiates along a, 2/3 of the
    # slabs.  The result is the full-grid evolution's.  A background
    # varying along every axis transforms all three axes per step, and
    # the off-diagonal metric, uniform along every axis, none: its run
    # is held in k-space between the two ends.  The axis counts 6 and 10
    # have the prime factors 3 and 5.
    for n in [(16, 12, 8), (8, 6, 10)]:
        spec = GridSpec(n=n, length=(2.0 * np.pi,) * 3)
        psi = random_field(spec, rng, kmax=2.5)
        out, counts, ref, applications = _sector_run(psi, case, scheme)
        assert rel_err(out, ref) <= 1e-13, n
        uniform = SECTOR_MEDIA[case][1]
        live = _live_slabs(psi.data, uniform)
        assert live == [5] * len(uniform), n
        block = psi.data.size
        sector = block * np.prod(live) // np.prod([n[d] for d in uniform])
        ends = 1 if uniform else 0
        varying = 3 - len(uniform)
        if scheme == "split_step":   # per step: calls, points, axis points
            calls, points, along = 1, sector, varying * sector
        else:
            calls, points = varying, varying * 2 * sector // 3
            along = points
        axis_points = len(uniform) * ends * block + applications * along
        assert counts == {
            "fft_calls": ends + applications * calls,
            "fft_points": ends * block + applications * points,
            "ifft_calls": ends + applications * calls,
            "ifft_points": ends * block + applications * points,
            "fft_axis_points": axis_points,
            "ifft_axis_points": axis_points}, n
        # A state that overflows ends as a non-finite one, in every scheme.
        huge = SixField(spec=spec, data=np.full(psi.data.shape, 1e308))
        with pytest.raises(StabilityError, match=f"non-finite after 2 "
                           f"{scheme.replace('curved', 'rk4')} steps"):
            _sector_step(huge, _sector_medium(spec, case, scheme), scheme,
                         0.02, 2)


@pytest.mark.parametrize("scheme", ["rk4", "split_step", "curved"])
def test_sector_runs_keep_a_faint_plane(rng, scheme):
    # A k_z plane holding 1e-10 of the state's largest amplitude is far
    # above the round-off the steppers skip: it is stepped, and the run
    # matches the full-grid evolution, which dropping it would miss by
    # about 1e-10.  A Strang step transforms the 6 live planes along x and
    # y at once, a right-hand side two components of them along x and two
    # along y.
    spec = GridSpec(n=(16, 12, 8), length=(2.0 * np.pi,) * 3)
    psi = random_field(spec, rng, kmax=2.5)
    assert _live_slabs(psi.data, (2,)) == [5]
    hat = sfft.fft(psi.data, axis=-1)
    hat[..., 4] = 1e-10 * np.max(np.abs(hat)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, hat[..., 4].shape))
    psi = SixField(spec=spec, data=sfft.ifft(hat, axis=-1))
    assert _live_slabs(psi.data, (2,)) == [6]
    out, counts, ref, applications = _sector_run(psi, "z-invariant", scheme)
    assert rel_err(out, ref) <= 1e-13
    sector = 6 * 16 * 12 * 6
    per_step = sector if scheme == "split_step" else 2 * (2 * sector // 3)
    assert counts["fft_points"] == psi.data.size + applications * per_step


@pytest.mark.parametrize("helicity", [0, 1])
def test_block_diagonal_medium_rk4_steps_only_the_live_block(monkeypatch,
                                                             helicity):
    # Where h is uniform (eps = mu) the medium does not couple the helicity
    # blocks, so RK4 steps only the live block of a definite-helicity field:
    # the other stays exactly zero, the live one is bit for bit that of a
    # run stepping both blocks, and half the points are transformed.  A
    # metric never couples them: the same holds for the conformal metric
    # of the same profile.
    from pwfn import evolve as ev, geometry as geo
    spec = GridSpec(n=(16, 12, 8), length=(2.0 * np.pi,) * 3)
    psi = random_field(spec, np.random.default_rng(11), kmax=2.5,
                       helicities=(helicity,))
    assert not np.any(psi.data[1 - helicity])
    p = SECTOR_MEDIA["z-invariant"][0](spec.coords())
    med = MediumMap(spec=spec, eps=p, mu=p)
    assert med.is_uniform_h and not med.is_uniform_v
    met = geo.conformal_metric(spec, p)
    assert met.uniform_scale is None
    for background, step in ((med, step_medium), (met, geo.step_curved)):
        runs = []
        for both in (False, True):
            if both:
                monkeypatch.setattr(ev, "_live_blocks",
                                    lambda data: (range(2), data))
            spectral.reset_transform_counts()
            out = step(psi, background, StepperConfig(dt=0.02), 20).data
            runs.append((out, spectral.transform_counts()))
        monkeypatch.undo()
        (one, counts), (two, both_counts) = runs
        assert not np.any(one[1 - helicity]), step.__name__
        assert np.array_equal(one, two), step.__name__
        assert counts == {key: value // 2 if key.endswith("points")
                          else value for key, value in both_counts.items()}


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
    # eps and mu may be given at their distinct points: a number, or an
    # array of size 1 along the axes where they are constant.  That is the
    # medium of the full arrays, bit for bit.
    plane = 1.0 + 0.15 * np.cos(spec.coord_lines()[0]) \
        * np.cos(spec.coord_lines()[1])
    assert plane.shape == (8, 8, 1)
    full = np.broadcast_to(plane, spec.n).copy()
    psi = random_field(spec, np.random.default_rng(4), kmax=2.5)
    cases = [((plane, 1.0), (full, np.ones(spec.n)), ("rk4",)),
             ((plane, 1.0 / plane), (full, 1.0 / full), ("rk4", "split_step")),
             ((2.0, 1.5), (np.full(spec.n, 2.0), np.full(spec.n, 1.5)),
              ("rk4", "split_step"))]
    for (eps, mu), (eps_full, mu_full), schemes in cases:
        meds = [MediumMap(spec=spec, eps=eps, mu=mu),
                MediumMap(spec=spec, eps=eps_full, mu=mu_full)]
        assert meds[0].uniform_axes == meds[1].uniform_axes
        for name in ("eps", "mu", "v", "h", "sqrt_v", "grad_h", "coupling",
                     "coupling_norm"):
            a, b = (getattr(m, name) for m in meds)
            assert a.shape == b.shape and np.array_equal(a, b), name
            assert not a.flags.writeable, name
        for scheme in schemes:
            a, b = (step_medium(psi, m, StepperConfig(dt=0.02, scheme=scheme),
                                5).data for m in meds)
            assert np.array_equal(a, b), scheme
        a, b = (hamiltonian_apply(psi, m).data for m in meds)
        assert np.array_equal(a, b)
        assert divergence_residual(psi, meds[0]) \
            == divergence_residual(psi, meds[1])
    for shape in [(8,), (8, 8), (10, 8, 1)]:
        with pytest.raises(ShapeError):
            MediumMap(spec=spec, eps=np.ones(shape), mu=1.0)
        with pytest.raises(ShapeError):
            MediumMap(spec=spec, eps=1.0, mu=np.ones(shape))
    for name in ("eps", "mu"):
        bad = plane.copy()
        bad[3, 2, 0] = np.nan
        for value in (bad, np.nan):
            with pytest.raises(DomainError) as err:
                MediumMap(spec=spec, **{name: value, ("mu" if name == "eps"
                                                      else "eps"): plane})
            assert err.value.arg == name
    # A metric is kept at its distinct points the same way.
    from pwfn import geometry as geo
    g = np.zeros((4, 4, 8, 8, 1))
    g[0, 0] = 1.0
    for i in (1, 2, 3):
        g[i, i] = -plane**2
    g_full = np.broadcast_to(g, (4, 4) + spec.n).copy()
    mets = [geo.MetricField(spec=spec, g=g),
            geo.MetricField(spec=spec, g=g_full)]
    assert [m._points[0].shape for m in mets] == [(4, 4, 8, 8, 1)] * 2
    for name in ("g", "g_inv", "det", "constitutive"):
        a, b = (getattr(m, name) for m in mets)
        assert a.shape == b.shape and np.array_equal(a, b), name
    a, b = (geo.step_curved(psi, m, StepperConfig(dt=0.02), 5).data
            for m in mets)
    assert np.array_equal(a, b)
    for shape in [(8,), (8, 8), (10, 8, 1)]:
        with pytest.raises(ShapeError):
            geo.MetricField(spec=spec, g=np.ones((4, 4) + shape))


def test_medium_map_builds_at_its_distinct_points():
    # A uniform medium makes no transform.  A z-invariant one takes the
    # gradient of h on its one x-y plane: one forward and one inverse
    # transform of nx ny points along x, and the same along y.  Today's CLI
    # cosine profile is z-invariant on any grid, including those whose z
    # count has a prime factor of 5 or more.
    spec = GridSpec(n=(8, 6, 10), length=(6.0, 5.0, 7.0))
    spectral.reset_transform_counts()
    assert MediumMap.uniform(spec, eps=2.0, mu=1.5).uniform_axes == (0, 1, 2)
    assert spectral.transform_counts() == dict.fromkeys(
        ("fft_calls", "fft_points", "ifft_calls", "ifft_points",
         "fft_axis_points", "ifft_axis_points"), 0)
    for n in [(8, 6, 10), (20, 30, 10), (64, 48, 40)]:
        spec = GridSpec(n=n, length=(2.0 * np.pi,) * 3)
        x = spec.coord_lines()
        eps = 1.0 + 0.15 * np.cos(x[0]) * np.cos(x[1])
        spectral.reset_transform_counts()
        med = MediumMap(spec=spec, eps=np.broadcast_to(eps, n), mu=1.0)
        plane = n[0] * n[1]
        assert spectral.transform_counts() == {
            "fft_calls": 2, "fft_points": 2 * plane,
            "ifft_calls": 2, "ifft_points": 2 * plane,
            "fft_axis_points": 2 * plane, "ifft_axis_points": 2 * plane}, n
        assert med.uniform_axes == (2,), n
        for table in (med.v, med.coupling):
            assert np.array_equal(table, np.broadcast_to(
                table[..., :1], table.shape)), n


@pytest.mark.parametrize("seed", range(4))
def test_rk4_step_rule_is_the_schemes_own(monkeypatch, seed):
    # Random even shapes up to 8 points per axis, anisotropic boxes and a
    # random (eps, mu), uniform and varying along x.  Each RK4 caller's rate
    # bounds its generator's spectral radius: at dt = 2 sqrt(2) / rate no
    # mode grows (a varying metric in the norm of its constitutive map), and
    # just past it the run is refused before the first step.  The uniform
    # medium and metric step per Fourier mode; the varying ones call the
    # runner's right-hand side.
    from pwfn import evolve as ev, geometry as geo, phasespace as ps
    rng = np.random.default_rng(seed)
    spec = GridSpec(n=tuple(int(m) for m in rng.choice([2, 4, 6, 8], 3)),
                    length=tuple(rng.uniform(2.0, 10.0, 3)))
    eps, mu = rng.uniform(0.5, 4.0, 2)
    bump = 1.0 + 0.1 * np.cos(2 * np.pi * spec.coords()[0] / spec.length[0])
    kvec = spec.k_grid()[(slice(None),) + tuple(rng.integers(0, spec.n))]
    psi = SixField(spec=spec, data=rng.standard_normal((2, 3) + spec.n)
                   + 1j * rng.standard_normal((2, 3) + spec.n))
    wu = rng.standard_normal((4,) + spec.n)

    def medium(med):
        def run(dt, steps):
            return step_medium(psi, med, StepperConfig(dt=dt, cfl_safety=1.0),
                               steps).data
        rate = np.max(med.v) * spec.k_max() + np.max(med.coupling_norm)
        return run, rate, np.max(med.v), psi.data, 1.0, \
            (ev, "_medium_rhs")

    def curved(index):
        met = geo.conformal_metric(spec, index)

        def run(dt, steps):
            return geo.step_curved(psi, met, StepperConfig(
                dt=dt, cfl_safety=1.0), steps).data
        speed = met.light_speed_bound()
        return run, speed * spec.k_max(), speed, psi.data, \
            1.0 / np.sqrt(index), (ev, "_medium_rhs")

    def reduced(dt, steps):
        return np.concatenate(ps.wigner_reduced_step(
            spec, kvec, wu[0], wu[1:], dt, steps, cfl_safety=1.0), axis=None)

    cases = {
        "uniform medium": medium(MediumMap.uniform(spec, eps=eps, mu=mu)),
        "varying medium": medium(MediumMap(spec=spec, eps=eps * bump,
                                           mu=np.full(spec.n, mu))),
        "uniform metric": curved(np.sqrt(eps * mu)),
        "varying metric": curved(np.sqrt(eps * mu) * bump),
        "reduced": (reduced, spec.k_max() + 2.0 * np.linalg.norm(kvec), 1.0,
                    wu, 1.0, (ps, "div")),
    }
    for label, (run, rate, speed, start, weight, (module, name)) in \
            cases.items():
        bound = 2.0 * np.sqrt(2.0) / rate
        assert bound <= min(spec.spacing) / speed, label
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _f=original: calls.append(1) or _f(*a))
        out = run(bound * (1.0 - 1e-12), 200)
        assert np.linalg.norm(out * weight) \
            <= np.linalg.norm(start * weight) * (1.0 + 1e-12), label
        assert bool(calls) == (not label.startswith("uniform")), label

        calls.clear()
        dt = 1.01 * bound
        with pytest.raises(StabilityError) as err:
            run(dt, 1)
        monkeypatch.undo()
        assert calls == [], label
        message = str(err.value)
        for needle in (f"dt = {dt:.3e}", f"bound {bound:.3e}",
                       "cfl_safety = 1.0"):
            assert needle in message, (label, message)


@pytest.mark.parametrize("seed", range(6))
def test_rk4_per_mode_is_r_space_rk4(seed):
    # A generator w rho_3 (s . grad/i) with one w everywhere (a uniform
    # medium, the Minkowski metric, a uniform conformal metric) is stepped
    # per Fourier mode: the result is r-space rk4's up to roundoff, on
    # random grids with 2-point axes and full-spectrum fields, for both
    # signs of dt.  step_medium and step_curved take that path, with one
    # forward and one inverse transform for any steps, return the input
    # for steps = 0 and refuse a state that overflows.
    from pwfn import evolve as ev, geometry as geo
    rng = np.random.default_rng(100 + seed)
    spec = GridSpec(n=tuple(int(m) for m in rng.choice([2, 4, 6, 10], 3)),
                    length=tuple(rng.uniform(2.0, 10.0, 3)))
    psi = SixField(spec=spec, data=rng.standard_normal((2, 3) + spec.n)
                   + 1j * rng.standard_normal((2, 3) + spec.n))
    eps, mu, index = rng.uniform(0.5, 4.0, 3)
    med = MediumMap.uniform(spec, eps=eps, mu=mu)
    metrics = [geo.minkowski_metric(spec), geo.conformal_metric(spec, index)]
    cases = [(float(np.max(med.v)), lambda f: hamiltonian_apply(f, med),
              np.max(med.v) * spec.k_max() + np.max(med.coupling_norm),
              lambda f, cfg, steps: step_medium(f, med, cfg, steps))]
    for met in metrics:
        cases.append((met.uniform_scale,
                      lambda f, met=met: geo.curved_generator(f, met),
                      met.light_speed_bound() * spec.k_max(),
                      lambda f, cfg, steps, met=met: geo.step_curved(
                          f, met, cfg, steps)))
    assert metrics[0].uniform_scale == 1.0
    assert rel_err(metrics[1].uniform_scale, 1.0 / index) <= 1e-15
    for w, generator, rate, stepper in cases:
        def rhs(arr, generator=generator):
            return -1j * generator(SixField(spec=spec, data=arr)).data

        for sign in (1.0, -1.0):
            dt = sign * rng.uniform(0.05, 0.95) * 2.0 * np.sqrt(2.0) / rate
            steps = int(rng.integers(1, 40))
            ref = rk4(rhs, psi.data, dt, steps, rate, 1.0)
            out = ev._rk4_curl(ev._Sectors(spec), w, dt, steps)(psi.data)
            assert rel_err(out, ref) <= 1e-13, (sign, steps)
        cfg = StepperConfig(dt=abs(dt), cfl_safety=1.0)
        spectral.reset_transform_counts()
        out = stepper(psi, cfg, steps)
        assert spectral.transform_counts() == {
            "fft_calls": 1, "fft_points": psi.data.size,
            "ifft_calls": 1, "ifft_points": psi.data.size,
            "fft_axis_points": 3 * psi.data.size,
            "ifft_axis_points": 3 * psi.data.size}
        ref = rk4(rhs, psi.data, abs(dt), steps, rate, 1.0)
        assert rel_err(out.data, ref) <= 1e-13
        assert np.array_equal(stepper(psi, cfg, 0).data, psi.data)
        # A state that overflows in the transforms ends as rk4's does.
        huge = SixField(spec=spec, data=np.full(psi.data.shape, 1e308))
        with pytest.raises(StabilityError, match="non-finite"):
            stepper(huge, cfg, 1)
        # Long runs: the per-mode factor R(-i (w dt) |k_d|)^steps against its
        # 50-digit value, where a float64 power is off by 5e-13 at 10^4
        # steps and 3e-12 at 10^5.
        nd, kd_norm = _odd_directions(spec)
        for steps in (10**4, 10**5):
            dt = -dt * rng.uniform(0.1, 0.3) / (abs(dt) * rate)
            norms, where = np.unique(kd_norm, return_inverse=True)
            g = np.array([_rk4_power_decimal(
                -Decimal(w * dt) * Decimal(float(k)), steps) for k in norms])
            g = g[where].reshape(kd_norm.shape)
            ref = _per_mode(psi.data, nd, g.real, -g.imag)
            out = ev._rk4_curl(ev._Sectors(spec), w, dt, steps)(psi.data)
            assert rel_err(out, ref) <= 1e-14, (steps, dt)


def _classic_rk4(rhs, y, dt, steps):
    """The four classic RK4 stages, written out."""
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _cosine_medium(spec):
    """A medium whose v and h both vary: eps along x, mu along y."""
    x = spec.coords()
    return MediumMap(
        spec=spec, eps=1.0 + 0.2 * np.cos(2 * np.pi * x[0] / spec.length[0]),
        mu=1.0 + 0.15 * np.cos(2 * np.pi * x[1] / spec.length[1]))


def _medium_rate(spec, med):
    return np.max(med.v) * spec.k_max() + np.max(med.coupling_norm)


@pytest.mark.parametrize("steps", [0, 1, 7])
def test_nested_rk4_is_classic_rk4(rng, steps):
    # rk4 evaluates each step in nested form.  For a linear, time-independent
    # rhs that is the classic four-stage polynomial up to roundoff: on a
    # complex medium rhs and on the real (w, u) pair rhs of the reduced
    # Wigner evolution, for both signs of dt.
    from pwfn.fieldcore import cross
    from pwfn.spectral import div, grad
    spec = GridSpec(n=(8, 6, 10), length=(6.0, 5.0, 7.0))
    med = _cosine_medium(spec)
    psi = random_field(spec, rng, kmax=3.0)
    k = np.array([0.4, -0.7, 1.1])
    wu = rng.standard_normal((4,) + spec.n)

    def medium_rhs(arr):
        return -1j * hamiltonian_apply(SixField(spec=spec, data=arr), med).data

    def pair_rhs(y):
        out = np.empty_like(y)
        out[0] = -div(spec, y[1:])
        out[1:] = -2.0 * cross(k, y[1:]) - grad(spec, y[0])
        return out

    for rhs, start, rate in (
            (medium_rhs, psi.data, _medium_rate(spec, med)),
            (pair_rhs, wu, spec.k_max() + 2.0 * np.linalg.norm(k))):
        for sign in (1.0, -1.0):
            dt = sign * 0.9 * 2.0 * np.sqrt(2.0) / rate
            out = rk4(rhs, start, dt, steps, rate, 1.0)
            assert out.dtype == start.dtype and out is not start
            ref = _classic_rk4(rhs, start, dt, steps)
            assert rel_err(out, ref) <= 1e-13, (rhs.__name__, sign)


def test_step_medium_rk4_is_classic_rk4_of_hamiltonian_apply(rng):
    # step_medium steps G = sqrt(v) F with the generator of G and returns
    # G / sqrt(v): classic RK4 of the public hamiltonian_apply up to
    # roundoff, in a medium whose v and h both vary.  hamiltonian_apply is
    # in turn H F as the medium equation writes it.
    from pwfn.fieldcore import cross
    spec = GridSpec(n=(12, 10, 8), length=(6.0, 5.0, 7.0))
    med = _cosine_medium(spec)
    assert not (med.is_uniform_v or med.is_uniform_h)
    psi = random_field(spec, rng, kmax=3.0)
    sv = med.sqrt_v
    direct = sv * free_generator(SixField(spec=spec, data=sv * psi.data)).data
    direct[0] += cross(med.coupling, psi.data[1])
    direct[1] -= cross(med.coupling, psi.data[0])
    assert rel_err(hamiltonian_apply(psi, med).data, direct) <= 1e-13

    def rhs(arr):
        return -1j * hamiltonian_apply(SixField(spec=spec, data=arr), med).data

    for dt, steps in ((0.01, 1), (0.02, 9)):
        out = step_medium(psi, med, StepperConfig(dt=dt), steps)
        ref = _classic_rk4(rhs, psi.data, dt, steps)
        assert rel_err(out.data, ref) <= 1e-13, (dt, steps)


def _per_mode(data, nhat, cos_a, sin_a):
    """rodrigues(n, cos_a, sin_a) on each Fourier mode of the upper block of
    data and rodrigues(n, cos_a, -sin_a) on the lower."""
    axes = (-3, -2, -1)
    hat = sfft.fftn(data, axes=axes)
    hat[0] = rodrigues(nhat, cos_a, sin_a, hat[0])
    hat[1] = rodrigues(nhat, cos_a, -sin_a, hat[1])
    return sfft.ifftn(hat, axes=axes)


def _odd_directions(spec):
    """(n_d, |k_d|) of the odd-derivative wave vectors, as full tables."""
    kd = spec.k_grid_diff()
    kd_norm = np.sqrt(np.sum(kd**2, axis=0))
    nd = np.divide(kd, kd_norm, out=np.zeros_like(kd), where=kd_norm > 0.0)
    return nd, kd_norm


@pytest.mark.parametrize("n", [(8, 6, 10), (2, 4, 6)])
def test_rotation_table_is_rodrigues_per_mode(rng, n):
    # propagate_free and _rk4_curl turn every mode with one 3 x 3 table;
    # that is rodrigues applied per mode up to roundoff, for both signs of
    # t and dt, on grids whose Nyquist modes k_d drops (a 2-point axis
    # holds only k = 0 and its Nyquist mode).
    from pwfn import evolve as ev
    spec = GridSpec(n=n, length=(6.0, 5.0, 7.0))
    psi = SixField(spec=spec, data=rng.standard_normal((2, 3) + n)
                   + 1j * rng.standard_normal((2, 3) + n))
    _, nhat, knorm = triad_arrays(spec)
    for t in (0.7, -2.3):
        ref = _per_mode(psi.data, nhat, np.cos(knorm * t), np.sin(knorm * t))
        assert rel_err(propagate_free(psi, t).data, ref) <= 1e-13, t
    nd, kd_norm = _odd_directions(spec)
    w = 0.8
    rate = w * spec.k_max()
    for dt, steps in ((0.3 / rate, 5), (-1.1 / rate, 3)):
        z = -1j * w * dt * kd_norm
        g = (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) ** steps
        ref = _per_mode(psi.data, nd, g.real, -g.imag)
        out = ev._rk4_curl(ev._Sectors(spec), w, dt, steps)(psi.data)
        assert rel_err(out, ref) <= 1e-13, (dt, steps)


def test_rk4_peak_memory_in_states():
    # Nested RK4 holds y, u and one rhs output; the medium rhs of a 16^3
    # run forms its curl beside them from at most two derivative pairs,
    # each 2/3 of the state, and one coupling product.  Peak above the
    # input, in units of the state: 5.35 measured (numpy 2.4, scipy 1.17),
    # against 10.0 for the classic stages k1 ... k4 and their temporaries.
    import tracemalloc
    from pwfn import evolve as ev
    spec = cube(16)
    med = _cosine_medium(spec)
    psi = random_field(spec, np.random.default_rng(7), kmax=3.0)
    _, rhs = ev._generator(med, ev._Sectors(spec), range(2))

    def run():
        return rk4(rhs, psi.data, 0.002, 3, _medium_rate(spec, med), 0.5)

    run()   # builds the grid tables
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states, bound = (peak - base) / psi.data.nbytes, 6.0
    ok = states <= bound
    print(f"[{'PASS' if ok else 'FAIL'}] rk4 peak memory [states]: "
          f"{states:.3e} (<= {bound:.3e})")
    assert ok, (states, bound)


def _rk4_power_decimal(y, steps):
    """R(iy)^steps for the Decimal y, to 50 digits: the RK4 step polynomial
    of i y in decimal arithmetic, raised by repeated squaring."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        y2 = y * y
        base = (1 - y2 / 2 + y2 * y2 / 24, y - y * y2 / 6)
        out = (Decimal(1), Decimal(0))

        def times(p, q):
            return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

        while steps:
            if steps & 1:
                out = times(out, base)
            base = times(base, base)
            steps >>= 1
        return complex(float(out[0]), float(out[1]))


def test_rk4_series_is_the_scalar_step_power():
    # On a diagonal rhs = -i lam y, rk4 is R(-i lam dt)^steps per entry: for
    # lam over [-rate, rate] with both ends and 0, 1 to 10^5 steps, |dt|
    # rate from 1e-4 to the step bound, both signs of dt, and runs past one
    # series span (|dt| rate steps = 5000).  A run of s steps makes at most
    # 4 s rhs calls, and the reference is exact to 50 digits.
    rate = 2.0
    lam = rate * np.array([-1.0, -0.73, -0.31, 0.0, 0.12, 0.5, 0.88, 1.0])
    y = np.exp(1j * np.arange(8.0))
    calls = []

    def rhs(u):
        calls.append(1)
        return -1j * lam * u

    cases = [(steps, scaled) for steps in (1, 7, 200)
             for scaled in (1e-4, 0.05, 1.0, 2.0 * np.sqrt(2.0))]
    cases += [(10**5, 1e-4), (10**5, 0.05)]
    for steps, scaled in cases:
        for sign in (1.0, -1.0):
            dt = sign * scaled / rate
            calls.clear()
            out = rk4(rhs, y, dt, steps, rate, 1.0)
            ref = y * np.array([_rk4_power_decimal(
                -Decimal(x) * Decimal(dt), steps) for x in lam])
            assert np.max(np.abs(out - ref)) <= 1e-13, (steps, scaled, sign)
            assert len(calls) <= 4 * steps, (steps, scaled, len(calls))


def test_rk4_series_needs_only_a_bound_on_the_rate(rng):
    # The series runs on [-rate, rate]; a rate 1.5 times the spectral-radius
    # bound gives the same state, in a varying medium, a varying metric and
    # on the reduced Wigner pair.
    from pwfn import evolve as ev, geometry as geo
    from pwfn.fieldcore import cross
    from pwfn.spectral import div, grad
    spec = GridSpec(n=(8, 6, 10), length=(6.0, 5.0, 7.0))
    psi = random_field(spec, rng, kmax=3.0)
    med = _cosine_medium(spec)
    _, medium_rhs = ev._generator(med, ev._Sectors(spec), range(2))
    x = spec.coords()
    metric = geo.conformal_metric(spec, 1.2 + 0.1 * np.cos(
        2 * np.pi * x[0] / spec.length[0]))
    k = np.array([0.4, -0.7, 1.1])

    def pair_rhs(y):
        out = np.empty_like(y)
        out[0] = -div(spec, y[1:])
        out[1:] = -2.0 * cross(k, y[1:]) - grad(spec, y[0])
        return out

    cases = {
        "medium": (medium_rhs, psi.data,
                   _medium_rate(spec, med)),
        "metric": (lambda f: -1j * geo.curved_generator(
            SixField(spec=spec, data=f), metric).data, psi.data,
            metric.light_speed_bound() * spec.k_max()),
        "wigner": (pair_rhs, rng.standard_normal((4,) + spec.n),
                   spec.k_max() + 2.0 * np.linalg.norm(k)),
    }
    for name, (rhs, start, rate) in cases.items():
        for dt, steps in ((0.6 / rate, 30), (-1.8 / rate, 5)):
            out = rk4(rhs, start, dt, steps, rate, 1.0)
            wide = rk4(rhs, start, dt, steps, 1.5 * rate, 1.0)
            assert rel_err(wide, out) <= 1e-13, (name, dt, steps)


def test_rk4_refuses_a_nan_rate_before_any_rhs_call():
    # A NaN rate passes no step bound and gives the series no domain.
    def rhs(u):
        raise AssertionError("rhs called")

    with pytest.raises(StabilityError, match="rate = nan"):
        rk4(rhs, np.ones(4), 0.1, 3, np.nan, 1.0)


def test_benchmark_medium_run_applies_the_generator_at_most_40_times(
        monkeypatch):
    # 200 RK4 steps of dt = 0.002 on 16^3 in the cosine medium eps = 1 +
    # 0.15 cos x cos y: 800 right-hand sides when stepped.
    from pwfn import evolve as ev
    spec = cube(16)
    x = spec.coords()
    wave = np.cos(2 * np.pi * x[0] / spec.length[0]) \
        * np.cos(2 * np.pi * x[1] / spec.length[1])
    med = MediumMap(spec=spec, eps=1.0 + 0.15 * wave, mu=np.ones(spec.n))
    psi = random_field(spec, np.random.default_rng(5), kmax=3.0)
    calls = []
    medium_rhs = ev._medium_rhs

    def counted(*args):
        calls.append(1)
        return medium_rhs(*args)

    monkeypatch.setattr(ev, "_medium_rhs", counted)
    step_medium(psi, med, StepperConfig(dt=0.002), 200)
    rate = _medium_rate(spec, med)
    assert len(calls) == len(ev._rk4_series(0.002 * rate, 200)) - 1 <= 40


def test_rk4_series_tables_stay_small():
    # A run's coefficients come from samples near |dt| rate steps + 64, not
    # 4 steps + 1, and one series spans at most _SERIES_SPAN, so 10^5 steps
    # at a tiny dt, or at the step bound, sample a few thousand points
    # before the first rhs call, not 4e5 (a larger steps would make a
    # regression here allocate gigabytes).
    import tracemalloc
    from pwfn import evolve as ev

    class FirstCall(Exception):
        pass

    def stop(u):
        raise FirstCall

    ev._rk4_series(1e-9, 10)   # imports and caches outside the measurement
    for run, bound in ((lambda: ev._rk4_series(1e-9, 10**5), 1e6),
                       (lambda: rk4(stop, np.ones(4), 2.0 * np.sqrt(2.0),
                                    10**5, 1.0, 1.0), 4e6)):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            try:
                run()
            except FirstCall:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= bound, (peak - base, bound)


@pytest.mark.parametrize("blocks", [(0,), (1,), (0, 1)])
def test_turner_is_t_above_and_its_transpose_below(rng, blocks):
    # One table per point, T on an upper-block row of the stack and T^T on
    # a lower-block row: the per-point matrix product, written as einsum.
    from pwfn.evolve import _turner
    n = (3, 4, 5)
    table = rng.standard_normal((3, 3) + n) + 1j * rng.standard_normal(
        (3, 3) + n)
    data = rng.standard_normal((len(blocks), 3) + n) \
        + 1j * rng.standard_normal((len(blocks), 3) + n)
    ref = np.stack([np.einsum("ij...,j...->i...",
                              table.swapaxes(0, 1) if b else table, data[row])
                    for row, b in enumerate(blocks)])
    out = _turner(table, data, blocks)
    assert out.shape == data.shape
    assert rel_err(out, ref) <= 1e-15
    # a table broadcast from one point serves the whole lattice
    one = table[:, :, :1, :1, :1]
    ref = np.stack([np.einsum("ij,j...->i...",
                              (one.swapaxes(0, 1) if b else one)[..., 0, 0, 0],
                              data[row])
                    for row, b in enumerate(blocks)])
    assert rel_err(_turner(np.broadcast_to(one, table.shape), data, blocks),
                   ref) <= 1e-15


def _steppers(spec):
    """Every stepper of the package as a function of steps returning the
    final state's array, on spec."""
    from pwfn import geometry as geo
    from pwfn.phasespace import wigner_reduced_step
    psi = random_field(spec, np.random.default_rng(3), kmax=2.0)
    x = spec.coords()
    profile = 1.0 + 0.15 * np.cos(x[0]) * np.cos(x[1])
    varying_h = MediumMap(spec=spec, eps=profile, mu=1.0 / profile)
    cases = {
        "uniform rk4": (MediumMap.uniform(spec, 1.5, 1.0), "rk4"),
        "varying rk4": (_cosine_medium(spec), "rk4"),
        "uniform-h split": (MediumMap.uniform(spec), "split_step"),
        "varying-h split": (varying_h, "split_step"),
    }
    out = {name: (lambda steps, med=med, scheme=scheme: step_medium(
        psi, med, StepperConfig(dt=0.02, scheme=scheme), steps).data)
        for name, (med, scheme) in cases.items()}
    for name, metric in (("minkowski", geo.minkowski_metric(spec)),
                         ("conformal", geo.conformal_metric(spec, profile))):
        out[name] = (lambda steps, metric=metric: geo.step_curved(
            psi, metric, StepperConfig(dt=0.02), steps).data)

    def wigner(steps):
        w, u = wigner_reduced_step(spec, (0.0, 0.0, 1.0), np.cos(x[0]),
                                   np.zeros((3,) + spec.n), 0.02, steps)
        return np.concatenate([w[None], u])

    out["wigner"] = wigner
    out["rk4"] = lambda steps: rk4(lambda y: -1j * y, np.ones(4), 0.1, steps,
                                   1.0, 0.5)
    return psi, out


@pytest.mark.parametrize("steps", [-1, 2.5, 1.0, "2", None])
def test_every_stepper_refuses_bad_steps_before_any_work(monkeypatch, steps):
    # Unchecked, steps = -1 steps backwards once (uniform medium, Minkowski),
    # returns the input (varying RK4) or makes half a kinetic step
    # (split_step), and 2.5 takes a fractional power of the per-mode RK4
    # factor.
    from pwfn import evolve as ev
    spec = cube(8)
    psi, steppers = _steppers(spec)
    before = psi.data.copy()

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the steps check")

    for name in ("_fft", "_ifft", "_medium_rhs", "_kinetic", "_turner"):
        monkeypatch.setattr(ev, name, no_work)
    for name, run in steppers.items():
        with pytest.raises(DomainError, match="steps") as err:
            run(steps)
        assert err.value.arg == "steps", name
    assert np.array_equal(psi.data, before)


def test_steps_accepts_integers_of_any_integer_type():
    spec = cube(8)
    _, steppers = _steppers(spec)
    for name, run in steppers.items():
        assert np.array_equal(run(2), run(np.int64(2))), name


def test_zero_steps_return_the_input_exactly():
    # After the steps and step-bound checks, no step is no work: a varying
    # medium's RK4 does not pass the state through sqrt(v) and the sector
    # transforms.
    spec = cube(8)
    psi, steppers = _steppers(spec)
    x = spec.coords()
    starts = {"wigner": np.concatenate([np.cos(x[0])[None],
                                        np.zeros((3,) + spec.n)]),
              "rk4": np.ones(4)}
    for name, run in steppers.items():
        assert np.array_equal(run(0), starts.get(name, psi.data)), name
