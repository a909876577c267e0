import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft as sfft

from pwfn import metrics as mt, spectral
from pwfn.errors import DomainError, NormalizationError, ResourceError
from pwfn.evolve import propagate_free
from pwfn.fieldcore import (CYCLIC, classical_energy,
                            classical_moment_of_energy, classical_momentum)
from pwfn.metrics import GeneratorTag as G
from pwfn.spectral import (GridSpec, HelicitySpectrum, SixField, decompose,
                           positive_frequency_project, synthesize)
from pwfn.states import (balanced_packet_params, gaussian_packet,
                         gaussian_packet_spectrum, plane_wave_mode)

from conftest import cube, random_field, random_spectrum, rel_err


def test_scalar_product_momentum_basics(rng):
    spec = cube(8)
    mode = plane_wave_mode(spec, (0, 0, 2))
    assert abs(mt.photon_number(mode) - 1.0) < 1e-13
    other = plane_wave_mode(spec, (0, 2, 0))
    assert abs(mt.scalar_product_momentum(mode, other)) < 1e-15
    s = random_spectrum(spec, rng, kmax=2.5, normalize=True)
    assert abs(mt.photon_number(s) - 1.0) < 1e-12
    # conjugate symmetry
    t = random_spectrum(spec, rng, kmax=2.5)
    ab = mt.scalar_product_momentum(s, t)
    ba = mt.scalar_product_momentum(t, s)
    assert abs(ab - np.conj(ba)) < 1e-13 * abs(ab)


def test_photon_number_two_mode_energy_split():
    # two modes holding one photon's energy each: N = 2
    spec = cube(8)
    amp = np.zeros((2,) + spec.n, dtype=complex)
    for idx, lam in (((0, 0, 1), 0), ((0, 2, 0), 1)):
        knorm = np.linalg.norm(spec.k_grid()[:, idx[0], idx[1], idx[2]])
        amp[lam][idx] = np.sqrt(spec.volume * knorm)
    spectrum = HelicitySpectrum(spec=spec, amp=amp)
    assert abs(mt.photon_number(spectrum) - 2.0) < 1e-12
    obs = mt.observables_momentum(spectrum)
    assert abs(obs.energy - (1.0 + 2.0)) < 1e-12


def test_scalar_product_coordinate_spectral_path_is_definition(rng):
    spec = cube(8)
    a = random_field(spec, rng, kmax=2.0)
    b = random_field(spec, rng, kmax=2.0)
    lhs = mt.scalar_product_coordinate(a, b, method="spectral")
    rhs = mt.scalar_product_momentum(decompose(a), decompose(b))
    assert abs(lhs - rhs) < 1e-14 * abs(rhs)


def test_scalar_product_direct_sum_oracle(rng):
    spec = cube(8)
    a = random_field(spec, rng, kmax=2.0)
    b = random_field(spec, rng, kmax=2.0)
    direct = mt.scalar_product_coordinate(a, b, method="direct")
    spectral = mt.scalar_product_coordinate(a, b, method="spectral")
    scale = np.sqrt(mt.norm_h(a) * mt.norm_h(b))
    assert abs(direct - spectral) / scale < 0.02


def test_scalar_product_direct_cap():
    spec = cube(32)
    psi = SixField.zeros(spec)
    with pytest.raises(ResourceError):
        mt.scalar_product_coordinate(psi, psi, method="direct")


def test_observables_single_mode_helicity():
    spec = cube(8)
    for lam_index, lam in ((0, +1), (1, -1)):
        mode = plane_wave_mode(spec, (0, 0, 2), helicity=lam)
        obs = mt.observables_momentum(mode)
        assert abs(obs.energy - 2.0) < 1e-12
        assert np.max(np.abs(obs.momentum - [0, 0, 2.0])) < 1e-12
        assert abs(obs.angular_momentum[2] - lam) < 1e-12


def test_observables_dual_representation_diagonal(rng):
    spec = cube(16, length=4 * np.pi)
    spectrum = gaussian_packet_spectrum(spec, (3.0, 0.8, 0.5), 0.55,
                                        r_center=(0.3, -0.2, 0.5))
    psi = synthesize(spectrum, 0.0)
    om = mt.observables_momentum(spectrum)
    oc = mt.observables_coordinate(psi)
    assert abs(om.energy - oc.energy) < 1e-11 * om.energy
    assert np.max(np.abs(om.momentum - oc.momentum)) < 1e-11 * om.energy


def _momentum_coordinate_gap(spectrum):
    """Largest |J| and |K| difference between the two representations of
    a spectrum normalized to one photon, relative to its energy."""
    spectrum.amp /= np.sqrt(mt.photon_number(spectrum))
    om = mt.observables_momentum(spectrum)
    oc = mt.observables_coordinate(synthesize(spectrum, 0.0))
    return max(np.max(np.abs(om.angular_momentum - oc.angular_momentum)),
               np.max(np.abs(om.moment_of_energy - oc.moment_of_energy))) \
        / oc.energy


def test_observables_dual_representation_position_weighted():
    # the spectral k derivative is the coordinate x by Parseval, so the two
    # representations agree to roundoff on either grid
    for n, lf in ((24, 2.0), (48, 4.0)):
        spec = cube(n, length=2 * np.pi * lf)
        spectrum = gaussian_packet_spectrum(spec, (3.0, 0.5, 1.0), 0.6,
                                            r_center=(0.4, -0.3, 0.2))
        assert _momentum_coordinate_gap(spectrum) <= 1e-12


def test_observables_moment_tracks_energy_centroid():
    spec = cube(16, length=4 * np.pi)
    r0 = (0.8, -0.5, 0.3)
    psi = gaussian_packet(spec, (3.0, 0.0, 0.0), 0.9, r_center=r0)
    oc = mt.observables_coordinate(psi)
    rho, _ = mt.energy_density(psi)
    coords = spec.coords()
    centroid = np.array([np.sum(coords[i] * rho) for i in range(3)])
    centroid *= spec.cell_volume
    assert np.max(np.abs(oc.moment_of_energy - centroid * oc.energy)) \
        < 1e-10 * oc.energy


def test_observables_reproduce_classical_bilinears(rng):
    # unnormalized positive-frequency expectation values equal the classical
    # field integrals built from real transverse (D, B) data
    from conftest import random_classical_field
    spec = cube(12)
    calf = random_classical_field(spec, rng, kmax=2.5, transverse=True)
    psi = positive_frequency_project(calf)
    f = calf.upper
    dv = spec.cell_volume
    coords = spec.coords()
    e_cl = classical_energy(f, dv)
    p_cl = classical_momentum(f, dv)
    n_cl = classical_moment_of_energy(f, coords, dv)
    spectrum = decompose(psi)
    om = mt.observables_momentum(spectrum)
    assert abs(om.energy - e_cl) < 1e-11 * e_cl
    assert np.max(np.abs(om.momentum - p_cl)) < 1e-11 * e_cl
    # the position-weighted moment picks up counter-rotating interference
    # that only integrates away for localized fields; on a periodic box of
    # extended random waves it survives at the few-percent level
    dens = np.sum(np.abs(psi.data) ** 2, axis=(0, 1))
    n_q = np.array([np.sum(coords[i] * dens) for i in range(3)]) * dv
    assert np.max(np.abs(n_q - n_cl)) < 0.05 * e_cl


def test_observables_near_the_k_z_axis_match_coordinate():
    # support on the k_z axis, and at (1, 0, 2), inside the cone of
    # sin(theta) < 0.9 where the spherical gauge's connection is large:
    # the derivative of the Cartesian amplitude needs no gauge
    spec = cube(8)
    for index in ((0, 0, 2), (1, 0, 2)):
        amp = np.zeros((2,) + spec.n, dtype=complex)
        amp[(0,) + index] = 1.0
        assert _momentum_coordinate_gap(
            HelicitySpectrum(spec=spec, amp=amp)) <= 1e-12


# Packets that the centered k difference in the spherical gauge got wrong
# at order one: a translated packet (K_y 2.2561 against 2.5456) and a
# packet along k_z off the origin (J_x 0.163 against 1.826).
PROBE_PACKETS = {
    "translated": ((2.4, -0.8, 1.6), (0.0, 0.65, 0.0)),
    "k_z axis": ((0.0, 0.0, 2.0), (0.2, 0.1, 0.0)),
}


@pytest.mark.parametrize("helicity", [1, -1])
@pytest.mark.parametrize("packet", list(PROBE_PACKETS))
def test_observables_probe_packets_match_coordinate(packet, helicity):
    k_center, r_center = PROBE_PACKETS[packet]
    spec = cube(32, length=4 * np.pi)
    spectrum = gaussian_packet_spectrum(spec, k_center, 0.66, helicity,
                                        r_center)
    measured, bound = _momentum_coordinate_gap(spectrum), 1e-12
    ok = measured <= bound
    print(f"[{'PASS' if ok else 'FAIL'}] {packet} packet, helicity "
          f"{helicity:+d}: J and K, momentum vs coordinate rep / energy: "
          f"{measured:.3e} (<= {bound:.3e})")
    assert ok, (measured, bound)


def _observables_momentum_reference(spectrum):
    """observables_momentum written out per component: explicit n and
    1/(V |k|) weight, the k derivative of the Cartesian amplitude
    a = e phi (e* phi for lambda = -1) as the 3-D form to_k(-i x to_r(a)),
    and np.cross."""
    spec = spectrum.spec
    kvec = spec.k_grid()
    knorm = spec.k_norm()
    nz = knorm > 0
    weight = np.zeros_like(knorm)
    weight[nz] = 1.0 / (spec.volume * knorm[nz])
    nhat = np.zeros_like(kvec)
    nhat[:, nz] = kvec[:, nz] / knorm[nz]
    e, _, _ = spectral.triad_arrays(spec)
    x = spec.coords()
    energy = 0.0
    momentum = np.zeros(3)
    ang = np.zeros(3)
    moe = np.zeros(3)
    for lam_index, lam in enumerate(HelicitySpectrum.LAMBDAS):
        phi = spectrum.amp[lam_index]
        p2 = np.abs(phi) ** 2
        energy += float(np.sum(p2[nz] / spec.volume))
        momentum += [np.sum(weight * kvec[i] * p2) for i in range(3)]
        a = (e if lam == 1 else np.conj(e)) * phi
        # g = Re(phi* (1/i) D phi) = sum_c Im(a_c* d a_c)
        g = np.zeros((3,) + spec.n)
        for c in range(3):
            field = spectral.to_r(spec, a[c])
            for m in range(3):
                da = spectral.to_k(spec, -1j * x[m] * field)
                g[m] += np.imag(np.conj(a[c]) * da)
        kxg = np.cross(kvec, g, axisa=0, axisb=0, axisc=0)
        ang += [np.sum(weight * kxg[i]) + lam * np.sum(weight * nhat[i] * p2)
                for i in range(3)]
        moe -= [np.sum(weight * knorm * g[i]) for i in range(3)]
    return energy, momentum, ang, moe


def test_observables_momentum_matches_component_form():
    # anisotropic box, both helicities, packets off the box centre
    spec = GridSpec(n=(24, 20, 16), length=(10.0, 9.0, 8.0))
    psi = gaussian_packet(spec, (2.0, 1.2, -0.8), 0.6, helicity=1,
                          r_center=(0.7, -0.4, 0.5))
    psi.data += gaussian_packet(spec, (-1.0, 1.5, 1.0), 0.5, helicity=-1,
                                r_center=(-0.6, 0.3, -0.2)).data
    spectrum = decompose(psi)
    obs = mt.observables_momentum(spectrum)
    energy, momentum, ang, moe = _observables_momentum_reference(spectrum)
    assert abs(obs.energy - energy) <= 1e-14 * energy
    for got, ref in ((obs.momentum, momentum), (obs.angular_momentum, ang),
                     (obs.moment_of_energy, moe)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * energy
    assert np.max(np.abs(ang)) > 0.1 * energy   # the J terms are exercised
    assert np.max(np.abs(moe)) > 0.1 * energy


# Amplitudes of a spectrum on a few k points, (helicity, index): value.
# The two (+) points at (1, 2, *) share their line along k_z, and the
# 1e-17 point lies below the live tolerance, 16 eps of the largest |phi|.
FEW_LINES = {(0, (1, 2, 3)): 1.0 + 0.5j, (0, (1, 2, -2)): -0.7j,
             (0, (-3, 1, 2)): 0.4, (0, (2, -4, -1)): 1e-13,
             (0, (4, 3, 1)): 1e-17, (1, (2, -1, 1)): 0.8 - 0.3j,
             (1, (-1, 0, -3)): 0.6}


def test_momentum_observables_transform_the_live_k_lines_only():
    spec = GridSpec(n=(12, 10, 8), length=(7.0, 6.0, 5.0))
    amp = np.zeros((2,) + spec.n, dtype=complex)
    for (b, index), value in FEW_LINES.items():
        amp[(b,) + index] = value
    spectrum = HelicitySpectrum(spec=spec, amp=amp)
    obs, counts = _transforms(mt.observables_momentum, spectrum)
    # per helicity and axis m, one transform each way of the three
    # components on the lines along m through the live points
    points = 0
    for b in range(2):
        live = [index for (h, index), value in FEW_LINES.items()
                if h == b and abs(value) > 1e-15]
        for m, n_m in enumerate(spec.n):
            lines = {index[:m] + index[m + 1:] for index in live}
            points += 3 * len(lines) * n_m
    assert points < 0.1 * 2 * 3 * 3 * spec.npoints
    assert counts == {"fft_calls": 6, "fft_points": points,
                      "ifft_calls": 6, "ifft_points": points,
                      "fft_axis_points": points,
                      "ifft_axis_points": points}, counts
    energy, momentum, ang, moe = _observables_momentum_reference(spectrum)
    assert abs(obs.energy - energy) <= 1e-14 * energy
    for got, ref in ((obs.momentum, momentum), (obs.angular_momentum, ang),
                     (obs.moment_of_energy, moe)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * energy


@pytest.mark.parametrize("helicities", [(0,), (1,), (0, 1)])
def test_coordinate_observables_of_a_spectrum_equal_its_synthesis(
        rng, helicities):
    # A spectrum's psi and 1/H psi are synthesized from its amplitudes, a
    # field's read from its raw transform: they agree to roundoff.
    spec = GridSpec(n=(16, 12, 10), length=(8.0, 7.0, 6.0))
    spectrum = random_spectrum(spec, rng, kmax=2.5, helicities=helicities,
                               normalize=True)
    spectrum = spectral.translate(spectrum, (0.4, -0.3, 0.2))
    got, counts = _transforms(mt.observables_coordinate, spectrum)
    ref = mt.observables_coordinate(synthesize(spectrum))
    for name in ("energy", "momentum", "angular_momentum",
                 "moment_of_energy"):
        gap = np.max(np.abs(getattr(got, name) - getattr(ref, name)))
        assert gap <= 1e-15 * ref.energy, (name, gap)
    # two syntheses of the live blocks and three one-axis P_m pairs; no
    # forward transform of psi
    block = 3 * len(helicities) * spec.npoints
    assert counts == {"fft_calls": 3, "fft_points": 3 * block,
                      "ifft_calls": 5, "ifft_points": 5 * block,
                      "fft_axis_points": 3 * block,
                      "ifft_axis_points": 9 * block}, counts


def test_observables_coordinate_requires_normalization(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    with pytest.raises(NormalizationError) as err:
        mt.observables_coordinate(psi)
    assert err.value.measured_norm is not None
    spectrum = random_spectrum(spec, rng, kmax=2.0)
    n2 = mt.photon_number(spectrum)
    with pytest.raises(NormalizationError) as err:
        mt.observables_coordinate(spectrum)
    assert err.value.measured_norm == n2 != 1.0


def test_energy_density_and_current(rng):
    spec = cube(12)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    rho, j = mt.energy_density(mode)
    assert np.ptp(rho) < 1e-13 * np.max(rho)
    assert rel_err(j[2], rho) < 1e-12
    assert np.max(np.abs(j[0])) < 1e-13 * np.max(rho)
    assert abs(np.sum(rho) * spec.cell_volume - 1.0) < 1e-12
    with pytest.raises(DomainError):
        mt.energy_density(SixField.zeros(spec))


def test_energy_density_continuity(rng):
    spec = cube(16)
    psi = gaussian_packet(spec, (2.0, 0.0, 0.0), 0.8)
    dt = 1e-3
    rho_m, _ = mt.energy_density(propagate_free(psi, -dt))
    rho_p, _ = mt.energy_density(propagate_free(psi, +dt))
    _, j = mt.energy_density(psi)
    kvec = spec.k_grid_diff()
    from pwfn.spectral import to_k, to_r
    div_j = sum(to_r(spec, 1j * kvec[i] * to_k(spec, j[i].astype(complex))).real
                for i in range(3))
    resid = (rho_p - rho_m) / (2 * dt) + div_j
    assert np.max(np.abs(resid)) < 1e-5 * np.max(np.abs(div_j))


def test_energy_probability(rng):
    from pwfn.states import standing_wave_classical
    spec = cube(12)
    psi = gaussian_packet(spec, (3.0, 0.0, 0.0), 1.0)
    L = spec.length[0]
    full = mt.energy_probability(psi, ((-L / 2, L / 2),) * 3)
    assert abs(full - 1.0) < 1e-12
    # a standing wave is exactly symmetric: half the box holds half of it
    standing = standing_wave_classical(spec, k_index=(0, 0, 1))
    half = mt.energy_probability(
        standing, ((-L / 2, L / 2), (-L / 2, L / 2), (-L / 2, 0.0)))
    assert abs(half - 0.5) < 1e-12
    with pytest.warns(UserWarning):
        empty = mt.energy_probability(psi, ((2.0, 2.0),) * 3)
    assert empty == 0.0
    # monotone in region inclusion; matches a direct lattice sum
    quarter = mt.energy_probability(
        psi, ((-L / 4, L / 4), (-L / 2, L / 2), (-L / 2, L / 2)))
    assert 0.0 < quarter <= full + 1e-14
    rho, _ = mt.energy_density(psi)
    coords = spec.coords()
    mask = (coords[0] >= -L / 4) & (coords[0] < L / 4)
    direct = float(np.sum(rho[mask]) * spec.cell_volume)
    assert abs(quarter - direct) < 1e-14


def test_landau_peierls_single_mode_and_norms(rng):
    spec = cube(12)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 4), amplitude=1.0), t=0.0)
    phi = mt.landau_peierls(mode)
    assert rel_err(phi.data, 0.5 * mode.data) < 1e-13
    a = random_field(spec, rng, kmax=3.0)
    b = random_field(spec, rng, kmax=3.0)
    lhs = mt.scalar_product_momentum(decompose(a), decompose(b))
    pa = mt.landau_peierls(a)
    pb = mt.landau_peierls(b)
    rhs = np.sum(np.conj(pa.data) * pb.data) * spec.cell_volume
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    # double application is the inverse-|k| multiplier
    twice = mt.landau_peierls(phi)
    assert rel_err(twice.data, 0.25 * mode.data) < 1e-12


def test_landau_peierls_rejects_dc(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    psi.data[0, 0] += 1.0
    with pytest.raises(DomainError):
        mt.landau_peierls(psi)


def test_kernel_identity_three_separations():
    for r1, r2 in [((0, 0, 0), (1.0, 0, 0)),
                   ((0.3, 0.2, 0.1), (0.3, 0.2, 2.1)),
                   ((0.1, -0.2, 0.0), (0.4, 0.1, 0.3))]:
        lhs, rhs = mt.kernel_identity_check(np.array(r1), np.array(r2))
        assert abs(lhs - rhs) < 0.01 * rhs
    with pytest.raises(DomainError):
        mt.kernel_identity_check(np.zeros(3), np.zeros(3))


def test_kernel_identity_scaling_invariance():
    r1 = np.array([0.2, 0.1, -0.3])
    r2 = np.array([-0.4, 0.5, 0.2])
    base, _ = mt.kernel_identity_check(r1, r2)
    scaled, _ = mt.kernel_identity_check(3.0 * r1, 3.0 * r2)
    assert abs(scaled * 9.0 - base) < 1e-4 * base


def test_newton_wigner_kernel():
    m = 1.0
    # exponential decay against the corrected asymptotic form
    r = 20.0
    from scipy.special import gamma as gfun
    c0 = 2.0 / ((4 * np.pi) ** 1.5 * gfun(0.25))
    asym = c0 * (2 * m / r) ** 1.25 * np.sqrt(np.pi / (2 * m * r)) \
        * np.exp(-m * r) * (1 + (4 * 1.25**2 - 1) / (8 * m * r))
    assert abs(mt.newton_wigner_kernel(r, m) - asym) < 0.01 * asym
    # massless limit is the nonlocal photon kernel
    r = 1e-4
    limit = np.pi / (2 * np.pi * r) ** 2.5
    assert abs(mt.newton_wigner_kernel(r, m) / limit - 1.0) < 0.01
    # monotone decreasing
    rr = np.linspace(0.1, 5.0, 40)
    vals = mt.newton_wigner_kernel(rr, m)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(DomainError):
        mt.newton_wigner_kernel(-1.0, 1.0)


def test_generator_eigenmodes():
    spec = cube(8)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    h = mt.generator_apply(G.H, mode)
    assert rel_err(h.data, 2.0 * mode.data) < 1e-12
    p = mt.generator_apply(G.P_Z, mode)
    assert rel_err(p.data, 2.0 * mode.data) < 1e-12
    j = mt.generator_apply(G.J_Z, mode)
    assert rel_err(j.data, 1.0 * mode.data) < 1e-12
    modem = synthesize(plane_wave_mode(spec, (0, 0, 2), helicity=-1), t=0.0)
    jm = mt.generator_apply(G.J_Z, modem)
    assert rel_err(jm.data, -1.0 * modem.data) < 1e-12


def test_generator_hermiticity_physical_product(rng):
    spec = cube(32, length=4 * np.pi)
    k0, sig = balanced_packet_params(spec)
    a = gaussian_packet(spec, k0, sig, r_center=(0.2, 0.1, -0.3))
    b = gaussian_packet(spec, k0 + np.array([0.3, 0.2, -0.1]), sig)
    for tag in G:
        ta = mt.generator_apply(tag, a)
        tb = mt.generator_apply(tag, b)
        lhs = mt.scalar_product_momentum(decompose(ta), decompose(b))
        rhs = mt.scalar_product_momentum(decompose(a), decompose(tb))
        assert abs(lhs - rhs) < 1e-8, tag


def test_commutators_flat_pairs(rng):
    spec = cube(16)
    psi = random_field(spec, rng, kmax=3.0)
    assert mt.commutator_residual(G.P_X, G.P_Y, psi) < 1e-12
    assert mt.commutator_residual(G.P_X, G.H, psi) < 1e-12


def test_commutator_sweep_matches_single_pairs():
    spec = cube(16, length=4 * np.pi)
    k0, sig = balanced_packet_params(spec)
    psi = gaussian_packet(spec, k0, sig)
    sweep = mt.commutator_residuals(psi)
    tags = list(G)
    pairs = [(a, b) for i, a in enumerate(tags) for b in tags[i + 1:]]
    assert [(a, b) for a, b, _ in sweep] == pairs
    for a, b, r in sweep:
        single = mt.commutator_residual(a, b, psi)
        assert abs(r - single) <= 1e-15 * max(abs(single), 1e-300), (a, b)


def _transforms(fn, *args):
    """fn(*args) and the spectral transform counters it added."""
    spectral.reset_transform_counts()
    out = fn(*args)
    return out, spectral.transform_counts()


def test_rotation_generator_transforms_two_gradient_components(rng):
    # A plane-wave mode transforms its live block of three components
    # only, a two-helicity field both blocks of six.
    spec = cube(8)
    for psi, components in (
            (synthesize(plane_wave_mode(spec, (1, 0, 2)), t=0.0), 3),
            (random_field(spec, rng, kmax=2.5), 6)):
        for tag in (G.J_X, G.J_Y, G.J_Z):
            _, counts = _transforms(mt.generator_apply, tag, psi)
            # two gradient components, each one transform pair of the live
            # blocks along its own axis
            points = 2 * components * spec.npoints
            assert counts == {"fft_calls": 2, "fft_points": points,
                              "ifft_calls": 2, "ifft_points": points,
                              "fft_axis_points": points,
                              "ifft_axis_points": points}, tag


def _bracket(a, b):
    """[A, B] as {C: c} for [A, B] = c C, read from the algebra table."""
    term = mt._ALGEBRA.get((a, b))
    return {} if term is None else {term[0]: term[1]}


def test_expected_commutator_is_the_algebra_image(rng):
    # [K_x, P_x] = i H and [J_x, J_y] = i J_z, each as i times the image
    # of generator_apply bit for bit; a commuting pair predicts zeros.
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    for a, b, c in ((G.K_X, G.P_X, G.H), (G.J_X, G.J_Y, G.J_Z)):
        out = mt.expected_commutator(a, b, psi)
        assert out.spec == spec
        assert np.array_equal(out.data, 1j * mt.generator_apply(c, psi).data)
    for a, b in ((G.P_X, G.P_Y), (G.H, G.J_Z)):
        out = mt.expected_commutator(a, b, psi)
        assert out.spec == spec and out.data.shape == psi.data.shape
        assert not np.any(out.data)


def test_poincare_algebra_table_is_antisymmetric_and_obeys_jacobi():
    tags = list(G)
    for a, b in itertools.product(tags, repeat=2):
        ab, ba = mt._ALGEBRA.get((a, b)), mt._ALGEBRA.get((b, a))
        assert (ab is None) == (ba is None), (a, b)
        if ab is not None:
            assert ab[0] is ba[0] and ab[1] == -ba[1], (a, b)
    # [[A, B], C] + [[B, C], A] + [[C, A], B] = 0 for all 1000 triples
    worst = 0.0
    for a, b, c in itertools.product(tags, repeat=3):
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for inner, c1 in _bracket(x, y).items():
                for outer, c2 in _bracket(inner, z).items():
                    total[outer] = total.get(outer, 0.0) + c1 * c2
        worst = max([worst] + [abs(v) for v in total.values()])
    assert worst == 0.0
    # The rules themselves: [J_i, X_j] = i eps_ijk X_k, [K_i, K_j] =
    # -i eps_ijk J_k, [K_i, P_j] = i delta_ij H, [K_i, H] = i P_i.
    assert len(mt._ALGEBRA) == 48
    for (a, b), expected in {(G.J_X, G.P_Y): (G.P_Z, 1j),
                             (G.J_Z, G.J_Y): (G.J_X, -1j),
                             (G.J_Y, G.K_Z): (G.K_X, 1j),
                             (G.K_X, G.K_Y): (G.J_Z, -1j),
                             (G.K_Y, G.P_Y): (G.H, 1j),
                             (G.K_Z, G.H): (G.P_Z, 1j)}.items():
        assert mt._ALGEBRA[a, b] == expected, (a, b)
    for a, b in [(G.H, G.P_X), (G.P_X, G.P_Y), (G.K_X, G.P_Y),
                 (G.H, G.J_Z)]:
        assert (a, b) not in mt._ALGEBRA


def _generator_apply_data(tag, spec, data):
    return mt.generator_apply(tag, SixField(spec=spec, data=data)).data


def _pairwise_sweep(psi, apply=_generator_apply_data):
    """The 45 residuals with every second-level image applied by its own
    apply(tag, spec, data) call, generator_apply by default."""
    tags = list(G)
    images = {tag: apply(tag, psi.spec, psi.data) for tag in tags}
    out = []
    for i, tag_a in enumerate(tags):
        for tag_b in tags[i + 1:]:
            resid = apply(tag_a, psi.spec, images[tag_b])
            resid -= apply(tag_b, psi.spec, images[tag_a])
            term = mt._ALGEBRA.get((tag_a, tag_b))
            if term is not None:
                resid -= images[term[0]] * term[1]
            out.append((tag_a, tag_b,
                        mt._relative_norm(resid, psi.spec, psi.norm())))
    return out


def _balanced_packet(n):
    spec = cube(n, length=4 * np.pi)
    k0, sig = balanced_packet_params(spec)
    return gaussian_packet(spec, k0, sig)


def test_commutator_sweep_equals_pairwise_sweep():
    psi = _balanced_packet(16)
    assert mt.commutator_residuals(psi) == _pairwise_sweep(psi)
    # The shared transform keeps the arithmetic of grad and of curl.
    spec = psi.spec
    grad = spectral.grad(spec, psi.data)
    for ax, tag in enumerate((G.P_X, G.P_Y, G.P_Z)):
        assert np.array_equal(1j * mt.generator_apply(tag, psi).data,
                              grad[:, :, ax]), tag
    h = spectral.curl(spec, psi.data)
    h[1] *= -1
    assert np.array_equal(mt.generator_apply(G.H, psi).data, h)


# An anisotropic grid and a packet of each helicity, so each block is
# the live one once; the whole-field references below transform both.
_ANISOTROPIC = GridSpec(n=(8, 12, 10),
                        length=(4 * np.pi, 5 * np.pi, 4.5 * np.pi))


def _definite_helicity_packet(helicity):
    return gaussian_packet(_ANISOTROPIC, (0.8, -0.6, 0.7), 0.6, helicity)


def _reference_image(tag, spec, data):
    """tag psi on whole (2, 3, n...) data from the public grad and curl."""
    deriv = -1j * spectral.grad(spec, data)   # (1/i) d_m at [:, :, m]
    if tag.family in "HK":
        if tag is G.H:
            out = spectral.curl(spec, data)
        else:
            # K_i = H (x_i psi): along each axis a != i, where x_i is
            # constant, x_i times the terms of psi; along axis i those of
            # x_i psi
            i, x = tag.axis, spec.coords()[tag.axis]
            along_i = -1j * spectral.grad(spec, x * data)

            def term(a, b):
                return x * deriv[:, b, a] if a != i else along_i[:, b, i]
            out = np.stack([1j * (term(a, b) - term(b, a))
                            for a, b in CYCLIC], axis=1)
        out[1] *= -1
        return out
    if tag.family == "P":
        return deriv[:, :, tag.axis]
    x = spec.coords()
    j, k = CYCLIC[tag.axis]
    out = x[j] * deriv[:, :, k]
    out -= x[k] * deriv[:, :, j]
    out[:, j] -= 1j * data[:, k]
    out[:, k] += 1j * data[:, j]
    return out


@pytest.mark.parametrize("helicity", [1, -1])
def test_generators_transform_only_the_live_block(helicity):
    psi = _definite_helicity_packet(helicity)
    dead = HelicitySpectrum.LAMBDAS.index(-helicity)
    assert np.any(psi.data[1 - dead]) and not np.any(psi.data[dead])
    for tag in G:
        image = mt.generator_apply(tag, psi).data
        reference = _reference_image(tag, psi.spec, psi.data)
        assert np.array_equal(image, reference), tag
        assert not np.any(image[dead]), tag
    assert (mt.commutator_residuals(psi)
            == _pairwise_sweep(psi, _reference_image))
    spec = psi.spec
    inverse = mt.inverse_hamiltonian_apply(psi).data
    axes = (-3, -2, -1)
    reference = sfft.ifftn(sfft.fftn(psi.data, axes=axes) * spec.k_inverse(),
                           axes=axes)
    assert np.array_equal(inverse, reference) and not np.any(inverse[dead])


@pytest.mark.parametrize("helicity", [1, -1])
def test_coordinate_observables_of_the_live_block_equal_the_whole_field(
        monkeypatch, helicity):
    psi = _definite_helicity_packet(helicity)
    live = mt.observables_coordinate(psi)
    # the same code with both blocks taken as live
    monkeypatch.setattr(mt, "_live_blocks", lambda data: (range(2), data))
    whole = mt.observables_coordinate(psi)
    for name in ("energy", "momentum", "angular_momentum", "moment_of_energy"):
        assert np.array_equal(getattr(live, name), getattr(whole, name)), name


def test_commutator_sweep_transforms_each_image_once():
    # Every transform is a pair along one axis.  psi and each of the ten
    # images get a jet, which builds its three derivative fields once: 33
    # pairs of the live block.  Each of the 30 K_i applications transforms
    # x_i psi_b along axis i for the two b != i; it reads its other terms
    # D_a psi_b, a != i, from the fields along the two axes a, and the jets
    # are made in an order in which 22 find both fields held and 8 find
    # one, transforming the other axis's two terms alone: 30 x 2 + 8 x 2 =
    # 76 one-component pairs.
    for n in (8, 32):
        psi = _balanced_packet(n)
        stack = psi.data.size // 2
        _, counts = _transforms(mt.commutator_residuals, psi)
        points = 33 * stack + 76 * stack // 3
        assert counts == {"fft_calls": 109, "fft_points": points,
                          "ifft_calls": 109, "ifft_points": points,
                          "fft_axis_points": points,
                          "ifft_axis_points": points}, n
        # 350 passes of one grid along one axis; 3-D transforms of the
        # block (41 forward, 73 inverse) made 1026
        passes = 2 * points // psi.spec.npoints
        print(f"{n}^3 sweep: {passes} grid-axis passes (<= 600)")
        assert passes == 350 <= 600
    # Pairs apart: P and J read whole derivative fields, and psi's serve
    # the predicted side; H and K transform one component per term they
    # read from no held field (H 6 of them, K 4 + 2).
    for (a, b), forward in {(G.H, G.J_X): 4 + 12, (G.P_X, G.J_Y): 5,
                            (G.J_X, G.J_Y): 7, (G.K_X, G.P_X): 2 + 16}.items():
        _, counts = _transforms(mt.commutator_residual, a, b, psi)
        assert counts["fft_calls"] == counts["ifft_calls"] == forward, (a, b)


def _two_helicity_packet(n, rng):
    """Normalized positive-frequency field with both helicities on the
    grid of _balanced_packet(n)."""
    return random_field(cube(n, length=4 * np.pi), rng, kmax=2.0,
                        normalize=True)


def _peak_six_fields(fn, psi):
    """Peak memory fn(psi) allocates beyond its start, in units of psi."""
    fn(psi)   # builds the grid tables
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        fn(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / psi.data.nbytes


def test_commutator_sweep_memory_bound(rng):
    # A definite-helicity sweep holds images of its live block only: it
    # measured 16.9 six-field sizes, against 33.4 with both blocks live.
    for psi, bound in ((_two_helicity_packet(16, rng), 35),
                       (_balanced_packet(16), 18.5)):
        peak = _peak_six_fields(mt.commutator_residuals, psi)
        assert peak <= bound, (peak, bound)


def test_commutator_j_and_k_pairs_balanced_packet():
    spec = cube(64, length=4 * np.pi)
    k0, sig = balanced_packet_params(spec)
    psi = gaussian_packet(spec, k0, sig)
    assert mt.commutator_residual(G.J_X, G.J_Y, psi) < 1e-8
    assert mt.commutator_residual(G.K_X, G.K_Y, psi) < 1e-6
    assert mt.commutator_residual(G.K_X, G.H, psi) < 1e-6


def test_coordinate_observables_transform_once(rng):
    # The live blocks are transformed: both blocks of a two-helicity
    # field, the one block of a definite-helicity packet.
    size = _balanced_packet(8).data.size
    for psi, block in ((_balanced_packet(8), size // 2),
                       (_two_helicity_packet(8, rng), size)):
        # one raw transform serves the checks, the norm and 1/H psi; each
        # P_m psi is one transform pair along axis m
        _, counts = _transforms(mt.observables_coordinate, psi)
        assert counts == {"fft_calls": 4, "fft_points": 4 * block,
                          "ifft_calls": 4, "ifft_points": 4 * block,
                          "fft_axis_points": 6 * block,
                          "ifft_axis_points": 6 * block}, counts
        _, counts = _transforms(mt.inverse_hamiltonian_apply, psi)
        assert counts == {"fft_calls": 1, "fft_points": block,
                          "ifft_calls": 1, "ifft_points": block,
                          "fft_axis_points": 3 * block,
                          "ifft_axis_points": 3 * block}, counts


def test_coordinate_observables_memory_bound(rng):
    # raw, bra and image hold the live blocks only: a definite-helicity
    # packet measured 1.92 six-field sizes, against 3.42 with both live.
    for psi, bound in ((_two_helicity_packet(32, rng), 4.5),
                       (_balanced_packet(32), 2.1)):
        peak = _peak_six_fields(mt.observables_coordinate, psi)
        assert peak <= bound, (peak, bound)


def _with_non_positive_frequency(psi, level, rng):
    """psi plus noise with neither positive-frequency nor k = 0 content,
    of norm level * ||psi||."""
    noise = (rng.normal(size=psi.data.shape)
             + 1j * rng.normal(size=psi.data.shape))
    noise -= noise.mean(axis=(2, 3, 4), keepdims=True)
    noise -= positive_frequency_project(
        SixField(spec=psi.spec, data=noise)).data
    noise *= level * np.linalg.norm(psi.data) / np.linalg.norm(noise)
    return SixField(spec=psi.spec, data=psi.data + noise)


@pytest.mark.parametrize("apply", [mt.observables_coordinate,
                                   mt.inverse_hamiltonian_apply])
def test_projection_defect_threshold(apply, rng):
    # The defect is summed from ||raw - P raw||, not read off
    # ||raw||^2 - ||P raw||^2: that cancellation leaves about 1e-8, the
    # tolerance itself, on an exact positive-frequency field.
    psi = _balanced_packet(32)
    apply(_with_non_positive_frequency(psi, 3e-9, rng))
    with pytest.raises(DomainError, match="projection defect 3.000e-08"):
        apply(_with_non_positive_frequency(psi, 3e-8, rng))


@pytest.mark.parametrize("apply", [mt.observables_coordinate,
                                   mt.inverse_hamiltonian_apply])
def test_k0_content_is_refused_without_a_warning(apply, rng):
    # P drops k = 0, so a k = 0 energy fraction f alone gives a projection
    # defect of sqrt(f): the field is refused, and no warning precedes it.
    spec = cube(16)
    psi = synthesize(random_spectrum(spec, rng, kmax=2.5, normalize=True))
    fraction = 1e-9
    offset = np.sqrt(fraction / (1.0 - fraction)
                     * np.sum(np.abs(psi.data) ** 2) / spec.npoints)
    psi.data[0, 0] += offset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="projection defect 3.162e-05"):
            apply(psi)


def test_inverse_hamiltonian_single_mode():
    spec = cube(8)
    for helicity in (1, -1):
        psi = synthesize(plane_wave_mode(spec, (1, 0, 2), helicity), t=0.0)
        got = mt.inverse_hamiltonian_apply(psi).data
        assert np.max(np.abs(got - psi.data / np.sqrt(5.0))) \
            <= 1e-14 * np.max(np.abs(psi.data)), helicity


def test_norm_invariance_under_unitaries(rng):
    spec = cube(12)
    s = random_spectrum(spec, rng, kmax=3.0, normalize=True)
    psi = synthesize(s, 0.0)
    assert abs(mt.norm_h(propagate_free(psi, 2.7)) - 1.0) < 1e-10
    from pwfn.spectral import translate
    assert abs(mt.photon_number(translate(s, (0.3, 1.0, -0.2), 0.9)) - 1.0) \
        < 1e-10
