import itertools

import numpy as np
import pytest

from pwfn import spectral
from pwfn.errors import DomainError, GaugeSingularityError
from pwfn.evolve import free_generator, propagate_free
from pwfn.fieldcore import CYCLIC, rodrigues
from pwfn.geometry import ALPHA_X, ALPHA_Y, ALPHA_Z, dirac_form_step
from pwfn.metrics import GeneratorTag as G, generator_apply, landau_peierls
from pwfn.spectral import (GridSpec, HelicitySpectrum, SixField,
                           berry_connection, decompose, longitudinal_residual,
                           polarization_triad, positive_frequency_project,
                           synthesize, translate, triad_arrays)

from conftest import cube, live_box, random_field, random_spectrum, rel_err


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(n=(7, 8, 8), length=(1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        GridSpec(n=(8, 8, 8), length=(0.0, 1.0, 1.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError) as err:
            GridSpec(n=(8, 8, 8), length=(1.0, bad, 1.0))
        assert err.value.arg == "length"
    # A box whose k_max^2, volume or cell volume leaves the normal floats.
    for length in ((1e-300, 1.0, 1.0), (1e200,) * 3, (1e-120,) * 3,
                   (1.0, 5e-324, 1.0)):
        with pytest.raises(DomainError, match="normal floats") as err:
            GridSpec(n=(8, 8, 8), length=length)
        assert err.value.arg == "length"
    spec = GridSpec(n=(8, 8, 8), length=(1e150, 1.0, 1.0))
    assert 0.0 < spec.k_max() ** 2 < np.inf


def test_grid_holds_read_only_axis_lines():
    spec = cube(8)
    twin = GridSpec(n=spec.n, length=spec.length)
    assert "_axis_lines" not in vars(spec)    # built on first use
    for name in ("k_lines", "k_diff_lines", "coord_lines"):
        lines = getattr(spec, name)()
        assert getattr(spec, name)() is lines, name
        for line, same in zip(lines, getattr(twin, name)()):
            assert not line.flags.writeable, name
            with pytest.raises(ValueError):
                line[(0,) * line.ndim] = 1.0
            assert np.array_equal(line, same), name


def test_block_transforms_match_component_loop(rng):
    spec = GridSpec(n=(8, 6, 10), length=(5.0, 6.0, 7.0))
    data = (rng.normal(size=(2, 3) + spec.n)
            + 1j * rng.normal(size=(2, 3) + spec.n))
    hat = spectral.to_k(spec, data)
    back = spectral.to_r(spec, hat)
    for block in range(2):
        for comp in range(3):
            assert np.array_equal(hat[block, comp],
                                  spectral.to_k(spec, data[block, comp]))
            assert np.array_equal(back[block, comp],
                                  spectral.to_r(spec, hat[block, comp]))


def _trig_case(name):
    """(spec, u, grad u, div u or None) for band-limited trig fields."""
    spec = GridSpec(n=(8, 12, 10), length=(2 * np.pi, 3 * np.pi, 5.0))
    x, y, z = spec.coords()
    kx, ky, kz = 1.0, 4.0 / 3.0, 2 * np.pi / 5.0
    if name == "real scalar":
        u = np.sin(kx * x) * np.cos(ky * y) + np.cos(kz * z)
        g = np.stack([kx * np.cos(kx * x) * np.cos(ky * y),
                      -ky * np.sin(kx * x) * np.sin(ky * y),
                      -kz * np.sin(kz * z)])
        return spec, u, g, None
    if name == "complex vector":
        a = np.array([1.0, 2.0 - 1.0j, -0.5j])
        q = np.array([kx, -2 * ky, kz])
        wave = np.exp(1j * (q[0] * x + q[1] * y + q[2] * z))
        u = a[:, None, None, None] * wave
        g = 1j * q[None, :, None, None, None] * u[:, None]
        return spec, u, g, 1j * (q @ a) * wave
    m = np.arange(9.0).reshape(3, 3) - 4.0
    q = np.array([kx, ky, 0.0])
    phase = q[0] * x + q[1] * y
    u = m[:, :, None, None, None] * np.sin(phase)
    g = (m[:, :, None, None, None, None] * q[:, None, None, None]
         * np.cos(phase))
    return spec, u, g, (m @ q)[:, None, None, None] * np.cos(phase)


def test_to_k_in_place_is_to_k(rng):
    # overwrite transforms a complex input in its own buffer, bit for bit
    # as the out-of-place transform; a real input is never overwritten.
    spec = GridSpec(n=(4, 2, 6), length=(5.0, 6.0, 7.0))
    data = (rng.normal(size=(3,) + spec.n + spec.n)
            + 1j * rng.normal(size=(3,) + spec.n + spec.n))
    ref = spectral.to_k(spec, data)
    work = data.copy()
    out = spectral.to_k(spec, work, overwrite=True)
    assert np.array_equal(out, ref) and np.shares_memory(out, work)
    real = data.real.copy()
    out = spectral.to_k(spec, real, overwrite=True)
    assert np.array_equal(out, spectral.to_k(spec, data.real))
    assert np.array_equal(real, data.real)


@pytest.mark.parametrize("name", ["real scalar", "complex vector",
                                  "3x3 tensor"])
def test_grad_div_match_trig_derivatives(name):
    spec, u, g, d = _trig_case(name)
    out = spectral.grad(spec, u)
    assert out.shape == u.shape[:-3] + (3,) + spec.n
    assert np.isrealobj(out) == np.isrealobj(u)
    assert rel_err(out, g) < 1e-13
    if d is not None:
        out = spectral.div(spec, u)
        assert np.isrealobj(out) == np.isrealobj(u)
        assert rel_err(out, d) < 1e-13


def test_div_of_curl_vanishes(rng):
    spec = GridSpec(n=(8, 12, 10), length=(2 * np.pi, 3 * np.pi, 5.0))
    psi = random_field(spec, rng, kmax=2.0)
    c = spectral.curl(spec, psi.data)
    assert np.max(np.abs(spectral.div(spec, c))) < 1e-13 * np.max(np.abs(c))
    real = spectral.curl(spec, psi.data.real)
    assert np.isrealobj(real)
    assert rel_err(real, spectral.curl(spec, psi.data.real + 0j).real) == 0.0


@pytest.mark.parametrize("real", [False, True])
def test_derivatives_match_scaled_transform_path(rng, real):
    # grad/div/curl leave out the checkerboard and cell-volume factors of
    # to_k/to_r, which cancel between the two transforms: the results may
    # differ from the scaled path by rounding only.
    spec = GridSpec(n=(8, 12, 10), length=(2 * np.pi, 3 * np.pi, 5.0))
    data = rng.normal(size=(2, 3) + spec.n)
    if not real:
        data = data + 1j * rng.normal(size=data.shape)
    k = spec.k_grid_diff()
    hat = spectral.to_k(spec, data)
    curl_hat = np.stack([k[a] * hat[:, b] - k[b] * hat[:, a]
                         for a, b in ((1, 2), (2, 0), (0, 1))], axis=1)
    cases = [(spectral.grad, 1j * k * hat[:, :, None]),
             (spectral.div, 1j * np.sum(k * hat, axis=1)),
             (spectral.curl, 1j * curl_hat)]
    for op, ref_hat in cases:
        out = op(spec, data)
        assert np.isrealobj(out) == real
        assert rel_err(out, spectral.to_r(spec, ref_hat)) <= 1e-15, op


def _3d(spec, multiplier, u):
    """The 3-D multiplier form _ifft(m(k) _fft(u)) over all three axes."""
    return spectral._ifft(multiplier * spectral._fft(u))


def _3d_references(spec, u):
    """grad, div and curl of u, (2, 3, nx, ny, nz), in the 3-D form."""
    k = spec.k_diff_lines()
    grad = np.stack([_3d(spec, 1j * k[a], u) for a in range(3)], axis=-4)
    hat = spectral._fft(u)
    div = spectral._ifft(1j * (k[0] * hat[:, 0] + k[1] * hat[:, 1]
                               + k[2] * hat[:, 2]))
    cross = np.stack([k[a] * hat[:, b] - k[b] * hat[:, a]
                      for a, b in CYCLIC], axis=1)    # k x hat per mode
    curl = spectral._ifft(1j * cross)
    return {"grad": grad, "div": div, "curl": curl}


def _3d_generator(tag, spec, data):
    """tag psi in the 3-D form; K_i is rho_3 curl of x_i psi."""
    x = spec.coord_lines()
    if tag.family in "HK":
        out = _3d_references(spec, data if tag is G.H
                             else x[tag.axis] * data)["curl"]
        out[1] *= -1
        return out
    p = [_3d(spec, k, data) for k in spec.k_diff_lines()]
    if tag.family == "P":
        return p[tag.axis]
    j, k = CYCLIC[tag.axis]
    out = x[j] * p[k] - x[k] * p[j]
    out[:, j] -= 1j * data[:, k]
    out[:, k] += 1j * data[:, j]
    return out


def _relative_norm_error(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


@pytest.mark.parametrize("real", [False, True])
def test_one_axis_derivatives_equal_the_3d_multiplier_form(rng, real):
    # Each derivative transforms only its own axis; the transform pairs
    # along the other two axes, which the 3-D form runs, cancel.  The two
    # differ by roundoff only, on an anisotropic grid and on a table of
    # size 1 along z, whose 3-D form is that of its broadcast full table.
    spec = GridSpec(n=(8, 12, 10), length=(2 * np.pi, 3 * np.pi, 5.0))
    data = rng.normal(size=(2, 3) + spec.n)
    if not real:
        data = data + 1j * rng.normal(size=data.shape)
    bound = 1e-14
    worst = 0.0
    for table in (data, data[..., :1]):
        full = np.broadcast_to(table, data.shape)
        for name, ref in _3d_references(spec, full).items():
            out = getattr(spectral, name)(spec, table)
            assert np.isrealobj(out) == real, name
            err = _relative_norm_error(np.broadcast_to(out, ref.shape), ref)
            print(f"{name} {table.shape[-3:]}: {err:.3e} (<= {bound:.0e})")
            worst = max(worst, err)
    psi = SixField(spec=spec, data=data)
    ref = _3d_references(spec, psi.data)["curl"]
    ref[1] *= -1
    err = _relative_norm_error(free_generator(psi).data, ref)
    print(f"free_generator: {err:.3e} (<= {bound:.0e})")
    worst = max(worst, err)
    for tag in G:
        err = _relative_norm_error(generator_apply(tag, psi).data,
                                   _3d_generator(tag, spec, psi.data))
        print(f"generator_apply {tag.value}: {err:.3e} (<= {bound:.0e})")
        worst = max(worst, err)
    assert worst <= bound


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_derivatives_of_a_size_one_table_equal_the_broadcast_table(rng,
                                                                   axis):
    # A distinct-point table of size 1 along a lattice axis is constant
    # along it: no transform runs there, and each derivative equals that
    # of the broadcast full table (along whose constant axis the transforms
    # leave at most roundoff), not a broadcasting error.
    spec = cube(8)
    shape = [8, 8, 8]
    shape[axis] = 1
    for table in (rng.normal(size=[3] + shape),
                  rng.normal(size=[2, 3] + shape)
                  + 1j * rng.normal(size=[2, 3] + shape)):
        full = np.broadcast_to(table, table.shape[:-3] + spec.n)
        for op in (spectral.grad, spectral.div, spectral.curl):
            out, ref = op(spec, table), op(spec, full)
            assert out.shape == ref.shape[:-3] + tuple(shape), op
            err = rel_err(np.broadcast_to(out, ref.shape), ref)
            print(f"{op.__name__} size 1 along {axis}: {err:.3e} "
                  f"(<= 1e-14)")
            assert err <= 1e-14, op


def test_one_axis_derivative_transforms_only_its_axis(rng):
    # One forward and one inverse transform along the axis, a third of the
    # axis points of a 3-D pair; none along an axis of size 1.
    spec = GridSpec(n=(8, 12, 10), length=(2 * np.pi, 3 * np.pi, 5.0))
    u = rng.normal(size=(3,) + spec.n)
    for axis in range(3):
        spectral.reset_transform_counts()
        spectral._derivative(spec, u, axis)
        assert spectral.transform_counts() == {
            "fft_calls": 1, "fft_points": u.size, "ifft_calls": 1,
            "ifft_points": u.size, "fft_axis_points": u.size,
            "ifft_axis_points": u.size}, axis
    spectral.reset_transform_counts()
    flat = spectral._derivative(spec, u[..., :1], 2)
    assert flat.shape == (3, 8, 12, 1) and not np.any(flat)
    assert not any(spectral.transform_counts().values())
    spectral.reset_transform_counts()
    spectral._ifft(spectral._fft(u))
    assert spectral.transform_counts() == {
        "fft_calls": 1, "fft_points": u.size, "ifft_calls": 1,
        "ifft_points": u.size, "fft_axis_points": 3 * u.size,
        "ifft_axis_points": 3 * u.size}


def _free_reference(spec, data, t=0.9):
    _, nhat, knorm = triad_arrays(spec)
    hat = spectral.to_k(spec, data)
    cos_a, sin_a = np.cos(knorm * t), np.sin(knorm * t)
    return np.stack([rodrigues(nhat, cos_a, sin_a, hat[0]),
                     rodrigues(nhat, cos_a, -sin_a, hat[1])])


def _dirac_reference(spec, data, t=0.9):
    phihat = spectral.to_k(spec, data)
    akphi = np.einsum("aij,a...,j...->i...",
                      np.stack([ALPHA_X, ALPHA_Y, ALPHA_Z]), spec.k_grid(),
                      phihat)
    knorm = spec.k_norm()
    return (np.cos(knorm * t) * phihat
            - 1j * np.sin(knorm * t) * spec.k_inverse() * akphi)


@pytest.mark.parametrize("apply, reference, shape", [
    (lambda spec, d: propagate_free(SixField(spec=spec, data=d), 0.9).data,
     _free_reference, (2, 3)),
    (lambda spec, d: dirac_form_step(spec, d, 0.9), _dirac_reference, (4,)),
    (lambda spec, d: landau_peierls(SixField(spec=spec, data=d)).data,
     lambda spec, d: np.sqrt(spec.k_inverse()) * spectral.to_k(spec, d),
     (2, 3))], ids=["propagate_free", "dirac_form_step", "landau_peierls"])
def test_multipliers_match_scaled_transform_path(rng, apply, reference, shape):
    # Like grad/div/curl, these multipliers run on the raw transform pair:
    # against the same multiplier between to_k and to_r they may differ by
    # rounding only.
    spec = GridSpec(n=(8, 12, 10), length=(2 * np.pi, 3 * np.pi, 5.0))
    data = rng.normal(size=shape + spec.n) \
        + 1j * rng.normal(size=shape + spec.n)
    data -= data.mean(axis=(-3, -2, -1), keepdims=True)  # no k = 0 content
    out = apply(spec, data)
    assert rel_err(out, spectral.to_r(spec, reference(spec, data))) <= 1e-15


def test_triad_pole_conventions():
    t = polarization_triad([0.0, 0.0, 2.0])
    assert np.allclose(t.l1, [1, 0, 0]) and np.allclose(t.l2, [0, 1, 0])
    assert rel_err(t.e, np.array([1, 1j, 0]) / np.sqrt(2)) < 1e-15
    t = polarization_triad([0.0, 0.0, -2.0])
    assert np.allclose(t.l1, [1, 0, 0]) and np.allclose(t.l2, [0, -1, 0])


def test_triad_equator_and_circular_eigenrelation():
    t = polarization_triad([1.0, 0.0, 0.0])
    assert np.allclose(t.l1, [0, 0, -1])
    assert np.allclose(t.l2, [0, 1, 0])
    k = np.array([1.0, 0, 0])
    assert rel_err(1j * np.cross(k, t.e), np.linalg.norm(k) * t.e) < 1e-14


def test_triad_invariants_every_lattice_point():
    spec = cube(8)
    e, nhat, knorm = triad_arrays(spec)
    kvec = spec.k_grid()
    mask = knorm > 0
    cross = 1j * np.cross(kvec, e, axisa=0, axisb=0, axisc=0)
    assert np.max(np.abs(cross - knorm * e)[:, mask]) < 1e-14 * np.max(knorm)
    assert np.max(np.abs(np.sum(np.conj(e) * e, axis=0)[mask] - 1)) < 1e-14
    assert np.max(np.abs(np.sum(kvec * e, axis=0))[mask]) < 1e-13
    comp = (np.einsum("i...,j...->ij...", np.conj(e), e)
            + np.einsum("i...,j...->ij...", e, np.conj(e)))
    target = (np.eye(3)[:, :, None, None, None]
              - np.einsum("i...,j...->ij...", nhat, nhat))
    assert np.max(np.abs(comp - target)[:, :, mask]) < 1e-14


def test_triad_rejects_zero():
    with pytest.raises(DomainError):
        polarization_triad([0.0, 0.0, 0.0])


def test_decompose_single_mode_volume_normalization():
    spec = cube(8)
    coords = spec.coords()
    k0 = np.array([0.0, 0.0, 2.0])
    e = polarization_triad(k0).e
    data = np.zeros((2, 3) + spec.n, dtype=complex)
    data[0] = e[:, None, None, None] * np.exp(
        1j * np.tensordot(k0, coords, axes=(0, 0)))
    from pwfn.spectral import SixField
    spectrum = decompose(SixField(spec=spec, data=data))
    assert abs(spectrum.amp[0, 0, 0, 2] - spec.volume) < 1e-9
    spectrum.amp[0, 0, 0, 2] = 0.0
    assert np.max(np.abs(spectrum.amp)) < 1e-9


def test_decompose_lower_block_negative_helicity():
    spec = cube(8)
    coords = spec.coords()
    k0 = np.array([0.0, 2.0, 0.0])
    e = polarization_triad(k0).e
    data = np.zeros((2, 3) + spec.n, dtype=complex)
    data[1] = np.conj(e)[:, None, None, None] * np.exp(
        1j * np.tensordot(k0, coords, axes=(0, 0)))
    from pwfn.spectral import SixField
    spectrum = decompose(SixField(spec=spec, data=data))
    assert abs(spectrum.amp[1, 0, 2, 0]) > 0.99 * spec.volume
    spectrum.amp[1, 0, 2, 0] = 0.0
    assert np.max(np.abs(spectrum.amp)) < 1e-9


def test_synthesize_equals_to_r_of_the_mode_block(rng):
    # synthesize applies the inverse checkerboard on the two amplitude
    # grids, not on the six-component block; the field is the same bits.
    # A helicity without amplitudes gets a zero block and no transform.
    spec = GridSpec(n=(8, 6, 10), length=(5.0, 6.0, 7.0))
    e, _, knorm = triad_arrays(spec)
    for helicities, t in itertools.product([(0, 1), (0,), (1,)], (0.0, 0.37)):
        spectrum = random_spectrum(spec, rng, kmax=2.5, helicities=helicities)
        phase = np.exp(-1j * knorm * t)
        block = np.stack([e * (spectrum.amp[0] * phase),
                          np.conj(e) * (spectrum.amp[1] * phase)])
        spectral.reset_transform_counts()
        psi = synthesize(spectrum, t)
        counts = spectral.transform_counts()
        assert np.array_equal(psi.data, spectral.to_r(spec, block))
        assert counts["ifft_points"] == 3 * len(helicities) * spec.npoints
        for b in {0, 1} - set(helicities):
            assert not np.any(psi.data[b])


@pytest.mark.parametrize("helicities", [(0, 1), (0,), (1,)])
def test_decompose_equals_the_whole_field_projection(rng, helicities):
    spec = GridSpec(n=(8, 12, 10), length=(5.0, 6.0, 7.0))
    psi = random_field(spec, rng, kmax=2.5, helicities=helicities)
    hat = spectral.to_k(spec, psi.data)
    e, _, _ = triad_arrays(spec)
    ref = np.stack([np.sum(np.conj(e) * hat[0], axis=0),
                    np.sum(e * hat[1], axis=0)])
    ref[:, 0, 0, 0] = 0.0
    dense = ref.copy()
    # The amplitudes are formed on the live k box of the transform; the
    # roundoff of the band-limited field outside it is dropped.
    _, box = live_box(np.abs(hat))
    assert 0 < np.count_nonzero(box) < box.size
    ref[:, ~box] = 0.0
    spectral.reset_transform_counts()
    spectrum = decompose(psi)
    counts = spectral.transform_counts()
    assert counts["fft_points"] == 3 * len(helicities) * spec.npoints
    assert np.array_equal(spectrum.amp, ref)
    assert rel_err(spectrum.amp, dense) <= 1e-15
    for b in {0, 1} - set(helicities):
        assert not np.any(spectrum.amp[b])


def test_live_blocks_are_the_nonzero_ones():
    data = np.zeros((2, 3, 2, 2, 2), dtype=complex)
    blocks, stack = spectral._live_blocks(data)
    assert blocks == range(2) and stack.shape == data.shape   # a zero field
    data[1, 2, 1, 0, 1] = 5e-324j
    blocks, stack = spectral._live_blocks(data)
    assert blocks == range(1, 2) and np.shares_memory(stack, data)
    assert np.array_equal(stack, data[1:])
    data[0, 0, 0, 0, 0] = -0.0     # a signed zero is no content
    assert spectral._live_blocks(data)[0] == range(1, 2)
    data[0, 0, 0, 0, 0] = np.nan
    assert spectral._live_blocks(data)[0] == range(2)
    data[1] = 0.0
    assert spectral._live_blocks(data)[0] == range(1)


def test_round_trip_band_limited(rng):
    spec = cube(12)
    spectrum = random_spectrum(spec, rng, kmax=3.0)
    back = decompose(synthesize(spectrum, t=0.0))
    assert rel_err(back.amp, spectrum.amp) < 1e-12


def test_synthesize_time_advance_matches_propagator(rng):
    spec = cube(12)
    spectrum = random_spectrum(spec, rng, kmax=3.0)
    a = synthesize(spectrum, t=0.83)
    b = propagate_free(synthesize(spectrum, t=0.0), 0.83)
    assert rel_err(a.data, b.data) < 1e-12


def test_synthesize_linearity(rng):
    spec = cube(8)
    s1 = random_spectrum(spec, rng, kmax=2.0)
    s2 = random_spectrum(spec, rng, kmax=2.0)
    s12 = HelicitySpectrum(spec=spec, amp=s1.amp + s2.amp)
    a = synthesize(s12, 0.3)
    b = synthesize(s1, 0.3).data + synthesize(s2, 0.3).data
    assert rel_err(a.data, b) < 1e-13


def test_projection_idempotent_and_kills_negative_frequency(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0)
    proj = positive_frequency_project(psi)
    again = positive_frequency_project(proj)
    assert rel_err(proj.data, again.data) < 1e-13
    # pure negative-frequency field: conjugate-swapped positive one
    neg = psi.copy()
    neg.data = neg.data[::-1].conj()
    assert positive_frequency_project(neg).norm() < 1e-12 * neg.norm()


def test_projection_halves_classical_standing_wave():
    from pwfn.states import standing_wave_classical
    spec = cube(8)
    psi = standing_wave_classical(spec, k_index=(0, 0, 1))
    proj = positive_frequency_project(psi)
    # a classical field carries its information twice; the physical part
    # holds exactly half the plain squared norm
    assert abs(proj.norm2() - 0.5 * psi.norm2()) < 1e-12 * psi.norm2()


def test_longitudinal_residual_detects_bad_input():
    spec = cube(8)
    coords = spec.coords()
    k0 = np.array([0.0, 0.0, 2.0])
    from pwfn.spectral import SixField
    data = np.zeros((2, 3) + spec.n, dtype=complex)
    data[0, 2] = np.exp(1j * np.tensordot(k0, coords, axes=(0, 0)))
    assert longitudinal_residual(SixField(spec=spec, data=data)) > 0.99


def test_berry_connection_values_and_pole():
    # equatorial: cot(theta) = 0
    assert np.allclose(berry_connection(np.array([2.0, 0.0, 0.0])), 0.0)
    # analytic value at 45 degrees
    k = np.array([1.0, 0.0, 1.0])
    alpha = berry_connection(k)
    kn = np.linalg.norm(k)
    expected = -(1.0 / 1.0) / kn * np.array([0.0, 1.0, 0.0])  # -cot(45)/|k| phi_hat
    assert rel_err(alpha, expected) < 1e-14
    # exact axis: constant frame convention
    assert np.allclose(berry_connection(np.array([0.0, 0.0, 3.0])), 0.0)
    with pytest.raises(GaugeSingularityError):
        berry_connection(np.array([1e-9, 0.0, 1.0]))
    with pytest.raises(DomainError):
        berry_connection(np.zeros(3))
    for bad in ([np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0]):
        with pytest.raises(DomainError, match="finite"):
            berry_connection(np.array(bad))


@pytest.mark.parametrize("pole_cone", [1e-6, 0.5])
def test_berry_connection_grid_matches_point_values(pole_cone):
    spec = GridSpec(n=(8, 6, 10), length=(5.0, 4.0, 7.0))
    alpha = spectral.berry_connection_grid(spec, pole_cone)
    kvec = spec.k_grid()
    in_cone = 0
    for idx in np.ndindex(spec.n):
        got = alpha[(slice(None),) + idx]
        k = kvec[(slice(None),) + idx]
        if not k.any():
            assert np.array_equal(got, np.zeros(3))
            continue
        try:
            ref = berry_connection(k, pole_cone)
        except GaugeSingularityError:
            assert np.all(np.isnan(got)), idx
            in_cone += 1
            continue
        assert np.array_equal(got, ref), idx
    assert (in_cone > 0) == (pole_cone > 0.1)


def test_k_inverse_zero_at_dc():
    spec = GridSpec(n=(8, 6, 10), length=(5.0, 4.0, 7.0))
    kinv = spec.k_inverse()
    knorm = spec.k_norm()
    off = knorm > 0
    assert np.count_nonzero(~off) == 1 and kinv[0, 0, 0] == 0.0
    assert np.array_equal(kinv[off], 1.0 / knorm[off])


def test_berry_curvature_is_unit_monopole():
    # curl alpha = +n/k^2 for the covariant connection of this gauge
    k = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0) * 2.0
    h = 1e-5
    jac = np.zeros((3, 3))
    for j in range(3):
        dk = np.zeros(3)
        dk[j] = h
        jac[:, j] = (berry_connection(k + dk) - berry_connection(k - dk)) / (2 * h)
    curl = np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
                     jac[1, 0] - jac[0, 1]])
    n = k / np.linalg.norm(k)
    assert rel_err(curl, n / np.dot(k, k)) < 1e-6


def test_berry_gauge_change_shifts_by_gradient():
    # rotating the frame by chi(k) shifts the connection by grad chi; the
    # curvature is unchanged.  chi = c . k gives a constant shift c.
    c = np.array([0.13, -0.27, 0.41])

    def rotated_connection(k):
        t = polarization_triad(k)
        chi = float(np.dot(c, k))
        l1 = np.cos(chi) * t.l1 - np.sin(chi) * t.l2
        l2 = np.sin(chi) * t.l1 + np.cos(chi) * t.l2
        h = 1e-6
        alpha = np.zeros(3)
        for j in range(3):
            dk = np.zeros(3)
            dk[j] = h
            tp = polarization_triad(k + dk)
            tm = polarization_triad(k - dk)
            chip = float(np.dot(c, k + dk))
            chim = float(np.dot(c, k - dk))
            l1p = np.cos(chip) * tp.l1 - np.sin(chip) * tp.l2
            l2p = np.sin(chip) * tp.l1 + np.cos(chip) * tp.l2
            l1m = np.cos(chim) * tm.l1 - np.sin(chim) * tm.l2
            l2m = np.sin(chim) * tm.l1 + np.cos(chim) * tm.l2
            dl2 = (l2p - l2m) / (2 * h)
            dl1 = (l1p - l1m) / (2 * h)
            alpha[j] = 0.5 * (np.dot(l1, dl2) - np.dot(l2, dl1))
        return alpha

    k = np.array([1.3, -0.4, 0.8])
    base = berry_connection(k)
    shifted = rotated_connection(k)
    assert rel_err(shifted - base, c) < 1e-5


def test_translate_phases_and_shift_theorem(rng):
    spec = cube(12)
    spectrum = random_spectrum(spec, rng, kmax=3.0)
    ident = translate(spectrum, (0.0, 0.0, 0.0), 0.0)
    assert rel_err(ident.amp, spectrum.amp) == 0.0
    moved = translate(spectrum, (0.1, -2.0, 0.4), t0=1.3)
    assert rel_err(np.abs(moved.amp), np.abs(spectrum.amp)) < 1e-14
    # lattice-commensurate shift: exp(+i k.r0) maps psi(r) to psi(r + r0),
    # i.e. the sampled values roll backwards by r0 in cells
    shift_cells = (2, 0, 3)
    dx = spec.spacing
    r0 = tuple(c * d for c, d in zip(shift_cells, dx))
    shifted = synthesize(translate(spectrum, r0, 0.0), t=0.0)
    rolled = np.roll(synthesize(spectrum, t=0.0).data,
                     shift=tuple(-c for c in shift_cells), axis=(-3, -2, -1))
    assert rel_err(shifted.data, rolled) < 1e-12


@pytest.mark.parametrize("r0,t0,arg", [
    ((1e308, 0.0, 0.0), 0.0, "r0"), ((np.nan, 0.0, 0.0), 0.0, "r0"),
    ((0.0, 0.0, 0.0), np.inf, "t0"), ((0.0, 0.0, 0.0), np.nan, "t0")])
def test_translate_refuses_a_shift_whose_phase_is_not_finite(rng, r0, t0,
                                                             arg):
    # k.r0 or |k| t0 past the float range would overflow or give NaN phases;
    # a NaN shift would give NaN amplitudes.  Each is refused by name.
    spectrum = random_spectrum(cube(8), rng, kmax=2.0)
    with pytest.raises(DomainError, match=rf"\|k\| {arg} is not finite") \
            as err:
        translate(spectrum, r0, t0)
    assert err.value.arg == arg


@pytest.mark.parametrize("n", [(8, 8, 8), (12, 10, 8)])
def test_triad_directions_follow_the_one_unit_vector_rule(n):
    # n(k) and |k| of the frame are those of spectral._directions, the rule
    # every per-mode rotation and the split-step coupling use.
    spec = GridSpec(n=n, length=(5.0, 6.0, 7.0))
    _, nhat, knorm = triad_arrays(spec)
    ref_n, ref_k = spectral._directions(spec.k_lines())
    assert np.array_equal(nhat, ref_n) and np.array_equal(knorm, ref_k)


def test_polarization_triad_is_the_lattice_frame_bit_for_bit():
    # polarization_triad at a lattice k reads n and e exactly as
    # triad_arrays holds them there, at every nonzero k.
    spec = GridSpec(n=(12, 10, 8), length=(6.1, 5.3, 4.7))
    e, nhat, knorm = triad_arrays(spec)
    k = spec.k_grid()
    count = 0
    for idx in zip(*np.nonzero(knorm)):
        at = (slice(None),) + idx
        triad = polarization_triad(k[at])
        assert np.array_equal(triad.n_hat, nhat[at]), idx
        assert np.array_equal(triad.e, e[at]), idx
        count += 1
    assert count == spec.npoints - 1


def test_projection_commutes_with_propagation(rng):
    spec = cube(12)
    from conftest import random_classical_field
    calf = random_classical_field(spec, rng, kmax=3.0, transverse=True)
    t = 0.61
    a = positive_frequency_project(propagate_free(calf, t))
    b = propagate_free(positive_frequency_project(calf), t)
    assert rel_err(a.data, b.data) < 1e-12


def test_synthesize_rejects_dc_amplitude():
    spec = cube(8)
    amp = np.zeros((2,) + spec.n, dtype=complex)
    amp[0, 0, 0, 0] = 1.0
    with pytest.raises(DomainError):
        synthesize(HelicitySpectrum(spec=spec, amp=amp), t=0.0)


def test_dc_mode_warning(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    psi.data[0, 0] += 0.1  # constant offset carries k = 0 energy
    with pytest.warns(UserWarning, match="k = 0 energy"):
        decompose(psi)


@pytest.mark.parametrize("n, k_index", [
    ((8, 8, 8), (4, 1, 0)), ((8, 8, 8), (0, 0, -4)), ((8, 8, 8), (1, 12, 3)),
    ((12, 10, 8), (0, 5, 1)), ((2, 4, 6), (1, 1, 1))])
def test_plane_wave_mode_refuses_a_nyquist_index(n, k_index):
    # The lattice curl drops the Nyquist component of k, which |k| keeps:
    # such a mode is no eigenmode of the free generator, and is refused.
    from pwfn import states
    spec = GridSpec(n=n, length=(2 * np.pi,) * 3)
    with pytest.raises(DomainError, match="Nyquist") as err:
        states.plane_wave_mode(spec, k_index)
    assert err.value.arg == "k_index"
    # The same index off the Nyquist planes is an eigenmode, |k| psi.
    inner = tuple(min(abs(i) % m, m // 2 - 1) for i, m in zip(k_index, n))
    mode = synthesize(states.plane_wave_mode(spec, inner), t=0.0)
    knorm = np.sqrt(sum(i * i for i in inner))
    assert rel_err(free_generator(mode).data, knorm * mode.data) <= 1e-13


@pytest.mark.parametrize("helicity", [0, 2, -3])
def test_state_builders_refuse_a_helicity_other_than_plus_or_minus_one(
        helicity):
    from pwfn import states
    spec = cube(8)
    for build, args in [(states.plane_wave_mode, ((0, 0, 2),)),
                        (states.gaussian_packet_spectrum, ((1.0, 0, 0), 0.7)),
                        (states.two_mode_spectrum, ((0, 0, 1), (0, 1, 0)))]:
        with pytest.raises(DomainError) as err:
            build(spec, *args, helicity=helicity)
        assert err.value.arg == "helicity", build
    # Each sign fills its own slot of HelicitySpectrum.LAMBDAS.
    for slot, lam in enumerate(HelicitySpectrum.LAMBDAS):
        amp = states.plane_wave_mode(spec, (0, 0, 2), helicity=lam).amp
        assert np.count_nonzero(amp[slot]) == 1
        assert np.count_nonzero(amp[1 - slot]) == 0
