"""Separable lattice tables: the axis arrays the library reads against the
full (3, nx, ny, nz) meshgrid tables they stand for.

Wave vectors, odd-derivative wave vectors and coordinates are read as
three broadcastable axis arrays.  Every result built on them must equal,
bit for bit, the same computation on full meshgrid tables, on anisotropic
grids that include a 2-point axis.
"""

import numpy as np
import pytest
from scipy import fft as sfft

from pwfn import metrics, spectral, states
from pwfn.geometry import dirac_form_step
from pwfn.metrics import GeneratorTag
from pwfn.spectral import GridSpec, synthesize, triad_arrays

GRIDS = [GridSpec(n=(6, 2, 10), length=(5.0, 3.0, 7.5)),
         GridSpec(n=(2, 8, 4), length=(1.5, 6.0, 2.5)),
         GridSpec(n=(8, 6, 2), length=(7.0, 4.0, 0.5)),
         GridSpec(n=(2, 2, 2), length=(1.0, 2.0, 3.0))]


def _mesh(axes):
    return tuple(np.meshgrid(*axes, indexing="ij"))


def _diff_axes(spec):
    axes = spec.k_axes()
    for k, m in zip(axes, spec.n):
        k[m // 2] = 0.0
    return axes


def _one_axis(kvec, v, a):
    """(1/i) d_a v by one transform pair along lattice axis a, with the
    full table kvec[a], as a reference."""
    return sfft.ifft(sfft.fft(v, axis=a - 3) * kvec[a], axis=a - 3)


@pytest.mark.parametrize("spec", GRIDS, ids=str)
def test_k_max_is_the_largest_k_norm_without_its_table(spec, monkeypatch):
    called = []
    k_norm = GridSpec.k_norm

    def spy(self):
        called.append(self)
        return k_norm(self)

    monkeypatch.setattr(GridSpec, "k_norm", spy)
    k_max = spec.k_max()
    assert called == []
    assert k_max == np.max(spec.k_norm())


@pytest.mark.parametrize("spec", GRIDS, ids=str)
def test_axis_arrays_broadcast_to_the_meshgrid_tables(spec):
    for lines, axes, full in [
            (spec.k_lines(), spec.k_axes(), spec.k_grid()),
            (spec.k_diff_lines(), _diff_axes(spec), spec.k_grid_diff()),
            (spec.coord_lines(), spec.axes(), spec.coords())]:
        ref = np.stack(_mesh(axes))
        assert np.array_equal(full, ref)
        for a, line in enumerate(lines):
            assert line.shape == tuple(m if d == a else 1
                                       for d, m in enumerate(spec.n))
            assert not line.flags.writeable
            assert np.array_equal(np.broadcast_to(line, spec.n), ref[a])
    ref = np.stack(_mesh(spec.k_axes()))
    assert np.array_equal(spec.k_norm(), np.sqrt(np.sum(ref ** 2, axis=0)))


def _results(spec, data):
    """Every result built on the axis arrays."""
    spectrum = states.gaussian_packet_spectrum(
        spec, (1.3, 0.4, -0.9), 0.9, helicity=-1, r_center=(0.3, -0.2, 0.5))
    psi = synthesize(spectrum)
    om = metrics.observables_momentum(spectrum)
    oc = metrics.observables_coordinate(psi)
    out = {
        "k_norm": spec.k_norm().copy(),
        "triad": triad_arrays(spec),
        "gaussian": spectrum.amp,
        "translate": spectral.translate(spectrum, (0.2, -0.4, 0.1), 0.3).amp,
        "grad real": spectral.grad(spec, data[0, 0].real),
        "grad": spectral.grad(spec, data),
        "div real": spectral.div(spec, data.real),
        "div": spectral.div(spec, data),
        "curl real": spectral.curl(spec, data.real),
        "curl": spectral.curl(spec, data),
        "J_x": metrics.generator_apply(GeneratorTag.J_X, psi).data,
        "K_z": metrics.generator_apply(GeneratorTag.K_Z, psi).data,
        "dirac": dirac_form_step(spec, data[0, :2].repeat(2, axis=0), 0.7),
        "vortex": states.vortex_field(spec).data,
        "standing": states.standing_wave_classical(spec, (1, 0, 1)).data,
    }
    for name in ("energy", "momentum", "angular_momentum",
                 "moment_of_energy"):
        out["momentum " + name] = getattr(om, name)
        out["coordinate " + name] = getattr(oc, name)
    return out


@pytest.mark.parametrize("spec", GRIDS[:3], ids=str)
def test_broadcast_results_equal_meshgrid_tables(spec, monkeypatch, rng):
    data = (rng.normal(size=(2, 3) + spec.n)
            + 1j * rng.normal(size=(2, 3) + spec.n))
    got = _results(spec, data)
    # In-test references on full meshgrid tables
    kd = np.stack(_mesh(_diff_axes(spec)))
    div_ref = 1j * (_one_axis(kd, data[:, 0], 0) + _one_axis(kd, data[:, 1], 1)
                    + _one_axis(kd, data[:, 2], 2))
    assert np.array_equal(got["div"], div_ref)
    curl_ref = np.stack([1j * (_one_axis(kd, data[:, b], a)
                               - _one_axis(kd, data[:, a], b))
                         for a, b in ((1, 2), (2, 0), (0, 1))], axis=1)
    assert np.array_equal(got["curl"], curl_ref)
    # The same library code, served full tables instead of axis arrays
    monkeypatch.setattr(GridSpec, "k_lines",
                        lambda self: _mesh(self.k_axes()))
    monkeypatch.setattr(GridSpec, "k_diff_lines",
                        lambda self: _mesh(_diff_axes(self)))
    monkeypatch.setattr(GridSpec, "coord_lines",
                        lambda self: _mesh(self.axes()))
    ref = _results(spec, data)
    for name, value in got.items():
        for a, b in zip(*(v if isinstance(v, tuple) else (v,)
                          for v in (value, ref[name]))):
            assert np.array_equal(a, b), name
