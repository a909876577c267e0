"""Shared builders for the test suite.

Band-limited random fields come in two flavors: generic transverse
positive-frequency fields (for norms, products, evolution) and even-mode
fields whose pairwise midpoint wave vectors stay on the dual lattice (needed
by the pointwise phase-space identities).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import fft as sfft

from pwfn.metrics import photon_number
from pwfn.spectral import GridSpec, HelicitySpectrum, SixField, synthesize


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def cube(n, length=2.0 * np.pi):
    return GridSpec(n=(n, n, n), length=(length,) * 3)


def random_spectrum(spec, rng, kmax, helicities=(0, 1), even_modes=False,
                    normalize=False):
    knorm = spec.k_norm()
    mask = (knorm > 0) & (knorm <= kmax)
    if even_modes:
        mi = [sfft.fftfreq(m, 1.0 / m).astype(int) for m in spec.n]
        mx, my, mz = np.meshgrid(*mi, indexing="ij")
        mask &= (mx % 2 == 0) & (my % 2 == 0) & (mz % 2 == 0)
    amp = np.zeros((2,) + spec.n, dtype=complex)
    for lam in helicities:
        amp[lam][mask] = (rng.normal(size=mask.sum())
                          + 1j * rng.normal(size=mask.sum()))
    spectrum = HelicitySpectrum(spec=spec, amp=amp)
    if normalize:
        spectrum.amp /= np.sqrt(photon_number(spectrum))
    return spectrum


def random_field(spec, rng, kmax, helicities=(0, 1), even_modes=False,
                 normalize=False) -> SixField:
    return synthesize(random_spectrum(spec, rng, kmax, helicities,
                                      even_modes, normalize), t=0.0)


def random_classical_field(spec, rng, kmax, transverse=False) -> SixField:
    """Conjugate-symmetric field built from random real (D, B) samples."""
    from pwfn.spectral import to_r
    knorm = spec.k_norm()
    mask = (knorm > 0) & (knorm <= kmax)
    kvec = spec.k_grid()
    safe = np.where(knorm > 0, knorm, 1.0)
    nhat = kvec / safe
    d = np.empty((3,) + spec.n)
    b = np.empty((3,) + spec.n)
    for arr in (d, b):
        coef = np.zeros((3,) + spec.n, dtype=complex)
        for c in range(3):
            coef[c][mask] = (rng.normal(size=mask.sum())
                             + 1j * rng.normal(size=mask.sum()))
        if transverse:
            coef -= nhat * np.sum(nhat * coef, axis=0)
        for c in range(3):
            arr[c] = to_r(spec, coef[c]).real
    upper = (d + 1j * b) / np.sqrt(2.0)
    return SixField(spec=spec, data=np.stack([upper, np.conj(upper)]))


def live_box(size):
    """The live k box of |amplitudes| size, (..., nx, ny, nz), by its
    definition: per lattice axis, the indices of the slabs whose largest
    entry exceeds 16 eps of the largest entry.  Returns (box, mask), mask
    the (nx, ny, nz) product of the three sets."""
    top = np.max(size)
    lead = size.ndim - 3
    box = [np.flatnonzero(np.max(size, axis=tuple(
        a for a in range(size.ndim) if a != lead + d))
        > 16 * np.finfo(float).eps * top) for d in range(3)]
    mask = np.zeros(size.shape[-3:], dtype=bool)
    mask[np.ix_(*box)] = True
    return box, mask


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
