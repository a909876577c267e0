"""Named initial states for tests, benchmarks and the command line driver.

All builders return positive-frequency fields or helicity spectra on a given
grid.  Packet parameters are chosen by the caller; helpers here do the
bookkeeping (normalization, DC removal, optional translation).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .fieldcore import cross
from .metrics import _product, photon_number
from .spectral import (GridSpec, HelicitySpectrum, SixField, _box_lines,
                       _check_phase, _length, _lines, _live, _live_indices,
                       synthesize)

__all__ = [
    "plane_wave_mode", "gaussian_packet_spectrum", "gaussian_packet",
    "two_mode_spectrum", "standing_wave_classical", "balanced_packet_params",
    "vortex_field",
]


def _helicity_index(helicity):
    """Index of helicity in HelicitySpectrum.LAMBDAS, the amp axis-0 slot."""
    if helicity not in HelicitySpectrum.LAMBDAS:
        raise DomainError(f"helicity must be +1 or -1, got {helicity!r}",
                          arg="helicity")
    return HelicitySpectrum.LAMBDAS.index(helicity)


def plane_wave_mode(spec: GridSpec, k_index, helicity=+1, amplitude=None):
    """Single helicity mode at the given dual-lattice index.

    With amplitude None the mode is normalized to unit photon number.  An
    index n_d/2 along any axis d, a Nyquist k, is refused (see below).
    """
    lam = _helicity_index(helicity)
    amp = np.zeros((2,) + spec.n, dtype=complex)
    idx = tuple(int(i) % m for i, m in zip(k_index, spec.n))
    if idx == (0, 0, 0):
        raise DomainError("the k = 0 mode carries no helicity state",
                          arg="k_index")
    for d, (i, m) in enumerate(zip(idx, spec.n)):
        if 2 * i == m:  # |k| keeps the component, k_diff_lines do not
            raise DomainError(f"index {i} along axis {d} is the Nyquist "
                              "index n/2, which the lattice curl drops: no "
                              "eigenmode of the generator", arg="k_index")
    amp[lam][idx] = 1.0
    spectrum = HelicitySpectrum(spec=spec, amp=amp)
    if amplitude is None:
        amp[lam][idx] = 1.0 / np.sqrt(photon_number(spectrum))
    else:
        amp[lam][idx] = amplitude
    return HelicitySpectrum(spec=spec, amp=amp)


def gaussian_packet_spectrum(spec: GridSpec, k_center, sigma_k, helicity=+1,
                             r_center=(0.0, 0.0, 0.0)):
    """Unit-photon-number Gaussian amplitudes around k_center, at r_center.

    2 sigma_k^2 must be a normal float; an exponent that overflows is a
    mode of zero weight.  The amplitudes are formed on their live k box
    alone (:func:`spectral._live_indices`) and are 0 outside it: the
    exponent is a sum of one term per axis, so the largest value of each
    k slab sits at the other axes' smallest terms, and the 1-D terms give
    the box.
    """
    sigma = float(sigma_k)
    if not (sigma > 0.0
            and np.finfo(float).tiny <= 2.0 * sigma * sigma < np.inf):
        raise DomainError(f"sigma_k must be > 0 with 2 sigma_k^2 a finite "
                          f"normal float, got {sigma_k!r}", arg="sigma_k")
    _check_phase(spec, r_center, arg="r_center")
    k0 = np.asarray(k_center, dtype=float)
    r0 = np.asarray(r_center, dtype=float)
    lam = _helicity_index(helicity)
    scale = 2.0 * sigma * sigma
    with np.errstate(over="ignore"):
        d2 = [(k - c) ** 2 for k, c in zip(spec.k_axes(), k0)]
    least = [np.min(d) for d in d2]
    peaks = []
    for axis in range(3):
        terms = least[:axis] + [d2[axis]] + least[axis + 1:]
        peaks.append(np.exp(-((terms[0] + terms[1]) + terms[2]) / scale))
    # Where the largest value is the k = 0 mode's, which is dropped, every
    # slab is kept and the box is found from the values.
    top = 0.0 if all(d[0] == m for d, m in zip(d2, least)) \
        else np.max(peaks[0])
    box = [np.flatnonzero(_live(p, top)) for p in peaks]
    kvec = _box_lines(spec, box)
    d2 = _lines([d[i] for d, i in zip(d2, box)])
    profile = np.exp(-((d2[0] + d2[1]) + d2[2]) / scale).astype(complex)
    profile *= np.exp(-1j * (r0[0] * kvec[0] + r0[1] * kvec[1]
                             + r0[2] * kvec[2]))
    if all(i[0] == 0 for i in box):
        profile[0, 0, 0] = 0.0   # k = 0
    keep = _live_indices(np.abs(profile))
    box = [i[j] for i, j in zip(box, keep)]
    profile = profile[np.ix_(*keep)]
    number = _product(spec.volume, _length(_box_lines(spec, box)), profile,
                      profile).real
    if not number > np.finfo(float).tiny:
        raise DomainError(f"photon number {number:.3g} on the lattice: every "
                          "lattice k lies too many sigma_k from k_center")
    amp = np.zeros((2,) + spec.n, dtype=complex)
    amp[lam][np.ix_(*box)] = profile / np.sqrt(number)
    return HelicitySpectrum(spec=spec, amp=amp)


def gaussian_packet(spec: GridSpec, k_center, sigma_k, helicity=+1,
                    r_center=(0.0, 0.0, 0.0)) -> SixField:
    return synthesize(gaussian_packet_spectrum(spec, k_center, sigma_k,
                                               helicity, r_center), t=0.0)


def balanced_packet_params(spec: GridSpec):
    """(k_center, sigma_k) balancing seam, pole, DC and band-edge margins.

    The margins all scale with M = sqrt(pi n)/2 standard deviations on a
    cubic grid, the uncertainty-limited optimum for position-weighted
    operator tests.
    """
    n = min(spec.n)
    L = max(spec.length)
    m = np.sqrt(np.pi * n) / 2.0
    sigma = 2.0 * m / L
    k0 = 2.0 * m**2 / L
    return np.array([k0, 0.0, 0.0]), sigma


def two_mode_spectrum(spec: GridSpec, idx_a, idx_b, amp_a=1.0, amp_b=1.0,
                      helicity=+1):
    """Superposition of two lattice modes in one helicity."""
    lam = _helicity_index(helicity)
    amp = np.zeros((2,) + spec.n, dtype=complex)
    amp[lam][tuple(np.asarray(idx_a) % spec.n)] = amp_a
    amp[lam][tuple(np.asarray(idx_b) % spec.n)] = amp_b
    return HelicitySpectrum(spec=spec, amp=amp)


def standing_wave_classical(spec: GridSpec, k_index=(0, 0, 1),
                            polarization=(1.0, 0.0, 0.0),
                            phase=np.pi / 4) -> SixField:
    """Snapshot of a real linearly polarized standing wave.

    D = pol cos(k.r) cos(phase), B = (k_hat x pol) sin(k.r) sin(phase): the
    time-t snapshot (phase = omega t) of the standing solution built from
    two counter-propagating waves.  At the default quarter-period phase both
    field patterns are equally strong and the energy density is uniform.
    """
    idx = tuple(int(i) % m for i, m in zip(k_index, spec.n))
    k0 = np.array([k[i] for k, i in zip(spec.k_axes(), idx)])
    kn = np.linalg.norm(k0)
    if kn == 0.0:
        raise DomainError("standing wave needs a nonzero wave vector")
    pol = np.asarray(polarization, dtype=float)
    pol = pol - np.dot(pol, k0) * k0 / kn**2
    if np.linalg.norm(pol) == 0.0:
        raise DomainError("polarization parallel to k")
    pol /= np.linalg.norm(pol)
    coords = spec.coord_lines()
    arg = k0[0] * coords[0] + k0[1] * coords[1] + k0[2] * coords[2]
    d = pol[:, None, None, None] * (np.cos(arg) * np.cos(phase))
    b = cross(k0 / kn, pol)[:, None, None, None] * (np.sin(arg) * np.sin(phase))
    upper = (d + 1j * b) / np.sqrt(2.0)
    return SixField(spec=spec, data=np.stack([upper, np.conj(upper)]))


def vortex_field(spec: GridSpec, core_xy=(0.0, 0.0), k_z_index=2,
                 transverse_k_index=1) -> SixField:
    """Transversely structured beam with phase-vortex lines along z.

    F = e_+ chi(x, y) exp(i k_z z) with chi = sin(q(x - x0)) + i sin(q(y - y0)),
    an upper-block field whose energy flows at the light speed along z and
    whose u field winds by 2 pi around each vortex line.
    """
    x0, y0 = core_xy
    coords = spec.coord_lines()
    qx = 2.0 * np.pi * transverse_k_index / spec.length[0]
    qy = 2.0 * np.pi * transverse_k_index / spec.length[1]
    kz = 2.0 * np.pi * k_z_index / spec.length[2]
    chi = np.sin(qx * (coords[0] - x0)) + 1j * np.sin(qy * (coords[1] - y0))
    ep = np.array([1.0, 1j, 0.0]) / np.sqrt(2.0)
    upper = ep[:, None, None, None] * chi * np.exp(1j * kz * coords[2])
    data = np.zeros((2, 3) + spec.n, dtype=complex)
    data[0] = upper
    return SixField(spec=spec, data=data)
