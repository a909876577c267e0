"""Scalar products, norms and Poincare-generator observables.

The physical norm of a photon wave function divides each Fourier mode by its
frequency,

    <psi1|psi2> = sum_lambda sum_k (1/(V |k|)) conj(phi1) phi2,

which equals the coordinate-space double integral with the |r - r'|^(-2)
kernel.  Expectation values of the ten Poincare generators are available in
both representations: momentum representation uses the diagonal multipliers
omega and k plus the covariant derivative D_k = d/dk + i lambda alpha(k)
(the spectral k derivative of the Cartesian amplitude e phi, no gauge),
coordinate representation applies 1/H spectrally followed by the local
operators H = rho_3 (s . grad/i), P = grad/i, J = r x grad/i + s, K = H r.
By Parseval the two agree to roundoff.

Position multiplication uses box-centered coordinates in [-L/2, L/2); fields
should be localized away from the box seam for position-dependent
observables to be meaningful.
"""

from __future__ import annotations

import enum
import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, kv

from .errors import DomainError, NormalizationError, ResourceError, ShapeError
from .fieldcore import CYCLIC, LEVI_CIVITA, poynting
from .spectral import (_DC_RTOL, GridSpec, HelicitySpectrum, SixField, _curl,
                       _dc_energy_fraction, _derivative, _fft,
                       _helicity_amplitudes, _ifft, _field_of_blocks, _live,
                       _live_blocks, _synthesis, decompose, triad_arrays)

__all__ = [
    "Observables", "GeneratorTag",
    "scalar_product_momentum", "photon_number", "norm_h",
    "scalar_product_coordinate",
    "observables_momentum", "observables_coordinate",
    "energy_density", "energy_probability",
    "landau_peierls", "kernel_identity_check", "newton_wigner_kernel",
    "generator_apply", "commutator_residual", "commutator_residuals",
    "expected_commutator", "inverse_hamiltonian_apply",
]

# Brute-force double sums over point pairs are capped at this lattice size.
DIRECT_SUM_MAX_POINTS = 4096
_PROJECTION_RTOL = 1e-8   # non-positive-frequency content 1/H refuses
_NORMALIZED_RTOL = 1e-8   # |<psi|psi> - 1| observables_coordinate accepts


@dataclass
class Observables:
    """Expectation values of the energy and the three vector generators."""

    energy: float
    momentum: np.ndarray
    angular_momentum: np.ndarray
    moment_of_energy: np.ndarray


class GeneratorTag(enum.Enum):
    H = "H"
    P_X = "P_x"
    P_Y = "P_y"
    P_Z = "P_z"
    J_X = "J_x"
    J_Y = "J_y"
    J_Z = "J_z"
    K_X = "K_x"
    K_Y = "K_y"
    K_Z = "K_z"

    @property
    def axis(self):
        return {"x": 0, "y": 1, "z": 2}.get(self.value[-1])

    @property
    def family(self):
        return self.value[0]


# Vector generators by (family, axis).
_VECTOR_TAGS = {(tag.family, tag.axis): tag for tag in GeneratorTag
                if tag.axis is not None}
# Levi-Civita symbol as (i, j) -> (k, eps_ijk) for i != j.
_EPS = {(i, j): (k, float(LEVI_CIVITA[i, j, k]))
        for i, j, k in itertools.permutations(range(3))}


def _poincare_algebra():
    """(A, B) -> (C, c) with [A, B] = c C; a pair not listed commutes."""
    tag, table = _VECTOR_TAGS, {}
    for (i, j), (k, sign) in _EPS.items():
        for family in "PJK":  # [J_i, X_j] = i eps_ijk X_k
            table[tag["J", i], tag[family, j]] = (tag[family, k], 1j * sign)
        # [K_i, K_j] = -i eps_ijk J_k
        table[tag["K", i], tag["K", j]] = (tag["J", k], -1j * sign)
    for i in range(3):  # [K_i, P_j] = i delta_ij H and [K_i, H] = i P_i
        table[tag["K", i], tag["P", i]] = (GeneratorTag.H, 1j)
        table[tag["K", i], GeneratorTag.H] = (tag["P", i], 1j)
    for (a, b), (c, coeff) in list(table.items()):  # [B, A] = -[A, B]
        table.setdefault((b, a), (c, -coeff))
    return table


_ALGEBRA = _poincare_algebra()


def _check_specs(a, b):
    if a.spec != b.spec:
        raise ShapeError("grid mismatch between operands")


def scalar_product_momentum(a: HelicitySpectrum, b: HelicitySpectrum) -> complex:
    """Physical scalar product sum_lambda,k conj(a) b / (V |k|)."""
    _check_specs(a, b)
    weight = a.spec.k_inverse() / a.spec.volume
    return complex(np.sum(weight * np.conj(a.amp) * b.amp))


def photon_number(spectrum: HelicitySpectrum) -> float:
    """Total photon number carried by the amplitudes (the squared norm)."""
    return scalar_product_momentum(spectrum, spectrum).real


def norm_h(psi: SixField) -> float:
    """Squared physical norm of a positive-frequency field."""
    return photon_number(decompose(psi))


def _min_image_sq_distances(spec: GridSpec):
    """Squared minimum-image distances d(r) on the lattice of differences."""
    out = np.zeros(spec.n)
    for ax, (m, L) in enumerate(zip(spec.n, spec.length)):
        d = (L / m) * np.arange(m)
        d = np.minimum(d, L - d)
        shape = [1, 1, 1]
        shape[ax] = m
        out = out + (d**2).reshape(shape)
    return out


def _cell_kernel_integral(spacing):
    """integral over one grid cell of 1/|u|^2 d^3u.

    Written as the solid-angle integral of the center-to-boundary distance
    R(omega): int_cell |u|^-2 = int dOmega R(omega); evaluated with a product
    Gauss rule.  Used to give the singular self-cell of the direct
    double-sum kernel its exact average weight.
    """
    hx, hy, hz = (s / 2.0 for s in spacing)
    nc, nph = 80, 160
    ct, wt = np.polynomial.legendre.leggauss(nc)
    ph = (np.arange(nph) + 0.5) * (2.0 * np.pi / nph)
    wp = 2.0 * np.pi / nph
    st = np.sqrt(1.0 - ct**2)
    ox = st[:, None] * np.cos(ph)[None, :]
    oy = st[:, None] * np.sin(ph)[None, :]
    oz = ct[:, None] * np.ones_like(ph)[None, :]
    with np.errstate(divide="ignore"):
        r = np.minimum(np.minimum(hx / np.abs(ox), hy / np.abs(oy)),
                       hz / np.abs(oz))
    return float(np.sum(r * wt[:, None] * wp))


def scalar_product_coordinate(a: SixField, b: SixField, method="spectral") -> complex:
    """Coordinate-representation scalar product of positive-frequency fields.

    method="spectral" evaluates the mode sum (identical to
    scalar_product_momentum of the decompositions).  method="direct"
    performs the lattice double sum with the 1/(2 pi^2 |r - r'|^2) kernel
    (minimum image, analytically weighted self-cell) as an independent
    cross-check; it is capped at DIRECT_SUM_MAX_POINTS lattice points.
    """
    _check_specs(a, b)
    if method == "spectral":
        return scalar_product_momentum(decompose(a), decompose(b))
    if method != "direct":
        raise DomainError(f"unknown method {method!r}")
    spec = a.spec
    if spec.npoints > DIRECT_SUM_MAX_POINTS:
        raise ResourceError(
            f"direct double sum needs {spec.npoints} points > cap "
            f"{DIRECT_SUM_MAX_POINTS}"
        )
    d2 = _min_image_sq_distances(spec)
    kernel = np.zeros(spec.n)
    nz = d2 > 0
    kernel[nz] = 1.0 / d2[nz]
    kernel[0, 0, 0] = _cell_kernel_integral(spec.spacing) / spec.cell_volume
    av = a.data.reshape(6, -1)
    bv = b.data.reshape(6, -1)
    n = spec.n
    idx = np.indices(n).reshape(3, -1)
    total = 0.0 + 0.0j
    kflat = kernel
    for p in range(idx.shape[1]):
        di = tuple((idx[ax] - idx[ax, p]) % n[ax] for ax in range(3))
        krow = kflat[di]
        total += np.sum(np.conj(av[:, p])[:, None] * bv * krow[None, :])
    total *= spec.cell_volume**2 / (2.0 * np.pi**2)
    return complex(total)


def inverse_hamiltonian_apply(psi: SixField) -> SixField:
    """Apply 1/H spectrally (division by omega per mode).

    Defined on positive-frequency fields only; raises DomainError when the
    input carries non-positive-frequency content above _PROJECTION_RTOL.
    """
    blocks, live = _live_blocks(psi.data)
    raw = _fft(live)
    _positive_frequency_amplitudes(psi, raw, blocks)
    raw *= psi.spec.k_inverse()
    return _field_of_blocks(psi.spec, blocks, _ifft(raw))


def _positive_frequency_amplitudes(psi: SixField, raw, blocks):
    """Helicity amplitudes of raw, the unscaled transform of the stack of
    psi's live blocks `blocks`, once psi has passed the checks 1/H needs.

    Raises DomainError for a non-finite psi, and for one whose
    non-positive-frequency content ||raw - P raw|| / ||raw|| exceeds
    _PROJECTION_RTOL.  P keeps e e* raw on the upper block and e* e raw on
    the lower, and drops k = 0.  By Parseval the defect equals the
    real-space ||psi - synthesize(decompose(psi))|| relative to ||psi||.
    It is summed from the differences, one component at a time:
    ||raw||^2 - ||P raw||^2 would cancel to about 1e-8, the tolerance
    itself, on an exact positive-frequency field.
    No k = 0 warning is given: a k = 0 energy fraction f alone makes the
    defect at least sqrt(f), so each field :func:`decompose` warns on
    (f > 1e-12) is refused, with a defect of at least 1e-6.
    """
    amp = _helicity_amplitudes(psi, raw, blocks).amp
    e, _, _ = triad_arrays(psi.spec)
    residual = np.empty(psi.spec.n, dtype=complex)
    defect2 = scale2 = 0.0
    for c in range(3):
        for row, b in enumerate(blocks):
            np.multiply(e[c] if b == 0 else np.conj(e[c]), amp[b], out=residual)
            np.subtract(raw[row, c], residual, out=residual)
            defect2 += np.sum(np.abs(residual) ** 2)
            scale2 += np.sum(np.abs(raw[row, c]) ** 2)
    defect, scale = np.sqrt(defect2), np.sqrt(scale2)
    if scale > 0 and defect > _PROJECTION_RTOL * scale:
        raise DomainError(
            f"1/H needs a positive-frequency field; projection defect "
            f"{defect / scale:.3e}"
        )
    return amp


def observables_momentum(spectrum: HelicitySpectrum) -> Observables:
    """Expectation values evaluated on helicity amplitudes.

    Energy and momentum are diagonal mode sums.  Angular momentum and moment
    of energy read D = d/dk + i lambda alpha through the Cartesian amplitude
    a = e phi (e* phi for lambda = -1), as Im(phi* D phi) = Im(a* . d a) in
    any gauge; d_m a is spectral, one inverse and one forward transform
    along k axis m.  It is formed only on the k lines along axis m that
    carry amplitude (:func:`spectral._live`, against the spectrum's largest
    |phi|): the terms dropped are below (16 eps)^2 of the energy.  The
    helicity term lambda k/|k| is added to the angular momentum.  Amplitudes
    are expected band limited with support away from the k-box edge.
    """
    spec = spectrum.spec
    size = np.abs(spectrum.amp)
    top = np.max(size)
    e, _, _ = triad_arrays(spec)
    # x_m in FFT order: its shift from box-centered order is the checkerboard.
    coords = [np.broadcast_to(np.fft.ifftshift(x, axes=m), spec.n)
              for m, x in enumerate(spec.coord_lines())]
    # g = sum_lambda Re(phi* (1/i) D phi), one k axis at a time, on the live
    # lines along it, gathered into (3, lines, n_m) stacks of a's components.
    g = np.zeros((3,) + spec.n)
    for b, phi in enumerate(spectrum.amp):
        if not np.any(phi):
            continue
        for m in range(3):
            live = _live(np.max(size[b], axis=m), top)
            a = np.moveaxis(e, m + 1, -1)[:, live]
            if b:
                np.conj(a, out=a)
            a *= np.moveaxis(phi, m, -1)[live]
            conj_a = np.conj(a)
            image = _ifft(a, axes=(-1,))
            image *= np.moveaxis(coords[m], m, -1)[live]
            image = _fft(image, overwrite=True, axes=(-1,))
            # d_m a = -i image, so Im(a* d_m a) = -Re(a* image)
            g_lines = np.moveaxis(g[m], m, -1)
            for conj_c, image_c in zip(conj_a, image):
                g_lines[live] -= np.multiply(conj_c, image_c,
                                             out=image_c).real
    p2 = np.square(size, out=size)
    helicity = p2[0] - p2[1]
    energy, momentum, n, omega = _mode_sums(spec, p2)
    spin = helicity * spec.k_inverse()
    # np.sum products, not BLAS ones (see observables_coordinate)
    ang = [np.sum(n[j] * g[k]) - np.sum(n[k] * g[j]) + np.sum(n[i] * spin)
           for i, (j, k) in enumerate(CYCLIC)]
    return Observables(
        energy=energy, momentum=momentum, angular_momentum=np.array(ang),
        moment_of_energy=-np.array([np.sum(c * omega) for c in g]))


def _mode_sums(spec: GridSpec, p2):
    """Energy, momentum and their weights n, omega: the diagonal mode sums
    of p2 = |phi|^2 per helicity.  Under the weight 1/(V |k|), k becomes n/V
    and omega (|k|/|k|)/V, which is 0 at k = 0: that mode carries no energy."""
    _, nhat, knorm = triad_arrays(spec)
    n = nhat / spec.volume
    omega = knorm * spec.k_inverse() / spec.volume
    power = p2[0] + p2[1]
    return (float(np.sum(omega * power)),
            np.array([np.sum(c * power) for c in n]), n, omega)


def _check_normalized(n2):
    """Refuse a photon number n2 off 1 by more than _NORMALIZED_RTOL."""
    if abs(n2 - 1.0) > _NORMALIZED_RTOL:
        raise NormalizationError(
            f"field is not normalized: <psi|psi> = {n2:.12e}", measured_norm=n2
        )


def observables_coordinate(psi: SixField | HelicitySpectrum) -> Observables:
    """Expectation values via 1/H followed by the local generators.

    psi is a positive-frequency SixField, or the HelicitySpectrum of one,
    normalized to unit photon number; NormalizationError (with the measured
    norm attached) is raised otherwise.  A spectrum's psi and 1/H psi are
    synthesized from its amplitudes, over its live blocks; a field's are
    read from one raw transform of its live blocks, which is checked to be
    of positive frequency first.
    """
    spec = psi.spec
    dv = spec.cell_volume
    if isinstance(psi, HelicitySpectrum):
        _, live = _synthesis(psi)
        _check_normalized(photon_number(psi))
        _, bra = _synthesis(psi, weight=spec.k_inverse())
    else:
        # One raw transform serves the checks, the norm and 1/H psi, with
        # 1/|k| a raw multiplier.
        blocks, live = _live_blocks(psi.data)
        raw = _fft(live)
        amp = _positive_frequency_amplitudes(psi, raw, blocks)
        amp[blocks.start:blocks.stop] *= dv * spec.checkerboard()
        _check_normalized(photon_number(HelicitySpectrum(spec=spec, amp=amp)))
        del amp
        bra = _ifft(spec.k_inverse() * raw)
        del raw
    np.conj(bra, out=bra)
    coords = spec.coord_lines()
    # Each P_m psi = (1/i) d_m psi is one transform pair along axis m, built
    # one axis at a time in one reused buffer.  <P_m> is its overlap with
    # 1/H psi; the same pointwise overlap, weighted by x_a, gives the
    # orbital terms eps_iam x_a P_m of <J_i>.  Overlaps are reduced one
    # component at a time.
    momentum = np.empty(3)
    ang = np.zeros(3)
    grid = (-1,) + spec.n
    image = np.empty_like(bra)
    product = np.empty(spec.n, dtype=complex)
    overlap = np.empty(spec.n)
    for m in range(3):
        np.copyto(image, live)
        image = _derivative(spec, image, m, overwrite=True)
        overlap[...] = 0.0
        for bra_c, image_c in zip(bra.reshape(grid), image.reshape(grid)):
            overlap += np.multiply(bra_c, image_c, out=product).real
        momentum[m] = float(np.sum(overlap)) * dv
        for a in range(3):
            if (a, m) in _EPS:
                i, sign = _EPS[(a, m)]
                ang[i] += sign * float(np.sum(coords[a] * overlap))
    # Re(bra . S_i psi) = Im(bra_j psi_k - bra_k psi_j), (i, j, k) cyclic.
    # No BLAS dot product here: its worker threads keep spinning after the
    # call and slow whatever runs next on a small host.
    for i, (j, k) in enumerate(CYCLIC):
        overlap[...] = 0.0
        for bra_b, live_b in zip(bra, live):
            overlap += np.multiply(bra_b[j], live_b[k], out=product).imag
            overlap -= np.multiply(bra_b[k], live_b[j], out=product).imag
        ang[i] += float(np.sum(overlap))
    ang *= dv
    # <H> is the energy integral, and <K> reduces exactly to the
    # energy-weighted position integral.
    dens = np.zeros(spec.n)
    for comp in live.reshape(grid):
        dens += np.abs(comp) ** 2
    energy = float(np.sum(dens)) * dv
    moe = np.array([float(np.sum(coords[i] * dens)) * dv for i in range(3)])
    return Observables(energy=energy, momentum=momentum,
                       angular_momentum=ang, moment_of_energy=moe)


def energy_density(psi: SixField):
    """Normalized energy density and flux, (rho_E, j_E) with integral rho_E = 1."""
    spec = psi.spec
    e_total = float(np.sum(np.abs(psi.data) ** 2)) * spec.cell_volume
    if e_total <= 0.0:
        raise DomainError("energy density undefined for a zero field")
    rho = np.sum(np.abs(psi.data) ** 2, axis=(0, 1)) / e_total
    j = (poynting(psi.upper) - poynting(psi.lower)) / e_total
    return rho, j


def energy_probability(psi: SixField, region) -> float:
    """Fraction of the energy inside an axis-aligned coordinate box.

    region = ((xmin, xmax), (ymin, ymax), (zmin, zmax)) in box-centered
    coordinates; an empty region returns 0 with a warning.
    """
    rho, _ = energy_density(psi)
    coords = psi.spec.coord_lines()
    mask = np.ones(psi.spec.n, dtype=bool)
    for ax in range(3):
        lo, hi = region[ax]
        mask &= (coords[ax] >= lo) & (coords[ax] < hi)
    if not np.any(mask):
        warnings.warn("energy_probability: region contains no lattice points")
        return 0.0
    return float(np.sum(rho[mask]) * psi.spec.cell_volume)


def landau_peierls(psi: SixField) -> SixField:
    """Nonlocal (-Laplacian)^(-1/4) transform: divide modes by sqrt |k|.

    The transformed field has a plain L2 norm equal to the physical norm of
    the input.  Raises DomainError if the field carries k = 0 energy above
    spectral._DC_RTOL of the total.
    """
    spec = psi.spec
    bhat = _fft(psi.data)
    fraction = _dc_energy_fraction(bhat)
    bhat *= np.sqrt(spec.k_inverse())
    out = _ifft(bhat)
    if fraction > _DC_RTOL:
        raise DomainError(
            f"field carries k = 0 energy fraction {fraction:.3e}; the "
            "nonlocal transform is undefined on the DC mode"
        )
    return SixField(spec=spec, data=out)


# Gauss nodes and the radius beyond which kernel_identity_check adds the
# analytic tail, in units of the point separation.
_KERNEL_N_RADIAL = 160
_KERNEL_N_ANGULAR = 160
_KERNEL_R_MAX_FACTOR = 40.0


def kernel_identity_check(r1, r2):
    """Evaluate both sides of the |r|^(-5/2) convolution identity.

    lhs = (1/16 pi) integral d^3r |r - r1|^(-5/2) |r - r2|^(-5/2), computed
    by splitting space at the perpendicular bisector plane, integrating each
    half in focus-centered spherical coordinates with an r = s^2 substitution
    that removes the singularity, and adding the analytic large-radius tail.
    rhs = |r1 - r2|^(-2).  Returns (lhs, rhs).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    d = float(np.linalg.norm(r2 - r1))
    if d == 0.0:
        raise DomainError("kernel identity undefined for coincident points")
    rhs = 1.0 / d**2
    rmax = _KERNEL_R_MAX_FACTOR * d
    # Gauss nodes: radial s in (0, sqrt(Rlim)], angular u = cos(gamma).
    su, wu = np.polynomial.legendre.leggauss(_KERNEL_N_ANGULAR)
    ss, ws = np.polynomial.legendre.leggauss(_KERNEL_N_RADIAL)
    total = 0.0
    for u, wgt_u in zip(su, wu):
        # gamma measured from the axis pointing at the other focus.
        rlim = min(rmax, 0.5 * d / u) if u > 0 else rmax
        smax = np.sqrt(rlim)
        s = 0.5 * smax * (ss + 1.0)
        wr = 0.5 * smax * ws
        r = s**2
        other = np.sqrt(r**2 + d**2 - 2.0 * r * d * u)
        integrand = r ** (-2.5) * other ** (-2.5)
        # dV = 2 pi r^2 dr du ; dr = 2 s ds
        total += wgt_u * np.sum(wr * integrand * r**2 * 2.0 * s)
    total *= 2.0 * np.pi
    lhs = 2.0 * total / (16.0 * np.pi)  # both half-spaces by symmetry
    lhs += 1.0 / (8.0 * rmax**2)  # analytic |r| > rmax tail of r^-5
    return lhs, rhs


# Normalization of the massive smoothing kernel: fixed by the massless limit
# pi/(2 pi r)^(5/2), i.e. the kernel of (-Laplacian)^(-1/4).
_NW_PREFACTOR = 2.0 / ((4.0 * np.pi) ** 1.5 * gamma_fn(0.25))


def newton_wigner_kernel(r, m):
    """Radial profile K(r) of the massive position-smoothing kernel.

    K(r) = C (2m/r)^(5/4) K_{5/4}(m r) with C chosen so that K(r) tends to
    pi/(2 pi r)^(5/2) as m -> 0 (the massless nonlocal kernel).  Monotone
    decreasing in r, decaying as exp(-m r) for large m r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or m <= 0.0:
        raise DomainError("newton_wigner_kernel needs r > 0 and m > 0")
    out = _NW_PREFACTOR * (2.0 * m / r) ** 1.25 * kv(1.25, m * r)
    if out.ndim == 0:
        return float(out)
    return out


def _derivatives_read(tag: GeneratorTag):
    """Axes m of the derivative fields D_m that the generator tag reads."""
    if tag.family == "P":
        return (tag.axis,)
    if tag.family == "J":
        return CYCLIC[tag.axis]
    return ()


class _GeneratorJet:
    """The ten Poincare generators applied to one field psi.

    The jet holds data, the stack of the live blocks of psi, and images
    are stacks of the same blocks.  P_m = D_m = (1/i) d_m psi and
    J_i = x_j D_k - x_k D_j + S_i psi, (j, k) = CYCLIC[i], read derivative
    fields, each built at most once while held.  H = rho_3 curl psi and
    K_i = H (x_i psi) form the curl as spectral.curl does from the terms
    D_a psi_b, a != b; K_i takes x_i D_a psi_b along each axis a != i,
    where x_i is constant, and transforms x_i psi_b along axis i.  A term
    comes from a held field, from one built and held if its axis is in
    keep, or else from psi_b alone.  Returned arrays may be held by the
    jet; callers must not write to them.
    """

    def __init__(self, spec: GridSpec, blocks, data, keep=()):
        self.spec, self.blocks, self.data = spec, blocks, data
        self.keep = set(keep)
        self._derivs = [None, None, None]

    def derivative(self, ax):
        """D_ax = (1/i) d_ax psi."""
        if self._derivs[ax] is None:
            self._derivs[ax] = _derivative(self.spec, self.data, ax)
        return self._derivs[ax]

    def _term(self, a, b):
        """D_a psi_b."""
        if self._derivs[a] is None and a not in self.keep:
            return _derivative(self.spec, self.data[:, b], a)
        return self.derivative(a)[:, b]

    def release(self, keep):
        """Hold from now on only the derivative fields along the axes keep."""
        self.keep = set(keep)
        for ax in range(3):
            if ax not in self.keep:
                self._derivs[ax] = None

    def apply(self, tag: GeneratorTag):
        """Stack of the image tag psi."""
        spec, ax = self.spec, tag.axis
        if tag.family in "HK":
            term = self._term
            if tag.family == "K":
                x = spec.coord_lines()[ax]

                def term(a, b):   # D_a (x psi_b)
                    if a != ax:
                        return x * self._term(a, b)
                    weighted = x * self.data[:, b]
                    return _derivative(spec, weighted, ax, overwrite=True)
            out = _curl(term, self.data.shape)
            if 1 in self.blocks:  # rho_3 negates F-, the last block
                np.negative(out[-1], out=out[-1])
            return out
        if tag.family == "P":
            return self.derivative(ax)
        if tag.family == "J":
            coords = spec.coord_lines()
            j, k = CYCLIC[ax]
            out = coords[j] * self.derivative(k)
            out -= coords[k] * self.derivative(j)
            out[:, j] -= 1j * self.data[:, k]
            out[:, k] += 1j * self.data[:, j]
            return out
        raise DomainError(f"unknown generator {tag!r}")


def generator_apply(tag: GeneratorTag, psi: SixField) -> SixField:
    """Apply one of the ten Poincare generators in coordinate representation."""
    jet = _GeneratorJet(psi.spec, *_live_blocks(psi.data))
    return _field_of_blocks(psi.spec, jet.blocks, jet.apply(tag))


def expected_commutator(tag_a: GeneratorTag, tag_b: GeneratorTag,
                        psi: SixField) -> SixField:
    """The field ([A, B]) psi predicted by the Poincare algebra."""
    term = _ALGEBRA.get((tag_a, tag_b))
    if term is None:
        return SixField.zeros(psi.spec)
    out = generator_apply(term[0], psi)
    out.data *= term[1]
    return out


def _relative_norm(resid, spec: GridSpec, denom) -> float:
    """|| resid || / denom, or 0 for a zero denominator."""
    if denom == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(resid) ** 2) * spec.cell_volume) / denom)


def _pair_residual(tag_a, tag_b, jet_a, jet_b, images, denom) -> float:
    """Residual of (A, B) from the jets of A psi and B psi; images maps a
    tag C to the data of C psi."""
    resid = jet_b.apply(tag_a) - jet_a.apply(tag_b)
    term = _ALGEBRA.get((tag_a, tag_b))
    if term is not None:
        resid -= images(term[0]) * term[1]
    return _relative_norm(resid, jet_a.spec, denom)


def commutator_residual(tag_a: GeneratorTag, tag_b: GeneratorTag,
                        psi: SixField) -> float:
    """|| ([A,B] - expected) psi || / || psi || on a band-limited field.

    The images A psi, B psi and the predicted C psi share the derivative
    fields of psi that P and J build.
    """
    jet = _GeneratorJet(psi.spec, *_live_blocks(psi.data))
    jet_a, jet_b = (_GeneratorJet(psi.spec, jet.blocks, jet.apply(tag))
                    for tag in (tag_a, tag_b))
    return _pair_residual(tag_a, tag_b, jet_a, jet_b, jet.apply, psi.norm())


# The order the sweep makes the image jets in (see commutator_residuals).
_SWEEP_ORDER = tuple(GeneratorTag[name] for name in (
    "H", "P_X", "J_Y", "K_Y", "J_Z", "P_Z", "K_X", "J_X", "K_Z", "P_Y"))


def commutator_residuals(psi: SixField):
    """commutator_residual for all 45 pairs of distinct generators.

    Returns [(A, B, residual)] with A before B in GeneratorTag order.  The
    ten images G psi come from one jet of psi, and each image gets a jet of
    its own, made in _SWEEP_ORDER; pair (A, B) is computed once both jets
    exist.  A jet builds its three derivative fields when it is made, and
    keeps one only while a P or J made later reads it; H and K otherwise
    transform each term alone (a K from nothing takes 12 one-axis passes
    of a grid, the 3-D form 18).  In that order 22 of the 30 K find both
    fields they read held and 8 one (in tag order 24 came after the last J
    and found none): 109 forward and 109 inverse one-axis transforms, per
    live block 350 passes of one grid along one axis (3-D made 1026).
    The sweep holds at most about 30 six-field sizes beyond psi, half that
    for a definite-helicity psi.
    """
    tags = list(GeneratorTag)
    blocks, live = _live_blocks(psi.data)
    jet = _GeneratorJet(psi.spec, blocks, live, keep=range(3))
    images = {tag: jet.apply(tag) for tag in tags}
    del jet
    denom = psi.norm()
    jets = {}
    found = {}
    for made, tag in enumerate(_SWEEP_ORDER):
        jets[tag] = _GeneratorJet(psi.spec, blocks, images[tag],
                                  keep=range(3))
        for earlier in _SWEEP_ORDER[:made]:
            a, b = sorted((earlier, tag), key=tags.index)
            found[a, b] = _pair_residual(a, b, jets[a], jets[b], images.get,
                                         denom)
        keep = {ax for later in _SWEEP_ORDER[made + 1:]
                for ax in _derivatives_read(later)}
        for held in jets.values():
            held.release(keep)
    return [(tag_a, tag_b, found[tag_a, tag_b])
            for i, tag_a in enumerate(tags) for tag_b in tags[i + 1:]]
