"""Periodic-grid Fourier machinery for six-component photon fields.

Grid conventions
----------------
A GridSpec describes a periodic box with even point counts n = (nx, ny, nz)
and edge lengths L = (Lx, Ly, Lz).  Real-space samples sit at box-centered
coordinates x_i = (i - n/2) * dx in [-L/2, L/2); wave numbers are
k_m = 2 pi m / L with integer m in [-n/2, n/2).

Transforms use the integral-like normalization

    u_hat(k) = dV * sum_r u(r) exp(-i k.r),
    u(r)     = (1/V) * sum_k u_hat(k) exp(+i k.r),

so that sum_k (1/V) approximates integral d^3k/(2 pi)^3.  With box-centered
coordinates the extra phase exp(-i k . r0) is the exact checkerboard
(-1)^(mx+my+mz), applied without roundoff.

Only readers of a physical spectrum or its norm (helicity amplitudes,
Wigner matrices) use this scaled pair, :func:`to_k` and :func:`to_r`.  Every
k-space multiplier m(k), 1/H = 1/|k| included, runs on the raw pair as
_ifft(m * _fft(u)): the checkerboard and cell-volume factors cancel there,
as (-1)^(2m) = 1.  A derivative multiplier k_m varies along k axis m alone,
so every spectral derivative is a transform pair along its own axis only
(:func:`_derivative`), and every curl is :func:`_curl` of such terms.
A real u is transformed as complex: scipy's real-input path rounds
differently, and a real field must differentiate exactly like its complex
copy.

Polarization gauge
------------------
The transverse triad (l1, l2, n) uses the spherical gauge l1 = theta_hat,
l2 = phi_hat.  At the exact north pole (k ~ +z) l1 = x, l2 = y; at the exact
south pole l1 = x, l2 = -y.  The circular vector e = (l1 + i l2)/sqrt(2)
satisfies i k x e = |k| e and e*.e = 1.

The connection returned by :func:`berry_connection` is the one entering the
covariant derivative D_k = d/dk + i lambda alpha(k) for helicity amplitudes:
alpha = (l1 . d l2 - l2 . d l1)/2 = -cot(theta)/|k| phi_hat in this gauge.
It shifts by grad chi under the gauge change e -> exp(i chi) e, and its curl
is the unit monopole field +n/k^2 (the sign and normalization are fixed by
requiring the angular-momentum algebra to close; see the rotation-generator
tests).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .errors import DomainError, GaugeSingularityError, ShapeError
from .fieldcore import CYCLIC

__all__ = [
    "GridSpec", "SixField", "HelicitySpectrum", "PolarizationTriad",
    "polarization_triad", "triad_arrays", "berry_connection",
    "berry_connection_grid", "decompose", "synthesize",
    "positive_frequency_project", "longitudinal_residual", "translate",
    "to_k", "to_r", "grad", "div", "curl", "release_tables", "set_workers",
    "transform_counts", "reset_transform_counts",
]

# Worker count for scipy.fft; settable from the CLI (--threads / PWFN_THREADS).
_FFT_WORKERS = 1


def set_workers(n: int) -> None:
    """Set the FFT worker count, n >= 1, for every later transform."""
    global _FFT_WORKERS
    if n < 1:
        raise DomainError(f"FFT worker count must be >= 1, got {n}", arg="n")
    _FFT_WORKERS = int(n)


@dataclass(frozen=True)
class GridSpec:
    """Periodic box: points per axis (even) and physical edge lengths."""

    n: tuple
    length: tuple

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        length = tuple(float(v) for v in self.length)
        if len(n) != 3 or len(length) != 3:
            raise DomainError("GridSpec needs three point counts and three lengths")
        if any(v <= 0 or v % 2 for v in n):
            raise DomainError(f"point counts must be positive and even, "
                              f"got {n}", arg="n")
        if not all(0.0 < v < np.inf for v in length):
            raise DomainError(f"box lengths must be positive and finite, "
                              f"got {length}", arg="length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)

    @property
    def spacing(self):
        return tuple(L / m for L, m in zip(self.length, self.n))

    @property
    def volume(self):
        return self.length[0] * self.length[1] * self.length[2]

    @property
    def cell_volume(self):
        d = self.spacing
        return d[0] * d[1] * d[2]

    @property
    def npoints(self):
        return self.n[0] * self.n[1] * self.n[2]

    def axes(self):
        """Box-centered coordinate samples per axis."""
        return tuple(
            (np.arange(m) - m // 2) * (L / m) for m, L in zip(self.n, self.length)
        )

    def coord_lines(self):
        """Box-centered coordinates as three read-only arrays of shapes
        (nx, 1, 1), (1, ny, 1) and (1, 1, nz): each broadcasts over the
        lattice to the matching row of :meth:`coords`."""
        return _table(self, "coord_lines", lambda: _lines(self.axes()))

    def coords(self):
        """Array (3, nx, ny, nz) of box-centered coordinates."""
        return _table(self, "coords", lambda: _expand(self.coord_lines()))

    def k_axes(self):
        """Dual-lattice wave numbers per axis in FFT order."""
        return tuple(
            2.0 * np.pi * sfft.fftfreq(m, d=L / m) for m, L in zip(self.n, self.length)
        )

    def k_lines(self):
        """Wave numbers as three broadcastable arrays, as :meth:`coord_lines`
        gives the coordinates: the rows of :meth:`k_grid`."""
        return _table(self, "k_lines", lambda: _lines(self.k_axes()))

    def k_diff_lines(self):
        """Wave numbers for odd-order derivative multipliers, as three
        broadcastable arrays: the rows of :meth:`k_grid_diff`.

        The unpaired Nyquist component is zeroed per axis: it has no
        conjugation-consistent odd derivative, and keeping it breaks the
        reality/conjugation symmetry of differentiated aliased products.
        """
        def build():
            axes = self.k_axes()
            for k, m in zip(axes, self.n):
                k[m // 2] = 0.0
            return _lines(axes)
        return _table(self, "k_diff_lines", build)

    def k_grid(self):
        """Array (3, nx, ny, nz) of wave vectors in FFT order."""
        return _table(self, "k_grid", lambda: _expand(self.k_lines()))

    def k_grid_diff(self):
        """Array (3, nx, ny, nz) of the wave vectors of :meth:`k_diff_lines`."""
        return _table(self, "k_grid_diff",
                      lambda: _expand(self.k_diff_lines()))

    def k_norm(self):
        return _table(self, "k_norm", lambda: _length(self.k_lines()))

    def k_max(self):
        """max |k| on the lattice: the |k| of the corner point of largest
        |k_x|, |k_y| and |k_z|, by the expression of :meth:`k_norm`, so
        equal to the maximum of that table without building it."""
        return float(_length([np.max(np.abs(k)) for k in self.k_axes()]))

    def k_inverse(self):
        """1/|k| on the dual lattice and 0 at k = 0, the mode without a
        transverse frame: the k = 0 rule of every momentum-space weight.

        Built on each call: a cached copy would keep one more grid-sized
        array resident beside the per-grid tables.
        """
        knorm = self.k_norm()
        return np.divide(1.0, knorm, out=np.zeros_like(knorm),
                         where=knorm > 0.0)

    def checkerboard(self):
        """(-1)^(mx+my+mz) on the dual lattice: exp(-i k . r0) exactly."""
        def build():
            signs = _lines([
                1 - 2 * (np.abs(sfft.fftfreq(m, d=1.0 / m)).astype(int) % 2)
                for m in self.n])
            return (signs[0] * signs[1] * signs[2]).astype(float)
        return _table(self, "checkerboard", build)


def _lines(axes):
    """Three 1-D axes as arrays of shapes (nx, 1, 1), (1, ny, 1), (1, 1, nz)."""
    return tuple(np.reshape(a, [-1 if d == i else 1 for d in range(3)])
                 for i, a in enumerate(axes))


def _expand(lines):
    """The (3, nx, ny, nz) stack of three broadcastable lines."""
    return np.stack(np.broadcast_arrays(*lines))


def _distinct(table, n, message, lead=()):
    """A float table of shape lead + (a, b, c), each of a, b, c 1 or n_d (the
    shape lead alone reads as (1, 1, 1)), at its distinct points: sliced to
    size 1 along each lattice axis where it is exactly constant (by ==, so
    a NaN keeps its axis).  Any other shape raises ShapeError(message)."""
    table = np.asarray(table, dtype=float)
    if table.shape == lead:
        table = table.reshape(lead + (1, 1, 1))
    if table.shape[:-3] != lead or table.ndim != len(lead) + 3 or any(
            m not in (1, size) for m, size in zip(table.shape[-3:], n)):
        raise ShapeError(message)
    for axis in range(len(lead), table.ndim):
        first = table[(slice(None),) * axis + (slice(0, 1),)]
        table = first if np.all(table == first) else table
    return table


def _length(lines):
    """sqrt(a^2 + b^2 + c^2) of three broadcastable lines (or numbers),
    summed in axis order."""
    return np.sqrt((lines[0] ** 2 + lines[1] ** 2) + lines[2] ** 2)


def _directions(lines, norm=None):
    """(v/|v|, |v|) of real vectors v given as three broadcastable lines or
    a (3, ...) array, with v/|v| = 0 where v = 0 and |v| :func:`_length`'s
    unless given as norm: the package's one unit-vector rule."""
    norm = _length(lines) if norm is None else norm
    nhat = np.zeros((3,) + norm.shape)
    for v, row in zip(lines, nhat):
        np.divide(v, norm, out=row, where=norm > 0.0)
    return nhat, norm


@functools.lru_cache(maxsize=1)
def _grid_tables(spec: GridSpec) -> dict:
    """Per-grid tables of the one grid most recently used.

    A new grid evicts every table of the previous one, so the cache never
    holds more than one grid's arrays; alternating between two grids
    rebuilds them, which costs time but never serves a stale grid.
    """
    return {}


def release_tables() -> None:
    """Drop the cached per-grid tables; the next use rebuilds them."""
    _grid_tables.cache_clear()


def _table(spec: GridSpec, name, build):
    """The read-only table ``name`` of ``spec``, built on first use."""
    tables = _grid_tables(spec)
    value = tables.get(name)
    if value is None:
        value = build()
        for arr in value if isinstance(value, tuple) else (value,):
            arr.flags.writeable = False
        tables[name] = value
    return value


# Calls of _fft/_ifft since the last reset, the points they transformed
# (array sizes, so a six-component block counts six grids) and the axis
# points (sizes times axes transformed: a one-axis call counts a third of a
# 3-D one).  Every transform of the package goes through these two.
_TRANSFORM_COUNTS = dict.fromkeys(
    ("fft_calls", "fft_points", "ifft_calls", "ifft_points",
     "fft_axis_points", "ifft_axis_points"), 0)


def transform_counts() -> dict:
    """Copy of the counters: calls, points and axis points per direction."""
    return dict(_TRANSFORM_COUNTS)


def reset_transform_counts() -> None:
    for key in _TRANSFORM_COUNTS:
        _TRANSFORM_COUNTS[key] = 0


def _fft(u, overwrite=False, axes=(-3, -2, -1)):
    """Unscaled forward FFT over the lattice axes `axes` (default all
    three); overwrites a complex u in place where overwrite is set.

    A real u is transformed as a complex copy, overwritten in place: scipy's
    real-input path rounds differently, and a real field must transform
    exactly like its complex copy.
    """
    _TRANSFORM_COUNTS["fft_calls"] += 1
    _TRANSFORM_COUNTS["fft_points"] += u.size
    _TRANSFORM_COUNTS["fft_axis_points"] += u.size * len(axes)
    if np.iscomplexobj(u):
        return sfft.fftn(u, axes=axes, workers=_FFT_WORKERS,
                         overwrite_x=overwrite)
    return sfft.fftn(np.array(u, dtype=complex), axes=axes,
                     workers=_FFT_WORKERS, overwrite_x=True)


def _ifft(uhat, axes=(-3, -2, -1)):
    """Unscaled inverse FFT over the lattice axes `axes` (default all
    three); may overwrite uhat."""
    _TRANSFORM_COUNTS["ifft_calls"] += 1
    _TRANSFORM_COUNTS["ifft_points"] += uhat.size
    _TRANSFORM_COUNTS["ifft_axis_points"] += uhat.size * len(axes)
    return sfft.ifftn(uhat, axes=axes, workers=_FFT_WORKERS,
                      overwrite_x=True)


def to_k(spec: GridSpec, u, overwrite=False):
    """Forward transform dV * sum_r u exp(-i k.r) over the last three axes;
    with overwrite, a complex u may be overwritten by the result."""
    out = _fft(u, overwrite)
    out *= spec.cell_volume * spec.checkerboard()
    return out


def to_r(spec: GridSpec, uhat):
    """Inverse of :func:`to_k`."""
    out = _ifft(uhat * spec.checkerboard())
    out *= 1.0 / spec.cell_volume
    return out


def _derivative(spec: GridSpec, u, axis, overwrite=False, at=None):
    """D u = (1/i) du/dx_axis of u, (..., nx, ny, nz), by one forward and
    one inverse transform along lattice axis `axis` alone: pairs along the
    other axes would cancel.  Where u has size 1 along `axis` it is constant
    there, and D u is 0 with no transform.  The odd-derivative wave numbers
    drop the unpaired Nyquist mode.  Complex, of u's shape; with overwrite,
    a complex u may be overwritten by it.  The array axis `at` (by default
    axis - 3) holds lattice axis `axis`, in a stack of permuted axes.
    """
    at = axis - 3 if at is None else at
    if np.shape(u)[at] == 1:
        return np.zeros(np.shape(u), dtype=complex)
    hat = _fft(u, overwrite=overwrite, axes=(at,))
    hat *= np.moveaxis(spec.k_diff_lines()[axis], axis - 3, at)
    return _ifft(hat, axes=(at,))


def grad(spec: GridSpec, u):
    """Spectral gradient over the last three axes of (..., nx, ny, nz).

    Returns (..., 3, nx, ny, nz): the derivative index sits at axis -4,
    where :func:`div` and :func:`curl` keep the vector index.  Row a is
    i D_a u (:func:`_derivative`), 0 along a lattice axis where u has size
    1.  A real u gives a real gradient.
    """
    shape = np.shape(u)
    real = np.isrealobj(u)
    out = np.empty(shape[:-3] + (3,) + shape[-3:],
                   dtype=float if real else complex)
    for a in range(3):
        d = _derivative(spec, u, a)
        d *= 1j
        out[..., a, :, :, :] = d.real if real else d
    return out


def div(spec: GridSpec, u):
    """Spectral divergence of vectors stored along axis -4 of (..., 3, nx, ny, nz).

    Returns (..., nx, ny, nz), i times the sum of D_a u_a in axis order
    (:func:`_derivative`), each term 0 along a lattice axis where u has
    size 1; a real u gives a real result.
    """
    total = _derivative(spec, u[..., 0, :, :, :], 0)
    for a in (1, 2):
        total += _derivative(spec, u[..., a, :, :, :], a)
    total *= 1j
    return total.real.copy() if np.isrealobj(u) else total


def curl(spec: GridSpec, data):
    """Spectral curl of vectors stored along axis -4 of (..., 3, nx, ny, nz).

    Each derivative term D_a u_b transforms its one component along its
    one axis (:func:`_derivative`; 0 along a lattice axis where data has
    size 1), and the terms are combined by :func:`_curl`.  A real input
    gives a real result.
    """
    out = _curl(lambda a, b: _derivative(spec, data[..., b, :, :, :], a),
                np.shape(data))
    return out.real.copy() if np.isrealobj(data) else out


def _curl(term, shape):
    """The curl, shaped `shape` = (..., 3, nx, ny, nz), from its derivative
    terms term(a, b) = D_a u_b = (1/i) d_a u_b: row c is
    i (term(a, b) - term(b, a)), (a, b) = CYCLIC[c], each term read into
    its row before the next is formed.  Every curl of the package is formed
    here (:func:`curl`, H and K, the evolution runner's right-hand side),
    so they agree bit for bit on equal terms."""
    out = np.empty(shape, dtype=complex)
    for c, (a, b) in enumerate(CYCLIC):
        out[..., c, :, :, :] = term(a, b)
        out[..., c, :, :, :] -= term(b, a)
    out *= 1j
    return out


@dataclass
class SixField:
    """Six-component wave function sampled on a periodic grid.

    data has shape (2, 3, nx, ny, nz): block (upper/lower), Cartesian
    component, lattice.
    """

    spec: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=complex)
        expected = (2, 3) + self.spec.n
        if self.data.shape != expected:
            raise ShapeError(f"data shape {self.data.shape} != {expected}")

    @classmethod
    def zeros(cls, spec: GridSpec):
        return cls(spec=spec, data=np.zeros((2, 3) + spec.n, dtype=complex))

    @property
    def upper(self):
        return self.data[0]

    @property
    def lower(self):
        return self.data[1]

    def copy(self):
        return SixField(spec=self.spec, data=self.data.copy())

    def norm2(self):
        """Plain lattice L2 norm squared, integral |psi|^2 d^3r."""
        return float(np.sum(np.abs(self.data) ** 2) * self.spec.cell_volume)

    def norm(self):
        return np.sqrt(self.norm2())

    def is_finite(self):
        return bool(np.all(np.isfinite(self.data)))


# A line or slab of a state carries amplitude where its largest |amplitude|
# exceeds _LIVE_TOL times the state's largest; the others hold the roundoff
# of the field's r-space round trip.
_LIVE_TOL = 16.0 * np.finfo(float).eps


def _live(peak, top):
    """Mask of the lines or slabs, of largest |amplitude| peak, that carry
    amplitude in a state of largest |amplitude| top: all of them unless
    top is finite and nonzero."""
    if not 0.0 < top < np.inf:
        return np.ones(np.shape(peak), dtype=bool)
    return peak > _LIVE_TOL * top


def _live_blocks(data):
    """(blocks, data[blocks]): the range of the blocks of data, a (2, ...)
    array, that hold a nonzero sample (0 = F+, 1 = F-), or range(2) if none
    does; block-diagonal operators never put content in the other block."""
    live = [b for b in range(2) if np.any(data[b])] or [0, 1]
    blocks = range(live[0], live[-1] + 1)
    return blocks, data[blocks.start:blocks.stop]


def _field_of_blocks(spec: GridSpec, blocks, stack) -> SixField:
    """The field holding stack in its blocks `blocks` and zero elsewhere."""
    data = stack
    if len(blocks) == 1:
        data = np.zeros((2, 3) + spec.n, dtype=complex)
        data[blocks.start] = stack[0]
    return SixField(spec=spec, data=data)


@dataclass
class HelicitySpectrum:
    """Helicity amplitudes on the dual lattice.

    amp has shape (2, nx, ny, nz); index 0 holds lambda = +1, index 1 holds
    lambda = -1.  The k = 0 entry is identically zero.
    """

    spec: GridSpec
    amp: np.ndarray

    LAMBDAS = (+1, -1)

    def __post_init__(self):
        self.amp = np.ascontiguousarray(self.amp, dtype=complex)
        expected = (2,) + self.spec.n
        if self.amp.shape != expected:
            raise ShapeError(f"amp shape {self.amp.shape} != {expected}")


@dataclass
class PolarizationTriad:
    """Right-handed transverse frame at one wave vector."""

    l1: np.ndarray
    l2: np.ndarray
    n_hat: np.ndarray
    e: np.ndarray = field(init=False)

    def __post_init__(self):
        self.e = (self.l1 + 1j * self.l2) / np.sqrt(2.0)


def _triads_from_khat(nx, ny, nz):
    """Spherical-gauge l1, l2 for unit-vector components; vectorized."""
    rho = np.hypot(nx, ny)
    # atan2(0, 0) = 0 encodes the phi = 0 pole convention for the north pole.
    phi = np.arctan2(ny, nx)
    cth = np.clip(nz, -1.0, 1.0)
    sth = rho
    cph, sph = np.cos(phi), np.sin(phi)
    l1 = np.stack([cth * cph, cth * sph, -sth])
    l2 = np.stack([-sph, cph, np.zeros_like(sph)])
    # Exact south pole: l1 = +x, l2 = -y (a pure gauge choice; the spherical
    # limit along phi = 0 would give l1 = -x, l2 = +y).
    south = (sth == 0.0) & (nz < 0.0)
    if np.any(south):
        l1[0][south], l1[1][south], l1[2][south] = 1.0, 0.0, 0.0
        l2[0][south], l2[1][south], l2[2][south] = 0.0, -1.0, 0.0
    return l1, l2


def polarization_triad(k):
    """Transverse triad (l1, l2, n) and circular vector e at one k != 0,
    with n = k/|k| by :func:`_directions`, so the frame is that of
    :func:`triad_arrays` at a lattice k."""
    nhat, kn = _directions(np.asarray(k, dtype=float).reshape(3, 1))
    if kn[0] == 0.0:
        raise DomainError("polarization triad is undefined at k = 0")
    l1, l2 = _triads_from_khat(*nhat)
    return PolarizationTriad(l1=l1.reshape(3), l2=l2.reshape(3),
                             n_hat=nhat.reshape(3))


def triad_arrays(spec: GridSpec):
    """Gridded e(k), e*(k) and n(k) on the dual lattice.

    Returns (e, n_hat, knorm); e has shape (3, nx, ny, nz) and is zero at
    the k = 0 point, where no transverse frame exists.  The arrays are
    cached per grid and read-only.
    """
    def build():
        nhat, knorm = _directions(spec.k_lines(), spec.k_norm())
        dc = knorm == 0.0
        l1, l2 = _triads_from_khat(nhat[0], nhat[1], nhat[2])
        l1[:, dc] = 0.0
        l2[:, dc] = 0.0
        e = (l1 + 1j * l2) / np.sqrt(2.0)
        return e, nhat, knorm
    return _table(spec, "triad", build)


def _spherical_connection(n, k_inverse, pole_cone):
    """-cot(theta)/|k| phi_hat from unit vectors n (3, ...) and 1/|k|, with
    phi_hat = (-n_y, n_x, 0)/sin(theta); 0 on the z axis (and where n = 0),
    NaN inside the pole cone 0 < sin(theta) < pole_cone."""
    sth = np.hypot(n[0], n[1])
    off_axis = sth > 0.0
    inv_sth = np.divide(1.0, sth, out=np.zeros_like(sth), where=off_axis)
    mag = -(n[2] * inv_sth) * k_inverse
    alpha = np.stack([-n[1] * inv_sth * mag, n[0] * inv_sth * mag,
                      np.zeros_like(mag)])
    alpha[:, off_axis & (sth < pole_cone)] = np.nan
    return alpha


def berry_connection(k, pole_cone=1e-6):
    """Connection of the spherical gauge at one k, entering D = d/dk + i lambda alpha.

    alpha(k) = -cot(theta)/|k| * phi_hat away from the z axis.  Exactly on the
    axis the frame is constant by convention and alpha = 0.  Inside the
    excluded cone around the axis (0 < sin(theta) < pole_cone) the gauge is
    singular and GaugeSingularityError is raised.  The value is that of
    :func:`berry_connection_grid` at the same k.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise DomainError(f"berry connection needs a finite k, got {k}",
                          arg="k")
    kn = np.sqrt(np.sum(k**2))
    if kn == 0.0:
        raise DomainError("berry connection undefined at k = 0")
    n = k / kn
    alpha = _spherical_connection(n[:, None], 1.0 / kn[None], pole_cone)[:, 0]
    if np.isnan(alpha[0]):
        raise GaugeSingularityError(
            f"k direction lies in the gauge pole cone "
            f"(sin theta = {np.hypot(n[0], n[1]):.2e})")
    return alpha


def berry_connection_grid(spec: GridSpec, pole_cone=1e-6):
    """Gridded connection; exact-axis points and k = 0 get 0, cone points get NaN.

    Built on the cached frame of :func:`triad_arrays`; k = 0 has n = 0 and
    counts as on the axis.
    """
    _, n, _ = triad_arrays(spec)
    return _spherical_connection(n, spec.k_inverse(), pole_cone)


# k = 0 energy fraction above which decompose warns and landau_peierls refuses
_DC_RTOL = 1e-12


def _dc_energy_fraction(hat) -> float:
    """k = 0 energy share of hat, a transform of psi or of its live blocks."""
    dc = sum(np.sum(np.abs(block[:, 0, 0, 0]) ** 2) for block in hat)
    total = sum(np.sum(np.abs(block) ** 2) for block in hat)
    return float(dc / total) if total > 0.0 else 0.0


def _helicity_spectrum(psi: SixField):
    """decompose's spectrum of psi and the k = 0 fraction it warns on."""
    blocks, live = _live_blocks(psi.data)
    hat = to_k(psi.spec, live)
    return _helicity_amplitudes(psi, hat, blocks), _dc_energy_fraction(hat)


def decompose(psi: SixField) -> HelicitySpectrum:
    """Project a six-component field onto helicity amplitudes.

    amp(k, +1) = e*(k) . upper_hat(k) and amp(k, -1) = e(k) . lower_hat(k);
    the k = 0 mode is forced to zero (with a warning if it carries energy).
    Longitudinal content is not stored; measure it with
    :func:`longitudinal_residual`.
    """
    spectrum, fraction = _helicity_spectrum(psi)
    if fraction > _DC_RTOL:
        warnings.warn(
            f"field carries k = 0 energy fraction {fraction:.3e}; "
            "the DC mode has no helicity content and is dropped",
            stacklevel=2,
        )
    return spectrum


def _helicity_amplitudes(psi: SixField, hat, blocks) -> HelicitySpectrum:
    """Helicity amplitudes of hat, a transform of the stack of psi's
    blocks `blocks`, without the k = 0 warning of :func:`decompose`.

    hat = to_k(psi.data) gives the amplitudes :func:`decompose` returns;
    the raw _fft(psi.data) gives them without the dV (-1)^m factor.  A
    block not in `blocks` has zero amplitudes.  The sums run one Cartesian
    component at a time, so only grid-sized temporaries are formed.
    """
    if not psi.is_finite():
        raise DomainError("field contains non-finite values")
    e, _, _ = triad_arrays(psi.spec)
    amp = np.zeros((2,) + psi.spec.n, dtype=complex)
    for row, b in enumerate(blocks):  # e* . F+ and e . F-
        np.multiply(np.conj(e[0]) if b == 0 else e[0], hat[row, 0], out=amp[b])
        for c in (1, 2):
            amp[b] += (np.conj(e[c]) if b == 0 else e[c]) * hat[row, c]
    amp[:, 0, 0, 0] = 0.0
    return HelicitySpectrum(spec=psi.spec, amp=amp)


def _check_phase(spec: GridSpec, t, arg="t"):
    """Refuse a time t, or a displacement t, at which the largest phase on
    the lattice, |k| |t|, is not finite; the error names the argument arg.
    """
    size = math.hypot(*np.ravel(np.asarray(t, dtype=float)))
    if not np.isfinite(spec.k_max() * size):
        raise DomainError(f"|k| {arg} is not finite at {arg} = {t!r}", arg=arg)


def synthesize(spectrum: HelicitySpectrum, t=0.0) -> SixField:
    """Rebuild the positive-frequency field from helicity amplitudes at time t.

    Each mode evolves with the phase exp(-i omega t), omega = |k|.  The
    inverse of :func:`to_k`'s (-1)^m is folded into that phase, so it is
    applied on the two amplitude grids, not on the six-component block.
    At t = 0 it is the checkerboard taken as complex, the bits of
    exp(-i omega 0) (-1)^m, signed zeros included, with no exponential.
    A helicity without amplitudes gives a zero block and no transform.
    """
    return _field_of_blocks(spectrum.spec, *_synthesis(spectrum, t))


def _synthesis(spectrum: HelicitySpectrum, t=0.0, weight=None):
    """(blocks, stack): synthesize(spectrum, t) as the stack of its live
    blocks (:func:`_live_blocks` of the amplitudes); with weight, a real
    k-space table, the synthesis of the amplitudes times weight."""
    if not np.all(np.isfinite(spectrum.amp)):
        raise DomainError("spectrum contains non-finite amplitudes")
    if spectrum.amp[0, 0, 0, 0] != 0.0 or spectrum.amp[1, 0, 0, 0] != 0.0:
        raise DomainError("spectrum carries a k = 0 amplitude")
    spec = spectrum.spec
    _check_phase(spec, t)
    blocks, amp = _live_blocks(spectrum.amp)
    e, _, knorm = triad_arrays(spec)
    phase = (np.exp(-1j * knorm * float(t)) * spec.checkerboard()
             if float(t) else spec.checkerboard().astype(complex))
    if weight is not None:
        phase *= weight
    hat = np.empty((len(blocks), 3) + spec.n, dtype=complex)
    for row, b in enumerate(blocks):
        np.multiply(e if b == 0 else np.conj(e), amp[row] * phase, out=hat[row])
    out = _ifft(hat)
    out *= 1.0 / spec.cell_volume
    return blocks, out


def positive_frequency_project(psi: SixField) -> SixField:
    """Keep only the positive-frequency (physical wave function) content.

    Per Fourier mode the upper block retains its e(k) component and the lower
    block its e*(k) component; longitudinal and negative-frequency parts are
    removed.  Idempotent.
    """
    return synthesize(decompose(psi), t=0.0)


def longitudinal_residual(psi: SixField) -> float:
    """Relative norm of the k-parallel content, ||n.psi_hat|| / ||psi_hat||."""
    _, nhat, _ = triad_arrays(psi.spec)
    hat = to_k(psi.spec, psi.data)
    lon = (np.sum(np.abs(np.sum(nhat * hat[0], axis=0)) ** 2)
           + np.sum(np.abs(np.sum(nhat * hat[1], axis=0)) ** 2))
    tot = np.sum(np.abs(hat[0]) ** 2) + np.sum(np.abs(hat[1]) ** 2)
    if tot == 0.0:
        return 0.0
    return float(np.sqrt(lon / tot))


def translate(spectrum: HelicitySpectrum, r0=(0.0, 0.0, 0.0), t0=0.0) -> HelicitySpectrum:
    """Space-time translation: amp'(k) = exp(-i omega t0 + i k.r0) amp(k);
    r0 or t0 with a non-finite phase on the lattice raises DomainError."""
    spec = spectrum.spec
    _check_phase(spec, r0, "r0")
    _check_phase(spec, t0, "t0")
    r0, k = np.asarray(r0, dtype=float), spec.k_lines()
    phase = np.exp(1j * (r0[0] * k[0] + r0[1] * k[1] + r0[2] * k[2])
                   - 1j * spec.k_norm() * float(t0))
    return HelicitySpectrum(spec=spec, amp=spectrum.amp * phase)
