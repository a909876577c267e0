"""Time evolution of six-component fields: free, in media and metrics.

Free-space propagation is exact per Fourier mode.  In a linear, static,
isotropic medium with permittivity eps(r) and permeability mu(r) the
generator is

    H = sqrt(v) rho_3 (s . grad/i) sqrt(v) + (v / 2h) rho_2 (s . grad h),

with v = 1/sqrt(eps mu) the local light speed and h = sqrt(mu/eps) the
medium resistance.  Only a spatially varying h couples the two helicity
blocks.  Derivatives are spectral, so media must be smooth and periodic;
step-index geometries belong to the semi-analytic fiber solver instead.

A static metric acts as a medium (``geometry.MetricField``).  Each
background has one right-hand side, :func:`_generator`, which
:func:`hamiltonian_apply` applies and one private runner, :func:`_run`,
steps with classic RK4 (default) or, for uniform-speed media, Strang
splitting.  A run of RK4 steps of the static H is one polynomial,
R(dt L)^steps, which :func:`rk4` sums as one Chebyshev series in
L / rate; where H is w rho_3 (s . grad/i) with one w, it is one factor
per Fourier mode, as free propagation is (:func:`_per_mode`).  Every
profile the CLI builds is uniform along z, as a fiber is along its axis,
so k_z is conserved: the runner steps the k sectors of a background's
uniform axes (:class:`_Sectors`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import DomainError, ShapeError, StabilityError
from .fieldcore import rodrigues
from .spectral import (GridSpec, SixField, _box_take, _check_phase, _curl,
                       _derivative, _directions, _distinct, _fft,
                       _field_of_blocks, _ifft, _length, _live_blocks,
                       _live_indices, curl, div, grad)

__all__ = [
    "MediumMap", "StepperConfig", "rk4",
    "propagate_free", "free_generator", "hamiltonian_apply",
    "step_medium", "divergence_residual", "medium_basis_change",
]

# The 3 x 3 identity with lattice axes, on which rodrigues builds per-point
# rotation tables.
_IDENTITY = np.eye(3)[:, :, None, None, None]


@dataclass
class MediumMap:
    """Samples of eps(r), mu(r), numbers or arrays with each lattice axis 1
    or n_d, and the speed and resistance fields derived from them: each is
    computed at the distinct points, of size 1 along the axes where eps and
    mu are exactly constant (``uniform_axes``), and read as a read-only
    view that broadcasts it over the lattice.  uniform_scale is v where
    H = v rho_3 (s . grad/i) (v and h uniform), else None."""

    spec: GridSpec
    eps: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        eps, mu = (_distinct(x, self.spec.n, "eps/mu shape does not match "
                             "the grid") for x in (self.eps, self.mu))
        for name, values in (("eps", eps), ("mu", mu)):
            if not np.all(values > 0.0):
                raise DomainError(f"{name} must be strictly positive "
                                  f"everywhere", arg=name)
        # Finite eps, mu can still overflow or underflow v or h to inf or 0.
        with np.errstate(over="ignore"):
            v = 1.0 / np.sqrt(eps * mu)
            h = np.sqrt(mu / eps)
        if not all(np.all((x > 0.0) & (x < np.inf)) for x in (v, h)):
            raise DomainError("derived v, h must be finite and > 0")
        grad_h = grad(self.spec, h)
        # c = (v/2h) grad h: (v/2h) rho_2 (s . grad h) F = (c x F-, -c x F+).
        coupling = v / (2.0 * h) * grad_h
        self._points = dict(
            eps=eps, mu=mu, v=v, h=h, sqrt_v=np.sqrt(v), grad_h=grad_h,
            coupling=coupling, coupling_norm=_length(coupling))
        for name, x in self._points.items():
            setattr(self, name, np.broadcast_to(x, x.shape[:-3] + self.spec.n))
        self.is_uniform_v = bool(np.ptp(v) <= 1e-14 * np.max(v))
        self.is_uniform_h = bool(np.ptp(h) <= 1e-14 * np.max(h))
        self.uniform_axes = tuple(d for d in range(3) if v.shape[d] == 1)
        self.uniform_scale = float(np.max(v)) if (
            self.is_uniform_v and self.is_uniform_h) else None

    @classmethod
    def uniform(cls, spec: GridSpec, eps=1.0, mu=1.0):
        return cls(spec=spec, eps=float(eps), mu=float(mu))

    def _tables(self):
        """:func:`_run`'s tables: G = sqrt(v) F at speed v, coupled by c, and
        RK4's rate bound ||H|| <= max v k_max + max |c|."""
        p = self._points
        rate = float(np.max(p["v"])) * self.spec.k_max() \
            + np.max(p["coupling_norm"])
        return (p["sqrt_v"], None, p["v"],
                None if self.is_uniform_h else p["coupling"], rate)


@dataclass
class StepperConfig:
    """Time-step configuration; dt may reach cfl_safety, in (0, 1], times the
    scheme's own step limit (see :func:`rk4` and :func:`step_medium`)."""

    dt: float
    scheme: str = "rk4"
    cfl_safety: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.dt < np.inf):
            raise DomainError(f"dt must be positive and finite, got {self.dt}",
                              arg="dt")
        if self.scheme not in ("rk4", "split_step"):
            raise DomainError(f"scheme must be rk4 or split_step, "
                              f"got {self.scheme!r}", arg="scheme")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise DomainError(f"cfl_safety must lie in (0, 1], "
                              f"got {self.cfl_safety}", arg="cfl_safety")


def _check_rk4_step(dt, rate, cfl_safety):
    """Refuse a step dt past RK4's bound for a generator of spectral radius
    at most rate (its spectrum on the imaginary axis): |dt| rate must not
    exceed cfl_safety 2 sqrt(2), and a NaN rate is refused."""
    # |R(iy)|^2 = 1 - y^6/72 + y^8/576 <= 1 while |y| <= 2 sqrt(2)
    limit = cfl_safety * 2.0 * np.sqrt(2.0)
    if not abs(dt) * rate <= limit:
        raise StabilityError(
            f"dt = {dt:.3e} exceeds the RK4 stability bound {limit / rate:.3e}"
            f" = cfl_safety * 2 sqrt(2) / rate (cfl_safety = {cfl_safety}, "
            f"rate = {rate:.3e})")


def _check_steps(steps):
    """steps as an int, unless it is negative or not an integer."""
    try:
        count = operator.index(steps)
    except TypeError:
        count = -1
    if count < 0:
        raise DomainError(f"steps must be a non-negative integer, got "
                          f"{steps!r}", arg="steps", value=steps)
    return count


def _check_finite(y, scheme, dt, steps):
    """y, the state after steps steps of dt of scheme, unless non-finite."""
    if not np.all(np.isfinite(y)):
        raise StabilityError(f"state is non-finite after {steps} {scheme} "
                             f"steps of dt = {dt:.3e}")
    return y


# The Chebyshev series of a run keeps its terms through the last |d_k| above
# _SERIES_TOL sum |d_k|; one series covers at most |dt| rate steps =
# _SERIES_SPAN, which bounds its samples to about 2 _SERIES_SPAN.
_SERIES_TOL = 1e-16
_SERIES_SPAN = 4096.0


@np.errstate(over="ignore", invalid="ignore")
def rk4(rhs, y, dt, steps, rate, cfl_safety):
    """Classic RK4 for dy/dt = rhs(y); returns the state after `steps` steps.

    rhs must be linear and time independent, as for every caller here, with
    its spectrum in i[-rate, rate].  One RK4 step is then the polynomial
    R(dt L) = 1 + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24 of L = rhs,
    and the run is R(dt L)^steps y, evaluated as one Chebyshev series in
    X = rhs / rate (:func:`_rk4_series`, :func:`_clenshaw`).  That costs
    about |dt| rate steps + O(log 1/eps) rhs calls instead of 4 steps, and
    never more than 4 steps; runs with |dt| rate steps past _SERIES_SPAN
    apply one series per span of steps.  The series holds y, two partial
    sums and one rhs output.  rhs must return a new array, which is updated
    in place.

    rate bounds the spectral radius of rhs and sets the series' domain: an
    underestimate breaks the series, not only RK4's stability.  Unless
    |dt| rate <= cfl_safety 2 sqrt(2), rhs is never called and
    StabilityError is raised.  The result is a new array; a state that
    overflows anyway is caught by one finiteness check at the end.
    """
    steps = _check_steps(steps)
    _check_rk4_step(dt, rate, cfl_safety)
    return _check_finite(_rk4_run(rhs, np.asarray(y), dt, steps, rate),
                         "rk4", dt, steps)


def _rk4_run(rhs, y, dt, steps, rate):
    """The series of :func:`rk4`, with its checks left to the caller."""
    a = dt * rate
    span = max(1, steps if abs(a) * steps <= _SERIES_SPAN
               else int(_SERIES_SPAN / abs(a)))
    full, rest = divmod(steps, span)
    series, last = _rk4_series(a, span), _rk4_series(a, rest)
    for d in itertools.chain(itertools.repeat(series, full), [last]):
        y = _clenshaw(rhs, y, d, rate)
    return y


def _rk4_series(a, steps):
    """Real d_0 ... d_{K-1} with R(a X)^steps = sum_k d_k W_k(X) on X with
    spectrum in i[-1, 1], a = dt rate; W_0 = 1, W_1 = X and
    W_{k+1} = 2 X W_k + W_{k-1}.

    With H = i rate X of real spectrum, f(s) = R(-i a s)^steps =
    sum_k c_k T_k(s) on [-1, 1] and T_k(iX) = i^k W_k(X), so d_k = i^k c_k;
    f(-s) = conj f(s) makes them real.  The c_k come from samples at n + 1
    Chebyshev-Lobatto points, in extended precision where the platform has
    it, through one FFT of their even extension.  n starts near
    |a| steps + 64 and doubles until the last eighth of the coefficients
    falls under the truncation threshold, and never passes 4 steps, the
    degree of f, where the interpolation is exact.
    """
    top = 4 * steps
    if not top:
        return np.ones(1)
    n = min(top, 64 + int(np.ceil(abs(a) * steps)))
    pi = np.arccos(np.longdouble(-1.0))
    while True:
        s = np.cos(pi * (np.arange(n + 1, dtype=np.longdouble) / n))
        f = _rk4_power(-1j * (a * s), steps)
        c = sfft.fft(np.concatenate([f, f[-2:0:-1]]))[:n + 1] / n
        c[[0, n]] /= 2.0
        d = np.empty(n + 1)   # Re(i^k c_k)
        d[0::4], d[1::4] = c[0::4].real, -c[1::4].imag
        d[2::4], d[3::4] = -c[2::4].real, c[3::4].imag
        absd = np.abs(d)
        keep = np.flatnonzero(absd > _SERIES_TOL * np.sum(absd))[-1] + 1
        if keep <= n - n // 8 or n == top:
            return d[:keep]
        n = min(2 * n, top)


def _rk4_power(z, steps):
    """R(z)^steps as exp(steps (z + log(1 + w))), w = R(z) e^-z - 1 =
    -e^-z sum_{m>=5} z^m/m!, for |z| <= 2 sqrt(2): unlike the power of
    R(z), its roundoff does not grow with steps."""
    term = z**5 / 120.0
    tail = term.copy()
    for m in range(6, 40):
        term *= z / m
        tail += term
    w = -tail * np.exp(-z)
    # log(1 + w) to full precision for small |w|: log|1 + w| as
    # log1p(2 Re w + |w|^2) / 2 and arg(1 + w) by atan2.
    log = 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) \
        + 1j * np.arctan2(w.imag, 1.0 + w.real)
    return np.exp(steps * (z + log))


def _clenshaw(rhs, y, d, rate):
    """sum_k d_k W_k(X) y for X = rhs / rate (see :func:`_rk4_series`), by
    Clenshaw's recurrence b_k = d_k y + 2 X b_{k+1} + b_{k+2}, ending with
    d_0 y + X b_1 + b_2: len(d) - 1 rhs calls, holding y, b_{k+1}, b_{k+2}
    and one rhs output."""
    b1 = float(d[-1]) * y
    b2 = np.zeros_like(b1)
    for k in range(len(d) - 2, -1, -1):
        b = rhs(b1)
        b *= (2.0 if k else 1.0) / rate
        b += b2
        np.multiply(y, d[k], out=b2)
        b += b2
        b1, b2 = b, b1
    return b1


def _turner(table, data, blocks=range(2)):
    """T above, T^T below: each row of data, a stack of the blocks `blocks`,
    times the pointwise 3 x 3 table T (upper block) or its transpose (lower
    block), as three products per component summed in column order."""
    out = np.empty_like(data)
    buf = np.empty_like(out[0, 0])
    for row, b in enumerate(blocks):
        turn = table.swapaxes(0, 1) if b else table
        for i in range(3):
            np.multiply(turn[i, 0], data[row, 0], out=out[row, i])
            for j in (1, 2):
                np.multiply(turn[i, j], data[row, j], out=buf)
                out[row, i] += buf
    return out


class _Sectors:
    """The representation a run in a background uniform along the lattice
    axes `uniform` steps in: those axes in k-space, the others in r-space.

    Along a uniform axis the kinetic rotation, the curl and every pointwise
    table of the run are diagonal in k, so its k index slabs never mix and
    an empty one stays empty.  :meth:`gather` transforms the state
    along the uniform axes and keeps the product of their live slabs, with
    the uniform axes moved ahead of the varying ones, so that each step
    transforms the last, contiguous `axes` of that stack; :meth:`scatter`
    puts the slabs back among zeros and transforms back.  Tables follow
    the stack's layout: r-space ones, a background's tables at its distinct
    points (of size 1 along the uniform axes), by :meth:`_layout`, and
    k-space ones at the live indices (:meth:`lines`).  With no uniform axis
    the stack is the r-space state and each method returns its input; with
    all three it is the state's live k box, and no step transforms it.
    """

    def __init__(self, spec: GridSpec, uniform=(), live=()):
        self.spec = spec
        self.uniform = tuple(uniform)
        self.live = dict(zip(self.uniform, live))
        varying = [d for d in range(3) if d not in self.live]
        self.order = self.uniform + tuple(varying)
        self.axes = tuple(range(-len(varying), 0))
        self.box = [self.live.get(d, np.arange(m))
                    for d, m in enumerate(spec.n)]
        self.index = (Ellipsis,) + np.ix_(*self.box)
        self.k_diff = self.lines(spec.k_diff_lines())

    def _layout(self, arr, order=None):
        """arr, of lattice axes (x, y, z) last, with those axes in the
        stack's order (or in `order`)."""
        order = self.order if order is None else order
        lead = tuple(range(arr.ndim - 3))
        return arr.transpose(lead + tuple(arr.ndim - 3 + d for d in order))

    @classmethod
    def gather(cls, spec: GridSpec, uniform, data):
        """(sectors, stack): data, a (..., nx, ny, nz) state, transformed
        along the axes `uniform` and cut to its live slabs
        (:func:`spectral._live_indices`); over all three axes, its live
        k box."""
        uniform = tuple(uniform)
        if not uniform:
            return cls(spec), data
        hat = _fft(data, axes=tuple(d - 3 for d in uniform))
        sectors = cls(spec, uniform, _live_indices(np.abs(hat), uniform))
        return sectors, np.ascontiguousarray(
            sectors._layout(hat[sectors.index]))

    def scatter(self, stack):
        """The r-space state of which stack holds the live slabs."""
        if not self.live:
            return stack
        hat = np.zeros(stack.shape[:-3] + self.spec.n, dtype=complex)
        hat[self.index] = self._layout(stack, np.argsort(self.order))
        return _ifft(hat, axes=tuple(d - 3 for d in self.uniform))

    def lines(self, lines):
        """Three broadcastable k-space lines at the live indices."""
        return tuple(self._layout(_box_take(line, self.box))
                     for line in lines)

    def derivative(self, u, axis):
        """D u = (1/i) du/dx_axis of a stack u, which it may overwrite: a
        product in k-space along a uniform axis, else :func:`_derivative`."""
        if axis not in self.live:
            return _derivative(self.spec, u, axis, overwrite=True,
                               at=self.order.index(axis) - 3)
        u *= self.k_diff[axis]
        return u


def _per_mode(sectors, lines, factor, blocks=range(2)):
    """Per mode k = |k| n of the k-space `lines`, the eigenstates
    n . s = 1, -1, 0 of the upper block of a stack of sectors times
    g = factor(|k|), conj(g), 1 and those of the lower block times conj(g),
    g, 1, as a function: the table rodrigues(n, Re g, -Im g), with factor
    evaluated once per distinct |k|, applied by :func:`_turner` to the
    blocks `blocks` between one forward and one inverse transform over the
    stack's axes; with none (sectors gathered along every axis, on their
    live k box) the stack is in k-space already and is turned alone."""
    nhat, norm = _directions(sectors.lines(lines))
    norms, where = np.unique(norm, return_inverse=True)
    g_bar = np.conj(np.asarray(factor(norms), dtype=complex))
    g_bar = g_bar[where].reshape(norm.shape)
    del norm, where  # the table's build holds only n and conj(g)
    table = rodrigues(nhat, g_bar.real, g_bar.imag, _IDENTITY)
    axes = sectors.axes
    if not axes:
        return lambda data: _turner(table, data, blocks)
    return lambda data: _ifft(_turner(table, _fft(data, axes=axes), blocks),
                              axes=axes)


def _rk4_curl(sectors, w, dt, steps, blocks=range(2)):
    """`steps` steps of :func:`rk4` for i dF/dt = w rho_3 (s . grad/i) F,
    w > 0 the same everywhere, per mode (:func:`_per_mode`); the checks
    are the caller's.  On a mode k_d = |k_d| n_d of the spectral curl the
    generator is +-w |k_d| (n_d . s), so the factor is
    R(-i w |k_d| dt)^steps, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, from
    :func:`_rk4_power` in extended precision: rk4's solution up to a
    roundoff that does not grow with steps."""
    scaled = np.longdouble(w * dt)
    return _per_mode(sectors, sectors.spec.k_diff_lines(),
                     lambda k: _rk4_power(-1j * (scaled * k), steps), blocks)


def _kinetic(sectors: _Sectors, t: float, blocks=range(2)):
    """Exact free propagation of the blocks `blocks` of a stack of sectors
    by time t, per mode (:func:`_per_mode`): the factor exp(-i |k| t)."""
    _check_phase(sectors.spec, t)
    t = float(t)
    return _per_mode(sectors, sectors.spec.k_lines(),
                     lambda k: np.exp(-1j * (k * t)), blocks)


def propagate_free(psi: SixField, t: float) -> SixField:
    """Exact free propagation by time t (see :func:`_kinetic`), on the live
    k box of psi's live blocks (:meth:`_Sectors.gather` along every axis)."""
    blocks, live = _live_blocks(psi.data)
    sectors, stack = _Sectors.gather(psi.spec, range(3), live)
    return _field_of_blocks(psi.spec, blocks, sectors.scatter(
        _kinetic(sectors, t, blocks)(stack)))


def free_generator(psi: SixField) -> SixField:
    """Apply the free Hamiltonian rho_3 (s . grad/i): (curl F+, -curl F-)."""
    out = curl(psi.spec, psi.data)
    np.negative(out[1], out=out[1])
    return SixField(spec=psi.spec, data=out)


def hamiltonian_apply(psi: SixField, background) -> SixField:
    """Apply the generator of a static background, a :class:`MediumMap` or
    a ``geometry.MetricField``, to a six-component field: i times the
    right-hand side of the stepped variable (:func:`_generator`)."""
    if background.spec != psi.spec:
        raise ShapeError("background and field grids differ")
    into, rhs = _generator(background, _Sectors(psi.spec), range(2))
    out = rhs(into * psi.data)
    out *= 1j
    out /= into
    return SixField(spec=psi.spec, data=out)


def _generator(background, sectors: _Sectors, blocks):
    """(into, rhs): the factor into the stepped variable G and its
    right-hand side -i (v rho_3 (s . grad/i) + B) T G (:func:`_medium_rhs`)
    on a stack of the blocks `blocks` of sectors, from the background's
    tables (see :func:`_run`) laid out for the stack."""
    into, turn, v, c = (x if x is None else sectors._layout(x)
                        for x in background._tables()[:4])
    speed = -1j * np.stack([v, -v])[blocks.start:blocks.stop, None]
    coupling = None if c is None else np.stack([-c, c])

    def rhs(g):
        return _medium_rhs(g if turn is None else _turner(turn, g, blocks),
                           sectors, speed, coupling)
    return into, rhs


def _medium_rhs(g, sectors, speed, coupling):
    """-i (v rho_3 (s . grad/i) + B) G for the data g of G = sqrt(v) F.

    With G = sqrt(v) F the medium equation i dF/dt = H F becomes
    i dG/dt = (v rho_3 (s . grad/i) + B) G, B G = (c x G-, -c x G+) the
    pointwise coupling: the same H conjugated by sqrt(v), so its spectral
    radius has H's bound.  Both parts are one curl (:func:`_curl`) of the
    terms (-i rho_3 v) D_a g_b + (-+c)_a (g[::-1])_b.  D_a g_b comes for
    both b != a at once (:meth:`_Sectors.derivative`), and each term is
    handed out once, so the pair is freed after its second.  speed and
    coupling, -i rho_3 v and (-c, c) or None, are :func:`_generator`'s.
    """
    terms = {}

    def term(a, b):
        if a not in terms:
            others = [x for x in range(3) if x != a]
            d = sectors.derivative(g[:, others], a)
            d *= speed
            terms[a] = dict(zip(others, d.swapaxes(0, 1)))
        out = terms[a].pop(b)
        if coupling is not None:
            out += coupling[:, a] * g[::-1, b]
        return out

    return _curl(term, g.shape)


def step_medium(psi: SixField, medium: MediumMap, cfg: StepperConfig,
                steps: int) -> SixField:
    """Integrate i dF/dt = H F for the given number of steps (:func:`_run`).

    split_step (uniform-speed media only) is Strang splitting, unitary at
    any dt; its rule dt <= cfl_safety min(dx) / v bounds the splitting
    error per step, not stability.
    """
    return _run(psi, medium, cfg, steps)


@np.errstate(over="ignore", invalid="ignore")
def _run(psi: SixField, background, cfg: StepperConfig, steps) -> SixField:
    """`steps` steps of cfg's scheme from psi in a static background: a
    :class:`MediumMap` or a ``geometry.MetricField``.

    A background has ``uniform_axes``, ``uniform_scale`` (w where its
    generator is w rho_3 (s . grad/i), else None) and ``_tables()``: at its
    distinct points, the factor into the stepped variable, a table T
    applied as (T x+, T^T x-) before the curl (or None), the speed and the
    coupling c (or None), and then RK4's rate bound.  Only c mixes
    the helicity blocks; without it only the live ones are stepped.  Given
    a uniform scale, a run is one per-mode factor (:func:`_rk4_curl`,
    :func:`_kinetic`) on the k sectors of all three axes, the live k box;
    otherwise RK4 sums one series of :func:`_generator` and split_step
    takes Strang steps, on the k sectors of the uniform axes.  One
    finiteness check closes the run.
    """
    if background.spec != psi.spec:
        raise ShapeError("background and field grids differ")
    steps = _check_steps(steps)
    spec, dt, scheme = psi.spec, cfg.dt, cfg.scheme
    _, _, v, c, rate = background._tables()
    if scheme == "rk4":
        _check_rk4_step(dt, rate, cfg.cfl_safety)
    elif not background.is_uniform_v:
        raise DomainError("split_step requires a uniform-speed medium",
                          arg="scheme")
    elif dt > (limit := cfg.cfl_safety * min(spec.spacing)
               / float(np.max(v))):
        raise StabilityError(
            f"dt = {dt:.3e} exceeds the split-step bound {limit:.3e} = "
            f"cfl_safety * min(dx) / v (cfl_safety = {cfg.cfl_safety}), "
            "which limits the splitting error per step")
    if not steps:
        return psi.copy()
    blocks, data = ((range(2), psi.data) if c is not None
                    else _live_blocks(psi.data))
    w = background.uniform_scale
    sectors, stack = _Sectors.gather(
        spec, range(3) if w is not None else background.uniform_axes, data)
    if w is not None:
        stack = (_rk4_curl(sectors, w, dt, steps, blocks) if scheme == "rk4"
                 else _kinetic(sectors, w * dt * steps, blocks))(stack)
    elif scheme == "rk4":
        into, rhs = _generator(background, sectors, blocks)
        stack = _rk4_run(rhs, into * stack, dt, steps, rate)
        stack /= into
    else:
        stack = _step_split(sectors, stack, sectors._layout(c), dt, steps,
                            float(np.mean(v)))
    out = sectors.scatter(stack)
    return _field_of_blocks(spec, blocks,
                            _check_finite(out, scheme, dt, steps))


def _step_split(sectors: _Sectors, data, c, dt, steps, v0):
    """`steps` Strang steps of dt, speed v0 and coupling c from a stack."""
    # On X = F+ - i F- and Y = F+ + i F- the coupling B F = (c x F-, -c x F+)
    # is +/-(c . s): exp(-i dt B) turns X by dt |c| about c/|c| and Y by the
    # transpose, and F+ = (X + Y)/2, F- = i (X - Y)/2.
    chat, cnorm = _directions(c)
    table = rodrigues(chat, np.cos(dt * cnorm), np.sin(dt * cnorm), _IDENTITY)
    xy = np.empty_like(data)

    def apply_coupling(data):
        np.multiply.outer((-1j, 1j), data[1], out=xy)
        np.add(xy, data[0], out=xy)
        x, y = out = _turner(table, xy)
        np.add(x, y, out=xy[0])
        np.subtract(x, y, out=y)
        y *= 0.5j
        np.multiply(xy[0], 0.5, out=x)
        return out

    # Strang order K/2 C K/2 per step; the closing K/2 of one step and the
    # opening K/2 of the next merge into one kinetic step K.  Both kinetic
    # propagators are built once for the run.
    half = 0.5 * v0 * dt
    kinetic_half = _kinetic(sectors, half)
    kinetic_full = _kinetic(sectors, 2.0 * half)
    data = kinetic_half(data)
    for step in range(steps):
        data = apply_coupling(data)
        data = (kinetic_full if step < steps - 1 else kinetic_half)(data)
    return data


def divergence_residual(psi: SixField, medium: MediumMap | None = None) -> float:
    """Relative violation of the medium divergence condition.

    Returns || div F - (1/2v) F . grad v - rho_1 (1/2h) F . grad h || / ||F||
    with spectral derivatives; the free-space condition div F = 0 is the
    uniform-medium special case.
    """
    spec = psi.spec
    res = div(spec, psi.data)
    if medium is not None:
        if medium.spec != spec:
            raise ShapeError("medium and field grids differ")
        p = medium._points
        fv = np.sum(psi.data * grad(spec, p["v"]), axis=1) / (2.0 * p["v"])
        fh = np.sum(psi.data * p["grad_h"], axis=1) / (2.0 * p["h"])
        res[0] -= fv[0] + fh[1]
        res[1] -= fv[1] + fh[0]
    norm = psi.norm()
    if norm == 0.0:
        return 0.0
    resn = np.sqrt(float(np.sum(np.abs(res) ** 2)) * spec.cell_volume)
    return resn / norm


def medium_basis_change(calf, eps: float, mu: float):
    """Re-express a free-space (2, 3, ...) RS stack with medium normalization
    (eps, mu).

    F+ = [(a + b) F0+ + (a - b) F0-]/2 and F- = [(a - b) F0+ + (a + b) F0-]/2
    with a = sqrt(eps0/eps), b = sqrt(mu0/mu) and eps0 = mu0 = 1.
    """
    if eps <= 0.0 or mu <= 0.0:
        raise DomainError("eps and mu must be strictly positive")
    a = 1.0 / np.sqrt(eps)
    b = 1.0 / np.sqrt(mu)
    fp, fm = np.asarray(calf)
    return 0.5 * np.stack([(a + b) * fp + (a - b) * fm,
                           (a - b) * fp + (a + b) * fm])
