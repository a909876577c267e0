"""Point-level algebra of complex electromagnetic field vectors.

Conventions
-----------
Natural units hbar = c = eps0 = mu0 = 1 throughout.  The basic object is the
complex Riemann-Silberstein combination of the real field pair (D, B),

    F_plus  = D / sqrt(2 eps) + i B / sqrt(2 mu),
    F_minus = conj(F_plus)               (for classical, real field data),

and the six-component stack calF = (F_plus, F_minus) on which the Pauli-type
block matrices rho_1, rho_2, rho_3 act.  Complex 3-vectors are ndarrays whose
*first* axis has length 3; six-component objects are ndarrays of shape
(2, 3, ...).  All functions broadcast over trailing (lattice) axes, so the
same code serves single points and whole grids.

The spin-1 matrices act on Cartesian components and satisfy the conversion
rule (a . s) b = i a x b for any 3-vectors a, b.

The pointwise vector algebra of the package lives here: :func:`cross` is
the one cross product, :func:`poynting` the one bilinear Im(F* x F) = D x B
and :func:`rodrigues` the one rotation exponential, which rotates with a
real angle, boosts with an imaginary one, propagates each free Fourier
mode by the angle |k| t and steps the Strang coupling of a varying
resistance on F+ -/+ i F-.  Applied to the identity it gives a 3 x 3 table
T; a pointwise map of the six-component stack is T on the upper block and
T^T on the lower, as the curved-space constitutive map G = (M F+, M^T F-).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InconsistencyError

__all__ = [
    "SPIN_X", "SPIN_Y", "SPIN_Z", "SPIN", "LEVI_CIVITA", "CYCLIC",
    "rho1", "rho2", "rho3", "spin_dot", "cross", "poynting", "rodrigues",
    "rs_from_fields", "fields_from_rs", "invariants", "duality_rotate",
    "conjugate", "lorentz_boost", "rotation_matrix", "rotate",
    "classical_energy", "classical_momentum", "classical_angular_momentum",
    "classical_moment_of_energy",
]

# Levi-Civita symbol eps_{ijk}, the one copy every module contracts with,
# built from CYCLIC: the (j, k) for which (i, j, k) is cyclic, i = 0, 1, 2.
CYCLIC = ((1, 2), (2, 0), (0, 1))
LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, (_j, _k) in enumerate(CYCLIC):
    LEVI_CIVITA[_i, _j, _k], LEVI_CIVITA[_i, _k, _j] = 1.0, -1.0
LEVI_CIVITA.flags.writeable = False

# Spin-1 matrices in the Cartesian representation; (s_i)_{jk} = -i eps_{ijk}.
SPIN = -1j * LEVI_CIVITA
SPIN.flags.writeable = False
SPIN_X, SPIN_Y, SPIN_Z = SPIN


def rho1(calf):
    """Swap upper and lower blocks of a (2, 3, ...) array."""
    return calf[::-1].copy()


def rho2(calf):
    """Apply rho_2: (F_plus, F_minus) -> (-i F_minus, +i F_plus)."""
    return np.stack([-1j * calf[1], 1j * calf[0]])


def rho3(calf):
    """Apply rho_3: (F_plus, F_minus) -> (F_plus, -F_minus)."""
    return np.stack([calf[0], -calf[1]])


def cross(a, b):
    """a x b for 3-vectors along axis 0, broadcast over the trailing axes;
    equals numpy.cross(a, b, axisa=0, axisb=0, axisc=0) bit for bit."""
    return np.stack([a[j] * b[k] - a[k] * b[j] for j, k in CYCLIC])


def poynting(f):
    """The bilinear Im(F* x F) of a complex 3-vector field; equals D x B."""
    return cross(np.conj(f), f).imag


def rodrigues(n, cos_a, sin_a, f):
    """Rotate 3-vectors f by the angle a about the unit axis n.

    Returns cos a f + sin a (n x f) + (1 - cos a) n (n . f), the exponential
    exp(-i a (n . s)) f.  n is a unit vector, or 0 where no axis exists;
    n, cos a and sin a broadcast over the trailing axes of f, and a complex
    angle (imaginary for a boost) is allowed.
    """
    w = (1.0 - cos_a) * (n[0] * f[0] + n[1] * f[1] + n[2] * f[2])
    nxf = cross(n, f)
    return np.stack([cos_a * f[i] + sin_a * nxf[i] + n[i] * w
                     for i in range(3)])


def spin_dot(a, field):
    """Apply (a . s) to a 3-vector field; equals i a x field.  ``a`` may be a
    constant 3-vector or a field of them (see :func:`cross`)."""
    return 1j * cross(np.asarray(a), field)


def rs_from_fields(d, b, eps=1.0, mu=1.0):
    """Build the Riemann-Silberstein pair from real fields (D, B).

    Parameters
    ----------
    d, b : real arrays of shape (3, ...)
        Electric displacement and magnetic induction samples.
    eps, mu : positive scalars (or positive arrays broadcastable to d, b)
        Medium parameters used in the normalization.

    Returns
    -------
    The (2, 3, ...) stack (F_plus, F_minus) with
    F_plus = d/sqrt(2 eps) + i b/sqrt(2 mu) and F_minus = conj(F_plus).
    """
    eps = np.asarray(eps, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(eps <= 0.0) or np.any(mu <= 0.0):
        raise DomainError("eps and mu must be strictly positive")
    f_plus = np.asarray(d) / np.sqrt(2.0 * eps) + 1j * np.asarray(b) / np.sqrt(2.0 * mu)
    return np.stack([f_plus, np.conj(f_plus)])


def fields_from_rs(calf, eps=1.0, mu=1.0, rtol=1e-12):
    """Recover (D, B) from a conjugate-symmetric (2, 3, ...) stack.

    Raises InconsistencyError if ||F_minus - conj(F_plus)|| exceeds
    rtol * (||F_plus|| + ||F_minus||).
    """
    f_plus, f_minus = np.asarray(calf)
    scale = np.linalg.norm(f_plus) + np.linalg.norm(f_minus)
    defect = np.linalg.norm(f_minus - np.conj(f_plus))
    if defect > rtol * max(scale, 1e-300):
        raise InconsistencyError(
            f"F_minus is not conj(F_plus): defect {defect:.3e} "
            f"exceeds {rtol:.1e} * norm {scale:.3e}"
        )
    d = np.sqrt(2.0 * np.asarray(eps, dtype=float)) * f_plus.real
    b = np.sqrt(2.0 * np.asarray(mu, dtype=float)) * f_plus.imag
    return d, b


def invariants(f):
    """The unconjugated square F.F = S + i P of one complex field vector.

    S (real part) is the scalar and P (imaginary part) the pseudoscalar
    invariant.  Point inputs give a complex scalar; grid inputs give the
    pointwise lattice (no sum is taken).
    """
    f = np.asarray(f)
    return np.sum(f * f, axis=0)


def duality_rotate(f, alpha):
    """Multiply the field vector by exp(i alpha) (duality rotation)."""
    return np.exp(1j * float(alpha)) * np.asarray(f)


def conjugate(calf):
    """Particle-antiparticle conjugation rho_1 calF*; an involution."""
    return rho1(np.conj(calf))


def lorentz_boost(f, v, sign=+1):
    """Boost one helicity component by velocity v (|v| < 1).

    F' = gamma (F -/+ i v x F) - gamma^2/(gamma+1) v (v . F), where the upper
    sign (sign=+1) applies to F_plus and the lower to F_minus: the
    :func:`rodrigues` rotation about v/|v| with cos = gamma and
    sin = -/+ i gamma |v|.  Preserves the unconjugated square F.F.
    """
    v = np.asarray(v, dtype=float)
    v2 = float(np.dot(v, v))
    if v2 >= 1.0:
        raise DomainError(f"|v| = {np.sqrt(v2):.6f} must be < 1")
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    gamma = 1.0 / np.sqrt(1.0 - v2)
    speed = np.sqrt(v2)
    n = v / speed if speed else v
    return rodrigues(n, gamma, -1j * sign * gamma * speed, np.asarray(f))


def rotation_matrix(axis_angle):
    """Rotation matrix of an axis-angle vector: rodrigues on the identity."""
    w = np.asarray(axis_angle, dtype=float)
    theta = float(np.linalg.norm(w))
    n = w / theta if theta else w
    return rodrigues(n, np.cos(theta), np.sin(theta), np.eye(3))


def rotate(calf, axis_angle):
    """Rotate field values of both blocks by the same real orthogonal matrix.

    This is the value-space action diag(C, C*) with C real orthogonal, so
    both blocks transform identically.
    """
    return np.einsum("ij,aj...->ai...", rotation_matrix(axis_angle), calf)


# Classical bilinears of a single helicity component F (densities summed with
# an explicit cell volume by the caller, or passed pre-weighted samples).
# The momentum-type bilinears use the antisymmetrized product
# (F* x F - F x F*)/2i = Im(F* x F), which reproduces D x B exactly.

def classical_energy(f, cell_volume=1.0):
    """Total field energy  integral F*.F  on the sample set."""
    f = np.asarray(f)
    return float(np.sum(np.abs(f) ** 2) * cell_volume)


def classical_momentum(f, cell_volume=1.0):
    """Total field momentum  integral Im(F* x F)  (equals integral D x B)."""
    g = poynting(np.asarray(f))
    return np.sum(g.reshape(3, -1), axis=1) * cell_volume


def classical_angular_momentum(f, coords, cell_volume=1.0):
    """Total angular momentum  integral r x Im(F* x F).

    ``coords`` is an array of shape (3, ...) of position samples matching f.
    """
    m = cross(coords, poynting(np.asarray(f)))
    return np.sum(m.reshape(3, -1), axis=1) * cell_volume


def classical_moment_of_energy(f, coords, cell_volume=1.0):
    """Energy-weighted position  integral r (F*.F)."""
    f = np.asarray(f)
    rho = np.sum(np.abs(f) ** 2, axis=0)
    return np.sum((coords * rho).reshape(3, -1), axis=1) * cell_volume
