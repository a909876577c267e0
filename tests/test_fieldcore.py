import numpy as np
import pytest

from pwfn import fieldcore as fc
from pwfn.errors import DomainError, InconsistencyError

from conftest import rel_err


def test_spin_commutators_exact():
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    for i in range(3):
        for j in range(3):
            comm = fc.SPIN[i] @ fc.SPIN[j] - fc.SPIN[j] @ fc.SPIN[i]
            expected = 1j * sum(eps[i, j, k] * fc.SPIN[k] for k in range(3))
            assert np.array_equal(comm, expected)


def test_spin_conversion_rule(rng):
    for _ in range(100):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        lhs = fc.spin_dot(a, b.astype(complex))
        assert np.max(np.abs(lhs - 1j * np.cross(a, b))) < 1e-14


def test_cross_matches_numpy_cross_bit_for_bit(rng):
    def npcross(a, b):
        return np.cross(a, b, axisa=0, axisb=0, axisc=0)

    point = rng.normal(size=3)
    grid = rng.normal(size=(3, 6, 5, 4)) + 1j * rng.normal(size=(3, 6, 5, 4))
    # a k lattice against a vector over (r, k) axes, as in the Wigner
    # subsidiary condition
    kvec = rng.normal(size=(3, 4, 3, 2))
    u = rng.normal(size=(3, 4, 3, 2, 4, 3, 2))
    for a, b in ((point, rng.normal(size=3)), (grid, np.conj(grid)),
                 (point, grid), (kvec, u)):
        assert np.array_equal(fc.cross(a, b), npcross(a, b))


def test_poynting_equals_d_cross_b(rng):
    d = rng.normal(size=(3, 4, 4, 4))
    b = rng.normal(size=(3, 4, 4, 4))
    f = fc.rs_from_fields(d, b).f_plus
    # F+ = (D + i B)/sqrt(2) gives F* x F = i D x B
    assert rel_err(fc.poynting(f), np.cross(d, b, axis=0)) < 1e-14


def test_rodrigues_rotates_about_the_axis(rng):
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    f = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    a = 0.83
    out = fc.rodrigues(n, np.cos(a), np.sin(a), f)
    # the axial part is fixed and the angle adds up
    assert rel_err(n @ out, n @ f) < 1e-14
    twice = fc.rodrigues(n, np.cos(a), np.sin(a), out)
    double = fc.rodrigues(n, np.cos(2 * a), np.sin(2 * a), f)
    assert rel_err(twice, double) < 1e-14
    # n = 0 marks "no axis": only a zero angle is meaningful there
    assert np.array_equal(fc.rodrigues(np.zeros(3), 1.0, 0.0, f), f)


def test_rotation_matrix_matches_the_matrix_form(rng):
    for _ in range(200):
        w = rng.normal(size=3) * rng.uniform(0.0, 10.0)
        theta = np.linalg.norm(w)
        n = w / theta
        k = np.array([[0.0, -n[2], n[1]],
                      [n[2], 0.0, -n[0]],
                      [-n[1], n[0], 0.0]])
        ref = np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
        assert np.max(np.abs(fc.rotation_matrix(w) - ref)) < 1e-15
    assert np.array_equal(fc.rotation_matrix(np.zeros(3)), np.eye(3))


def test_rho_matrices_square_to_identity(rng):
    psi = rng.normal(size=(2, 3, 2, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2, 2))
    for op in (fc.rho1, fc.rho2, fc.rho3):
        assert np.allclose(op(op(psi)), psi, atol=1e-15)


def test_rs_from_fields_definition():
    pair = fc.rs_from_fields(np.array([1.0, 0, 0]), np.zeros(3))
    assert np.allclose(pair.f_plus, [1 / np.sqrt(2), 0, 0])
    pair = fc.rs_from_fields(np.zeros(3), np.array([0, 1.0, 0]))
    assert np.allclose(pair.f_plus, [0, 1j / np.sqrt(2), 0])
    assert np.allclose(pair.f_minus, np.conj(pair.f_plus))


def test_rs_fields_round_trip(rng):
    d = rng.normal(size=(3, 4, 4, 4))
    b = rng.normal(size=(3, 4, 4, 4))
    pair = fc.rs_from_fields(d, b, eps=2.0, mu=0.5)
    d2, b2 = fc.fields_from_rs(pair, eps=2.0, mu=0.5)
    assert rel_err(d, d2) < 1e-14
    assert rel_err(b, b2) < 1e-14


def test_rs_from_fields_rejects_bad_medium():
    with pytest.raises(DomainError):
        fc.rs_from_fields(np.zeros(3), np.zeros(3), eps=-1.0)
    with pytest.raises(DomainError):
        fc.rs_from_fields(np.zeros(3), np.zeros(3), mu=0.0)


def test_fields_from_rs_rejects_conjugacy_violation(rng):
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    bad = fc.RSPair(f_plus=f, f_minus=np.conj(f) + 0.1)
    with pytest.raises(InconsistencyError):
        fc.fields_from_rs(bad)


def test_invariants_null_field_and_real_field():
    inv = fc.invariants(np.array([1.0, 1j, 0]) / np.sqrt(2))
    assert abs(inv.s_scalar) < 1e-15 and abs(inv.p_pseudo) < 1e-15
    inv = fc.invariants(np.array([1.0, 0, 0], dtype=complex))
    assert inv.s_scalar == 1.0 and inv.p_pseudo == 0.0


def test_invariants_boost_invariant(rng):
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    fb = fc.lorentz_boost(f, np.array([0.3, 0.0, 0.0]), sign=+1)
    a = fc.invariants(f)
    b = fc.invariants(fb)
    assert abs(a.s_scalar - b.s_scalar) < 1e-12 * (1 + abs(a.s_scalar))
    assert abs(a.p_pseudo - b.p_pseudo) < 1e-12 * (1 + abs(a.p_pseudo))


def test_boost_identity_and_composition(rng):
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert rel_err(fc.lorentz_boost(f, np.zeros(3)), f) == 0.0
    v = np.array([0.0, 0.45, 0.0])
    fwd = fc.lorentz_boost(f, v, sign=+1)
    back = fc.lorentz_boost(fwd, -v, sign=+1)
    assert rel_err(back, f) < 1e-12
    with pytest.raises(DomainError):
        fc.lorentz_boost(f, np.array([1.0, 0, 0]))


def test_boost_matches_explicit_formula(rng):
    # F' = gamma (F -/+ i v x F) - gamma^2/(gamma+1) v (v . F)
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.999) / np.linalg.norm(v)
        f = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        sign = int(rng.choice([1, -1]))
        gamma = 1.0 / np.sqrt(1.0 - v @ v)
        ref = (gamma * (f - sign * 1j * np.cross(v, f, axisb=0, axisc=0))
               - gamma**2 / (gamma + 1.0) * v[:, None] * (v @ f))
        assert rel_err(fc.lorentz_boost(f, v, sign), ref) < 1e-14


def test_duality_rotation_phases(rng):
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert rel_err(fc.duality_rotate(f, 0.0), f) == 0.0
    assert rel_err(fc.duality_rotate(f, np.pi), -f) < 1e-15
    # quarter turn swaps the real field pair: d' = -b, b' = d
    d = rng.normal(size=3)
    b = rng.normal(size=3)
    pair = fc.rs_from_fields(d, b)
    rotated = fc.RSPair(f_plus=fc.duality_rotate(pair.f_plus, np.pi / 2),
                        f_minus=np.conj(fc.duality_rotate(pair.f_plus, np.pi / 2)))
    d2, b2 = fc.fields_from_rs(rotated)
    assert rel_err(d2, -b) < 1e-14
    assert rel_err(b2, d) < 1e-14


def test_duality_leaves_bilinears_invariant(rng):
    from conftest import cube, random_classical_field
    spec = cube(8)
    psi = random_classical_field(spec, rng, kmax=2.5)
    f = psi.upper
    coords = spec.coords()
    dv = spec.cell_volume
    before = (fc.classical_energy(f, dv), fc.classical_momentum(f, dv),
              fc.classical_angular_momentum(f, coords, dv),
              fc.classical_moment_of_energy(f, coords, dv))
    g = fc.duality_rotate(f, 0.7345)
    after = (fc.classical_energy(g, dv), fc.classical_momentum(g, dv),
             fc.classical_angular_momentum(g, coords, dv),
             fc.classical_moment_of_energy(g, coords, dv))
    for x, y in zip(before, after):
        assert rel_err(x, y) < 1e-12


def test_conjugation_involution_and_classical_invariance(rng):
    u = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    psi = fc.SixVector(upper=u, lower=np.zeros_like(u))
    conj = fc.conjugate(psi)
    assert np.allclose(conj.upper, 0) and np.allclose(conj.lower, np.conj(u))
    twice = fc.conjugate(conj)
    assert rel_err(twice.upper, psi.upper) == 0.0
    classical = fc.SixVector(upper=u, lower=np.conj(u))
    cc = fc.conjugate(classical)
    assert rel_err(cc.upper, classical.upper) == 0.0
    assert rel_err(cc.lower, classical.lower) == 0.0


def test_conjugation_reproduces_negative_frequency_part(rng):
    # on a two-mode positive-frequency field, rho_1 psi* equals the
    # negative-frequency content of the classical field it came from
    from conftest import cube
    from pwfn.spectral import HelicitySpectrum, synthesize
    spec = cube(8)
    amp = np.zeros((2,) + spec.n, dtype=complex)
    amp[0, 0, 0, 1] = 1.0 + 0.5j
    amp[1, 0, 2, 0] = -0.3 + 1j
    psi = synthesize(HelicitySpectrum(spec=spec, amp=amp), t=0.0)
    classical = psi.data + fc.rho1(np.conj(psi.data))
    neg = classical - psi.data
    conj = fc.conjugate(fc.SixVector(upper=psi.upper, lower=psi.lower))
    assert rel_err(np.stack([conj.upper, conj.lower]), neg) < 1e-13


def test_rotation_identity_full_turn_and_norm(rng):
    u = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    l = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    psi = fc.SixVector(upper=u, lower=l)
    ident = fc.rotate(psi, np.zeros(3))
    assert rel_err(ident.upper, u) == 0.0
    full = fc.rotate(psi, np.array([0.0, 0.0, 2 * np.pi]))
    assert rel_err(full.upper, u) < 1e-12
    rot = fc.rotate(psi, rng.normal(size=3))
    n0 = np.sum(np.abs(u) ** 2 + np.abs(l) ** 2)
    n1 = np.sum(np.abs(rot.upper) ** 2 + np.abs(rot.lower) ** 2)
    assert abs(n0 - n1) < 1e-12 * n0


def test_rho1_conjugates_free_generator(rng):
    # rho_1 H rho_1 = -H for the free generator
    from conftest import cube, random_field
    from pwfn.evolve import free_generator
    from pwfn.spectral import SixField
    spec = cube(8)
    psi = random_field(spec, rng, kmax=3.0)
    flipped = SixField(spec=spec, data=fc.rho1(psi.data))
    lhs = fc.rho1(free_generator(flipped).data)
    rhs = -free_generator(psi).data
    assert rel_err(lhs, rhs) < 1e-13
