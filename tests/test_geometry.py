import numpy as np
import pytest

from pwfn import geometry as geo
from pwfn.errors import DomainError, ShapeError, StabilityError
from pwfn.evolve import MediumMap, StepperConfig, propagate_free, step_medium
from pwfn.fieldcore import rotation_matrix
from pwfn.spectral import SixField

from conftest import cube, random_field, rel_err


def offdiag_metric(spec):
    g = np.diag([1.0, -1.0, -1.0, -1.0]).copy()
    g[0, 1] = g[1, 0] = 0.2
    g[0, 2] = g[2, 0] = -0.1
    g[1, 2] = g[2, 1] = 0.15
    g[1, 1] = -1.3
    g[3, 3] = -0.8
    return geo.MetricField(spec=spec, g=g)


def test_metric_validation():
    spec = cube(8)
    with pytest.raises(DomainError):
        geo.MetricField(spec=spec, g=np.diag([-1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(DomainError):
        geo.MetricField(spec=spec, g=np.diag([1.0, 1.0, -1.0, -1.0]))
    # g^00 = 0 is rejected when the metric is built
    g = np.array([[1.0, 1.0, 0, 0], [1.0, 0, 0, 0], [0, 0, -1.0, 0],
                  [0, 0, 0, -1.0]])
    with pytest.raises(DomainError, match="g\\^00"):
        geo.MetricField(spec=spec, g=g)


def test_metric_refuses_an_asymmetric_g():
    # Only a symmetric g makes the lower constitutive block M^T exactly.
    spec = cube(4)
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    g[1, 2] = 0.1
    samples = np.broadcast_to(np.diag([1.0, -1.0, -1.0, -1.0])[
        :, :, None, None, None], (4, 4) + spec.n).copy()
    samples[0, 3, 1, 2, 3] = 1e-3
    for bad in (g, samples):
        with pytest.raises(DomainError, match="symmetric") as err:
            geo.MetricField(spec=spec, g=bad)
        assert err.value.arg == "g"


def test_minkowski_reduction(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.5)
    gf = geo.g_from_f(psi, geo.minkowski_metric(spec))
    assert rel_err(gf.data, psi.data) == 0.0


def test_constitutive_round_trip(rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.5)
    # the off-diagonal metric, the same everywhere and varying along x and y
    g = offdiag_metric(spec).g[..., :1].copy()
    g[0, 1] = g[1, 0] = 0.2 * (1.0 + 0.5 * np.cos(spec.coord_lines()[0])
                               * np.cos(spec.coord_lines()[1]))
    for met in (offdiag_metric(spec), geo.MetricField(spec=spec, g=g)):
        gf = geo.g_from_f(psi, met)
        # G = (M F+, M^T F-): the multiply-adds over the column index are
        # the einsum, bit for bit
        m = met.constitutive
        ref = np.stack([np.einsum("ij...,j...->i...", table, psi.data[b])
                        for b, table in enumerate((m, m.swapaxes(0, 1)))])
        assert np.array_equal(gf.data, ref)
        back = geo.f_from_g(gf, met)
        assert rel_err(back.data, psi.data) < 1e-12


@pytest.mark.parametrize("constitutive", [geo.g_from_f, geo.f_from_g])
def test_constitutive_maps_refuse_a_metric_of_another_box(constitutive):
    # same point count, different box length
    metric = geo.minkowski_metric(cube(8, length=3.0))
    with pytest.raises(ShapeError):
        constitutive(SixField.zeros(cube(8)), metric)


def test_constitutive_matrices_built_once_per_metric(monkeypatch, rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.5)
    builds = []
    build = geo._constitutive_matrices

    def counting(metric):
        builds.append(metric)
        return build(metric)

    monkeypatch.setattr(geo, "_constitutive_matrices", counting)
    met = offdiag_metric(spec)
    geo.step_curved(psi, met, StepperConfig(dt=0.01, cfl_safety=0.9), 3)
    assert builds == [met]    # 12 right-hand sides, one build


def test_constitutive_linear_solve_oracle(rng):
    # off-diagonal g_{0k}: compare the map against an explicit pointwise
    # 3x3 solve assembled independently
    spec = cube(4)
    met = offdiag_metric(spec)
    psi = random_field(spec, rng, kmax=1.5)
    gf = geo.g_from_f(psi, met)
    eps3 = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps3[i, j, k] = 1.0
        eps3[i, k, j] = -1.0
    gmat = met.g[:, :, 0, 0, 0]
    ginv = np.linalg.inv(gmat)
    sqrt_mg = np.sqrt(-np.linalg.det(gmat))
    for block, sign in ((0, 1.0), (1, -1.0)):
        mat = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                mat[i, j] = gmat[1 + i, 1 + j] / sqrt_mg
                for k in range(3):
                    mat[i, j] += -1j * sign * ginv[0, 1 + k] * eps3[i, k, j]
        mat *= -1.0 / ginv[0, 0]
        point = psi.data[block][:, 1, 2, 3]
        assert rel_err(gf.data[block][:, 1, 2, 3], mat @ point) < 1e-13


def test_helicity_blocks_never_mix(rng):
    spec = cube(8)
    pure = random_field(spec, rng, kmax=2.5, helicities=(0,))
    met = offdiag_metric(spec)
    out = geo.curved_generator(pure, met)
    assert np.max(np.abs(out.data[1])) == 0.0


def test_flat_curved_evolution_matches_free(rng):
    spec = cube(16)
    psi = random_field(spec, rng, kmax=3.0)
    cfg = StepperConfig(dt=0.005, cfl_safety=0.9)
    a = geo.step_curved(psi, geo.minkowski_metric(spec), cfg, 100)
    b = propagate_free(psi, 0.5)
    assert rel_err(a.data, b.data) < 1e-8


def test_conformal_metric_equals_smooth_medium(rng):
    spec = cube(12)
    coords = spec.coords()
    n_prof = 1.2 + 0.1 * np.cos(coords[0]) * np.sin(coords[1])
    psi = random_field(spec, rng, kmax=2.5)
    met = geo.conformal_metric(spec, n_prof)
    # equal eps = mu = n keeps the resistance constant; the medium-variable
    # field is sqrt(v) times the curved-space one
    med = MediumMap(spec=spec, eps=n_prof, mu=n_prof)
    psi_med = SixField(spec=spec, data=psi.data / np.sqrt(n_prof))
    cfg = StepperConfig(dt=0.005, cfl_safety=0.9)
    curved = geo.step_curved(psi, met, cfg, 100)
    medium = step_medium(psi_med, med, cfg, 100)
    assert rel_err(curved.data / np.sqrt(n_prof), medium.data) < 1e-6


def test_curved_cfl_guard(rng):
    spec = cube(8)
    psi = SixField.zeros(spec)
    with pytest.raises(StabilityError):
        geo.step_curved(psi, geo.minkowski_metric(spec),
                        StepperConfig(dt=10.0), 1)


def test_curved_evolution_refuses_other_schemes():
    spec = cube(8)
    cfg = StepperConfig(dt=0.01, scheme="split_step")
    with pytest.raises(DomainError) as err:
        geo.step_curved(SixField.zeros(spec), geo.minkowski_metric(spec),
                        cfg, 1)
    assert err.value.arg == "scheme"


def test_curved_divergence_transport(rng):
    from pwfn.evolve import divergence_residual
    spec = cube(12)
    psi = random_field(spec, rng, kmax=2.5)
    met = offdiag_metric(spec)
    r0 = divergence_residual(psi)
    out = geo.step_curved(psi, met, StepperConfig(dt=0.01, cfl_safety=0.9), 100)
    assert divergence_residual(out) <= 10.0 * max(r0, 1e-12)


def test_spinor_component_map():
    phi = geo.spinor_from_rs(np.array([0.0, 0.0, 1.0], dtype=complex))
    assert np.array_equal(phi, [0.0, 1.0, 0.0])
    phi = geo.spinor_from_rs(np.array([1.0, 0.0, 0.0], dtype=complex))
    assert np.array_equal(phi, [-1.0, 0.0, 1.0])


def test_spinor_round_trip(rng):
    f = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = geo.rs_from_spinor(geo.spinor_from_rs(f))
    assert rel_err(back, f) < 1e-15
    four = geo.four_spinor_from_rs(f)
    assert rel_err(geo.rs_from_four_spinor(four), f) < 1e-15


def test_alpha_matrices_algebra():
    for i in range(3):
        for j in range(3):
            anti = geo._ALPHA[i] @ geo._ALPHA[j] + geo._ALPHA[j] @ geo._ALPHA[i]
            assert np.allclose(anti, 2.0 * (i == j) * np.eye(4))


def test_dirac_form_dual_path(rng):
    spec = cube(12)
    psi = random_field(spec, rng, kmax=3.0, helicities=(0,))
    phi0 = geo.four_spinor_from_rs(psi.upper)
    t = 0.9
    phi_t = geo.dirac_form_step(spec, phi0, t)
    direct = propagate_free(psi, t)
    assert rel_err(geo.rs_from_four_spinor(phi_t), direct.upper) < 1e-10
    assert geo.four_spinor_constraint_defect(phi_t) < 1e-12


def test_dirac_form_plane_wave_phase():
    from pwfn.states import plane_wave_mode
    from pwfn.spectral import synthesize
    spec = cube(8)
    mode = synthesize(plane_wave_mode(spec, (0, 0, 2)), t=0.0)
    phi0 = geo.four_spinor_from_rs(mode.upper)
    phi_t = geo.dirac_form_step(spec, phi0, 0.4)
    assert rel_err(phi_t, np.exp(-1j * 2.0 * 0.4) * phi0) < 1e-12


@pytest.mark.parametrize("t", [1e308, -1e308, np.inf, np.nan])
def test_dirac_form_step_refuses_a_time_whose_phase_is_not_finite(t):
    # |k| t past the float range would give NaN cos and sin phases.
    spec = cube(8)
    phi = np.ones((4,) + spec.n, dtype=complex)
    with pytest.raises(DomainError, match=r"\|k\| t is not finite") \
            as err:
        geo.dirac_form_step(spec, phi, t)
    assert err.value.arg == "t"


def test_spinor_rotation_consistency(rng):
    # rotating the vector then mapping equals mapping then acting with the
    # tensor square of the spin-1/2 rotation
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                      [[1, 0], [0, -1]]], dtype=complex)
    for axis in range(3):
        theta = 0.73
        axis_angle = np.zeros(3)
        axis_angle[axis] = theta
        r = rotation_matrix(axis_angle)
        from scipy.linalg import expm
        s = expm(-0.5j * theta * sigma[axis])
        mat = geo.four_spinor_from_rs(f).reshape(2, 2)
        target = geo.four_spinor_from_rs(r @ f).reshape(2, 2)
        mapped_then_spun = s @ mat @ s.T
        assert rel_err(mapped_then_spun, target) < 1e-12


def test_transversality_constraint_equivalence(rng):
    # per Fourier mode, div F = 0 is equivalent to phi_01 = phi_10 being
    # preserved by the four-component evolution
    spec = cube(8)
    coords = spec.coords()
    k0 = np.array([0.0, 0.0, 2.0])
    pw = np.exp(1j * np.tensordot(k0, coords, axes=(0, 0)))
    longitudinal = np.array([0, 0, 1.0])[:, None, None, None] * pw
    phi0 = geo.four_spinor_from_rs(longitudinal)
    assert geo.four_spinor_constraint_defect(phi0) < 1e-15
    phi_t = geo.dirac_form_step(spec, phi0, 0.3)
    assert geo.four_spinor_constraint_defect(phi_t) > 0.1
