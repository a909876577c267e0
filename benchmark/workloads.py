"""Seeded inputs and job lists for the three benchmark workloads.

``build(name, seed, work)`` writes the workload's INI configs and ``.pwfn``
input fields under ``work`` and returns a ``Plan``: untimed warm-up jobs and
the timed rounds.  The seed fixes every packet, shape and parameter; job
costs do not depend on it, because each workload draws its shapes from a
fixed set and only their order, box lengths, packets and solver parameters
are seeded.

- ``algebra``: ``commutators`` on 32^3 and ``observables`` on 64^3, the same
  two grids in every round.
- ``evolve``: RK4 ``evolve-medium`` and ``evolve-curved`` on 16^3, and a
  Strang ``split_step`` library call on 32^3 in a medium the CLI profiles
  cannot express (eps = p, mu = 1/p).
- ``survey``: a fresh anisotropic grid for every job: ``evolve-free``
  followed by ``observables`` on its output, ``hydro`` on a vortex,
  ``wigner``, ``fiber-modes`` and ``boost-eigen``.

Every job has an output check that calls only public functions and returns
``(label, measured, bound, comparator)`` rows.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pwfn import cli, eigen, evolve, gridio, states
from pwfn.metrics import photon_number
from pwfn.spectral import GridSpec, HelicitySpectrum, synthesize

# Output-check bounds; the criterion each repeats is named beside it.
EVOLVE_FREE_DRIFT = 1e-10
MEDIUM_NORM_DRIFT = 1e-8            # c5c
SPLIT_NORM_DRIFT = 1e-10
CURVED_VS_FREE = 1e-8               # c10
OBSERVABLES_AGREEMENT = 1e-11       # test_metrics, relative to the energy
PHOTON_NUMBER = 1e-10
FLAT_COMMUTATOR = 1e-8              # c2
# c2 bounds position-weighted pairs only at 64^3.  At 32^3 the balanced
# packet measured 3.6e-3 at the seed commit; this bound leaves room for
# the seeded packet direction and helicity and nothing more.
POSITION_COMMUTATOR = 1e-2
WIGNER_SUBSIDIARY = 1e-8            # c8
HYDRO_IDENTITY = 1e-10              # c9
FIBER_JUMP = 1e-9                   # c6
BOOST_RESIDUAL = 1e-6               # c7
# fiber_modes bisects omega to a fixed relative tolerance, so a mode close
# to cutoff (q a -> 0) misses the c6 jump bound: 1.5e-9 at q a = 0.044 and
# up to 1.4e-8 in a scan of random draws.  As with the hydro surface, the
# survey avoids that input instead of failing on it (the defect is recorded
# in BENCHMARK.json): fiber draws with a mode below this q a are redrawn.
FIBER_QA_MIN = 0.2

ALGEBRA_ROUNDS = 6
EVOLVE_ROUNDS = 10
MEDIUM_STEPS = 200
CURVED_STEPS = 120
CURVED_INDEX = 1.2
SPLIT_STEPS = 20
SPLIT_DT = 0.05

# Survey shapes: every axis even and built from 2, 3 and 5, one shape per
# round.  A pool holds the six orderings of one set of axis sizes, so every
# round of a kind transforms as many points and builds Wigner arrays of one
# size: runs that the time limit cuts after different rounds, and all
# seeds, time the same work and reach the same peak memory.
SURVEY_ROUNDS = 6
FREE_SHAPES = list(itertools.permutations((64, 48, 40)))
HYDRO_SHAPES = list(itertools.permutations((40, 32, 24)))
WIGNER_SHAPES = list(itertools.permutations((6, 8, 10)))


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Plan:
    warmup: list
    rounds: list


def build(name, seed, work: Path) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    return {"algebra": _algebra, "evolve": _evolve,
            "survey": _survey}[name](rng, work)


# -- inputs ------------------------------------------------------------------

def random_field(spec, rng, kmax=None, even_modes=False, helicities=(0, 1)):
    """Band-limited positive-frequency field with unit photon number.

    Plain fields fill |k| <= kmax.  Even-mode fields fill the even lattice
    indices with |m| <= 2.5, below each axis's Nyquist index on grids with
    every axis >= 6, which keeps pairwise midpoint wave vectors on the
    lattice (the precondition of the pointwise Wigner identities).
    """
    knorm = spec.k_norm()
    if even_modes:
        m = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in spec.n],
                        indexing="ij")
        mask = ((knorm > 0) & (np.sum(np.square(m), axis=0) <= 2.5**2)
                & np.all([mi % 2 == 0 for mi in m], axis=0))
    else:
        mask = (knorm > 0) & (knorm <= kmax)
    amp = np.zeros((2,) + spec.n, dtype=complex)
    for lam in helicities:
        amp[lam][mask] = (rng.normal(size=mask.sum())
                          + 1j * rng.normal(size=mask.sum()))
    spectrum = HelicitySpectrum(spec=spec, amp=amp)
    spectrum.amp /= np.sqrt(photon_number(spectrum))
    return synthesize(spectrum, t=0.0)


def _band(spec, share=0.3):
    """|k| limit at a share of the smallest axis Nyquist wave number."""
    return share * min(np.pi * n / L for n, L in zip(spec.n, spec.length))


def _write_ini(path, sections):
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _vec(values):
    return " ".join(repr(float(v)) for v in values)


def _grid(spec):
    return {"n": " ".join(str(n) for n in spec.n), "length": _vec(spec.length)}


def _seeded_grid(rng, shape, spacing):
    return GridSpec(n=shape, length=tuple(
        n * rng.uniform(*spacing) for n in shape))


def _file_input(work, stem, field):
    path = work / f"{stem}.pwfn"
    gridio.write_sixfield(path, field)
    return {"packet": f"file:{path}"}


def _cli_job(kind, config, outdir, check):
    def run():
        code = cli.run_scenario(config, outdir)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"run_scenario returned {code}")

    return Job(kind=kind.replace("-", "_"), run=run,
               check=lambda _: check(outdir))


# -- output checks -------------------------------------------------------------

def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def _norm_drift(before, after):
    return abs(after.norm2() - before.norm2()) / before.norm2()


def check_commutators(outdir):
    flat = position = 0.0
    for row in _rows(outdir / "commutators.csv"):
        families = {row["a"][0], row["b"][0]}
        if families <= {"H", "P"}:
            flat = max(flat, float(row["residual"]))
        else:
            position = max(position, float(row["residual"]))
    return [("derivative-only pairs", flat, FLAT_COMMUTATOR, "<="),
            ("position-weighted pairs", position, POSITION_COMMUTATOR, "<=")]


def check_observables(outdir):
    rows = {r["quantity"]: r for r in _rows(outdir / "observables.csv")}

    def pair(key):
        return float(rows[key]["momentum_rep"]), float(rows[key]["coordinate_rep"])

    em, ec = pair("energy")
    momentum = max(abs(m - c) for m, c in map(pair, ("p_x", "p_y", "p_z")))
    n_ph = pair("photon_number")[0]
    return [("energy, momentum vs coordinate rep / energy",
             abs(em - ec) / em, OBSERVABLES_AGREEMENT, "<="),
            ("momentum, momentum vs coordinate rep / energy",
             momentum / em, OBSERVABLES_AGREEMENT, "<="),
            ("|photon number - 1|", abs(n_ph - 1.0), PHOTON_NUMBER, "<=")]


def check_evolve_free(outdir):
    drift = float(_rows(outdir / "conserved.csv")[-1]["max_drift"])
    return [("conserved max_drift", drift, EVOLVE_FREE_DRIFT, "<=")]


def check_medium(input_path):
    def check(outdir):
        before = gridio.read_sixfield(input_path)
        after = gridio.read_sixfield(outdir / "final.pwfn")
        return [("L2 norm drift", _norm_drift(before, after),
                 MEDIUM_NORM_DRIFT, "<=")]
    return check


def check_curved(input_path, time):
    def check(outdir):
        before = gridio.read_sixfield(input_path)
        after = gridio.read_sixfield(outdir / "final.pwfn")
        # A uniform conformal index n is a medium with light speed 1/n.
        ref = evolve.propagate_free(before, time / CURVED_INDEX)
        return [("vs free propagation at t/n", _rel_err(after.data, ref.data),
                 CURVED_VS_FREE, "<=")]
    return check


def check_wigner(outdir):
    row = _rows(outdir / "wigner_summary.csv")[0]
    return [("subsidiary r1", float(row["subsidiary_r1"]), WIGNER_SUBSIDIARY, "<="),
            ("subsidiary r2", float(row["subsidiary_r2"]), WIGNER_SUBSIDIARY, "<=")]


def check_hydro(outdir):
    row = _rows(outdir / "hydro_summary.csv")[0]
    return [(key.replace("_", " "), float(row[key]), HYDRO_IDENTITY, "<=")
            for key in ("trace_identity", "orthogonality_identity",
                        "contraction_identity")]


def check_fiber(outdir):
    rows = _rows(outdir / "fiber_modes.csv")
    jump = max((float(r["matched_jump"]) for r in rows), default=np.inf)
    return [("modes found", float(len(rows)), 1.0, ">="),
            ("matched-component jump", jump, FIBER_JUMP, "<=")]


def check_boost(outdir):
    worst = max(float(r["eigen_residual"])
                for r in _rows(outdir / "boost_profile.csv"))
    return [("eigen residual", worst, BOOST_RESIDUAL, "<=")]


# -- workloads -------------------------------------------------------------------

def _algebra(rng, work):
    four_pi = 4.0 * np.pi
    spec32 = GridSpec(n=(32, 32, 32), length=(four_pi,) * 3)
    k_balanced, sigma = states.balanced_packet_params(spec32)
    k_center = np.zeros(3)
    k_center[rng.integers(2)] = rng.choice((-1.0, 1.0)) * k_balanced[0]
    packet = states.gaussian_packet(spec32, k_center, sigma,
                                    helicity=int(rng.choice((1, -1))))
    commutators = _write_ini(work / "commutators.ini", {
        "scenario": {"kind": "commutators"},
        "grid": _grid(spec32),
        "initial": _file_input(work, "commutators_in", packet),
    })

    # |k_center| = 3 at a polar angle well away from the gauge pole (z axis).
    theta = rng.uniform(np.pi / 4, 3 * np.pi / 4)
    phi = rng.uniform(0.0, 2 * np.pi)
    direction = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                 np.cos(theta))
    spec64 = GridSpec(n=(64, 64, 64), length=(four_pi,) * 3)
    observables = _write_ini(work / "observables.ini", {
        "scenario": {"kind": "observables"},
        "grid": _grid(spec64),
        "initial": {"packet": "gaussian",
                    "k_center": _vec(3.0 * np.array(direction)),
                    "sigma_k": repr(rng.uniform(0.6, 0.8)),
                    "helicity": int(rng.choice((1, -1))),
                    "r_center": _vec(rng.uniform(-1.0, 1.0, 3))},
    })

    def jobs(tag):
        return [_cli_job("commutators", commutators, work / tag / "commutators",
                         check_commutators),
                _cli_job("observables", observables, work / tag / "observables",
                         check_observables)]

    return Plan(warmup=jobs("warmup"),
                rounds=[jobs(f"round{i}") for i in range(ALGEBRA_ROUNDS)])


def _evolve(rng, work):
    two_pi = 2.0 * np.pi
    spec16 = GridSpec(n=(16, 16, 16), length=(two_pi,) * 3)
    medium_in = _file_input(work, "medium_in", random_field(spec16, rng, 3.0))
    curved_in = _file_input(work, "curved_in", random_field(spec16, rng, 3.0))

    def medium_config(stem, steps):
        return _write_ini(work / f"{stem}.ini", {
            "scenario": {"kind": "evolve-medium"},
            "grid": _grid(spec16),
            "initial": medium_in,
            "physics": {"dt": 0.002, "steps": steps, "scheme": "rk4",
                        "eps_profile": "cosine:1.0,0.15"},
            "output": {"field": "final.pwfn"},
        })

    def curved_config(stem, steps):
        return _write_ini(work / f"{stem}.ini", {
            "scenario": {"kind": "evolve-curved"},
            "grid": _grid(spec16),
            "initial": curved_in,
            "physics": {"dt": 0.005, "steps": steps, "cfl_safety": 0.9,
                        "metric": f"conformal:{CURVED_INDEX}"},
            "output": {"field": "final.pwfn"},
        })

    # eps = p, mu = 1/p: uniform light speed, varying resistance 1/p.
    spec32 = GridSpec(n=(32, 32, 32), length=(two_pi,) * 3)
    split_in = random_field(spec32, rng, 3.0)
    x = spec32.coords()
    profile = 1.0 + 0.15 * np.cos(x[0]) * np.cos(x[1])

    def split_job(steps):
        def run():
            medium = evolve.MediumMap(spec=spec32, eps=profile, mu=1.0 / profile)
            cfg = evolve.StepperConfig(dt=SPLIT_DT, scheme="split_step")
            return evolve.step_medium(split_in, medium, cfg, steps)

        def check(result):
            return [("L2 norm drift", _norm_drift(split_in, result),
                     SPLIT_NORM_DRIFT, "<=")]

        return Job(kind="split_step", run=run, check=check)

    def jobs(tag, medium_steps, curved_steps, split_steps):
        medium = medium_config(f"{tag}_medium", medium_steps)
        curved = curved_config(f"{tag}_curved", curved_steps)
        curved_check = check_curved(Path(curved_in["packet"][5:]),
                                    curved_steps * 0.005)
        return [_cli_job("evolve-medium", medium, work / tag / "medium",
                         check_medium(Path(medium_in["packet"][5:]))),
                _cli_job("evolve-curved", curved, work / tag / "curved",
                         curved_check),
                split_job(split_steps)]

    return Plan(warmup=jobs("warmup", 2, 2, 2),
                rounds=[jobs(f"round{i}", MEDIUM_STEPS, CURVED_STEPS, SPLIT_STEPS)
                        for i in range(EVOLVE_ROUNDS)])


def _fiber_spec(rng):
    while True:
        spec = eigen.FiberSpec(radius=rng.uniform(1.0, 1.2),
                               eps_in=rng.uniform(2.25, 2.5), eps_out=1.0,
                               m_angular=int(rng.integers(3)),
                               k_z=rng.uniform(5.0, 6.0))
        if all(np.sqrt(spec.k_z**2 - spec.eps_out * mode.omega**2) * spec.radius
               >= FIBER_QA_MIN for mode in eigen.fiber_modes(spec)):
            return spec


def _survey_round(rng, work, tag, free_shape, hydro_shape, wigner_shape):
    out = work / tag
    free_spec = _seeded_grid(rng, free_shape, (0.15, 0.25))
    free = _write_ini(work / f"{tag}_free.ini", {
        "scenario": {"kind": "evolve-free"},
        "grid": _grid(free_spec),
        "initial": _file_input(work, f"{tag}_free_in",
                               random_field(free_spec, rng, _band(free_spec))),
        "physics": {"time": repr(rng.uniform(0.5, 2.0))},
        "output": {"field": "final.pwfn"},
    })
    observables = _write_ini(work / f"{tag}_observables.ini", {
        "scenario": {"kind": "observables"},
        "grid": _grid(free_spec),
        "initial": {"packet": f"file:{out / 'free' / 'final.pwfn'}"},
    })

    # The vortex lines run along z through (x0, y0) and (x0 + L/2, ...), so
    # every z plane crosses a core.  Integrate over the x plane a quarter
    # box away from the core instead, where rho stays finite.
    hydro_spec = _seeded_grid(rng, hydro_shape, (0.15, 0.3))
    lx, ly = hydro_spec.length[:2]
    core = (rng.uniform(-0.2, 0.2) * lx, rng.uniform(-0.2, 0.2) * ly)
    plane_x = (core[0] + 0.25 * lx + lx / 2) % lx - lx / 2
    index = int(round(plane_x / hydro_spec.spacing[0])) + hydro_shape[0] // 2
    hydro = _write_ini(work / f"{tag}_hydro.ini", {
        "scenario": {"kind": "hydro"},
        "grid": _grid(hydro_spec),
        "initial": {"packet": "vortex", "core_xy": _vec(core)},
        "physics": {"surface_axis": 0, "surface_index": index % hydro_shape[0]},
    })

    wigner_spec = _seeded_grid(rng, wigner_shape, (0.7, 0.9))
    wigner = _write_ini(work / f"{tag}_wigner.ini", {
        "scenario": {"kind": "wigner"},
        "grid": _grid(wigner_spec),
        "initial": _file_input(work, f"{tag}_wigner_in", random_field(
            wigner_spec, rng, even_modes=True, helicities=(0,))),
    })

    fiber_spec = _fiber_spec(rng)
    fiber = _write_ini(work / f"{tag}_fiber.ini", {
        "scenario": {"kind": "fiber-modes"},
        "physics": {"m_angular": fiber_spec.m_angular,
                    "k_z": repr(fiber_spec.k_z),
                    "radius": repr(fiber_spec.radius),
                    "eps_in": repr(fiber_spec.eps_in)},
    })
    boost = _write_ini(work / f"{tag}_boost.ini", {
        "scenario": {"kind": "boost-eigen"},
        "physics": {"kappa": repr(rng.uniform(0.5, 2.0)),
                    "kx": repr(rng.uniform(0.3, 1.2)),
                    "ky": repr(rng.uniform(0.3, 1.2))},
    })
    return [_cli_job("evolve-free", free, out / "free", check_evolve_free),
            _cli_job("observables", observables, out / "observables",
                     check_observables),
            _cli_job("hydro", hydro, out / "hydro", check_hydro),
            _cli_job("wigner", wigner, out / "wigner", check_wigner),
            _cli_job("fiber-modes", fiber, out / "fiber", check_fiber),
            _cli_job("boost-eigen", boost, out / "boost", check_boost)]


def _survey(rng, work):
    order = [rng.permutation(len(pool))
             for pool in (FREE_SHAPES, HYDRO_SHAPES, WIGNER_SHAPES)]
    rounds = [_survey_round(rng, work, f"round{i}", FREE_SHAPES[order[0][i]],
                            HYDRO_SHAPES[order[1][i]], WIGNER_SHAPES[order[2][i]])
              for i in range(SURVEY_ROUNDS)]
    # One throwaway job per kind on shapes no round uses: users pay cold-grid
    # costs on every CLI run, so only imports and first-call set-up warm up.
    warmup = _survey_round(rng, work, "warmup", (16, 18, 20), (20, 18, 16),
                           (6, 6, 6))
    return Plan(warmup=warmup, rounds=rounds)
