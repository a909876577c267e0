"""Command line driver: run configured scenarios, emit artifacts, report.

Usage:
    pwfn <kind> --config scenario.ini --out outdir [--threads N] [--verbose]
    pwfn report FILE [FILE ...]

Exit codes: 0 success, 2 configuration error, 3 solver precondition
violated, 4 numeric instability, 5 I/O or file-format error.  Every run
writes a JSON manifest (config hash, resolved config values, output hashes,
versions, wall time, peak resident memory, and under "run" the counts of
the run's forward and inverse transforms) next to its artifacts; identical
configs produce identical output hashes and counts.  A failed run writes
no artifact.

Internals use natural units (hbar = c = eps0 = 1); the observables keys
[output] hbar_si and c_si rescale its reported scalars on the way out.
:data:`pwfn.config.SCHEMA` declares the keys of each scenario kind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import (eigen, evolve, geometry, gridio, metrics, phasespace, spectral,
               states)
from .config import checked, parse_list
from .errors import (ConfigError, DomainError, FormatError, PwfnError,
                     ResourceError, StabilityError)

__all__ = ["EXIT_OK", "EXIT_CONFIG", "EXIT_PRECONDITION", "EXIT_INSTABILITY",
           "EXIT_IO", "run_scenario", "report", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INSTABILITY = 4
EXIT_IO = 5


def _initial_state(scenario):
    """A gaussian or mode packet's HelicitySpectrum, else its SixField."""
    params = dict(scenario.initial)
    packet = params.pop("packet")
    if packet.startswith("file:"):
        field = gridio.read_sixfield(packet[5:])
        if field.spec != scenario.grid:
            raise ConfigError(
                f"[initial] packet {packet!r} holds a field on n = "
                f"{field.spec.n}, length = {field.spec.length}, but [grid] "
                f"gives n = {scenario.grid.n}, "
                f"length = {scenario.grid.length}")
        if not field.is_finite():
            raise ConfigError(f"[initial] packet {packet!r} holds non-finite "
                              "values")
        spec, data = field.spec, field.data
        scale = max(np.max(np.abs(data.real)), np.max(np.abs(data.imag)))
        if scale == 0.0:
            raise ConfigError(f"[initial] packet {packet!r} holds only zeros")
        # N max(1, dV)^2 g^2 sum |F|^2, g = 1 + k_max max(L), bounds every
        # sum of squares of a run (README); its log is taken on F / max|F|.
        g = max(1.0, spec.cell_volume) * (1 + spec.k_max() * max(spec.length))
        if 2.0 * np.log10(scale) + 2.0 * np.log10(g) \
                + np.log10(spec.npoints * np.sum(np.abs(data / scale) ** 2)) \
                >= np.log10(np.finfo(float).max):
            raise ConfigError(f"[initial] packet {packet!r} holds a field too "
                              "large to run: its sums of squares overflow")
        return field
    if packet == "gaussian":
        return checked("initial", states.gaussian_packet_spectrum,
                       scenario.grid, **params,
                       keys={None: "k_center/sigma_k"})
    make = states.plane_wave_mode if packet == "mode" else states.vortex_field
    return checked("initial", make, scenario.grid, **params)


def _field(state):
    """The field of an initial state: a spectrum is synthesized once."""
    return spectral.synthesize(state, t=0.0) \
        if isinstance(state, spectral.HelicitySpectrum) else state


def _initial_upper(scenario):
    """F+ of the initial field, read by wigner and hydro; refused if zero."""
    state, packet = _initial_state(scenario), scenario.initial["packet"]
    blocks = state.data if isinstance(state, spectral.SixField) else state.amp
    if 0 not in spectral._live_blocks(blocks)[0]:
        key = "packet" if packet.startswith("file:") else "helicity"
        raise ConfigError(f"[initial] {key}: {scenario.kind} reads F+, and "
                          f"packet {packet!r} has a zero F+ block")
    return _field(state).upper


def _medium(scenario):
    spec = scenario.grid

    def profile(key):
        kind, *args = scenario.physics[key]
        if kind == "uniform":
            return args[0]
        base, amp = args
        x = spec.coord_lines()
        return base + amp * (np.cos(2 * np.pi * x[0] / spec.length[0])
                             * np.cos(2 * np.pi * x[1] / spec.length[1]))

    return checked("physics", evolve.MediumMap, spec=spec,
                   eps=profile("eps_profile"), mu=profile("mu_profile"),
                   keys={"eps": "eps_profile", "mu": "mu_profile",
                         None: "eps_profile/mu_profile"})


def _metric(scenario):
    kind, *index = scenario.physics["metric"]
    if kind == "minkowski":
        return geometry.minkowski_metric(scenario.grid)
    return checked("physics", geometry.conformal_metric, scenario.grid,
                   index[0], keys={None: "metric"})


def _conserved_rows(snapshots):
    """Rows of conserved quantities for (step, t, spectrum or field)
    snapshots, and the largest k = 0 energy fraction of the fields: a varying
    medium moves energy into that mode, which the helicity amplitudes drop."""
    rows = []
    base = None
    dc_fraction = 0.0
    for step, t, sp in snapshots:
        if isinstance(sp, spectral.SixField):
            sp, fraction = spectral._helicity_spectrum(sp)
            dc_fraction = max(dc_fraction, fraction)
        number, energy, momentum = metrics._diagonal_sums(sp)
        row = [step, t, number, energy, *momentum]
        if base is None:
            base = row[2:]
        scale = abs(base[1]) + 1e-300  # conserved-quantity drift vs energy
        drift = max(abs(a - b) for a, b in zip(row[2:], base)) / scale
        rows.append(row + [drift])
    return rows, dc_fraction


def _run_evolve(scenario):
    phys = scenario.physics
    if scenario.kind == "evolve-free":
        # Exact propagation by any finite time, backward included; no dt.
        # A spectrum is synthesized at t, and keeps its conserved row.
        t_total = phys["time"]
        s0 = _initial_state(scenario)
        spectrum = isinstance(s0, spectral.HelicitySpectrum)
        final = checked("physics", spectral.synthesize if spectrum else
                        evolve.propagate_free, s0, t_total, keys={"t": "time"})
        snapshots = [(0, 0.0, s0), (1, t_total, s0 if spectrum else final)]
        extra = {"steps": 1, "time": t_total}
    else:
        cfg = checked("physics", evolve.StepperConfig,
                      **{k: phys[k] for k in ("dt", "scheme", "cfl_safety")
                         if k in phys})
        steps = phys["steps"]
        s0 = _initial_state(scenario)
        curved = scenario.kind == "evolve-curved"
        stepper = geometry.step_curved if curved else evolve.step_medium
        background = (_metric if curved else _medium)(scenario)
        final = checked("physics", stepper, _field(s0), background, cfg, steps)
        snapshots = [(0, 0.0, s0), (steps, steps * cfg.dt, final)]
        extra = {"steps": steps, "dt": cfg.dt}
    rows, extra["dc_energy_fraction"] = _conserved_rows(snapshots)
    return (["step", "t", "photon_number", "energy", "px", "py", "pz",
             "max_drift"], rows, final.data, extra)


def _run_fiber(scenario):
    phys = dict(scenario.physics)
    max_modes = phys.pop("max_modes")
    spec = checked("physics", eigen.FiberSpec, **phys)
    modes = checked("physics", eigen.fiber_modes, spec, max_modes=max_modes)
    rows = [[spec.m_angular, spec.k_z, md.omega, 1.0 / md.q,
             md.matched_component_jump()] for md in modes]
    field = None
    if scenario.grid is not None and modes:
        field = eigen.fiber_mode_field(modes[0], scenario.grid).data
    return (["m_angular", "k_z", "omega", "decay_length", "matched_jump"],
            rows, field, {"modes_found": len(modes)})


def _run_boost(scenario):
    phys = scenario.physics
    b = checked("physics", eigen.boost_eigenfunction, phys["kappa"],
                phys["kx"], phys["ky"], keys={"k_perp": "kx/ky"})
    z = np.linspace(phys["z_min"], phys["z_max"], phys["samples"])
    try:
        psi_x, psi_y, psi_z, residual = b.profile(z)
    except DomainError as exc:
        # Name the end of the z range nearer the sample at fault; an error
        # with no value is a z <= 0 sample, nearest the smaller end.
        z_bad = (exc.value or 0.0) / b.k_perp
        key = min(("z_min", "z_max"), key=lambda k: abs(phys[k] - z_bad))
        raise ConfigError(f"[physics] {key}: {exc}") from exc
    rows = list(zip(z, psi_z, np.abs(psi_x), np.abs(psi_y), residual))
    return (["z", "psi_z", "abs_psi_x", "abs_psi_y", "eigen_residual"], rows,
            None, {"kappa": b.kappa, "k_perp": b.k_perp})


def _run_wigner(scenario):
    if scenario.grid.npoints > 512:
        raise ResourceError(
            "the full (r, k) distribution needs npoints^2 storage; "
            f"grid has {scenario.grid.npoints} points (cap 512, e.g. 8x8x8)"
        )
    dec = phasespace.wigner_build(scenario.grid, _initial_upper(scenario))
    r1, r2 = phasespace.wigner_subsidiary_residual(dec)
    return (["hermiticity_defect", "subsidiary_r1", "subsidiary_r2"],
            [[dec.hermiticity_defect, r1, r2]],
            phasespace.wigner_marginal_k(dec), {})


def _run_hydro(scenario):
    st = phasespace.hydro_from_field(scenario.grid, _initial_upper(scenario))
    i1, i2, i3 = phasespace.hydro_identity_residuals(st)
    surface = ("plane", scenario.physics["surface_axis"],
               scenario.physics["surface_index"])
    winding = phasespace.quantization_integral(st, surface)
    return (["trace_identity", "orthogonality_identity",
             "contraction_identity", "plane_winding"],
            [[i1, i2, i3, winding]], st.rho, {})


def _run_observables(scenario):
    sp, energy = _initial_state(scenario), 0.0
    if isinstance(sp, spectral.SixField):
        sp, energy = spectral.decompose(sp), sp.norm2()
    n_ph = metrics.photon_number(sp)
    # A field without helicity content has no photon to normalize to.
    if not n_ph > spectral._DC_RTOL * energy:
        raise ConfigError(
            f"[initial] packet {scenario.initial['packet']!r} has photon "
            f"number {n_ph:.3e} at energy {energy:.3e}: it carries no "
            "helicity content to normalize")
    sp.amp /= np.sqrt(n_ph)
    om = metrics.observables_momentum(sp)
    oc = metrics.observables_coordinate(sp)
    hbar, c = scenario.output["hbar_si"], scenario.output["c_si"]
    rows = [
        ["photon_number", n_ph, n_ph],
        ["energy", om.energy * (hbar * c), oc.energy * (hbar * c)],
    ]
    for i, ax in enumerate("xyz"):
        rows.append([f"p_{ax}", om.momentum[i] * hbar, oc.momentum[i] * hbar])
        rows.append([f"j_{ax}", om.angular_momentum[i] * hbar,
                     oc.angular_momentum[i] * hbar])
        rows.append([f"n_{ax}", om.moment_of_energy[i], oc.moment_of_energy[i]])
    return (["quantity", "momentum_rep", "coordinate_rep"], rows, None,
            {"photon_number": n_ph})


def _run_commutators(scenario):
    f0 = _field(_initial_state(scenario))
    rows = [[tag_a.value, tag_b.value, r]
            for tag_a, tag_b, r in metrics.commutator_residuals(f0)]
    worst = max(row[2] for row in rows)
    return ["a", "b", "residual"], rows, None, {"worst_residual": worst}


_RUNNERS = {
    "evolve-free": _run_evolve,
    "evolve-medium": _run_evolve,
    "evolve-curved": _run_evolve,
    "fiber-modes": _run_fiber,
    "boost-eigen": _run_boost,
    "wigner": _run_wigner,
    "hydro": _run_hydro,
    "observables": _run_observables,
    "commutators": _run_commutators,
}


def run_scenario(config_path, outdir, verbose=False, kind=None) -> int:
    """Run the scenario of an INI config and write its artifacts to outdir.

    kind, if given, is the kind the config must declare.  The runner of the
    kind computes (header, rows, field, extra); only then are the summary
    CSV, the field (if any, on the scenario's grid) and the manifest
    written, so a failed run leaves nothing in outdir.
    """
    started = time.monotonic()
    scenario = cfgmod.load_scenario(config_path)
    if kind not in (None, scenario.kind):
        raise ConfigError(f"config declares kind {scenario.kind!r} but the "
                          f"{kind!r} subcommand was invoked")
    spectral.reset_transform_counts()
    header, rows, field, extra = _RUNNERS[scenario.kind](scenario)
    extra["counters"] = spectral.transform_counts()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [outdir / scenario.output["summary"]]
    gridio.write_csv(outputs[0], header, rows)
    if field is not None:
        outputs.append(outdir / scenario.output["field"])
        gridio.write_grid_field(outputs[1], scenario.grid,
                                np.reshape(field, (-1, *scenario.grid.n)))
    manifest = outdir / "manifest.json"
    gridio.write_manifest(manifest, config_path, outputs, scenario.resolved(),
                          started=started, extra=extra)
    if verbose:
        for p in outputs:
            print(f"wrote {p}")
        print(f"wrote {manifest}")
    return EXIT_OK


def report(paths) -> int:
    """Print a stable text summary of artifact files."""
    for path in paths:
        path = Path(path)
        if path.suffix == ".pwfn":
            spec, data = gridio.read_grid_field(path)
            norm2 = float(np.sum(np.abs(data) ** 2) * spec.cell_volume)
            print(f"{path.name}: grid {spec.n} box {spec.length} "
                  f"components {data.shape[0]} norm2 {norm2:.12e}")
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            if path.suffix == ".json":
                manifest = json.loads(text)
                lines = [f"config {manifest['config_sha256'][:12]} "
                         f"outputs {len(manifest['outputs'])}"]
            else:
                lines = text.strip().splitlines()
            head = lines[0]
        except (ValueError, LookupError, TypeError) as exc:
            # not UTF-8, not JSON, a manifest without its keys, or empty
            raise FormatError(f"{path}: not a pwfn artifact "
                              f"({type(exc).__name__}: {exc})") from exc
        print(f"{path.name}: {head}")
        for line in lines[1:]:
            print(f"  {line}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwfn",
        description="photon wave-function numerics: scenario driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in cfgmod.SCENARIO_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--verbose", action="store_true")
    pr = sub.add_parser("report", help="summarize artifact files")
    pr.add_argument("files", nargs="+")
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            return report(args.files)
        threads, source = args.threads, "--threads"
        if threads is None:
            source = "PWFN_THREADS"
            threads = parse_list(source, os.environ.get(source, "1"), 1,
                                 int)[0]
        try:
            spectral.set_workers(threads)
        except DomainError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        return run_scenario(Path(args.config), args.out,
                            verbose=args.verbose, kind=args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except FormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PwfnError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
