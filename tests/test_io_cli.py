import ast
import csv
import importlib
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pwfn
from pwfn import config, evolve, gridio, metrics, spectral, states
from pwfn.cli import main
from pwfn.config import SCENARIO_KINDS, SCHEMA, checked, load_scenario
from pwfn.evolve import propagate_free
from pwfn.errors import ConfigError, DomainError, FormatError
from pwfn.spectral import GridSpec, HelicitySpectrum, SixField
from conftest import cube, random_field, rel_err

FREE_CONFIG = """
[scenario]
kind = evolve-free

[grid]
n = 8 8 8
length = 6.283185307179586 6.283185307179586 6.283185307179586

[initial]
packet = gaussian
k_center = 3 0 0
sigma_k = 0.8

[physics]
time = 0.5
"""

GRID8 = """
[grid]
n = 8 8 8
length = 6.283185307179586 6.283185307179586 6.283185307179586
"""

# Short configs of every kind; each leaves every key it can to its default.
MINIMAL = {
    "evolve-free": GRID8,
    "evolve-medium": GRID8 + "[initial]\npacket = mode\n",
    "evolve-curved": GRID8 + "[initial]\npacket = vortex\n",
    "fiber-modes": "",
    "boost-eigen": "",
    "wigner": GRID8,
    # The default surface_index is n[surface_axis] // 2 = 4, not n[2] // 2.
    "hydro": GRID8.replace("8 8 8", "8 8 24") + "[physics]\nsurface_axis = 0\n",
    "observables": GRID8 + "[initial]\npacket = mode\n",
    "commutators": GRID8 + "[initial]\npacket = vortex\n",
}


def _ini_text(value):
    """INI text of a resolved manifest value."""
    if isinstance(value, list) and isinstance(value[0], str):  # NAME:ARGS
        name, *args = value
        return name + (":" + ",".join(map(repr, args)) if args else "")
    if isinstance(value, list):
        return " ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def test_grid_file_round_trip(tmp_path, rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    path = tmp_path / "field.pwfn"
    gridio.write_sixfield(path, psi)
    back = gridio.read_sixfield(path)
    assert back.spec == spec
    assert np.array_equal(back.data, psi.data)
    # byte-identical rewrite
    path2 = tmp_path / "copy.pwfn"
    gridio.write_sixfield(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_grid_file_rewrite_keeps_signed_zeros_and_infinities(tmp_path):
    # The payload is read as complex128, so a -0.0 real part and the finite
    # real part of 1+inf j come back as stored, and a rewrite is the same
    # bytes.
    spec = spectral.GridSpec(n=(2, 2, 2), length=(1.0, 1.0, 1.0))
    data = np.zeros((1,) + spec.n, dtype=complex)
    data[0, 0, 0, 0] = complex(-0.0, 2.0)
    data[0, 0, 0, 1] = complex(1.0, np.inf)
    data[0, 1, 0, 0] = complex(-np.inf, -0.0)
    path, copy = tmp_path / "a.pwfn", tmp_path / "b.pwfn"
    gridio.write_grid_field(path, spec, data)
    payload = path.read_bytes()[gridio._HEADER.size:]
    assert payload == data.astype("<c16").tobytes()
    _, back = gridio.read_grid_field(path)
    assert back.flags.writeable and back.dtype == complex
    gridio.write_grid_field(copy, spec, back)
    assert copy.read_bytes() == path.read_bytes()
    assert np.signbit(back[0, 0, 0, 0].real) and back[0, 0, 0, 1].real == 1.0


def test_grid_file_rejects_bad_magic_and_version(tmp_path, rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    path = tmp_path / "field.pwfn"
    gridio.write_sixfield(path, psi)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.pwfn"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        gridio.read_grid_field(bad)
    ver = bytearray(raw)
    ver[4:6] = struct.pack("<H", 99)
    bad.write_bytes(bytes(ver))
    with pytest.raises(FormatError, match="version"):
        gridio.read_grid_field(bad)


def test_grid_file_truncation_reports_counts(tmp_path, rng):
    spec = cube(8)
    psi = random_field(spec, rng, kmax=2.0)
    path = tmp_path / "field.pwfn"
    gridio.write_sixfield(path, psi)
    raw = path.read_bytes()
    cut = tmp_path / "cut.pwfn"
    cut.write_bytes(raw[:-100])
    with pytest.raises(FormatError) as err:
        gridio.read_grid_field(cut)
    message = str(err.value)
    found = len(raw) - 100 - gridio._HEADER.size
    assert str(found) in message                 # found payload bytes
    assert str(6 * 8 * 8 * 8 * 16) in message    # expected payload bytes


def test_cli_run_and_reproducibility(tmp_path):
    cfg = tmp_path / "free.ini"
    cfg.write_text(FREE_CONFIG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["evolve-free", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["evolve-free", "--config", str(cfg), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert sorted(m1["outputs"].values()) == sorted(m2["outputs"].values())
    assert m1["config_sha256"] == m2["config_sha256"]
    assert m1["versions"]["pwfn"] == pwfn.__version__
    # A finished run holds no per-grid tables.
    assert spectral._grid_tables.cache_info().currsize == 0


@pytest.mark.parametrize("kind", ["evolve-free", "commutators"])
def test_cli_threads_leave_outputs_unchanged(tmp_path, monkeypatch, kind):
    # --threads sets a process-wide worker count; restore it afterwards
    monkeypatch.setattr(spectral, "_FFT_WORKERS", spectral._FFT_WORKERS)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n"
                   + MINIMAL[kind].replace("8 8 8", "16 12 16"))
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main([kind, "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        hashes.append({Path(k).name: v for k, v in outputs.items()})
    assert hashes[0] == hashes[1]


def test_cli_report_idempotent(tmp_path, capsys):
    cfg = tmp_path / "free.ini"
    cfg.write_text(FREE_CONFIG)
    out = tmp_path / "run"
    main(["evolve-free", "--config", str(cfg), "--out", str(out)])
    files = [str(out / "final_field.pwfn"), str(out / "conserved.csv")]
    assert main(["report"] + files) == 0
    first = capsys.readouterr().out
    assert main(["report"] + files) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "norm2" in first


def test_cli_exit_codes(tmp_path, capsys, rng):
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[scenario]\nkind = nonsense\n")
    assert main(["evolve-free", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "x")]) == 2

    mismatched = tmp_path / "mismatch.ini"
    mismatched.write_text(FREE_CONFIG)
    assert main(["wigner", "--config", str(mismatched),
                 "--out", str(tmp_path / "y")]) == 2

    cfl = tmp_path / "cfl.ini"
    cfl.write_text("""
[scenario]
kind = evolve-medium
[grid]
n = 8 8 8
length = 6.3 6.3 6.3
[initial]
packet = mode
k_index = 0 0 2
[physics]
dt = 10.0
steps = 2
""")
    out = tmp_path / "cfl_out"
    assert main(["evolve-medium", "--config", str(cfl),
                 "--out", str(out)]) == 4
    assert not (out / "final_field.pwfn").exists()  # no partial field output

    missing = tmp_path / "nope.ini"
    assert main(["evolve-free", "--config", str(missing),
                 "--out", str(tmp_path / "z")]) == 2

    # dt = 0.785 at cfl_safety = 1.0 lies beyond RK4's stability bound
    # 2 sqrt(2) / k_max = 0.408 on this grid: the run is refused before its
    # first step.
    medium = """
[scenario]
kind = evolve-medium
[grid]
n = 8 8 8
length = 6.283185307179586 6.283185307179586 6.283185307179586
[initial]
packet = mode
k_index = 3 3 3
[physics]
cfl_safety = 1.0
"""
    # Malformed numbers in any key exit 2 with the key named, not with a
    # Python traceback; so do values out of their domain and keys or
    # sections the kind does not declare.
    bad_index = medium.replace("k_index = 3 3 3", "k_index = 0 0 x")
    curved = medium.replace("evolve-medium", "evolve-curved")
    observables = FREE_CONFIG.replace("evolve-free", "observables") \
        .replace("[physics]\ntime = 0.5\n", "")
    hydro = observables.replace("observables", "hydro") + "[physics]\n"
    boost = "[scenario]\nkind = boost-eigen\n[physics]\n"
    fiber = "[scenario]\nkind = fiber-modes\n[physics]\n"
    # A field file on an 8^3 grid, read by configs whose [grid] is 6^3.
    file8 = tmp_path / "in8.pwfn"
    gridio.write_sixfield(file8, random_field(cube(8), rng, kmax=2.0))
    on_grid6 = "[grid]\nn = 6 6 6\nlength = 6.3 6.3 6.3\n" \
        f"[initial]\npacket = file:{file8}\n"
    # A finite field near the float maximum would overflow the first sums
    # of squares of any run: it is refused at entry.
    huge = tmp_path / "huge.pwfn"
    field = random_field(cube(8), rng, kmax=2.0)
    field.data /= np.max(np.abs(field.data))
    field.data *= 1e308
    gridio.write_sixfield(huge, field)
    for n, (kind, text, code, *needles) in enumerate([
            ("evolve-medium", medium + "dt = 0.785\nsteps = 400\n", 4,
             "dt = 7.850e-01", "bound 4.082e-01", "cfl_safety = 1.0"),
            ("evolve-curved", curved + "dt = 0.785\nsteps = 400\n", 4,
             "dt = 7.850e-01", "bound 4.082e-01", "cfl_safety = 1.0"),
            ("evolve-medium", "[scenario]\nkind = evolve-medium\n" + GRID8
             + f"[initial]\npacket = file:{huge}\n[physics]\nsteps = 1\n",
             2, "[initial] packet", "too large"),
            ("evolve-medium", medium + "dt = nan\nsteps = 2\n", 2, "dt"),
            ("evolve-medium", medium + "dt = 0.01\nsteps = -3\n", 2, "steps"),
            ("evolve-medium", medium + "steps = 1\neps_profile = cosine:1.0\n",
             2, "eps_profile"),
            ("evolve-medium", medium + "steps = 1\nmu_profile = uniform:abc\n",
             2, "mu_profile"),
            # values that parse but are out of range
            ("evolve-medium",
             medium + "steps = 1\neps_profile = cosine:1.0,2.0\n", 2,
             "eps_profile"),
            ("evolve-medium", medium + "steps = 1\nmu_profile = uniform:-1\n",
             2, "[physics] mu_profile: mu must"),
            ("evolve-medium", bad_index + "steps = 1\n", 2, "k_index"),
            ("evolve-curved", curved + "metric = conformal:abc\n", 2,
             "metric"),
            ("evolve-curved", curved + "metric = conformal:\n", 2, "metric"),
            ("evolve-curved", curved + "metric = conformal:0\n", 2, "metric"),
            ("evolve-free", FREE_CONFIG.replace("time = 0.5", "time = inf"), 2,
             "time"),
            ("observables", observables + "[output]\nhbar_si = 1.0e-34x\n", 2,
             "hbar_si"),
            ("evolve-free", FREE_CONFIG.replace("6.283185307179586 " * 2,
                                                "nan 6.3 "), 2, "length"),
            ("evolve-free", FREE_CONFIG.replace("sigma_k = 0.8",
                                                "helicity = 3"), 2, "helicity"),
            ("hydro", hydro + "surface_axis = 5\n", 2, "surface_axis"),
            ("hydro", hydro + "surface_index = 99\n", 2, "surface_index"),
            ("boost-eigen", boost + "samples = -1\n", 2, "samples"),
            ("fiber-modes", fiber + "max_modes = 0\n", 2, "max_modes"),
            ("fiber-modes", fiber + "radius = -1\n", 2, "[physics] radius"),
            ("fiber-modes", fiber + "radius = nan\n", 2, "[physics] radius"),
            ("fiber-modes", fiber + "eps_in = 0.5\n", 2, "[physics] eps_in"),
            ("fiber-modes", fiber + "eps_in = nan\n", 2, "[physics] eps_in"),
            ("fiber-modes", fiber + "eps_out = 0\n", 2, "[physics] eps_out"),
            ("fiber-modes", fiber + "k_z = inf\n", 2, "[physics] k_z"),
            ("evolve-free", FREE_CONFIG.replace("sigma_k = 0.8",
                                                "sigma_k = 0"), 2,
             "[initial] sigma_k"),
            ("evolve-medium", medium.replace("k_index = 3 3 3",
                                             "k_index = 8 0 0")
             + "steps = 1\n", 2, "[initial] k_index"),
            ("wigner", "[scenario]\nkind = wigner\n" + on_grid6, 2,
             "[initial] packet", "(8, 8, 8)", "(6, 6, 6)"),
            ("observables", "[scenario]\nkind = observables\n" + on_grid6, 2,
             "[initial] packet", "(8, 8, 8)", "(6, 6, 6)"),
            # keys and sections the kind does not declare
            ("evolve-medium", medium + "stpes = 3\n", 2, "stpes",
             "did you mean steps"),
            ("evolve-medium", medium + "[phyiscs]\nsteps = 1\n", 2,
             "[phyiscs]", "did you mean physics"),
            ("evolve-curved", curved + "steps = 1\nscheme = split_step\n", 2,
             "scheme", "evolve-curved"),
            ("evolve-medium", medium.replace("k_index = 3 3 3",
                                             "k_center = 1 0 0")
             + "steps = 1\n", 2, "k_center", "packet = mode"),
            ("observables", observables + "[output]\neps0_si = 8.85e-12\n",
             2, "eps0_si"),
            # non-finite floats, refused by the parser for every key
            ("hydro", "[scenario]\nkind = hydro\n" + GRID8
             + "[initial]\npacket = vortex\ncore_xy = nan 0\n", 2,
             "[initial] core_xy"),
            ("evolve-curved", curved + "metric = conformal:nan\n", 2,
             "[physics] metric"),
            ("evolve-curved", curved + "metric = conformal:inf\n", 2,
             "[physics] metric"),
            ("evolve-medium",
             medium + "steps = 1\neps_profile = uniform:inf\n", 2,
             "[physics] eps_profile"),
            ("boost-eigen", boost + "kappa = nan\n", 2, "[physics] kappa"),
            ("boost-eigen", boost + "z_min = nan\n", 2, "[physics] z_min"),
            ("observables", observables + "[output]\nhbar_si = nan\n", 2,
             "[output] hbar_si"),
            ("evolve-free", FREE_CONFIG.replace("k_center = 3 0 0",
                                                "k_center = nan 0 0"), 2,
             "[initial] k_center"),
            ("evolve-free", FREE_CONFIG.replace("sigma_k = 0.8",
                                                "r_center = inf 0 0"), 2,
             "[initial] r_center"),
            # integers past the float range, refused by the parser
            ("evolve-medium", medium + "steps = 1" + "0" * 400 + "\n", 2,
             "[physics] steps"),
            ("evolve-free", FREE_CONFIG.replace("n = 8 8 8",
                                                "n = 8 8 8" + "0" * 400), 2,
             "[grid] n"),
            # finite values whose derived quantities overflow or underflow
            ("evolve-medium", medium + "steps = 1\n"
             "eps_profile = uniform:1e200\nmu_profile = uniform:1e200\n", 2,
             "[physics] eps_profile/mu_profile"),
            ("evolve-medium", medium + "steps = 1\n"
             "eps_profile = uniform:1e200\nmu_profile = uniform:1e-200\n", 2,
             "[physics] eps_profile/mu_profile"),
            ("evolve-curved", curved + "metric = conformal:1e200\n", 2,
             "[physics] metric"),
            ("evolve-curved", curved + "metric = conformal:1e100\n", 2,
             "[physics] metric"),
            # a packet whose phase k . r_center overflows, whose exponent
            # |k - k_center|^2 / 2 sigma_k^2 divides by zero or by inf, or
            # whose exponent overflows at every lattice k
            ("evolve-free", FREE_CONFIG.replace("sigma_k = 0.8",
                                                "r_center = 1e308 0 0"), 2,
             "[initial] r_center"),
            ("observables", observables.replace("sigma_k = 0.8",
                                                "sigma_k = 1e-300"), 2,
             "[initial] sigma_k"),
            ("observables", observables.replace("sigma_k = 0.8",
                                                "sigma_k = 1e200"), 2,
             "[initial] sigma_k"),
            ("observables", observables.replace("k_center = 3 0 0",
                                                "k_center = 1e200 0 0"), 2,
             "[initial] k_center/sigma_k"),
            ("boost-eigen", boost + "kappa = 1e300\n", 2, "[physics] kappa"),
            ("boost-eigen", boost + "z_min = 1e-160\nsamples = 3\n", 2,
             "[physics] z_min"),
            ("boost-eigen", boost + "z_min = 1e-310\nsamples = 3\n", 2,
             "[physics] z_min"),
            # exp(-k_perp z) underflows past k_perp z of about 745, and
            # below the smallest normal double past about 708; the
            # derivative moments overflow at tiny k_perp z
            ("boost-eigen", boost + "kx = 1000\n", 2, "[physics] z_max"),
            ("boost-eigen", boost + "kx = 1000\nz_max = 0.7222\n", 2,
             "[physics] z_max"),
            ("boost-eigen", boost + "kx = 1000\nz_min = 1e-155\nsamples = 3\n",
             2, "[physics] z_min"),
            # config values that solvers would refuse as preconditions
            ("evolve-medium", medium + "steps = 1\nscheme = split_step\n"
             "eps_profile = cosine:2.0,0.3\n", 2, "[physics] scheme",
             "uniform-speed"),
            ("boost-eigen", boost + "z_min = -1\n", 2, "[physics] z_min"),
            ("boost-eigen", boost + "kx = 0\nky = 0\n", 2,
             "[physics] kx/ky", "k_perp > 0"),
            # a mode on a Nyquist plane, whose k the lattice curl drops
            ("observables", "[scenario]\nkind = observables\n" + GRID8
             + "[initial]\npacket = mode\nk_index = 4 1 0\n", 2,
             "[initial] k_index", "Nyquist"),
            ("evolve-medium", medium.replace("k_index = 3 3 3",
                                             "k_index = 0 0 -4")
             + "steps = 1\n", 2, "[initial] k_index", "Nyquist"),
            # split_step past its splitting-error bound cfl_safety min(dx)/v
            ("evolve-medium", "[scenario]\nkind = evolve-medium\n" + GRID8
             + "[physics]\nscheme = split_step\ndt = 0.5\nsteps = 1\n", 4,
             "dt = 5.000e-01 exceeds the split-step bound 3.927e-01"),
            # configs the reader refuses before any key is parsed
            ("evolve-free", "[scenario]\nkind = evolve-free\n[grid]\n"
             "n = 8 8 8\n", 2, "[grid] missing key 'length'"),
            ("evolve-free", FREE_CONFIG.replace("time = 0.5", "time 0.5"), 2,
             "config parse error"),
            ("evolve-free", GRID8, 2, "config needs [scenario] kind"),
            ("observables", "[scenario]\nkind = observables\n", 2,
             "scenario 'observables' requires a [grid] section"),
            ("evolve-free", FREE_CONFIG.replace("packet = gaussian",
                                                "packet = plane"), 2,
             "[initial] packet must be gaussian, mode, vortex or file:PATH",
             "'plane'"),
            # The modes are solved, but the 2 x 2 box holds too few decay
            # lengths to sample the first one: the run fails after its
            # solve, and its summary must not be written either.
            ("fiber-modes", "[scenario]\nkind = fiber-modes\n[grid]\n"
             "n = 8 8 8\nlength = 2 2 6.283185307179586\n", 3,
             "decay lengths")]):
        case = tmp_path / f"case{n}.ini"
        case.write_text(text)
        out = tmp_path / f"case{n}_out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([kind, "--config", str(case),
                         "--out", str(out)]) == code, text
        err = capsys.readouterr().err
        for needle in needles:
            assert needle in err, text
        # A blow-up is reported once, as the stability error.
        assert "RuntimeWarning" not in err, text
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], text
        assert "] None:" not in err, text
        assert not out.exists(), text  # a failed run writes nothing


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("kind", [k for k in SCENARIO_KINDS
                                  if "initial" in SCHEMA[k]])
def test_cli_refuses_a_non_finite_initial_field(tmp_path, capsys, rng, kind,
                                                bad):
    field = random_field(cube(8), rng, kmax=2.0)
    field.data[0, 1, 2, 3, 4] = bad
    path = tmp_path / "in.pwfn"
    gridio.write_sixfield(path, field)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n" + GRID8
                   + f"[initial]\npacket = file:{path}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert "[initial] packet" in capsys.readouterr().err
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("kind", [k for k in SCENARIO_KINDS
                                  if "initial" in SCHEMA[k]])
def test_cli_refuses_an_all_zero_initial_field(tmp_path, capsys, kind):
    # A zero field has no state: it would run to all-zero rows, or fail
    # late with a warning or a traceback.
    path = tmp_path / "in.pwfn"
    gridio.write_sixfield(path, SixField.zeros(cube(8)))
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n" + GRID8
                   + f"[initial]\npacket = file:{path}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert "[initial] packet" in capsys.readouterr().err
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("content", ["uniform", "longitudinal"])
def test_cli_observables_refuses_a_field_without_helicity_content(
        tmp_path, capsys, content):
    # Neither field has a photon to normalize to: a uniform field is all
    # k = 0, and F+- = x exp(2 pi i x / L) is all along its k.
    spec = cube(8)
    field = SixField.zeros(spec)
    field.data[:, 0] = 1.0 if content == "uniform" else np.exp(
        2j * np.pi * spec.coord_lines()[0] / spec.length[0])
    path = tmp_path / "in.pwfn"
    gridio.write_sixfield(path, field)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario]\nkind = observables\n" + GRID8
                   + f"[initial]\npacket = file:{path}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["observables", "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert "[initial] packet" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("helicity", [1, -1])
@pytest.mark.parametrize("packet", ["gaussian", "mode", "file"])
@pytest.mark.parametrize("kind", ["wigner", "hydro"])
def test_cli_wigner_and_hydro_refuse_a_zero_upper_block(tmp_path, capsys,
                                                        rng, kind, packet,
                                                        helicity):
    # Both read F+ only, which a helicity -1 field leaves zero.
    text = MINIMAL[kind]
    spec = cube(8) if kind == "wigner" else GridSpec(
        n=(8, 8, 24), length=(2 * np.pi,) * 3)
    initial = f"[initial]\npacket = {packet}\nhelicity = {helicity}\n"
    if packet == "file":
        path = tmp_path / "in.pwfn"
        block = HelicitySpectrum.LAMBDAS.index(helicity)
        gridio.write_sixfield(path, random_field(spec, rng, kmax=2.0,
                                                 helicities=(block,)))
        initial = f"[initial]\npacket = file:{path}\n"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n" + text + initial)
    out = tmp_path / "out"
    code = main([kind, "--config", str(cfg), "--out", str(out)])
    if helicity == 1:
        assert code == 0
        return
    key = "packet" if packet == "file" else "helicity"
    assert code == 2
    assert f"[initial] {key}: {kind} reads F+" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exponent", [150, 153, 160])
@pytest.mark.parametrize("kind", [k for k in SCENARIO_KINDS
                                  if "initial" in SCHEMA[k]])
def test_cli_runs_or_refuses_a_huge_initial_field(tmp_path, capsys, kind,
                                                  exponent):
    # A finite field whose sums of squares could overflow in the run is
    # refused at entry; the 8^3 packet at 1e150 is let through and gives
    # finite outputs.
    field = states.gaussian_packet(cube(8), (3.0, 0.0, 0.0), 0.8)
    field.data *= 10.0 ** exponent / np.max(np.abs(field.data))
    path = tmp_path / "in.pwfn"
    gridio.write_sixfield(path, field)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n" + GRID8
                   + f"[initial]\npacket = file:{path}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([kind, "--config", str(cfg), "--out", str(out)])
    assert not caught
    if exponent > 150:
        assert code == 2
        assert "[initial] packet" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    for table in out.glob("*.csv"):
        rows = list(csv.DictReader(table.read_text().splitlines()))
        values = [float(v) for row in rows for v in row.values()
                  if re.fullmatch(r"[-+.\deE]+|nan|inf|-inf", v)]
        assert values and all(np.isfinite(values)), table
        assert any(v != 0.0 for v in values), table
    for grid_file in out.glob("*.pwfn"):
        _, data = gridio.read_grid_field(grid_file)
        assert np.all(np.isfinite(data)), grid_file


def test_cli_reports_a_state_that_overflows_during_rk4(tmp_path, capsys,
                                                       monkeypatch):
    # A right-hand side that overflows in the second stage: the end-of-run
    # finiteness check of rk4 reports it as a stability error.  A varying
    # eps keeps the run on the r-space right-hand side.
    def overflowing(g, *tables):
        return g * 1e300

    monkeypatch.setattr(evolve, "_medium_rhs", overflowing)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario]\nkind = evolve-medium\n" + GRID8
                   + "[initial]\npacket = mode\n[physics]\nsteps = 1\n"
                   "eps_profile = cosine:1.0,0.1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve-medium", "--config", str(cfg),
                     "--out", str(out)]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not caught
    assert not out.exists()


def test_cli_import_leaves_out_the_eigen_solvers_scipy_modules(tmp_path):
    # scipy.optimize serves the fiber solver only, which loads it on first
    # use; the boost solver loads no scipy.integrate, not even in its run.
    cfg = tmp_path / "boost.ini"
    cfg.write_text("[scenario]\nkind = boost-eigen\n")
    loaded = ("sorted(m for m in sys.modules if m.startswith("
              "('scipy.integrate', 'scipy.optimize')))")
    code = (f"import sys, pwfn.cli; print({loaded}); "
            f"pwfn.cli.main(['boost-eigen', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); print({loaded})")
    env = {**os.environ, "PYTHONPATH": str(Path(pwfn.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["[]", "[]"]
    assert (tmp_path / "out" / "boost_profile.csv").exists()


def test_cli_loads_config_once(tmp_path, monkeypatch):
    loads = []

    def counted(path):
        loads.append(path)
        return load_scenario(path)

    monkeypatch.setattr(config, "load_scenario", counted)
    cfg = tmp_path / "free.ini"
    cfg.write_text(FREE_CONFIG)
    assert main(["evolve-free", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(loads) == 1


@pytest.mark.parametrize("threads, env, source", [
    ("0", None, "--threads"), ("-1", None, "--threads"),
    (None, "0", "PWFN_THREADS"), (None, "-1", "PWFN_THREADS")])
def test_cli_refuses_thread_counts_below_one(tmp_path, monkeypatch, capsys,
                                             threads, env, source):
    monkeypatch.setattr(spectral, "_FFT_WORKERS", spectral._FFT_WORKERS)
    if env is None:
        monkeypatch.delenv("PWFN_THREADS", raising=False)
    else:
        monkeypatch.setenv("PWFN_THREADS", env)
    cfg = tmp_path / "free.ini"
    cfg.write_text(FREE_CONFIG)
    out = tmp_path / "out"
    argv = ["evolve-free", "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--threads", threads] if threads else [])) == 2
    assert source in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(DomainError):
        spectral.set_workers(int(threads or env))


def test_checked_names_only_the_section_for_an_unnamed_argument():
    def make():
        raise DomainError("spectrum contains non-finite amplitudes")

    with pytest.raises(ConfigError) as err:
        checked("initial", make)
    assert str(err.value) == \
        "[initial]: spectrum contains non-finite amplitudes"


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_manifest_resolves_every_key_and_defaults_reproduce(tmp_path, kind):
    short = tmp_path / "short.ini"
    short.write_text(f"[scenario]\nkind = {kind}\n" + MINIMAL[kind])
    assert main([kind, "--config", str(short),
                 "--out", str(tmp_path / "short")]) == 0
    resolved = json.loads(
        (tmp_path / "short" / "manifest.json").read_text())["resolved"]
    # The manifest lists every declared key of the kind, defaults applied.
    for section, declared in SCHEMA[kind].items():
        if section == "initial":
            declared = ["packet", *declared[resolved["initial"]["packet"]]]
        if (kind, section) != ("fiber-modes", "grid"):  # optional, not given
            assert sorted(resolved[section]) == sorted(declared), section
    if kind == "hydro":
        assert resolved["physics"]["surface_index"] == 4
    # Spelling out every default gives byte-identical outputs.
    full = tmp_path / "full.ini"
    full.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {_ini_text(value)}\n"
                                   for key, value in values.items())
        for section, values in resolved.items()))
    assert main([kind, "--config", str(full),
                 "--out", str(tmp_path / "full")]) == 0
    manifest = json.loads((tmp_path / "full" / "manifest.json").read_text())
    assert manifest["resolved"] == resolved
    names = sorted(p.name for p in (tmp_path / "short").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "full").iterdir())
    for name in names:
        if name != "manifest.json":
            assert (tmp_path / "short" / name).read_bytes() == \
                (tmp_path / "full" / name).read_bytes(), name


def test_readme_config_runs_and_readme_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cfg = tmp_path / "readme.ini"
    cfg.write_text(readme.split("```ini\n")[1].split("```")[0])
    kind = load_scenario(cfg).kind
    assert main([kind, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    for sections in SCHEMA.values():
        for section, keys in sections.items():
            for key in (key for family in keys.values() for key in family) \
                    if section == "initial" else keys:
                assert re.search(f"`{key}[` ]", readme), (section, key)


def test_cli_free_propagation_backward(tmp_path):
    # time < 0 is a valid backward propagation, written as such.
    cfg = tmp_path / "back.ini"
    cfg.write_text(FREE_CONFIG.replace("time = 0.5", "time = -0.5"))
    out = tmp_path / "back"
    assert main(["evolve-free", "--config", str(cfg), "--out", str(out)]) == 0
    back = gridio.read_sixfield(out / "final_field.pwfn")
    rows = (out / "conserved.csv").read_text().strip().splitlines()
    assert float(rows[-1].split(",")[1]) == -0.5
    start = tmp_path / "start.ini"
    start.write_text(FREE_CONFIG.replace("time = 0.5", "time = 0.0"))
    assert main(["evolve-free", "--config", str(start),
                 "--out", str(tmp_path / "start")]) == 0
    f0 = gridio.read_sixfield(tmp_path / "start" / "final_field.pwfn")
    forward = propagate_free(back, 0.5)
    scale = np.max(np.abs(f0.data))
    assert np.max(np.abs(forward.data - f0.data)) <= 1e-12 * scale


def test_cli_report_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.pwfn"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["report", str(bad)]) == 5
    # A header whose grid GridSpec refuses is a format error as well.
    for dims, box in [((3, 4, 4), (1.0, 1.0, 1.0)),
                      ((4, 4, 4), (np.nan, 1.0, 1.0))]:
        header = gridio._HEADER.pack(gridio.GRID_MAGIC, gridio.GRID_VERSION,
                                     *dims, *box, 1)
        bad.write_bytes(header + bytes(16 * int(np.prod(dims))))
        assert main(["report", str(bad)]) == 5, dims
    # Text artifacts: exit 5 naming the file, not a traceback.
    for name, content in [("empty.csv", b""),
                          ("blank.csv", b"\n \n"),
                          ("manifest.json", b"{not json"),
                          ("keys.json", b'{"outputs": []}'),
                          ("list.json", b"[1, 2]"),
                          ("latin1.csv", "t,\xe9nergie\n".encode("latin-1")),
                          ("latin1.json", "{\"\xe9\": 1}".encode("latin-1"))]:
        path = tmp_path / name
        path.write_bytes(content)
        capsys.readouterr()
        assert main(["report", str(path)]) == 5, name
        err = capsys.readouterr().err
        assert "file format error" in err and str(path) in err, (name, err)


def test_cli_fiber_and_observables(tmp_path):
    fiber = tmp_path / "fiber.ini"
    fiber.write_text("""
[scenario]
kind = fiber-modes
[physics]
radius = 1.0
eps_in = 2.25
eps_out = 1.0
m_angular = 0
k_z = 5.0
""")
    out = tmp_path / "fib"
    assert main(["fiber-modes", "--config", str(fiber), "--out", str(out)]) == 0
    lines = (out / "fiber_modes.csv").read_text().strip().splitlines()
    assert lines[0].startswith("m_angular,k_z,omega")
    assert len(lines) >= 2

    obs = tmp_path / "obs.ini"
    obs.write_text("""
[scenario]
kind = observables
[grid]
n = 12 12 12
length = 6.283185307179586 6.283185307179586 6.283185307179586
[initial]
packet = mode
k_index = 0 0 2
""")
    out2 = tmp_path / "obs_out"
    assert main(["observables", "--config", str(obs), "--out", str(out2)]) == 0
    text = (out2 / "observables.csv").read_text()
    assert "photon_number" in text and "j_z" in text


def test_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    gridio.write_csv(path, ["a", "b"], [[1.5, np.float64(2.25)],
                                        [complex(1, -2), "x"]])
    text = path.read_text()
    assert "np.float64" not in text
    assert "2.25" in text and "1.0-2.0j" in text.replace(" ", "")


def test_cli_wigner_field_is_the_k_marginal(tmp_path, rng):
    # wigner_trace.pwfn holds sum_k W_ii(r, k) / V, which is |psi_+(r)|^2
    # on an even-mode field.
    spec = spectral.GridSpec(n=(6, 8, 10), length=(4.2, 5.6, 7.0))
    psi = random_field(spec, rng, kmax=2.5, even_modes=True, helicities=(0,))
    field = tmp_path / "in.pwfn"
    gridio.write_sixfield(field, psi)
    _run(tmp_path, "wigner", f"[grid]\nn = 6 8 10\nlength = 4.2 5.6 7.0\n"
         f"[initial]\npacket = file:{field}\n")
    got_spec, got = gridio.read_grid_field(tmp_path / "run" / "wigner_trace.pwfn")
    assert got_spec == spec and got.shape == (1,) + spec.n
    dens = np.sum(np.abs(psi.upper) ** 2, axis=0)
    assert rel_err(got[0], dens) <= 1e-12


def test_cli_wigner_reports_the_defect_before_symmetrization(tmp_path):
    # The s = -L/2 lag slice has no +L/2 partner, so the lag sums of the
    # default packet are not Hermitian until the build symmetrizes them.
    _run(tmp_path, "wigner", MINIMAL["wigner"])
    text = (tmp_path / "run" / "wigner_summary.csv").read_text().splitlines()
    row = dict(zip(text[0].split(","), map(float, text[1].split(","))))
    assert row["hermiticity_defect"] > 0.0


def test_cli_wigner_refuses_grids_over_its_cap(tmp_path, capsys):
    cfg = tmp_path / "big.ini"
    cfg.write_text("[scenario]\nkind = wigner\n" + GRID8.replace("8 8 8", "10 10 10"))
    out = tmp_path / "out"
    assert main(["wigner", "--config", str(cfg), "--out", str(out)]) == 3
    assert "cap 512" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verbose_names_every_output_and_report_reads_the_manifest(
        tmp_path, capsys):
    cfg = tmp_path / "free.ini"
    cfg.write_text(FREE_CONFIG)
    out = tmp_path / "run"
    assert main(["evolve-free", "--config", str(cfg), "--out", str(out),
                 "--verbose"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out / name}" for name in
        ("conserved.csv", "final_field.pwfn", "manifest.json")]
    manifest = json.loads((out / "manifest.json").read_text())
    assert main(["report", str(out / "manifest.json")]) == 0
    assert capsys.readouterr().out == (
        f"manifest.json: config {manifest['config_sha256'][:12]} outputs 2\n")


def test_cli_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    cfg = tmp_path / "free.ini"
    cfg.write_text(FREE_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["evolve-free", "--config", str(cfg), "--out", str(taken)]) == 5
    assert "i/o error" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def _run(tmp_path, kind, text, name="run"):
    """Run a config through the CLI; returns the manifest's run record."""
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n" + text)
    out = tmp_path / name
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())["run"]


def test_manifest_records_peak_memory_outside_the_run_record(tmp_path):
    cfg = tmp_path / "obs.ini"
    cfg.write_text("[scenario]\nkind = observables\n" + MINIMAL["observables"])
    assert main(["observables", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 0.0
    assert "peak_rss_mb" not in manifest["run"]


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_cli_runs_build_no_full_lattice_tables(tmp_path, monkeypatch, kind):
    # Wave vectors and coordinates are read as axis arrays: a run caches
    # |k|, the checkerboard and the triad, never a (3, nx, ny, nz) table.
    built = set()
    table = spectral._table

    def recording_table(spec, name, build):
        built.add(name)
        return table(spec, name, build)

    monkeypatch.setattr(spectral, "_table", recording_table)
    _run(tmp_path, kind, MINIMAL[kind])
    assert not {"k_grid", "k_grid_diff", "coords"} & built, built
    assert spectral._grid_tables.cache_info().currsize == 0


def test_cold_observables_run_memory(tmp_path):
    # A cold 32^3 observables run, its per-grid tables included (every run
    # releases them at its end): 3.87 six-field sizes (numpy 2.4, scipy
    # 1.17), where full wave-vector and coordinate tables and the spectrum
    # held through the coordinate pass took 4.93.
    import tracemalloc
    spec = cube(32, length=4 * np.pi)
    grid = (f"[grid]\nn = 32 32 32\nlength = {spec.length[0]!r} "
            f"{spec.length[1]!r} {spec.length[2]!r}\n")
    packet = ("[initial]\npacket = gaussian\nk_center = 1.5 2.0 1.2\n"
              "sigma_k = 0.7\nhelicity = -1\nr_center = 0.3 -0.6 0.8\n")
    _run(tmp_path, "observables", MINIMAL["observables"], "warm")  # imports
    assert spectral._grid_tables.cache_info().currsize == 0
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        _run(tmp_path, "observables", grid + packet, "cold")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    six_field = 6 * spec.npoints * 16
    measured, bound = (peak - base) / six_field, 4.2
    ok = measured <= bound
    print(f"[{'PASS' if ok else 'FAIL'}] cold 32^3 observables run peak "
          f"memory [six-field sizes]: {measured:.3e} (<= {bound:.3e})")
    assert ok, (measured, bound)


def _momentum_derivative_transforms(spectrum):
    """(calls, points), each way, of observables_momentum's k derivatives:
    per live helicity, one inverse and one forward transform along each k
    axis m of the three Cartesian components on the k lines along m whose
    largest |phi| exceeds 16 eps of the spectrum's largest."""
    size = np.abs(spectrum.amp)
    tol = 16 * np.finfo(float).eps * np.max(size)
    calls = points = 0
    for block in size:
        if np.any(block):
            for m, n_m in enumerate(spectrum.spec.n):
                lines = np.count_nonzero(np.max(block, axis=m) > tol)
                calls, points = calls + 1, points + 3 * lines * n_m
    return calls, points


def test_manifest_counts_transforms(tmp_path, rng):
    spec = cube(8)
    field = tmp_path / "in.pwfn"
    gridio.write_sixfield(field, random_field(spec, rng, kmax=2.0))
    counters = _run(tmp_path, "commutators",
                    GRID8 + f"[initial]\npacket = file:{field}\n")["counters"]
    # Reading the file transforms nothing: these are the sweep's own, each
    # a transform pair along one axis: 33 of the whole stack (three
    # derivative fields for each of 11 jets) and 76 of one component (the
    # terms of K; see test_commutator_sweep_transforms_each_image_once).
    block = 6 * spec.npoints
    live = block // 2
    sweep = 33 * block + 76 * block // 3
    assert counters == {"fft_calls": 109, "fft_points": sweep,
                        "ifft_calls": 109, "ifft_points": sweep,
                        "fft_axis_points": sweep, "ifft_axis_points": sweep}
    # In a varying medium a run of RK4 steps evaluates the right-hand side
    # once per term of its Chebyshev series but one, never more than four
    # times per step.  The cosine medium is uniform along z, so a run
    # transforms the state along z once at its start and once at its end.
    # Each evaluation transforms the k_z planes that carry field (the
    # mode's one plane) by two pairs: one along x of their y and z
    # components, one along y of their z and x components, each 2/3 of
    # the planes.  The rest is the medium's gradient of h, taken at its
    # distinct points (one forward and one inverse transform of one x-y
    # plane along x, and the same along y), the packet's one synthesis and
    # the final row's one decomposition.
    medium = MINIMAL["evolve-medium"] + "[physics]\ndt = 0.01\nsteps = {}\n"
    varying = medium + "eps_profile = cosine:1.0,0.1\n"
    short, long = (_run(tmp_path, "evolve-medium", varying.format(steps),
                        f"steps{steps}")["counters"] for steps in (2, 5))
    x = spec.coords()
    wave = np.cos(2 * np.pi * x[0] / spec.length[0]) \
        * np.cos(2 * np.pi * x[1] / spec.length[1])
    med = evolve.MediumMap(spec=spec, eps=1.0 + 0.1 * wave, mu=np.ones(spec.n))
    assert med.uniform_axes == (2,)
    rate = np.max(med.v) * spec.k_max() + np.max(med.coupling_norm)
    calls = [len(evolve._rk4_series(0.01 * rate, steps)) - 1
             for steps in (2, 5)]
    assert all(count <= 4 * steps for count, steps in zip(calls, (2, 5)))
    mode = spectral.synthesize(states.plane_wave_mode(spec, (0, 0, 2))).data
    peak = np.max(np.abs(np.fft.fft(mode, axis=-1)), axis=(0, 1, 2, 3))
    planes = np.count_nonzero(peak > 16 * np.finfo(float).eps * peak.max())
    assert planes == 1
    sector = 6 * spec.n[0] * spec.n[1] * planes
    plane = spec.n[0] * spec.n[1]
    for counters, rhs in zip((short, long), calls):
        assert counters == {
            "fft_calls": 2 + 2 + 2 * rhs,
            "fft_points": 2 * plane + 2 * block + 4 * rhs * sector // 3,
            "ifft_calls": 2 + 2 + 2 * rhs,
            "ifft_points": 2 * plane + live + block + 4 * rhs * sector // 3,
            "fft_axis_points": 2 * plane + block + 3 * block
            + 4 * rhs * sector // 3,
            "ifft_axis_points": 2 * plane + 3 * live + block
            + 4 * rhs * sector // 3}
    # A uniform medium or metric steps per Fourier mode: one forward and
    # one inverse transform of the packet's live block for any steps,
    # between its one synthesis and the final row's one decomposition.
    # Building a uniform medium transforms nothing.
    curved = MINIMAL["evolve-curved"].replace("vortex", "mode") \
        + "[physics]\ndt = 0.01\nsteps = {}\nmetric = "
    for n, (kind, text) in enumerate([
            ("evolve-medium", medium),
            ("evolve-medium", medium + "eps_profile = uniform:2.0\n"),
            ("evolve-curved", curved + "minkowski\n"),
            ("evolve-curved", curved + "conformal:1.3\n")]):
        for steps in (2, 5):
            counters = _run(tmp_path, kind, text.format(steps),
                            f"uniform{n}_{steps}")["counters"]
            assert counters == {
                "fft_calls": 2, "fft_points": 2 * live,
                "ifft_calls": 2, "ifft_points": 2 * live,
                "fft_axis_points": 6 * live,
                "ifft_axis_points": 6 * live}, (text, steps)
    # A built-in packet starts as a one-helicity spectrum: observables
    # reads its k derivatives on the live k lines (the mode's one line
    # along each axis), synthesizes psi and 1/H psi from it (each one
    # three-component block) and takes three one-axis P_m pairs, and
    # evolve-free only synthesizes it at t.
    calls, derivatives = _momentum_derivative_transforms(
        states.plane_wave_mode(spec, (0, 0, 2)))
    assert (calls, derivatives) == (3, 3 * 3 * 1 * spec.n[0])
    assert _run(tmp_path, "observables", MINIMAL["observables"],
                "obs")["counters"] == {
        "fft_calls": 3 + calls, "fft_points": 3 * live + derivatives,
        "ifft_calls": 5 + calls, "ifft_points": 5 * live + derivatives,
        "fft_axis_points": 3 * live + derivatives,
        "ifft_axis_points": 9 * live + derivatives}
    assert _run(tmp_path, "evolve-free", MINIMAL["evolve-free"],
                "free")["counters"] == {
        "fft_calls": 0, "fft_points": 0, "ifft_calls": 1, "ifft_points": live,
        "fft_axis_points": 0, "ifft_axis_points": 3 * live}


# Built-in packets: [initial] text, and the spectrum it builds on cube(8)
# (the default sigma_k is 0.7).
BUILT_IN = {
    "gaussian+": ("packet = gaussian\nk_center = 2 1 0.5\n"
                  "r_center = 0.3 -0.2 0.1\n",
                  lambda spec: states.gaussian_packet_spectrum(
                      spec, (2.0, 1.0, 0.5), 0.7, 1, (0.3, -0.2, 0.1))),
    "gaussian-": ("packet = gaussian\nk_center = 2 1 0.5\nhelicity = -1\n",
                  lambda spec: states.gaussian_packet_spectrum(
                      spec, (2.0, 1.0, 0.5), 0.7, -1)),
    "mode": ("packet = mode\nk_index = 1 2 0\n",
             lambda spec: states.plane_wave_mode(spec, (1, 2, 0))),
}


@pytest.mark.parametrize("t", [0.5, -0.5])
@pytest.mark.parametrize("packet", list(BUILT_IN))
def test_evolve_free_synthesizes_a_built_in_packet_at_t(tmp_path, packet, t):
    # The final field is the spectrum's synthesis at t, which equals the
    # free propagation of its synthesis at 0; both conserved rows read the
    # one spectrum, and the run makes that one inverse transform.
    text, build = BUILT_IN[packet]
    run = _run(tmp_path, "evolve-free", GRID8 + "[initial]\n" + text
               + f"[physics]\ntime = {t}\n")
    assert (run["counters"]["fft_calls"], run["counters"]["ifft_calls"]) \
        == (0, 1)
    final = gridio.read_sixfield(tmp_path / "run" / "final_field.pwfn")
    expected = propagate_free(spectral.synthesize(build(cube(8))), t)
    assert rel_err(final.data, expected.data) <= 1e-13
    rows = [line.split(",") for line in (tmp_path / "run" / "conserved.csv")
            .read_text().strip().splitlines()[1:]]
    assert rows[0][2:7] == rows[1][2:7] and float(rows[1][7]) == 0.0


@pytest.mark.parametrize("packet", list(BUILT_IN))
def test_observables_of_a_built_in_packet_match_the_round_trip(tmp_path,
                                                               packet):
    # The decompose/synthesize round trip the run no longer makes, spelled
    # out with public functions, gives the same rows to roundoff.
    text, build = BUILT_IN[packet]
    run = _run(tmp_path, "observables", GRID8 + "[initial]\n" + text)
    # Every built-in packet has one helicity: one live block.
    calls, derivatives = _momentum_derivative_transforms(build(cube(8)))
    live = 3 * cube(8).npoints
    assert {key: run["counters"][key] for key in (
        "fft_calls", "ifft_calls", "fft_points", "ifft_points")} == {
        "fft_calls": 3 + calls, "ifft_calls": 5 + calls,
        "fft_points": 3 * live + derivatives,
        "ifft_points": 5 * live + derivatives}
    sp = spectral.decompose(spectral.synthesize(build(cube(8))))
    n_ph = metrics.photon_number(sp)
    sp.amp /= np.sqrt(n_ph)
    om = metrics.observables_momentum(sp)
    oc = metrics.observables_coordinate(spectral.synthesize(sp))
    old = {"photon_number": (n_ph, n_ph), "energy": (om.energy, oc.energy)}
    for i, ax in enumerate("xyz"):
        for name, attr in (("p", "momentum"), ("j", "angular_momentum"),
                           ("n", "moment_of_energy")):
            old[f"{name}_{ax}"] = (getattr(om, attr)[i], getattr(oc, attr)[i])
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in (tmp_path / "run" / "observables.csv").read_text()
            .strip().splitlines()[1:]}
    assert rows.keys() == old.keys()
    for col in range(2):
        assert rel_err([rows[q][col] for q in old],
                       [old[q][col] for q in old]) <= 1e-13


@pytest.mark.parametrize("initial", [
    "packet = gaussian\nk_center = 40 0 0\n",
    "packet = gaussian\nk_center = 1.5 0 0\nsigma_k = 0.01\n"])
@pytest.mark.parametrize("kind", [k for k in SCENARIO_KINDS
                                  if "initial" in SCHEMA[k]])
def test_cli_refuses_a_gaussian_with_no_amplitude_on_the_lattice(
        tmp_path, capsys, kind, initial):
    # Every lattice k lies so many sigma_k from k_center that the packet
    # has photon number 0: nothing to normalize, and nothing to run.
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n" + GRID8
                   + "[initial]\n" + initial)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert "[initial] k_center/sigma_k: photon number 0" \
        in capsys.readouterr().err
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("time", [1e308, -1e308])
@pytest.mark.parametrize("packet", ["gaussian", "mode", "vortex", "file"])
def test_cli_refuses_a_time_whose_phase_overflows(tmp_path, capsys, rng,
                                                  packet, time):
    # |k| t overflows to inf and the phases would be NaN; refused whether
    # the run synthesizes a spectrum at t or propagates a field.
    initial = f"packet = {packet}\n"
    if packet == "file":
        path = tmp_path / "in.pwfn"
        gridio.write_sixfield(path, random_field(cube(8), rng, kmax=2.0))
        initial = f"packet = file:{path}\n"
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario]\nkind = evolve-free\n" + GRID8
                   + f"[initial]\n{initial}[physics]\ntime = {time!r}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve-free", "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert "[physics] time:" in capsys.readouterr().err
    assert not caught
    assert not out.exists()


def test_medium_run_records_dc_energy_without_warning(tmp_path, capsys):
    text = GRID8.replace("8 8 8", "16 16 16") + """
[initial]
packet = gaussian
k_center = 2 1 0
sigma_k = 0.8
[physics]
dt = 0.01
steps = 20
eps_profile = cosine:2.0,0.3
mu_profile = cosine:1.0,0.2
"""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _run(tmp_path, "evolve-medium", text)
    assert capsys.readouterr().err == ""
    # the medium moved this share of the energy into k = 0
    assert 1e-6 < run["dc_energy_fraction"] < 1.1e-6
    final = gridio.read_sixfield(tmp_path / "run" / "final_field.pwfn")
    with pytest.warns(UserWarning, match="k = 0 energy fraction 1.026e-06"):
        spectral.decompose(final)


def test_cli_report_survives_header_bit_flips_and_truncation(tmp_path, rng):
    spec = spectral.GridSpec(n=(4, 4, 4), length=(1.0, 2.0, 3.0))
    psi = spectral.SixField(spec=spec, data=rng.normal(size=(2, 3, 4, 4, 4))
                            + 1j * rng.normal(size=(2, 3, 4, 4, 4)))
    path = tmp_path / "field.pwfn"
    gridio.write_sixfield(path, psi)
    back = gridio.read_sixfield(path)
    assert back.spec == spec and np.array_equal(back.data, psi.data)
    raw = path.read_bytes()
    header = gridio._HEADER.size
    assert header == 44
    variants = []
    for bit in range(8 * header):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        variants.append(bytes(flipped))
    variants += [raw[:size] for size in range(54)]
    bad = tmp_path / "bad.pwfn"
    codes = []
    for data in variants:
        bad.write_bytes(data)
        codes.append(main(["report", str(bad)]))
    # Only a flip of a box length can leave a valid header: 187 of its 192
    # bits do.  The three sign bits make a length negative, and the top
    # exponent bit turns 1.0 into inf and 2.0 into 0.  Every other flip and
    # every truncation is a format error.
    assert (codes.count(0), codes.count(5)) == (187, 219)


def test_benchmark_tracer_names_resolve():
    # The benchmark's tracer wraps these (module, attribute) pairs by name;
    # a renamed function would break its traced runs, not the untraced ones.
    tree = ast.parse((Path(__file__).parents[1] / "benchmark" / "tracer.py")
                     .read_text(encoding="utf-8"))
    functions = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets] == ["FUNCTIONS"])
    assert functions
    for module, attr in functions:
        owner = importlib.import_module(f"pwfn.{module}")
        if "." in attr:
            cls_name, member = attr.split(".")
            assert member in vars(getattr(owner, cls_name)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)
