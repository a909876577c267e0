import ast
import importlib
import json
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import pwfn
from pwfn import config, gridio, spectral
from pwfn.cli import main
from pwfn.config import SCENARIO_KINDS, SCHEMA, checked, load_scenario
from pwfn.evolve import propagate_free
from pwfn.errors import ConfigError, DomainError, FormatError
from conftest import cube, random_field

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

    # |k| dt = 4.1 passes the CFL guard but lies beyond RK4's imaginary-axis
    # limit 2 sqrt(2): the run blows up and is reported as unstable.
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
    for n, (kind, text, code, *needles) in enumerate([
            ("evolve-medium", medium + "dt = 0.785\nsteps = 400\n", 4,
             "non-finite"),
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
            ("boost-eigen", boost + "kappa = 1e300\n", 2, "[physics] kappa"),
            ("boost-eigen", boost + "z_min = 1e-160\nsamples = 3\n", 2,
             "[physics] z_min"),
            ("boost-eigen", boost + "z_min = 1e-310\nsamples = 3\n", 2,
             "[physics] z_min"),
            # exp(-k_perp z) underflows past k_perp z of about 745, and the
            # derivative moments overflow at tiny k_perp z
            ("boost-eigen", boost + "kx = 1000\n", 2, "[physics] z_max"),
            ("boost-eigen", boost + "kx = 1000\nz_min = 1e-155\nsamples = 3\n",
             2, "[physics] z_min"),
            # config values that solvers would refuse as preconditions
            ("evolve-medium", medium + "steps = 1\nscheme = split_step\n"
             "eps_profile = cosine:2.0,0.3\n", 2, "[physics] scheme",
             "uniform-speed"),
            ("boost-eigen", boost + "z_min = -1\n", 2, "[physics] z_min"),
            ("boost-eigen", boost + "kx = 0\nky = 0\n", 2,
             "[physics] kx/ky", "k_perp > 0"),
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


def test_cli_report_corrupt_file(tmp_path):
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


def _run(tmp_path, kind, text, name="run"):
    """Run a config through the CLI; returns the manifest's run record."""
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n" + text)
    out = tmp_path / name
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())["run"]


def test_manifest_counts_transforms(tmp_path, rng):
    spec = cube(8)
    field = tmp_path / "in.pwfn"
    gridio.write_sixfield(field, random_field(spec, rng, kmax=2.0))
    counters = _run(tmp_path, "commutators",
                    GRID8 + f"[initial]\npacket = file:{field}\n")["counters"]
    # Reading the file transforms nothing: these are the sweep's own.
    block = 6 * spec.npoints
    assert counters == {"fft_calls": 41, "fft_points": 41 * block,
                        "ifft_calls": 73, "ifft_points": 73 * block}
    # An RK4 step evaluates the right-hand side four times, and each
    # evaluation is one forward and one inverse block transform.
    medium = MINIMAL["evolve-medium"] + "[physics]\ndt = 0.01\nsteps = {}\n"
    short, long = (_run(tmp_path, "evolve-medium", medium.format(steps),
                        f"steps{steps}")["counters"] for steps in (2, 5))
    rhs = 4 * (5 - 2)
    assert {key: long[key] - short[key] for key in long} == {
        "fft_calls": rhs, "fft_points": rhs * block,
        "ifft_calls": rhs, "ifft_points": rhs * block}


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
