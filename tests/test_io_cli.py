import json
import struct
import warnings

import numpy as np
import pytest

import pwfn
from pwfn import gridio, spectral
from pwfn.cli import main
from pwfn.evolve import propagate_free
from pwfn.errors import FormatError
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


def test_cli_exit_codes(tmp_path, capsys):
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
    # Python traceback.
    bad_index = medium.replace("k_index = 3 3 3", "k_index = 0 0 x")
    for n, (text, code, key) in enumerate([
            (medium + "dt = 0.785\nsteps = 400\n", 4, "non-finite"),
            (medium + "dt = nan\nsteps = 2\n", 2, "dt"),
            (medium + "dt = 0.01\nsteps = -3\n", 2, "steps"),
            (medium + "steps = 1\neps_profile = cosine:1.0\n", 2,
             "eps_profile"),
            (medium + "steps = 1\nmu_profile = uniform:abc\n", 2,
             "mu_profile"),
            # values that parse but are out of range
            (medium + "steps = 1\neps_profile = cosine:1.0,2.0\n", 2,
             "eps_profile"),
            (medium + "steps = 1\nmu_profile = uniform:-1\n", 2,
             "mu_profile"),
            (bad_index + "steps = 1\n", 2, "k_index")]):
        case = tmp_path / f"case{n}.ini"
        case.write_text(text)
        out = tmp_path / f"case{n}_out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evolve-medium", "--config", str(case),
                         "--out", str(out)]) == code, text
        err = capsys.readouterr().err
        assert key in err, text
        # A blow-up is reported once, as the stability error.
        assert "RuntimeWarning" not in err, text
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], text
        assert not (out / "final_field.pwfn").exists()

    curved = medium.replace("evolve-medium", "evolve-curved")
    output = FREE_CONFIG + "\n[output]\nhbar_si = 1.0e-34x\n"
    for kind, text, key in [
            ("evolve-curved", curved + "metric = conformal:abc\n", "metric"),
            ("evolve-curved", curved + "metric = conformal:\n", "metric"),
            ("evolve-curved", curved + "metric = conformal:0\n", "metric"),
            ("evolve-free", FREE_CONFIG.replace("time = 0.5", "time = inf"),
             "time"),
            ("observables", output.replace("evolve-free", "observables"),
             "hbar_si")]:
        case = tmp_path / f"{kind}_{key}.ini"
        case.write_text(text)
        capsys.readouterr()
        assert main([kind, "--config", str(case),
                     "--out", str(tmp_path / f"{kind}_{key}_out")]) == 2, text
        assert key in capsys.readouterr().err, text


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
