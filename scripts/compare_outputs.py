"""Compare the outputs of two source trees of pwfn.

    python scripts/compare_outputs.py PARENT [CHANGE]

PARENT and CHANGE are checkouts (each holding ``src/`` and ``tests/``);
CHANGE defaults to the tree this script sits in.  Both run the nine
``MINIMAL`` configs of CHANGE's ``tests/test_io_cli.py`` through the CLI,
plus an ``evolve-medium`` run in cosine eps and mu (``EXTRA``) and an
``observables`` run of a Gaussian packet on ``16^3`` (``OWN``), and
``pytest -s tests/test_acceptance.py`` from their own tests.  Printed,
one line each: every CSV value, ``.pwfn`` payload, manifest counter and
acceptance ``check(...)`` line that differs, with its relative change (a
CSV value's relative to the largest |value| of its row, a check's to its
own size).
Runtime checks and the wall-clock fields of manifests are not compared.
Each tree runs in its own processes, with ``PYTHONPATH`` set to its
``src``; nothing is installed.  Exits 1 if a run fails, if a printed
``[PASS]``/``[FAIL]`` line does not parse, or if the two trees print
different check labels; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
# A check line, found anywhere on its line (under ``pytest -s -q`` the
# previous test's progress dot precedes the first line a test prints): a
# label with its value and bound, or a label alone.
MARK = re.compile(r"\[(?:PASS|FAIL)\] ")
CHECK = re.compile(MARK.pattern + r"(.+?): (\S+) \((?:<=|>=) \S+\)$")
LABEL = re.compile(MARK.pattern + r"([^:]+)$")

# Runs beyond MINIMAL, name: (kind, text added to MINIMAL[kind]).  Every
# MINIMAL medium is uniform; this one varies eps and mu, so its runs step
# the varying-medium right-hand side and the helicity coupling.
EXTRA = {"evolve-medium-cosine": ("evolve-medium", "[physics]\nsteps = 20\n"
                                  "eps_profile = cosine:1.0,0.15\n"
                                  "mu_profile = cosine:1.0,-0.1\n")}
# Runs with configs of their own, name: (kind, config text).  The MINIMAL
# mode packet occupies one k line per axis; this Gaussian, off every axis,
# carries amplitude on about 40% of the lines along each axis, so the
# momentum observables drop the others.
OWN = {"observables-gaussian": ("observables", "[grid]\nn = 16 16 16\n"
                                "length = 6.283185307179586 "
                                "6.283185307179586 6.283185307179586\n"
                                "[initial]\npacket = gaussian\n"
                                "k_center = 2.0 -1.5 1.0\nsigma_k = 0.7\n"
                                "helicity = -1\nr_center = 0.3 -0.6 0.8\n")}


def _env(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def _configs(tree):
    """{name: (kind, text)}: the MINIMAL configs, imported from tree's CLI
    tests, each named by its kind, and those of EXTRA and OWN."""
    sys.path[:0] = [str(tree / "tests"), str(tree / "src")]
    try:
        import test_io_cli
    finally:
        del sys.path[:2]
    minimal = test_io_cli.MINIMAL
    return {**{kind: (kind, text) for kind, text in minimal.items()},
            **{name: (kind, minimal[kind] + text)
               for name, (kind, text) in EXTRA.items()}, **OWN}


def _run_configs(tree, configs, work):
    """Run each config through tree's CLI into work/NAME; returns failures."""
    failed = []
    for name, (kind, text) in configs.items():
        cfg = work / f"{name}.ini"
        cfg.write_text(f"[scenario]\nkind = {kind}\n" + text)
        done = subprocess.run(
            [sys.executable, "-m", "pwfn.cli", kind, "--config", str(cfg),
             "--out", str(work / name)], env=_env(tree),
            capture_output=True, text=True)
        if done.returncode:
            failed.append(f"{tree}: {name} exited {done.returncode}: "
                          f"{done.stderr.strip()}")
    return failed


def parse_checks(text):
    """({label: value}, [lines]) of a printout: the value of each check
    (None for a label alone), runtimes left out, and each check line that
    does not parse."""
    found, unparsed = {}, []
    for line in map(str.strip, text.splitlines()):
        valued, bare = CHECK.search(line), LABEL.search(line)
        if valued and _number(valued.group(2)) is not None:
            label, value = valued.group(1), _number(valued.group(2))
        elif bare:
            label, value = bare.group(1), None
        else:
            if MARK.search(line):
                unparsed.append(line)
            continue
        if "runtime" not in label:
            found[label] = value
    return found, unparsed


def _checks(tree):
    """(checks, unparsed, exit code) of tree's acceptance printout."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"], cwd=tree, env=_env(tree),
        capture_output=True, text=True)
    found, unparsed = parse_checks(done.stdout)
    return found, unparsed, done.returncode


def _relative(old, new, scale=None):
    """|new - old| / scale, by default max(|old|, |new|)."""
    if old == new:
        return 0.0
    scale = max(abs(old), abs(new)) if scale is None else scale
    return abs(new - old) / scale if scale else float("inf")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(name, old_path, new_path):
    old = [line.split(",") for line in old_path.read_text().splitlines()]
    new = [line.split(",") for line in new_path.read_text().splitlines()]
    if len(old) != len(new) or old[:1] != new[:1]:
        yield f"{name}: header or row count differs"
        return
    header = old[0]
    for row, (row_old, row_new) in enumerate(zip(old[1:], new[1:]), 1):
        # a row is named by its number and its leading text cells
        label = " ".join([str(row)] + [cell for cell in row_old[:2]
                                       if _number(cell) is None])
        # a CSV column has no scale of its own: a change is relative to the
        # largest |value| of its row on either side
        scale = max((abs(x) for x in map(_number, row_old + row_new)
                     if x is not None and np.isfinite(x)), default=0.0)
        for col, (a, b) in enumerate(zip(row_old, row_new)):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            change = ("" if x is None or y is None
                      else f" (relative {_relative(x, y, scale):.3e})")
            yield f"{name} [{label}, {header[col]}]: {a} -> {b}{change}"


def _compare_field(name, old_path, new_path):
    if old_path.read_bytes() == new_path.read_bytes():
        return
    sys.path.insert(0, str(HERE / "src"))
    try:
        from pwfn.gridio import read_grid_field
    finally:
        del sys.path[0]
    (_, a), (_, b) = read_grid_field(old_path), read_grid_field(new_path)
    if a.shape != b.shape:
        yield f"{name}: payload shape {a.shape} -> {b.shape}"
        return
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    worst = np.max(np.abs(a - b)) / scale if scale else 0.0
    differ = np.count_nonzero(a.view(float) != b.view(float))
    yield (f"{name}: {differ} of {2 * a.size} payload numbers differ, "
           f"max |change| / max |value| {worst:.3e}")


def _compare_counters(name, old_path, new_path):
    old = json.loads(old_path.read_text())["run"].get("counters", {})
    new = json.loads(new_path.read_text())["run"].get("counters", {})
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            yield f"{name} counters.{key}: {old.get(key)} -> {new.get(key)}"


def compare(parent, change):
    configs = _configs(change)
    lines, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        work = {}
        for side, tree in (("parent", parent), ("change", change)):
            work[side] = Path(tmp) / side
            work[side].mkdir()
            failed += _run_configs(tree, configs, work[side])
        for run in configs:
            old_dir, new_dir = work["parent"] / run, work["change"] / run
            if not (old_dir.is_dir() and new_dir.is_dir()):
                continue
            for old_path in sorted(old_dir.iterdir()):
                new_path = new_dir / old_path.name
                name = f"{run}/{old_path.name}"
                if not new_path.exists():
                    lines.append(f"{name}: missing in the change")
                elif old_path.suffix == ".csv":
                    lines += _compare_csv(name, old_path, new_path)
                elif old_path.suffix == ".pwfn":
                    lines += _compare_field(name, old_path, new_path)
                elif old_path.name == "manifest.json":
                    lines += _compare_counters(name, old_path, new_path)
    checks = []
    for tree in (parent, change):
        found, unparsed, code = _checks(tree)
        checks.append(found)
        failed += [f"{tree}: unparsed check line {line!r}"
                   for line in unparsed]
        if code:
            failed.append(f"{tree}: acceptance suite exited {code}")
    old_checks, new_checks = checks
    for label in sorted(set(old_checks) ^ set(new_checks)):
        failed.append(f"check {label!r} is printed by one tree only")
    for label in sorted(set(old_checks) | set(new_checks)):
        a, b = old_checks.get(label), new_checks.get(label)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"check {label!r}: {a} -> {b}")
        else:
            lines.append(f"check {label!r}: {a:.3e} -> {b:.3e} "
                         f"(relative {_relative(a, b):.3e})")
    return lines, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=HERE)
    args = parser.parse_args(argv)
    lines, failed = compare(args.parent.resolve(), args.change.resolve())
    for line in lines:
        print(line)
    print(f"{len(lines)} differing values")
    for line in failed:
        print("FAILED:", line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
