"""Scenario configuration: a small INI dialect parsed with configparser.

Sections: [scenario] (kind), [grid] (n, length), [initial] (named packet or
input file), [physics] (solver parameters), [output] (artifact file names,
optional SI scaling factors).  Vectors are whitespace separated.  Parse
errors carry line numbers via configparser; semantic errors name the
offending key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PwfnError
from .spectral import GridSpec

__all__ = ["Scenario", "load_scenario", "SCENARIO_KINDS"]

SCENARIO_KINDS = (
    "evolve-free", "evolve-medium", "evolve-curved", "fiber-modes",
    "boost-eigen", "wigner", "hydro", "observables", "commutators",
)


@dataclass
class Scenario:
    kind: str
    grid: GridSpec | None
    initial: dict
    physics: dict
    output: dict
    path: str = ""


def parse_list(key, text, count=None, kind=float):
    """Whitespace- or comma-separated values of type kind; errors name key."""
    try:
        vals = [kind(v) for v in text.replace(",", " ").split()]
    except ValueError:
        vals = None
    if vals is None or count not in (None, len(vals)):
        what = f"{count or 'some'} {kind.__name__} value(s)"
        raise ConfigError(f"key {key!r} needs {what}, got {text!r}")
    return vals


def load_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if not parser.has_section("scenario") or not parser.has_option("scenario", "kind"):
        raise ConfigError("config needs [scenario] kind = <name>")
    kind = parser.get("scenario", "kind").strip()
    if kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}; "
                          f"choose from {', '.join(SCENARIO_KINDS)}")

    grid = None
    if parser.has_section("grid"):
        try:
            n = parse_list("n", parser.get("grid", "n"), 3, int)
            length = parse_list("length", parser.get("grid", "length"), 3)
            grid = GridSpec(n=tuple(n), length=tuple(length))
        except (configparser.NoOptionError, PwfnError) as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from exc
    elif kind not in ("fiber-modes", "boost-eigen"):
        raise ConfigError(f"scenario {kind!r} requires a [grid] section")

    def section(name):
        return dict(parser.items(name)) if parser.has_section(name) else {}

    return Scenario(kind=kind, grid=grid, initial=section("initial"),
                    physics=section("physics"), output=section("output"),
                    path=str(path))


def parse_vector(d, key, default=None, count=3):
    if key not in d:
        if default is None:
            raise ConfigError(f"missing key {key!r}")
        return np.asarray(default, dtype=float)
    return np.asarray(parse_list(key, d[key], count), dtype=float)


def _scalar(d, key, default, kind):
    if key not in d and default is None:
        raise ConfigError(f"missing key {key!r}")
    return parse_list(key, str(d.get(key, default)), 1, kind)[0]


def parse_float(d, key, default=None):
    return _scalar(d, key, default, float)


def parse_int(d, key, default=None):
    return _scalar(d, key, default, int)
