"""Scenario configuration: one declared schema for the INI files.

``SCHEMA`` maps each scenario kind to its sections ([scenario], [grid],
[initial], [physics], [output]) and each section to its keys: parser,
default and, where no library constructor checks the value, domain.  Keys
are named after the library arguments they feed.  ``load_scenario``
resolves every key once; a section or key the kind does not declare is a
ConfigError that names it, as is every malformed, non-finite or
out-of-domain value.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ConfigError, DomainError
from .spectral import GridSpec

__all__ = ["Scenario", "Key", "load_scenario", "SCHEMA", "SCENARIO_KINDS",
           "parse_list", "checked"]


def parse_list(key, text, count=None, kind=float):
    """Whitespace- or comma-separated finite values of type kind; errors
    name key."""
    try:
        vals = [kind(v) for v in text.replace(",", " ").split()]
        # an int past the float range is not finite: isfinite overflows
        finite = all(map(math.isfinite, vals))
    except (ValueError, OverflowError):
        vals, finite = None, False
    if not finite or count not in (None, len(vals)):
        what = f"{count or 'some'} finite {kind.__name__} value(s)"
        raise ConfigError(f"{key}: needs {what}, got {text!r}")
    return vals


def checked(section, make, *args, keys=None, **kwargs):
    """make(*args, **kwargs), with a DomainError turned into a ConfigError.

    The message names the [section] key behind the argument at fault:
    keys maps the constructor's argument names (None for an error that
    names none) to config keys; unmapped arguments are their own keys, and
    an error that names no mapped key names the section only.
    """
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        key = (keys or {}).get(exc.arg, exc.arg)
        where = f"[{section}] {key}" if key else f"[{section}]"
        raise ConfigError(f"{where}: {exc}") from exc


class Key(NamedTuple):
    """parse(key, text) -> value; default: a value, a function of the values
    resolved so far, or None if required; domain: (test(value, values
    resolved so far), what it asks), for values nothing else checks.
    Numeric parsers carry their .kind and .count, NAME[:ARGS] parsers
    their .forms."""

    parse: Callable
    default: object = None
    domain: tuple | None = None


def _numbers(kind, count=1):
    def parse(key, text):
        vals = parse_list(key, text, count, kind)
        return vals[0] if count == 1 else tuple(vals)
    parse.kind, parse.count = kind, count
    return parse


def _tagged(**forms):
    """Parser of NAME[:ARGS]; forms maps NAME to its count of ARGS and the
    ARGS text that an omitted ARGS stands for."""
    def parse(key, text):
        name, colon, args = text.partition(":")
        if name not in forms or (colon and not forms[name][0]):
            raise ConfigError(f"{key}: takes {' or '.join(forms)}, "
                              f"got {text!r}")
        count, default = forms[name]
        return (name, *parse_list(key, args or default, count)) if count \
            else (name,)
    parse.forms = forms
    return parse


def _text(key, text):
    return text


_FLOAT, _INT, _VEC3 = _numbers(float), _numbers(int), _numbers(float, 3)
_GRID = {"n": Key(_numbers(int, 3)), "length": Key(_VEC3)}
_PACKET = Key(_text, "gaussian")
_HELICITY = Key(_INT, 1)
_PACKETS = {  # [initial] keys per packet family
    "gaussian": {"k_center": Key(_VEC3, (3.0, 0.0, 0.0)),
                 "sigma_k": Key(_FLOAT, 0.7), "helicity": _HELICITY,
                 "r_center": Key(_VEC3, (0.0, 0.0, 0.0))},
    "mode": {"k_index": Key(_numbers(int, 3), (0, 0, 2)),
             "helicity": _HELICITY},
    "vortex": {"core_xy": Key(_numbers(float, 2), (0.0, 0.0)),
               "k_z_index": Key(_INT, 2), "transverse_k_index": Key(_INT, 1)},
    "file": {},
}
_STEPPER = {"dt": Key(_FLOAT, 0.01),
            "steps": Key(_INT, 100, (lambda v, c: v >= 0, ">= 0")),
            "cfl_safety": Key(_FLOAT, 0.5)}
_POSITIVE = (lambda v, c: v > 0, "> 0")
_PROFILE = Key(_tagged(uniform=(1, "1"), cosine=(2, "")), ("uniform", 1.0))
# K_{i kappa}(x) ~ exp(-pi |kappa| / 2), about 2e-14 at |kappa| = 20, nears
# the roundoff of the Macdonald trapezoidal sum, about 2e-15 of the
# integrand's scale exp(-x) at small x, so a larger kappa gives a profile
# of roundoff.
_KAPPA = Key(_FLOAT, 1.0, (lambda v, c: abs(v) <= 20.0, "in [-20, 20]"))


def _files(summary, field=None):
    files = {"summary": Key(_text, summary)}
    if field:
        files["field"] = Key(_text, field)
    return files


# kind -> section -> key -> Key.  [initial] holds the packet's keys, per
# packet family; a kind with an [initial] section needs a [grid].
SCHEMA = {
    "evolve-free": {
        "grid": _GRID, "initial": _PACKETS,
        "physics": {"time": Key(_FLOAT, 1.0)},
        "output": _files("conserved.csv", "final_field.pwfn")},
    "evolve-medium": {
        "grid": _GRID, "initial": _PACKETS,
        "physics": {**_STEPPER, "scheme": Key(_text, "rk4"),
                    "eps_profile": _PROFILE, "mu_profile": _PROFILE},
        "output": _files("conserved.csv", "final_field.pwfn")},
    "evolve-curved": {
        "grid": _GRID, "initial": _PACKETS,
        "physics": {**_STEPPER, "metric": Key(_tagged(
            minkowski=(0, ""), conformal=(1, "")), ("minkowski",))},
        "output": _files("conserved.csv", "final_field.pwfn")},
    "fiber-modes": {
        "grid": _GRID,
        "physics": {"radius": Key(_FLOAT, 1.0), "eps_in": Key(_FLOAT, 2.25),
                    "eps_out": Key(_FLOAT, 1.0), "m_angular": Key(_INT, 0),
                    "k_z": Key(_FLOAT, 5.0),
                    "max_modes": Key(_INT, 8, (lambda v, c: v >= 1, ">= 1"))},
        "output": _files("fiber_modes.csv", "fiber_mode.pwfn")},
    "boost-eigen": {
        "physics": {"kappa": _KAPPA, "kx": Key(_FLOAT, 1.0),
                    "ky": Key(_FLOAT, 0.0),
                    "z_min": Key(_FLOAT, 0.1, _POSITIVE),
                    "z_max": Key(_FLOAT, 5.0, _POSITIVE),
                    "samples": Key(_INT, 64, (lambda v, c: v >= 2, ">= 2"))},
        "output": _files("boost_profile.csv")},
    "wigner": {
        "grid": _GRID, "initial": _PACKETS,
        "output": _files("wigner_summary.csv", "wigner_trace.pwfn")},
    "hydro": {
        "grid": _GRID, "initial": _PACKETS,
        "physics": {
            "surface_axis": Key(_INT, 2,
                                (lambda v, c: v in (0, 1, 2), "0, 1 or 2")),
            "surface_index": Key(
                _INT, lambda c: c["grid"].n[c["surface_axis"]] // 2,
                (lambda v, c: 0 <= v < c["grid"].n[c["surface_axis"]],
                 "in 0..n[surface_axis] - 1"))},
        "output": _files("hydro_summary.csv", "hydro_rho.pwfn")},
    "observables": {
        "grid": _GRID, "initial": _PACKETS,
        "output": {**_files("observables.csv"),
                   "hbar_si": Key(_FLOAT, 1.0), "c_si": Key(_FLOAT, 1.0)}},
    "commutators": {
        "grid": _GRID, "initial": _PACKETS,
        "output": _files("commutators.csv")},
}
SCENARIO_KINDS = tuple(SCHEMA)


@dataclass
class Scenario:
    """A resolved scenario: every declared key holds a typed value."""

    kind: str
    grid: GridSpec | None
    initial: dict
    physics: dict
    output: dict

    def resolved(self) -> dict:
        """Section -> key -> value of every declared key, defaults applied."""
        record = {"scenario": {"kind": self.kind}, **{
            s: getattr(self, s) for s in SCHEMA[self.kind] if s != "grid"}}
        if self.grid is not None:
            record["grid"] = {"n": self.grid.n, "length": self.grid.length}
        return record


def _hint(word, choices):
    close = difflib.get_close_matches(word, choices, n=1)
    return f"; did you mean {close[0]}?" if close else ""


def _resolve(section, declared, given, ctx, owner):
    """Typed values of every declared key of one section, given or default."""
    for name in given:
        if name not in declared:
            raise ConfigError(
                f"[{section}] {name} is not a key of {owner} (it takes "
                f"{', '.join(declared) or 'no keys'}){_hint(name, declared)}")
    values = {}
    for name, key in declared.items():
        if name in given:
            try:
                value = key.parse(name, given[name])
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
        elif key.default is None:
            raise ConfigError(f"[{section}] missing key {name!r}")
        else:
            value = key.default(ctx | values) if callable(key.default) \
                else key.default
        if key.domain and not key.domain[0](value, ctx | values):
            raise ConfigError(f"[{section}] {name} must be {key.domain[1]}, "
                              f"got {value!r}")
        values[name] = value
    return values


def load_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if not parser.has_option("scenario", "kind"):
        raise ConfigError("config needs [scenario] kind = <name>")
    kind = parser.get("scenario", "kind").strip()
    if kind not in SCHEMA:
        raise ConfigError(f"unknown scenario kind {kind!r}; "
                          f"choose from {', '.join(SCENARIO_KINDS)}")
    schema = SCHEMA[kind]
    given = {name: dict(parser.items(name)) for name in parser.sections()}
    sections = ("scenario", *schema)
    for name in given:
        if name not in sections:
            raise ConfigError(
                f"[{name}] is not a section of {kind} (it takes "
                f"{', '.join(sections)}){_hint(name, sections)}")
    _resolve("scenario", {"kind": Key(_text)}, given["scenario"], {}, kind)

    grid = None
    if "grid" in given:
        dims = _resolve("grid", _GRID, given["grid"], {}, kind)
        grid = checked("grid", GridSpec, **dims)
    elif "initial" in schema:
        raise ConfigError(f"scenario {kind!r} requires a [grid] section")

    initial = {}
    if "initial" in schema:
        given_initial = given.get("initial", {})
        packet = given_initial.get("packet", _PACKET.default)
        family = "file" if packet.startswith("file:") else packet
        if family not in _PACKETS:
            raise ConfigError(f"[initial] packet must be gaussian, mode, "
                              f"vortex or file:PATH, got {packet!r}")
        initial = _resolve("initial", {"packet": _PACKET, **_PACKETS[family]},
                           given_initial, {}, f"{kind} with packet = {family}")
    ctx = {"grid": grid}
    physics = _resolve("physics", schema.get("physics", {}),
                       given.get("physics", {}), ctx, kind)
    output = _resolve("output", schema["output"], given.get("output", {}),
                      ctx, kind)
    return Scenario(kind=kind, grid=grid, initial=initial, physics=physics,
                    output=output)
