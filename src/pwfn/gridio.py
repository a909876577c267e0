"""Binary grid-field format, CSV emitters and the run manifest.

Grid file layout (little endian):

    magic   4 bytes  b"PWFN"
    version u16      currently 1
    dims    3 x u32  points per axis
    box     3 x f64  edge lengths
    comps   u16      number of complex components, >= 1 (6 for a six-field)
    payload comps * nx * ny * nz complex128 (an interleaved (re, im) f64
            pair each), component-major, row major with z fastest

The payload size must match the header exactly; reads refuse unknown magic,
versions, no components, or truncated payloads.  Writes are deterministic,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import resource
import struct
import time

import numpy as np

from . import __version__
from .errors import DomainError, FormatError
from .spectral import GridSpec, SixField

__all__ = [
    "GRID_MAGIC", "GRID_VERSION",
    "write_grid_field", "read_grid_field", "write_sixfield", "read_sixfield",
    "write_csv", "file_sha256", "write_manifest",
]

GRID_MAGIC = b"PWFN"
GRID_VERSION = 1
_HEADER = struct.Struct("<4sH3I3dH")


def write_grid_field(path, spec: GridSpec, data) -> None:
    """Write complex components (ncomp, nx, ny, nz) to the binary format."""
    data = np.ascontiguousarray(data, dtype="<c16")
    if data.ndim != 4 or data.shape[1:] != spec.n or not data.shape[0]:
        raise FormatError(f"payload shape {data.shape} does not match grid {spec.n}")
    ncomp = data.shape[0]
    header = _HEADER.pack(GRID_MAGIC, GRID_VERSION, *spec.n, *spec.length, ncomp)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_grid_field(path):
    """Read a binary grid file; returns (GridSpec, data (ncomp, nx, ny, nz))."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: truncated header "
                              f"({len(raw)} of {_HEADER.size} bytes)")
        magic, version, nx, ny, nz, lx, ly, lz, ncomp = _HEADER.unpack(raw)
        if magic != GRID_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != GRID_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if not ncomp:
            raise FormatError(f"{path}: no components")
        expected = ncomp * nx * ny * nz * 16
        payload = fh.read()
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    try:
        spec = GridSpec(n=(nx, ny, nz), length=(lx, ly, lz))
    except DomainError as exc:
        raise FormatError(f"{path}: bad grid header: {exc}") from exc
    # Read as complex128, not rebuilt as re + 1j * im: that would turn an
    # infinite imaginary part's real part into nan and -0.0 into +0.0.
    data = np.frombuffer(payload, dtype="<c16").reshape(ncomp, nx, ny, nz)
    return spec, data.astype(complex)


def write_sixfield(path, field: SixField) -> None:
    write_grid_field(path, field.spec, field.data.reshape((6,) + field.spec.n))


def read_sixfield(path) -> SixField:
    spec, data = read_grid_field(path)
    if data.shape[0] != 6:
        raise FormatError(f"{path}: expected 6 components, found {data.shape[0]}")
    return SixField(spec=spec, data=data.reshape((2, 3) + spec.n))


def write_csv(path, header, rows) -> None:
    """Plain deterministic CSV (no quoting; numeric repr via repr())."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, (np.complexfloating,)):
        v = complex(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j".replace("+-", "-")
    return str(v)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, config_path, outputs, resolved, started,
                   extra=None) -> None:
    """JSON run manifest: input hash, every resolved config value (defaults
    applied), output hashes, versions, wall time, and the process's peak
    resident memory so far (ru_maxrss; for a CLI process, the run's peak).
    Neither of the last two is part of a run's reproducible record."""
    import scipy

    manifest = {
        "config": str(config_path),
        "config_sha256": file_sha256(config_path),
        "outputs": {str(p): file_sha256(p) for p in outputs},
        "resolved": resolved,
        "versions": {
            "pwfn": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": time.monotonic() - started,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if extra:
        manifest["run"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
