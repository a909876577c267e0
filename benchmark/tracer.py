"""Span tracer that wraps pwfn's public functions from outside the package.

``Tracer.install`` replaces every binding of the functions in ``FUNCTIONS``
that a caller looks up: the module attribute itself and every ``from x
import f`` copy held by another ``pwfn`` module (``metrics`` and ``evolve``
import ``to_k``/``to_r`` by name, for example).  Class members are replaced
on the class.  ``Tracer.uninstall`` puts the originals back, so untraced
rounds run the unmodified package.

A wrapper records a span only while ``Tracer.job`` is open; output checks
and input generation call the same functions untraced.  A span holds its
name, start, end, parent span index and job id.  Spans stay in memory and
``dump`` writes them once.  Self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute) pairs; "Class.method" wraps a class member.
FUNCTIONS = [
    ("cli", "run_scenario"),
    ("config", "load_scenario"),
    ("gridio", "write_grid_field"),
    ("gridio", "read_grid_field"),
    ("gridio", "write_csv"),
    ("gridio", "write_manifest"),
    ("gridio", "file_sha256"),
    ("spectral", "to_k"),
    ("spectral", "to_r"),
    ("spectral", "triad_arrays"),
    ("spectral", "decompose"),
    ("spectral", "synthesize"),
    ("spectral", "berry_connection_grid"),
    ("spectral", "GridSpec.k_grid"),
    ("spectral", "GridSpec.k_grid_diff"),
    ("spectral", "GridSpec.k_norm"),
    ("spectral", "GridSpec.checkerboard"),
    ("spectral", "GridSpec.coords"),
    ("metrics", "generator_apply"),
    ("metrics", "commutator_residual"),
    ("metrics", "expected_commutator"),
    ("metrics", "observables_momentum"),
    ("metrics", "observables_coordinate"),
    ("metrics", "inverse_hamiltonian_apply"),
    ("evolve", "propagate_free"),
    ("evolve", "free_generator"),
    ("evolve", "hamiltonian_apply"),
    ("evolve", "step_medium"),
    ("evolve", "MediumMap.__init__"),
    ("geometry", "step_curved"),
    ("geometry", "curved_generator"),
    ("geometry", "g_from_f"),
    ("geometry", "f_from_g"),
    ("phasespace", "wigner_build"),
    ("phasespace", "wigner_decompose"),
    ("phasespace", "wigner_subsidiary_residual"),
    ("phasespace", "hydro_from_field"),
    ("phasespace", "hydro_identity_residuals"),
    ("phasespace", "quantization_integral"),
    ("eigen", "fiber_modes"),
    ("eigen", "fiber_matching_determinant"),
    ("eigen", "boost_eigenfunction"),
    ("eigen", "macdonald_imag_moment"),
    ("states", "gaussian_packet"),
    ("states", "vortex_field"),
]

GENERATOR_FAMILIES = ("H", "P", "J", "K")
# Per-grid tables: each call is one build attempt on the grid it is given.
TABLES = {"triad_arrays", "berry_connection_grid", "GridSpec.k_grid",
          "GridSpec.k_grid_diff", "GridSpec.k_norm", "GridSpec.checkerboard",
          "GridSpec.coords"}
TRANSFORMS = {"to_k", "to_r"}
WRITERS = {"write_grid_field", "write_csv", "write_manifest"}
READERS = {"read_grid_field", "file_sha256"}


def span_name(module, attr):
    if attr.endswith(".__init__"):
        return f"{module}.{attr[:-len('.__init__')]}"
    return f"{module}.{attr}"


def span_names():
    names = []
    for module, attr in FUNCTIONS:
        if attr == "generator_apply":
            names += [f"metrics.generator_apply.{f}" for f in GENERATOR_FAMILIES]
        else:
            names.append(span_name(module, attr))
    return names


# Counters besides the per-span calls and self times: name -> unit.
COUNTERS = {
    "gridio.bytes_written": "B",
    "gridio.bytes_read": "B",
    "spectral.fft.points": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.job_self_s = defaultdict(float)
        self.job_id = None
        self.rounds = 0
        self._stack = []
        self._patches = []
        self._table_pairs = set()
        self._distinct_tables = 0
        self._table_builds = 0
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self, modules):
        """Wrap FUNCTIONS; ``modules`` maps short names to pwfn modules."""
        for module, attr in FUNCTIONS:
            owner = modules[module]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[member]
                self._patch(cls, member, self._wrap(orig, name, attr))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, attr)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, fn, name, attr):
        tracer = self
        table = attr in TABLES
        transform = attr in TRANSFORMS
        io_counter = ("gridio.bytes_written" if attr in WRITERS else
                      "gridio.bytes_read" if attr in READERS else None)
        family = attr == "generator_apply"

        def wrapper(*args, **kwargs):
            if tracer.job_id is None:
                return fn(*args, **kwargs)
            label = f"{name}.{args[0].family}" if family else name
            result = tracer._span(label, fn, args, kwargs)
            if table:
                tracer._table_builds += 1
                tracer._table_pairs.add((attr, args[0]))
            if transform:
                tracer.counters["spectral.fft.points"] += int(args[1].size)
            if io_counter:
                tracer.counters[io_counter] += os.path.getsize(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.spans[index] = (name, start - self._t0, end - self._t0,
                                 parent, self.job_id)
            self.calls[name] += 1
            own = duration - frame[1]
            self.self_s[name] += own
            self.job_self_s[self.job_id] += own
            if stack:
                stack[-1][1] += duration

    @contextmanager
    def job(self, job_id):
        self.job_id = job_id
        try:
            yield
        finally:
            self.job_id = None

    def end_round(self):
        self.rounds += 1
        self._distinct_tables += len(self._table_pairs)
        self._table_pairs = set()

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per traced round: calls and self time per span, plus counters."""
        rounds = max(self.rounds, 1)
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counters[name] / rounds, unit)
        reuse = (self._distinct_tables / self._table_builds
                 if self._table_builds else 1.0)
        out["spectral.tables.reuse_ratio"] = (reuse, "ratio")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
