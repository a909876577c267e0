"""Scenario benchmark for pwfn: end-to-end job times and a traced per-layer run.

Usage, from the repository root:

    python3 benchmark/run.py --workload algebra|evolve|survey --seed N \
        --seconds S --trace 0|1

The benchmark drives pwfn as a user does: one process, one client, one FFT
worker (the CLI default), calling ``pwfn.cli.run_scenario`` on INI configs
and ``.pwfn`` fields that ``workloads.py`` generates from the seed, plus one
library call the CLI cannot express.  Jobs run closed loop, one after the
other.  A workload is a fixed list of rounds; a round is a fixed job list.
The run starts no round that would end after ``--seconds``, judged by the
median round so far, and always runs at least one (one traced, with
``--trace 1``).

A shared cloud host can change pace by up to a factor of two for tens of
seconds at a time, for interpreter, array and FFT work alike, with
CPU time rising as wall time does (measured on a 2-vCPU Xeon VM).  So the
end-to-end times are scaled to a nominal host pace.  ``HostPace`` times a
fixed mix of that work, which calls no pwfn code, between set-up steps and
between jobs, one sample per second of set-up or job time, so the samples
weigh each phase by its length.  Set-up seconds and round seconds are
multiplied by ``PACE_NOMINAL_S`` over the median of the samples taken in
set-up or in the timed rounds.  A change to pwfn moves the scaled time as
it moves the raw time; a change of host pace moves only the raw time.  The
raw seconds and the paces are printed in the run record.  ``peak_rss_mb``
includes the pace's buffers, about 25 MB on every commit.

Set-up (imports, input generation, one untimed warm-up pass) comes first.
Input generation runs three times and its median counts, so ``setup_s`` is
import time + median generation time + warm-up time, scaled by the
set-up's pace samples.  Each timed job is followed, outside the timed
region, by its output check; a job fails on an exception (mapped to the CLI
exit code) or on a failed check.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s`` (the
median round wall time, scaled by the timed rounds' pace samples) and
``peak_rss_mb``.  Per-kind medians, job counts, tail percentiles and
``fail_ratio`` are printed in the run record above the result line.
``--trace 1`` alternates untraced and traced rounds, reports per-layer
calls and self times per traced round from ``tracer.py``, the tracing
overhead, and an FFT kernel probe, and writes the spans to
``.bench_work/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
GENERATION_REPEATS = 3
PROBE_REPEATS = 7
# HostPace.measure() on a 2-vCPU Xeon VM in its quicker spells; scaled
# times are the seconds a job would take at that pace.
PACE_NOMINAL_S = 0.1
PACE_EVERY_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("algebra", "evolve", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def exit_code(exc):
    """The code ``pwfn.cli.main`` would exit with for this exception."""
    from pwfn import cli
    from pwfn.errors import ConfigError, FormatError, PwfnError, StabilityError
    for kind, code in ((ConfigError, cli.EXIT_CONFIG),
                       (StabilityError, cli.EXIT_INSTABILITY),
                       (FormatError, cli.EXIT_IO), (OSError, cli.EXIT_IO),
                       (PwfnError, cli.EXIT_PRECONDITION)):
        if isinstance(exc, kind):
            return code
    return 1


class Runner:
    """Runs jobs, times them and keeps the failure count."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.traced_jobs = []   # (kind, job id, wall seconds)

    def run(self, job, job_id, traced=False):
        """Run one job; returns its wall time and whether it passed."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            if traced:
                with self.tracer.job(job_id):
                    result = job.run()
            else:
                result = job.run()
        except Exception as exc:  # a failed job is counted, the run goes on
            self.failed += 1
            print(f"[FAIL] {job_id}: exit {exit_code(exc)}: "
                  f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - started, False
        wall = time.perf_counter() - started
        if traced:
            self.traced_jobs.append((job.kind, job_id, wall))
        try:
            rows = job.check(result)
        except Exception as exc:  # an unreadable output fails the job
            rows = [(f"check raised {type(exc).__name__}: {exc}", math.nan,
                     math.nan, "<=")]
        ok = True
        for label, value, bound, comparator in rows:
            passed = value <= bound if comparator == "<=" else value >= bound
            ok = ok and passed
            print(f"[{'PASS' if passed else 'FAIL'}] {job_id} {label}: "
                  f"{value:.3e} ({comparator} {bound:.1e})")
        if not ok:
            self.failed += 1
        return wall, ok


class HostPace:
    """Times a fixed mix of interpreter, small-array, FFT and streaming work.

    It calls numpy only, never pwfn, so no change to pwfn moves it; it
    follows the host's pace, which moves every job's time alike.  The
    6 x 64^3 parts follow the memory traffic of the large-grid jobs.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(2, 3, 16, 16, 16)) + 0j
        self.block = rng.normal(size=(6, 32, 32, 32)) + 0j
        self.large = rng.normal(size=(6, 64, 64, 64)) + 0j
        self.samples = []
        self._owed = 0.0

    def follow(self, seconds):
        """Sample after a phase: one sample per PACE_EVERY_S of phases."""
        self._owed += seconds
        while self._owed > 0.0:
            self.measure()
            self._owed -= PACE_EVERY_S

    def measure(self):
        np = self.np
        started = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        a = self.small
        for _ in range(150):
            a = a * 1.0000001 + 1e-9
        for _ in range(2):
            np.fft.fftn(self.block, axes=(1, 2, 3))
        np.fft.fftn(self.large, axes=(1, 2, 3))
        self.large * 1.0000001 + self.large
        self.samples.append(time.perf_counter() - started)


def pace_scale(samples):
    """Factor that takes seconds at these samples' pace to nominal."""
    return PACE_NOMINAL_S / statistics.median(samples)


def run_rounds(runner, rounds, seconds, trace, pace):
    """Timed rounds; with tracing, odd rounds are traced.

    Returns per-kind job times and the wall times of untraced and traced
    rounds.
    """
    kinds, untraced, traced, spans = {}, [], [], []
    cpu_start = sum(os.times()[:2])
    started = time.perf_counter()
    for index, jobs in enumerate(rounds):
        round_started = time.perf_counter()
        is_traced = trace and index % 2 == 1
        if is_traced:
            runner.tracer.install(pwfn_modules())
        wall = 0.0
        try:
            for position, job in enumerate(jobs):
                job_id = f"round{index}/{position}:{job.kind}"
                took, ok = runner.run(job, job_id, traced=is_traced)
                pace.follow(took)
                wall += took
                if ok and not is_traced:
                    kinds.setdefault(job.kind, []).append(took)
        finally:
            if is_traced:
                runner.tracer.uninstall()
                runner.tracer.end_round()
        (traced if is_traced else untraced).append(wall)
        spans.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        if ((elapsed + statistics.median(spans) > seconds)
                and (not trace or traced)):
            break
    cpu_util = ((sum(os.times()[:2]) - cpu_start)
                / (time.perf_counter() - started))
    return kinds, untraced, traced, cpu_util


def pwfn_modules():
    return {name[len("pwfn."):]: module
            for name, module in sys.modules.items() if name.startswith("pwfn.")}


def tail(values):
    """Highest whole percentile with at least ten samples beyond it.

    Below 20 samples that percentile lies under the median, so no tail is
    reported.
    """
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(values)
    return pct, ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]


def fft_probe():
    """to_k on a 64^3 six-component field with 1 and 2 FFT workers."""
    import numpy as np
    from pwfn import spectral
    spec = spectral.GridSpec(n=(64, 64, 64), length=(2 * np.pi,) * 3)
    rng = np.random.default_rng(0)
    field = (rng.normal(size=(2, 3) + spec.n)
             + 1j * rng.normal(size=(2, 3) + spec.n))
    ms = {}
    try:
        for workers in (1, 2):
            spectral.set_workers(workers)
            spectral.to_k(spec, field)
            times = []
            for _ in range(PROBE_REPEATS):
                started = time.perf_counter()
                spectral.to_k(spec, field)
                times.append(time.perf_counter() - started)
            ms[workers] = 1e3 * statistics.median(times)
    finally:
        spectral.set_workers(1)
    points = spec.npoints
    flops = 6 * 5 * points * math.log2(points)   # computed, not counted
    return {"spectral.probe.fft64_w1_ms": (ms[1], "ms"),
            "spectral.probe.fft64_w2_ms": (ms[2], "ms"),
            "spectral.probe.fft64_scaling_eff": (ms[1] / (2 * ms[2]), "ratio"),
            "spectral.probe.fft64_gflops_w1": (flops / (ms[1] * 1e-3) / 1e9,
                                               "GFLOP/s")}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def machine():
    import numpy
    import scipy
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "l3": l3.read_text().strip() if l3.is_file() else "unknown",
            "commit": git_commit()}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pwfn" / "__init__.py").is_file():
        print(f"benchmark: no pwfn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Every module the tracer wraps, including those the CLI imports lazily.
    from pwfn import (cli, config, eigen, evolve, geometry,  # noqa: F401
                      gridio, metrics, phasespace, spectral, states)
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - T_START
    spectral.set_workers(1)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=WORK))
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(tracer)
    pace = HostPace()
    try:
        pace.follow(import_s)
        generation = []
        for repeat in range(GENERATION_REPEATS):
            started = time.perf_counter()
            plan = workloads.build(args.workload, args.seed,
                                   work / f"inputs{repeat}")
            generation.append(time.perf_counter() - started)
            pace.follow(generation[-1])
        started = time.perf_counter()
        for position, job in enumerate(plan.warmup):
            runner.run(job, f"warmup/{position}:{job.kind}")
        warmup_s = time.perf_counter() - started
        pace.follow(warmup_s)
        setup_paces, pace.samples = pace.samples, []
        setup_raw_s = import_s + statistics.median(generation) + warmup_s

        kinds, untraced, traced, cpu_util = run_rounds(
            runner, plan.rounds, args.seconds, args.trace, pace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = setup_raw_s * pace_scale(setup_paces)
    rounds_scale = pace_scale(pace.samples)
    fail_ratio = runner.failed / runner.attempted
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "setup": {
                  "import_s": import_s, "generation_s": generation,
                  "warmup_s": warmup_s, "raw_s": setup_raw_s,
                  "paces_s": setup_paces},
              "pace": {"nominal_s": PACE_NOMINAL_S, "rounds_s": pace.samples,
                       "rounds_scale": rounds_scale},
              "rounds": {"untraced_s": untraced, "traced_s": traced},
              "fail_ratio": fail_ratio, "kinds": {}}
    for kind, times in sorted(kinds.items()):
        t = tail(times)
        record["kinds"][kind] = {
            "median_s": statistics.median(times),
            "scaled_median_s": statistics.median(times) * rounds_scale,
            "jobs": len(times),
            "tail": None if t is None else {f"p{t[0]}": t[1]}}
    print("record " + json.dumps(record))
    for kind, entry in record["kinds"].items():
        print(f"kind {kind}_s {entry['scaled_median_s']:.4f} s scaled, "
              f"{entry['median_s']:.4f} s raw (median of {entry['jobs']} "
              f"jobs, raw tail {entry['tail']})")
    print(f"kind fail_ratio {fail_ratio:.4f} ratio "
          f"({runner.failed} of {runner.attempted} jobs)")

    if args.trace:
        metrics = tracer.metrics()
        metrics["run.trace_overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0,
            "ratio")
        metrics["run.cpu_util"] = (cpu_util, "ratio")
        metrics.update(fft_probe())
        spans = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans {len(tracer.spans)} written to {spans}")
        account = {}
        for kind, job_id, wall in runner.traced_jobs:
            entry = account.setdefault(kind, [0.0, 0.0])
            entry[0] += wall
            entry[1] += tracer.job_self_s[job_id]
        for kind, (wall, own) in sorted(account.items()):
            print(f"account {kind}: traced wall {wall:.4f} s = layer self "
                  f"times {own:.4f} s + benchmark {wall - own:.4f} s "
                  f"({100 * (wall - own) / wall:.2f} %)")
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (statistics.median(untraced) * rounds_scale, "s"),
                   "peak_rss_mb": (resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace
                                               else "end_to_end"]}
    if declared != set(metrics):
        print(f"benchmark: metrics {sorted(set(metrics) ^ declared)} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
