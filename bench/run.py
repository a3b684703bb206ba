#!/usr/bin/env python3
"""Benchmark of the `mcs-adi` command line, end to end and per layer.

Usage, from the repository root (the program runs from `src/`, nothing is
installed):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` drives the real CLI (`python -u -m mcs_adi ...`) as a child
process and observes it only from outside: stdout line arrival times, exit
status, output files and the child's rusage.  `--trace 1` runs a few
commands untraced, then the same commands through `bench/tracer.py`, which
records a span around every public function of every layer, and reports
per-layer numbers plus the tracing overhead.  Every command's output is
checked outside its timed region; a failed check or a wrong exit status
counts the command as failed.  Times are reported at a reference clock:
one probe per core (`bench/clock.py`) runs beside the commands, and each
command's times are scaled by how fast its cores ran meanwhile.

Stdout is a metric table, a `provenance` JSON line, and, last, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.  See
bench/README.md for the workloads, metrics and the held-out seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

#: Worker threads of the commands that take --threads (the box has 2 cores).
THREADS = 2
#: The cores the benchmark runs on; single-threaded commands are pinned to
#: the first, and each gets a clock probe.
CPUS = sorted(os.sched_getaffinity(0))[:THREADS]
FIGURE1_SAMPLES = 200_000
#: Thread-invariance guard: 3 Monte-Carlo blocks (65536 samples each, the
#: last one short) on 21 thetas, at --threads 1 and --threads 2.
GUARD_ARGS = ["--samples", str(2 * 65536 + 4096),
              "--theta-min", "0.25", "--theta-max", "0.3", "--theta-step", "0.0025"]

#: CPU time of one bench/clock.py sample on the reference box in its fast
#: state: measured times are reported at that clock (see bench/README.md).
CLOCK_REF_S = 2.2e-3
#: A command's clock is the median sample over at least this long a window.
CLOCK_WINDOW_S = 0.5
#: How much set-up time (interpreter start and imports) slows per unit
#: slowdown of the clock probe, on a log scale; fitted like each workload's
#: `clock_exponent` (see bench/README.md).
SETUP_CLOCK_EXPONENT = 0.8

PROBLEM = dict(c1=0.4, c2=-0.25, d11=0.08, d12=0.04, d21=0.04, d22=0.05,
               beta=0.5, theta=0.5, scheme="mcs")


@dataclass
class Run:
    """One finished child process, seen from outside."""

    returncode: int
    start: float
    end: float
    lines: list[tuple[float, str]]  # (arrival time, text) per stdout line
    maxrss_mb: float
    #: Times of this command multiplied by `scale` are times at the
    #: reference clock; set from the run's `Clock`.
    scale: float = 1.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def texts(self) -> list[str]:
        return [text for _, text in self.lines]


def child_env() -> dict[str, str]:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(argv: list[str], workdir: Path, cpus=None) -> Run:
    """Run argv to completion, timestamping each stdout line as it arrives.

    With `cpus`, the child runs only on those cores.
    """
    pin = None if cpus is None else functools.partial(os.sched_setaffinity, 0, cpus)
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), preexec_fn=pin,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            lines = [(time.perf_counter(), raw.decode().rstrip("\n")) for raw in proc.stdout]
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return Run(proc.returncode, start, end, lines, usage.ru_maxrss / 1024.0)


class Clock:
    """Clock probes, bench/clock.py, one per core, beside the commands of one run.

    Each core of the reference box switches, over periods from under a
    second to minutes, between a fast state and states in which all code
    runs up to 1.9x slower; the two cores switch partly together.  A
    command slows by its cores' probe slowdown to a power, its clock
    exponent, that depends on the kind of work: near 1 for numpy calls on
    small arrays, less where memory traffic sets the pace.  In bursts the
    hypervisor also runs something else on a core (steal time); the probe's
    CPU time does not see that, so it is taken out separately.  A command's
    times multiplied by `scale(start, end, exponent, cpus)` are its times at
    the reference clock, CLOCK_REF_S per probe sample, without steal.
    """

    def __init__(self, workdir: Path):
        self.paths = {cpu: workdir / f"clock{cpu}.txt" for cpu in CPUS}
        self.procs = [subprocess.Popen([sys.executable, str(HERE / "clock.py"), str(cpu),
                                        str(path)], stdin=subprocess.DEVNULL)
                      for cpu, path in self.paths.items()]
        give_up = time.perf_counter() + 60.0
        while not all(self.samples(cpu) for cpu in CPUS):
            if any(p.poll() is not None for p in self.procs) or time.perf_counter() > give_up:
                self.close()
                raise RuntimeError("a clock probe did not start")
            time.sleep(0.01)

    def samples(self, cpu: int) -> list[tuple[float, float, float, float]]:
        """(start, end, CPU seconds, steal seconds) of every finished sample on `cpu`."""
        try:
            with open(self.paths[cpu], encoding="utf-8") as fh:
                return [tuple(map(float, line.split())) for line in fh if line.endswith("\n")]
        except FileNotFoundError:
            return []

    def scale(self, start: float, end: float, exponent: float, cpus) -> float:
        """(1 - steal share) * (CLOCK_REF_S / median sample) ** exponent.

        Both are taken over the samples on `cpus` between start and end;
        the window is widened to CLOCK_WINDOW_S around short commands.  The
        steal share is the mean over `cpus` of the steal time between the
        first and the last sample over the time between them.
        """
        pad = max(0.0, CLOCK_WINDOW_S - (end - start)) / 2
        inside = {cpu: [x for x in self.samples(cpu) if start - pad <= x[0] and x[1] <= end + pad]
                  for cpu in cpus}
        busy = [x[2] for xs in inside.values() for x in xs]
        if not busy:
            raise RuntimeError("no clock probe sample during a command")
        stolen = [(xs[-1][3] - xs[0][3]) / (xs[-1][0] - xs[0][0])
                  for xs in inside.values() if len(xs) > 1]
        share = min(statistics.fmean(stolen), 0.9) if stolen else 0.0
        return (1.0 - share) * (CLOCK_REF_S / statistics.median(busy)) ** exponent

    def close(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def cli(args: list[str], workdir: Path, cpus=None) -> Run:
    return run_child([sys.executable, "-u", "-m", "mcs_adi", *args], workdir, cpus)


def traced_cli(args: list[str], workdir: Path, spans_path: Path, cpus=None) -> Run:
    return run_child([sys.executable, "-u", str(HERE / "tracer.py"), str(spans_path), *args],
                     workdir, cpus)


def wall_probe(run: Run):
    """(setup seconds, error) of a `--help` probe: its wall time."""
    if run.returncode != 0:
        return None, f"exit status {run.returncode}"
    return run.wall, None


# ---------------------------------------------------------------------------
# Workloads.  Each builds its inputs from the seed, names the CLI arguments of
# its set-up probe and of its measured command, checks a finished command and
# turns a run's commands into metrics.


class Solve:
    """`solve --out` on a periodic grid with every mixed weight nonzero."""

    #: One thread: pinned to one core, and timed by that core's clock.
    cpus = CPUS[:1]

    def __init__(self, seed: int, workdir: Path, grid: int, dt: float, steps: int,
                 clock_exponent: float):
        self.clock_exponent = clock_exponent
        self.values = dict(PROBLEM, m1=grid, m2=grid, dx=1.0 / grid, dy=1.0 / grid,
                           dt=dt, steps=steps, initial=f"random:{seed}")
        self.config = workdir / "problem.cfg"
        self.config.write_text("".join(
            f"{k} = {v if isinstance(v, str) else repr(v)}\n" for k, v in self.values.items()))
        self.out = workdir / "field.csv"
        self._references = {}

    def reference(self, steps: int):
        if steps not in self._references:
            self._references[steps] = checks.solve_reference(self.values, steps)
        return self._references[steps]

    def probe_args(self) -> list[str]:
        return ["solve", "--config", str(self.config), "--steps", "0"]

    def probe(self, run: Run):
        """(setup seconds, error) of a zero-step solve: spawn -> `0,<norm>` line."""
        if run.returncode != 0:
            return None, f"exit status {run.returncode}"
        err = checks.check_solve_log(run.texts, self.reference(0)[1])
        return (None, err) if err else (run.lines[1][0] - run.start, None)

    def args(self) -> list[str]:
        return ["solve", "--config", str(self.config), "--out", str(self.out)]

    def check(self, run: Run) -> str | None:
        if run.returncode != 0:
            return f"exit status {run.returncode}"
        reference, norms = self.reference(self.values["steps"])
        err = checks.check_solve_log(run.texts, norms)
        try:
            if err is None:
                err = checks.check_field(checks.read_field_csv(self.out, reference.shape),
                                         reference)
        except (OSError, ValueError) as exc:
            err = f"cannot read field CSV: {exc}"
        finally:
            self.out.unlink(missing_ok=True)
        return err

    def summarize(self, runs: list[Run]) -> dict:
        points = self.values["m1"] * self.values["m2"]
        steps = self.values["steps"]
        gaps = [(b[0] - a[0]) * r.scale for r in runs for a, b in zip(r.lines[1:], r.lines[2:])]
        rate = statistics.median(
            points * steps / ((r.lines[-1][0] - r.lines[1][0]) * r.scale) for r in runs)
        return {
            "work_per_s": (rate, "1/s", "= point_updates_per_s"),
            "table": {
                "point_updates_per_s": (rate, "1/s", "m1*m2*steps / (last step line - step-0 "
                                        "line), median over commands"),
                "step_ms_p50": (statistics.median(gaps) * 1e3, "ms", f"{len(gaps)} step gaps"),
                "step_ms_p90": (statistics.quantiles(gaps, n=10, method="inclusive")[-1] * 1e3,
                                "ms", f"{len(gaps)} step gaps"),
                "write_s": (statistics.median((r.end - r.lines[-1][0]) * r.scale for r in runs),
                            "s", "last step line -> exit"),
                "setup_in_command_s": (statistics.median(
                    (r.lines[1][0] - r.start) * r.scale for r in runs),
                    "s", "spawn -> step-0 line of the measured commands"),
            },
        }


class Figure1:
    """Monte-Carlo max|S| scan over the default 101-theta grid."""

    clock_exponent = 1.0
    cpus = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "scan.csv"

    def probe_args(self) -> list[str]:
        return ["figure1", "--help"]

    probe = staticmethod(wall_probe)

    def args(self) -> list[str]:
        return ["figure1", "--samples", str(FIGURE1_SAMPLES), "--threads", str(THREADS),
                "--seed", str(self.seed), "--out", str(self.out)]

    def check(self, run: Run) -> str | None:
        if run.returncode != 0:
            return f"exit status {run.returncode}"
        meta = Path(f"{self.out}.meta")
        try:
            err = checks.check_figure1(self.out.read_text(), meta.read_text(),
                                       self.seed, FIGURE1_SAMPLES)
        except OSError as exc:
            err = f"cannot read scan output: {exc}"
        self.out.unlink(missing_ok=True)
        meta.unlink(missing_ok=True)
        return err

    def guard(self) -> str | None:
        """Same small scan at 1 and 2 threads must give the same bytes."""
        outputs = []
        for threads in (1, 2):
            out = self.workdir / f"guard{threads}.csv"
            run = cli(["figure1", *GUARD_ARGS, "--threads", str(threads),
                       "--seed", str(self.seed), "--out", str(out)], self.workdir)
            if run.returncode != 0:
                return f"thread-invariance scan at --threads {threads} exited {run.returncode}"
            outputs.append(out.read_bytes() + Path(f"{out}.meta").read_bytes())
        if outputs[0] != outputs[1]:
            return "scan output depends on the thread count"
        return None

    def summarize(self, runs: list[Run]) -> dict:
        rate = checks.FIGURE1_ROWS * FIGURE1_SAMPLES / statistics.median(
            r.wall * r.scale for r in runs)
        return {
            "work_per_s": (rate, "1/s", "= samples_per_s"),
            "table": {"samples_per_s": (rate, "1/s", "101 thetas x samples / wall_s")},
        }


class Verify:
    """Named threshold checks: deterministic scans plus one Monte-Carlo scan."""

    clock_exponent = 0.8
    cpus = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def probe_args(self) -> list[str]:
        return ["verify", "--help"]

    probe = staticmethod(wall_probe)

    def args(self) -> list[str]:
        return ["verify", "--theorem", "all", "--threads", str(THREADS), "--seed", str(self.seed)]

    def check(self, run: Run) -> str | None:
        return checks.check_verify(run.returncode, run.texts)

    def summarize(self, runs: list[Run]) -> dict:
        rates = [(len(r.lines) - 1) / ((r.lines[-1][0] - r.lines[0][0]) * r.scale)
                 for r in runs]
        return {
            "work_per_s": (statistics.median(rates), "1/s",
                           "checks per second, first check line -> summary line"),
            "table": {},
        }


WORKLOADS = {
    # Implicit sweeps and stencil rolls on a 2 MiB field: the step's working
    # set spills L2 but fits L3.  The only workload where the CSV write counts.
    "solve_large": lambda seed, wd: Solve(seed, wd, grid=512, dt=1e-3, steps=25,
                                          clock_exponent=0.6),
    # The same solver layer where per-call overhead dominates.
    "solve_small": lambda seed, wd: Solve(seed, wd, grid=16, dt=1e-2, steps=2000,
                                          clock_exponent=0.9),
    # Philox draw, cone transform, |S| evaluation, block-order reduce; no solver.
    "figure1": Figure1,
    # Deterministic grid scans and scalar |S| calls, no RNG in the hot path.
    "verify": Verify,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced commands.


DUR, SELF, POINTS, PARENT = range(4)


def layer_metrics(span_lists: list[list[list]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced commands, one span list per command.

    Per-call times (`_ms`) are medians over every call, per-command figures
    (`_s` and counts) are medians over the commands, and `calls_per_step`
    divides every call by every MCS step.
    """
    commands = []
    for spans in span_lists:
        own = self_times(spans)
        labels = {s[0]: s[1] for s in spans}
        groups: dict[str, list[tuple]] = {}
        for sid, label, start, end, parent, _, points in spans:
            groups.setdefault(label, []).append(
                (end - start, own[sid], points, labels.get(parent, "")))
        commands.append(groups)

    def each(label):
        return [call for groups in commands for call in groups.get(label, ())]

    def per_call_ms(label, field=DUR):
        values = [call[field] for call in each(label)]
        return statistics.median(values) * 1e3 if values else 0.0

    def per_command(fn):
        return statistics.median(fn(groups) for groups in commands)

    def total(label, field=DUR):
        return per_command(lambda groups: sum(call[field] for call in groups.get(label, ())))

    def per_step(*labels):
        steps = len(each("solver.step_mcs"))
        return sum(len(each(label)) for label in labels) / steps if steps else 0.0

    def outer_spectrum(groups):
        return [call for label, calls in groups.items() if label.startswith("spectrum.")
                for call in calls if not call[PARENT].startswith("spectrum.")]

    stab = "stability.stability_function"
    busy, points = total(stab), total(stab, POINTS)
    solve, apply = "solver.solve_directional", "solver.apply_split_operator"
    m = {
        "cli.import_s": (total("cli.import"), "s"),
        "config.load_problem_s": (total("config.load_problem"), "s"),
        "config.make_initial_field_s": (total("config.make_initial_field"), "s"),
        "solver.build_split_operators_s": (total("solver.build_split_operators"), "s"),
        "solver.step_mcs.busy_ms": (per_call_ms("solver.step_mcs"), "ms"),
        "solver.step_mcs.self_ms": (per_call_ms("solver.step_mcs", SELF), "ms"),
        f"{solve}.x_ms": (per_call_ms(f"{solve}.x"), "ms"),
        f"{solve}.y_ms": (per_call_ms(f"{solve}.y"), "ms"),
        f"{solve}.calls_per_step": (per_step(f"{solve}.x", f"{solve}.y"), "calls/step"),
        f"{apply}.j0_ms": (per_call_ms(f"{apply}.j0"), "ms"),
        f"{apply}.j12_ms": (per_call_ms(f"{apply}.j12"), "ms"),
        f"{apply}.calls_per_step": (per_step(f"{apply}.j0", f"{apply}.j12"), "calls/step"),
        "solver.validate_field.calls_per_step": (per_step("solver.validate_field"), "calls/step"),
        "solver.field_max_norm_ms": (per_call_ms("solver.field_max_norm"), "ms"),
        "solver.write_field_csv_s": (total("solver.write_field_csv"), "s"),
        f"{stab}.busy_s": (busy, "s"),
        f"{stab}.calls": (per_command(lambda groups: len(groups.get(stab, ()))), "count"),
        f"{stab}.points": (points, "count"),
        f"{stab}.ns_per_point": (busy / points * 1e9 if points else 0.0, "ns"),
        f"{stab}.scalar_calls": (per_command(
            lambda groups: sum(call[POINTS] == 1 for call in groups.get(stab, ()))), "count"),
        "analysis.figure1_scan.self_s": (total("analysis.figure1_scan", SELF), "s"),
        "analysis.thm1_threshold_scan_s": (total("analysis.thm1_threshold_scan"), "s"),
        "analysis.thm2_real_grid_scan_s": (total("analysis.thm2_real_grid_scan"), "s"),
        "analysis.thm4_witness_search_s": (total("analysis.thm4_witness_search"), "s"),
        "analysis.complex_z0_scan_s": (total("analysis.complex_z0_scan"), "s"),
    }
    for n in range(1, 6):
        m[f"analysis.verify_theorem.thm{n}_s"] = (total(f"analysis.verify_theorem.thm{n}"), "s")
    m["spectrum.calls"] = (per_command(lambda groups: len(outer_spectrum(groups))), "count")
    m["spectrum.busy_s"] = (per_command(
        lambda groups: sum(call[DUR] for call in outer_spectrum(groups))), "s")
    return m


# ---------------------------------------------------------------------------
# Provenance


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def provenance(args, extra: dict) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = [" ".join(_read(str(index / f)) for f in ("level", "type", "size"))
              for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))]
    mem_kib = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                    if line.startswith("MemTotal:")), 0)
    rev = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
        dirty = bool(subprocess.run([*git, "status", "--porcelain"],
                                    capture_output=True, text=True).stdout.strip())
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_rev": rev, "git_dirty": dirty,
        "memory_gib": round(mem_kib / 2**20, 1),
        "bandwidth": "not reported: a bandwidth figure needs arrays of at least 4x the "
                     f"last-level cache ({caches[-1] if caches else 'unknown'}) each, "
                     "more than this benchmark allocates",
        **extra,
    }


# ---------------------------------------------------------------------------


class Tally:
    """Commands attempted and failed, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, err: str | None, what: str) -> bool:
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {err}")
        return err is None


def measure(args, workload, workdir: Path, tally: Tally, clock: Clock) -> tuple[dict, dict]:
    deadline = time.perf_counter() + args.seconds
    clock_cpus = workload.cpus or CPUS
    if args.trace:
        untraced_until = time.perf_counter() + 0.4 * args.seconds
        untraced = loop(workload, workdir, tally, untraced_until, cli)
        spans_paths = []

        def traced(cli_args, wd, cpus):
            spans_paths.append(wd / f"spans{len(spans_paths)}.json")
            return traced_cli(cli_args, wd, spans_paths[-1], cpus)

        traced_runs = loop(workload, workdir, tally, deadline, traced)
        for r in untraced + traced_runs:
            r.scale = clock.scale(r.start, r.end, workload.clock_exponent, clock_cpus)
        span_lists = []
        for path in filter(Path.exists, spans_paths):
            with open(path, encoding="utf-8") as fh:
                span_lists.append(json.load(fh))
        metrics = layer_metrics(span_lists)
        overhead = (statistics.median(r.wall * r.scale for r in traced_runs)
                    - statistics.median(r.wall * r.scale for r in untraced))
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics, {"tracing_overhead_s": overhead,
                         "untraced_commands": len(untraced),
                         "traced_commands": len(traced_runs)}

    # Warm the page and bytecode caches once, untimed.
    set_up(workload, workdir, tally, [])
    if hasattr(workload, "guard"):
        tally.add(workload.guard(), "thread-invariance guard")
    setups = []
    runs = loop(workload, workdir, tally, deadline, cli, setups)
    if not setups:
        raise RuntimeError("every set-up probe failed: " + "; ".join(tally.reasons))
    for r in runs:
        r.scale = clock.scale(r.start, r.end, workload.clock_exponent, clock_cpus)
    for _, run in setups:
        run.scale = clock.scale(run.start, run.end, SETUP_CLOCK_EXPONENT, clock_cpus)
    summary = workload.summarize(runs)
    metrics = {
        "wall_s": (statistics.median(r.wall * r.scale for r in runs), "s"),
        "setup_s": (statistics.median(setup * run.scale for setup, run in setups), "s"),
        "work_per_s": summary["work_per_s"][:2],
        "peak_rss_mb": (statistics.median(r.maxrss_mb for r in runs), "MiB"),
    }
    table = {
        "wall_s": (*metrics["wall_s"], f"spawn -> exit, median of {len(runs)} commands"),
        "setup_s": (*metrics["setup_s"], f"median of {len(setups)} set-up probes "
                    f"(mcs-adi {' '.join(Path(a).name for a in workload.probe_args())})"),
        "work_per_s": summary["work_per_s"],
        "peak_rss_mb": (*metrics["peak_rss_mb"], "ru_maxrss of the command process"),
        **summary["table"],
        "measured_wall_s": (statistics.median(r.wall for r in runs), "s",
                            "wall_s at the box's own clock"),
        "measured_setup_s": (statistics.median(setup for setup, _ in setups), "s",
                             "setup_s at the box's own clock"),
        "clock_scale": (statistics.median(r.scale for r in runs), "ratio",
                        "box clock -> reference clock factor of the commands, median"),
    }
    return metrics, {"table": table, "commands": len(runs)}


def set_up(workload, workdir: Path, tally: Tally, setups: list) -> None:
    """Run one set-up probe; on success append (set-up seconds, the probe's Run)."""
    run = cli(workload.probe_args(), workdir, workload.cpus)
    setup, err = workload.probe(run)
    if tally.add(err, "set-up probe"):
        setups.append((setup, run))


def loop(workload, workdir: Path, tally: Tally, deadline: float, runner,
         setups: list | None = None) -> list[Run]:
    """Run the workload's command until the next one would pass the deadline.

    With `setups`, a set-up probe runs before each command, so that set-up
    time is sampled across the whole run.
    """
    runs, costs = [], []
    while True:
        begin = time.perf_counter()
        if setups is not None:
            set_up(workload, workdir, tally, setups)
        run = runner(workload.args(), workdir, workload.cpus)
        if tally.add(workload.check(run), "command"):
            runs.append(run)
        costs.append(time.perf_counter() - begin)
        if time.perf_counter() + statistics.median(costs) > deadline:
            break
    if not runs:
        raise RuntimeError("every command failed: " + "; ".join(tally.reasons))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mcs_adi" / "__init__.py").is_file():
        print(f"error: no mcs_adi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with Clock(workdir) as clock:
            metrics, info = measure(args, workload, workdir, tally, clock)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, row in info.pop("table", metrics).items():
        value, unit, *note = row
        print(f"{args.workload:<12} {name:<45} {value:>16.6g} {unit:<10} {' '.join(note)}")
    print(f"{args.workload:<12} {'error_rate':<45} {tally.failed / tally.attempted:>16.6g} "
          f"{'ratio':<10} {tally.failed}/{tally.attempted} commands failed")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    print("provenance " + json.dumps(provenance(args, info)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v[0]), "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
