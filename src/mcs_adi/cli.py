"""Command-line front end: solver runs, stability scans, threshold checks.

Subcommands
    solve          run a problem file N steps, log per-step max-norms,
                   optionally write the final field as CSV
    figure1        Monte-Carlo max|S| scan over a theta grid, CSV output
    verify         named checks of the five stability thresholds
    amplification  one-step amplification of a Fourier mode, measured on the
                   stepper vs the closed form
    convergence    errors and observed orders of the stepper under dt halving

Each subcommand takes only the flags it reads.  `solve` and `amplification`
need `--config PATH`, and their `--scheme` and `--theta` (and `solve`'s
`--steps`) override the file's keys; `figure1` and `verify` take `--seed`
and `--threads`; every subcommand but `amplification` takes `--out PATH`.

Exit codes: 0 success, 1 failed verification check, 2 usage/config error
(an --out in a missing directory among them), 3 numerical breakdown.  All
numeric output carries 17 significant digits, and every command is
deterministic given its flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

# lazy modules (see the package docstring): a command executes only the layers
# whose attributes it reads, each on the calling thread before any worker starts
from . import analysis, config, solver, spectrum
from .config import ConfigError
from .stability import DomainError, check_positive

#: Most theta values one figure1 scan takes (the default grid has 101).
_MAX_THETAS = 10_000

#: Most refinement levels of a convergence study (level N takes 8 * 2**(N-1) steps).
_MAX_LEVELS = 12


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one `error: ...` line (exit 2).

    Subparsers take the class of the parser that adds them, so every
    subcommand reports the same way; `--help` is unchanged.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", default=None, help="output CSV path")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2**64) (default 0)")
    pool.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="worker threads, at most one per usable CPU (default: one per usable CPU; "
             "results do not depend on it)",
    )
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--config", metavar="PATH", required=True, help="problem file")
    problem.add_argument("--scheme", choices=config.SCHEMES, default=None,
                         help="override the file's scheme")
    problem.add_argument("--theta", type=float, default=None, help="override the file's theta")

    parser = _Parser(
        prog="mcs-adi",
        description="MCS ADI stepping for 2D convection-diffusion and its stability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[problem, out], help="run a problem file")
    p.add_argument("--steps", type=int, default=None, help="override the file's step count")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("figure1", parents=[pool, out], help="max|S| Monte-Carlo scan per theta")
    p.add_argument("--samples", type=int, default=None, help="samples per theta")
    p.add_argument("--theta-min", type=float, default=0.25)
    p.add_argument("--theta-max", type=float, default=0.5)
    p.add_argument("--theta-step", type=float, default=0.0025)
    p.add_argument("--complex-z0", action="store_true", help="z0 with a uniform random phase")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("verify", parents=[pool, out], help="run threshold checks")
    p.add_argument(
        "--theorem", choices=("1", "2", "3", "4", "5", "all"), default="all",
        help="which threshold to check (default all)",
    )
    p.add_argument("--samples", type=int, default=None, help="Monte-Carlo samples per check")
    p.add_argument(
        "--theta", type=float, default=None,
        help="evaluate the cubic error coefficient at this theta (--theorem 3 or all)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "amplification", parents=[problem],
        help="measured vs closed-form one-step amplification of a Fourier mode",
    )
    p.add_argument("--k1", type=int, required=True, help="wavenumber along x")
    p.add_argument("--k2", type=int, required=True, help="wavenumber along y")
    p.set_defaults(func=cmd_amplification)

    p = sub.add_parser("convergence", parents=[out], help="time-step refinement study")
    p.add_argument("--scheme", choices=config.SCHEMES, default="mcs")
    p.add_argument("--theta", type=float, action="append", help="repeatable (default 1/3 and 1/2)")
    p.add_argument("--levels", type=int, default=4, help=f"refinement levels, 1..{_MAX_LEVELS}")
    p.set_defaults(func=cmd_convergence)
    return parser


def _write_out(write, path, *data) -> None:
    """write(path, *data); an unwritable path is a usage error (exit 2)."""
    try:
        write(path, *data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_problem(args) -> config.ProblemSetup:
    """The --config file, with each given --steps, --scheme or --theta in place of its key."""
    flags = {key: getattr(args, key, None) for key in ("steps", "scheme", "theta")}
    return config.load_problem(args.config, {k: v for k, v in flags.items() if v is not None})


def cmd_solve(args) -> int:
    setup = _load_problem(args)
    ops = solver.build_split_operators(setup.coeffs, setup.grid)
    step = solver.get_step_function(setup.scheme)
    u = config.make_initial_field(setup.grid, setup.initial)
    # one write per line: print would make two write calls, text and newline
    sys.stdout.write("step,max_norm\n")
    sys.stdout.write(f"0,{solver.field_max_norm(u):.17g}\n")
    for n in range(1, setup.steps + 1):
        try:
            u = step(ops, setup.params, u)
        except (solver.SingularSystemError, DomainError) as exc:
            print(f"numerical breakdown at step {n}: {exc}", file=sys.stderr)
            return 3
        sys.stdout.write(f"{n},{solver.field_max_norm(u):.17g}\n")
    if args.out is not None:
        _write_out(solver.write_field_csv, args.out, u)
    return 0


def cmd_figure1(args) -> int:
    samples = analysis.DEFAULT_SAMPLES if args.samples is None else args.samples
    for flag, value in (("theta-min", args.theta_min), ("theta-max", args.theta_max),
                        ("theta-step", args.theta_step)):
        check_positive(flag, value)
    if args.theta_max < args.theta_min:
        raise ConfigError("theta-max must be >= theta-min")
    if (args.theta_min, args.theta_max, args.theta_step) == (0.25, 0.5, 0.0025):
        thetas = analysis.default_theta_grid()
    else:
        steps = (args.theta_max - args.theta_min) / args.theta_step
        # compared as a float first: a subnormal theta-step makes steps = inf;
        # floored, with slack for roundoff in steps, so the last theta does not
        # pass theta-max by more than roundoff
        count = math.floor(steps + 1e-9) + 1 if steps < _MAX_THETAS else _MAX_THETAS + 1
        if count > _MAX_THETAS:
            raise ConfigError(f"theta grid has more than {_MAX_THETAS} points; raise theta-step")
        thetas = tuple(args.theta_min + k * args.theta_step for k in range(count))
    scan = analysis.complex_z0_scan if args.complex_z0 else analysis.figure1_scan
    report = scan(seed=args.seed, samples=samples, thetas=thetas, threads=args.threads)
    broken = [t for t, mx in zip(report.thetas, report.max_abs_s) if not math.isfinite(mx)]
    if broken:
        print(f"numerical breakdown: |S| not finite at theta = {broken[0]:.17g}", file=sys.stderr)
        return 3
    if args.out is not None:
        _write_out(analysis.write_scan_csv, args.out, report)
    else:
        print("theta,max_abs_s")
        for theta, mx in zip(report.thetas, report.max_abs_s):
            print(f"{theta:.17g},{mx:.17g}")
    return 0


def cmd_verify(args) -> int:
    if args.theta is not None:
        if args.theorem not in ("3", "all"):
            raise ConfigError(f"--theorem {args.theorem} does not read --theta")
        check_positive("theta", args.theta)  # before theorems 1 and 2 print their rows
    numbers = (1, 2, 3, 4, 5) if args.theorem == "all" else (int(args.theorem),)
    rows = []
    failed = 0
    for n in numbers:
        for res in analysis.verify_theorem(
            n, seed=args.seed, samples=args.samples, threads=args.threads,
            theta=args.theta if n == 3 else None,
        ):
            rows.append((n, res))
            status = "PASS" if res.passed else "FAIL"
            if not res.passed:
                failed += 1
            print(f"thm{n}  {status}  {res.name:<40} measured={res.measured:.17g}  {res.detail}")
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    if args.out is not None:
        csv = "theorem,check,passed,measured\n" + "".join(
            f"{n},{res.name},{int(res.passed)},{res.measured:.17g}\n" for n, res in rows)
        _write_out(Path.write_text, Path(args.out), csv, "utf-8")
    return 1 if failed else 0


def cmd_amplification(args) -> int:
    setup = _load_problem(args)
    mode = spectrum.FourierMode(args.k1, args.k2)
    pt = spectrum.fourier_symbols(setup.coeffs, setup.grid, setup.params.dt, mode)
    predicted = solver.predicted_amplification(setup.scheme, setup.params.theta, pt)
    measured = solver.mode_amplification(setup.scheme, setup.coeffs, setup.grid, setup.params, mode)
    diff = abs(measured - predicted)
    rel = diff / max(1e-300, abs(predicted))
    print(f"mode = {args.k1},{args.k2}")
    print(f"scheme = {setup.scheme}")
    print(f"z0 = {pt.z0.real:.17g}{pt.z0.imag:+.17g}j")
    print(f"z1 = {pt.z1.real:.17g}{pt.z1.imag:+.17g}j")
    print(f"z2 = {pt.z2.real:.17g}{pt.z2.imag:+.17g}j")
    print(f"measured = {measured.real:.17g}{measured.imag:+.17g}j")
    print(f"predicted = {predicted.real:.17g}{predicted.imag:+.17g}j")
    print(f"abs_diff = {diff:.17g}")
    print(f"rel_diff = {rel:.17g}")
    return 0


def cmd_convergence(args) -> int:
    if not 1 <= args.levels <= _MAX_LEVELS:
        raise ConfigError(f"levels must be 1..{_MAX_LEVELS}, got {args.levels}")
    thetas = args.theta or [1.0 / 3.0, 0.5]
    for theta in thetas:
        check_positive("theta", theta)
    csv = "scheme,theta,dt,max_error,observed_order\n"
    for theta in thetas:
        problem = dataclasses.replace(solver.default_convergence_problem(), theta=theta)
        try:
            rows = solver.run_convergence_study(problem, args.scheme, args.levels)
        except (solver.SingularSystemError, DomainError) as exc:
            print(f"numerical breakdown at theta = {theta:.17g}: {exc}", file=sys.stderr)
            return 3
        csv += "".join(f"{args.scheme},{theta:.17g},{row.dt:.17g},{row.max_error:.17g},"
                       f"{row.observed_order:.17g}\n" for row in rows)
    if args.out is not None:
        _write_out(Path.write_text, Path(args.out), csv, "utf-8")
    else:
        print(csv, end="")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a blow-up or an extreme input overflows before the check that reports
        # it as one line (validate_field, the residual guard, the form guard)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, DomainError) as exc:  # a bad file or flag, an argument off its domain
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # SingularSystemError, a non-finite verify result
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
