"""Command-line front end: solver runs, stability scans, threshold checks.

Subcommands
    solve          run a problem file N steps, log per-step max-norms,
                   optionally write the final field as CSV
    figure1        Monte-Carlo max|S| scan over a theta grid, CSV output
    verify         named checks of the five stability thresholds
    amplification  one-step amplification of a Fourier mode, measured on the
                   stepper vs the closed form

Exit codes: 0 success, 1 failed verification check, 2 usage/config error,
3 numerical breakdown.  All numeric output carries 17 significant digits,
and every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_SAMPLES,
    check_monotone_evidence,
    default_theta_grid,
    figure1_scan,
    verify_theorem,
    write_scan_csv,
)
from .config import ConfigError, load_problem, make_initial_field
from .solver import (
    SingularSystemError,
    build_split_operators,
    field_max_norm,
    get_step_function,
    mode_amplification,
    predicted_amplification,
    write_field_csv,
)
from .spectrum import FourierMode, fourier_symbols
from .stability import DomainError

#: Most theta values one figure1 scan takes (the default grid has 101).
_MAX_THETAS = 10_000


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None, help="output CSV path")
    common.add_argument("--seed", type=_u64, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="worker threads (default: machine parallelism; results do not depend on it)",
    )
    common.add_argument("--config", metavar="PATH", default=None, help="problem file")

    parser = argparse.ArgumentParser(
        prog="mcs-adi",
        description="MCS ADI stepping for 2D convection-diffusion and its stability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="run a problem file")
    p.add_argument("--steps", type=int, default=None, help="override step count")
    p.add_argument("--scheme", choices=("mcs", "douglas"), default=None, help="override scheme")
    p.add_argument("--theta", type=float, default=None, help="override theta")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("figure1", parents=[common], help="max|S| Monte-Carlo scan per theta")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="samples per theta")
    p.add_argument("--theta-min", type=float, default=0.25)
    p.add_argument("--theta-max", type=float, default=0.5)
    p.add_argument("--theta-step", type=float, default=0.0025)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("verify", parents=[common], help="run threshold checks")
    p.add_argument(
        "--theorem", choices=("1", "2", "3", "4", "5", "all"), default="all",
        help="which threshold to check (default all)",
    )
    p.add_argument("--samples", type=int, default=None, help="Monte-Carlo samples per check")
    p.add_argument(
        "--theta", type=float, default=None,
        help="evaluate the cubic error coefficient at this theta (theorem 3 only)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "amplification", parents=[common],
        help="measured vs closed-form one-step amplification of a Fourier mode",
    )
    p.add_argument("--k1", type=int, required=True, help="wavenumber along x")
    p.add_argument("--k2", type=int, required=True, help="wavenumber along y")
    p.add_argument("--scheme", choices=("mcs", "douglas"), default="mcs")
    p.add_argument("--theta", type=float, default=None, help="override theta")
    p.set_defaults(func=cmd_amplification)
    return parser


def _write_out(write, path, *data) -> None:
    """write(path, *data); an unwritable path is a usage error (exit 2)."""
    try:
        write(path, *data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _require_config(args) -> str:
    if args.config is None:
        raise ConfigError(f"{args.command} requires --config PATH")
    return args.config


def cmd_solve(args) -> int:
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    if args.theta is not None:
        overrides["theta"] = args.theta
    setup = load_problem(_require_config(args), overrides)
    try:
        ops = build_split_operators(setup.coeffs, setup.grid)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    step = get_step_function(setup.scheme)
    u = make_initial_field(setup.grid, setup.initial)
    print("step,max_norm")
    print(f"0,{field_max_norm(u):.17g}")
    # a blow-up overflows before validate_field or the residual guard reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, setup.steps + 1):
            try:
                u = step(ops, setup.params, u)
            except (SingularSystemError, DomainError) as exc:
                print(f"numerical breakdown at step {n}: {exc}", file=sys.stderr)
                return 3
            print(f"{n},{field_max_norm(u):.17g}")
    if args.out is not None:
        _write_out(write_field_csv, args.out, u)
    return 0


def cmd_figure1(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {args.samples}")
    for flag, value in (("theta-min", args.theta_min), ("theta-max", args.theta_max),
                        ("theta-step", args.theta_step)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{flag} must be positive and finite, got {value!r}")
    if args.theta_max < args.theta_min:
        raise ConfigError("theta-max must be >= theta-min")
    if (args.theta_min, args.theta_max, args.theta_step) == (0.25, 0.5, 0.0025):
        thetas = default_theta_grid()
    else:
        steps = (args.theta_max - args.theta_min) / args.theta_step
        # compared as a float first: a subnormal theta-step makes steps = inf;
        # floored, with slack for roundoff in steps, so the last theta does not
        # pass theta-max by more than roundoff
        count = math.floor(steps + 1e-9) + 1 if steps < _MAX_THETAS else _MAX_THETAS + 1
        if count > _MAX_THETAS:
            raise ConfigError(f"theta grid has more than {_MAX_THETAS} points; raise theta-step")
        thetas = tuple(args.theta_min + k * args.theta_step for k in range(count))
    report = figure1_scan(
        seed=args.seed, samples=args.samples, thetas=thetas, threads=args.threads
    )
    broken = [t for t, mx in zip(report.thetas, report.max_abs_s) if not math.isfinite(mx)]
    if broken:
        print(f"numerical breakdown: |S| not finite at theta = {broken[0]:.17g}", file=sys.stderr)
        return 3
    check_monotone_evidence(report)
    if args.out is not None:
        _write_out(write_scan_csv, args.out, report)
    else:
        print("theta,max_abs_s")
        for theta, mx in zip(report.thetas, report.max_abs_s):
            print(f"{theta:.17g},{mx:.17g}")
    return 0


def cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {args.samples}")
    if args.theta is not None and not 0.0 < args.theta < math.inf:
        raise ConfigError(f"theta must be positive and finite, got {args.theta!r}")
    numbers = (1, 2, 3, 4, 5) if args.theorem == "all" else (int(args.theorem),)
    rows = []
    failed = 0
    for n in numbers:
        for res in verify_theorem(
            n, seed=args.seed, samples=args.samples, threads=args.threads, theta=args.theta
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
    overrides = {}
    if args.theta is not None:
        overrides["theta"] = args.theta
    setup = load_problem(_require_config(args), overrides)
    try:
        mode = FourierMode(args.k1, args.k2)
        pt = fourier_symbols(setup.coeffs, setup.grid, setup.params.dt, mode)
        predicted = predicted_amplification(args.scheme, setup.params.theta, pt)
        measured = mode_amplification(args.scheme, setup.coeffs, setup.grid, setup.params, mode)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    diff = abs(measured - predicted)
    rel = diff / max(1e-300, abs(predicted))
    print(f"mode = {args.k1},{args.k2}")
    print(f"scheme = {args.scheme}")
    print(f"z0 = {pt.z0.real:.17g}{pt.z0.imag:+.17g}j")
    print(f"z1 = {pt.z1.real:.17g}{pt.z1.imag:+.17g}j")
    print(f"z2 = {pt.z2.real:.17g}{pt.z2.imag:+.17g}j")
    print(f"measured = {measured.real:.17g}{measured.imag:+.17g}j")
    print(f"predicted = {predicted.real:.17g}{predicted.imag:+.17g}j")
    print(f"abs_diff = {diff:.17g}")
    print(f"rel_diff = {rel:.17g}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
