"""Plain-text problem files for the CLI solver.

Format: one `key = value` per line, `#` comments, blank lines ignored.
Recognized keys:

    c1 c2 d11 d12 d21 d22   PDE coefficients           (default 0)
    beta                    mixed-stencil weight       (default 0)
    m1 m2 dx dy             grid                       (required)
    dt theta                time step and parameter    (required)
    steps                   number of steps            (default 1)
    scheme                  mcs | douglas              (default mcs)
    initial                 mode:K1,K2 | impulse | random:SEED
                            (default mode:1,1)

All validation problems surface as ConfigError so the CLI can report them
uniformly (exit code 2) without tracebacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import FourierMode, GridSpec, PdeCoefficients
from .stability import DomainError, SchemeParams

_FLOAT_KEYS = ("c1", "c2", "d11", "d12", "d21", "d22", "beta", "dx", "dy", "dt", "theta")
_INT_KEYS = ("m1", "m2", "steps")
_STR_KEYS = ("scheme", "initial")
_REQUIRED = ("m1", "m2", "dx", "dy", "dt", "theta")
#: The scheme names a problem file or a `--scheme` flag may give.
SCHEMES = ("mcs", "douglas")


class ConfigError(ValueError):
    """A problem file (or override) could not be turned into a valid setup."""


@dataclass(frozen=True)
class ProblemSetup:
    """Everything the CLI solver needs to run one problem."""

    coeffs: PdeCoefficients
    grid: GridSpec
    params: SchemeParams
    steps: int
    scheme: str
    initial: str


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key/value pairs of a problem file; no interpretation yet."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw.strip()!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(pairs: dict[str, str]) -> dict:
    known = set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS)
    values: dict = {}
    for key, raw in pairs.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(raw)
            elif key in _INT_KEYS:
                values[key] = int(raw)
            else:
                values[key] = raw
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from exc
    return values


def _parse_initial(spec: str) -> tuple:
    """Structured form of an initial-condition spec; ConfigError if malformed."""
    if spec == "impulse":
        return ("impulse",)
    if spec.startswith("mode:"):
        body = spec[len("mode:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ConfigError(f"initial mode spec needs 'mode:K1,K2', got {spec!r}")
        try:
            return ("mode", int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"initial mode spec needs integers, got {spec!r}") from exc
    if spec.startswith("random:"):
        try:
            return ("random", int(spec[len("random:"):]))
        except ValueError as exc:
            raise ConfigError(f"initial random spec needs 'random:SEED', got {spec!r}") from exc
    raise ConfigError(f"unknown initial condition {spec!r}")


def load_problem(path, overrides: dict[str, str] | None = None) -> ProblemSetup:
    """Read a problem file, apply overrides, validate everything."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read problem file {path!r}: {exc}") from exc
    if overrides:
        pairs.update({k: str(v) for k, v in overrides.items()})
    values = _convert(pairs)

    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    scheme = values.get("scheme", "mcs")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    steps = values.get("steps", 1)
    if steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {steps}")
    initial = values.get("initial", "mode:1,1")
    _parse_initial(initial)

    try:
        coeffs = PdeCoefficients(
            c1=values.get("c1", 0.0),
            c2=values.get("c2", 0.0),
            d11=values.get("d11", 0.0),
            d12=values.get("d12", 0.0),
            d21=values.get("d21", 0.0),
            d22=values.get("d22", 0.0),
        )
        grid = GridSpec(
            m1=values["m1"],
            m2=values["m2"],
            dx=values["dx"],
            dy=values["dy"],
            beta=values.get("beta", 0.0),
        )
        params = SchemeParams(theta=values["theta"], dt=values["dt"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return ProblemSetup(coeffs, grid, params, steps, scheme, initial)


def make_initial_field(grid: GridSpec, initial: str) -> np.ndarray:
    """Build the start field of a run from its spec string."""
    parsed = _parse_initial(initial)
    if parsed[0] == "impulse":
        u = np.zeros(grid.shape)
        u[grid.m1 // 2, grid.m2 // 2] = 1.0
        return u
    if parsed[0] == "mode":
        _, k1, k2 = parsed
        try:
            return np.cos(FourierMode(k1, k2).phase_field(grid))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    _, seed = parsed
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(grid.shape)
