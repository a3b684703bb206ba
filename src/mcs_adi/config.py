"""Plain-text problem files for the CLI solver.

Format: one `key = value` per line, `#` comments, blank lines ignored.
The recognized keys, with their types and defaults, are the table `_KEYS`.

All validation problems surface as ConfigError so the CLI can report them
uniformly (exit code 2) without tracebacks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .spectrum import FourierMode, GridSpec, PdeCoefficients
from .stability import DomainError, SchemeParams

#: key: (type, default) of every problem-file key; a default of None marks a required key.
_KEYS = {
    **dict.fromkeys(("c1", "c2", "d11", "d12", "d21", "d22"), (float, 0.0)),  # PDE coefficients
    "beta": (float, 0.0),  # mixed-stencil weight
    "m1": (int, None), "m2": (int, None), "dx": (float, None), "dy": (float, None),  # grid
    "dt": (float, None), "theta": (float, None),  # time step and scheme parameter
    "steps": (int, 1),  # number of steps
    "scheme": (str, "mcs"),  # one of SCHEMES
    "initial": (str, "mode:1,1"),  # mode:K1,K2 | impulse | random:SEED
}
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
            seed = int(spec[len("random:"):])
        except ValueError as exc:
            raise ConfigError(f"initial random spec needs 'random:SEED', got {spec!r}") from exc
        if not 0 <= seed < 1 << 128:  # the Philox key range
            raise ConfigError(f"initial random seed must be in [0, 2**128), got {spec!r}")
        return ("random", seed)
    raise ConfigError(f"unknown initial condition {spec!r}")


def load_problem(path, overrides: dict[str, str] | None = None) -> ProblemSetup:
    """Read a problem file, apply overrides, validate everything."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read problem file {path!r}: {exc}") from exc
    if overrides:
        pairs.update({k: str(v) for k, v in overrides.items()})
    values = {}
    for key, raw in pairs.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            values[key] = _KEYS[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from exc

    missing = [key for key, (_, default) in _KEYS.items() if default is None and key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    values = {key: values.get(key, default) for key, (_, default) in _KEYS.items()}
    if values["scheme"] not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {values['scheme']!r}")
    if values["steps"] < 0:
        raise ConfigError(f"steps must be nonnegative, got {values['steps']}")
    _parse_initial(values["initial"])

    try:
        coeffs, grid, params = (cls(**{f.name: values[f.name] for f in fields(cls)})
                                for cls in (PdeCoefficients, GridSpec, SchemeParams))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return ProblemSetup(coeffs, grid, params, values["steps"], values["scheme"], values["initial"])


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
