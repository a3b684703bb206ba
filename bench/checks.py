"""Output checks of the benchmark workloads.

Each check returns None when the output is right and a one-line reason when
it is not.  They run outside the timed region; a failed check counts the
command as failed.
"""

from __future__ import annotations

import re

#: Solve output (final field, per-step max-norms) vs the closed form, relative
#: in the max norm; the measured error is ~4e-13.
FIELD_RTOL = 1e-10

#: figure1: every theta >= 0.4 must stay inside the unit disk to this slack.
STABLE_SLACK = 1e-9

#: figure1: the sampled maximum at theta = 1/4 (measured 2.93-2.98).
UNSTABLE_MIN = 1.5

FIGURE1_ROWS = 101


def solve_reference(values: dict, steps: int):
    """Closed-form solve: (field after `steps` steps, max-norm after each of 0..steps).

    On a periodic constant-coefficient grid every Fourier mode is an
    eigenvector of each split operator, so n MCS steps give
    ifft2(S(z0, z1, z2)**n * fft2(u0)).
    """
    import numpy as np

    from mcs_adi.config import make_initial_field
    from mcs_adi.spectrum import GridSpec, PdeCoefficients, fourier_symbol_grid
    from mcs_adi.stability import stability_function

    coeffs = PdeCoefficients(**{k: values[k] for k in ("c1", "c2", "d11", "d12", "d21", "d22")})
    grid = GridSpec(values["m1"], values["m2"], values["dx"], values["dy"], values["beta"])
    u0 = make_initial_field(grid, values["initial"])
    s = stability_function(values["theta"], *fourier_symbol_grid(coeffs, grid, values["dt"]))
    u_hat = np.fft.fft2(u0)
    norms = []
    for n in range(steps + 1):
        field = np.fft.ifft2(s**n * u_hat).real
        norms.append(float(np.abs(field).max()))
    return field, norms


def read_field_csv(path, shape):
    """The `i,j,u` CSV written by `solve --out`, as an array of `shape`."""
    import numpy as np

    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    m1, m2 = shape
    if data.shape != (m1 * m2, 3):
        raise ValueError(f"field CSV has shape {data.shape}, expected {(m1 * m2, 3)}")
    i, j = np.divmod(np.arange(m1 * m2), m2)
    if not (np.array_equal(data[:, 0], i) and np.array_equal(data[:, 1], j)):
        raise ValueError("field CSV rows are not in row-major (i, j) order")
    return data[:, 2].reshape(shape)


def check_solve_log(texts: list[str], norms: list[float]) -> str | None:
    """`step,max_norm` header, then step n with the closed-form max-norm, n = 0..steps.

    Every step is checked, because on a small grid all but the mean mode
    decay long before the last step.
    """
    if not texts or texts[0] != "step,max_norm":
        return "missing 'step,max_norm' header"
    if len(texts) != len(norms) + 1:
        return f"expected {len(norms) + 1} log lines, got {len(texts)}"
    for n, (text, want) in enumerate(zip(texts[1:], norms)):
        index, _, norm = text.partition(",")
        if index != str(n):
            return f"log line {n + 1} is {text!r}, expected step {n}"
        if not abs(float(norm) - want) <= FIELD_RTOL * want:
            return f"max_norm {norm} at step {n} differs from the closed form {want!r}"
    return None


def check_field(field, reference) -> str | None:
    """Final field within FIELD_RTOL (max-norm relative) of the closed form."""
    scale = float(abs(reference).max())
    err = float(abs(field - reference).max()) / scale
    if not err <= FIELD_RTOL:
        return f"final field differs from the closed form by {err:.3e} (relative)"
    return None


def check_figure1(csv_text: str, meta_text: str, seed: int, samples: int) -> str | None:
    """101 rows on the default grid; stable from 0.4 on; clearly unstable at 1/4."""
    rows = csv_text.splitlines()
    if not rows or not rows[0].startswith("theta,max_abs_s,"):
        return "missing scan CSV header"
    if len(rows) != FIGURE1_ROWS + 1:
        return f"expected {FIGURE1_ROWS} scan rows, got {len(rows) - 1}"
    for k, row in enumerate(rows[1:]):
        fields = row.split(",")
        if len(fields) != 8:
            return f"scan row {k} has {len(fields)} fields"
        theta, max_abs_s = float(fields[0]), float(fields[1])
        if abs(theta - (0.25 + k / 400.0)) > 1e-15:
            return f"scan row {k} has theta {theta!r}"
        if theta >= 0.4 and not max_abs_s <= 1.0 + STABLE_SLACK:
            return f"max|S| = {max_abs_s!r} > 1 at theta = {theta!r}"
        if k == 0 and not max_abs_s > UNSTABLE_MIN:
            return f"max|S| = {max_abs_s!r} at theta = 1/4, expected > {UNSTABLE_MIN}"
    meta = dict(
        (key.strip(), value.strip())
        for key, _, value in (line.partition("=") for line in meta_text.splitlines())
    )
    if meta.get("seed") != str(seed) or meta.get("samples_per_theta") != str(samples):
        return f"scan .meta does not record seed {seed} and {samples} samples"
    return None


_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")


def check_verify(returncode: int, texts: list[str]) -> str | None:
    """Exit 0, every check line PASS, and a final `K/K checks passed`."""
    if returncode != 0:
        return f"verify exited with {returncode}"
    summary = _SUMMARY.fullmatch(texts[-1]) if texts else None
    if summary is None:
        return "missing 'K/K checks passed' summary line"
    passed, total = int(summary[1]), int(summary[2])
    lines = texts[:-1]
    if total < 1 or passed != total or len(lines) != total:
        return f"summary {texts[-1]!r} over {len(lines)} check lines"
    bad = [line for line in lines if line.split()[1:2] != ["PASS"]]
    if bad:
        return f"check line is not a PASS: {bad[0]!r}"
    return None
