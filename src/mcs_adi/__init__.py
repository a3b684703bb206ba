"""MCS ADI splitting for 2D convection-diffusion with a mixed derivative.

The package has two halves that check each other:

* a small linear-algebra side (`solver`, `spectrum`): periodic second-order
  finite differences split into a mixed-derivative part and two
  unidirectional parts, advanced either by the mixed-derivative-corrected
  ADI scheme (``mcs``) or by the plain first-order splitting (``douglas``);
* a scalar analysis side (`stability`, `analysis`): the rational
  amplification factor of the scheme on a Fourier mode, the spectral cone
  condition, and grid / Monte-Carlo scans of the sharp stability thresholds
  of the scheme parameter theta.

`cli` exposes both halves as the ``mcs-adi`` command.

Importing the package runs none of the layer modules.  `stability`,
`spectrum`, `config`, `solver`, `analysis` and `certificates` are
registered in `sys.modules` and as package attributes by
`importlib.util.LazyLoader`, and each one executes on the first access to
one of its attributes; the names of `__all__` resolve through the module
`__getattr__` (PEP 562).  So a command compiles and runs only the layers it
calls: `solve` never loads `analysis` (nor `concurrent.futures`), `figure1`
and `verify` never load `solver`, and only a certificate loads
`certificates` (with `fractions`).  Before Python 3.12 a lazy module has no
lock, so code that starts threads touches every layer they use on its own
thread first.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name: str):
    """Put module `name` of this package in sys.modules, unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


stability = _register_lazily("stability")
spectrum = _register_lazily("spectrum")
config = _register_lazily("config")
solver = _register_lazily("solver")
analysis = _register_lazily("analysis")
certificates = _register_lazily("certificates")

#: Public name -> the layer module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("DomainError", "PoleError", "SchemeParams", "SpectralPoint", "cone_condition",
         "eval_stability_function", "stability_function"),
        stability,
    ),
    **dict.fromkeys(
        ("ConeReport", "FourierMode", "GridSpec", "PdeCoefficients", "fourier_symbols",
         "verify_cone_all_modes"),
        spectrum,
    ),
    **dict.fromkeys(
        ("SingularSystemError", "SplitOperators", "apply_split_operator",
         "build_split_operators", "run_convergence_study", "solve_directional",
         "step_douglas", "step_mcs"),
        solver,
    ),
    **dict.fromkeys(("ScanReport", "default_theta_grid", "figure1_scan"), analysis),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
