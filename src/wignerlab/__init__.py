"""Monte Carlo laboratory and exact oracles for Wigner negativity of random states.

The probability that a Hilbert-Schmidt-random N-level state has a negative
Wigner-type phase-space symbol is estimated by seeded sampling
(:func:`estimate_global`, :func:`estimate_state`, :func:`run_sweep`) and
computed exactly (:func:`negative_probability`, :func:`two_block_exact`,
:func:`cf_inversion_exact`, :func:`limit_quantumness`) for kernels described
by their eigenvalue spectra (:class:`KernelSpectrum`).

The package exports exactly the public names of its four modules, each listed
once, in that module's ``__all__``.
"""
from . import kernels, montecarlo, oracles, sampling
from .kernels import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .oracles import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*kernels.__all__, *sampling.__all__, *montecarlo.__all__, *oracles.__all__,
           "__version__"]
