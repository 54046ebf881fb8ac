"""Monte Carlo laboratory and exact oracles for Wigner negativity of random states.

The probability that a Hilbert-Schmidt-random N-level state has a negative
Wigner-type phase-space symbol is estimated by seeded sampling
(:func:`estimate_global`, :func:`estimate_state`, :func:`run_sweep`) and
computed exactly (:func:`negative_probability`, :func:`two_block_exact`,
:func:`cf_inversion_exact`, :func:`limit_quantumness`) for kernels described
by their eigenvalue spectra (:class:`KernelSpectrum`).
"""
from .kernels import (
    KernelMoments,
    KernelSpectrum,
    master_residuals,
    moments,
    random_spectrum,
    spectrum_from_values,
    two_block_spectrum,
)
from .montecarlo import (
    CHUNK,
    KernelSelector,
    NegativityEstimate,
    SweepConfig,
    SweepError,
    SweepRecord,
    estimate_global,
    estimate_state,
    run_sweep,
    wilson_interval,
)
from .oracles import (
    ConvergenceError,
    OracleResult,
    cf_inversion_exact,
    clt_probability,
    limit_quantumness,
    negative_probability,
    two_block_exact,
)
from .sampling import (
    gamma_batch,
    ginibre_batch,
    haar_batch,
    haar_unitary,
    hs_state,
    row_energies_batch,
    sample_ginibre,
    wigner_value,
)

__version__ = "0.1.0"

__all__ = [
    "KernelSpectrum",
    "KernelMoments",
    "spectrum_from_values",
    "two_block_spectrum",
    "random_spectrum",
    "master_residuals",
    "moments",
    "sample_ginibre",
    "ginibre_batch",
    "hs_state",
    "row_energies_batch",
    "gamma_batch",
    "haar_unitary",
    "haar_batch",
    "wigner_value",
    "CHUNK",
    "NegativityEstimate",
    "wilson_interval",
    "estimate_global",
    "estimate_state",
    "KernelSelector",
    "SweepConfig",
    "SweepRecord",
    "SweepError",
    "run_sweep",
    "OracleResult",
    "ConvergenceError",
    "limit_quantumness",
    "negative_probability",
    "two_block_exact",
    "cf_inversion_exact",
    "clt_probability",
    "__version__",
]
