"""Open-system non-Markovianity witnesses under dephasing environments.

Evolves spin-s qudits and hybrid qubit-qutrit systems under thermal,
squeezed-vacuum, random-telegraph and composite dephasing environments and
compares four quantifiers on a common time grid: the Hilbert-Schmidt speed
(HSS) of a phase-encoded state, its time derivative chi (the memory
witness), the entanglement negativity, and the measurement-induced
disturbance (MID).
"""

from .decoherence import (OhmicSpectralDensity, RtnParams, SqueezedBathParams,
                          ThermalBathParams, gamma_squeezed, gamma_thermal,
                          rtn_dn, rtn_dn_montecarlo)
from .dynamics import (QUBIT_QUTRIT, CompositeRtnSqueezed, RtnCommon,
                       RtnIndependent, Scenario, SpinLayout, SqueezedVacuum,
                       ThermalOhmic, bath_gamma, element_factor, evolve,
                       initial_mixed, initial_pure, mixed_coherence_factor)
from .plotting import series_svg
from .hilbert import (DensityMatrix, PhiFamily, hermitian_eigenvalues,
                      hs_distance, partial_trace, partial_transpose,
                      trace_norm, von_neumann_entropy)
from .witnesses import (ExtremaReport, WitnessSeries, chi_qudit_closed,
                        chi_series, compute_series, extrema_report, hss,
                        hss_finite_difference, mid, mid_closed, negativity,
                        negativity_closed)

__all__ = [
    "OhmicSpectralDensity", "RtnParams", "SqueezedBathParams",
    "ThermalBathParams", "gamma_squeezed", "gamma_thermal", "rtn_dn",
    "rtn_dn_montecarlo",
    "QUBIT_QUTRIT", "CompositeRtnSqueezed", "RtnCommon", "RtnIndependent",
    "Scenario", "SpinLayout", "SqueezedVacuum", "ThermalOhmic",
    "bath_gamma", "element_factor", "evolve", "initial_mixed",
    "initial_pure", "mixed_coherence_factor", "series_svg",
    "DensityMatrix", "PhiFamily", "hermitian_eigenvalues", "hs_distance",
    "partial_trace", "partial_transpose", "trace_norm", "von_neumann_entropy",
    "ExtremaReport", "WitnessSeries", "chi_qudit_closed", "chi_series",
    "compute_series", "extrema_report", "hss", "hss_finite_difference",
    "mid", "mid_closed", "negativity", "negativity_closed",
]

__version__ = "0.1.0"
