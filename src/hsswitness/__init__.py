"""Open-system non-Markovianity witnesses under dephasing environments.

Evolves spin-s qudits and hybrid qubit-qutrit systems under thermal,
squeezed-vacuum, random-telegraph and composite dephasing environments and
compares four quantifiers on a common time grid: the Hilbert-Schmidt speed
(HSS) of a phase-encoded state, its time derivative chi (the memory
witness), the entanglement negativity, and the measurement-induced
disturbance (MID).
"""

from .decoherence import (OhmicSpectralDensity, SqueezedBathParams,
                          ThermalBathParams, gamma_squeezed, gamma_thermal,
                          rtn_dn)
from .dynamics import (QUBIT_QUTRIT, Scenario, SpinLayout, initial_mixed,
                       initial_pure, scenario)
from .hilbert import DensityMatrix
from .plotting import series_svg
from .witnesses import (ExtremaReport, WitnessSeries, compute_series,
                        extrema_report, hss, mid, negativity)

__all__ = [
    "OhmicSpectralDensity", "SqueezedBathParams", "ThermalBathParams",
    "gamma_squeezed", "gamma_thermal", "rtn_dn",
    "QUBIT_QUTRIT", "Scenario", "SpinLayout",
    "initial_mixed", "initial_pure", "scenario",
    "DensityMatrix", "series_svg",
    "ExtremaReport", "WitnessSeries", "compute_series", "extrema_report",
    "hss", "mid", "negativity",
]

__version__ = "0.1.0"
