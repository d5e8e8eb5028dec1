"""Open-system non-Markovianity witnesses under dephasing environments.

Evolves spin-s qudits and hybrid qubit-qutrit systems under thermal,
squeezed-vacuum, random-telegraph and composite dephasing environments and
compares four quantifiers on a common time grid: the Hilbert-Schmidt speed
(HSS) of a phase-encoded state, its time derivative chi (the memory
witness), the entanglement negativity, and the measurement-induced
disturbance (MID).
"""

import importlib

#: each public name and its home module, imported on the first access to one
#: of its names (PEP 562): ``import hsswitness`` loads no numeric module
_HOME = {name: module for module, names in [
    ("scenarios", "OhmicSpectralDensity SqueezedBathParams ThermalBathParams "
                  "QUBIT_QUTRIT Scenario SpinLayout scenario"),
    ("decoherence", "gamma_squeezed gamma_thermal rtn_dn"),
    ("dynamics", "initial_mixed initial_pure"),
    ("hilbert", "DensityMatrix"),
    ("plotting", "series_svg"),
    ("witnesses", "ExtremaReport WitnessSeries compute_series extrema_report "
                  "hss mid negativity"),
] for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
