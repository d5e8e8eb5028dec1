"""Freezing of quantum correlations under a super-Ohmic squeezed reservoir.

A qubit-qutrit pair dephasing in independent squeezed vacuum baths with a
super-Ohmic spectral density saturates: the decoherence exponent gamma(t)
stops growing, so HSS, negativity and MID all flatten out after an initial
drop and a brief revival.

Run:  python3 demos/freezing_squeezed_bath.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from hsswitness import compute_series, scenario, series_svg

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")

# one squeezed reservoir per spin, at the figure parameters: alpha = 0.1,
# s = 3, omega_c = 20, r = 0.3
squeezed = scenario("squeezed")

tau = np.linspace(0.0, 3.0, 600)
series = compute_series(squeezed, tau)

tail = slice(int(0.9 * tau.size), None)
print("initial HSS        :", series.hss[0], "(= sqrt(5)/6)")
print("frozen HSS         :", series.hss[-1])
print("frozen negativity  :", series.negativity[-1])
print("frozen MID         :", series.mid[-1])
print("tail variation     :", max(np.ptp(series.hss[tail]),
                                  np.ptp(series.negativity[tail]),
                                  np.ptp(series.mid[tail])))

# the revival before freezing shows up as a sign change of chi
flips = np.flatnonzero(np.diff(np.sign(series.chi[1:-1])) != 0)
print("chi sign changes at tau =", [round(float(tau[i + 1]), 3) for i in flips])

svg = series_svg(tau, {"HSS": series.hss, "negativity": series.negativity,
                       "MID": series.mid}, title="super-Ohmic freezing")
path = out_dir / "freezing_squeezed_bath.svg"
path.write_text(svg)
print("wrote", path)
