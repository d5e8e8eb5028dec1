"""Single-qudit Hilbert-Schmidt speed tracks the damping rate sign.

For one spin-s system dephasing in a squeezed reservoir the HSS has a closed
form, and its time derivative chi satisfies sign(chi) = sign(-dgamma/dt) for
every s.  So chi > 0, i.e. information backflow, happens exactly while the
decoherence exponent gamma(t) is decreasing, independent of the dimension.

Run:  python3 demos/qudit_speed_sign_law.py
"""

import numpy as np

from hsswitness import compute_series, scenario
from hsswitness.dynamics import bath_gamma
from hsswitness.validation import chi_qudit_closed

for s in (0.5, 1.0, 1.5, 3.0):
    # one spin-s qudit in the figure squeezed bath
    qudit = scenario("squeezed", spin=s)
    taus = np.linspace(0.05, 3.0, 120)
    ok = True
    for tau in taus:
        h = 1e-5
        dg = (bath_gamma(qudit, tau + h)
              - bath_gamma(qudit, tau - h)) / (2 * h)
        if abs(dg) < 1e-8:
            continue
        chi = chi_qudit_closed(s, bath_gamma(qudit, tau), dg)
        ok &= np.sign(chi) == np.sign(-dg)
    hss_at_1 = compute_series(qudit, [1.0, 2.0], phi=0.0).hss[0]
    print(f"s = {s:>3}: dim {int(2 * s + 1)}, HSS(tau=1) = {hss_at_1:.6f}, "
          f"sign law holds: {bool(ok)}")
