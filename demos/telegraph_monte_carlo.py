"""Cross-check the telegraph coherence factor against stochastic trajectories.

D_n(tau) = <exp(i n theta(tau))> over realizations of a two-state fluctuator
has a piecewise hyperbolic/trigonometric closed form.  Here we average 10^5
seeded trajectories and compare, reporting the deviation in standard errors.
Results are deterministic for a fixed seed.

Run:  python3 demos/telegraph_monte_carlo.py
"""

from hsswitness import rtn_dn
from hsswitness.validation import rtn_dn_montecarlo

print(f"{'n':>2} {'q':>5} {'tau':>5} {'closed form':>12} "
      f"{'monte carlo':>12} {'std err':>9} {'sigma':>6}")
for n in (1, 2, 4):
    for q, tau in ((0.1, 3.0), (1.0, 0.5), (10.0, 3.0)):
        exact = rtn_dn(n, q, tau)
        mean, err = rtn_dn_montecarlo(n, q, tau, trials=100_000, seed=11)
        sig = abs(mean - exact) / err if err > 0 else 0.0
        print(f"{n:>2} {q:>5} {tau:>5} {exact:>12.6f} "
              f"{mean:>12.6f} {err:>9.2e} {sig:>6.2f}")
