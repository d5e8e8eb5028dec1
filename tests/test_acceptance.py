"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or on
failure) and asserts the same condition, so the suite doubles as a
human-readable report.
"""

import time

import numpy as np

from hsswitness.decoherence import (OhmicSpectralDensity, SqueezedBathParams,
                                    ThermalBathParams, gamma_squeezed,
                                    gamma_thermal, rtn_dn)
from hsswitness.dynamics import (QUBIT_QUTRIT, bath_gamma, initial_mixed,
                                 initial_pure, scenario)
from hsswitness.validation import (check_golden_matrices, check_montecarlo,
                                   chi_qudit_closed, evolve,
                                   hss_finite_difference,
                                   mixed_coherence_factor)
from hsswitness.witnesses import (compute_series, extrema_report, hss, mid,
                                  mid_closed, negativity, negativity_closed)


def _report(label: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _scenarios():
    return {
        "squeezed": (scenario("squeezed"), 3.0, "independent"),
        "rtn-independent": (scenario("rtn_independent", q=0.1), 30.0, "independent"),
        "rtn-common": (scenario("rtn_common", q=0.1), 30.0, "common"),
        "composite": (scenario("composite", q=0.1), 3.0, "composite"),
    }


def test_01_initial_value_anchors():
    worst_pure = 0.0
    for scen, tau_max, _ in _scenarios().values():
        rho = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), 0.0)
        worst_pure = max(worst_pure, abs(hss(rho) - np.sqrt(5.0) / 6.0))
    scen = scenario("squeezed", spin=0.5)
    worst_qudit = 0.0
    for tau in np.linspace(0.0, 3.0, 40):
        g = bath_gamma(scen, tau)
        rho = evolve(scen, initial_pure(scen.layout, 0.4), tau)
        worst_qudit = max(worst_qudit, abs(hss(rho) - 0.5 * np.exp(-g)))
    _report("initial-value anchors",
            worst_pure < 1e-12 and worst_qudit < 1e-10,
            f"pure dev {worst_pure:.1e}, spin-1/2 dev {worst_qudit:.1e}")


def test_02_golden_matrices():
    start = time.perf_counter()
    results = check_golden_matrices(n_times=20)
    elapsed = time.perf_counter() - start
    worst = max(dev for _, dev in results)
    _report("golden evolution tables",
            worst < 1e-12 and len(results) == 8 and elapsed < 5.0,
            f"worst entry dev {worst:.1e} in {elapsed:.2f}s")


def test_03_closed_form_equivalence():
    # each scenario's grid is one stacked call of evolve and of each witness
    worst_nm = 0.0
    for scen, tau_max, topo in _scenarios().values():
        grid = np.linspace(0.0, tau_max, 600)
        factors = mixed_coherence_factor(scen, grid)
        for p in (0.0, 0.1, 0.3, 0.4):
            state = evolve(scen, initial_mixed(p), grid)
            worst_nm = max(
                worst_nm,
                np.abs(negativity(state) - [negativity_closed(p, F, topo)
                                            for F in factors]).max(),
                np.abs(mid(state) - [mid_closed(p, F, topo)
                                     for F in factors]).max())

    def printed_hss(name, scen, tau):
        if name == "squeezed":
            g = bath_gamma(scen, tau)
            return np.sqrt(2 * np.exp(-2 * g) + np.exp(-4 * g)
                           + np.exp(-8 * g) + np.exp(-10 * g)) / 6
        d = [rtn_dn(n, 0.1, tau) for n in (1, 2, 3, 4)]
        if name == "rtn-independent":
            return np.sqrt(d[0]**2 + 2 * d[1]**2 + d[1]**2 * d[0]**2
                           + d[1]**4) / 6
        return np.sqrt(d[0]**2 + 2 * d[1]**2 + d[2]**2 + d[3]**2) / 6

    worst_h = 0.0
    cases = _scenarios()
    for name in ("squeezed", "rtn-independent", "rtn-common"):
        scen, tau_max, _ = cases[name]
        grid = np.linspace(0.0, tau_max, 30)
        got = hss(evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), grid))
        worst_h = max(worst_h,
                      np.abs(got - printed_hss(name, scen, grid)).max(),
                      np.abs(got - hss_finite_difference(scen, grid, np.pi)).max())
    _report("closed-form equivalence",
            worst_nm < 1e-10 and worst_h < 1e-6,
            f"neg/MID dev {worst_nm:.1e}, HSS dev {worst_h:.1e}")


def test_04_regime_discrimination():
    grid = np.linspace(0.0, 30.0, 601)
    step = grid[1] - grid[0]

    slow = compute_series(scenario("rtn_independent", q=0.1), grid)
    report = extrema_report(slow)
    worst_offset = 0.0
    for info in report.alignment.values():
        if info["in_sudden_death"]:
            continue
        worst_offset = max(worst_offset, min(info["negativity_offset"],
                                             info["mid_offset"]))
    slow_ok = (len(slow.nonmarkov_intervals) >= 1
               and worst_offset <= 2 * step + 1e-12
               and 2 * step <= 0.1 + 1e-12)

    fast = compute_series(scenario("rtn_independent", q=10.0), grid)
    fast_ok = (np.all(fast.chi <= 1e-8)
               and np.all(np.diff(fast.negativity) <= 1e-10)
               and np.all(np.diff(fast.mid) <= 1e-10))
    _report("slow vs fast telegraph regimes", slow_ok and fast_ok,
            f"{len(slow.nonmarkov_intervals)} revival interval(s), "
            f"extremum offset {worst_offset:.3f}, "
            f"fast chi max {fast.chi.max():.1e}")


def test_05_entanglement_sudden_death():
    grid = np.linspace(0.0, 30.0, 601)
    series = compute_series(scenario("rtn_independent", q=0.1), grid, mixed_p=0.4)
    dead = (series.negativity < 1e-6) & (series.mid > 1e-3)
    runs = np.flatnonzero(dead[:-1] & dead[1:])
    _report("sudden death with surviving quantum correlations",
            runs.size >= 1,
            f"{int(dead.sum())} nodes with zero negativity and MID > 1e-3")


def test_06_common_environment_freezing():
    scen = scenario("rtn_common", q=0.1)
    rho0 = initial_mixed(0.0)
    worst = 0.0
    mids = []
    for tau in np.linspace(0.0, 30.0, 60):
        state = evolve(scen, rho0, tau)
        hs_distance = np.linalg.norm(state.matrix - rho0.matrix) / np.sqrt(2)
        worst = max(worst, hs_distance)
        mids.append(mid(state))
    mids = np.asarray(mids)
    _report("decoherence-free freezing under a common source",
            worst < 1e-12 and np.ptp(mids) < 1e-12,
            f"max distance from initial {worst:.1e}")


def test_07_super_ohmic_freezing():
    grid = np.linspace(0.0, 3.0, 600)
    series = compute_series(scenario("squeezed"), grid)
    tail = slice(int(0.9 * grid.size), None)
    variation = max(np.ptp(series.hss[tail]), np.ptp(series.negativity[tail]),
                    np.ptp(series.mid[tail]))
    signs = np.sign(series.chi[:tail.start])
    signs = signs[signs != 0]
    sign_change = np.any(signs[:-1] != signs[1:])
    _report("freezing with an earlier revival",
            variation < 1e-3 and sign_change,
            f"tail variation {variation:.1e}")


def test_08_qudit_sign_law():
    ok = True
    for s in (0.5, 1.0, 1.5, 3.0):
        scen = scenario("squeezed", spin=s)
        for tau in np.linspace(0.05, 3.0, 40):
            h = 1e-5
            dg = (bath_gamma(scen, tau + h) - bath_gamma(scen, tau - h)) / (2 * h)
            if abs(dg) < 1e-8:
                continue
            g = bath_gamma(scen, tau)
            ok &= np.sign(chi_qudit_closed(s, g, dg)) == np.sign(-dg)
    _report("speed-derivative sign tracks the damping rate", bool(ok))


def test_09_stochastic_oracle():
    start = time.perf_counter()
    results = check_montecarlo(trials=100_000, seed=11)
    elapsed = time.perf_counter() - start
    worst_sig = max(sig for _, sig, _ in results)
    worst_err = max(err for _, _, err in results)
    _report("telegraph Monte-Carlo vs closed form",
            worst_sig <= 3.0 and worst_err <= 5e-3
            and len(results) == 12 and elapsed < 30.0,
            f"worst {worst_sig:.2f} sigma, |err| {worst_err:.1e} "
            f"in {elapsed:.1f}s")


def test_10_quadrature_oracle():
    spectral = OhmicSpectralDensity(alpha=0.1, s_ohmic=3.0, omega_c=20.0)
    thermal = ThermalBathParams(spectral, temperature=1.0)
    squeezed = SqueezedBathParams(spectral, r=0.3, theta=0.0)

    def trapezoid(params, t, squeeze):
        # the super-Ohmic integrand vanishes at w = 0, so the grid can
        # start at the origin with a zero first sample
        w = np.linspace(0.0, 50 * spectral.omega_c, 1_000_000)
        wk = w[1:]
        j = spectral.alpha * wk ** spectral.s_ohmic \
            / spectral.omega_c ** (spectral.s_ohmic - 1) * np.exp(-wk / spectral.omega_c)
        core = j * 2 * np.sin(wk * t / 2) ** 2 / wk**2
        if squeeze:
            r, th = params.r, params.theta
            core *= np.cosh(2 * r) - np.sinh(2 * r) * np.cos(wk * t - th)
        else:
            core *= 1.0 / np.tanh(wk / (2 * params.temperature))
        return np.trapezoid(np.concatenate(([0.0], core)), w)

    worst = 0.0
    for t in np.linspace(0.2, 30.0, 10):
        worst = max(worst,
                    abs(gamma_thermal(t, thermal) - trapezoid(thermal, t, False)),
                    abs(gamma_squeezed(t, squeezed) - trapezoid(squeezed, t, True)))

    unsqueezed = SqueezedBathParams(spectral, r=0.0, theta=0.0)
    cold = ThermalBathParams(spectral, temperature=0.0)
    worst_r0 = max(abs(gamma_squeezed(t, unsqueezed) - gamma_thermal(t, cold))
                   for t in np.linspace(0.2, 30.0, 10))
    _report("decoherence-function quadrature",
            worst < 1e-6 and worst_r0 < 1e-8,
            f"trapezoid dev {worst:.1e}, r=0 vs T=0 dev {worst_r0:.1e}")
