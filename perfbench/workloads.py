"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a closed loop with one caller: a fixed mix of operations
(a *cycle*) is run again and again, each operation starting when the
previous one ends.  Cycle ``k`` of a run with seed ``s`` draws its
parameters from ``numpy.random.default_rng([s, k])``, so the same seed
gives the same inputs and the mix is the same in every cycle.

* ``bath_sweep`` -- cold bath-driven series (composite, squeezed and
  thermal at T > 0).  Only amplitudes and phases are drawn, so the
  quadrature panel counts stay fixed while every series misses the Γ cache.
* ``rtn_sweep`` -- telegraph-only series, independent and common source,
  pure and mixed family, q in the slow regime, on the q = n seam and in
  the fast regime.
* ``cli_batch`` -- ``hsswitness`` subprocesses: presets, seeded configs of
  every kind (spin qudit included), deliberately invalid configs,
  ``validate`` and ``oracle-dn``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracles

GRID_POINTS = 600
TAU_MAX = 30.0
PHI = math.pi
#: points per series checked against the oracles
CHECK_POINTS = 4
#: series checked per run; later series are only timed
MAX_CHECKED = 36
#: grid of the seeded configs; fixed, so that their cost does not vary by seed
CONFIG_POINTS = 64
#: wall-clock limit of one subprocess
SUBPROCESS_TIMEOUT = 150.0

BATH = {"alpha": 0.1, "s_ohmic": 3.0, "omega_c": 20.0}


@dataclass
class Op:
    """One operation of a cycle and, once run, its outcome."""

    label: str
    spec: dict | None = None
    p: float | None = None
    tau_max: float = TAU_MAX
    grid_points: int = GRID_POINTS
    argv: list | None = None
    expect: int = 0
    # outcome: time in reference seconds (see clock.py) and raw
    seconds: float = math.nan
    raw_seconds: float = math.nan
    span: tuple = (math.nan, math.nan)
    exit: int | None = None
    reason: str = ""
    stdout: str = ""
    checks: list = field(default_factory=list)

    @property
    def is_series(self):
        return self.argv is None

    @property
    def points(self):
        if self.is_series or self.argv[0] == "run" and self.exit == 0:
            return self.grid_points
        return 0

    @property
    def failed(self):
        return self.exit != self.expect or bool(oracles.failed(self.checks))

    def failure_reason(self):
        if self.exit != self.expect:
            return f"exit {self.exit} (expected {self.expect}): {self.reason}"
        return "check failed: " + ", ".join(sorted(set(oracles.failed(self.checks))))


# --- input generation ------------------------------------------------------------

def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def bath_cycle(rng):
    squeezed = dict(kind="squeezed", **BATH, r=_u(rng, 0.0, 1.0),
                    theta=_u(rng, 0.0, 2 * math.pi))
    squeezed["alpha"] = _u(rng, 0.05, 0.2)
    thermal = dict(kind="thermal", **BATH, temperature=_u(rng, 0.5, 5.0))
    thermal["alpha"] = _u(rng, 0.05, 0.2)
    composite = dict(kind="composite", **BATH, r=_u(rng, 0.0, 1.0),
                     theta=_u(rng, 0.0, 2 * math.pi), q=_u(rng, 0.05, 1.0),
                     nu_ratio=100.0)
    composite["alpha"] = _u(rng, 0.05, 0.2)
    return [Op("squeezed", squeezed), Op("thermal", thermal),
            Op("composite", composite)]


def _q(rng, regime):
    if regime == "slow":
        return _u(rng, 0.02, 0.98)
    if regime == "seam":
        return int(rng.integers(1, 5)) + _u(rng, -0.9, 0.9) * oracles.RTN_SEAM
    return _u(rng, 4.5, 12.0)


def rtn_cycle(rng):
    ops = []
    for kind in ("rtn_independent", "rtn_common"):
        for family in ("pure", "mixed"):
            for regime in ("slow", "seam", "fast"):
                spec = {"kind": kind, "q": _q(rng, regime)}
                p = _u(rng, 0.0, 0.5) if family == "mixed" else None
                ops.append(Op(f"{kind}-{family}-{regime}", spec, p))
    return ops


#: presets and the scenario each one stands for (the CLI defaults)
PRESETS = {
    "fig2": (dict(kind="squeezed", **BATH, r=0.3, theta=0.0), None, 3.0),
    "fig3": (dict(kind="squeezed", **BATH, r=0.3, theta=0.0), 0.3, 3.0),
    "fig4": ({"kind": "rtn_independent", "q": 0.1}, None, 30.0),
    "fig5": ({"kind": "rtn_independent", "q": 0.1}, 0.4, 30.0),
    "fig6": ({"kind": "rtn_common", "q": 0.1}, 0.0, 30.0),
}


def cli_cycle(rng):
    """Subprocess operations; ``run --config`` ops carry their config's spec."""
    ops = [Op(name, spec, p, tau, argv=["run", "--preset", name])
           for name, (spec, p, tau) in PRESETS.items()]

    def bath():
        return dict(BATH, alpha=_u(rng, 0.05, 0.2))

    for variant in (1, 2):  # two seeded configs per kind steady the median
        configs = [
            ("squeezed", dict(kind="squeezed", **bath(), r=_u(rng, 0.0, 1.0),
                              theta=_u(rng, 0.0, 2 * math.pi)), None, 2.0),
            ("thermal", dict(kind="thermal", **bath(),
                             temperature=_u(rng, 0.5, 5.0)), _u(rng, 0.0, 0.5), 2.0),
            ("rtn_independent", {"kind": "rtn_independent",
                                 "q": _u(rng, 0.02, 0.98)}, None, 20.0),
            ("rtn_common", {"kind": "rtn_common", "q": _u(rng, 4.5, 12.0)},
             _u(rng, 0.0, 0.5), 20.0),
            ("composite", dict(kind="composite", **bath(), r=_u(rng, 0.0, 1.0),
                               theta=_u(rng, 0.0, 2 * math.pi),
                               q=_u(rng, 0.05, 1.0), nu_ratio=100.0), None, 1.0),
            ("squeezed_spin", dict(kind="squeezed", **bath(), r=_u(rng, 0.0, 1.0),
                                   theta=0.0, spin=float(rng.integers(1, 5)) / 2),
             None, 2.0),
            ("thermal_spin", dict(kind="thermal", **bath(),
                                  temperature=_u(rng, 0.5, 5.0),
                                  spin=float(rng.integers(1, 5)) / 2), None, 2.0),
        ]
        for name, spec, p, tau in configs:
            ops.append(Op(f"{name}-{variant}", spec, p, tau,
                          grid_points=CONFIG_POINTS, argv=["run", "--config"]))
    invalid = [
        ("bad_kind", {"scenario": {"kind": "telegraph"}}),
        ("coarse_grid", {"scenario": {"kind": "rtn_common"}, "grid_points": 8}),
        ("bad_version", {"version": 2, "scenario": {"kind": "squeezed"}}),
        ("negative_alpha", {"scenario": {"kind": "squeezed", "alpha": -1}}),
    ]
    for name, raw in invalid:
        ops.append(Op(name, raw, argv=["run", "--config"], expect=2))
    ops.append(Op("validate", argv=["validate"]))
    for regime, q in (("slow", _u(rng, 0.05, 0.9)), ("fast", _u(rng, 5.0, 12.0))):
        n, tau = int(rng.integers(1, 5)), round(_u(rng, 0.5, 5.0), 6)
        ops.append(Op(f"oracle-dn-{regime}", {"n": n, "q": q, "tau": tau},
                      argv=["oracle-dn", "--n", str(n), "--q", repr(q),
                            "--tau", repr(tau)]))
    return ops


CYCLES = {"bath_sweep": bath_cycle, "rtn_sweep": rtn_cycle,
          "cli_batch": cli_cycle}


def make_cycle(workload, seed, k):
    return CYCLES[workload](np.random.default_rng([seed, k]))


def config_json(op):
    """The config file text of a ``run --config`` operation."""
    if op.expect != 0:
        return json.dumps(op.spec, sort_keys=True)
    raw = {"version": 1, "scenario": op.spec, "tau_max": op.tau_max,
           "grid_points": op.grid_points}
    if op.p is not None:
        raw["p"] = op.p
    return json.dumps(raw, sort_keys=True)


def build_series_inputs(ops):
    """Scenarios of series operations, built through the config contract."""
    from hsswitness import cli
    return [cli.load_config(op.label, json.loads(config_json(op))).scenario
            for op in ops]


# --- running operations -------------------------------------------------------------

def run_series(op, scenario, clock):
    """Time one series with ``clock``; return it, or None if it raised."""
    from hsswitness import witnesses
    grid = np.linspace(0.0, op.tau_max, op.grid_points)

    def body():
        try:
            series = witnesses.compute_series(scenario, grid, phi=PHI,
                                              mixed_p=op.p)
            witnesses.extrema_report(series)
            return series
        except Exception as exc:  # a failed operation is counted, not fatal
            return exc

    result, op.raw_seconds, op.span = clock.time(body)
    op.seconds = clock.reference(op.raw_seconds, op.span)
    if isinstance(result, Exception):
        op.exit, op.reason = 1, f"{type(result).__name__}: {result}"
        return None
    op.exit = 0
    return result


def sample_points(series, rng):
    idx = sorted(rng.choice(series.tau_grid.size, CHECK_POINTS, replace=False))
    return [(float(series.tau_grid[i]), float(series.hss[i]),
             float(series.negativity[i]), float(series.mid[i])) for i in idx]


def has_bath(spec):
    return spec["kind"] in ("squeezed", "thermal", "composite")


def check_series(op, points):
    tol = oracles.TOL_BATH if has_bath(op.spec) else oracles.TOL_CLOSED
    for tau, h, n, m in points:
        op.checks += oracles.check_point(op.spec, tau, (h, n, m), PHI, op.p, tol)
    if has_bath(op.spec):
        for tau, *_ in points[:2]:
            op.checks.append(oracles.check_gamma(op.spec, tau))


def cli_env(root, workers=1):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    env["HSSWITNESS_WORKERS"] = str(workers)
    return env


def full_argv(op, tmp):
    argv = list(op.argv)
    if argv[0] == "run":
        if argv[1] == "--config":
            path = os.path.join(tmp, "cfg", f"{op.label}.json")
            argv.append(path)
        argv += ["--out-dir", os.path.join(tmp, "out")]
    return argv


def write_configs(ops, tmp):
    os.makedirs(os.path.join(tmp, "cfg"), exist_ok=True)
    for op in ops:
        if op.argv and op.argv[:2] == ["run", "--config"]:
            with open(os.path.join(tmp, "cfg", f"{op.label}.json"), "w") as fh:
                fh.write(config_json(op))


def run_subprocess(op, tmp, env, clock):
    argv = [sys.executable, "-m", "hsswitness.cli"] + full_argv(op, tmp)

    def body():
        try:
            return subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None

    res, op.raw_seconds, op.span = clock.time(body, during=False)
    op.seconds = clock.reference(op.raw_seconds, op.span)
    if res is None:
        op.exit, op.reason = -1, f"timeout after {SUBPROCESS_TIMEOUT:g} s"
        return
    op.exit, op.stdout = res.returncode, res.stdout
    tail = (res.stderr.strip().splitlines() or [""])[-1]
    op.reason = tail[:160]


def run_inprocess(op, tmp):
    """``hsswitness.cli.main(argv)`` in this process, as the traced run needs."""
    import contextlib
    import io
    from hsswitness import cli
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get("HSSWITNESS_WORKERS")
    os.environ["HSSWITNESS_WORKERS"] = "1"
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(full_argv(op, tmp))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is exit 1 for a process
        code = 1
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        op.seconds = op.raw_seconds = time.perf_counter() - t0
        if old is None:
            del os.environ["HSSWITNESS_WORKERS"]
        else:
            os.environ["HSSWITNESS_WORKERS"] = old
    op.exit, op.stdout = code, out.getvalue()
    op.reason = ((err.getvalue().strip().splitlines() or [""])[-1])[:160]


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def check_cli(op, tmp, rng):
    """Output checks of one finished subprocess that exited as expected."""
    if op.exit != op.expect or op.expect != 0:
        return
    try:
        _check_outputs(op, tmp, rng)
    except (OSError, ValueError, IndexError):  # missing or malformed output
        op.checks.append(("output-readable", math.inf, 0.0))


def _check_outputs(op, tmp, rng):
    kind = op.argv[0]
    if kind == "validate":
        last = (op.stdout.strip().splitlines() or [""])[-1]
        op.checks.append(("validate-pass", 0.0 if last == "validation: PASS"
                          else math.inf, 0.0))
        return
    if kind == "oracle-dn":
        line = (op.stdout.strip().splitlines() or [""])[-1]
        op.checks += oracles.check_dn_cli(line, op.spec["n"], op.spec["q"],
                                          op.spec["tau"])
        return
    out = os.path.join(tmp, "out", op.label)
    header, rows = _read_csv(out + ".csv")
    shape_ok = (header == "tau,hss,chi,negativity,mid"
                and len(rows) == op.grid_points)
    op.checks.append(("csv-shape", 0.0 if shape_ok else math.inf, 0.0))
    with open(out + ".svg") as fh:
        svg = fh.read()
    svg_ok = (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
              and svg.count("<polyline") == 4)
    op.checks.append(("svg-shape", 0.0 if svg_ok else math.inf, 0.0))
    if not shape_ok:
        return
    tol = oracles.TOL_BATH if has_bath(op.spec) else oracles.TOL_CSV
    for i in sorted(rng.choice(len(rows), 3, replace=False)):
        tau, h, _, n, m = rows[i]
        op.checks += oracles.check_point(op.spec, tau, (h, n, m), PHI, op.p, tol)


def file_bytes(tmp, label):
    out = os.path.join(tmp, "out", label)
    with open(out + ".csv", "rb") as a, open(out + ".svg", "rb") as b:
        return a.read(), b.read()
