"""Command-line interface: preset/config runs, validation, telegraph oracle.

Subcommands
-----------
``run --preset fig2..fig8 | --config FILE [--out-dir D]``
    Evaluate all four quantifiers on a time grid, write
    ``<name>.csv`` (header ``tau,hss,chi,negativity,mid``, 12 significant
    digits) and ``<name>.svg`` next to each other.

``validate``
    Golden-matrix, closed-form-equivalence, bath-quadrature and
    Monte-Carlo cross-check suites; nonzero exit on any failure.

``oracle-dn --n N --q Q --tau T [--trials K] [--seed S]``
    Print the Monte-Carlo telegraph average against the closed form
    (q * tau <= 100, at most 10^6 trials).

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decoherence import rtn_dn
from .dynamics import Scenario, scenario
from .errors import ConfigInvalid, HsswitnessError, InvalidParams
from .plotting import series_svg
from .witnesses import WitnessSeries, compute_series, extrema_report

CONFIG_VERSION = 1

#: figure-style presets at the figure parameters, the defaults of each kind;
#: tau ranges are read qualitatively off the plots and therefore overridable
#: via --config
PRESETS: dict[str, dict] = {
    "fig2": {"scenario": {"kind": "squeezed"}, "tau_max": 3.0},
    "fig3": {"scenario": {"kind": "squeezed"}, "tau_max": 3.0, "p": 0.3},
    "fig4": {"scenario": {"kind": "rtn_independent"}, "tau_max": 30.0},
    "fig5": {"scenario": {"kind": "rtn_independent"}, "tau_max": 30.0, "p": 0.4},
    "fig6": {"scenario": {"kind": "rtn_common"}, "tau_max": 30.0, "p": 0.0},
    "fig7": {"scenario": {"kind": "composite"}, "tau_max": 30.0},
    "fig8": {"scenario": {"kind": "composite"}, "tau_max": 30.0, "p": 0.0},
}

#: bounds that keep a run's arrays small; a spin-s qudit is (2s+1) x (2s+1)
MAX_SPIN = 50
MAX_GRID_POINTS = 100_000

_TOP_LEVEL_KEYS = {"version", "scenario", "tau_max", "grid_points", "phi", "p",
                   "outputs"}


def _number(key: str, value) -> float:
    """A finite JSON number; booleans, strings, NaN and infinities are rejected."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"{key} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class RunConfig:
    name: str
    scenario: Scenario
    tau_max: float = 3.0
    grid_points: int = 600
    phi: float = float(np.pi)
    p: float | None = None
    outputs: tuple = ("csv", "svg")

    def __post_init__(self):
        if type(self.grid_points) is not int or not (
                16 <= self.grid_points <= MAX_GRID_POINTS):
            raise ConfigInvalid(
                f"grid_points must be an integer in [16, {MAX_GRID_POINTS}]")
        if self.tau_max <= 0:
            raise ConfigInvalid("tau_max must be > 0")
        if self.tau_max / (self.grid_points - 1) < sys.float_info.min:
            raise ConfigInvalid("tau_max / (grid_points - 1) underflows: the "
                                "grid step must be a normal float")
        if self.p is not None:
            if not 0.0 <= self.p <= 0.5:
                raise ConfigInvalid("p must lie in [0, 1/2]")
            if self.scenario.layout.dims != (2, 3):
                raise ConfigInvalid("p needs the qubit-qutrit layout, not 'spin'")
        bad = [o for o in self.outputs if o not in ("csv", "svg")]
        if bad:
            raise ConfigInvalid(f"unknown outputs {bad}")


def _scenario_number(key: str, value) -> float:
    """``_number``, then for ``spin`` the bound: spin is the last key of its
    kinds, so every other value of the block is checked first."""
    x = _number(key, value)
    if key == "spin" and x > MAX_SPIN:
        raise ConfigInvalid(f"spin must be <= {MAX_SPIN}")
    return x


def _build_scenario(block) -> Scenario:
    block = block if isinstance(block, dict) else {}
    params = {k: v for k, v in block.items() if k != "kind"}
    try:
        return scenario(block.get("kind"), _scenario_number, **params)
    except InvalidParams as exc:
        raise ConfigInvalid(str(exc)) from exc


def load_config(name: str, raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigInvalid("a config must be a JSON object")
    unknown = sorted(set(raw) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown key(s) {unknown}")
    if raw.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise ConfigInvalid(f"unsupported config version {raw.get('version')}")
    if "scenario" not in raw:
        raise ConfigInvalid("config needs a 'scenario' block")
    kwargs = {key: _number(key, raw[key]) for key in ("tau_max", "phi", "p")
              if raw.get(key) is not None}
    if raw.get("grid_points") is not None:
        kwargs["grid_points"] = raw["grid_points"]
    if "outputs" in raw:
        if not isinstance(raw["outputs"], list):
            raise ConfigInvalid("outputs must be a list")
        kwargs["outputs"] = tuple(raw["outputs"])
    return RunConfig(name=name, scenario=_build_scenario(raw["scenario"]),
                     **kwargs)


def series_to_csv(series: WitnessSeries) -> str:
    rows = zip(series.tau_grid, series.hss, series.chi, series.negativity, series.mid)
    return "".join(["tau,hss,chi,negativity,mid\n"] + [
        ",".join(format(v, ".12g") for v in row) + "\n" for row in rows])


def run_config(config: RunConfig, out_dir: Path) -> WitnessSeries:
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad --out-dir fails fast
    grid = np.linspace(0.0, config.tau_max, config.grid_points)
    series = compute_series(config.scenario, grid, phi=config.phi,
                            mixed_p=config.p)
    report = extrema_report(series)
    if "csv" in config.outputs:
        (out_dir / f"{config.name}.csv").write_text(series_to_csv(series))
    if "svg" in config.outputs:
        svg = series_svg(series.tau_grid,
                         {"HSS": series.hss, "chi": series.chi,
                          "negativity": series.negativity, "MID": series.mid},
                         title=config.name)
        (out_dir / f"{config.name}.svg").write_text(svg)
    n_ext = len(report.extrema["hss"])
    print(f"{config.name}: {config.grid_points} points, "
          f"{n_ext} HSS extrema, "
          f"{len(series.nonmarkov_intervals)} non-Markovian interval(s), "
          f"{len(report.sudden_death)} sudden-death interval(s)")
    return series


def _cmd_run(args) -> int:
    if bool(args.preset) == bool(args.config):
        print("run: exactly one of --preset / --config is required",
              file=sys.stderr)
        return 2
    try:
        if args.preset:  # argparse has checked it against PRESETS
            config = load_config(args.preset, dict(PRESETS[args.preset]))
        else:
            path = Path(args.config)
            try:
                raw = json.loads(path.read_text())
            # unreadable, not UTF-8 or not JSON
            except (OSError, ValueError) as exc:
                raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
            config = load_config(path.stem, raw)
    except ConfigInvalid as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        run_config(config, Path(args.out_dir))
    except OSError as exc:  # the output directory cannot be made or written
        print(f"invalid configuration: cannot write output: {exc}",
              file=sys.stderr)
        return 2
    # overflow and non-finite matrix entries are numerical failures too
    except (HsswitnessError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_validate(args) -> int:
    from . import validation  # the oracles load only for the commands that use them
    try:
        rows = validation.run_validation(trials=args.trials, seed=args.seed)
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    for passed, text in rows:
        print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    ok = all(passed for passed, _ in rows)
    print("validation:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_oracle_dn(args) -> int:
    from . import validation
    try:
        mean, err = validation.rtn_dn_montecarlo(args.n, args.q, args.tau,
                                                 args.trials, args.seed)
        exact = rtn_dn(args.n, args.q, args.tau)
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    sigma = abs(mean - exact) / err if err > 0 else 0.0
    print(f"monte-carlo: {mean:.6f} +/- {err:.6f}  "
          f"closed-form: {exact:.6f}  ({sigma:.2f} sigma)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsswitness",
        description="open-system non-Markovianity witnesses "
                    "(HSS, negativity, MID) under dephasing environments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a preset or config file")
    p_run.add_argument("--preset", choices=sorted(PRESETS))
    p_run.add_argument("--config", help="JSON run configuration")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="run the cross-check suites")
    p_val.add_argument("--trials", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=11)
    p_val.set_defaults(func=_cmd_validate)

    p_dn = sub.add_parser("oracle-dn",
                          help="Monte-Carlo telegraph average vs closed form")
    p_dn.add_argument("--n", type=int, required=True)
    p_dn.add_argument("--q", type=float, required=True)
    p_dn.add_argument("--tau", type=float, required=True)
    p_dn.add_argument("--trials", type=int, default=100_000)
    p_dn.add_argument("--seed", type=int, default=0)
    p_dn.set_defaults(func=_cmd_oracle_dn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
