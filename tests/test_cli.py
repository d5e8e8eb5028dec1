import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hsswitness
from hsswitness import validation
from hsswitness.cli import (PRESETS, load_config, main, run_config,
                            series_to_csv)
from hsswitness.dynamics import KINDS, bath_gamma, scenario
from hsswitness.errors import ConfigInvalid
from hsswitness.validation import MC_MAX_TRIALS
from hsswitness.witnesses import WitnessSeries


def tiny_config(**overrides):
    raw = {"version": 1, "scenario": {"kind": "rtn_independent", "q": 0.1},
           "tau_max": 2.0, "grid_points": 16}
    raw.update(overrides)
    return raw


class TestConfig:
    def test_presets_all_load(self):
        for name, raw in PRESETS.items():
            config = load_config(name, dict(raw))
            assert config.name == name
            assert config.grid_points == 600

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config("x", {"tau_max": 1.0})

    def test_bad_version_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config("x", tiny_config(version=99))

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config("x", tiny_config(scenario={"kind": "nope"}))

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config("x", tiny_config(grid_points=4))

    def test_unknown_output_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config("x", tiny_config(outputs=["csv", "pdf"]))

    #: a value for every key of every kind, drawn within its domain
    DRAWS = {"alpha": (0.05, 0.2), "s_ohmic": (0.5, 4.0), "omega_c": (5.0, 30.0),
             "r": (0.0, 1.0), "theta": (0.0, 6.0), "temperature": (0.0, 5.0),
             "q": (0.01, 10.0), "nu_ratio": (1.0, 200.0)}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_config_builds_the_kinds_scenario(self, kind):
        block = {"kind": kind}
        assert load_config("x", {"scenario": block}).scenario == scenario(kind)
        rng = np.random.default_rng(sorted(KINDS).index(kind))
        params = {k: float(rng.uniform(*self.DRAWS[k])) if k != "spin"
                  else float(rng.integers(1, 7)) / 2 for k in KINDS[kind][0]}
        got = load_config("x", {"scenario": {**block, **params}}).scenario
        assert got == scenario(kind, **params)
        assert got != scenario(kind)

    @pytest.mark.parametrize("block,message", [
        ({"kind": "nope", "alpha": "x"}, "unknown scenario kind 'nope'"),
        ({"kind": "squeezed", "nu": 1, "alpha": "x"}, r"unknown key\(s\) \['nu'\]"),
        ({"kind": "squeezed", "spin": 1000, "omega_c": "x", "alpha": True},
         "alpha must be a finite number"),
        ({"kind": "squeezed", "alpha": -1, "spin": 1000.3}, "spin must be <= 50"),
        ({"kind": "squeezed", "alpha": -1, "spin": 1.3}, "spin 1.3 is not"),
        ({"kind": "composite", "q": -1, "nu_ratio": 0}, "switching rate must be"),
    ], ids=["kind", "keys", "numbers", "spin-bound", "spin-layout",
            "q-before-nu_ratio"])
    def test_first_scenario_error_wins(self, block, message):
        # unknown kind, then unknown keys, then numbers in the order of the
        # defaults, then the spin bound, then the layout and the parameters,
        # q before nu_ratio
        with pytest.raises(ConfigInvalid, match=message):
            load_config("x", {"scenario": block})


class TestCsv:
    def test_header_and_shape(self):
        grid = np.linspace(0, 1, 4)
        series = WitnessSeries(tau_grid=grid, hss=grid * 0 + 0.5,
                               chi=grid * 0, negativity=grid * 0,
                               mid=grid * 0 + 1)
        text = series_to_csv(series)
        lines = text.strip().split("\n")
        assert lines[0] == "tau,hss,chi,negativity,mid"
        assert len(lines) == 5
        assert lines[1] == "0,0.5,0,0,1"


class TestRun:
    def test_preset_writes_csv_and_svg(self, tmp_path):
        assert main(["run", "--preset", "fig2", "--out-dir", str(tmp_path)]) == 0
        csv = (tmp_path / "fig2.csv").read_text()
        assert csv.startswith("tau,hss,chi,negativity,mid\n")
        svg = (tmp_path / "fig2.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--preset", "fig4", "--out-dir", str(out)]) == 0
        assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()
        assert (a / "fig4.svg").read_bytes() == (b / "fig4.svg").read_bytes()

    def test_config_file_run(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_config()))
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "tiny.csv").read_text().strip().split("\n")
        assert len(lines) == 17

    def test_mixed_p_config(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(tiny_config(p=0.3)))
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 0

    def test_bad_config_exit_code_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tiny_config(scenario={"kind": "nope"})))
        assert main(["run", "--config", str(path)]) == 2

    def test_unparseable_config_exit_code_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_non_utf8_config_exit_code_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("where", ["file-as-parent", "file-as-out-dir",
                                       "dir-as-csv"])
    def test_unwritable_out_dir_exit_code_2(self, tmp_path, capsys,
                                            monkeypatch, where):
        # a regular file in the way, not permissions: tests may run as root
        if where != "dir-as-csv":  # found before any series is computed
            monkeypatch.setattr("hsswitness.cli.compute_series", None)
        (tmp_path / "file").write_text("x")
        (tmp_path / "fig2.csv").mkdir()
        out = {"file-as-parent": tmp_path / "file" / "sub",
               "file-as-out-dir": tmp_path / "file",
               "dir-as-csv": tmp_path}[where]
        assert main(["run", "--preset", "fig2", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid configuration: cannot write")
        assert captured.err.count("\n") == 1

    def test_preset_and_config_together_rejected(self, tmp_path):
        assert main(["run", "--preset", "fig2",
                     "--config", str(tmp_path / "x.json")]) == 2

    def test_neither_preset_nor_config_rejected(self):
        assert main(["run"]) == 2

    def test_run_config_returns_series(self, tmp_path):
        config = load_config("tiny", tiny_config(outputs=["csv"]))
        series = run_config(config, tmp_path)
        assert isinstance(series, WitnessSeries)
        assert series.tau_grid.size == 16
        assert not (tmp_path / "tiny.svg").exists()

    def test_single_spin_run(self, tmp_path):
        path = tmp_path / "qudit.json"
        path.write_text(json.dumps(tiny_config(
            scenario={"kind": "squeezed", "spin": 1.5})))
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "qudit.csv", delimiter=",", skiprows=1)
        # a single spin has no bipartition: negativity and MID are exactly 0
        assert np.all(rows[:, 3] == 0.0) and np.all(rows[:, 4] == 0.0)
        # HSS = sqrt(sum_k e^{-2 k^2 gamma}) / (2s + 1); the config's
        # defaults are the figure bath of the squeezed kind
        scen, k = scenario("squeezed", spin=1.5), np.arange(1, 4)
        for tau, got in rows[:, :2]:
            want = np.sqrt(np.exp(-2 * k**2 * bath_gamma(scen, tau)).sum()) / 4
            assert abs(got - want) < 1e-10

    def test_large_single_spin_run(self, tmp_path):
        # a spin-50 qudit has 101 levels; one bath copy, no bipartition
        config = load_config("spin50", tiny_config(
            scenario={"kind": "squeezed", "spin": 50}, grid_points=32))
        series = run_config(config, tmp_path)
        assert np.all(series.negativity == 0.0) and np.all(series.mid == 0.0)
        k = np.arange(1, 101)
        gamma = bath_gamma(config.scenario, series.tau_grid)
        want = np.sqrt(np.exp(-2 * k**2 * gamma[:, None]).sum(-1)) / 101
        assert np.abs(series.hss - want).max() < 1e-12

    @pytest.mark.parametrize("raw", [
        [tiny_config()],
        tiny_config(scenario={"kind": "rtn_independent", "q": "abc"}),
        tiny_config(tau_max="nan"),
        tiny_config(tau_max=float("nan")),
        tiny_config(scenario={"kind": "rtn_common", "q": True}),
        tiny_config(grid_points=16.5),
        tiny_config(grid_points="32"),
        tiny_config(scenario={"kind": "composite", "nu": 2.0}),
        tiny_config(seed=3),
        tiny_config(scenario={"kind": "squeezed", "alpha": -1}),
        tiny_config(scenario={"kind": "squeezed", "spin": 1.5}, p=0.3),
        tiny_config(scenario={"kind": "thermal", "spin": 2.5}, p=0.3),
        tiny_config(scenario={"kind": "squeezed", "spin": 1000.5}),
        tiny_config(scenario={"kind": "composite", "nu_ratio": -1.0}),
        tiny_config(p=0.7),
        tiny_config(outputs="csv"),
        tiny_config(scenario="rtn_independent"),
        tiny_config(scenario={"kind": "rtn_common"}, tau_max=1e-320),
        tiny_config(scenario={"kind": "rtn_independent", "nu": 1}),
    ], ids=["array", "string-q", "string-nan", "nan", "bool", "float-grid",
            "string-grid", "unknown-scenario-key", "unknown-top-key",
            "negative-alpha", "p-with-spin", "p-with-six-level-spin",
            "huge-spin", "negative-nu-ratio", "p-out-of-range",
            "outputs-not-list", "scenario-not-object",
            "underflowing-grid-step", "telegraph-nu"])
    def test_invalid_config_exit_code_2(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "bad.csv").exists()


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner,
                                          max_size=3), max_leaves=6)


@st.composite
def _configs(draw, json_values=_json_values()):
    """A well-typed config of a random kind, sometimes with one value
    replaced by (or one key added with) arbitrary JSON.

    Numbers stay in a range that a short run evaluates quickly, and every
    valid grid has at most 32 points (a missing grid_points means 600).
    """
    number = st.floats(0.0, 5.0) | st.sampled_from([-1, 0, 0.1, 0.5, 1, 1.5])
    kind = draw(st.sampled_from(sorted(KINDS)))
    keys = sorted(KINDS[kind][0])
    scenario = {"kind": kind,
                **draw(st.dictionaries(st.sampled_from(keys), number))}
    raw = {"scenario": scenario, "grid_points": draw(st.integers(16, 32)),
           **draw(st.fixed_dictionaries({}, optional={
               "version": st.just(1), "tau_max": number, "phi": number,
               "p": st.floats(0.0, 0.5),
               "outputs": st.lists(st.sampled_from(["csv", "svg", "pdf"]),
                                   max_size=2)}))}
    if draw(st.booleans()):
        block = draw(st.sampled_from([raw, scenario]))
        key = draw(st.sampled_from(sorted(block)) | st.text(max_size=4))
        if block is raw and key == "grid_points":
            block[key] = draw(json_values.filter(
                lambda v: v is not None and type(v) is not int))
        else:
            block[key] = draw(json_values)
    return raw


def _numerical_failure(scenario, tau_max=1.0):
    return {"scenario": scenario, "tau_max": tau_max, "grid_points": 16}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # degenerate grids
@settings(max_examples=60, deadline=None)
@given(raw=_configs() | _json_values())
@example(raw=_numerical_failure({"kind": "squeezed", "r": 400}))
@example(raw=_numerical_failure({"kind": "rtn_common", "q": 1e300}))
def test_any_json_config_exits_0_2_or_3(tmp_path_factory, raw):
    out = tmp_path_factory.mktemp("anyjson")
    path = out / "any.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) in (0, 2, 3)


def test_underflowing_grid_step_warns_nothing(tmp_path, recwarn, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config(tau_max=1e-320)))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_huge_squeezing_is_a_numerical_failure(tmp_path, capsys):
    path = tmp_path / "r400.json"
    path.write_text(json.dumps(_numerical_failure({"kind": "squeezed", "r": 400})))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) in (2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_long_squeezed_run(tmp_path):
    # tau up to 1e4 once needed more quadrature panels than allowed (exit 3)
    raw = {"scenario": {"kind": "squeezed"}, "tau_max": 1e4, "grid_points": 32}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "long.csv").exists()


@pytest.mark.parametrize("kind,q", [("rtn_independent", 5e6),
                                    ("rtn_common", 1e8)])
def test_fast_telegraph_noise_run(tmp_path, kind, q):
    # xi - q once cancelled at q >> n, and the state went non-positive
    raw = {"scenario": {"kind": kind, "q": q}, "tau_max": 30.0,
           "grid_points": 600}
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 0


def _hss_column(tmp_path, q):
    raw = {"scenario": {"kind": "rtn_independent", "q": q}, "tau_max": 3.0,
           "grid_points": 16}
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "frozen.csv").read_text().splitlines()[1:]
    return np.array([float(row.split(",")[1]) for row in rows])


def test_overflowing_switching_rate_stays_frozen(tmp_path):
    # q * q overflows above q ~ 1.3e154; the noise is frozen out either way
    assert np.abs(_hss_column(tmp_path, 1e200)
                  - _hss_column(tmp_path, 1e100)).max() < 1e-12


def test_validate_reports_gamma_margin():
    rows = [(passed, text) for passed, text in validation.run_validation(trials=1000)
            if "gamma-closed/quadrature" in text]
    assert len(rows) == 1
    passed, text = rows[0]
    assert passed
    assert text.startswith("gamma-closed/quadrature: max rel deviation")
    assert text.endswith("(tol 1e-08)")


def test_validate_checks_the_kinds_table(monkeypatch):
    # the golden tables check the couplings that run uses: a wrong sign on the
    # common source's qutrit winding fails them
    defaults, bath, _ = KINDS["rtn_common"]
    monkeypatch.setitem(KINDS, "rtn_common", (defaults, bath, ((2, -1),)))
    failed = [text for passed, text in validation.run_validation(trials=1000)
              if not passed]
    assert [t for t in failed if t.startswith("golden/") and "-rtn-common:" in t]


def test_validate_prints_the_rows(capsys, monkeypatch):
    rows = [(True, "golden/a: max deviation 0.00e+00"), (False, "b: off")]
    monkeypatch.setattr(validation, "run_validation", lambda trials, seed: rows)
    assert main(["validate"]) == 1
    assert capsys.readouterr().out == ("[PASS] golden/a: max deviation 0.00e+00\n"
                                       "[FAIL] b: off\n"
                                       "validation: FAIL\n")


def test_validate_draws_one_trajectory_set_per_point(capsys, monkeypatch):
    # theta(tau) does not depend on n, so the 12 Monte-Carlo rows come from
    # 3 (q, tau) points x 5 chunks of 20,000 trajectories, not 60 chunks
    calls = []
    chunk = validation._mc_chunk
    monkeypatch.setattr(validation, "_mc_chunk",
                        lambda ns, *args: calls.append(ns) or chunk(ns, *args))
    assert main(["validate"]) == 0
    assert calls == [(1, 2, 3, 4)] * 15
    assert capsys.readouterr().out.count("[PASS] mc-dn(") == 12


@pytest.mark.parametrize("args", [["--trials", "10"], ["--seed", "-3"]],
                         ids=["too-few-trials", "negative-seed"])
def test_validate_bad_arguments_exit_code_2(capsys, args):
    assert main(["validate", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid parameters: ")
    assert captured.err.count("\n") == 1


def _python_env():
    return dict(os.environ, PYTHONPATH=str(Path(hsswitness.__file__).parents[1]))


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # nothing in the library needs scipy, so no scipy module may load
    code = ("import sys, hsswitness, hsswitness.cli, hsswitness.validation; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code],
                          env=_python_env()).returncode == 0


def test_run_loads_no_oracle_module(tmp_path):
    # validation (and numpy.polynomial, for its Gauss-Legendre nodes) load
    # only for validate and oracle-dn
    code = ("import sys, hsswitness.cli; "
            "assert hsswitness.cli.main(['run', '--preset', 'fig2', '--out-dir', "
            f"{str(tmp_path)!r}]) == 0; "
            "print(sorted({'hsswitness.validation', 'numpy.polynomial'} "
            "& set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], env=_python_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


class TestOracleDn:
    def test_agrees_with_closed_form(self, capsys):
        assert main(["oracle-dn", "--n", "2", "--q", "0.1", "--tau", "3",
                     "--trials", "20000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "closed-form" in out

    def test_bad_n_exit_code_2(self, capsys):
        assert main(["oracle-dn", "--n", "-1", "--q", "0.1", "--tau", "3"]) == 2
        assert main(["oracle-dn", "--n", "1", "--q", "0.1", "--tau", "1",
                     "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid parameters: n must be a positive integer\n"
                                "invalid parameters: seed must be an integer >= 0\n")

    @pytest.mark.parametrize("args", [
        ["--q", "nan", "--tau", "1"],
        ["--q", "0.1", "--tau", "nan"],
        ["--q", "inf", "--tau", "1"],
        ["--q", "0.1", "--tau", "inf"],
        ["--q", "0.1", "--tau", "1e300"],
        ["--q", "0.1", "--tau", "1", "--trials", str(MC_MAX_TRIALS + 1)],
    ], ids=["nan-q", "nan-tau", "inf-q", "inf-tau", "huge-q-tau",
            "too-many-trials"])
    def test_unbounded_work_exit_code_2(self, args):
        # in a subprocess with a timeout, so that a run without bounds fails
        # instead of hanging the suite
        res = subprocess.run(
            [sys.executable, "-m", "hsswitness.cli", "oracle-dn", "--n", "1",
             *args], env=_python_env(), capture_output=True, text=True,
            timeout=30)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
