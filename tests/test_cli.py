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
from hsswitness.cli import (KINDS, PRESETS, load_config, main, run_config,
                            series_to_csv)
from hsswitness.dynamics import bath_gamma
from hsswitness.errors import ConfigInvalid
from hsswitness.validation import qudit_scenario
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
        # defaults are the figure bath of qudit_scenario
        scen, k = qudit_scenario(1.5), np.arange(1, 4)
        for tau, got in rows[:, :2]:
            want = np.sqrt(np.exp(-2 * k**2 * bath_gamma(scen, tau)).sum()) / 4
            assert abs(got - want) < 1e-10

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
    ], ids=["array", "string-q", "string-nan", "nan", "bool", "float-grid",
            "string-grid", "unknown-scenario-key", "unknown-top-key",
            "negative-alpha", "p-with-spin", "p-with-six-level-spin",
            "huge-spin", "negative-nu-ratio", "p-out-of-range",
            "outputs-not-list", "scenario-not-object"])
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
@example(raw=_numerical_failure({"kind": "rtn_common"}, tau_max=1e-320))
def test_any_json_config_exits_0_2_or_3(tmp_path_factory, raw):
    out = tmp_path_factory.mktemp("anyjson")
    path = out / "any.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) in (0, 2, 3)


def test_cli_import_leaves_scipy_interpolate_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(hsswitness.__file__).parents[1]))
    code = ("import sys, hsswitness.cli; "
            "sys.exit('scipy.interpolate' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestOracleDn:
    def test_agrees_with_closed_form(self, capsys):
        assert main(["oracle-dn", "--n", "2", "--q", "0.1", "--tau", "3",
                     "--trials", "20000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "closed-form" in out

    def test_bad_n_exit_code_2(self):
        assert main(["oracle-dn", "--n", "-1", "--q", "0.1", "--tau", "3"]) == 2
