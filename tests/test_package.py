"""The public surface of the package and the demos that use it."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsswitness

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
#: oracles and test-only helpers that live outside the package namespace
NOT_EXPORTED = ("chi_qudit_closed", "hss_finite_difference", "trace_norm",
                "hs_distance", "rtn_dn_montecarlo", "mixed_coherence_factor",
                "tie_break_reference", "negativity_closed", "mid_closed",
                "evolve")
#: oracles moved out of the production modules into validation, with evolve,
#: the dense route that series are checked against
MOVED = ("rtn_dn_montecarlo", "_mc_chunk", "_MC_CHUNK", "MC_MAX_Q_TAU",
         "MC_MAX_TRIALS", "mixed_coherence_factor", "evolve")
#: names deleted from the library: the per-kind environment classes and the
#: phase-family wrapper, replaced by the Scenario record and DensityMatrix; the
#: per-element factor and the single-matrix Hermiticity helpers, replaced by
#: factor_matrix and the stacked checks of DensityMatrix; helpers that no
#: production code called, replaced by reduced_matrix and entropy_bits; and
#: the hand-copied scenario builders, replaced by scenarios.scenario; the
#: checked eigenvalues of any Hermitian matrix, whose checks a partial
#: transpose of a checked state cannot fail, with their helper, now inside
#: checked_solve; the similar stack a DensityMatrix could be checked
#: through, replaced by the blocks of compute_series; and the environment
#: and telegraph-rate records, folded into the flat Scenario, with the private
#: certified-factors function, now factor_matrix itself; and the per-value CSV
#: writer, replaced by one format of the whole table in run_config
DELETED = ("ThermalOhmic", "SqueezedVacuum", "RtnIndependent", "RtnCommon",
           "CompositeRtnSqueezed", "PhiFamily", "element_factor",
           "herm_defect", "require_hermitian", "partial_trace",
           "von_neumann_entropy", "z_labels", "figure_bath",
           "scenario_squeezed", "scenario_rtn", "scenario_composite",
           "qudit_scenario", "_telegraph", "hermitian_eigenvalues",
           "_hermitian_checks", "_similar", "Environment", "RtnParams",
           "_certified_factors", "series_to_csv")


#: each public name's home module, the one that defines it
HOMES = {
    "scenarios": ("OhmicSpectralDensity", "SqueezedBathParams",
                  "ThermalBathParams", "QUBIT_QUTRIT", "Scenario", "SpinLayout",
                  "scenario"),
    "decoherence": ("gamma_squeezed", "gamma_thermal", "rtn_dn"),
    "dynamics": ("initial_mixed", "initial_pure"),
    "hilbert": ("DensityMatrix",),
    "plotting": ("series_svg",),
    "witnesses": ("ExtremaReport", "WitnessSeries", "compute_series",
                  "extrema_report", "hss", "mid", "negativity"),
}


def _fresh_process(code):
    """Run ``code`` in a new interpreter that imports the package from source."""
    env = dict(os.environ, PYTHONPATH=str(Path(hsswitness.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_import_loads_no_numeric_module():
    # the public names resolve on first access, so the package import alone
    # (which `python -m hsswitness.cli` always runs) loads none of them
    loaded = _fresh_process(
        "import json, sys, hsswitness; print(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] in ('numpy', 'hsswitness'))))")
    assert loaded == ["hsswitness"]


def test_dir_lists_the_public_names():
    listed = _fresh_process("import json, hsswitness; "
                            "print(json.dumps(dir(hsswitness)))")
    assert set(hsswitness.__all__) <= set(listed)
    assert set(hsswitness.__all__) <= set(dir(hsswitness))


def test_homes_cover_the_public_names():
    homed = [name for names in HOMES.values() for name in names]
    assert sorted(homed) == sorted(hsswitness.__all__)
    assert len(hsswitness.__all__) == 21


@pytest.mark.parametrize("home,name", [(home, name) for home, names in HOMES.items()
                                       for name in names])
def test_public_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"hsswitness.{home}")
    assert getattr(hsswitness, name) is getattr(module, name)
    assert getattr(module, name).__module__ == module.__name__


def test_benchmark_oracle_contract():
    # the benchmark's independent oracles (perfbench/oracles.py) call these
    # library names with these arguments; a refactor must keep them working
    from hsswitness import decoherence as dec
    from hsswitness import validation as v
    from hsswitness.witnesses import mid_closed, negativity_closed
    sd = dec.OhmicSpectralDensity(0.1, 3.0, 20.0)
    thermal = dec.gamma_thermal(0.7, dec.ThermalBathParams(sd, 1.5))
    squeezed = dec.gamma_squeezed(0.7, dec.SqueezedBathParams(sd, 0.3, 0.2))
    assert type(thermal) is float and type(squeezed) is float
    assert 0.0 < squeezed and 0.0 < thermal
    for topology in ("independent", "common", "composite"):
        for closed in (negativity_closed, mid_closed):
            assert math.isfinite(closed(0.3, 0.8, topology))
    d1, d2, d3, d4, g, phi = 0.9, 0.8, 0.7, 0.6, 0.1, math.pi
    for rho in (v.golden_pure_squeezed(g, phi),
                v.golden_pure_rtn_independent(d1, d2, phi),
                v.golden_pure_rtn_common(d1, d2, d3, d4, phi),
                v.golden_pure_composite(d2, g, phi)):
        assert rho.shape == (6, 6)


def test_all_names_resolve():
    assert len(hsswitness.__all__) <= 21
    assert len(set(hsswitness.__all__)) == len(hsswitness.__all__)
    for name in hsswitness.__all__:
        getattr(hsswitness, name)


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_oracles_not_exported(name):
    assert name not in hsswitness.__all__
    assert not hasattr(hsswitness, name)


@pytest.mark.parametrize("name", MOVED)
def test_oracles_live_in_validation(name):
    from hsswitness import decoherence, dynamics, validation
    assert hasattr(validation, name)
    for module in (decoherence, dynamics):
        assert not hasattr(module, name)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    from hsswitness import (cli, decoherence, dynamics, hilbert, validation,
                            witnesses)
    for owner in (hsswitness, cli, decoherence, dynamics, hilbert, validation,
                  witnesses,
                  dynamics.SpinLayout, hilbert.DensityMatrix):
        assert not hasattr(owner, name)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(hsswitness.__file__).parents[1]))
    # the SVG demo writes into its first argument; the others ignore it
    res = subprocess.run([sys.executable, str(demo), str(tmp_path)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
