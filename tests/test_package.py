"""The public surface of the package and the demos that use it."""

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
#: the hand-copied scenario builders, replaced by dynamics.scenario; the
#: checked eigenvalues of any Hermitian matrix, whose checks a partial
#: transpose of a checked state cannot fail, with their helper, now inside
#: checked_solve; the similar stack a DensityMatrix could be checked
#: through, replaced by the blocks of compute_series; and the environment
#: and telegraph-rate records, folded into the flat Scenario, with the private
#: certified-factors function, now factor_matrix itself
DELETED = ("ThermalOhmic", "SqueezedVacuum", "RtnIndependent", "RtnCommon",
           "CompositeRtnSqueezed", "PhiFamily", "element_factor",
           "herm_defect", "require_hermitian", "partial_trace",
           "von_neumann_entropy", "z_labels", "figure_bath",
           "scenario_squeezed", "scenario_rtn", "scenario_composite",
           "qudit_scenario", "_telegraph", "hermitian_eigenvalues",
           "_hermitian_checks", "_similar", "Environment", "RtnParams",
           "_certified_factors")


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
