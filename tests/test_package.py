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
                "hs_distance")


def test_all_names_resolve():
    assert len(hsswitness.__all__) <= 30
    assert len(set(hsswitness.__all__)) == len(hsswitness.__all__)
    for name in hsswitness.__all__:
        getattr(hsswitness, name)


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_oracles_not_exported(name):
    assert name not in hsswitness.__all__
    assert not hasattr(hsswitness, name)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(hsswitness.__file__).parents[1]))
    # the SVG demo writes into its first argument; the others ignore it
    res = subprocess.run([sys.executable, str(demo), str(tmp_path)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
