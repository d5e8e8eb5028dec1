"""The preset outputs as a regression contract.

``goldens/`` holds what ``run --preset fig2`` ... ``fig8`` wrote: each
CSV, each printed ``run`` line (``runs.txt``) and one SHA-256 per SVG
(``svg.sha256``, in ``sha256sum`` format).  They were written by the code
under test, so they are regression goldens, not oracles: they catch a change
of any preset's output, and they replace none of the oracle tests.

Run this file as a script to print every CSV cell whose bytes moved against
the goldens, or with ``--write`` to replace the goldens by this tree's output:

    PYTHONPATH=src python3 tests/test_goldens.py [--write]
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from hsswitness.cli import PRESETS, load_config, run_config

GOLDENS = Path(__file__).parent / "goldens"
FIGURES = sorted(PRESETS)
#: a cell may move by this fraction of the largest |value| of its golden column.
#: Above: a last-bit change of a value that sits on a rounding boundary flips
#: its 12th significant digit, a move of up to 1e-11 of the cell (0.1000000000005
#: prints as ...00 or ...01; fig5's negativity column peaks at 0.1); last-bit
#: drift between LAPACK builds is of that kind.  Below: scaling F's
#: off-diagonal entries by 1 + 2e-10 moves every preset by >= 1.4e-10.
COLUMN_TOL = 2e-11


def run_presets(out_dir):
    """Run every preset into ``out_dir``; return their printed lines."""
    lines = io.StringIO()
    with contextlib.redirect_stdout(lines):
        for name in FIGURES:
            run_config(load_config(name, dict(PRESETS[name])), Path(out_dir))
    return lines.getvalue()


def svg_hashes(out_dir):
    return {f"{name}.svg": hashlib.sha256((Path(out_dir) / f"{name}.svg").read_bytes())
            .hexdigest() for name in FIGURES}


def read_csv(path):
    text = Path(path).read_text()
    header, *rows = text.splitlines()
    return header.split(","), [row.split(",") for row in rows]


def moved_cells(want_path, got_path, tol=0.0):
    """'row column: golden -> got' for each cell that moved by more than ``tol``
    times its golden column's largest |value| (any byte change when 0)."""
    header, want = read_csv(want_path)
    got_header, got = read_csv(got_path)
    if got_header != header or len(got) != len(want):
        return [f"header {got_header} or {len(got)} rows, not {header} and {len(want)}"]
    a, b = np.array(want, dtype=float), np.array(got, dtype=float)
    bound = tol * np.abs(a).max(0)
    out = []
    for i, j in zip(*np.nonzero(np.array(want) != np.array(got))):
        if tol == 0 or not abs(a[i, j] - b[i, j]) <= bound[j]:
            out.append(f"row {i + 1} {header[j]}: {want[i][j]} -> {got[i][j]}")
    return out


@pytest.fixture(scope="module")
def preset_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("presets")
    return out, run_presets(out)


def test_run_lines(preset_run):
    assert preset_run[1] == (GOLDENS / "runs.txt").read_text()


@pytest.mark.parametrize("name", FIGURES)
def test_csv_within_column_tolerance(preset_run, name):
    moved = moved_cells(GOLDENS / f"{name}.csv", preset_run[0] / f"{name}.csv",
                        COLUMN_TOL)
    assert not moved, "\n".join(moved[:20])


def golden_svg_hashes():
    return dict(line.split()[::-1]
                for line in (GOLDENS / "svg.sha256").read_text().splitlines())


def test_svg_hashes(preset_run):
    assert svg_hashes(preset_run[0]) == golden_svg_hashes()


@pytest.mark.parametrize("name", FIGURES)
def test_svg_is_well_formed_xml(preset_run, name):
    root = ElementTree.parse(preset_run[0] / f"{name}.svg").getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 4


if __name__ == "__main__":
    write = sys.argv[1:] == ["--write"]
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_presets(tmp)
        for name in FIGURES:
            got = Path(tmp) / f"{name}.csv"
            for cell in moved_cells(GOLDENS / f"{name}.csv", got):
                print(f"{name}.csv {cell}")
            if write:
                (GOLDENS / f"{name}.csv").write_text(got.read_text())
        if runs != (GOLDENS / "runs.txt").read_text():
            print("runs.txt moved:\n" + runs)
        hashes = svg_hashes(tmp)
        for svg, h in hashes.items():
            if golden_svg_hashes()[svg] != h:
                print(f"{svg} moved")
        if write:
            (GOLDENS / "runs.txt").write_text(runs)
            (GOLDENS / "svg.sha256").write_text(
                "".join(f"{h}  {svg}\n" for svg, h in hashes.items()))
