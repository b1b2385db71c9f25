"""Printed D cells held to exact values (see exact.py).

Every cell of figures 2, 4, 5 and 8 and of the benchmark's photon-counting
sweep that a closed form covers is compared, as printed, with that closed
form.  Each column's bound is the worst relative error that its printed
cells carry today, rounded up at two significant digits: the trapezoid
grids' discretisation error.  A change that moves a cell further from the
exact value fails here; one that moves it closer passes and may tighten
the bound.
"""

import pytest

import exact
from macrolens.figures import parse_sweep_config, run_figure, sweep

# the photon-counting sweep of the benchmark's pnrd-sweep workload
SWEEP_CONFIG = ("family = psv\nstart = 0.5\nstop = 2.5\nsteps = 5\n"
                "detector = pnrd\nsigma = 1, 2, 3\n")


def printed(table) -> list[dict]:
    """The table's rows as rendered in its CSV, one {column: cell text} each."""
    lines = [line for line in table.to_csv().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def worst_relative(pairs) -> float:
    """The largest |printed - exact| / |exact| over (cell text, exact) pairs."""
    return max(abs(float(cell) - value) / abs(value) for cell, value in pairs)


@pytest.fixture(scope="module")
def figure2():
    return printed(run_figure(2))


@pytest.fixture(scope="module")
def figure8():
    return printed(run_figure(8))


def test_figure2_css_homodyne(figure2):
    assert len(figure2) == 61
    exacts = [exact.css_homodyne(float(row["alpha"])) for row in figure2]
    assert worst_relative((row["d_bc"], bc) for row, (bc, _) in zip(figure2, exacts)) < 1.1e-11
    assert worst_relative((row["d_kd"], kd) for row, (_, kd) in zip(figure2, exacts)) < 2.4e-6


def test_figure2_photon_counting_kd_is_zero(figure2):
    assert all(float(row["d_pnrd"]) == exact.SHARED_COUNTS_KD["css"] for row in figure2)


def test_figure4_dfs_homodyne():
    rows = printed(run_figure(4))
    assert len(rows) == 61
    bc, kd = exact.dfs_homodyne_sharp()
    assert worst_relative((row["d_bc_homodyne"], bc) for row in rows) < 3.0e-6
    assert worst_relative((row["d_kd_homodyne"], kd) for row in rows) < 2.9e-6


def test_figure5_blurred_css_homodyne():
    rows = printed(run_figure(5))
    columns = [name for name in rows[0] if name != "sigma"]
    pairs = [
        (row[name], exact.css_homodyne(float(name.rsplit("_", 1)[1]), float(row["sigma"]))[1])
        for row in rows for name in columns
    ]
    assert len(pairs) == 63
    assert worst_relative(pairs) < 3.5e-6


def test_figure8_css_homodyne(figure8):
    pairs = [(row["d_kd"], exact.css_homodyne(float(row["param"]), float(row["sigma"]))[1])
             for row in figure8 if (row["family"], row["detector"]) == ("css", "homodyne")]
    assert len(pairs) == 84  # 21 values x 2 sigmas x 2 signs
    assert worst_relative(pairs) < 2.8e-6


def test_figure8_sharp_dfs_homodyne(figure8):
    kd = exact.dfs_homodyne_sharp()[1]
    cells = [row["d_kd"] for row in figure8
             if (row["family"], row["detector"], float(row["sigma"])) == ("dfs", "homodyne", 0.0)]
    assert len(cells) == 42
    assert worst_relative((cell, kd) for cell in cells) < 2.9e-6


def test_figure8_shared_counts_kd_is_zero(figure8):
    cells = [(row["family"], row["d_kd"]) for row in figure8
             if row["detector"] == "pnrd" and row["family"] in exact.SHARED_COUNTS_KD]
    assert len(cells) == 168  # 2 families x 21 values x 2 sigmas x 2 signs
    assert all(float(cell) == exact.SHARED_COUNTS_KD[family] for family, cell in cells)


def test_sweep_kd_is_zero():
    rows = printed(sweep(parse_sweep_config(SWEEP_CONFIG)))
    assert len(rows) == 15
    assert all(float(row["d_kd"]) == exact.SHARED_COUNTS_KD["psv"] for row in rows)
