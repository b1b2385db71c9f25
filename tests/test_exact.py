"""Printed D cells held to exact values (see exact.py).

Every cell of figures 2, 4, 5, 7 and 8 and of the benchmark's
photon-counting sweep that exact.py covers is compared, as printed, with
its exact value.  Each column's bound is the worst relative error that its
printed cells carry today, rounded up at two significant digits: the
trapezoid grids' discretisation error.  A change that moves a cell further
from the exact value fails here; one that moves it closer passes and may
tighten the bound.
"""

import math

import numpy as np
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


def test_figure7_blurred_dfs_counts():
    rows = printed(run_figure(7))
    columns = [name for name in rows[0] if name.startswith("d_kd_pnrd_alpha_")]
    pairs = [(row[name], exact.dfs_counts_kd(float(name.rsplit("_", 1)[1]), float(row["sigma"])))
             for row in rows for name in columns]
    assert len(pairs) == 63
    assert worst_relative(pairs) < 2.8e-4  # 2.764e-4 at alpha = 0.5, sigma = 1.4


@pytest.mark.parametrize("sigma, bound", [(0.0, 8.5e-13), (2.0, 2.0e-4)])
def test_figure8_dfs_counts(figure8, sigma, bound):
    pairs = [(row["d_kd"], exact.dfs_counts_kd(float(row["param"]), sigma)) for row in figure8
             if (row["family"], row["detector"], float(row["sigma"])) == ("dfs", "pnrd", sigma)]
    assert len(pairs) == 42
    assert worst_relative(pairs) < bound


@pytest.mark.parametrize("alpha, sigma", [(0.5, 1.4), (0.1, 2.0), (2.0, 0.2), (1.0, 4.0)])
def test_blurred_counts_oracle_does_not_move_with_its_scan(alpha, sigma):
    p, q = exact.dfs_count_rows(alpha)
    coarse = exact.blurred_counts_kd(p, q, sigma)
    assert abs(exact.blurred_counts_kd(p, q, sigma, scan_step=sigma / 128.0) - coarse) <= 1e-12


def test_blurred_counts_oracle_matches_a_fine_trapezoid():
    # on the oracle's scan range, 400 001 points still leave 1.7e-10 of the
    # error that |f|'s kinks give the trapezoid rule; 800 001 leave 8e-12
    alpha, sigma = 0.5, 1.4
    p, q = exact.dfs_count_rows(alpha)
    xs = np.linspace(-14.0 * sigma, p.size - 1 + 14.0 * sigma, 800_001)
    f = sum(d * np.exp(-0.5 * ((xs - n) / sigma) ** 2) for n, d in enumerate(p - q))
    kd = 0.5 * np.trapezoid(np.abs(f), xs) / (sigma * math.sqrt(2.0 * math.pi))
    assert abs(kd - exact.dfs_counts_kd(alpha, sigma)) <= 1e-10


def test_sweep_kd_is_zero():
    rows = printed(sweep(parse_sweep_config(SWEEP_CONFIG)))
    assert len(rows) == 15
    assert all(float(row["d_kd"]) == exact.SHARED_COUNTS_KD["psv"] for row in rows)
