"""Printed D cells held to exact values (see exact.py).

Every cell of figures 2-5, 7 and 8, of the benchmark's photon-counting
sweep, and of the points in round 0 of the benchmark's points stream for
seeds 0-9, that exact.py covers is compared, as printed, with its exact
value.  Each column's bound is the worst error that its printed cells carry
today, rounded up at two significant digits: relative, or absolute where the
exact value is 0.  It is the grids' discretisation error.  A change that
moves a cell further from the exact value fails here; one that moves it
closer passes and may tighten the bound.
"""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest

import exact
from macrolens.cli import main
from macrolens.figures import parse_sweep_config, run_figure, sweep

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# the photon-counting sweep of the benchmark's pnrd-sweep workload
SWEEP_CONFIG = ("family = psv\nstart = 0.5\nstop = 2.5\nsteps = 5\n"
                "detector = pnrd\nsigma = 1, 2, 3\n")


def printed(table) -> list[dict]:
    """The table's rows as rendered in its CSV, one {column: cell text} each."""
    return printed_csv(table.to_csv())


def printed_csv(text: str) -> list[dict]:
    """The rows of a CSV table as printed, one {column: cell text} each."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
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


@pytest.fixture(scope="module")
def sweep_rows():
    return printed(sweep(parse_sweep_config(SWEEP_CONFIG)))


def test_sweep_kd_is_zero(sweep_rows):
    assert len(sweep_rows) == 15
    assert all(float(row["d_kd"]) == exact.SHARED_COUNTS_KD["psv"] for row in sweep_rows)


def test_sweep_bc_is_near_zero(sweep_rows):
    # the branches share one count row, so D_BC is 0 exactly; the blur
    # grid's quadrature leaves up to 2.37e-10
    assert len(sweep_rows) == 15
    assert max(abs(float(row["d_bc"])) for row in sweep_rows) < 2.4e-10


def round0_points(detector: str) -> list:
    """(options, printed row) of each point of ``detector`` in round 0 of
    the benchmark's points stream, seeds 0-9."""
    points = []
    for seed in range(10):
        for argv in next(workloads.point_rounds(seed)):
            options = workloads.point_options(argv)
            if options["--detector"] != detector:
                continue
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
            (row,) = printed_csv(stdout.getvalue())
            points.append((options, row))
    return points


@pytest.fixture(scope="module")
def blurred_count_points():
    """(options, printed row) of each photon-counting point at sigma > 0 in
    round 0 of the benchmark's points stream, seeds 0-9."""
    return [(options, row) for options, row in round0_points("pnrd")
            if float(options["--sigma"]) != 0.0]


def test_points_blurred_dfs_counts(blurred_count_points):
    pairs = [(row, exact.dfs_count_rows(float(options["--alpha"])), float(options["--sigma"]))
             for options, row in blurred_count_points if options["--family"] == "dfs"]
    assert len(pairs) == 30
    bc = [(row["d_bc"], exact.blurred_counts_bc(p, q, sigma)) for row, (p, q), sigma in pairs]
    kd = [(row["d_kd"], exact.blurred_counts_kd(p, q, sigma)) for row, (p, q), sigma in pairs]
    assert worst_relative(bc) < 1.7e-7  # 1.668e-7 at alpha = 0.1595, sigma = 2
    assert worst_relative(kd) < 1.8e-4  # 1.726e-4 at alpha = 0.783, sigma = 1


@pytest.mark.parametrize("family, count, bc_floor", [("css", 30, 2.9e-10), ("psv", 60, 5.0e-10)])
def test_points_shared_counts(blurred_count_points, family, count, bc_floor):
    # the branches share one count row, so D_BC and D_KD are 0 exactly
    rows = [row for options, row in blurred_count_points if options["--family"] == family]
    assert len(rows) == count
    assert all(float(row["d_kd"]) == exact.SHARED_COUNTS_KD[family] for row in rows)
    assert max(abs(float(row["d_bc"])) for row in rows) < bc_floor


BC_ORACLE_CASES = [(0.1595, 2.0), (0.783, 1.0), (3.9, 0.5), (0.5, 1.0)]


@pytest.mark.parametrize("alpha, sigma", BC_ORACLE_CASES)
def test_blurred_counts_bc_oracle_does_not_move_when_tightened(alpha, sigma):
    p, q = exact.dfs_count_rows(alpha)
    tight = exact.blurred_counts_bc(p, q, sigma, epsabs=1e-16)
    assert abs(tight - exact.blurred_counts_bc(p, q, sigma)) <= 1e-12


@pytest.mark.parametrize("alpha, sigma", BC_ORACLE_CASES)
def test_blurred_counts_bc_oracle_matches_a_fine_trapezoid(alpha, sigma):
    # sqrt(P Q) has no kink, so the trapezoid converges fast; P and Q are
    # summed one outcome at a time to hold two rows of the grid, not a table
    p, q = exact.dfs_count_rows(alpha)
    xs = np.linspace(-14.0 * sigma, p.size - 1 + 14.0 * sigma, 400_001)
    big_p, big_q = np.zeros_like(xs), np.zeros_like(xs)
    for n, (p_n, q_n) in enumerate(zip(p, q)):
        gauss = np.exp(-0.5 * ((xs - n) / sigma) ** 2)
        big_p += p_n * gauss
        big_q += q_n * gauss
    bc = 1.0 - np.trapezoid(np.sqrt(big_p * big_q), xs) / (sigma * math.sqrt(2.0 * math.pi))
    assert abs(bc - exact.blurred_counts_bc(p, q, sigma)) <= 1e-12


def test_dfs_homodyne_oracle_at_zero_sigma_is_the_sharp_one():
    assert np.abs(np.subtract(exact.dfs_homodyne(0.0), exact.dfs_homodyne_sharp())).max() <= 1e-12


@pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 2.0, 4.0])
def test_dfs_homodyne_bc_oracle_matches_a_fine_trapezoid(sigma):
    # sqrt(P Q) has no kink at sigma > 0, so the trapezoid converges fast
    u = 1.0 + 2.0 * sigma * sigma
    ys = np.linspace(-14.0 * math.sqrt(u), 14.0 * math.sqrt(u), 400_001)
    gauss = np.exp(-ys * ys / u) / (2.0 * math.sqrt(math.pi * u))
    p, q = (gauss * ((1.0 + s * math.sqrt(2.0) * ys / u) ** 2 + 2.0 * sigma * sigma / u)
            for s in (1, -1))
    bc = 1.0 - np.trapezoid(np.sqrt(p * q), ys)
    assert abs(bc - exact.dfs_homodyne(sigma)[0]) <= 1e-12


def test_figure7_blurred_dfs_homodyne():
    rows = printed(run_figure(7))
    pairs = [(row[name], exact.dfs_homodyne(float(row["sigma"]))[1])
             for row in rows for name in row if name.startswith("d_kd_homodyne_alpha_")]
    assert len(pairs) == 63
    assert worst_relative(pairs) < 4.3e-6  # 4.220e-6


def test_figure8_blurred_dfs_homodyne(figure8):
    kd = exact.dfs_homodyne(2.0)[1]
    cells = [row["d_kd"] for row in figure8
             if (row["family"], row["detector"], float(row["sigma"])) == ("dfs", "homodyne", 2.0)]
    assert len(cells) == 42
    assert worst_relative((cell, kd) for cell in cells) < 2.9e-6  # 2.850e-6


@pytest.fixture(scope="module")
def homodyne_points():
    return round0_points("homodyne")


def test_points_blurred_dfs_homodyne(homodyne_points):
    pairs = [(row, exact.dfs_homodyne(float(options["--sigma"])))
             for options, row in homodyne_points
             if options["--family"] == "dfs" and float(options["--sigma"]) > 0.0]
    assert len(pairs) == 30
    assert worst_relative((row["d_bc"], bc) for row, (bc, _) in pairs) < 1.6e-8  # 1.599e-8
    assert worst_relative((row["d_kd"], kd) for row, (_, kd) in pairs) < 4.3e-6  # 4.250e-6


@pytest.mark.parametrize("blurred, bc_bound, kd_bound", [
    (True, 6.2e-6, 3.8e-6),  # 6.106e-6 at alpha = 3.612, sigma = 2; 3.713e-6 at 0.1337, 0.5
    (False, 4.8e-13, 1.8e-6),  # 4.702e-13 at alpha = 0.7026; 1.784e-6 at 0.6013
], ids=["blurred", "sharp"])
def test_points_css_homodyne(homodyne_points, blurred, bc_bound, kd_bound):
    pairs = [(row, exact.css_homodyne(float(options["--alpha"]), float(options["--sigma"])))
             for options, row in homodyne_points
             if options["--family"] == "css" and (float(options["--sigma"]) > 0.0) == blurred]
    assert len(pairs) == (30 if blurred else 10)
    assert worst_relative((row["d_bc"], bc) for row, (bc, _) in pairs) < bc_bound
    assert worst_relative((row["d_kd"], kd) for row, (_, kd) in pairs) < kd_bound


@pytest.mark.parametrize("r, m", [(0.05, 1), (1.0, 1), (2.5, 1), (0.5, 2), (2.5, 2)])
def test_psv_homodyne_oracle_matches_gauss_legendre(r, m):
    nodes, weights = np.polynomial.legendre.leggauss(200)

    def rule(f, a, b):
        half = (b - a) / 2.0
        return half * math.fsum(w * f(half * t + (a + b) / 2.0) for w, t in zip(weights, nodes))

    (kd_f, kd_edges), (bc_f, bc_edges) = exact.psv_pieces(r, m)
    kd = math.fsum(rule(kd_f, a, b) for a, b in zip(kd_edges[:-1], kd_edges[1:]))
    bc = 1.0 - math.fsum(rule(bc_f, a, b) for a, b in zip(bc_edges[:-1], bc_edges[1:]))
    assert np.abs(np.subtract((bc, kd), exact.psv_homodyne_sharp(r, m))).max() <= 1e-12


def test_figure3_psv_homodyne():
    rows = printed(run_figure(3))
    assert len(rows) == 61
    exacts = [exact.psv_homodyne_sharp(float(row["r"]), 1) for row in rows]
    assert worst_relative((row["d_bc"], bc) for row, (bc, _) in zip(rows, exacts)) < 3.8e-6
    assert worst_relative((row["d_kd"], kd) for row, (_, kd) in zip(rows, exacts)) < 2.4e-6


def test_figure8_sharp_psv_homodyne(figure8):
    pairs = [(row["d_kd"], exact.psv_homodyne_sharp(float(row["param"]), 1)[1]) for row in figure8
             if (row["family"], row["detector"], float(row["sigma"])) == ("psv", "homodyne", 0.0)]
    assert len(pairs) == 42
    assert worst_relative(pairs) < 2.1e-6  # 2.040e-6


@pytest.mark.parametrize("m, bc_bound, kd_bound", [(1, 2.9e-6, 2.1e-6), (2, 2.0e-6, 1.9e-6)])
def test_points_sharp_psv_homodyne(homodyne_points, m, bc_bound, kd_bound):
    pairs = [(row, exact.psv_homodyne_sharp(float(options["--r"]), m))
             for options, row in homodyne_points
             if (options["--family"], options.get("--m"), float(options["--sigma"]))
             == ("psv", str(m), 0.0)]
    assert len(pairs) == 10
    assert worst_relative((row["d_bc"], bc) for row, (bc, _) in pairs) < bc_bound
    assert worst_relative((row["d_kd"], kd) for row, (_, kd) in pairs) < kd_bound
