import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from macrolens import (
    BranchSet,
    DetectorModel,
    Ensemble,
    FockVector,
    Pdf,
    both_measures,
    coherent_state,
    css,
    d_bc,
    d_kd,
    dfs,
    dfs_kd_closed_form,
    fock_state,
    homodyne_pdf,
    measurement,
    pad_to_cutoff,
    pnrd_pmf,
    psv,
    scaled_cutoffs,
    squeezed_vacuum,
)
from macrolens import distinguishability
from macrolens.distinguishability import _clamp01, branch_distributions
from macrolens.measurement import (
    blur_differences,
    blur_pdf,
    blur_pdfs,
    blur_pmf,
    blur_pmfs,
    default_homodyne_grid,
    checked_rows,
    frame_pdfs,
    pnrd_pmfs,
)
from macrolens.catalog import PARAM_NAMES, build
from macrolens.errors import InvalidArgumentError, MacrolensError


GAUSSIAN_GRID = (-20.0, 20.0, 4001)


def gaussian_pdf(mu, var):
    xs = np.linspace(*GAUSSIAN_GRID)
    return np.exp(-((xs - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def pair_measures(p, q, grid=GAUSSIAN_GRID):
    """(Omega, KD) of two rows, through the chain's table reduction: with
    weights (1/2, 1/2) each row's complement is the other row."""
    return distinguishability._overlap_and_kd(np.stack([p, q]), grid, np.array([0.5, 0.5]))


def inline_omega_and_kd(p, q):
    """(Omega, KD) of two one-row views, integrated here, independently of
    the chain's reduction."""
    if isinstance(p, Pdf):
        integrate = partial(np.trapezoid, dx=p.dx)
        p, q = p.values, q.values
    else:
        integrate = np.sum
        p, q = p.probabilities, q.probabilities
    return float(integrate(np.sqrt(p * q))), float(0.5 * integrate(np.abs(p - q)))


def blur_one_branch_at_a_time(branches, sigma):
    """Blurred PNRD rows built branch by branch, kept as an oracle: pad each
    branch to the largest cutoff, take |c_n|^2, and add each outcome's
    Gaussian window to that branch's own row on the grid of the largest
    significant outcome of any branch."""
    cutoff = max(b.cutoff for b in branches)
    probs = [np.abs(np.pad(b.amplitudes, (0, cutoff - b.cutoff))) ** 2 for b in branches]
    supports = [np.nonzero(p > p.max() * 1e-16)[0] for p in probs]
    top = max(int(s[-1]) for s in supports)
    lo, step = -6.0 * sigma, sigma / 16.0
    n_points = int(math.ceil((top + 6.0 * sigma - lo) / step)) + 1
    hi = lo + (n_points - 1) * step
    xs = np.linspace(lo, hi, n_points)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    rows = []
    for p, support in zip(probs, supports):
        values = np.zeros(n_points)
        for n in support:
            centre = round((n - lo) / step)
            window = slice(max(0, centre - 144), centre + 145)
            values[window] += p[n] * norm * np.exp(-0.5 * ((xs[window] - n) / sigma) ** 2)
        rows.append(values)
    return lo, hi, rows


def two_coherent_branches(alpha):
    return BranchSet(
        np.array([1.0, 1.0]) / math.sqrt(2),
        (coherent_state(alpha), coherent_state(-alpha)),
    )


def recording_hermite(monkeypatch):
    """Record the n_max of every Hermite recurrence that measurement runs."""
    n_maxes = []
    blocks = measurement._hermite_blocks

    def recording(xs, n_max, *args):
        n_maxes.append(n_max)
        return blocks(xs, n_max, *args)

    monkeypatch.setattr(measurement, "_hermite_blocks", recording)
    return n_maxes


class TestBranchSet:
    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(InvalidArgumentError):
            BranchSet(np.array([1.0, 1.0]), (fock_state(0, 4), fock_state(1, 4)))

    @pytest.mark.parametrize("coefficients", [[1.0, 0.0], [1.0, 1e-200]])
    def test_one_branch_of_nonzero_weight_rejected(self, coefficients):
        # 1e-200 squares to a weight of 0: no complement is left to compare with
        with pytest.raises(InvalidArgumentError):
            BranchSet(np.array(coefficients), (coherent_state(1.0), coherent_state(-1.0)))

    @pytest.mark.parametrize("detector", [
        DetectorModel.homodyne(sigma=0.5),
        DetectorModel.pnrd(),
        DetectorModel.pnrd(sigma=1.0),
    ])
    def test_zero_weight_branch_leaves_the_measures(self, detector):
        # the third branch lies inside the pair's homodyne grid, so the grid
        # and the table of the pair stay as they are
        pair = BranchSet(np.array([0.6, 0.8]), (coherent_state(1.0), coherent_state(-1.0)))
        three = BranchSet(np.array([0.6, 0.8, 0.0]), (*pair.branches, coherent_state(0.5)))
        assert both_measures(three, detector) == pytest.approx(
            both_measures(pair, detector), abs=1e-12
        )

    def test_photon_counting_reads_the_counts(self):
        # the counts stand for the branches under photon counting, as the
        # frame does under homodyne detection
        coeffs, branches = np.sqrt([0.5, 0.5]), (fock_state(0, 2), fock_state(0, 2))
        apart = BranchSet(coeffs, branches, counts=[[1.0, 0.0], [0.0, 1.0]])
        assert both_measures(apart, DetectorModel.pnrd()) == (1.0, 1.0)
        assert both_measures(BranchSet(coeffs, branches), DetectorModel.pnrd()) == (0.0, 0.0)
        assert not apart.counts.flags.writeable

    @pytest.mark.parametrize("counts", [
        [[1.0, 0.0]],  # one row for two branches
        [1.0, 0.0],
        [[1.0, 0.0], [0.5, 0.6]],  # mass 1.1
        [[1.0, 0.0], [1.5, -0.5]],
    ])
    def test_bad_counts_rejected_on_first_read(self, counts):
        branch_set = BranchSet(np.sqrt([0.5, 0.5]), (fock_state(0, 2), fock_state(1, 2)),
                               counts=counts)
        with pytest.raises(InvalidArgumentError):
            branch_set.counts

    def test_branches_on_demand_need_a_frame_and_counts(self):
        state = dfs(1.0)
        coeffs, frame = state.branch_set.coefficients, state.branch_set.frame
        for kwargs in ({"counts": state.branch_set.counts}, {"frame": frame}):
            with pytest.raises(InvalidArgumentError):
                BranchSet(coeffs, lambda: state.branch_set.branches, **kwargs)
        lazy = BranchSet(coeffs, lambda: state.branch_set.branches, frame,
                         lambda: state.branch_set.counts)
        assert lazy.branches is state.branch_set.branches
        assert np.array_equal(lazy.counts, state.branch_set.counts)

    @pytest.mark.parametrize("make", [
        lambda: (fock_state(0, 2),),  # one branch for two coefficients
        lambda: (fock_state(0, 2), [1.0, 0.0]),
    ])
    def test_branches_on_demand_checked_on_first_read(self, make):
        # what the function returns is checked as given branches are
        branch_set = dfs(1.0).branch_set
        lazy = BranchSet(branch_set.coefficients, make, branch_set.frame, branch_set.counts)
        with pytest.raises(InvalidArgumentError):
            lazy.branches


class TestDistanceFunctionals:
    def test_identical_distributions(self):
        p = gaussian_pdf(0.0, 1.0)
        overlap, kd = pair_measures(p, p)
        assert kd == pytest.approx(0.0, abs=1e-12)
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_distributions(self):
        p = gaussian_pdf(-8.0, 0.25)
        q = gaussian_pdf(8.0, 0.25)
        overlap, kd = pair_measures(p, q)
        assert kd == pytest.approx(1.0, abs=1e-9)
        assert overlap == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_bhattacharyya_oracle(self):
        # closed form for equal-variance Gaussians: exp(-(mu1-mu2)^2/(8 var))
        p = gaussian_pdf(0.0, 1.0)
        q = gaussian_pdf(2.0, 1.0)
        assert pair_measures(p, q)[0] == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_gaussian_kolmogorov_oracle(self):
        # half-L1 of two equal-variance Gaussians: erf(|dmu|/(2 sqrt(2 var)))
        p = gaussian_pdf(0.0, 1.0)
        q = gaussian_pdf(2.0, 1.0)
        assert pair_measures(p, q)[1] == pytest.approx(
            erf(1.0 / math.sqrt(2)), abs=1e-5
        )

    def test_pmf_arguments(self):
        overlap, kd = pair_measures(np.array([1.0, 0.0]), np.array([0.0, 1.0]), None)
        assert kd == pytest.approx(1.0)
        assert overlap == pytest.approx(0.0)

    def test_nan_not_clamped(self):
        # every comparison with NaN is false, so a plain clamp would give 0
        with pytest.raises(MacrolensError):
            _clamp01(float("nan"), "d_kd")

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_bounds(self, m1, m2):
        p = gaussian_pdf(m1, 0.7)
        q = gaussian_pdf(m2, 0.7)
        overlap, kd = pair_measures(p, q)
        assert kd == pytest.approx(pair_measures(q, p)[1], abs=1e-12)
        assert -1e-12 <= kd <= 1.0 + 1e-12
        assert -1e-9 <= overlap <= 1.0 + 1e-9


def stacked_overlap_and_kd(rows, grid, weights):
    """The B x G reduction that `_overlap_and_kd` replaced, kept as an oracle:
    every integrand is formed for all rows at once and reduced along axis 1."""
    if grid is None:
        integrate = partial(np.sum, axis=1)
    else:
        integrate = partial(np.trapezoid, dx=(grid[1] - grid[0]) / (grid[2] - 1), axis=1)
    mix = weights * (1.0 - np.eye(len(rows)))
    mix /= mix.sum(axis=1, keepdims=True)
    complements = mix @ rows
    overlap = integrate(np.sqrt(rows * complements))
    l1 = integrate(np.abs(rows - complements))
    return float(np.sum(weights * overlap)), float(np.sum(weights * 0.5 * l1))


class TestOverlapAndKd:
    @pytest.mark.parametrize("detector", [
        DetectorModel.pnrd(),
        DetectorModel.pnrd(sigma=1.0),
        DetectorModel.homodyne(),
        DetectorModel.homodyne(angle=0.3, sigma=0.5),
    ], ids=["pnrd", "pnrd-1", "homodyne", "homodyne-0.3-0.5"])
    @pytest.mark.parametrize("branch_set", [
        psv(0.5).branch_set,
        psv(2.5, m=2).branch_set,
        css(1.0).branch_set,
        dfs(2.0).branch_set,
        BranchSet(np.sqrt([0.5, 0.25, 0.25]),
                  (fock_state(0, 4), fock_state(1, 4), coherent_state(1.2))),
    ], ids=["psv-0.5", "psv-2.5-m2", "css", "dfs", "three"])
    def test_rows_one_at_a_time_match_the_stacked_reduction(self, branch_set, detector):
        rows, grid = branch_distributions(branch_set, detector)
        weights = branch_set.weights
        got = distinguishability._overlap_and_kd(rows, grid, weights)
        assert got == stacked_overlap_and_kd(rows, grid, weights)

    @pytest.mark.parametrize("detector", [
        DetectorModel.pnrd(), DetectorModel.pnrd(sigma=1.0),
        DetectorModel.homodyne(), DetectorModel.homodyne(angle=0.3, sigma=0.5),
    ], ids=["pnrd", "pnrd-1", "homodyne", "homodyne-0.3-0.5"])
    def test_three_branches_integrate_two_tables(self, detector, monkeypatch):
        # one call per integrand over the whole pair table, not one per branch
        branch_set = BranchSet(np.sqrt([0.5, 0.25, 0.25]),
                               (fock_state(0, 4), fock_state(1, 4), coherent_state(1.2)))
        rows, grid = branch_distributions(branch_set, detector)
        weights = branch_set.weights
        calls = []
        integrate = distinguishability.row_integrals
        monkeypatch.setattr(distinguishability, "row_integrals", lambda values, grid: (
            calls.append(values.shape) or integrate(values, grid)))
        got = distinguishability._overlap_and_kd(rows, grid, weights)
        assert calls == [rows.shape, rows.shape]
        assert got == stacked_overlap_and_kd(rows, grid, weights)

    def test_peak_memory_holds_no_b_by_g_integrand(self):
        # the stacked rows and their complements (2 B rows) plus a few 1 x G
        # temporaries; a B x G integrand and its trapezoid sums would add B more
        branch_set = psv(2.5).branch_set
        rows, grid = branch_distributions(branch_set, DetectorModel.pnrd(sigma=1.0))
        row_bytes = rows[0].nbytes
        tracemalloc.start()
        try:
            distinguishability._overlap_and_kd(rows, grid, branch_set.weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * len(rows) + 3) * row_bytes


def _unequal_pair():
    return BranchSet(np.array([0.6, 0.8]), (coherent_state(1.1), coherent_state(-0.4)))


_complement_weights = distinguishability._complement_weights


def _refuse_complements(weights):
    if len(weights) == 2:
        raise AssertionError("a two-branch set formed its complement rows")
    return _complement_weights(weights)


class TestPairRule:
    """Two branches are each other's complement: one pair is integrated, and
    blurred homodyne D_KD blurs one difference row, with the bits of the
    general B-branch path."""

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.36, 0.64]], ids=["equal", "unequal"])
    @pytest.mark.parametrize("kind", ["densities", "probabilities"])
    def test_overlap_and_kd_match_the_stacked_oracle(self, weights, kind, monkeypatch):
        if kind == "densities":
            rows, grid = np.stack([gaussian_pdf(-0.7, 0.5), gaussian_pdf(1.2, 0.8)]), GAUSSIAN_GRID
        else:
            rows, grid = pnrd_pmfs((coherent_state(1.1), coherent_state(-0.4))), None
        weights = np.abs(np.sqrt(weights)) ** 2
        expected = stacked_overlap_and_kd(rows, grid, weights)
        monkeypatch.setattr(distinguishability, "_complement_weights", _refuse_complements)
        assert distinguishability._overlap_and_kd(rows, grid, weights) == expected

    @pytest.mark.parametrize("detector", [
        DetectorModel.pnrd(), DetectorModel.pnrd(sigma=1.0),
        DetectorModel.homodyne(), DetectorModel.homodyne(angle=0.3, sigma=0.5),
    ], ids=["pnrd", "pnrd-1", "homodyne", "homodyne-0.3-0.5"])
    @pytest.mark.parametrize("make", [
        _unequal_pair,
        lambda: BranchSet(np.sqrt([0.5, 0.25, 0.25]),
                          (fock_state(0, 4), fock_state(1, 4), coherent_state(1.2))),
    ], ids=["unequal", "three"])
    def test_overlap_and_kd_of_branch_tables(self, make, detector):
        branch_set = make()
        rows, grid = branch_distributions(branch_set, detector)
        weights = branch_set.weights
        got = distinguishability._overlap_and_kd(rows, grid, weights)
        assert got == stacked_overlap_and_kd(rows, grid, weights)

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    @pytest.mark.parametrize("make", [
        lambda: css(1.5).branch_set, lambda: dfs(2.0).branch_set,
        lambda: psv(1.0).branch_set, _unequal_pair,
    ], ids=["css", "dfs", "psv", "unequal"])
    def test_blurred_kd_matches_blurring_both_differences(self, make, angle):
        branch_set, det = make(), DetectorModel.homodyne(angle=angle, sigma=0.7)
        weights = branch_set.weights
        rows, grid = distinguishability._homodyne_rows(branch_set, det)
        rows = checked_rows(rows, grid)
        diffs, wide = blur_differences(rows - _complement_weights(weights) @ rows, grid, 0.7)
        assert np.array_equal(diffs[1], -diffs[0])
        l1 = measurement.row_integrals(np.abs(diffs), wide)
        assert d_kd(branch_set, det) == _clamp01(float(np.sum(weights * 0.5 * l1)), "d_kd")

    @pytest.mark.parametrize("detector", [
        DetectorModel.pnrd(), DetectorModel.pnrd(sigma=1.0),
        DetectorModel.homodyne(), DetectorModel.homodyne(angle=0.3),
    ], ids=["pnrd", "pnrd-1", "homodyne", "homodyne-0.3"])
    @pytest.mark.parametrize("make", [
        lambda: css(1.5).branch_set, _unequal_pair,
        lambda: BranchSet(np.sqrt([0.5, 0.25, 0.25]),
                          (fock_state(0, 4), fock_state(1, 4), coherent_state(1.2))),
    ], ids=["css", "unequal", "three"])
    def test_kd_alone_is_both_measures_kd(self, make, detector):
        # blurred homodyne D_KD blurs by FFT instead (see above)
        branch_set = make()
        assert d_kd(branch_set, detector) == both_measures(branch_set, detector)[1]

    @pytest.mark.parametrize("family", ["css", "dfs", "psv"])
    def test_catalog_points_take_the_pair_and_real_paths(self, family, monkeypatch):
        # css expands one vacuum over two copies; dfs and psv two cores over one
        tables = []
        waves = measurement._waves

        def recording(amplitudes, xs):
            out = waves(amplitudes, xs)
            tables.append((amplitudes.shape[0], xs.size, out.dtype))
            return out

        monkeypatch.setattr(measurement, "_waves", recording)
        monkeypatch.setattr(distinguishability, "_complement_weights", _refuse_complements)
        branch_set = build(family, **{PARAM_NAMES[family]: 1.2}).branch_set
        for det in (DetectorModel.homodyne(), DetectorModel.homodyne(sigma=0.5),
                    DetectorModel.pnrd(), DetectorModel.pnrd(sigma=1.0)):
            both_measures(branch_set, det)
            d_kd(branch_set, det)
        shape = (1, 2 * 2048) if family == "css" else (2, 2048)
        assert tables == [(*shape, np.dtype(float))] * 4


class TestBranchMeasures:
    def test_css_homodyne_oracles(self):
        # analytic overlaps of |alpha> and |-alpha> quadrature Gaussians.
        # Branches |+-1.2 e^{i phase}> read at `angle`: turning branches and
        # detector together keeps the real oracle; at the conjugate
        # quadrature both branches give one distribution.
        cases = [
            (0.0, 0.0, 1.2, 1e-6),
            (0.4, 0.4, 1.2, 1e-6),
            (0.4, 0.4 + math.pi / 2, 0.0, 1e-10),
        ]
        for phase, angle, alpha, tol in cases:
            det = DetectorModel.homodyne(angle=angle)
            bs = two_coherent_branches(1.2 * np.exp(1j * phase))
            assert d_kd(bs, det) == pytest.approx(erf(math.sqrt(2) * alpha), abs=tol)
            assert d_bc(bs, det) == pytest.approx(1 - math.exp(-2 * alpha**2), abs=tol)

    def test_one_hermite_table_per_branch_set(self, monkeypatch):
        n_maxes = recording_hermite(monkeypatch)
        both_measures(psv(1.0).branch_set, DetectorModel.homodyne(sigma=0.5))
        assert len(n_maxes) == 1

    def test_one_blur_table_per_branch_set(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return blur_pmfs(*args, **kwargs)

        # the one-row view blur_pmf looks blur_pmfs up in measurement
        monkeypatch.setattr(measurement, "blur_pmfs", counting)
        monkeypatch.setattr(distinguishability, "blur_pmfs", counting)
        both_measures(psv(1.0).branch_set, DetectorModel.pnrd(sigma=1.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("sigma", [0.06, 0.5, 1.0, 2.6, 4.0])
    @pytest.mark.parametrize("make", [
        lambda: psv(2.5).branch_set,
        lambda: dfs(2.0).branch_set,
        lambda: css(1.5).branch_set,
        lambda: BranchSet(np.sqrt([0.5, 0.5]), (fock_state(0, 4), coherent_state(3.0))),
    ], ids=["psv", "dfs", "css", "unequal"])
    def test_blurred_pnrd_matches_per_branch_loop(self, make, sigma):
        # psv(2.5) spans several cell blocks; every grid clips outcome 0's
        # window at its left edge; at sigma >= 2.6 a cell reaches every
        # outcome of dfs, css and the unequal pair
        branch_set = make()
        values, (grid_min, grid_max, _) = branch_distributions(
            branch_set, DetectorModel.pnrd(sigma=sigma)
        )
        lo, hi, rows = blur_one_branch_at_a_time(branch_set.branches, sigma)
        assert (grid_min, grid_max) == (lo, hi)
        for value, row in zip(values, rows, strict=True):
            np.testing.assert_allclose(value, row, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("branches, sigma", [
        # interior outcomes of zero weight inside each support
        ((FockVector(np.sqrt([0.3, 0, 0, 0.2, 0, 0, 0, 0.5])),
          FockVector(np.sqrt([0, 0.5, 0, 0, 0, 0.5]))), 0.5),
        ((FockVector(np.sqrt([0.3, 0, 0, 0.2, 0, 0, 0, 0.5])),
          FockVector(np.sqrt([0, 0.5, 0, 0, 0, 0.5]))), 2.6),
        # below the sharp-PNRD limit, reached only by direct calls: a cell
        # sees at most one outcome, and most cells none
        (css(1.5).branch_set.branches, 1e-3),
        (css(1.5).branch_set.branches, 0.03),
        (dfs(2.0).branch_set.branches, 0.0584),
        # runs of up to 361 outcomes, far longer than one re-anchoring stride
        (psv(2.5).branch_set.branches, 20.0),
        # several outcomes per cell: runs of up to 1806 outcomes, one of
        # which spans the whole support of css(3.0)
        (psv(2.5).branch_set.branches, 100.0),
        (css(3.0).branch_set.branches, 100.0),
        (dfs(2.0).branch_set.branches, 37.0),
        # a grid step of exactly one outcome
        (psv(1.0).branch_set.branches, 16.0),
    ], ids=["zeros-0.5", "zeros-2.6", "css-1e-3", "css-0.03", "dfs-0.0584", "psv-20",
            "psv-100", "css-100", "dfs-37", "psv-16"])
    def test_blur_pmfs_matches_per_branch_loop(self, branches, sigma):
        values, (grid_min, grid_max, _) = blur_pmfs(pnrd_pmfs(branches), sigma)
        lo, hi, rows = blur_one_branch_at_a_time(branches, sigma)
        assert (grid_min, grid_max) == (lo, hi)
        assert np.all(np.isfinite(values))
        for value, row in zip(values, rows, strict=True):
            np.testing.assert_allclose(value, row, rtol=1e-13, atol=0)

    def test_blurred_pnrd_unequal_cutoffs(self):
        # cutoffs 4 and 41 whose supports barely overlap: each row lives on
        # the shared grid and agrees with its branch blurred alone; the grid
        # starts at -6 sigma, so each row misses its tail mass below that
        bs = BranchSet(np.sqrt([0.5, 0.5]), (fock_state(0, 4), coherent_state(3.0)))
        rows, (grid_min, grid_max, n_points) = branch_distributions(
            bs, DetectorModel.pnrd(sigma=0.5)
        )
        dx = (grid_max - grid_min) / (n_points - 1)
        assert rows.shape == (bs.size, n_points)
        for row, branch in zip(rows, bs.branches, strict=True):
            assert np.trapezoid(row, dx=dx) == pytest.approx(1.0, abs=1e-8)
            alone = blur_pmf(pnrd_pmf(branch), 0.5)
            assert alone.grid_min == grid_min
            assert alone.dx == pytest.approx(dx, rel=1e-12)
            assert np.allclose(row[: alone.n_points], alone.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("detector", [
        DetectorModel.homodyne(sigma=0.5),
        DetectorModel.pnrd(),
        DetectorModel.pnrd(sigma=1.0),
    ])
    def test_three_unequal_branches(self, detector):
        # the only case where a complement mixes several rows: sum the
        # pairwise functionals over explicit complement mixtures
        bs = BranchSet(
            np.sqrt([0.5, 0.25, 0.25]),
            (fock_state(0, 4), fock_state(1, 4), coherent_state(1.2)),
        )
        cutoff = max(b.cutoff for b in bs.branches)

        def pmf(subject):
            parts = subject.components if isinstance(subject, Ensemble) else [(1.0, subject)]
            return pnrd_pmf(Ensemble(tuple((w, pad_to_cutoff(s, cutoff)) for w, s in parts)))

        def dists(branch, complement):
            # a branch and its complement cover the union of all supports,
            # so the pair lands on the grid of the whole branch set
            if detector.kind == "homodyne":
                grid = default_homodyne_grid(*bs.frame, 0.0, detector.sigma)
                return [blur_pdf(homodyne_pdf(s, grid=grid), detector.sigma)
                        for s in (branch, complement)]
            pmfs = [pmf(branch), pmf(complement)]
            if detector.sigma == 0.0:
                return pmfs
            rows, grid = blur_pmfs(np.stack([p.probabilities for p in pmfs]), detector.sigma)
            return [Pdf(*grid, row) for row in rows]

        bc, kd = 0.0, 0.0
        for k, (w, branch) in enumerate(zip(bs.weights, bs.branches)):
            rest = [(bs.weights[l], bs.branches[l]) for l in range(bs.size) if l != k]
            total = sum(v for v, _ in rest)
            p, q = dists(branch, Ensemble(tuple((v / total, s) for v, s in rest)))
            overlap, half_l1 = inline_omega_and_kd(p, q)
            bc += w * (1.0 - overlap)
            kd += w * half_l1
        assert both_measures(bs, detector) == pytest.approx((bc, kd), abs=1e-12)

    @pytest.mark.parametrize("sigma", (0.0, 1.0, 3.0))
    @pytest.mark.parametrize("branch_set", [
        two_coherent_branches(1.5),
        css(0.5).branch_set,
        css(2.0).branch_set,
        *(psv(r, m).branch_set for r in (0.5, 1.5, 2.5) for m in (1, 2)),
    ], ids=["coherent-1.5", "css-0.5", "css-2",
            *(f"psv-{r}-m{m}" for r in (0.5, 1.5, 2.5) for m in (1, 2))])
    def test_css_pnrd_blind(self, branch_set, sigma):
        # photon counting cannot tell |alpha> from |-alpha>, nor psv's
        # (u +- v)/sqrt(2): u and v have opposite parity, so both branches
        # have the same |c_n|^2.  Blurred D_BC keeps the blur grid's edge
        # error, up to 8.0e-10 (css 0.5 at sigma 3).
        det = DetectorModel.pnrd(sigma=sigma)
        assert d_kd(branch_set, det) == 0.0
        assert d_bc(branch_set, det) < (1e-9 if sigma else 1e-15)

    @pytest.mark.parametrize("sigma", (1e-3, 0.5, 4.0, 20.0))
    @pytest.mark.parametrize("angle", (0.0, 0.4, 1.2))
    @pytest.mark.parametrize("branch_set", [
        two_coherent_branches(0.8),
        css(1.5).branch_set,
        dfs(2.0).branch_set,
        psv(1.0).branch_set,
        psv(1.0, m=2).branch_set,
        psv(1.0, m=5).branch_set,
        BranchSet(np.sqrt([0.2, 0.3, 0.5]),
                  (fock_state(0, 4), coherent_state(1.5), squeezed_vacuum(0.7))),
    ], ids=["coherent", "css", "dfs", "psv-m1", "psv-m2", "psv-m5", "three"])
    def test_both_measures_consistent(self, branch_set, angle, sigma):
        # blurred homodyne D_KD alone blurs the table of differences by FFT;
        # both_measures blurs each row by direct sums
        det = DetectorModel.homodyne(angle=angle, sigma=sigma)
        bc, kd = both_measures(branch_set, det)
        assert bc == pytest.approx(d_bc(branch_set, det), abs=1e-12)
        assert kd == pytest.approx(d_kd(branch_set, det), abs=1e-14)

    def test_branch_swap_symmetry(self):
        alpha = 1.1
        det = DetectorModel.homodyne(sigma=0.3)
        fwd = BranchSet(
            np.array([1.0, 1.0]) / math.sqrt(2),
            (coherent_state(alpha), coherent_state(-alpha)),
        )
        rev = BranchSet(
            np.array([1.0, 1.0]) / math.sqrt(2),
            (coherent_state(-alpha), coherent_state(alpha)),
        )
        assert d_kd(fwd, det) == pytest.approx(d_kd(rev, det), abs=1e-10)
        assert d_bc(fwd, det) == pytest.approx(d_bc(rev, det), abs=1e-10)

    def test_two_branch_reduction(self):
        # for B=2 the weighted-complement formula collapses to the plain
        # Kolmogorov distance between the two branch distributions
        alpha = 0.9
        bs = two_coherent_branches(alpha)
        det = DetectorModel.homodyne()
        p1 = homodyne_pdf(coherent_state(alpha), grid=(-12.0, 12.0, 4001))
        p2 = homodyne_pdf(coherent_state(-alpha), grid=(-12.0, 12.0, 4001))
        assert d_kd(bs, det) == pytest.approx(inline_omega_and_kd(p1, p2)[1], abs=1e-5)

    def test_strong_blur_erases_distinguishability(self):
        bs = two_coherent_branches(1.0)
        assert d_kd(bs, DetectorModel.homodyne(sigma=100.0)) < 0.02

    def test_blur_monotone(self):
        bs = two_coherent_branches(1.0)
        vals = [
            d_kd(bs, DetectorModel.homodyne(sigma=s)) for s in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


ANGLES = (0.0, 0.3, math.pi / 4, math.pi / 2, 2.5)


class TestSqueezedFrame:
    """psv homodyne reads the frame's cores at every angle; the Fock path on
    the branches (their identity frame) is its oracle."""

    @pytest.mark.parametrize("angle", ANGLES)
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("r", (0.05, 0.5, 1.0, 1.5, 2.0, 2.5))
    def test_frame_matches_fock_path_at_doubled_cutoffs(self, r, m, sigma, angle):
        det = DetectorModel.homodyne(angle, sigma)
        with scaled_cutoffs(2):
            branch_set = psv(r, m).branch_set
            frame_bc, frame_kd = both_measures(branch_set, det)
            fock_bc, fock_kd = both_measures(replace(branch_set, frame=None), det)
        assert abs(frame_bc - fock_bc) <= 1e-12
        assert abs(frame_kd - fock_kd) <= 1e-12

    @pytest.mark.parametrize("angle", (0.0, 0.3))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_hermite_table_stops_at_the_core(self, monkeypatch, m, sigma, angle):
        n_maxes = recording_hermite(monkeypatch)
        both_measures(psv(2.5, m).branch_set, DetectorModel.homodyne(angle, sigma))
        assert n_maxes == [m + 1]

    def test_p_quadrature_cannot_tell_the_branches_apart(self):
        # u and v are real with opposite parity: one p distribution
        assert d_kd(psv(1.0).branch_set, DetectorModel.homodyne(angle=math.pi / 2)) <= 1e-12

    @pytest.mark.parametrize("make, angle", [
        (lambda: psv(1.0).branch_set, 0.0),
        (lambda: psv(1.0).branch_set, 0.3),
        (lambda: css(1.5).branch_set, 0.0),
        (lambda: dfs(2.0).branch_set, 0.0),
    ], ids=["psv-0", "psv-0.3", "css", "dfs"])
    @pytest.mark.parametrize("sigma", (0.0, 0.5))
    def test_without_frame_the_fock_path_is_unchanged(self, make, angle, sigma):
        branch_set = replace(make(), frame=None)
        branches = branch_set.branches
        assert branch_set.frame == (0.0, branches, (0.0,) * len(branches))
        grid = default_homodyne_grid(0.0, branches, (0.0, 0.0), angle, sigma)
        rows = frame_pdfs(0.0, branches, (0.0, 0.0), angle, grid)
        rows, grid = blur_pdfs(rows, grid, sigma)
        got, got_grid = branch_distributions(branch_set, DetectorModel.homodyne(angle, sigma))
        assert got_grid == grid
        assert np.array_equal(got, rows)
        assert not got.flags.writeable

    def test_frame_needs_one_core_per_branch(self):
        for state in (psv(1.0), css(1.5), dfs(2.0)):
            stretch, cores, shifts = state.branch_set.frame
            for frame in ((stretch, cores[:1], shifts), (stretch, cores, shifts[:1]),
                          (stretch, cores), (stretch, (1, 2), shifts),
                          (math.nan, cores, shifts), (stretch, cores, (math.inf, 0.0)),
                          (stretch, cores, (0.0, math.nan)), (-800.0, cores, shifts),
                          (math.nextafter(distinguishability._MAX_STRETCH, 1e3), cores, shifts)):
                with pytest.raises(InvalidArgumentError):
                    replace(state.branch_set, frame=frame)


class TestDisplacedFrames:
    """css and dfs homodyne read their one- or two-level cores moved along x at
    every angle; the Fock path on the branches is their oracle."""

    @pytest.mark.parametrize("angle", (0.0, 0.3, 1.0, 1.4))
    def test_css_bhattacharyya_closed_form(self, angle):
        # no truncation left: the trapezoid rule is spectrally exact on
        # Gaussians, here centred at +-sqrt(2) alpha cos(phi)
        det = DetectorModel.homodyne(angle)
        for alpha in np.linspace(0.05, 3.0, 60):
            expected = 1.0 - math.exp(-2.0 * (alpha * math.cos(angle)) ** 2)
            assert abs(d_bc(css(alpha).branch_set, det) - expected) <= 1e-12

    def test_dfs_bhattacharyya_does_not_depend_on_alpha(self):
        # the cores are read on the grid moved with them, so only alpha's
        # rounding of the grid remains
        det = DetectorModel.homodyne()
        values = [d_bc(dfs(alpha).branch_set, det) for alpha in np.linspace(0.1, 4.0, 40)]
        assert max(values) - min(values) <= 1e-13

    @pytest.mark.parametrize("angle", ANGLES)
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("make", [
        partial(css, 0.05), partial(css, 1.5), partial(css, 4.0),
        partial(dfs, 0.0), partial(dfs, 1.3), partial(dfs, 4.0),
    ], ids=["css-0.05", "css-1.5", "css-4", "dfs-0", "dfs-1.3", "dfs-4"])
    def test_frame_matches_fock_path_at_doubled_cutoffs(self, make, sigma, angle):
        det = DetectorModel.homodyne(angle, sigma)
        with scaled_cutoffs(2):
            branch_set = make().branch_set
            frame_bc, frame_kd = both_measures(branch_set, det)
            fock_bc, fock_kd = both_measures(replace(branch_set, frame=None), det)
        assert abs(frame_bc - fock_bc) <= 1e-12
        assert abs(frame_kd - fock_kd) <= 1e-12

    @pytest.mark.parametrize("angle", (0.0, 0.3))
    @pytest.mark.parametrize("sigma", (0.0, 1.0))
    @pytest.mark.parametrize("make, n_max", [
        (partial(css, 1.5), 0),
        (partial(dfs, 2.0), 1),
    ], ids=["css", "dfs"])
    def test_hermite_table_stops_at_the_core(self, monkeypatch, make, n_max, sigma, angle):
        n_maxes = recording_hermite(monkeypatch)
        both_measures(make().branch_set, DetectorModel.homodyne(angle, sigma))
        assert n_maxes == [n_max]


class TestCatalogHomodyneReadsTheFrame:
    @pytest.mark.parametrize("angle", (0.0, 0.4, 1.2))
    @pytest.mark.parametrize("sigma", (0.0, 1.0, 3.0))
    @pytest.mark.parametrize("make", [partial(css, 1.3), partial(dfs, 2.0), partial(psv, 1.5, 2)],
                             ids=["css", "dfs", "psv"])
    def test_doubled_cutoffs_change_no_bit(self, make, sigma, angle):
        # the grid and the rows both come from the frame's cores, so the
        # truncation of the Fock branches never enters
        det = DetectorModel.homodyne(angle, sigma)
        with scaled_cutoffs(2):
            doubled = make().branch_set
        branch_set = make().branch_set
        assert doubled.branches[0].cutoff > branch_set.branches[0].cutoff
        for measure in (both_measures, d_kd):
            assert measure(doubled, det) == measure(branch_set, det)


class TestSharpPnrd:
    @pytest.mark.parametrize("sigma", (1e-300, 1e-9, 0.05, distinguishability._SHARP_PNRD_SIGMA))
    def test_small_sigma_is_the_discrete_limit(self, sigma):
        branch_set = dfs(2.0).branch_set
        rows, grid = branch_distributions(branch_set, DetectorModel.pnrd(sigma=sigma))
        assert grid is None
        assert np.array_equal(rows, branch_set.counts)
        assert not rows.flags.writeable
        assert both_measures(branch_set, DetectorModel.pnrd(sigma=sigma)) == both_measures(
            branch_set, DetectorModel.pnrd()
        )

    def test_threshold(self):
        # neighbouring outcomes' Gaussians overlap by exp(-1/(8 sigma^2))
        sigma = distinguishability._SHARP_PNRD_SIGMA
        assert math.exp(-1.0 / (8.0 * sigma**2)) == pytest.approx(1e-16, rel=1e-12)
        branch_set = dfs(2.0).branch_set
        wider = DetectorModel.pnrd(sigma=math.nextafter(sigma, 1.0))
        blurred = both_measures(branch_set, wider)
        assert branch_distributions(branch_set, wider)[1] is not None
        assert blurred == pytest.approx(both_measures(branch_set, DetectorModel.pnrd()), abs=1e-9)


class TestDfsClosedForm:
    @staticmethod
    def brute_force(alpha):
        # log-space summation so the factorial never overflows
        total = 0.0
        for m in range(0, 400):
            log_term = (2 * m - 2) * math.log(alpha) - math.lgamma(m + 1)
            total += math.exp(log_term) * abs(m - alpha**2)
        return math.exp(-(alpha**2)) * alpha * total

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.6, 2.5, 3.7])
    def test_matches_series(self, alpha):
        assert dfs_kd_closed_form(alpha) == pytest.approx(
            self.brute_force(alpha), abs=1e-12
        )

    def test_small_alpha_linear(self):
        # leading behaviour 2 alpha as alpha -> 0
        assert dfs_kd_closed_form(0.01) == pytest.approx(0.02, abs=1e-3)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            dfs_kd_closed_form(0.0)

    def test_matches_numeric_pnrd(self):
        state = dfs(1.3)
        num = d_kd(state.branch_set, DetectorModel.pnrd())
        assert num == pytest.approx(dfs_kd_closed_form(1.3), abs=1e-7)

    def test_homodyne_alpha_independent(self):
        det = DetectorModel.homodyne()
        vals = [d_kd(dfs(a).branch_set, det) for a in (0.5, 1.5, 3.0)]
        ref = math.sqrt(2 / math.pi)
        for v in vals:
            assert v == pytest.approx(ref, abs=1e-4)
        assert max(vals) - min(vals) < 1e-7


def gram_bounds(branch_set):
    """The (D_BC, D_KD) that no measurement exceeds, from the Gram matrix
    G_ij = <b_i|b_j> of the branches.  With rho_k = |b_k><b_k| and sigma_k its
    complement mixture: any measurement's Bhattacharyya coefficient is at
    least the fidelity sqrt(<b_k|sigma_k|b_k>), where <b_k|sigma_k|b_k> =
    sum_{j != k} w_j |G_kj|^2 / (1 - w_k), and its total variation at most
    the trace distance 1/2 ||rho_k - sigma_k||_1, the half sum of |eigenvalues|
    of G^{1/2} diag(c) G^{1/2} with c_k = 1 and c_j = -w_j / (1 - w_k)
    (Helstrom (1976); Fuchs and van de Graaf, IEEE Trans. Inf. Theory 45,
    1216 (1999))."""
    branches = branch_set.branches
    cutoff = max(b.cutoff for b in branches)
    amps = np.array([np.pad(b.amplitudes, (0, cutoff - b.cutoff)) for b in branches])
    gram = amps.conj() @ amps.T
    eig, vec = np.linalg.eigh(gram)
    root = (vec * np.sqrt(np.clip(eig, 0.0, None))) @ vec.conj().T
    weights = branch_set.weights
    overlap = trace = 0.0
    for k, w in enumerate(weights):
        c = -weights / (1.0 - w)
        c[k] = 1.0
        trace += w * 0.5 * np.abs(np.linalg.eigvalsh(root @ np.diag(c) @ root)).sum()
        others = [j for j in range(weights.size) if j != k]
        fidelity = sum(weights[j] * abs(gram[k, j]) ** 2 for j in others) / (1.0 - w)
        overlap += w * math.sqrt(fidelity)
    return 1.0 - overlap, trace


_CATALOG_STATES = st.one_of(
    st.builds(css, st.floats(0.05, 4.0)),
    st.builds(dfs, st.floats(0.0, 4.0)),
    st.builds(psv, st.floats(0.05, 2.5), st.integers(1, 3)),
)
# Hand-built branches: coherent states on a lattice of amplitudes, and
# squeezed vacua other than the vacuum, all built to a tail far below
# roundoff, so that their truncation moves no density by more than roundoff.
_AMPLITUDES = st.integers(-4, 4).map(lambda k: 0.5 * k)
_HAND_BUILT_BRANCHES = st.one_of(
    st.builds(lambda re, im: ("coherent", complex(re, im)), _AMPLITUDES, _AMPLITUDES),
    st.builds(lambda r: ("squeezed", r), st.sampled_from([-1.0, -0.5, 0.5, 1.0])),
)


def _hand_built_branch(kind, value):
    if kind == "coherent":
        return coherent_state(value, 1e-300)
    return squeezed_vacuum(value, 1e-300)


@st.composite
def _three_branch_sets(draw):
    # three distinct branches with unequal weights, in general
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)))
    branches = draw(st.lists(_HAND_BUILT_BRANCHES, min_size=3, max_size=3, unique=True))
    return BranchSet(np.sqrt(weights / weights.sum()),
                     tuple(_hand_built_branch(*branch) for branch in branches))


_BRANCH_SETS = st.one_of(_CATALOG_STATES.map(lambda state: state.branch_set),
                         _three_branch_sets())
_KINDS = st.sampled_from(["homodyne", "pnrd"])
_ANGLES = st.floats(0.0, math.pi)
# sigma on the 0.01 lattice of [0, 4]; see TestQuantumBounds
_SIGMAS = st.integers(0, 400).map(lambda k: k / 100.0)


def _detector(kind, angle, sigma):
    if kind == "pnrd":
        return DetectorModel.pnrd(sigma=sigma)
    return DetectorModel.homodyne(angle, sigma)


class TestQuantumBounds:
    """Blur is a Markov kernel and no detector beats an optimal measurement,
    so for every branch set and detector (slack 1e-12, roundoff): D_KD does
    not grow with sigma, D_KD <= sqrt(1 - (1 - D_BC)^2), and D_BC and D_KD
    stay below their Gram-matrix bounds.  The same facts also give D_BC
    non-increasing in sigma and D_BC <= D_KD, which fail today by the grid
    errors of ROADMAP items 12 and 8 and are not tested here."""

    @given(branch_set=_BRANCH_SETS, kind=_KINDS, angle=_ANGLES, sigma=_SIGMAS)
    @settings(max_examples=40, deadline=None)
    def test_below_the_gram_bounds(self, branch_set, kind, angle, sigma):
        bc, kd = both_measures(branch_set, _detector(kind, angle, sigma))
        bc_bound, kd_bound = gram_bounds(branch_set)
        assert bc <= bc_bound + 1e-12
        assert kd <= kd_bound + 1e-12

    @given(branch_set=_BRANCH_SETS, kind=_KINDS, angle=_ANGLES,
           sigmas=st.lists(_SIGMAS, min_size=2, max_size=2).map(sorted))
    @settings(max_examples=40, deadline=None)
    def test_d_kd_does_not_grow_with_blur(self, branch_set, kind, angle, sigmas):
        sharp, blurred = (_detector(kind, angle, sigma) for sigma in sigmas)
        assert d_kd(branch_set, blurred) <= d_kd(branch_set, sharp) + 1e-12
        assert both_measures(branch_set, blurred)[1] <= both_measures(branch_set, sharp)[1] + 1e-12

    # The case hypothesis shrinks the test above to when it fails, which it
    # does in a few runs of a fresh example database: D_KD rises by 2.7e-11.
    # default_homodyne_grid widens the sharp grid by 6 sigma on each side, so
    # its step changes with sigma, while on a 0.088 step the kernel of
    # sigma = 0.01 puts e^-38.7 on its neighbours and smooths nothing.  A
    # grid sized without sigma (ROADMAP item 12) mends it.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the sharp homodyne grid moves with sigma (ROADMAP item 12)")
    def test_d_kd_does_not_grow_with_faint_blur_of_wide_psv(self):
        branch_set = psv(2.5, 1).branch_set
        sharp, blurred = (DetectorModel.homodyne(0.0, sigma) for sigma in (0.0, 0.01))
        assert d_kd(branch_set, blurred) <= d_kd(branch_set, sharp) + 1e-12
        assert both_measures(branch_set, blurred)[1] <= both_measures(branch_set, sharp)[1] + 1e-12

    @given(branch_set=_BRANCH_SETS, kind=_KINDS, angle=_ANGLES, sigma=_SIGMAS)
    @settings(max_examples=40, deadline=None)
    def test_d_kd_below_its_fuchs_van_de_graaf_bound(self, branch_set, kind, angle, sigma):
        bc, kd = both_measures(branch_set, _detector(kind, angle, sigma))
        assert kd <= math.sqrt(1.0 - (1.0 - bc) ** 2) + 1e-12
