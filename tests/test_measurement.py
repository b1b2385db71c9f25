import math
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import macrolens
from macrolens import (
    DetectorModel,
    Ensemble,
    FockVector,
    Pdf,
    Pmf,
    blur_pdf,
    blur_pmf,
    coherent_state,
    css,
    fock_state,
    hermite_functions,
    homodyne_pdf,
    pad_to_cutoff,
    pnrd_pmf,
    psv,
    squeezed_vacuum,
    superpose,
    wigner,
)
from macrolens.errors import (
    GridCoverageError,
    InvalidArgumentError,
    UnsupportedRangeError,
    UsePmfDirectly,
)
from macrolens import measurement
from macrolens.distinguishability import branch_distributions
from macrolens.measurement import (
    _HERMITE_BLOCK,
    _waves,
    blur_pdfs,
    checked_rows,
    blur_pmfs,
    default_homodyne_grid,
    frame_pdfs,
    pnrd_pmfs,
    row_integrals,
)


class TestHermiteFunctions:
    def test_parity_zero(self):
        assert hermite_functions(0.0, 1)[1] == 0.0

    def test_ground_state_value(self):
        assert hermite_functions(0.0, 0)[0] == pytest.approx(math.pi**-0.25)

    def test_orthonormality(self):
        xs = np.linspace(-12, 12, 2048)
        psi = hermite_functions(xs, 30)
        gram = psi @ psi.T * (xs[1] - xs[0])
        assert np.max(np.abs(gram - np.eye(31))) < 1e-8

    # "error" turns numpy's overflow RuntimeWarnings into failures
    @pytest.mark.filterwarnings("error")
    def test_finite_deep_in_forbidden_region(self):
        vals = hermite_functions(np.array([-40.0, 40.0, -1e150, 1e150]), 2048)
        assert np.all(np.isfinite(vals))

    def test_large_n_large_x_accuracy(self):
        # oscillatory region reached through the scaled recurrence: compare
        # psi_n(x)^2 sums against the known squeezed-state quadrature PDF
        sv = squeezed_vacuum(2.0)
        grid = default_homodyne_grid(0.0, [sv], (0.0,), math.pi / 2)
        pdf = homodyne_pdf(sv, math.pi / 2, grid)
        var = math.exp(4.0) / 2.0
        expect = np.exp(-pdf.xs**2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.max(np.abs(pdf.values - expect)) < 1e-8

    @pytest.mark.parametrize("n", (0, 1, 127, 128, 129, 388))
    def test_matches_mpmath_across_block_seams(self, n):
        # psi_n(x) = H_n(x) e^{-x^2/2} / (pi^{1/4} sqrt(2^n n!)) at 40 digits;
        # values below about 1e-230 at x = 40 underflow to 0
        mp = pytest.importorskip("mpmath")
        xs = np.array([0.0, 2.5, 15.0, 27.0, 40.0])
        with mp.workdps(40):
            exact = [
                float(mp.hermite(n, x) * mp.exp(-mp.mpf(x) ** 2 / 2)
                      / (mp.pi ** mp.mpf(0.25) * mp.sqrt(2**n * mp.factorial(n))))
                for x in xs
            ]
        assert np.max(np.abs(hermite_functions(xs, n)[n] - exact)) < 1e-13

    @pytest.mark.parametrize("levels", (_HERMITE_BLOCK, 3 * _HERMITE_BLOCK + 5))
    def test_blocked_product_matches_one_table(self, levels):
        rng = np.random.default_rng(7)
        amplitudes = rng.standard_normal((3, levels)) + 1j * rng.standard_normal((3, levels))
        xs = np.linspace(-30.0, 30.0, 401)
        blocked = _waves(amplitudes, xs)
        # the stacked real product, as _waves runs it: BLAS may block a
        # 3-row product differently from a 6-row one
        stacked = np.concatenate([amplitudes.real, amplitudes.imag]) @ hermite_functions(
            xs, levels - 1
        )
        whole = stacked[:3] + 1j * stacked[3:]
        if levels <= _HERMITE_BLOCK:
            assert np.array_equal(blocked, whole)
        else:
            assert np.max(np.abs(blocked - whole)) < 1e-13 * np.max(np.abs(whole))

    @pytest.mark.parametrize("levels", (1, 5, _HERMITE_BLOCK + 7))
    @pytest.mark.parametrize("rows", (1, 2, 3))
    def test_real_table_gives_the_real_part_of_the_stacked_product(self, rows, levels):
        rng = np.random.default_rng(3)
        amplitudes = rng.standard_normal((rows, levels)).astype(complex)
        xs = np.linspace(-12.0, 12.0, 301)
        # the stacked real/imaginary product of the table as a complex one
        stacked = np.zeros((2 * rows, xs.size))
        coefficients = np.concatenate([amplitudes.real, amplitudes.imag])
        for block, psi in measurement._hermite_blocks(xs, levels - 1):
            stacked += coefficients[:, block] @ psi
        assert not stacked[rows:].any()
        waves = _waves(amplitudes, xs)
        assert waves.dtype == np.float64
        assert np.array_equal(waves, stacked[:rows])

    def test_homodyne_holds_one_block_of_levels(self):
        # 2000 levels on 2048 points would be a 33 MB table
        state = fock_state(1, 2000)
        tracemalloc.start()
        try:
            (row,) = frame_pdfs(0.0, [state], [0.0], 0.0, (-8.0, 8.0, 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        expected = homodyne_pdf(fock_state(1, 2), 0.0, (-8.0, 8.0, 2048)).values
        assert np.max(np.abs(row - expected)) < 1e-14


class TestFramePdfs:
    @pytest.mark.parametrize("angle", (0.0, 0.3))
    def test_one_core_object_at_two_shifts(self, monkeypatch, angle):
        core = superpose(fock_state(0, 3), fock_state(2, 3), -1)
        twin = superpose(fock_state(0, 3), fock_state(2, 3), -1)
        assert twin is not core and np.array_equal(twin.amplitudes, core.amplitudes)
        grid = (-9.0, 9.0, 2048)
        tables = []  # (rows, points) of each expansion
        waves = measurement._waves
        monkeypatch.setattr(measurement, "_waves", lambda amplitudes, xs: (
            tables.append((amplitudes.shape[0], xs.size)) or waves(amplitudes, xs)))
        apart = frame_pdfs(0.4, [core, twin], (1.5, -1.5), angle, grid)
        assert tables == [(1, 2048), (1, 2048)]  # each object over its own copy
        tables.clear()
        shared = frame_pdfs(0.4, [core, core], (1.5, -1.5), angle, grid)
        assert tables == [(1, 2 * 2048)]  # one expansion over both copies
        assert np.array_equal(shared, apart)
        tables.clear()
        frame_pdfs(0.4, [core, twin], (1.5, 1.5), angle, grid)
        assert tables == [(2, 2048)]  # two objects reading one copy share it


class TestHomodynePdf:
    def test_vacuum_gaussian(self):
        pdf = homodyne_pdf(fock_state(0, 8))
        expect = np.exp(-pdf.xs**2) / math.sqrt(math.pi)
        assert np.max(np.abs(pdf.values - expect)) < 1e-12
        assert pdf.mean() == pytest.approx(0.0, abs=1e-9)
        assert pdf.variance() == pytest.approx(0.5, abs=1e-6)

    def test_coherent_displaced_gaussian(self):
        pdf = homodyne_pdf(coherent_state(1.5))
        assert pdf.mean() == pytest.approx(1.5 * math.sqrt(2), abs=1e-6)
        assert pdf.variance() == pytest.approx(0.5, abs=1e-6)

    def test_conjugate_quadrature(self):
        pdf = homodyne_pdf(coherent_state(1.5), angle=math.pi / 2)
        assert pdf.mean() == pytest.approx(0.0, abs=1e-8)

    def test_mixture_averages(self):
        cases = [
            (((0.5, coherent_state(1.0)), (0.5, coherent_state(-1.0))), 0.0),
            # components of different cutoffs
            (((0.3, fock_state(1, 4)), (0.7, coherent_state(1.5))), 0.7 * 1.5 * math.sqrt(2)),
        ]
        for components, mean in cases:
            pdf = homodyne_pdf(Ensemble(components))
            grid = (pdf.grid_min, pdf.grid_max, pdf.n_points)
            parts = sum(w * homodyne_pdf(s, grid=grid).values for w, s in components)
            assert np.max(np.abs(pdf.values - parts)) < 1e-12
            assert pdf.mean() == pytest.approx(mean, abs=1e-8)
            assert pdf.integral() == pytest.approx(1.0, abs=1e-6)

    def test_narrow_grid_rejected(self):
        with pytest.raises(GridCoverageError):
            homodyne_pdf(coherent_state(2.0), grid=(-1.0, 1.0, 256))


class TestPnrdPmf:
    def test_single_photon(self):
        pmf = pnrd_pmf(fock_state(1, 4))
        assert pmf.probabilities[1] == 1.0

    def test_poisson_statistics(self):
        pmf = pnrd_pmf(coherent_state(1.0))
        n = np.arange(pmf.cutoff)
        expect = np.exp(-1.0) / np.array([math.factorial(int(k)) for k in n])
        assert np.max(np.abs(pmf.probabilities - expect)) < 1e-12

    def test_even_cat_parity(self):
        cat = superpose(coherent_state(1.2), coherent_state(-1.2), +1)
        pmf = pnrd_pmf(cat)
        assert np.max(pmf.probabilities[1::2]) < 1e-20


class TestBlurPdf:
    def test_zero_sigma_identity(self):
        pdf = homodyne_pdf(fock_state(0, 8))
        assert blur_pdf(pdf, 0.0) is pdf

    def test_variance_addition(self):
        pdf = blur_pdf(homodyne_pdf(fock_state(0, 8)), 1.0)
        assert pdf.variance() == pytest.approx(1.5, abs=1e-4)

    def test_mass_preserved(self):
        pdf = blur_pdf(homodyne_pdf(coherent_state(1.0)), 2.0)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-6)

    def test_one_kernel_needs_one_grid(self):
        # the kernel is sampled at the grid step, so every row must lie on the grid
        with pytest.raises(InvalidArgumentError):
            blur_pdfs(np.ones((2, 100)) / 10.0, (-5.0, 5.0, 256), 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidArgumentError):
            blur_pdf(homodyne_pdf(fock_state(0, 8)), -1.0)

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0, 40.0])
    def test_matches_zero_padded_convolution(self, sigma):
        # at sigma = 40 the kernel is longer than the rows it blurs
        grid = (-6.0, 8.0, 512)
        rows = frame_pdfs(0.0, [fock_state(0, 8), coherent_state(1.5)], [0.0, 0.0], 0.3, grid)
        dx = (grid[1] - grid[0]) / (grid[2] - 1)
        pad = math.ceil(6.0 * sigma / dx)
        kernel = np.exp(-0.5 * (np.arange(-pad, pad + 1) * dx / sigma) ** 2)
        kernel /= kernel.sum()
        blurred, blurred_grid = blur_pdfs(rows, grid, sigma)
        assert blurred_grid == (-6.0 - pad * dx, 8.0 + pad * dx, 512 + 2 * pad)
        for value, row in zip(blurred, rows, strict=True):
            padded = np.convolve(np.pad(row, pad), kernel, mode="same")
            np.testing.assert_allclose(value, padded, rtol=1e-14, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_tiny_sigma_is_identity(self):
        # every off-centre kernel exponent overflows, so the kernel is [0, 1, 0]
        pdf = homodyne_pdf(fock_state(0, 8))
        blurred = blur_pdf(pdf, 1e-300)
        assert np.array_equal(blurred.values[1:-1], pdf.values)


class TestBlurPmf:
    def test_zero_sigma_signals_caller(self):
        with pytest.raises(UsePmfDirectly):
            blur_pmf(Pmf(np.array([1.0])), 0.0)

    def test_single_gaussian(self):
        pdf = blur_pmf(Pmf(np.array([1.0])), 0.5)
        assert pdf.mean() == pytest.approx(0.0, abs=1e-9)
        assert pdf.variance() == pytest.approx(0.25, abs=1e-6)

    def test_resolved_peaks(self):
        (two, one), grid = blur_pmfs(np.array([[0.5, 0.5], [1.0, 0.0]]), 0.05)
        two, one = Pdf(*grid, two), Pdf(*grid, one)
        kd = 0.5 * np.trapezoid(np.abs(two.values - one.values), dx=two.dx)
        assert kd == pytest.approx(0.5, abs=1e-6)

    def test_broad_blur_mass(self):
        pmf = pnrd_pmf(coherent_state(1.5))
        pdf = blur_pmf(pmf, 3.0)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("order", ["aba", "baa", "aa"])
    def test_repeated_rows_blur_to_their_twins(self, order):
        # each row of a table with repeats is, bit for bit, its twin's row
        # in the blur of the distinct rows, on that blur's grid
        pad = pad_to_cutoff(coherent_state(1.2), 40)
        table = {"a": pnrd_pmf(pad).probabilities,
                 "b": pnrd_pmf(fock_state(3, 40)).probabilities}
        distinct = "".join(dict.fromkeys(order))
        expected, grid = blur_pmfs(np.stack([table[k] for k in distinct]), 1.3)
        values, values_grid = blur_pmfs(np.stack([table[k] for k in order]), 1.3)
        assert values_grid == grid
        for key, row in zip(order, values, strict=True):
            assert np.array_equal(row, expected[distinct.index(key)])

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    @pytest.mark.parametrize("state", [css(1.5), psv(2.5), psv(2.5, m=2)],
                             ids=["css", "psv-m1", "psv-m2"])
    def test_css_and_psv_branches_blur_to_one_row(self, state, sigma):
        # |alpha> and |-alpha> share |c_n|^2, and so do psv's (u +- v)/sqrt(2)
        rows, _ = branch_distributions(state.branch_set, DetectorModel.pnrd(sigma=sigma))
        assert np.array_equal(rows[0], rows[1])

    def test_peak_memory_stays_near_the_output(self):
        # the output rows and one cell block's temporaries; an
        # outcome-by-window array (2950 x 289 doubles here) would not fit
        rows = pnrd_pmfs(psv(2.5).branch_set.branches)
        tracemalloc.start()
        try:
            values, _ = blur_pmfs(rows, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes + 2**20


class TestRowIntegrals:
    """The one integration rule: np.trapezoid's own expression with a scalar
    step, or a row sum for photon counts, bit for bit."""

    @pytest.mark.parametrize("n_points", [64, 2048, 4097])
    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    def test_equals_trapezoid_and_sum(self, n_rows, n_points):
        values = np.random.default_rng(n_rows * n_points).random((n_rows, n_points))
        grid = (-7.3, 11.9, n_points)
        dx = (grid[1] - grid[0]) / (grid[2] - 1)
        assert np.array_equal(row_integrals(values, grid), np.trapezoid(values, dx=dx, axis=-1))
        assert np.array_equal(row_integrals(values, None), values.sum(axis=-1))

    @pytest.mark.parametrize("grid", [(-8.0, 8.0, 256), None], ids=["pdf", "pmf"])
    def test_table_rows_integrate_as_single_rows(self, grid):
        table = np.random.default_rng(7).random((3, 256))
        whole = row_integrals(table, grid)
        assert all(row_integrals(row, grid) == value for row, value in zip(table, whole))

    def test_pdf_moments_are_trapezoid_sums(self):
        pdf = homodyne_pdf(coherent_state(0.8 + 0.3j))
        xs, dx = pdf.xs, pdf.dx
        assert pdf.integral() == float(np.trapezoid(pdf.values, dx=dx))
        assert pdf.mean() == float(np.trapezoid(xs * pdf.values, dx=dx))
        mu = pdf.mean()
        assert pdf.variance() == float(np.trapezoid((xs - mu) ** 2 * pdf.values, dx=dx))


class TestCheckedRows:
    """One check of a whole table makes the checks of Pdf and Pmf on each row."""

    @staticmethod
    def row(grid):
        if grid is None:
            return np.array([0.25, 0.5, 0.25, 0.0])
        xs = np.linspace(*grid)
        return np.exp(-(xs**2)) / math.sqrt(math.pi)

    @pytest.mark.parametrize("spoil", ["nan", "negative", "mass"])
    @pytest.mark.parametrize("grid", [(-8.0, 8.0, 256), None], ids=["pdf", "pmf"])
    def test_table_raises_what_one_row_raises(self, grid, spoil):
        good = self.row(grid)
        bad = good.copy()
        if spoil == "nan":
            bad[1] = np.nan
        elif spoil == "negative":
            bad[0] = -1e-9
        else:
            bad *= 1.01
        with pytest.raises(InvalidArgumentError) as one:
            Pmf(bad) if grid is None else Pdf(*grid, bad)
        with pytest.raises(InvalidArgumentError) as table:
            checked_rows(np.stack([good, bad]), grid)
        assert str(table.value) == str(one.value)

    @pytest.mark.parametrize("grid", [(-8.0, 8.0, 256), None], ids=["pdf", "pmf"])
    def test_noise_floor_clipped_in_place(self, grid):
        rows = np.stack([self.row(grid), self.row(grid)])
        rows[1, -1] = -1e-13
        checked = checked_rows(rows, grid)
        assert checked is rows and not checked.flags.writeable
        assert checked[1, -1] == 0.0

    def test_table_needs_the_grid_length(self):
        with pytest.raises(InvalidArgumentError):
            checked_rows(np.ones((2, 100)) / 10.0, (-5.0, 5.0, 101))


class TestEmptyInputs:
    @pytest.mark.parametrize("call", [
        lambda: frame_pdfs(0.0, [], [], 0.0, (-5.0, 5.0, 256)),
        lambda: pnrd_pmfs([]),
        lambda: blur_pmfs(np.empty((0, 4)), 1.0),
        lambda: blur_pdfs(np.empty((0, 256)), (-5.0, 5.0, 256), 1.0),
    ], ids=["frame_pdfs", "pnrd_pmfs", "blur_pmfs", "blur_pdfs"])
    def test_no_rows_rejected(self, call):
        with pytest.raises(InvalidArgumentError):
            call()


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestWigner:
    def test_vacuum_origin_value(self):
        w = wigner(fock_state(0, 8), (-5, 5), (-5, 5), 101)
        assert w.values[50, 50] == pytest.approx(1 / math.pi, abs=1e-10)
        assert w.integral() == pytest.approx(1.0, abs=1e-4)

    def test_odd_cat_negativity(self):
        cat = superpose(coherent_state(1.5), coherent_state(-1.5), -1)
        w = wigner(cat, (-6, 6), (-6, 6), 121)
        assert w.values[60, 60] < 0
        # parity oracle: sign of W(0,0) follows sum (-1)^n P(n), which is -1
        # for an odd state
        assert w.values.min() < -0.05

    def test_mixture_nonnegative(self):
        tol = 1e-16
        mix = Ensemble(
            ((0.5, coherent_state(1.5, tol)), (0.5, coherent_state(-1.5, tol)))
        )
        w = wigner(mix, (-6, 6), (-6, 6), 121)
        assert w.values.min() >= -1e-10

    def test_marginal_matches_homodyne(self):
        cat = superpose(coherent_state(1.5), coherent_state(-1.5), -1)
        w = wigner(cat, (-7, 7), (-7, 7), 141)
        pdf = homodyne_pdf(cat, 0.0, grid=(-7.0, 7.0, 141))
        assert np.max(np.abs(w.marginal_x() - pdf.values)) < 1e-4

    def test_grid_coverage(self):
        with pytest.raises(GridCoverageError):
            wigner(coherent_state(3.0), (-1, 1), (-1, 1), 64)

    @pytest.mark.parametrize("x_range, p_range", [
        ((-1, 1), (-5, 5)), ((-5, 5), (-1, 1)), ((-5, 3), (-5, 5)),
    ], ids=["x-misses", "p-misses", "one-side-misses"])
    def test_window_missing_mass_refused(self, x_range, p_range):
        cat = superpose(coherent_state(1.5, 1e-16), coherent_state(-1.5, 1e-16), -1)
        with pytest.raises(GridCoverageError):
            wigner(cat, x_range, p_range, 81)

    @pytest.mark.parametrize("n_points", (2, 3, 5, 17))
    def test_coarse_grid_over_the_state_accepted(self, n_points):
        # each cell is exact at its point; a coarse grid cannot resolve the
        # fringes, but the marginals are integrated finely
        cat = superpose(coherent_state(1.5, 1e-16), coherent_state(-1.5, 1e-16), -1)
        coarse = wigner(cat, (-5, 5), (-5, 5), n_points)
        fine = wigner(cat, (-5, 5), (-5, 5), 4 * (n_points - 1) + 1)
        assert np.max(np.abs(coarse.values - fine.values[::4, ::4])) < 1e-15

    def test_figure1_fields_match_closed_forms(self):
        # cat (|a> - |-a>) and 50/50 mixture at a = 1.5, built as figure 1
        # builds them, on its grid, against their closed forms at 40 digits
        mp = pytest.importorskip("mpmath")
        alpha, tol = 1.5, 1e-16
        branches = (coherent_state(alpha, tol), coherent_state(-alpha, tol))
        cat = superpose(*branches, -1)
        mix = Ensemble(tuple((0.5, b) for b in branches))
        w_cat = wigner(cat, (-5, 5), (-5, 5), 81)
        w_mix = wigner(mix, (-5, 5), (-5, 5), 81)
        with mp.workdps(40):
            x0 = mp.sqrt(2) * alpha
            norm = 1 / (2 * (1 - mp.exp(-2 * mp.mpf(alpha) ** 2)))
            err_cat = err_mix = 0.0
            for i, x in enumerate(w_cat.xs):
                for j, p in enumerate(w_cat.ps):
                    x, p = mp.mpf(float(x)), mp.mpf(float(p))
                    peaks = mp.exp(-((x - x0) ** 2) - p**2) + mp.exp(-((x + x0) ** 2) - p**2)
                    fringe = 2 * mp.exp(-(x**2) - p**2) * mp.cos(2 * x0 * p)
                    exact_cat = float(norm * (peaks - fringe) / mp.pi)
                    err_cat = max(err_cat, abs(exact_cat - w_cat.values[i, j]))
                    err_mix = max(err_mix, abs(float(peaks / (2 * mp.pi)) - w_mix.values[i, j]))
        assert err_cat <= 3.9e-16
        assert err_mix <= 2.8e-16

    def test_squeezed_vacuum_gaussian(self):
        # 148 levels on (-8, 8)^2; a per-pair Laguerre recurrence diverges here
        r = 1.0
        w = wigner(squeezed_vacuum(r, 1e-16), (-8, 8), (-8, 8), 121)
        x, p = np.meshgrid(w.xs, w.ps, indexing="ij")
        expected = np.exp(-(x**2) * math.exp(2 * r) - p**2 * math.exp(-2 * r)) / math.pi
        assert np.max(np.abs(w.values - expected)) < 1e-9

    def test_ensemble_with_unequal_cutoffs(self):
        one, coh = fock_state(1, 4), coherent_state(1.5)
        assert one.cutoff != coh.cutoff
        mix = wigner(Ensemble(((0.25, one), (0.75, coh))), (-6, 6), (-6, 6), 61)
        parts = [wigner(s, (-6, 6), (-6, 6), 61).values for s in (one, coh)]
        assert np.max(np.abs(mix.values - (0.25 * parts[0] + 0.75 * parts[1]))) < 1e-14

    def test_memory_stays_small(self):
        state = coherent_state(1.5, 1e-16)
        tracemalloc.start()
        try:
            wigner(state, (-5, 5), (-5, 5), 201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_range, p_range, error", [
        ((math.nan, 5), (-5, 5), InvalidArgumentError),
        ((-5, 5), (-5, math.inf), InvalidArgumentError),
        ((1, 1), (-5, 5), InvalidArgumentError),
        ((-5, 5), (0, 0), InvalidArgumentError),
        ((5, -5), (-5, 5), InvalidArgumentError),
        ((-5, 5), (5, -5), InvalidArgumentError),
        ((-1e200, 1e200), (-5, 5), UnsupportedRangeError),
        ((-1e100, 1e100), (-5, 5), UnsupportedRangeError),
    ], ids=["nan", "inf", "zero-width-x", "zero-width-p", "reversed-x", "reversed-p",
            "x-squared-overflows", "x-grid-too-fine"])
    def test_ranges_refused(self, x_range, p_range, error):
        with pytest.raises(error):
            wigner(coherent_state(1.0), x_range, p_range, 41)

    def test_wide_p_range_refused_before_allocating(self):
        # +-1e6 in p needs 5.5e6 y steps; the refusal must come before any
        # array, so run it where an allocation of 2 GiB fails
        code = (
            "import tracemalloc\n"
            "from macrolens import coherent_state, wigner\n"
            "from macrolens.errors import UnsupportedRangeError\n"
            "state = coherent_state(1.0)\n"
            "tracemalloc.start()\n"
            "try:\n"
            "    wigner(state, (-5, 5), (-1e6, 1e6), 41)\n"
            "except UnsupportedRangeError:\n"
            "    print('refused', tracemalloc.get_traced_memory()[1])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
            timeout=120, preexec_fn=_capped_address_space,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                 "PYTHONPATH": os.path.dirname(os.path.dirname(macrolens.__file__))},
        )
        word, peak = proc.stdout.split()
        assert word == "refused"
        assert int(peak) < 1e6

    @pytest.mark.parametrize("subject", ["cat", "figure1-cat", "figure1-mixture", "complex"])
    def test_one_wave_table_per_grid(self, monkeypatch, subject):
        # x waves on the refined x grid u and momentum waves on the p grid
        # come from two tables; the oracle replays the table with the two
        # quadrants of the one table over [amplitudes; turned] x [u; p_fine]
        # that W once read them from, as complex rows.  The cat's -1.5 branch
        # is the +1.5 one under parity, so its amplitudes are real, and so are
        # those of figure 1's coherent_state(-1.5): only a complex alpha gives
        # complex x waves.
        plus = coherent_state(1.5, 1e-16)
        minus = FockVector((-1.0) ** np.arange(plus.cutoff) * plus.amplitudes)
        branches = (plus, coherent_state(-1.5, 1e-16))
        components = {
            "cat": [(1.0, superpose(plus, minus, -1))],
            "figure1-cat": [(1.0, superpose(*branches, -1))],
            "figure1-mixture": [(0.5, b) for b in branches],
            "complex": [(1.0, coherent_state(1.0 + 0.7j, 1e-16))],
        }[subject]
        xs = ps = np.linspace(-5.0, 5.0, 81)
        calls = []  # (amplitudes, grid, waves) of each expansion
        waves = measurement._waves
        monkeypatch.setattr(measurement, "_waves", lambda amplitudes, grid: (
            calls.append((amplitudes, grid, waves(amplitudes, grid))) or calls[-1][2]))
        table, masses = measurement._wigner_table(components, xs, ps)
        assert len(calls) == 2
        (amplitudes, u, x_waves), (turned, p_fine, p_waves) = calls
        n_states = len(components)
        assert x_waves.shape == (n_states, u.size) and p_waves.shape == (n_states, p_fine.size)
        assert (p_fine[0], p_fine[-1]) == (ps[0], ps[-1])
        assert p_waves.dtype == complex
        assert x_waves.dtype == (complex if subject == "complex" else float)
        one = waves(np.concatenate([amplitudes, turned]), np.concatenate([u, p_fine]))
        assert one.dtype == complex
        quadrants = iter([one[:n_states, :u.size], one[n_states:, u.size:]])
        monkeypatch.setattr(measurement, "_waves", lambda amplitudes, grid: next(quadrants))
        old_table, old_masses = measurement._wigner_table(components, xs, ps)
        assert np.array_equal(table, old_table)
        assert np.array_equal(masses, old_masses)

    def test_complex_coherent_gaussian(self):
        # a complex amplitude pins the sign of p: a mirrored p would fail
        alpha = 1.0 + 0.7j
        w = wigner(coherent_state(alpha, 1e-16), (-4, 6), (-4, 6), 81)
        x, p = np.meshgrid(w.xs, w.ps, indexing="ij")
        mx, mp = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag
        expected = np.exp(-((x - mx) ** 2) - (p - mp) ** 2) / math.pi
        assert np.max(np.abs(w.values - expected)) < 1e-10


class TestNonFinite:
    def test_pdf_rejects_nan_and_inf(self):
        # a NaN mass passes the unit-mass check, since NaN compares false
        vals = np.ones(64)
        vals[3] = np.nan
        with pytest.raises(InvalidArgumentError):
            Pdf(0.0, 1.0, 64, vals)
        with pytest.raises(InvalidArgumentError):
            Pdf(-np.inf, 1.0, 64, np.zeros(64))

    def test_pmf_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            Pmf([0.5, np.nan, 0.5])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_grids_rejected(self):
        state = coherent_state(1.0)
        with pytest.raises(UnsupportedRangeError):
            homodyne_pdf(state, grid=(-6e200, 6e200, 2048))
        with pytest.raises(UnsupportedRangeError):
            blur_pdf(homodyne_pdf(state), 1e200)
        with pytest.raises(UnsupportedRangeError):
            blur_pmf(pnrd_pmf(state), 1e308)
        # only the n = 0 outcome: the grid is small, but 1/sigma^2 overflows
        with pytest.raises(UnsupportedRangeError):
            blur_pmf(Pmf(np.array([1.0])), 1e-200)


class TestDetectorModel:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            DetectorModel("heterodyne")
        with pytest.raises(InvalidArgumentError):
            DetectorModel.pnrd(sigma=-1.0)

    def test_factories(self):
        hd = DetectorModel.homodyne(angle=0.3, sigma=1.0)
        assert (hd.kind, hd.angle, hd.sigma) == ("homodyne", 0.3, 1.0)
        assert DetectorModel.pnrd().sigma == 0.0

    @pytest.mark.parametrize("angle", (0.3, -0.0, 7.0, -1e308))
    def test_pnrd_stores_angle_zero(self, angle):
        # a photon counter reads no angle, so every angle gives one detector
        det = DetectorModel("pnrd", angle=angle, sigma=2.0)
        assert det.angle == 0.0 and math.copysign(1.0, det.angle) == 1.0
        assert det == DetectorModel.pnrd(sigma=2.0)
        assert hash(det) == hash(DetectorModel.pnrd(sigma=2.0))

    @pytest.mark.parametrize("kind", ("pnrd", "homodyne"))
    @pytest.mark.parametrize("angle", (math.nan, math.inf, -math.inf))
    def test_non_finite_angle_refused(self, kind, angle):
        with pytest.raises(InvalidArgumentError, match="^angle must be finite$") as info:
            DetectorModel(kind, angle=angle)
        assert info.value.code == "invalid-argument"

    @pytest.mark.parametrize("angle", (0.3, -0.0, 7.0, -7.0, 1e308))
    def test_homodyne_angle_is_fmod_two_pi(self, angle):
        det = DetectorModel("homodyne", angle=angle)
        reduced = math.fmod(angle, 2.0 * math.pi)
        assert det.angle == reduced
        assert math.copysign(1.0, det.angle) == math.copysign(1.0, reduced)

    @pytest.mark.filterwarnings("error")
    def test_angle_reduced_mod_two_pi(self):
        # n * phi must stay finite for every Fock level
        assert DetectorModel.homodyne(angle=2 * math.pi + 0.3).angle == pytest.approx(0.3)
        wide = DetectorModel.homodyne(angle=1e308)
        assert abs(wide.angle) < 2 * math.pi
        pdf = homodyne_pdf(coherent_state(1.0), wide.angle)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-6)
