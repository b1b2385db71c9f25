import math
import tracemalloc

import numpy as np
import pytest

from macrolens import (
    DetectorModel,
    Ensemble,
    Pdf,
    Pmf,
    blur_pdf,
    blur_pmf,
    coherent_state,
    fock_state,
    hermite_functions,
    homodyne_pdf,
    pnrd_pmf,
    psv,
    squeezed_vacuum,
    superpose,
    wigner,
)
from macrolens.errors import (
    GridCoverageError,
    GridMismatchError,
    InvalidArgumentError,
    UnsupportedRangeError,
    UsePmfDirectly,
)
from macrolens.measurement import (
    blur_pdfs,
    blur_pmfs,
    default_homodyne_grid,
    homodyne_pdfs,
    pnrd_pmfs,
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
        grid = default_homodyne_grid([sv], math.pi / 2)
        pdf = homodyne_pdf(sv, math.pi / 2, grid)
        var = math.exp(4.0) / 2.0
        expect = np.exp(-pdf.xs**2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.max(np.abs(pdf.values - expect)) < 1e-8


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
        # the kernel is sampled at the grid step, so every row must share it
        with pytest.raises(GridMismatchError):
            blur_pdfs([homodyne_pdf(fock_state(0, 8)), homodyne_pdf(coherent_state(1.0))], 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidArgumentError):
            blur_pdf(homodyne_pdf(fock_state(0, 8)), -1.0)

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0, 40.0])
    def test_matches_zero_padded_convolution(self, sigma):
        # at sigma = 40 the kernel is longer than the rows it blurs
        rows = homodyne_pdfs([fock_state(0, 8), coherent_state(1.5)], 0.3, (-6.0, 8.0, 512))
        dx = rows[0].dx
        pad = math.ceil(6.0 * sigma / dx)
        kernel = np.exp(-0.5 * (np.arange(-pad, pad + 1) * dx / sigma) ** 2)
        kernel /= kernel.sum()
        for pdf, row in zip(blur_pdfs(rows, sigma), rows, strict=True):
            assert (pdf.grid_min, pdf.grid_max, pdf.n_points) == (
                row.grid_min - pad * dx, row.grid_max + pad * dx, row.n_points + 2 * pad)
            padded = np.convolve(np.pad(row.values, pad), kernel, mode="same")
            np.testing.assert_allclose(pdf.values, padded, rtol=1e-14, atol=0)

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
        from macrolens import kolmogorov_distance

        two, one = blur_pmfs([Pmf(np.array([0.5, 0.5])), Pmf(np.array([1.0, 0.0]))], 0.05)
        assert kolmogorov_distance(two, one) == pytest.approx(0.5, abs=1e-6)

    def test_broad_blur_mass(self):
        pmf = pnrd_pmf(coherent_state(1.5))
        pdf = blur_pmf(pmf, 3.0)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-6)

    def test_peak_memory_stays_near_the_output(self):
        # the output rows, their Pdf copies and one cell block's temporaries;
        # an outcome-by-window array (2950 x 289 doubles here) would not fit
        rows = pnrd_pmfs(psv(2.5).branch_set.branches)
        tracemalloc.start()
        try:
            dists = blur_pmfs(rows, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sum(d.values.nbytes for d in dists) + 2**20


class TestEmptyInputs:
    @pytest.mark.parametrize("call", [
        lambda: homodyne_pdfs([], 0.0, (-5.0, 5.0, 256)),
        lambda: pnrd_pmfs([]),
        lambda: blur_pmfs([], 1.0),
        lambda: blur_pdfs([], 1.0),
    ], ids=["homodyne_pdfs", "pnrd_pmfs", "blur_pmfs", "blur_pdfs"])
    def test_no_rows_rejected(self, call):
        with pytest.raises(InvalidArgumentError):
            call()


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

    @pytest.mark.filterwarnings("error")
    def test_angle_reduced_mod_two_pi(self):
        # n * phi must stay finite for every Fock level
        assert DetectorModel.homodyne(angle=2 * math.pi + 0.3).angle == pytest.approx(0.3)
        wide = DetectorModel.homodyne(angle=1e308)
        assert abs(wide.angle) < 2 * math.pi
        pdf = homodyne_pdf(coherent_state(1.0), wide.angle)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-6)
