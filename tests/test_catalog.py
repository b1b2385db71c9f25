import math
from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

from macrolens import (
    DetectorModel,
    both_measures,
    build,
    coherent_state,
    css,
    d_kd,
    dfs,
    displace,
    fock_state,
    from_amplitudes,
    moments,
    n_fluct,
    psv,
    scaled_cutoffs,
)
from macrolens import catalog, fock
from macrolens.catalog import FAMILIES, PARAM_NAMES
from macrolens.figures import compute, run_figure
from macrolens.errors import (
    DegenerateSubtractionError,
    InvalidArgumentError,
    UnsupportedRangeError,
)
from macrolens.measurement import pnrd_pmfs


class TestCss:
    def test_branches(self):
        state = css(1.5)
        b1, b2 = state.branch_set.branches
        assert b1.fidelity(coherent_state(1.5)) > 1 - 1e-12
        assert b2.fidelity(coherent_state(-1.5)) > 1 - 1e-12
        assert state.family == "css"
        assert state.params == {"alpha": 1.5}

    def test_superpositions_orthogonal(self):
        state = css(1.0)
        assert abs(state.psi_plus.overlap(state.psi_minus)) < 1e-10

    def test_range(self):
        with pytest.raises(UnsupportedRangeError):
            css(0.0)
        with pytest.raises(UnsupportedRangeError):
            css(4.5)


class TestPsv:
    def test_plus_branch_is_single_subtraction(self):
        # psi_+ must reduce to the normalized a S|0>; cross-check against a
        # direct matrix-exponential construction of the squeeze operator
        r = 0.8
        state = psv(r)
        dim = state.psi_plus.cutoff
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        squeeze = expm(0.5 * r * (a.conj().T @ a.conj().T - a @ a))
        sv = squeeze[:, 0]
        sub = a @ sv
        oracle = from_amplitudes(sub / np.linalg.norm(sub))
        assert state.psi_plus.fidelity(oracle) > 1 - 1e-8

    def test_minus_branch_is_double_subtraction(self):
        r = 0.8
        state = psv(r)
        dim = state.psi_minus.cutoff
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        squeeze = expm(0.5 * r * (a.conj().T @ a.conj().T - a @ a))
        sub = a @ a @ squeeze[:, 0]
        oracle = from_amplitudes(sub / np.linalg.norm(sub))
        assert state.psi_minus.fidelity(oracle) > 1 - 1e-8

    def test_branches_normalized_orthogonal(self):
        state = psv(1.0)
        b1, b2 = state.branch_set.branches
        assert abs(b1.norm() - 1) < 1e-10
        assert abs(b1.overlap(b2)) < 1e-8

    def test_distinguishability_decreases_slowly(self):
        vals = {r: d_kd(psv(r).branch_set, DetectorModel.homodyne())
                for r in (0.5, 1.5, 2.5)}
        assert vals[0.5] > 0.9
        assert vals[0.5] > vals[1.5] > vals[2.5] > 0.9

    def test_degenerate_at_zero(self):
        with pytest.raises(DegenerateSubtractionError):
            psv(0.0)

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("r", (0.05, 0.5, 1.0, 2.5))
    def test_x_quadrature_separates_branches(self, r, m):
        # the branches (u +- v)/sqrt(2) are real with opposite-parity parts,
        # so they share one p distribution: phi = 0 is the homodyne angle
        branches = psv(r, m).branch_set
        assert d_kd(branches, DetectorModel.homodyne(angle=math.pi / 2)) <= 1e-12
        assert d_kd(branches, DetectorModel.homodyne()) > 0.8

    def test_range_and_m(self):
        with pytest.raises(UnsupportedRangeError):
            psv(3.0)
        with pytest.raises(InvalidArgumentError):
            psv(1.0, m=0)

    @pytest.mark.parametrize("m", (3, 4, 5))
    def test_branch_tails_are_the_subtraction_tails(self, monkeypatch, m):
        # u and v drop the exact mass of a^m S|0> and a^(m+1) S|0> beyond the
        # branches' cutoff (tests/test_fock.py checks _squeezed against
        # mpmath); each branch adds them by Cauchy-Schwarz
        from macrolens.fock import _squeezed

        monkeypatch.setenv("MACROLENS_TAIL_TOL", "1e-6")
        branches = psv(2.5, m).branch_set.branches
        tails = [_squeezed(-2.5, k, 2969)[1] for k in (m, m + 1)]
        expected = (math.sqrt(tails[0]) + math.sqrt(tails[1])) ** 2 / 2
        for b in branches:
            assert b.cutoff == 2969  # the start levels already meet 1e-6
            assert b.tail_mass == pytest.approx(expected, rel=1e-12)
            assert b.tail_mass > 1e-14

    @pytest.mark.parametrize("tol", ("1e-12", "1e-16", "1e-24"))
    def test_every_small_m_meets_the_tolerance(self, monkeypatch, tol):
        # the cutoff grows until a^m S|0> and a^(m+1) S|0> both drop less than
        # the tolerance; m = 7 at r = 0.05 and 1e-24 grows for a^7 alone
        from macrolens.fock import _squeezed

        monkeypatch.setenv("MACROLENS_TAIL_TOL", tol)
        for m in range(1, 8):
            for r in (0.05, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5):
                branches = psv(r, m).branch_set.branches
                cutoff = branches[0].cutoff
                assert max(_squeezed(-r, k, cutoff)[1] for k in (m, m + 1)) < float(tol)
                assert max(b.tail_mass for b in branches) < float(tol)

    @pytest.mark.parametrize("r, m, cutoff", [
        (2.5, 1, 2969), (1.0, 3, 148),  # fit the start levels, as before
        (1.0, 5, 296), (2.5, 4, 5938), (0.5, 40, 220), (1.0, 100, 1184),  # grew
    ])
    def test_cutoffs_and_their_scaling(self, r, m, cutoff):
        assert psv(r, m).branch_set.branches[0].cutoff == cutoff
        with scaled_cutoffs(2):
            for b in psv(r, m).branch_set.branches:
                assert b.cutoff == 2 * cutoff

    def test_branch_tails_are_honest(self):
        # a^4 reweights the squeezed vacuum's tail by about n^4
        for b in psv(2.5, 3).branch_set.branches:
            assert 1e-14 < b.tail_mass < 1e-12

    @pytest.mark.parametrize("m", (1, 2, 5, 40))
    @pytest.mark.parametrize("r", (0.05, 1.0, 2.5))
    def test_cores_are_the_walk_of_a_dense_power(self, r, m):
        # A = cosh r a + sinh r a^dag on m + 3 levels: A^k |0> for k <= m + 1
        # never reaches the last level, so the dense power is exact
        a = np.diag(np.sqrt(np.arange(1.0, m + 3)), 1)
        walk = math.cosh(r) * a + math.sinh(r) * a.T
        for k, (core, _) in zip((m, m + 1), catalog._cores(r, m)):
            expected = np.linalg.matrix_power(walk, k)[:, 0]
            assert not expected[k + 1:].any()
            expected = expected[:k + 1] / np.linalg.norm(expected)
            assert core.cutoff == k + 1
            assert np.max(np.abs(core.amplitudes - expected)) <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("m", (1, 2, 5, 40))
    @pytest.mark.parametrize("r", (0.05, 1.0, 2.5))
    def test_photons_of_each_core_from_its_moments(self, r, m):
        # S^dag a S = cosh r a + sinh r a^dag gives <n> of S core as
        # c^2 <n> + s^2 (<n> + 1) + 2 c s Re<a^2> of the core; it is N too,
        # as <a> vanishes on a core of one photon-number parity
        c, s = math.cosh(r), math.sinh(r)
        for core, n in catalog._cores(r, m):
            mean_a, mean_n, mean_a2 = core._ladder
            assert mean_a == 0.0
            expected = c * c * mean_n + s * s * (mean_n + 1.0) + 2.0 * c * s * mean_a2.real
            assert n == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestDfs:
    def test_plus_is_coherent(self):
        state = dfs(1.5)
        assert state.psi_plus.fidelity(coherent_state(1.5)) > 1 - 1e-10

    def test_minus_is_displaced_single_photon(self):
        state = dfs(1.5)
        oracle = displace(fock_state(1, 4), 1.5)
        assert state.psi_minus.fidelity(oracle) > 1 - 1e-10
        m = moments(state.psi_minus)
        assert m.mean_n == pytest.approx(1 + 1.5**2, abs=1e-8)

    def test_vacuum_limit(self):
        state = dfs(0.0)
        assert state.psi_plus.fidelity(fock_state(0, 4)) > 1 - 1e-12

    def test_pnrd_approaches_homodyne_at_large_alpha(self):
        # photon counting on a strongly displaced branch resolves the same
        # quadrature-like statistics as homodyne detection
        state = dfs(4.0)
        hd = d_kd(state.branch_set, DetectorModel.homodyne())
        pn = d_kd(state.branch_set, DetectorModel.pnrd())
        assert abs(hd - pn) < 0.02
        assert hd == pytest.approx(math.sqrt(2 / math.pi), abs=1e-4)

    def test_range(self):
        with pytest.raises(UnsupportedRangeError):
            dfs(-0.1)
        with pytest.raises(UnsupportedRangeError):
            dfs(4.1)


class TestBuild:
    def test_dispatch(self):
        assert build("css", alpha=1.0).family == "css"
        assert build("psv", r=1.0).family == "psv"
        assert build("dfs", alpha=1.0).family == "dfs"
        assert FAMILIES == ("css", "psv", "dfs")
        assert PARAM_NAMES == {"css": "alpha", "psv": "r", "dfs": "alpha"}

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            build("ghz", alpha=1.0)


_STATES = [
    *(partial(css, alpha) for alpha in (0.05, 0.7, 1.5, 4.0)),
    *(partial(dfs, alpha) for alpha in (0.0, 0.3, 2.0, 4.0)),
    *(partial(psv, r, m) for r in (0.05, 1.0, 2.5) for m in (1, 2, 5)),
]


class TestFromTheFrame:
    """N, <n> and the photon-count rows are read from each family's frame in
    closed form; the Fock branches and psi_pm are built on first read."""

    @pytest.mark.parametrize("make", _STATES)
    def test_photon_numbers_match_the_fock_path(self, make):
        with scaled_cutoffs(2):
            state = make()
            for k, psi in enumerate((state.psi_plus, state.psi_minus)):
                n, mean_n = n_fluct(psi), moments(psi).mean_n
                assert abs(state.n_fluct[k] - n) <= 1e-12 * max(1.0, n)
                assert abs(state.mean_n[k] - mean_n) <= 1e-12 * max(1.0, mean_n)

    def test_dfs_plus_is_classical(self):
        # psi_+ = D(alpha)|0>: its N is 0 exactly, not the Fock path's roundoff
        assert [dfs(alpha).n_fluct[0] for alpha in (0.0, 1.3, 4.0)] == [0.0] * 3

    @pytest.mark.parametrize("make", _STATES)
    def test_count_rows_match_the_branches(self, make):
        branch_set = make().branch_set
        counts = branch_set.counts
        assert counts.shape[1] == max(b.cutoff for b in branch_set.branches)
        assert np.abs(counts - pnrd_pmfs(branch_set.branches)).max() <= 1e-13
        assert not counts.flags.writeable

    @pytest.mark.parametrize("make", [s for s in _STATES if s.func is not dfs])
    def test_css_and_psv_rows_are_twins(self, make):
        # one row, so blur_pmfs blurs it once for both branches
        counts = make().branch_set.counts
        assert np.array_equal(counts[0], counts[1])

    @pytest.mark.parametrize("make", [partial(css, 1.5), partial(dfs, 2.0), partial(dfs, 0.0),
                                      partial(psv, 1.0, 2)])
    def test_doubled_cutoffs_lengthen_the_count_rows(self, make):
        # so acceptance criterion 10 still doubles every family's photon counting
        with scaled_cutoffs(2):
            doubled = make().branch_set.counts
        assert doubled.shape[1] == 2 * make().branch_set.counts.shape[1]

    def test_deferred_builds_keep_the_scale_of_construction(self):
        with scaled_cutoffs(2):
            state = dfs(2.0)
        assert state.psi_minus.cutoff == 2 * dfs(2.0).psi_minus.cutoff

    def test_deferred_builds_keep_the_tolerance_of_construction(self, monkeypatch):
        # at r = 2.5 the 2969 start levels meet 1e-6 for a^4 S|0> and a^5 S|0>,
        # but not the default 1e-12
        monkeypatch.setenv("MACROLENS_TAIL_TOL", "1e-6")
        state = psv(2.5, 4)
        monkeypatch.delenv("MACROLENS_TAIL_TOL")
        assert state.branch_set.counts.shape[1] == state.branch_set.branches[0].cutoff == 2969
        assert psv(2.5, 4).branch_set.counts.shape[1] == 5938

    @pytest.mark.parametrize("family, params", [
        ("css", {"alpha": 1.5}), ("dfs", {"alpha": 2.0}), ("psv", {"r": 1.0, "m": 2}),
    ])
    def test_homodyne_builds_no_fock_vector(self, monkeypatch, family, params):
        def refuse(*args, **kwargs):
            raise AssertionError("a Fock branch was built")

        for owner in (fock, catalog):
            monkeypatch.setattr(owner, "_displaced", refuse)
        monkeypatch.setattr(fock, "_squeezed", refuse)
        state = build(family, **params)
        assert state.n_fluct[1] > 0.0 and state.mean_n[1] > 0.0
        for det in (DetectorModel.homodyne(), DetectorModel.homodyne(0.3, 1.0)):
            assert 0.0 < both_measures(state.branch_set, det)[1] <= 1.0
            assert 0.0 < d_kd(state.branch_set, det) <= 1.0

    def test_tables_build_no_fock_branch(self, monkeypatch):
        # figures 2-8 and photon-counting points read frames, count rows and
        # closed forms: no catalog branch is built as a FockVector
        def refuse(*args, **kwargs):
            raise AssertionError("a Fock branch was built")

        for name in ("_displaced", "coherent_state", "from_amplitudes"):
            monkeypatch.setattr(catalog, name, refuse)
        for fig in range(2, 9):
            assert run_figure(fig, steps=3).rows
        for family, params in (("css", {"alpha": 1.5}), ("dfs", {"alpha": 2.0}),
                               ("psv", {"r": 1.0})):
            for sigma in (0.0, 1.0):
                assert compute(family, params, "pnrd", sigma).rows
