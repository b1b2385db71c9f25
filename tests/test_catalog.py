import math

import numpy as np
import pytest
from scipy.linalg import expm

from macrolens import (
    DetectorModel,
    build,
    coherent_state,
    css,
    d_kd,
    dfs,
    displace,
    fock_state,
    from_amplitudes,
    moments,
    psv,
    squeezed_vacuum,
)
from macrolens.catalog import FAMILIES, PARAM_NAMES
from macrolens.errors import (
    DegenerateSubtractionError,
    InvalidArgumentError,
    UnsupportedRangeError,
)


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
        # squeezed vacuum's cutoff (tests/test_fock.py checks _squeezed
        # against mpmath); each branch adds them by Cauchy-Schwarz
        from macrolens.fock import _squeezed

        monkeypatch.setenv("MACROLENS_TAIL_TOL", "1e-6")
        cutoff = squeezed_vacuum(-2.5).cutoff
        tails = [_squeezed(-2.5, k, cutoff)[1] for k in (m, m + 1)]
        expected = (math.sqrt(tails[0]) + math.sqrt(tails[1])) ** 2 / 2
        for b in psv(2.5, m).branch_set.branches:
            assert b.cutoff == cutoff
            assert b.tail_mass == pytest.approx(expected, rel=1e-12)
            assert b.tail_mass > 1e-14

    def test_branch_tails_are_honest(self):
        # a^4 reweights the squeezed vacuum's tail by about n^4
        for b in psv(2.5, 3).branch_set.branches:
            assert 1e-14 < b.tail_mass < 1e-12


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
