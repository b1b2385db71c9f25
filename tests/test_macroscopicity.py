import math

import numpy as np
import pytest

from macrolens import (
    DetectorModel,
    Ensemble,
    MacroReport,
    coherent_state,
    css,
    dfs,
    displace,
    fock_state,
    m_subjective,
    n_fluct,
    psv,
    report,
    squeezed_vacuum,
    superpose,
)
from macrolens.errors import InvalidArgumentError, UnsupportedMixedStateError


class TestNFluct:
    def test_vacuum(self):
        assert n_fluct(fock_state(0, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_is_classical(self):
        # a coherent state has <n> = |<a>|^2, so the fluctuation number vanishes
        assert n_fluct(coherent_state(2.0)) == pytest.approx(0.0, abs=1e-8)

    def test_fock(self):
        assert n_fluct(fock_state(3, 8)) == pytest.approx(3.0, abs=1e-12)

    def test_odd_cat_oracle(self):
        alpha = 1.3
        cat = superpose(coherent_state(alpha), coherent_state(-alpha), -1)
        expect = alpha**2 / math.tanh(alpha**2)
        assert n_fluct(cat) == pytest.approx(expect, abs=1e-8)

    def test_even_cat_oracle(self):
        alpha = 1.3
        cat = superpose(coherent_state(alpha), coherent_state(-alpha), +1)
        expect = alpha**2 * math.tanh(alpha**2)
        assert n_fluct(cat) == pytest.approx(expect, abs=1e-8)

    def test_squeezed_vacuum_oracle(self):
        r = 1.0
        assert n_fluct(squeezed_vacuum(r)) == pytest.approx(
            math.sinh(r) ** 2, abs=1e-8
        )

    @pytest.mark.parametrize("beta", [0.5, -1.5, 2.0 + 1.0j, 3.0j])
    def test_displacement_invariance(self, beta):
        cat = superpose(coherent_state(1.2), coherent_state(-1.2), -1)
        base = n_fluct(cat)
        assert n_fluct(displace(cat, beta)) == pytest.approx(base, abs=1e-7)

    def test_mixture_rejected(self):
        mix = Ensemble(((0.5, fock_state(0, 4)), (0.5, fock_state(1, 4))))
        with pytest.raises(UnsupportedMixedStateError):
            n_fluct(mix)


class TestMSubjective:
    def test_product(self):
        assert m_subjective(4.0, 0.5) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            m_subjective(-1.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            m_subjective(1.0, 1.5)

    @pytest.mark.parametrize("superposition_n", [math.nan, math.inf])
    def test_non_finite_n_rejected(self, superposition_n):
        with pytest.raises(InvalidArgumentError, match="fluctuation photon number"):
            m_subjective(superposition_n, 0.5)


class TestReport:
    def test_css_fields(self):
        state = css(1.0)
        rep = report(state, -1, DetectorModel.homodyne())
        assert isinstance(rep, MacroReport)
        assert rep.n_fluct == pytest.approx(1.0 / math.tanh(1.0), abs=1e-8)
        assert rep.m_kd == pytest.approx(rep.n_fluct * rep.d_kd, abs=1e-10)
        assert rep.m_bc == pytest.approx(rep.n_fluct * rep.d_bc, abs=1e-10)

    def test_tiny_css_approaches_single_photon(self):
        # as alpha -> 0 the odd cat tends to |1>: N -> 1, D -> 0, so M -> 0
        rep = report(css(0.01), -1, DetectorModel.homodyne())
        assert rep.n_fluct == pytest.approx(1.0, abs=1e-3)
        assert rep.d_kd == pytest.approx(0.016, abs=1e-3)
        assert rep.m_kd < 0.02

    def test_dfs_plus_is_coherent(self):
        # D(alpha)|0> is a coherent state: zero fluctuation number, so M = 0
        rep = report(dfs(2.0), +1, DetectorModel.pnrd())
        assert rep.n_fluct == pytest.approx(0.0, abs=1e-7)
        assert rep.m_kd == pytest.approx(0.0, abs=1e-7)
        assert rep.d_kd > 0.3

    def test_psv_plus_oracle(self):
        # N(psi_+) for m=1 subtraction: (3/2) cosh(2r) - 1/2
        r = 0.8
        rep = report(psv(r), +1, DetectorModel.homodyne())
        assert rep.n_fluct == pytest.approx(
            1.5 * math.cosh(2 * r) - 0.5, abs=1e-6
        )

    def test_blur_reduces_m(self):
        state = css(1.5)
        sharp = report(state, -1, DetectorModel.homodyne(sigma=0.0))
        noisy = report(state, -1, DetectorModel.homodyne(sigma=2.0))
        assert noisy.n_fluct == pytest.approx(sharp.n_fluct, abs=1e-10)
        assert noisy.m_kd < sharp.m_kd
        assert noisy.m_bc < sharp.m_bc

    def test_detector_recorded(self):
        det = DetectorModel.pnrd(sigma=1.0)
        rep = report(css(1.0), -1, det)
        assert rep.detector == det

    def test_bad_sign(self):
        with pytest.raises(InvalidArgumentError):
            report(css(1.0), 0, DetectorModel.homodyne())
