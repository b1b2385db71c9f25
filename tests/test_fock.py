import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import diags_array
from scipy.sparse.linalg import expm_multiply

from macrolens import (
    Ensemble,
    FockVector,
    coherent_state,
    displace,
    fock_state,
    from_amplitudes,
    moments,
    pad_to_cutoff,
    quadrature_stats,
    squeezed_vacuum,
    subtract_photons,
    superpose,
)
from macrolens.errors import (
    DegenerateSubtractionError,
    DegenerateSuperpositionError,
    InvalidArgumentError,
    UnsupportedRangeError,
)


def squeeze_matrix(r, dim, antisqueeze_x=False):
    """Reference squeeze operator by direct matrix exponentiation."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    gen = 0.5 * r * (a @ a - a.conj().T @ a.conj().T)
    if antisqueeze_x:
        gen = -gen
    return expm(gen)


def subtracted_squeezed_oracle(r, k, cutoff):
    """Normalized a^k S(r)|0> on ``cutoff`` levels and the mass beyond them, in
    50 digits. The amplitudes sqrt((n+k)!/n!) c_{n+k} come from the closed form
    c_{2j} = (-tanh r)^j sqrt((2j)!) / (2^j j! sqrt(cosh r)); the exact norm
    from the k + 1 levels of (cosh r a - sinh r a^dag)^k |0>, as
    S^dag a S = cosh r a - sinh r a^dag."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        r = mp.mpf(r)
        t, c, s = -mp.tanh(r), mp.cosh(r), mp.sinh(r)
        amps = [mp.mpf(0)] * cutoff
        for n in range(k % 2, cutoff, 2):
            j = (n + k) // 2
            amps[n] = t**j * mp.sqrt(
                mp.factorial(n + k) / mp.factorial(n) * mp.factorial(2 * j) / c
            ) / (2**j * mp.factorial(j))
        core = [mp.mpf(1)] + [mp.mpf(0)] * (k + 1)
        for _ in range(k):
            core = [c * mp.sqrt(i + 1) * core[i + 1] - s * mp.sqrt(i) * core[i - 1]
                    for i in range(k + 1)] + [mp.mpf(0)]
        norm_sq = mp.fsum(x * x for x in core)
        kept = mp.fsum(x * x for x in amps)
        return np.array([float(x / mp.sqrt(norm_sq)) for x in amps]), float(1 - kept / norm_sq)


class TestCoherentState:
    def test_vacuum_identity(self):
        v = coherent_state(0)
        assert v.amplitudes[0] == 1.0
        assert np.all(v.amplitudes[1:] == 0)

    def test_mean_photon_number(self):
        # <n> = |alpha|^2, cross-checked by direct summation
        v = coherent_state(1.5)
        n = np.arange(v.cutoff)
        direct = np.sum(n * np.abs(v.amplitudes) ** 2)
        assert moments(v).mean_n == pytest.approx(2.25, abs=1e-8)
        assert direct == pytest.approx(2.25, abs=1e-8)

    def test_tail_control(self):
        # Poisson tail bound: brute-force partial sums must confirm the
        # reported tail mass
        v = coherent_state(3)
        assert v.cutoff >= 40
        assert v.tail_mass < 1e-12
        from scipy.stats import poisson

        assert 1.0 - poisson.cdf(v.cutoff - 1, 9.0) == pytest.approx(
            v.tail_mass, abs=1e-13
        )

    @pytest.mark.parametrize("alpha, tol", [(1.5, 1e-16), (4.0, 1e-12), (2.7, 1e-14)])
    def test_tail_is_the_poisson_tail(self, alpha, tol):
        from scipy.stats import poisson

        v = coherent_state(alpha, tol)
        assert v.tail_mass < tol
        assert v.tail_mass == pytest.approx(poisson.sf(v.cutoff - 1, alpha**2), rel=1e-10, abs=0)

    @pytest.mark.parametrize("alpha, tol", [(1.5, 1e-16), (4.0, 1e-12)])
    def test_negative_alpha_is_the_parity_image(self, alpha, tol):
        # the phases e^{i n pi} are powers of -1, so no imaginary roundoff
        plus, minus = coherent_state(alpha, tol), coherent_state(-alpha, tol)
        assert not minus.amplitudes.imag.any()
        parity = (-1.0) ** np.arange(plus.cutoff)
        assert np.array_equal(minus.amplitudes, parity * plus.amplitudes)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            coherent_state(float("nan"))
        with pytest.raises(InvalidArgumentError):
            coherent_state(complex(float("inf"), 0))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(InvalidArgumentError):
            coherent_state(1.0, tail_tolerance=1e-3)
        with pytest.raises(InvalidArgumentError):
            coherent_state(1.0, tail_tolerance=0.0)
        with pytest.raises(InvalidArgumentError):
            squeezed_vacuum(0.5, tail_tolerance=0.0)

    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_normalized_and_poissonian(self, alpha):
        v = coherent_state(alpha)
        assert abs(v.norm() - 1.0) < 1e-10
        assert moments(v).mean_n == pytest.approx(abs(alpha) ** 2, abs=1e-8)


class TestSqueezedVacuum:
    def test_identity_squeeze(self):
        v = squeezed_vacuum(0.0)
        assert v.amplitudes[0] == 1.0

    def test_variances(self):
        m = moments(squeezed_vacuum(1.0))
        assert m.var_x == pytest.approx(math.exp(-2) / 2, abs=1e-6)
        assert m.var_p == pytest.approx(math.exp(2) / 2, abs=1e-6)

    def test_even_parity(self):
        v = squeezed_vacuum(1.0)
        assert np.all(v.amplitudes[1::2] == 0)

    def test_matches_matrix_exponential(self):
        v = squeezed_vacuum(0.8)
        s = squeeze_matrix(0.8, v.cutoff)
        oracle = from_amplitudes(s[:, 0])
        assert v.fidelity(oracle) > 1 - 1e-10

    def test_range_guard(self):
        with pytest.raises(UnsupportedRangeError):
            squeezed_vacuum(3.2)

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("r", (0.5, 1.5, -2.5))
    def test_subtracted_amplitudes_and_tail_match_mpmath(self, r, k):
        # on the default cutoffs; a^5 at r = -2.5 drops 1.43e-12
        from macrolens.fock import _squeezed

        cutoff = max(16, math.ceil(20.0 * math.exp(2.0 * abs(r))))
        amps, tail = _squeezed(r, k, cutoff)
        oracle_amps, oracle_tail = subtracted_squeezed_oracle(r, k, cutoff)
        assert np.max(np.abs(amps - oracle_amps)) < 1e-15
        assert tail == pytest.approx(oracle_tail, rel=1e-12, abs=0)

    def test_subtracted_pair_grows_on_both_tails(self):
        # at 23 levels a^8 S|0> already drops less than 1e-24 but a^7 S|0>
        # does not: the parity of the cutoff decides which one loses a level
        from macrolens.fock import _squeezed, _squeezed_amplitudes

        assert _squeezed(-0.05, 8, 23)[1] < 1e-24 <= _squeezed(-0.05, 7, 23)[1]
        (u, u_tail), (v, v_tail) = _squeezed_amplitudes(-0.05, (7, 8), 1e-24)
        assert u.size == v.size == 46
        assert max(u_tail, v_tail) < 1e-24

    def test_subtracted_pair_refusals(self):
        from macrolens.fock import _squeezed_amplitudes

        with pytest.raises(DegenerateSubtractionError):
            _squeezed_amplitudes(0.0, (1, 2))
        with pytest.raises(UnsupportedRangeError, match="does not fit"):
            _squeezed_amplitudes(-0.5, (100, 101))  # 55 start levels
        with pytest.raises(UnsupportedRangeError, match="stalls"):
            # every tail is 1 at 2969 and at 5938 levels
            _squeezed_amplitudes(-2.5, (300, 301))

    def test_tail_falls_below_roundoff(self):
        # the tail is summed directly, so it does not stall near 1e-16
        v = squeezed_vacuum(1.5, 1e-300)
        assert v.tail_mass < 1e-300
        assert v.cutoff == 12864


class TestFockState:
    def test_vacuum(self):
        v = fock_state(0, 4)
        assert v.amplitudes[0] == 1.0

    def test_single_photon_moments(self):
        m = moments(fock_state(1, 4))
        assert m.mean_n == pytest.approx(1.0, abs=1e-12)
        assert m.var_x == pytest.approx(1.5, abs=1e-12)
        assert m.var_p == pytest.approx(1.5, abs=1e-12)
        assert m.mean_a == 0

    def test_out_of_bounds(self):
        with pytest.raises(InvalidArgumentError):
            fock_state(5, 3)


class TestSubtractPhotons:
    def test_single_photon(self):
        out, factor = subtract_photons(fock_state(1, 4), 1)
        assert out.fidelity(fock_state(0, 4)) == pytest.approx(1.0, abs=1e-12)
        assert factor == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_subtraction_oracle(self):
        # a S(r)|0> is proportional to S(r)|1>; check against the matrix form
        sv = squeezed_vacuum(1.0)
        out, _ = subtract_photons(sv, 1)
        s = squeeze_matrix(1.0, sv.cutoff)
        oracle = from_amplitudes(s[:, 1])
        assert out.fidelity(oracle) > 1 - 1e-8

    def test_vacuum_is_degenerate(self):
        with pytest.raises(DegenerateSubtractionError):
            subtract_photons(fock_state(0, 4), 1)

    def test_tail_mass_bound(self):
        # a^m reweights the levels past the cutoff by about n^m, so only an
        # input without a tail bounds the output's
        assert subtract_photons(squeezed_vacuum(1.0), 1)[0].tail_mass == 1.0
        assert subtract_photons(fock_state(1, 4), 1)[0].tail_mass == 0.0

    def test_rejects_nonpositive_m(self):
        with pytest.raises(InvalidArgumentError):
            subtract_photons(fock_state(1, 4), 0)


class TestDisplace:
    def test_vacuum_gives_coherent(self):
        d = displace(fock_state(0, 4), 1.5 + 0.5j)
        assert d.fidelity(coherent_state(1.5 + 0.5j)) > 1 - 1e-10

    def test_displaced_single_photon(self):
        # ladder algebra: D^dag a D = a + alpha
        alpha = 1.0 + 0.5j
        m = moments(displace(fock_state(1, 4), alpha))
        assert m.mean_n == pytest.approx(1 + abs(alpha) ** 2, abs=1e-8)
        assert m.mean_a == pytest.approx(alpha, abs=1e-8)

    def test_identity(self):
        s = coherent_state(0.7)
        assert displace(s, 0) is s

    @pytest.mark.parametrize("alpha", [0.5, -1.2, 2.0 + 1.0j, 3.0j])
    def test_unitarity_and_inverse(self, alpha):
        s = squeezed_vacuum(0.5)
        d = displace(s, alpha)
        assert abs(d.norm() - 1.0) < 1e-8
        back = displace(d, -alpha)
        assert back.fidelity(s) > 1 - 1e-8

    @pytest.mark.parametrize("alpha", [0.5, -1.2, 2.0 + 1.0j, 3.0j, 4.0, 7.0 - 3.0j])
    @pytest.mark.parametrize("make", [
        lambda: fock_state(1, 4), lambda: coherent_state(1.3), lambda: squeezed_vacuum(0.5),
        lambda: squeezed_vacuum(1.0), lambda: odd_cat(2.0),
    ], ids=["fock1", "coherent", "squeezed", "squeezed1", "odd_cat"])
    def test_matches_expm_on_a_larger_basis(self, make, alpha):
        # the oracle's own truncation lies far beyond the output's cutoff
        s = make()
        d = displace(s, alpha)
        expected = expm_displaced(s, alpha, 2 * d.cutoff + 100)[: d.cutoff]
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(d.amplitudes - expected)) < 1e-14

    def test_reports_the_mass_beyond_its_cutoff(self):
        s = odd_cat(2.0)
        d = displace(s, 4.0)
        beyond = expm_displaced(s, 4.0, 2 * d.cutoff + 100)[d.cutoff:]
        assert d.tail_mass >= np.sum(np.abs(beyond) ** 2)

    @pytest.mark.parametrize("alpha", [40.0, 60.0j])
    def test_large_alpha_moments(self, alpha):
        # ladder algebra: D^dag a D = a + alpha
        m = moments(displace(fock_state(1, 4), alpha))
        assert m.mean_n == pytest.approx(1 + abs(alpha) ** 2, rel=1e-9)
        assert m.mean_a == pytest.approx(alpha, rel=1e-9)


def odd_cat(alpha):
    return superpose(coherent_state(alpha), coherent_state(-alpha), -1)


def expm_displaced(state, alpha, dim):
    """D(alpha)|state> by the action of the exponential of the generator
    alpha a^dag - alpha^* a truncated at ``dim`` levels, a sparse tridiagonal
    matrix, on the state."""
    root = np.sqrt(np.arange(1, dim))
    generator = diags_array(
        [alpha * root, -np.conj(alpha) * root], offsets=[-1, 1], dtype=complex
    )
    return expm_multiply(generator, pad_to_cutoff(state, dim).amplitudes)


class TestSuperpose:
    def test_destructive_cancellation(self):
        v = fock_state(0, 4)
        with pytest.raises(DegenerateSuperpositionError):
            superpose(v, v, -1)

    def test_small_odd_cat_is_single_photon(self):
        cat = superpose(coherent_state(0.01), coherent_state(-0.01), -1)
        assert cat.fidelity(fock_state(1, cat.cutoff)) > 0.9999

    def test_equal_weights(self):
        out = superpose(fock_state(0, 4), fock_state(1, 4), +1)
        assert out.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
        assert out.amplitudes[1] == pytest.approx(1 / math.sqrt(2))

    def test_bad_sign(self):
        with pytest.raises(InvalidArgumentError):
            superpose(fock_state(0, 4), fock_state(1, 4), 2)


class TestMoments:
    def test_vacuum(self):
        m = moments(fock_state(0, 4))
        assert m.mean_n == 0
        assert m.var_x == pytest.approx(0.5)
        assert m.var_p == pytest.approx(0.5)

    def test_coherent_convention(self):
        # <x> = sqrt(2) Re(alpha) under this quadrature convention
        m = moments(coherent_state(2.0))
        assert m.mean_x == pytest.approx(2 * math.sqrt(2), abs=1e-8)
        assert m.var_x == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize(
        "state",
        [
            coherent_state(1.3 + 0.4j),
            squeezed_vacuum(0.9),
            fock_state(3, 8),
            superpose(coherent_state(1.5), coherent_state(-1.5), -1),
        ],
    )
    def test_consistency_and_uncertainty(self, state):
        m = moments(state)
        recomposed = (m.mean_x**2 + m.mean_p**2 + m.var_x + m.var_p - 1) / 2
        assert m.mean_n == pytest.approx(recomposed, abs=1e-8)
        assert m.var_x * m.var_p >= 0.25 - 1e-9

    def test_quadrature_rotation(self):
        alpha = 1.0 + 1.0j
        s = coherent_state(alpha)
        mean0, var0 = quadrature_stats(s, 0.0)
        mean90, var90 = quadrature_stats(s, math.pi / 2)
        assert mean0 == pytest.approx(math.sqrt(2), abs=1e-8)
        assert mean90 == pytest.approx(math.sqrt(2), abs=1e-8)
        assert var0 == pytest.approx(0.5, abs=1e-8)
        assert var90 == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_quadrature_stats_refuse_a_non_finite_angle(self, angle):
        with pytest.raises(InvalidArgumentError, match="angle"):
            quadrature_stats(squeezed_vacuum(0.9), angle)

    @pytest.mark.parametrize("angle", [1e308, -1e308])
    def test_quadrature_stats_reduce_a_huge_angle(self, angle):
        # e^{-2i phi} overflows at |phi| = 1e308; the quadrature is 2 pi-periodic
        s = superpose(coherent_state(1.3 + 0.4j), squeezed_vacuum(0.9), 1)
        stats = quadrature_stats(s, angle)
        assert all(math.isfinite(v) for v in stats)
        assert stats == quadrature_stats(s, math.fmod(angle, 2.0 * math.pi))


class TestPadAndTypes:
    def test_pad_vacuum(self):
        v = pad_to_cutoff(FockVector(np.array([1.0 + 0j])), 8)
        assert v.cutoff == 8
        assert v.norm() == pytest.approx(1.0)

    def test_pad_noop(self):
        v = fock_state(1, 4)
        assert pad_to_cutoff(v, 4) is v

    def test_pad_shrink_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pad_to_cutoff(fock_state(1, 10), 5)

    @pytest.mark.parametrize("tail_mass", [math.nan, math.inf, -1e-3])
    def test_tail_mass_must_be_finite_and_non_negative(self, tail_mass):
        with pytest.raises(InvalidArgumentError, match="tail_mass"):
            FockVector(np.array([1.0 + 0j]), tail_mass=tail_mass)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FockVector(np.array([1.0, 1.0], dtype=complex))

    def test_ensemble_weight_validation(self):
        v = fock_state(0, 4)
        with pytest.raises(InvalidArgumentError):
            Ensemble(((0.6, v), (0.6, v)))
        ens = Ensemble(((0.5, v), (0.5, fock_state(1, 6))))
