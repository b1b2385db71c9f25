"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``acceptance criterion N: PASS|FAIL`` line.  All quantitative results are
produced by ``_numbers(n, scale)`` so that criterion 10 can replay every
number with doubled basis cutoffs and compare.
"""

import functools
import math

import numpy as np
from scipy.special import erf

from macrolens import (
    DetectorModel,
    Ensemble,
    both_measures,
    build,
    coherent_state,
    css,
    d_bc,
    d_kd,
    dfs,
    dfs_kd_closed_form,
    homodyne_pdf,
    n_fluct,
    psv,
    scaled_cutoffs,
    superpose,
    wigner,
)
from macrolens.distinguishability import branch_distributions
from macrolens.figures import run_figure
from macrolens.measurement import Pdf


def _scaled(scale, fn):
    if scale == 1:
        return fn()
    with scaled_cutoffs(scale):
        return fn()


def _mass(dist):
    return dist.integral() if isinstance(dist, Pdf) else float(np.sum(dist.probabilities))


def _check(criterion, failures):
    status = "FAIL" if failures else "PASS"
    print(f"acceptance criterion {criterion}: {status}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


# --- per-criterion number factories (all floats, keyed for comparison) ------


def _c1():
    return {
        f"nfluct_coherent_{a}": n_fluct(coherent_state(a))
        for a in (0.0, 0.5, 1.5, 3.0)
    }


def _c2():
    out = {}
    for a in np.linspace(0.2, 3.0, 15):
        plus = superpose(coherent_state(a), coherent_state(-a), +1)
        minus = superpose(coherent_state(a), coherent_state(-a), -1)
        out[f"cat_even_{a:.4f}"] = n_fluct(plus)
        out[f"cat_odd_{a:.4f}"] = n_fluct(minus)
    return out


def _c3():
    out = {}
    hd = DetectorModel.homodyne()
    pn = DetectorModel.pnrd()
    for a in np.linspace(0.2, 3.0, 8):
        bs = css(float(a)).branch_set
        bc, kd = both_measures(bs, hd)
        out[f"css_dbc_{a:.4f}"] = bc
        out[f"css_dkd_{a:.4f}"] = kd
    for a in (0.5, 1.5, 3.0):
        bs = css(a).branch_set
        bc, kd = both_measures(bs, pn)
        out[f"css_pnrd_dbc_{a}"] = bc
        out[f"css_pnrd_dkd_{a}"] = kd
    return out


def _c4():
    out = {}
    hd = DetectorModel.homodyne()
    for a in (0.0, 1.0, 2.0, 4.0):
        state = dfs(a)
        out[f"dfs_nplus_{a}"] = n_fluct(state.psi_plus)
        out[f"dfs_nminus_{a}"] = n_fluct(state.psi_minus)
        out[f"dfs_dkd_{a}"] = d_kd(state.branch_set, hd)
    return out


def _c5():
    pn = DetectorModel.pnrd()
    out = {}
    for a in np.linspace(0.2, 3.0, 41):
        out[f"dfs_pnrd_dkd_{a:.4f}"] = d_kd(dfs(float(a)).branch_set, pn)
    return out


def _c6():
    out = {}
    for r in (0.25, 0.5, 1.0, 1.5, 2.0):
        out[f"psv_nplus_{r}"] = n_fluct(psv(r).psi_plus)
    for r in (1.0, 2.5):
        state = psv(r)
        det = DetectorModel.homodyne()
        out[f"psv_dkd_{r}"] = d_kd(state.branch_set, det)
    return out


_C7_CASES = [
    (family, param, kind)
    for family in ("css", "psv", "dfs")
    for param in (0.5, 1.0, 2.0)
    for kind in (("homodyne", "pnrd") if family == "dfs" else ("homodyne",))
]


def _c7():
    out = {}
    for family, param, kind in _C7_CASES:
        key = "r" if family == "psv" else "alpha"
        state = build(family, **{key: param})
        for sigma in (0.0, 0.5, 1.0, 2.0, 4.0):
            if kind == "homodyne":
                det = DetectorModel.homodyne(sigma=sigma)
            else:
                det = DetectorModel.pnrd(sigma=sigma)
            tag = f"{family}_{param}_{kind}_s{sigma}"
            out[f"dkd_{tag}"] = d_kd(state.branch_set, det)
            dists = branch_distributions(state.branch_set, det)
            for i, dist in enumerate(dists):
                out[f"mass_{tag}_b{i}"] = _mass(dist)
    return out


def _c8():
    tol = 1e-16
    vac = coherent_state(0.0, tol)
    cat = superpose(coherent_state(1.5, tol), coherent_state(-1.5, tol), -1)
    mix = Ensemble(((0.5, coherent_state(1.5, tol)), (0.5, coherent_state(-1.5, tol))))
    out = {}
    for name, subject in (("vacuum", vac), ("cat", cat), ("mixture", mix)):
        w = wigner(subject, (-7.0, 7.0), (-7.0, 7.0), 141)
        pdf = homodyne_pdf(subject, 0.0, grid=(-7.0, 7.0, 141))
        out[f"w_integral_{name}"] = w.integral()
        out[f"w_marginal_err_{name}"] = float(
            np.max(np.abs(w.marginal_x() - pdf.values))
        )
        out[f"w_min_{name}"] = float(np.min(w.values))
    return out


def _c9():
    table = run_figure(8)
    out = {}
    for row in table.rows:
        family, sign, detector, sigma, param, mean_n, nf, dk, mk = row
        tag = f"{family}_{sign}_{detector}_s{sigma}_p{param:.6f}"
        out[f"mean_n_{tag}"] = mean_n
        out[f"m_kd_{tag}"] = mk
    return out


_FACTORIES = {1: _c1, 2: _c2, 3: _c3, 4: _c4, 5: _c5, 6: _c6, 7: _c7, 8: _c8, 9: _c9}


@functools.lru_cache(maxsize=None)
def _numbers(criterion, scale=1):
    return _scaled(scale, _FACTORIES[criterion])


# --- criterion tests ---------------------------------------------------------


def test_criterion_01_coherent_nullity():
    nums = _numbers(1)
    failures = [k for k, v in nums.items() if not v < 1e-8]
    _check(1, failures)


def test_criterion_02_cat_oracle():
    nums = _numbers(2)
    failures = []
    for a in np.linspace(0.2, 3.0, 15):
        even = nums[f"cat_even_{a:.4f}"]
        odd = nums[f"cat_odd_{a:.4f}"]
        if abs(even - a**2 * math.tanh(a**2)) > 1e-6:
            failures.append(f"even cat off at alpha={a:.4f}")
        if abs(odd - a**2 / math.tanh(a**2)) > 1e-6:
            failures.append(f"odd cat off at alpha={a:.4f}")
    a = 2.5
    plus = superpose(coherent_state(a), coherent_state(-a), +1)
    minus = superpose(coherent_state(a), coherent_state(-a), -1)
    if abs(n_fluct(plus) - n_fluct(minus)) >= 0.01:
        failures.append("even/odd curves do not converge at alpha=2.5")
    _check(2, failures)


def test_criterion_03_css_gaussian_oracles():
    nums = _numbers(3)
    failures = []
    for a in np.linspace(0.2, 3.0, 8):
        if abs(nums[f"css_dkd_{a:.4f}"] - erf(math.sqrt(2) * a)) > 1e-4:
            failures.append(f"d_kd off at alpha={a:.4f}")
        if abs(nums[f"css_dbc_{a:.4f}"] - (1 - math.exp(-2 * a**2))) > 1e-4:
            failures.append(f"d_bc off at alpha={a:.4f}")
    for a in (0.5, 1.5, 3.0):
        if not nums[f"css_pnrd_dkd_{a}"] < 1e-9:
            failures.append(f"pnrd d_kd not ~0 at alpha={a}")
        if not nums[f"css_pnrd_dbc_{a}"] < 1e-9:
            failures.append(f"pnrd d_bc not ~0 at alpha={a}")
    _check(3, failures)


def test_criterion_04_dfs_constancy():
    nums = _numbers(4)
    failures = []
    for a in (0.0, 1.0, 2.0, 4.0):
        if abs(nums[f"dfs_nplus_{a}"]) > 1e-8:
            failures.append(f"n_fluct(psi+) != 0 at alpha={a}")
        if abs(nums[f"dfs_nminus_{a}"] - 1.0) > 1e-8:
            failures.append(f"n_fluct(psi-) != 1 at alpha={a}")
    kds = [nums[f"dfs_dkd_{a}"] for a in (0.0, 1.0, 2.0, 4.0)]
    if max(kds) - min(kds) > 1e-6:
        failures.append("homodyne d_kd depends on alpha")
    _check(4, failures)


def test_criterion_05_dfs_closed_form():
    nums = _numbers(5)
    grid = np.linspace(0.2, 3.0, 41)
    failures = []
    closed = np.array([dfs_kd_closed_form(float(a)) for a in grid])
    for a, c in zip(grid, closed):
        if abs(nums[f"dfs_pnrd_dkd_{a:.4f}"] - c) > 1e-6:
            failures.append(f"numeric/closed-form mismatch at alpha={a:.4f}")
    step = grid[1] - grid[0]
    slopes = np.diff(closed)
    flips = [
        0.5 * (grid[i] + grid[i + 2])
        for i in range(len(slopes) - 1)
        if slopes[i] * slopes[i + 1] < 0
    ]
    for cusp in (1.0, math.sqrt(2), math.sqrt(3)):
        if not any(abs(f - cusp) <= step for f in flips):
            failures.append(f"no derivative sign change near alpha={cusp:.4f}")
    _check(5, failures)


def test_criterion_06_psv_oracle():
    nums = _numbers(6)
    failures = []
    for r in (0.25, 0.5, 1.0, 1.5, 2.0):
        expect = 1.5 * math.cosh(2 * r) - 0.5
        if abs(nums[f"psv_nplus_{r}"] - expect) > 1e-6:
            failures.append(f"n_fluct(psi+) off at r={r}")
    if not nums["psv_dkd_2.5"] < nums["psv_dkd_1.0"]:
        failures.append("d_kd does not decrease from r=1.0 to r=2.5")
    _check(6, failures)


def test_criterion_07_blur_properties():
    nums = _numbers(7)
    failures = []
    sigmas = (0.0, 0.5, 1.0, 2.0, 4.0)
    for family, param, kind in _C7_CASES:
        kds = [nums[f"dkd_{family}_{param}_{kind}_s{s}"] for s in sigmas]
        if any(b > a + 1e-6 for a, b in zip(kds, kds[1:])):
            failures.append(f"d_kd not non-increasing for {family} {param} {kind}")
        for s in sigmas:
            for i in (0, 1):
                mass = nums[f"mass_{family}_{param}_{kind}_s{s}_b{i}"]
                if abs(mass - 1.0) > 1e-6:
                    failures.append(
                        f"blurred mass off for {family} {param} {kind} s={s} b{i}"
                    )
    _check(7, failures)


def test_criterion_08_wigner_cross_checks():
    nums = _numbers(8)
    failures = []
    for name in ("vacuum", "cat", "mixture"):
        if abs(nums[f"w_integral_{name}"] - 1.0) > 1e-4:
            failures.append(f"Wigner integral off for {name}")
        if nums[f"w_marginal_err_{name}"] > 1e-4:
            failures.append(f"marginal mismatch for {name}")
    if not nums["w_min_mixture"] >= -1e-10:
        failures.append("mixture Wigner function goes negative")
    if not nums["w_min_cat"] < -0.05:
        failures.append("superposition Wigner function lacks negativity")
    _check(8, failures)


def test_criterion_09_summary_diagonal():
    nums = _numbers(9)
    failures = []
    sharp, noisy = {}, {}
    for key, value in nums.items():
        if not key.startswith("m_kd_"):
            continue
        tag = key[len("m_kd_"):]
        if abs(value) > nums[f"mean_n_{tag}"] + 1e-9 or value < -1e-9:
            failures.append(f"m_kd exceeds mean_n for {tag}")
        series, _, rest = tag.partition("_s")
        sigma, _, point = rest.partition("_p")
        (sharp if float(sigma) == 0.0 else noisy)[(series, point)] = value
    for point_key, noisy_val in noisy.items():
        if noisy_val > sharp[point_key] + 1e-6:
            failures.append(f"sigma=2 above sigma=0 at {point_key}")
    _check(9, failures)


def test_criterion_10_truncation_robustness():
    failures = []
    for criterion in range(1, 10):
        base = _numbers(criterion)
        doubled = _numbers(criterion, scale=2)
        for key, a in base.items():
            b = doubled[key]
            if abs(a - b) > 1e-6 * max(abs(a), abs(b)) + 1e-10:
                failures.append(f"criterion {criterion} key {key}: {a} vs {b}")
    _check(10, failures[:10])
