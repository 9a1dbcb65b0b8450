"""Least-favorable density construction and ratio-window solving."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cascadeshare.models import ConditionalPmf, likelihood_ratios, posterior_update
from cascadeshare.robust import (
    Breakpoints,
    DegenerateUncertaintyError,
    StageModel,
    UncertaintyParams,
    _lfd_pair,
    _transform_coeffs,
    posterior_bounds,
    robustify,
    robustify_app,
    robustify_app_stages,
    robustify_stage,
    robustify_system,
    solve_breakpoints,
)

from conftest import assert_stages_bitwise_equal, random_app, random_pmf, random_uncertainty


def grid_search_breakpoints(model, u, rounds=6, width=160):
    """Independent oracle: iterative dense 2-D grid search on (l_lo, l_hi).

    Re-implements the three-branch transform from scratch and minimizes the
    sum of absolute normalization residuals over a (l_lo, l_hi) grid; each
    round zooms into the best cell of the previous one.
    """
    sup = model.support()
    p0, p1 = model.p0[sup], model.p1[sup]
    with np.errstate(divide="ignore"):
        r = np.where(p0 > 0, p1 / p0, np.inf)
    v_lo = (u.eps1 + u.nu1) / (1 - u.eps1)
    w_lo = u.nu0 / (1 - u.eps0)
    v_hi = (u.eps0 + u.nu0) / (1 - u.eps0)
    w_hi = u.nu1 / (1 - u.eps1)

    def residual_grid(los, his):
        # shapes: bins x |los| x |his|
        llo = los[None, :, None]
        lhi = his[None, None, :]
        pb0 = p0[:, None, None]
        pb1 = p1[:, None, None]
        rb = r[:, None, None]
        low = rb < llo
        high = rb > lhi
        blend_lo = (v_lo * pb0 + w_lo * pb1) / (v_lo + w_lo * llo)
        blend_hi = (w_hi * pb0 + v_hi * pb1) / (w_hi + v_hi * lhi)
        q0 = np.where(low, (1 - u.eps0) * blend_lo,
                      np.where(high, (1 - u.eps0) * blend_hi, (1 - u.eps0) * pb0))
        q1 = np.where(low, (1 - u.eps1) * llo * blend_lo,
                      np.where(high, (1 - u.eps1) * lhi * blend_hi, (1 - u.eps1) * pb1))
        res = np.abs(q0.sum(axis=0) - 1.0) + np.abs(q1.sum(axis=0) - 1.0)
        return np.where(llo[0] <= lhi[0], res, np.inf)

    lo_range = (max(r.min() * 0.5, 1e-6), float(np.max(r[np.isfinite(r)])))
    hi_range = (float(r.min()), float(np.max(r[np.isfinite(r)])) * 2.0)
    best = None
    for _ in range(rounds):
        los = np.linspace(*lo_range, width)
        his = np.linspace(*hi_range, width)
        res = residual_grid(los, his)
        i, j = np.unravel_index(np.argmin(res), res.shape)
        best = (float(los[i]), float(his[j]))
        span_lo = (lo_range[1] - lo_range[0]) / width * 3
        span_hi = (hi_range[1] - hi_range[0]) / width * 3
        lo_range = (best[0] - span_lo, best[0] + span_lo)
        hi_range = (best[1] - span_hi, best[1] + span_hi)
    return best


def _bisect(residual, a, b, tol, max_iter=200):
    """Find a sign change of `residual` on [a, b] (residual(a) and (b) straddle 0)."""
    ra, rb = residual(a), residual(b)
    if ra == 0.0:
        return a
    if rb == 0.0:
        return b
    if (ra > 0) == (rb > 0):
        raise DegenerateUncertaintyError("degenerate uncertainty: residual does not bracket a root")
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        rm = residual(mid)
        if abs(rm) <= tol or (b - a) <= 1e-15 * max(1.0, abs(mid)):
            return mid
        if (rm > 0) == (ra > 0):
            a, ra = mid, rm
        else:
            b, rb = mid, rm
    return 0.5 * (a + b)


def bisection_breakpoints(nominal, u, tol=1e-12, ratio_cap=1e30):
    """Slow-path oracle: the ratio window by nested bisection.

    The target-present normalization is monotone increasing in l_lo and the
    target-absent normalization is monotone decreasing in l_hi, so the pair
    is solved by an outer bisection on l_hi with an inner bisection on l_lo.
    Raises DegenerateUncertaintyError when no bracket or window is found.
    """
    support = nominal.support()
    p0 = nominal.p0[support].copy()
    p1 = nominal.p1[support].copy()
    ratios = likelihood_ratios(nominal)[support]
    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0:
        raise DegenerateUncertaintyError("no finite likelihood ratios on support")
    lmin = float(ratios.min())
    lmax = float(ratios.max())
    if u.is_zero:
        return Breakpoints(lmin, lmax)
    mix_lo, _, mix_hi, _ = _transform_coeffs(u)

    def sums(l_lo, l_hi):
        q0, q1 = _lfd_pair(p0, p1, ratios, u, l_lo, l_hi)
        return q0.sum(), q1.sum()

    def solve_l_lo(l_hi):
        if mix_lo == 0.0:
            return lmin

        def r1(l_lo):
            return sums(l_lo, l_hi)[1] - 1.0

        a = lmin
        if r1(a) >= 0.0:
            return a
        b = min(l_hi, max(2.0 * lmin, 1.0))
        while r1(b) < 0.0:
            if b >= l_hi or b >= ratio_cap:
                return None
            b = min(l_hi, 10.0 * b)
        return _bisect(r1, a, b, tol)

    def outer_residual(l_hi):
        l_lo = solve_l_lo(l_hi)
        if l_lo is None:
            return None, 1.0
        return l_lo, sums(l_lo, l_hi)[0] - 1.0

    if mix_hi == 0.0:
        l_hi = lmax
        l_lo = solve_l_lo(l_hi)
        if l_lo is None:
            raise DegenerateUncertaintyError("degenerate uncertainty: target-present PMF cannot renormalize")
    else:
        if math.isinf(lmax):
            _, r_limit = outer_residual(math.inf)
            if r_limit is not None and abs(r_limit) <= 1e-9:
                return Breakpoints(float(solve_l_lo(math.inf)), math.inf)
            b = 2.0 * float(finite.max())
        else:
            b = lmax
        _, rb = outer_residual(b)
        while rb is None or rb > 0.0:
            if b >= ratio_cap:
                raise DegenerateUncertaintyError("degenerate uncertainty: no finite l_hi normalizes the pair")
            b *= 10.0
            _, rb = outer_residual(b)
        a = min(lmin, b)
        _, ra = outer_residual(a)
        while ra is not None and ra < 0.0:
            if a <= 1e-300:
                raise DegenerateUncertaintyError("degenerate uncertainty: too large for the nominal pair")
            a *= 0.1
            _, ra = outer_residual(a)

        def r0(l_hi):
            _, r = outer_residual(l_hi)
            return 1.0 if r is None else r

        l_hi = _bisect(r0, a, b, tol)
        l_lo = solve_l_lo(l_hi)
        if l_lo is None:
            raise DegenerateUncertaintyError("degenerate uncertainty: ratio window infeasible")

    s0, s1 = sums(l_lo, l_hi)
    if abs(s0 - 1.0) > 1e-9 or abs(s1 - 1.0) > 1e-9:
        raise DegenerateUncertaintyError("degenerate uncertainty: normalization failed")
    if l_lo > l_hi:
        raise DegenerateUncertaintyError("ratio window collapsed (l_lo > l_hi)")
    return Breakpoints(float(l_lo), float(l_hi))


def _solve_or_none(solver, model, u):
    try:
        return solver(model, u)
    except DegenerateUncertaintyError:
        return None


def assert_matches_bisection(model, u):
    """Exact window == bisection window at 1e-9 (relative above 1), same refusals."""
    exact = _solve_or_none(solve_breakpoints, model, u)
    slow = _solve_or_none(bisection_breakpoints, model, u)
    assert (exact is None) == (slow is None), (model, u, exact, slow)
    if exact is not None:
        for got, want in ((exact.l_lo, slow.l_lo), (exact.l_hi, slow.l_hi)):
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    return exact


def assert_one_sided_is_the_small_eps_limit(model, **sides):
    """The window of a one-sided class, `sides` given and the other two parameters 0.

    Its least-favorable pair equals the pair with the other side's
    contamination at 1e-12 to 1e-9, and so does the window, unless the
    window's end sits on a ratio of 0 or +inf, which the small-eps windows
    only approach.  At 1e-3 the exact solve still matches the bisection.
    Returns the one-sided window.
    """
    u = UncertaintyParams(**sides)
    other = ("eps1", "nu1") if u.eps0 or u.nu0 else ("eps0", "nu0")
    b = solve_breakpoints(model, u)
    tiny = solve_breakpoints(model, replace(u, **dict.fromkeys(other, 1e-12)))
    for got, near in ((b.l_lo, tiny.l_lo), (b.l_hi, tiny.l_hi)):
        if got == math.inf:
            assert near > 1e6
        elif got == 0.0:
            assert near < 1e-6
        else:
            assert got == pytest.approx(near, rel=1e-9)
    pair, near_pair = robustify(model, u, b), robustify(model, replace(u, **dict.fromkeys(other, 1e-12)), tiny)
    np.testing.assert_allclose(pair.p0, near_pair.p0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(pair.p1, near_pair.p1, rtol=0, atol=1e-9)
    assert_matches_bisection(model, replace(u, **dict.fromkeys(other, 1e-3)))
    return b


class TestZeroUncertainty:
    def test_breakpoints_are_ratio_range(self, rng):
        m = random_pmf(rng, 5)
        b = solve_breakpoints(m, UncertaintyParams())
        r = likelihood_ratios(m)
        assert b.l_lo == float(np.nanmin(r))
        assert b.l_hi == float(np.nanmax(r))

    def test_identity_transform(self, rng):
        m = random_pmf(rng, 6)
        u = UncertaintyParams()
        out = robustify(m, u, solve_breakpoints(m, u))
        np.testing.assert_allclose(out.p0, m.p0, atol=1e-12)
        np.testing.assert_allclose(out.p1, m.p1, atol=1e-12)


class TestSymmetricBinary:
    def test_window_is_reciprocal_pair(self):
        """Mirror-symmetric binary model with pure eps-contamination.

        Both normalizations decouple and have closed forms; the window
        endpoints are reciprocal by the hypothesis-swap symmetry.
        """
        eps = 0.1
        m = ConditionalPmf(p0=[0.8, 0.2], p1=[0.2, 0.8])
        b = solve_breakpoints(m, UncertaintyParams(eps0=eps, eps1=eps))
        l_lo_expected = (0.2 + 0.8 * eps) / (0.8 * (1 - eps))
        l_hi_expected = (0.8 * (1 - eps)) / (0.2 + 0.8 * eps)
        assert b.l_lo == pytest.approx(l_lo_expected, abs=1e-10)
        assert b.l_hi == pytest.approx(l_hi_expected, abs=1e-10)
        assert b.l_lo * b.l_hi == pytest.approx(1.0, abs=1e-9)


class TestGridSearchOracle:
    def test_three_bin_example(self):
        m = ConditionalPmf(p0=[0.7, 0.2, 0.1], p1=[0.1, 0.2, 0.7])
        u = UncertaintyParams(0.1, 0.1, 0.1, 0.1)
        b = solve_breakpoints(m, u)
        lo, hi = grid_search_breakpoints(m, u)
        assert b.l_lo == pytest.approx(lo, abs=1e-6)
        assert b.l_hi == pytest.approx(hi, abs=1e-6)

    def test_three_bin_transform_matches_direct_evaluation(self):
        """Robustified PMFs recomputed branch-by-branch at oracle breakpoints."""
        m = ConditionalPmf(p0=[0.7, 0.2, 0.1], p1=[0.1, 0.2, 0.7])
        u = UncertaintyParams(0.1, 0.1, 0.1, 0.1)
        b = solve_breakpoints(m, u)
        out = robustify(m, u, b)

        v_lo = (u.eps1 + u.nu1) / (1 - u.eps1)
        w_lo = u.nu0 / (1 - u.eps0)
        v_hi = (u.eps0 + u.nu0) / (1 - u.eps0)
        w_hi = u.nu1 / (1 - u.eps1)
        for y in range(3):
            l = m.p1[y] / m.p0[y]
            if l < b.l_lo:
                blend = v_lo * m.p0[y] + w_lo * m.p1[y]
                q0 = (1 - u.eps0) * blend / (v_lo + w_lo * b.l_lo)
                q1 = (1 - u.eps1) * b.l_lo * blend / (v_lo + w_lo * b.l_lo)
            elif l > b.l_hi:
                blend = w_hi * m.p0[y] + v_hi * m.p1[y]
                q0 = (1 - u.eps0) * blend / (w_hi + v_hi * b.l_hi)
                q1 = (1 - u.eps1) * b.l_hi * blend / (w_hi + v_hi * b.l_hi)
            else:
                q0 = (1 - u.eps0) * m.p0[y]
                q1 = (1 - u.eps1) * m.p1[y]
            assert out.p0[y] == pytest.approx(q0, abs=1e-12)
            assert out.p1[y] == pytest.approx(q1, abs=1e-12)

    def test_random_models_agree_with_grid_search(self, rng):
        done = 0
        while done < 8:
            m = random_pmf(rng, int(rng.integers(2, 5)))
            u = random_uncertainty(rng, scale=0.08)
            try:
                b = solve_breakpoints(m, u)
            except DegenerateUncertaintyError:
                continue
            lo, hi = grid_search_breakpoints(m, u)
            assert b.l_lo == pytest.approx(lo, abs=1e-6)
            assert b.l_hi == pytest.approx(hi, abs=1e-6)
            done += 1


class TestInvariants:
    def test_normalization(self, rng):
        done = 0
        while done < 25:
            m = random_pmf(rng, int(rng.integers(2, 9)))
            u = random_uncertainty(rng, scale=0.08)
            try:
                out = robustify(m, u, solve_breakpoints(m, u))
            except DegenerateUncertaintyError:
                continue
            assert abs(out.p0.sum() - 1.0) < 1e-9
            assert abs(out.p1.sum() - 1.0) < 1e-9
            done += 1

    def test_ratio_clipped_for_symmetric_eps(self, rng):
        """With eps0 == eps1 the transformed ratio lies exactly in the window."""
        done = 0
        while done < 25:
            m = random_pmf(rng, int(rng.integers(2, 9)))
            e = float(rng.random() * 0.08)
            u = UncertaintyParams(e, e, float(rng.random() * 0.08), float(rng.random() * 0.08))
            try:
                b = solve_breakpoints(m, u)
                out = robustify(m, u, b)
            except DegenerateUncertaintyError:
                continue
            r = likelihood_ratios(out)
            r = r[~np.isnan(r)]
            assert np.all(r >= b.l_lo - 1e-9)
            assert np.all(r <= b.l_hi + 1e-9)
            done += 1

    def test_asymmetric_eps_scales_the_clip(self):
        """Unequal contamination levels rescale the clipped ratio by
        (1-eps1)/(1-eps0); the window then bounds ratio/(scale)."""
        m = ConditionalPmf(p0=[0.6, 0.3, 0.1], p1=[0.1, 0.3, 0.6])
        u = UncertaintyParams(eps0=0.12, eps1=0.03, nu0=0.05, nu1=0.05)
        b = solve_breakpoints(m, u)
        out = robustify(m, u, b)
        scale = (1 - u.eps1) / (1 - u.eps0)
        nominal = likelihood_ratios(m)
        expected = scale * np.clip(nominal, b.l_lo, b.l_hi)
        np.testing.assert_allclose(likelihood_ratios(out), expected, rtol=1e-9)

    def test_monotone_degradation(self):
        """Enlarging any uncertainty parameter weakly shrinks the window."""
        m = ConditionalPmf(p0=[0.7, 0.2, 0.1], p1=[0.1, 0.2, 0.7])
        base_vals = (0.02, 0.05, 0.08)
        for axis in range(4):
            prev = None
            for v in base_vals:
                params = [0.02] * 4
                params[axis] = v
                b = solve_breakpoints(m, UncertaintyParams(*params))
                if prev is not None:
                    assert b.l_lo >= prev.l_lo - 1e-9
                    assert b.l_hi <= prev.l_hi + 1e-9
                prev = b

    def test_robust_posteriors_stay_inside_bounds(self, rng):
        done = 0
        while done < 20:
            m = random_pmf(rng, int(rng.integers(2, 7)))
            e = float(rng.random() * 0.08)
            u = UncertaintyParams(e, e, float(rng.random() * 0.08), float(rng.random() * 0.08))
            try:
                b = solve_breakpoints(m, u)
                out = robustify(m, u, b)
            except DegenerateUncertaintyError:
                continue
            pi = float(rng.uniform(0.05, 0.95))
            lo, hi = posterior_bounds(pi, b)
            ratios = likelihood_ratios(out)
            for r in ratios[~np.isnan(ratios)]:
                p = posterior_update(pi, r)
                assert lo - 1e-9 <= p <= hi + 1e-9
            done += 1


class TestPosteriorBounds:
    def test_direct_arithmetic(self):
        lo, hi = posterior_bounds(0.5, Breakpoints(1 / 3, 3.0))
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert hi == pytest.approx(0.75, abs=1e-12)

    def test_collapsed_window(self):
        lo, hi = posterior_bounds(0.3, Breakpoints(1.0, 1.0))
        assert lo == hi == pytest.approx(0.3, abs=1e-15)

    def test_composition_with_solver(self):
        m = ConditionalPmf(p0=[0.7, 0.2, 0.1], p1=[0.1, 0.2, 0.7])
        u = UncertaintyParams(0.1, 0.1, 0.1, 0.1)
        lo_o, hi_o = grid_search_breakpoints(m, u)
        lo, hi = posterior_bounds(0.1, solve_breakpoints(m, u))
        assert lo == pytest.approx(posterior_update(0.1, lo_o), abs=1e-7)
        assert hi == pytest.approx(posterior_update(0.1, hi_o), abs=1e-7)


class TestDegenerate:
    def test_large_uncertainty_rejected(self):
        # weakly informative model: 10% contamination makes the classes overlap
        m = ConditionalPmf(
            p0=[0.33136064, 0.18618434, 0.40601912, 0.0764359],
            p1=[0.31661612, 0.24591873, 0.29152748, 0.14593767],
        )
        with pytest.raises(DegenerateUncertaintyError, match="degenerate"):
            solve_breakpoints(m, UncertaintyParams(0.1, 0.1, 0.08, 0.02))

    def test_symmetric_binary_degeneracy_threshold(self):
        # closed form: solvable iff eps <= 0.375 for this model
        m = ConditionalPmf(p0=[0.8, 0.2], p1=[0.2, 0.8])
        solve_breakpoints(m, UncertaintyParams(eps0=0.37, eps1=0.37))
        with pytest.raises(DegenerateUncertaintyError):
            solve_breakpoints(m, UncertaintyParams(eps0=0.39, eps1=0.39))


class TestStagePipeline:
    def test_final_stage_never_robustified(self, rng):
        stages = (
            StageModel(nominal=random_pmf(rng, 4), uncertainty=UncertaintyParams(0.05, 0.05, 0.0, 0.0)),
            StageModel(nominal=random_pmf(rng, 4), uncertainty=UncertaintyParams(0.2, 0.2, 0.2, 0.2)),
        )
        out = robustify_app_stages(stages)
        assert out[-1].uncertainty.is_zero
        np.testing.assert_array_equal(out[-1].robust.p0, out[-1].nominal.p0)
        np.testing.assert_array_equal(out[-1].robust.p1, out[-1].nominal.p1)
        # intermediate stage did get transformed
        assert not np.allclose(out[0].robust.p0, out[0].nominal.p0)

    def test_stage_json_roundtrip(self, rng):
        from cascadeshare.robust import stage_model_from_json, stage_model_to_json

        stage = robustify_stage(
            StageModel(nominal=random_pmf(rng, 3), uncertainty=UncertaintyParams(0.05, 0.05, 0.02, 0.02), cost_mj=1.5)
        )
        doc = stage_model_to_json(stage)
        back = stage_model_from_json(doc)
        np.testing.assert_array_equal(back.robust.p0, stage.robust.p0)
        assert back.breakpoints == stage.breakpoints
        assert back.cost_mj == stage.cost_mj


class TestBisectionOracle:
    """The exact segment solve against the nested-bisection slow path."""

    def test_random_models_match_and_refuse_alike(self, rng):
        solved = refused = 0
        for scale in (0.06, 0.08, 0.15):
            for _ in range(170):
                m = random_pmf(rng, int(rng.integers(2, 9)))
                if assert_matches_bisection(m, random_uncertainty(rng, scale=scale)) is None:
                    refused += 1
                else:
                    solved += 1
        assert solved > 100 and refused > 10

    def test_target_present_uncontaminated(self, rng):
        """eps1 == nu1 == 0: the window is the limit of the eps1 -> 0 windows, with no jump at 0."""
        for bins in (2, 4, 7):
            m = random_pmf(rng, bins)
            assert_one_sided_is_the_small_eps_limit(m, eps0=0.05, nu0=0.03)

    def test_target_absent_uncontaminated(self, rng):
        """eps0 == nu0 == 0: the window is the limit of the eps0 -> 0 windows, with no jump at 0."""
        for bins in (2, 4, 7):
            m = random_pmf(rng, bins)
            assert_one_sided_is_the_small_eps_limit(m, eps1=0.05, nu1=0.03)

    def test_one_sided_window_does_not_jump_at_zero(self):
        """The example where keeping the uncontaminated side's clip set empty gave l_hi 4.586, not 3.800."""
        m = ConditionalPmf(p0=[0.7, 0.2, 0.1], p1=[0.1, 0.2, 0.7])
        b = assert_one_sided_is_the_small_eps_limit(m, eps0=0.05, nu0=0.03)
        assert b.l_hi == pytest.approx(3.8, rel=1e-12)

    def test_pure_strength_contamination_is_the_small_eps_limit(self, rng):
        """eps0 == eps1 == 0: the normalizations admit a family of windows.

        The bisection then returns whichever member its rounding reaches, so
        it is no oracle here.  The exact solve returns the limit of the
        eps -> 0 windows; at eps = 1e-3 it still matches the bisection.
        """
        for _ in range(10):
            m = random_pmf(rng, int(rng.integers(2, 9)))
            nu0, nu1 = rng.random(2) * 0.08
            b = solve_breakpoints(m, UncertaintyParams(nu0=nu0, nu1=nu1))
            out = robustify(m, UncertaintyParams(nu0=nu0, nu1=nu1), b)
            assert abs(out.p0.sum() - 1.0) < 1e-12 and abs(out.p1.sum() - 1.0) < 1e-12
            near = assert_matches_bisection(m, UncertaintyParams(1e-3, 1e-3, nu0, nu1))
            tiny = solve_breakpoints(m, UncertaintyParams(1e-12, 1e-12, nu0, nu1))
            assert near.l_lo >= b.l_lo and near.l_hi <= b.l_hi
            assert tiny.l_lo == pytest.approx(b.l_lo, rel=1e-9)
            assert tiny.l_hi == pytest.approx(b.l_hi, rel=1e-9)

    def test_empty_target_absent_bin(self):
        # p0 = 0 on the last bin: the nominal ratio range is unbounded
        m = ConditionalPmf(p0=[0.5, 0.3, 0.2, 0.0], p1=[0.1, 0.2, 0.3, 0.4])
        b = assert_matches_bisection(m, UncertaintyParams(0.05, 0.05, 0.02, 0.02))
        assert math.isfinite(b.l_hi)
        # one-sided: the limit of the small-eps windows
        b = assert_one_sided_is_the_small_eps_limit(m, nu0=0.05)
        assert math.isfinite(b.l_hi)
        assert_one_sided_is_the_small_eps_limit(m, eps0=0.05, nu0=0.05)
        # eps0 = nu0 = 0: the limit clips the bin that only a target emits, so l_hi sits on its ratio
        b = assert_one_sided_is_the_small_eps_limit(m, eps1=0.05, nu1=0.02)
        assert b.l_hi == math.inf

    def test_tied_nominal_ratios(self):
        m = ConditionalPmf(p0=[0.4, 0.2, 0.1, 0.2, 0.1], p1=[0.1, 0.05, 0.25, 0.1, 0.5])
        assert len(set(likelihood_ratios(m).tolist())) < m.bins
        for level in (0.02, 0.05, 0.1):
            b = assert_matches_bisection(m, UncertaintyParams(level, level, level, level))
            assert b is not None

    def test_refusal_is_immediate(self):
        m = ConditionalPmf(p0=[0.55, 0.45], p1=[0.45, 0.55])
        u = UncertaintyParams(0.1, 0.1, 0.1, 0.1)
        t0 = time.perf_counter()
        with pytest.raises(DegenerateUncertaintyError, match="degenerate"):
            solve_breakpoints(m, u)
        assert time.perf_counter() - t0 < 0.05


def hand_written_triple(primary, secondary, shared):
    """The robustified system as callers used to write it out, stage set by stage set."""
    app1 = robustify_app(primary)
    if secondary is None:
        return app1, None, None
    app2 = robustify_app(secondary)
    return app1, app2, tuple(robustify_app(replace(secondary, stages=shared)).stages)


class TestRobustifySystem:
    """`robustify_system` against the hand-written triple, bit for bit."""

    def _assert_matches(self, primary, secondary, shared):
        got = robustify_system(primary, secondary, shared)
        want = hand_written_triple(primary, secondary, shared)
        assert_stages_bitwise_equal(got[0].stages, want[0].stages)
        assert (got[0].prior, got[0].miss_cost, got[0].fa_cost) == (primary.prior, primary.miss_cost, primary.fa_cost)
        if secondary is None:
            assert got[1:] == (None, None)
            return
        assert_stages_bitwise_equal(got[1].stages, want[1].stages)
        assert (got[1].prior, got[1].miss_cost, got[1].fa_cost) == (
            secondary.prior, secondary.miss_cost, secondary.fa_cost)
        assert isinstance(got[2], tuple)
        assert_stages_bitwise_equal(got[2], want[2])

    def test_twin(self, rng):
        for _ in range(5):
            app = random_app(rng)
            self._assert_matches(app, app, app.stages)
            # a twin's shared models are the primary's own robustified stages
            assert_stages_bitwise_equal(robustify_system(app, app, app.stages)[2], robustify_app(app).stages)

    def test_independent(self, rng):
        for _ in range(5):
            app1 = random_app(rng, k=3, u_scale=0.03)
            app2 = random_app(rng, k=3, u_scale=0.03)
            shared = tuple(replace(s, cost_mj=0.0) for s in random_app(rng, k=3, u_scale=0.03).stages)
            self._assert_matches(app1, app2, shared)

    def test_primary_only(self, rng):
        for _ in range(5):
            self._assert_matches(random_app(rng), None, None)

    def test_secondary_needs_shared_models(self, rng):
        app = random_app(rng, k=2)
        with pytest.raises(ValueError, match="shared-feature models"):
            robustify_system(app, app, None)
