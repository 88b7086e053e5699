import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scanstat.genseries as gs
from scanstat.exactnum import DomainError
from scanstat.exppoly import ExpPoly

E = ExpPoly.exp
S = ExpPoly.s
ONE = ExpPoly.one()


def catalan_by_factorials(m):
    return math.comb(2 * m, m) // (m + 1)


class TestCatalanParams:
    def test_catalan_coefficients(self):
        p = gs.catalan_params(8)
        assert [p.C.coef(2 * m) for m in range(4)] == [1, 1, 2, 5]
        for m in range(5):
            assert p.C.coef(2 * m) == catalan_by_factorials(m)
        assert all(p.C.coef(2 * m + 1) == 0 for m in range(4))

    def test_z_coefficients(self):
        p = gs.catalan_params(8)
        assert [p.z.coef(0), p.z.coef(2), p.z.coef(4)] == [1, -2, -2]

    def test_z_squares_to_1_minus_4t2(self):
        p = gs.catalan_params(12)
        z2 = p.z * p.z
        expected = gs.TruncSeries.constant(Fraction(1), 12) - gs.TruncSeries.t_power(2, 12, Fraction(4))
        assert z2 == expected

    def test_z_matches_newton_sqrt(self):
        # independent square root: Newton iteration y <- (y + a/y)/2 on series
        order = 10
        a = gs.TruncSeries.constant(Fraction(1), order) - gs.TruncSeries.t_power(2, order, Fraction(4))
        y = gs.TruncSeries.constant(Fraction(1), order)
        for _ in range(6):
            y = (y + a.divide(y)).scale(Fraction(1, 2))
        assert y == gs.catalan_params(order).z

    def test_alpha_identities(self):
        p = gs.catalan_params(10)
        one = gs.TruncSeries.constant(Fraction(1), 10)
        assert p.alpha1 + p.alpha2 == one
        assert p.alpha1 * p.alpha2 == gs.TruncSeries.t_power(2, 10)
        # C = (1 - z) / (2 t^2) rearranged: 2 t^2 C + z == 1
        assert p.C.shift(2).truncate(10).scale(Fraction(2)) + p.z == one


class TestRecursion:
    def test_base_cases(self):
        assert gs.f_tilde_recursive(0) == ONE
        assert gs.f_tilde_recursive(1) == E(1) - E(-1)

    def test_n2_hand_integration(self):
        assert gs.f_tilde_recursive(2) == E(2) - 2 * S() - ONE

    def test_n3_hand_integration(self):
        assert gs.f_tilde_recursive(3) == E(3) - 4 * S() * E(1) - E(-1)

    def test_recursion_formula_wrong_at_n1(self):
        # applying the n >= 2 recursion at n = 1 would give e^s - 1, not the
        # rectangle transform; the base case must stay pinned
        raw = (ExpPoly.exp(1) * gs.f_tilde_recursive(0) * gs.f_tilde_recursive(0)).integrate_0_to_s()
        assert raw == E(1) - ONE
        assert raw != gs.f_tilde_recursive(1)

    def test_values_at_zero_vanish(self):
        for n in range(2, 8):
            assert gs.f_tilde_recursive(n).at_zero() == 0


class TestClosedForm:
    def test_low_coefficients(self):
        f = gs.riccati_solution(4)
        assert f.coef(0) == ONE
        assert f.coef(1) == E(1) - E(-1)
        assert f.coef(2) == E(2) - 2 * S() - ONE

    def test_matches_recursion(self):
        f = gs.riccati_solution(10)
        for n in range(0, 11):
            assert gs.f_tilde_recursive(n) == f.coef(n), f"mismatch at n={n}"

    def test_riccati_residual(self):
        assert gs.verify_riccati(6).passed

    def test_riccati_order_zero_vacuous(self):
        assert gs.verify_riccati(0).passed

    def test_riccati_negative_control(self, monkeypatch):
        coefs = list(gs.riccati_solution(5).coefs)
        coefs[3] = coefs[3] - ExpPoly.term(1, 0, 1)
        monkeypatch.setattr(gs, "riccati_solution", lambda order: gs.TruncSeries(coefs))
        rep = gs.verify_riccati(5)
        assert not rep.passed
        assert "t^" in rep.first_failure().detail

    def test_q_constant_term(self):
        q = gs.q_series(6)
        assert q.coef(0) == -ONE
        # Q(t, 0) = -z
        p = gs.catalan_params(6)
        at_zero = [c.at_zero() for c in q.coefs]
        assert at_zero == [-c for c in p.z.coefs]

    def test_r_constant_term(self):
        r = gs.r_series(6)
        assert r.coef(0) == -ONE


class TestIdentities:
    def test_suite_passes(self):
        assert gs.verify_identities(8).passed

    def test_negative_control_corrupt_expansion(self, monkeypatch):
        # with Q, R and F built, only the geometric expansion of check 4 still
        # calls _exp_linear_series; a private memo keeps the corruption local
        gs.verify_identities(6)
        monkeypatch.setattr(gs, "_ORDER_MEMO", dict(gs._ORDER_MEMO))
        real = gs._exp_linear_series
        monkeypatch.setattr(gs, "_exp_linear_series", lambda base, rate, order: real(base + 1, rate, order))
        rep = gs.verify_identities(6)
        assert not rep.passed
        assert rep.first_failure().name == "q_over_r_geometric_expansion"

    def test_shifted_ratio_constant_term(self):
        p = gs.catalan_params(6)
        t = gs.TruncSeries.t_power(1, 6)
        ratio = (p.alpha2 + t).divide(p.alpha1 + t)
        assert ratio.coef(0) == 0 == gs.tc_series(6).coef(0)


class TestCyclicSeries:
    def test_low_coefficients(self):
        a = gs.a_tilde_series(4)
        assert a.coef(0) == ExpPoly.zero()
        # the closed form's t^1 coefficient is e^s - 1, the transform of the
        # degenerate one-variable cycle; extraction is only used from n = 2
        assert a.coef(1) == E(1) - ONE

    def test_a2_matches_direct_integral(self):
        # a~_2 = 2 int_0^s e^p f~_1(p) dp = e^{2s} - 2s - 1
        assert gs.a_tilde(2) == E(2) - 2 * S() - ONE

    def test_a_derivative_identity(self):
        # dA/ds = t e^s F
        order = 6
        a = gs.a_tilde_series(order)
        f = gs.riccati_solution(order)
        lhs = a.map(lambda c: c.diff_s())
        rhs = f.scale(ExpPoly.exp(1)).shift(1).truncate(order)
        assert lhs == rhs

    def test_b_tilde_values(self):
        # frozen from the measures: b_1 = H(x), b_2 = (x+2)H(x),
        # b_3 = 2x^2 H(x) - (3/2)(x-1)^2 H(x-1)
        assert gs.b_tilde(1) == ONE
        assert gs.b_tilde(2) == 2 * S() + ONE
        assert gs.b_tilde(3) == ExpPoly.const(4) - 3 * E(-1)

    def test_c_tilde_values(self):
        # frozen from the measures: c_1 = (x+2)H(x+2), c_2 = (x+3)^2/2 H(x+3),
        # c_3 = (x+2)^2 (x+8)/6 H(x+2)
        assert gs.c_tilde(1) == E(2)
        assert gs.c_tilde(2) == E(3)
        assert gs.c_tilde(3) == E(2) + 2 * S() * E(2)

    def test_c2_series_constant_coefficient(self):
        _, c2 = gs.b_c_tilde_series(4)
        assert c2.coef(0) == E(2)

    def test_b2_numeric_laplace_quadrature(self):
        # s^2 * integral_0^inf e^{-sx} (x+2) dx against the symbolic transform
        nodes, weights = np.polynomial.legendre.leggauss(80)
        for s0 in (0.7, 1.3, 2.0):
            upper = 60.0 / s0
            x = (nodes + 1) * upper / 2
            w = weights * upper / 2
            quad = s0**2 * float(np.sum(w * np.exp(-s0 * x) * (x + 2)))
            assert quad == pytest.approx(gs.b_tilde(2).eval_float(s0), abs=1e-8)


class TestLagrange:
    def test_spec_point_values(self):
        assert gs.lagrange_extract(1, 0, 1, 0, 3) == 1  # [t^3] tC = Catalan_1
        assert gs.lagrange_extract(0, 1, 0, 1, 2) == -2  # [t^2] z
        assert gs.lagrange_extract(2, 0, 1, 0, 2) == 1  # [t^2] (tC)^2

    def test_odd_or_negative_offset_is_zero(self):
        assert gs.lagrange_extract(1, 0, 1, 0, 4) == 0
        assert gs.lagrange_extract(5, 0, 1, 0, 3) == 0

    def test_randomized_against_direct(self):
        assert gs.verify_lagrange(12, samples=150, seed=7).passed

    def test_laurent_p_minus_one(self):
        assert gs.lagrange_extract(-1, 0, 1, 0, 3) == gs.direct_extract(-1, 0, 1, 0, 3) == -1
        got = gs.lagrange_extract(-1, 1, 3, -1, 5)
        assert got == gs.direct_extract(-1, 1, 3, -1, 5) == -4

    def test_negative_u_plus_one_exponent(self):
        # n - q - 1 = -3 and m = 3: four terms of the binomial series of (1+u)^-3
        assert gs.lagrange_extract(0, 8, 2, 1, 6) == gs.direct_extract(0, 8, 2, 1, 6) == -15552

    def test_exponent_claim(self):
        assert gs.extraction_exponent_report(12).passed

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gs.lagrange_extract(1, -1, 1, 0, 3)
        with pytest.raises(DomainError):
            gs.lagrange_extract(-2, 0, 1, 0, 3)


class TestSeriesOps:
    def test_division_requires_invertible_constant(self):
        num = gs.TruncSeries.constant(Fraction(1), 4)
        den = gs.TruncSeries.t_power(1, 4)
        with pytest.raises(DomainError):
            num.divide(den)

    def test_log_requires_unit_constant(self):
        with pytest.raises(DomainError):
            gs.TruncSeries.constant(Fraction(2), 4).log()

    def test_log_requires_unit_constant_in_the_exppoly_ring(self):
        for c in (ExpPoly.const(2), E(1), ExpPoly.zero()):
            with pytest.raises(DomainError):
                gs.TruncSeries.constant(c, 4).log()
        assert gs.TruncSeries.constant(ONE, 4).log() == gs.TruncSeries.constant(ExpPoly.zero(), 4)

    def test_log_exp_consistency(self):
        # log(1/(1-t)) has coefficients 1/k
        order = 8
        one = gs.TruncSeries.constant(Fraction(1), order)
        geom = one.divide(one - gs.TruncSeries.t_power(1, order))
        lg = geom.log()
        assert [lg.coef(k) for k in range(1, order + 1)] == [Fraction(1, k) for k in range(1, order + 1)]

    def test_min_order_propagates(self):
        a = gs.TruncSeries.constant(Fraction(1), 6)
        b = gs.TruncSeries.constant(Fraction(1), 3)
        assert (a * b).order == 3
        assert (a + b).order == 3

    def test_shift_down_requires_divisibility(self):
        with pytest.raises(DomainError):
            gs.TruncSeries.constant(Fraction(1), 3).shift_down(1)

    def test_shift_down_in_the_exppoly_ring(self):
        zero = ExpPoly.zero()
        with pytest.raises(DomainError):
            gs.TruncSeries([zero, E(-1), ONE]).shift_down(2)
        assert gs.TruncSeries([zero, zero, ONE]).shift_down(2) == gs.TruncSeries([ONE])

    def test_coefficients_cannot_change_in_place(self):
        series = gs.riccati_solution(3)
        with pytest.raises(TypeError):
            series.coefs[1] = ONE


coef = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
rational_series = st.lists(coef, min_size=1, max_size=6).map(gs.TruncSeries)
unit_series = st.tuples(coef.filter(bool), st.lists(coef, max_size=5)).map(lambda c: gs.TruncSeries([c[0], *c[1]]))
log_series = st.lists(coef, max_size=5).map(lambda cs: gs.TruncSeries([Fraction(1), *cs]))


class TestRationalSeriesAgreeWithTheirExpPolyImages:
    """Int numerators over one denominator and ExpPoly coefficients share one
    convolution and one division; their results must be the same values."""

    @given(rational_series, unit_series)
    def test_sum_product_and_quotient(self, a, b):
        assert (a - b).lift() == a.lift() - b.lift()
        assert (a * b).lift() == a.lift() * b.lift()
        assert a.divide(b).lift() == a.lift().divide(b.lift())

    @given(log_series)
    def test_log(self, a):
        assert a.log().lift() == a.lift().log()


@pytest.mark.parametrize(
    "builder",
    [gs.catalan_params, gs.tc_series, gs.q_series, gs.r_series, gs.riccati_solution,
     gs.a_tilde_series, gs.b_c_tilde_series, gs.f_tilde_recursive],
)
def test_memoised_builder_matches_a_fresh_build(builder):
    first = builder(7)
    assert builder(7) is first
    gs._ORDER_MEMO.clear()
    assert builder(7) == first


def test_series_suite_at_order_20():
    assert gs.verify_series_suite(20).passed


def test_full_suite_report():
    rep = gs.verify_series_suite(6)
    assert rep.passed
    payload = rep.to_dict()
    assert payload["passed"] is True
    assert any(c["name"] == "riccati_residual_zero" for c in payload["checks"])
