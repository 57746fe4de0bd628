import math
import re
import tracemalloc

import numpy as np
import pytest

from gridsde import expr as expr_module
from gridsde.expr import (
    Add,
    Bump,
    Call,
    Const,
    Div,
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    Mul,
    Neg,
    Pow,
    Sub,
    TestFunction,
    Var,
    _bump_poly,
    _compile,
    _poly_eval,
    as_expr,
    parse,
)


class TestParse:
    def test_single_negation(self):
        e = parse("-x")
        assert e(0.0, 2.0) == -2.0

    def test_precedence_matches_table(self):
        e = parse("0.5*sin(t)*x^2")
        # ((0.5 * sin(t)) * x^2), multiplication left-associative
        assert isinstance(e, Mul)
        assert isinstance(e.left, Mul)
        assert isinstance(e.right, Pow)
        t, x = 0.7, 1.3
        assert e(t, x) == pytest.approx(0.5 * math.sin(t) * x**2, rel=1e-15)

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="exponent"):
            parse("x^t")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^-1")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^2.5")

    def test_unknown_identifier_with_offset(self):
        with pytest.raises(ExprSyntaxError, match="offset 4"):
            parse("1 + y")

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError, match="offset"):
            parse("1 + ")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 @ 2")

    def test_unary_binds_tighter_than_power(self):
        # grammar: factor := unary ('^' integer)?, so -x^2 is (-x)^2
        assert parse("-x^2")(0.0, 3.0) == 9.0

    def test_whitespace_insensitive(self):
        assert parse(" 1+ 2 * x ")(0.0, 3.0) == 7.0

    def test_scientific_notation(self):
        assert parse("1e-05")(0.0, 0.0) == 1e-05


class TestEval:
    def test_sum_of_variables(self):
        assert parse("t+x")(0.25, 0.5) == 0.75

    def test_bump_at_origin(self):
        assert parse("bump(x)")(0.0, 0.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_bump_boundary_is_exact_zero(self):
        e = parse("bump(x)")
        assert e(0.0, 1.0) == 0.0
        assert e(0.0, -1.0) == 0.0
        assert e(0.0, 5.0) == 0.0
        # u*u overflows far outside the support; the masked lane stays 0
        assert parse("bump_d2(exp(x))")(0.0, 400.0) == 0.0

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(ExprDomainError, match="division by zero in '1.0/x'"):
            parse("1/x")(0.0, 0.0)

    def test_log_domain_error(self):
        with pytest.raises(ExprDomainError, match="log"):
            parse("log(x)")(0.0, -1.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(ExprDomainError, match="sqrt"):
            parse("sqrt(x)")(0.0, -4.0)

    def test_nested_fault_names_innermost_node(self):
        with pytest.raises(ExprDomainError, match=re.escape("division by zero in '1.0/(x - 1.0)'")):
            parse("x + 1/(x-1)")(0.0, 1.0)

    def test_fault_inside_bump_argument_raises(self):
        with pytest.raises(ExprDomainError, match=re.escape("division by zero in '1.0/x'")):
            parse("bump(1/x)")(0.0, 0.0)

    def test_product_overflow_raises(self):
        # a scalar product overflows like '^' and exp do, instead of returning inf
        with pytest.raises(ExprDomainError, match=re.escape("overflow in 'x*x'")):
            parse("x*x")(0.0, 1e200)

    def test_quotient_overflow_is_not_division_by_zero(self):
        with pytest.raises(ExprDomainError, match=re.escape("overflow in 'x/1e-300'")):
            parse("x/1e-300")(0.0, 1e300)

    def test_exp_overflow_names_call(self):
        with pytest.raises(ExprDomainError, match=re.escape("overflow in 'exp(x)'")):
            parse("1 + exp(x)")(0.0, 1000.0)

    def test_functions(self):
        assert parse("exp(t)")(1.0, 0.0) == pytest.approx(math.e, rel=1e-15)
        assert parse("sqrt(x)")(0.0, 4.0) == 2.0
        assert parse("log(x)")(0.0, math.e) == pytest.approx(1.0, rel=1e-15)


class TestDerivative:
    def test_power_rule(self):
        d = parse("x^2").diff("x")
        for x in (-1.5, 0.0, 2.0):
            assert d(0.0, x) == 2.0 * x

    def test_mixed_partials(self):
        e = parse("sin(t)*x")
        assert e.diff("t")(0.5, 2.0) == pytest.approx(math.cos(0.5) * 2.0, rel=1e-15)
        assert e.diff("x")(0.5, 2.0) == pytest.approx(math.sin(0.5), rel=1e-15)

    def test_bump_derivative_matches_finite_difference(self):
        d = parse("bump(x)").diff("x")
        e = parse("bump(x)")
        h = 1e-6
        fd = (e(0.0, 0.5 + h) - e(0.0, 0.5 - h)) / (2 * h)
        assert d(0.0, 0.5) == pytest.approx(fd, rel=1e-6)

    def test_bump_second_derivative_closed_form(self):
        # B''(0) = bump(0) * (6 u^4 - 2) / (1-u^2)^4 at u = 0 -> -2 e^{-1}
        d2 = parse("bump(x)").diff("x").diff("x")
        assert d2(0.0, 0.0) == pytest.approx(-2.0 * math.exp(-1), rel=1e-14)

    def test_bump_derivatives_vanish_outside(self):
        e = parse("bump(x)")
        for _ in range(3):
            e = e.diff("x")
            assert e(0.0, 1.0) == 0.0
            assert e(0.0, -1.2) == 0.0

    def test_quotient_rule(self):
        e = parse("t/(1+x^2)")
        t, x = 0.3, 0.7
        expected = -t * 2 * x / (1 + x**2) ** 2
        assert e.diff("x")(t, x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "source",
        [
            "sin(x)*cos(t)",
            "exp(-x^2)",
            "sqrt(1+x^2)",
            "log(2+x)",
            "bump(x/2)*x",
            "bump((x-0.25)/0.75)",
            "t^3*x^2 - 2*x + 1",
            "sin(exp(x/4))",
        ],
    )
    def test_against_central_differences(self, source):
        rng = np.random.default_rng(hash(source) % 2**32)
        e = parse(source)
        dx = e.diff("x")
        dt = e.diff("t")
        h = 1e-5
        for _ in range(125):
            t = rng.uniform(0.05, 0.95)
            x = rng.uniform(-0.9, 0.9)
            fd_x = (e(t, x + h) - e(t, x - h)) / (2 * h)
            fd_t = (e(t + h, x) - e(t - h, x)) / (2 * h)
            assert abs(dx(t, x) - fd_x) <= 1e-5 * (1.0 + abs(fd_x))
            assert abs(dt(t, x) - fd_t) <= 1e-5 * (1.0 + abs(fd_t))


class TestPrinterRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "-x",
            "1 - 2 - 3",
            "(1-2)-3",
            "1-(2-3)",
            "2*x/(t+1)",
            "-x^2",
            "(-x)^2",
            "-(x^2)",
            "0.5*sin(t)*x^2",
            "bump(x/2)*x - bump((t-0.5)/0.45)",
            "x/(1+t)/(2+x^2)",
            "exp(-(x-0.5)^2)",
        ],
    )
    def test_reparse_evaluates_identically(self, source):
        rng = np.random.default_rng(11)
        original = parse(source)
        reparsed = parse(str(original))
        for _ in range(25):
            t, x = rng.uniform(-0.8, 0.8, 2)
            assert reparsed(t, x) == original(t, x)

    @pytest.mark.parametrize(
        "node, text",
        [
            (Sub(Var("x"), Sub(Var("t"), Const(1.0))), "x - (t - 1.0)"),
            (Sub(Sub(Var("x"), Var("t")), Const(1.0)), "x - t - 1.0"),
            (Div(Var("x"), Mul(Var("t"), Const(2.0))), "x/(t*2.0)"),
            (Mul(Div(Var("x"), Var("t")), Const(2.0)), "x/t*2.0"),
            (Neg(Add(Var("x"), Var("t"))), "-(x + t)"),
            (Pow(Add(Var("x"), Var("t")), 2), "(x + t)^2"),
        ],
    )
    def test_binary_nodes_print_with_their_associativity(self, node, text):
        assert str(node) == text
        assert parse(text) == node

    def test_binary_nodes_compare_by_type(self):
        x, t = Var("x"), Var("t")
        assert Add(x, t) != Sub(x, t)
        assert Mul(x, t) != Div(x, t)

    def test_derivative_expressions_round_trip(self):
        rng = np.random.default_rng(13)
        e = parse("bump(x/2)*sin(t)").diff("x").diff("x")
        reparsed = parse(str(e))
        for _ in range(25):
            t, x = rng.uniform(-1.5, 1.5, 2)
            assert reparsed(t, x) == e(t, x)


class TestVectorized:
    def test_matches_scalar_on_grids(self):
        cases = [
            ("bump(x/2)*x + t*x^2", 0.3, 41),
            # libm and numpy disagree in the last bit on a few percent of these
            ("exp(sin(x)*t) + log(1+x^2)", 0.7, 2001),
        ]
        for source, t, points in cases:
            e = parse(source)
            xs = np.linspace(-3, 3, points)
            with np.errstate(all="ignore"):
                vec = e.vectorized()(t, xs)
            mismatches = [float(x) for i, x in enumerate(xs) if vec[i] != e(t, float(x))]
            assert mismatches == [], source

    def test_bump_vector_zero_outside(self):
        fn = parse("bump(x)").diff("x").vectorized()
        with np.errstate(all="ignore"):
            out = fn(0.0, np.array([-2.0, -1.0, 1.0, 3.0]))
        assert np.all(out == 0.0)

    def test_each_intermediate_is_dropped_after_its_last_use(self):
        xs = np.linspace(-1.0, 1.0, 100_000)
        chain = parse("x" + " + 1" * 20).vectorized()  # 20 distinct sums, each read once
        tracemalloc.start()
        try:
            chain(0.0, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * xs.nbytes

    def test_equal_subtrees_and_bump_supports_are_evaluated_once(self, monkeypatch):
        calls = []

        def counting(name):
            ufunc = expr_module._GLOBALS[name]

            def run(*args, **kwargs):
                calls.append(name)
                return ufunc(*args, **kwargs)

            return run

        for name in ("_sin", "_exp"):
            monkeypatch.setitem(expr_module._GLOBALS, name, counting(name))
        xs = np.linspace(-3.0, 3.0, 13)
        parse("sin(x)*sin(x) + sin(x)").vectorized()(0.0, xs)
        assert calls == ["_sin"]
        phi = TestFunction.from_expression("bump((t-0.5)/0.45)*bump(x/2)")
        calls.clear()
        phi.jet(0.3, xs)
        assert calls == ["_exp", "_exp"]  # one exp(-1/w) per bump argument, for 6 bumps

    def test_constants_of_either_sign_of_zero_stay_apart(self):
        with np.errstate(all="ignore"):
            got = _compile(Div(Const(1.0), Const(0.0)), Div(Const(1.0), Const(-0.0)))(0.0, 0.0)
        assert got == (np.inf, -np.inf)


@pytest.mark.parametrize("order", range(7))
def test_bump_polynomial_keeps_no_trailing_zero(order):
    p = _bump_poly(order)
    assert p[-1] != 0
    u = np.linspace(-0.999, 0.999, 2001)
    padded = 0.0  # Horner's rule over the coefficients with three zeros appended
    for c in reversed(p + (0, 0, 0)):
        padded = padded * u + c
    assert np.broadcast_to(_poly_eval(p, u), u.shape).tobytes() == np.broadcast_to(padded, u.shape).tobytes()


def test_bump_polynomials_of_orders_1_and_2():
    assert _bump_poly(1) == (0, -2)
    assert _bump_poly(2) == (-2, 0, 0, 0, 6)


# a grid of u that reaches 1 - 1e-10 from inside at both ends of the support
U_TO_THE_EDGE = np.concatenate(
    [np.linspace(-1.5, 1.5, 3001), 1 - np.logspace(-10, -1, 200), np.logspace(-10, -1, 200) - 1]
)


def _plain_bump(order, u):
    """bump(u) * P_k(u) / (1-u^2)^(2k) on |u| < 1 and 0 elsewhere, with no other lane zeroed."""
    inside = np.abs(u) < 1.0
    with np.errstate(all="ignore"):
        w = np.where(inside, 1.0 - u * u, 1.0)
        value = np.exp(-1.0 / w) * _poly_eval(_bump_poly(order), u) / w ** (2 * order)
    return np.where(inside, value, 0.0)


@pytest.mark.parametrize("order", range(17))
def test_bump_up_to_order_16_is_the_plain_quotient(order):
    got = Bump(order, Var("x")).vectorized()(0.0, U_TO_THE_EDGE)
    assert np.array_equal(got, _plain_bump(order, U_TO_THE_EDGE))


def test_high_order_bump_is_zero_where_its_exponential_underflows():
    # at order 20, w^40 underflows to 0 where exp(-1/w) has, so the plain quotient is 0/0
    edge = 1 - 1e-10
    e = Bump(20, Var("x"))
    plain = _plain_bump(20, U_TO_THE_EDGE)
    assert np.isnan(_plain_bump(20, np.array([edge])))[0]
    assert e(0.0, edge) == 0.0 and e(0.0, -edge) == 0.0
    got = e.vectorized()(0.0, U_TO_THE_EDGE)
    defined = ~np.isnan(plain)
    assert np.array_equal(got[defined], plain[defined])
    assert np.all(got[~defined] == 0.0)
    assert e.vectorized()(0.0, np.array([edge, -edge])).tolist() == [0.0, 0.0]


class TestTestFunction:
    def test_from_bumps_support(self):
        phi = TestFunction.from_bumps(x_center=0.0, x_width=2.0, t_center=0.5, t_width=0.45)
        lo, hi = phi.t_support
        assert lo == pytest.approx(0.05)
        assert hi == pytest.approx(0.95)
        assert phi.x_support == (-2.0, 2.0)

    def test_zero_outside_support_including_derivatives(self):
        phi = TestFunction.from_bumps(x_center=0.0, x_width=1.0, t_center=0.5, t_width=0.25, extra="x")
        outside = [(0.5, 1.0), (0.5, -3.0), (0.75, 0.0), (0.1, 0.5), (0.5, 1.0000001)]
        for t, x in outside:
            assert phi(t, x) == 0.0
            assert phi.d_t(t, x) == 0.0
            assert phi.d_x(t, x) == 0.0
            assert phi.d_xx(t, x) == 0.0

    def test_nonzero_inside(self):
        phi = TestFunction.from_bumps(x_center=0.0, x_width=2.0)
        assert phi(0.0, 0.0) == pytest.approx(math.exp(-1))

    def test_from_expression_infers_rectangle(self):
        phi = TestFunction.from_expression("bump((t-0.5)/0.45)*bump(x/2)*x")
        assert phi.t_support[0] == pytest.approx(0.05)
        assert phi.t_support[1] == pytest.approx(0.95)
        assert phi.x_support == (-2.0, 2.0)

    def test_from_expression_unbounded_axis(self):
        phi = TestFunction.from_expression("bump(x/2)")
        assert phi.t_support == (-math.inf, math.inf)

    def test_from_expression_rejects_mixed_argument(self):
        with pytest.raises(Exception, match="support"):
            TestFunction.from_expression("bump(t*x)")

    def test_from_expression_rejects_nonaffine_argument(self):
        with pytest.raises(Exception, match="affine"):
            TestFunction.from_expression("bump(x^2)")

    @pytest.mark.parametrize("shape", ["v^2", "sin(v)", "v*v", "1/v", "exp(v)", "v/0"])
    @pytest.mark.parametrize("var", ["t", "x"])
    def test_from_expression_rejects_each_nonaffine_argument(self, shape, var):
        with pytest.raises(ExprError, match="affine"):
            TestFunction.from_expression(f"bump({shape.replace('v', var)})")

    def test_from_expression_accepts_power_one(self):
        assert TestFunction.from_expression("bump(x^1)").x_support == (-1.0, 1.0)

    def test_extra_bump_narrows_support(self):
        phi = TestFunction.from_bumps(extra="bump(x/0.5)")
        assert phi.x_support == (-0.5, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_center": math.nan},
            {"x_center": math.inf},
            {"x_width": math.nan},
            {"x_width": math.inf},
            {"t_center": math.nan, "t_width": 0.5},
            {"t_center": 0.5, "t_width": math.nan},
            {"t_center": 0.5, "t_width": math.inf},
        ],
        ids=["x-center-nan", "x-center-inf", "x-width-nan", "x-width-inf", "t-center-nan",
             "t-width-nan", "t-width-inf"],
    )
    def test_from_bumps_rejects_non_finite_geometry(self, kwargs):
        with pytest.raises(ExprError, match="finite"):
            TestFunction.from_bumps(**kwargs)

    def test_extra_factor_keeps_compact_support(self):
        phi = TestFunction.from_bumps(x_center=0.0, x_width=2.0, extra="x^3 + sin(x)")
        assert phi(0.0, 2.0) == 0.0
        assert phi(0.0, 2.5) == 0.0

    def test_stored_derivatives_match_finite_differences(self):
        phi = TestFunction.from_bumps(x_center=0.0, x_width=2.0, t_center=0.5, t_width=0.45)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(50):
            t = rng.uniform(0.1, 0.9)
            x = rng.uniform(-1.8, 1.8)
            fd_t = (phi(t + h, x) - phi(t - h, x)) / (2 * h)
            fd_x = (phi(t, x + h) - phi(t, x - h)) / (2 * h)
            fd_xx = (phi(t, x + h) - 2 * phi(t, x) + phi(t, x - h)) / h**2
            assert abs(phi.d_t(t, x) - fd_t) <= 1e-5 * (1 + abs(fd_t))
            assert abs(phi.d_x(t, x) - fd_x) <= 1e-5 * (1 + abs(fd_x))
            assert abs(phi.d_xx(t, x) - fd_xx) <= 1e-4 * (1 + abs(fd_xx))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Var("y"), ExprError, "unknown variable 'y'"),
        (lambda: Call("tan", Var("x")), ExprError, "unknown function 'tan'"),
        (lambda: parse("(x"), ExprSyntaxError, r"expected '\)' \(offset 2\)"),
        (lambda: parse("x)"), ExprSyntaxError, r"unexpected token '\)' \(offset 1\)"),
        (lambda: as_expr(None), ExprError, "cannot interpret None"),
        (lambda: TestFunction.from_bumps(x_width=0.0), ExprError, "x_width must be positive"),
        (lambda: TestFunction.from_bumps(t_center=0.5, t_width=0.0), ExprError,
         "t_width must be positive"),
    ],
    ids=["var-y", "call-tan", "open-paren", "close-paren", "none", "x-width-zero", "t-width-zero"],
)
def test_refusal(build, error, message):
    with pytest.raises(error, match=message):
        build()
