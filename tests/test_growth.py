"""Unit tests for the growth/companion function families."""

import math

import numpy as np
import pytest

from ppclab.growth import (
    GrowthFunction,
    ThetaFunction,
    lower_order,
    parse_growth,
    parse_theta,
    predicted_hausdorff_dim,
    psi,
    series_partial_sum,
)

E = math.e


# -- frozen evaluation points ---------------------------------------------------


def test_ilog1_at_e_to_e():
    f = GrowthFunction("ilog", r=1)
    assert f(E**E) == pytest.approx(E, rel=1e-12)


def test_ilog2_at_tower():
    f = GrowthFunction("ilog", r=2)
    x = math.exp(E**E)
    assert f(x) == pytest.approx(E**E * E, rel=1e-12)


def test_pow_third_at_4096():
    f = GrowthFunction("pow", a=1.0 / 3.0)
    assert f(4096) == pytest.approx(16.0, rel=1e-12)


def test_ilog_eps_closed_form_point():
    f = GrowthFunction("ilog_eps", r=1, eps=0.5)
    # (log x)^{1.5} at x = e^4 is 8
    assert f(math.exp(4.0)) == pytest.approx(8.0, rel=1e-12)


# -- clamping -------------------------------------------------------------------


def test_clamp_points():
    assert GrowthFunction("ilog", r=1).x_min == 8.0  # log(8) = 2.079 > 2.05
    assert GrowthFunction("ilog", r=2).x_min == 16.0
    assert GrowthFunction("pow", a=1.0 / 3.0).x_min == 16.0  # 8^(1/3)=2 is too small
    assert ThetaFunction("one_plus_log").x_min == 2.0


def test_values_clamped_below_x_min():
    for f in (
        GrowthFunction("ilog", r=1),
        GrowthFunction("ilog", r=3),
        GrowthFunction("pow", a=0.25),
        GrowthFunction("ilog_eps", r=2, eps=1.0),
    ):
        assert f(1) == f(f.x_min)
        assert f(0.001) == f(f.x_min)
        assert f(f.x_min / 2) == f(f.x_min)
        assert f(1) > 2.0


def test_always_above_two_and_monotone():
    grid = [2.0**k for k in range(0, 200, 5)]
    for f in (
        GrowthFunction("ilog", r=1),
        GrowthFunction("ilog", r=2),
        GrowthFunction("ilog", r=4),
        GrowthFunction("ilog_eps", r=1, eps=0.5),
        GrowthFunction("pow", a=1.0 / 3.0),
        GrowthFunction("pow", a=0.01),
    ):
        vals = [f(x) for x in grid]
        assert all(v > 2.0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]  # strictly grows once past the clamp


def test_doubling_ratio_below_two():
    grid = np.array([2.0**k for k in range(4, 300, 4)])
    for f in (
        GrowthFunction("ilog", r=1),
        GrowthFunction("ilog", r=3),
        GrowthFunction("ilog_eps", r=2, eps=0.7),
        GrowthFunction("pow", a=1.0 / 3.0),
    ):
        ratios = f(2 * grid) / f(grid)
        assert np.all(ratios < 2.0)
        assert np.all(ratios >= 1.0)


def test_vectorized_matches_scalar():
    f = GrowthFunction("ilog", r=2)
    xs = np.array([1.0, 10.0, 1e6, 1e30])
    vec = f(xs)
    assert isinstance(vec, np.ndarray)
    for x, v in zip(xs, vec):
        assert f(float(x)) == pytest.approx(v, rel=0, abs=0)


# -- family validation ------------------------------------------------------------


def test_family_validation():
    with pytest.raises(ValueError):
        GrowthFunction("pow", a=0.5)  # beyond 1/3
    with pytest.raises(ValueError):
        GrowthFunction("pow", a=0.0)
    with pytest.raises(ValueError):
        GrowthFunction("ilog", r=0)
    with pytest.raises(ValueError):
        GrowthFunction("ilog", r=5)  # overflows doubles before it is positive
    with pytest.raises(ValueError):
        GrowthFunction("ilog_eps", r=1, eps=1.5)
    with pytest.raises(ValueError):
        GrowthFunction("wat")
    with pytest.raises(ValueError):
        ThetaFunction("pow", b=0.3)
    with pytest.raises(ValueError):
        ThetaFunction("sqrt")


# -- theta ------------------------------------------------------------------------


def test_theta_families():
    th = ThetaFunction("one_plus_log")
    assert th(math.exp(3.0)) == pytest.approx(4.0, rel=1e-12)
    assert th(1) == th(2.0)  # clamped at 2
    tp = ThetaFunction("pow", b=0.25)
    assert tp(16) == pytest.approx(2.0, rel=1e-12)


def test_theta_dyadic_ratio_tends_to_one():
    th = ThetaFunction("one_plus_log")
    ratios = [th(2.0 ** (j + 1)) / th(2.0**j) for j in range(4, 60)]
    assert all(r > 1.0 for r in ratios)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))  # monotone down
    assert ratios[-1] < 1.02


# -- psi ---------------------------------------------------------------------------


def test_psi_at_rank_one_uses_clamps():
    f = GrowthFunction("ilog", r=1)
    th = ThetaFunction("one_plus_log")
    assert psi(f, th, 1) == pytest.approx(1.0 / (f(f.x_min) * th(th.x_min)), rel=1e-14)


def test_psi_decreasing():
    f = GrowthFunction("ilog", r=2)
    th = ThetaFunction("pow", b=0.1)
    ranks = np.array([1, 10, 100, 10_000, 10**8])
    vals = psi(f, th, ranks)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        psi(f, th, 0)


# -- series -----------------------------------------------------------------------


def test_series_iterated_log_divergence_rate():
    # sum_{n<=N} 1/(n log n) grows like log log N: the increment from 1e3 to
    # 1e6 is log(log 1e6) - log(log 1e3) = log 2
    f = GrowthFunction("ilog", r=1)
    s3 = series_partial_sum(f, 10**3)
    s6 = series_partial_sum(f, 10**6)
    assert s6 - s3 == pytest.approx(math.log(2), abs=0.01)


def test_series_power_family_converges():
    f = GrowthFunction("pow", a=1.0 / 3.0)
    s5 = series_partial_sum(f, 10**5)
    s6 = series_partial_sum(f, 10**6)
    assert s6 - s5 < 0.05  # tail of a convergent sum n^(-4/3)
    assert s6 < 4.0


def test_series_chunking_consistent():
    f = GrowthFunction("ilog", r=1)
    a = series_partial_sum(f, 12_345, chunk=1 << 20)
    b = series_partial_sum(f, 12_345, chunk=1000)
    assert a == pytest.approx(b, rel=1e-12)


# -- lower order and dimension -------------------------------------------------


def test_lower_order_families():
    for r in (1, 2, 3):
        res = lower_order(GrowthFunction("ilog", r=r))
        assert res.analytic == 0.0
        assert abs(res.grid_estimate) <= 0.05
    res = lower_order(GrowthFunction("ilog_eps", r=1, eps=1.0))
    assert res.analytic == 0.0
    for a in (0.05, 0.2, 1.0 / 3.0):
        res = lower_order(GrowthFunction("pow", a=a))
        assert res.analytic == a
        assert res.grid_estimate == pytest.approx(a, abs=1e-9)


def test_predicted_dimension():
    assert predicted_hausdorff_dim(GrowthFunction("ilog", r=1)) == 1.0
    assert predicted_hausdorff_dim(GrowthFunction("ilog_eps", r=2, eps=0.3)) == 1.0
    assert predicted_hausdorff_dim(GrowthFunction("pow", a=1.0 / 3.0)) == pytest.approx(0.75)


# -- parsing ------------------------------------------------------------------------


def test_parse_round_trip():
    for text, fam in [
        ("ilog(1)", ("ilog", 1, 0.0, 0.0)),
        ("ilog(3)", ("ilog", 3, 0.0, 0.0)),
        ("ilog_eps(2, 0.5)", ("ilog_eps", 2, 0.5, 0.0)),
        ("pow(1/3)", ("pow", 0, 0.0, 1.0 / 3.0)),
        ("pow(0.25)", ("pow", 0, 0.0, 0.25)),
    ]:
        f = parse_growth(text)
        assert (f.family, f.r, f.eps, f.a) == fam
        assert parse_growth(f.spec_string) == f


def test_parse_theta():
    assert parse_theta("one_plus_log") == ThetaFunction("one_plus_log")
    assert parse_theta("pow(1/4)") == ThetaFunction("pow", b=0.25)
    t = ThetaFunction("pow", b=0.125)
    assert parse_theta(t.spec_string) == t


def test_parse_errors():
    for bad in ("ilog", "ilog()", "pow()", "pow(2)", "log(1)", "ilog(one)"):
        with pytest.raises(ValueError):
            parse_growth(bad)
    with pytest.raises(ValueError):
        parse_theta("two_plus_log")


@pytest.mark.parametrize("spec", ["ilog(1)", "ilog(2)", "ilog(3)", "ilog_eps(2, 0.5)",
                                  "pow(1/3)"])
def test_scalar_values_are_the_array_values_bit_for_bit(spec):
    f = parse_growth(spec)
    grid = np.concatenate((np.geomspace(0.25, 1e15, 3001), 2.0 ** np.arange(60),
                           np.arange(1.0, 300.0)))
    ranks = grid[grid >= 1]

    def bits(values):
        return [float(v).hex() for v in values]

    assert bits(f(x) for x in grid.tolist()) == bits(f(grid))
    assert all(type(f(x)) is float for x in (3, 3.0, np.float64(3.0), np.array(3.0)))
    for theta in (parse_theta("one_plus_log"), parse_theta("pow(0.2)")):
        assert bits(theta(x) for x in grid.tolist()) == bits(theta(grid))
        assert bits(psi(f, theta, x) for x in ranks.tolist()) == bits(psi(f, theta, ranks))
