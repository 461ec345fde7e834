import pytest
from hypothesis import given, strategies as st

from modulirc import (
    ParameterError,
    derive_params,
    expected_dimension,
    solve_dioph,
)


def test_derive_params_examples():
    p = derive_params(2, 2, 1)
    assert (p.h, p.r_bar, p.d_bar, p.dim_m, p.fano_index) == (1, 2, 1, 3, 2)
    p = derive_params(2, 4, 2)
    assert (p.h, p.r_bar, p.d_bar, p.dim_m, p.fano_index) == (2, 2, 1, 15, 4)
    p = derive_params(3, 2, 0)
    assert (p.h, p.r_bar, p.d_bar, p.dim_m) == (2, 1, 0, 6)


def test_derive_params_rejects_bad_domain():
    with pytest.raises(ParameterError):
        derive_params(1, 2, 1)
    with pytest.raises(ParameterError):
        derive_params(2, 1, 1)
    for g, r, d in ((1001, 2, 1), (2, 1001, 1), (2, 2, 10**6 + 1), (2, 2, -10**6 - 1)):
        with pytest.raises(ParameterError, match="must"):
            derive_params(g, r, d)


def test_expected_dimension_examples():
    p = derive_params(2, 2, 1)
    assert expected_dimension(p, 1) == 5
    assert expected_dimension(p, 0) == 3 == p.dim_m


def test_expected_dimension_rejects_negative():
    p = derive_params(2, 2, 1)
    with pytest.raises(ParameterError):
        expected_dimension(p, -1)


def test_solve_dioph_examples():
    assert solve_dioph(derive_params(2, 2, 1), 1) == [(1, 0)]
    assert solve_dioph(derive_params(2, 4, 2), 3) == [(1, -1), (3, 0)]
    assert solve_dioph(derive_params(2, 2, 1), 2) == [(0, -1)]


@given(g=st.integers(2, 6), r=st.integers(2, 8), d=st.integers(-10, 10),
       k=st.integers(1, 40))
def test_solve_dioph_properties(g, r, d, k):
    p = derive_params(g, r, d)
    sols = solve_dioph(p, k)
    assert len(sols) == p.h
    for x, y in sols:
        assert 0 <= x < r
        assert p.d_bar * x - p.r_bar * y == k
    for (x0, y0), (x1, y1) in zip(sols, sols[1:]):
        assert (x1 - x0, y1 - y0) == (p.r_bar, p.d_bar)


@given(g=st.integers(2, 6), r=st.integers(2, 8), d=st.integers(-10, 10),
       k=st.integers(1, 40))
def test_expected_dimension_gap_is_even_positive(g, r, d, k):
    p = derive_params(g, r, d)
    gap = expected_dimension(p, k) - p.dim_m
    assert gap == 2 * p.h * k
    assert gap > 0 and gap % 2 == 0
