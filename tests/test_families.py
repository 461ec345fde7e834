import pytest
from hypothesis import given, strategies as st

from modulirc import (
    ExtensionChain,
    MixedDatum,
    ParameterError,
    TorsionDatum,
    chain_dimension_excess_certificate,
    derive_params,
    expected_dimension,
    is_unobstructed_splitting,
    mixed_dimension,
    multi_step_degree,
    multi_step_dimension,
    torsion_degree,
    torsion_dimension,
    two_step_degree,
    two_step_dimension,
)


def _ref_two_step_degree(p, r1, d1, a):
    """The two-step degree in closed form, as the chain formula's reference."""
    return a * (p.d_bar * r1 - p.r_bar * d1)


def _ref_two_step_dimension(p, r1, d1, a):
    """dim M + hk + (a-1)*r1*r2*(g-1) + (r1*d2 - r2*d1) in closed form."""
    r2, d2 = p.r - r1, p.d - d1
    hk = p.h * _ref_two_step_degree(p, r1, d1, a)
    return p.dim_m + hk + (a - 1) * r1 * r2 * (p.g - 1) + (r1 * d2 - r2 * d1)


P221 = derive_params(2, 2, 1)
P321 = derive_params(3, 2, 1)
P231 = derive_params(2, 3, 1)


class TestTwoStep:
    def test_degree_examples(self):
        assert two_step_degree(P221, 1, 0, 1) == 1
        assert two_step_degree(P221, 1, 0, 3) == 3
        assert two_step_degree(derive_params(2, 4, 2), 1, -1, 1) == 3

    def test_dimension_examples(self):
        assert two_step_dimension(P221, 1, 0, 1) == 5 == expected_dimension(P221, 1)
        assert two_step_dimension(P221, 1, 0, 2) == 7 == expected_dimension(P221, 2)
        assert two_step_dimension(P321, 1, 0, 2) == 11 > expected_dimension(P321, 2)

    def test_slope_violation_rejected(self):
        with pytest.raises(ParameterError, match="slope"):
            two_step_degree(P221, 1, 1, 1)
        with pytest.raises(ParameterError):
            two_step_dimension(P221, 1, 2, 1)

    def test_bad_r1_rejected(self):
        with pytest.raises(ParameterError):
            two_step_degree(P221, 0, 0, 1)
        with pytest.raises(ParameterError):
            two_step_degree(P221, 2, 0, 1)


class TestTorsion:
    def test_degree(self):
        assert torsion_degree(P221, TorsionDatum(params=P221, t=1, a=1)) == 2
        assert torsion_degree(P221, TorsionDatum(params=P221, t=1, a=2)) == 4

    def test_degenerate_divisor_rejected(self):
        with pytest.raises(ParameterError):
            TorsionDatum(params=P221, t=0, a=1)

    def test_dimension(self):
        assert torsion_dimension(P221, TorsionDatum(params=P221, t=1, a=1)) == 7
        assert torsion_dimension(P221, TorsionDatum(params=P221, t=1, a=2)) == 9
        p = derive_params(2, 3, 1)
        assert torsion_dimension(p, TorsionDatum(params=p, t=1, a=1)) == 14
        assert expected_dimension(p, 3) == 14


class TestMixed:
    def test_examples(self):
        p = derive_params(2, 2, 2)
        assert mixed_dimension(p, MixedDatum(params=p, r1=1, d1=0, t=1)) == (2, 9)
        assert mixed_dimension(P231, MixedDatum(params=P231, r1=1, d1=-1, t=1)) == (7, 20)

    def test_t_zero_rejected(self):
        with pytest.raises(ParameterError):
            MixedDatum(params=P231, r1=1, d1=-1, t=0)

    @given(r1=st.integers(1, 4), d1=st.integers(-5, 5), t=st.integers(1, 4),
           g=st.integers(2, 5), r=st.integers(2, 5), d=st.integers(-5, 5))
    def test_always_below_expected(self, r1, d1, t, g, r, d):
        if r1 >= r:
            return
        p = derive_params(g, r, d)
        d2 = d - d1 - t
        if r1 * d2 - (r - r1) * d1 <= 0:
            return
        k, dim = mixed_dimension(p, MixedDatum(params=p, r1=r1, d1=d1, t=t))
        assert dim < expected_dimension(p, k)


class TestChains:
    def test_degree_examples(self):
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 1))
        assert multi_step_degree(c) == 9
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(2, 1))
        assert multi_step_degree(c) == 13

    def test_dimension_examples(self):
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 1))
        assert multi_step_dimension(c) == 24 < expected_dimension(P231, 9)
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(2, 1))
        assert multi_step_dimension(c) == 30 < expected_dimension(P231, 13)

    def test_two_step_consistency_examples(self):
        c = ExtensionChain(params=P221, steps=((1, 0), (1, 1)), twists=(1,))
        assert multi_step_degree(c) == 1 == two_step_degree(P221, 1, 0, 1)
        c = ExtensionChain(params=P321, steps=((1, 0), (1, 1)), twists=(2,))
        assert multi_step_dimension(c) == 11 == two_step_dimension(P321, 1, 0, 2)

    @given(g=st.integers(2, 5), r=st.integers(2, 6), r1=st.integers(1, 5),
           d1=st.integers(-6, 6), d=st.integers(-6, 6), a=st.integers(1, 4))
    def test_two_step_consistency_property(self, g, r, r1, d1, d, a):
        if r1 >= r:
            return
        p = derive_params(g, r, d)
        if r1 * d - r * d1 <= 0:
            return
        c = ExtensionChain(params=p, steps=((r1, d1), (r - r1, d - d1)), twists=(a,))
        assert multi_step_degree(c) == _ref_two_step_degree(p, r1, d1, a)
        assert multi_step_dimension(c) == _ref_two_step_dimension(p, r1, d1, a)
        assert two_step_degree(p, r1, d1, a) == _ref_two_step_degree(p, r1, d1, a)
        assert two_step_dimension(p, r1, d1, a) == _ref_two_step_dimension(p, r1, d1, a)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ParameterError):  # slope not increasing
            ExtensionChain(params=P231, steps=((1, 0), (1, 0), (1, 1)), twists=(1, 1))
        with pytest.raises(ParameterError):  # ranks do not sum to r
            ExtensionChain(params=P231, steps=((1, 0), (1, 1)), twists=(1,))
        with pytest.raises(ParameterError):  # degrees do not sum to d
            ExtensionChain(params=P231, steps=((1, 0), (1, 1), (1, 2)), twists=(1, 1))
        with pytest.raises(ParameterError):  # twist below 1
            ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(0, 1))

    def test_certificate_matches_dimension_gap(self):
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 1))
        assert chain_dimension_excess_certificate(c) == 2
        assert multi_step_dimension(c) - expected_dimension(P231, 9) == -2


class TestSplittingPredicate:
    def test_examples(self):
        two = ExtensionChain(params=P221, steps=((1, 0), (1, 1)), twists=(1,))
        assert is_unobstructed_splitting(two)
        twisted = ExtensionChain(params=P221, steps=((1, 0), (1, 1)), twists=(2,))
        assert not is_unobstructed_splitting(twisted)
        long = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)),
                              twists=(1, 1))
        assert not is_unobstructed_splitting(long)

    def test_torsion(self):
        assert is_unobstructed_splitting(TorsionDatum(params=P221, t=1, a=1))
        assert not is_unobstructed_splitting(TorsionDatum(params=P221, t=1, a=2))

    def test_unsupported_type(self):
        with pytest.raises(ParameterError):
            is_unobstructed_splitting(object())


@given(g=st.integers(2, 4), r=st.integers(2, 5), d=st.integers(-5, 5),
       r1=st.integers(1, 4), d1=st.integers(-5, 5))
def test_twist_one_families_have_expected_dimension(g, r, d, r1, d1):
    if r1 >= r:
        return
    p = derive_params(g, r, d)
    if r1 * d - r * d1 <= 0:
        return
    k = two_step_degree(p, r1, d1, 1)
    assert two_step_dimension(p, r1, d1, 1) == expected_dimension(p, k)


@given(g=st.integers(2, 4), r=st.integers(2, 5), d=st.integers(-5, 5),
       t=st.integers(1, 4))
def test_twist_one_torsion_has_expected_dimension(g, r, d, t):
    p = derive_params(g, r, d)
    td = TorsionDatum(params=p, t=t, a=1)
    assert torsion_dimension(p, td) == expected_dimension(p, torsion_degree(p, td))
