import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from modulirc import (
    ExtensionChain,
    MixedDatum,
    ParameterError,
    TorsionDatum,
    chain_dimension_excess_certificate,
    derive_params,
    expected_dimension,
    two_step_chain,
)


def _ref_chain_degree(c):
    """h*k = sum over i<j of (r_i d_j - r_j d_i)(a_i+...+a_{j-1}), divided by
    h: the chain degree in its own pair loop, as the reference for
    ExtensionChain.degree."""
    hk = 0
    for i, (ri, di) in enumerate(c.steps):
        w = 0
        for j, (rj, dj) in enumerate(c.steps[i + 1:], i + 1):
            w += c.twists[j - 1]
            hk += (ri * dj - rj * di) * w
    assert hk % c.params.h == 0
    return hk // c.params.h


def _ref_chain_dimension(c):
    """dim M + sum (r_i d_j - r_j d_i)(w_ij + 1) + (g-1) * sum r_i r_j (w_ij - 1)
    in its own pair loop, as the reference for ExtensionChain.dimension."""
    p = c.params
    lin = 0
    quad = 0
    for i, (ri, di) in enumerate(c.steps):
        w = 0
        for j, (rj, dj) in enumerate(c.steps[i + 1:], i + 1):
            w += c.twists[j - 1]
            lin += (ri * dj - rj * di) * (w + 1)
            quad += ri * rj * (w - 1)
    return p.dim_m + lin + quad * (p.g - 1)


def _ref_two_step_degree(p, r1, d1, a):
    """The two-step degree in closed form, as the chain formula's reference."""
    return a * (p.d_bar * r1 - p.r_bar * d1)


def _ref_two_step_dimension(p, r1, d1, a):
    """dim M + hk + (a-1)*r1*r2*(g-1) + (r1*d2 - r2*d1) in closed form."""
    r2, d2 = p.r - r1, p.d - d1
    hk = p.h * _ref_two_step_degree(p, r1, d1, a)
    return p.dim_m + hk + (a - 1) * r1 * r2 * (p.g - 1) + (r1 * d2 - r2 * d1)


def _ref_chain_checks(p, steps, twists):
    """The checks of ExtensionChain as it made them before it checked its
    steps in one pass, one check after another, as the reference for the
    order and the messages of its ParameterErrors."""
    steps = tuple((int(a), int(b)) for a, b in steps)
    twists = tuple(int(a) for a in twists)
    if len(steps) < 2:
        raise ParameterError("chain needs at least two steps")
    if len(twists) != len(steps) - 1:
        raise ParameterError("need exactly one twist per consecutive pair")
    if any(a < 1 for a in twists):
        raise ParameterError("twists must be >= 1")
    if any(ri < 1 for ri, _ in steps):
        raise ParameterError("step ranks must be >= 1")
    if sum(ri for ri, _ in steps) != p.r:
        raise ParameterError("step ranks must sum to r")
    if sum(di for _, di in steps) != p.d:
        raise ParameterError("step degrees must sum to d")
    for (r_lo, d_lo), (r_hi, d_hi) in zip(steps, steps[1:]):
        if d_lo * r_hi >= d_hi * r_lo:
            raise ParameterError(
                f"slopes must strictly increase: {d_lo}/{r_lo} !< {d_hi}/{r_hi}")


def _chain(p, steps, twists):
    return ExtensionChain(params=p, steps=steps, twists=twists)


def _rejection(check, p, steps, twists):
    """The message of the ParameterError that check(...) raises, or None."""
    try:
        check(p, steps, twists)
    except ParameterError as exc:
        return str(exc)
    return None


P221 = derive_params(2, 2, 1)
P321 = derive_params(3, 2, 1)
P231 = derive_params(2, 3, 1)


class TestTwoStep:
    def test_degree_examples(self):
        assert two_step_chain(P221, 1, 0, 1).degree == 1
        assert two_step_chain(P221, 1, 0, 3).degree == 3
        assert two_step_chain(derive_params(2, 4, 2), 1, -1, 1).degree == 3

    def test_dimension_examples(self):
        dim = lambda p, a: two_step_chain(p, 1, 0, a).dimension
        assert dim(P221, 1) == 5 == expected_dimension(P221, 1)
        assert dim(P221, 2) == 7 == expected_dimension(P221, 2)
        assert dim(P321, 2) == 11 > expected_dimension(P321, 2)

    def test_slope_violation_rejected(self):
        with pytest.raises(ParameterError, match="slope"):
            two_step_chain(P221, 1, 1, 1)
        with pytest.raises(ParameterError):
            two_step_chain(P221, 1, 2, 1)

    def test_bad_r1_rejected(self):
        with pytest.raises(ParameterError):
            two_step_chain(P221, 0, 0, 1)
        with pytest.raises(ParameterError):
            two_step_chain(P221, 2, 0, 1)


class TestTorsion:
    def test_degree(self):
        assert TorsionDatum(params=P221, t=1, a=1).degree == 2
        assert TorsionDatum(params=P221, t=1, a=2).degree == 4

    def test_degenerate_divisor_rejected(self):
        with pytest.raises(ParameterError):
            TorsionDatum(params=P221, t=0, a=1)

    def test_dimension(self):
        assert TorsionDatum(params=P221, t=1, a=1).dimension == 7
        assert TorsionDatum(params=P221, t=1, a=2).dimension == 9
        p = derive_params(2, 3, 1)
        assert TorsionDatum(params=p, t=1, a=1).dimension == 14
        assert expected_dimension(p, 3) == 14


class TestMixed:
    def test_examples(self):
        p = derive_params(2, 2, 2)
        m = MixedDatum(params=p, r1=1, d1=0, t=1)
        assert (m.degree, m.dimension) == (2, 9)
        m = MixedDatum(params=P231, r1=1, d1=-1, t=1)
        assert (m.degree, m.dimension) == (7, 20)

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
        m = MixedDatum(params=p, r1=r1, d1=d1, t=t)
        assert m.dimension < expected_dimension(p, m.degree)
        assert not m.balanced


class TestChains:
    def test_degree_examples(self):
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 1))
        assert c.degree == 9
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(2, 1))
        assert c.degree == 13

    def test_dimension_examples(self):
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 1))
        assert c.dimension == 24 < expected_dimension(P231, 9)
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(2, 1))
        assert c.dimension == 30 < expected_dimension(P231, 13)

    def test_two_step_consistency_examples(self):
        c = ExtensionChain(params=P221, steps=((1, 0), (1, 1)), twists=(1,))
        assert c.degree == 1 == _ref_two_step_degree(P221, 1, 0, 1)
        c = ExtensionChain(params=P321, steps=((1, 0), (1, 1)), twists=(2,))
        assert c.dimension == 11 == _ref_two_step_dimension(P321, 1, 0, 2)

    @given(g=st.integers(2, 5), r=st.integers(2, 6), r1=st.integers(1, 5),
           d1=st.integers(-6, 6), d=st.integers(-6, 6), a=st.integers(1, 4))
    def test_two_step_consistency_property(self, g, r, r1, d1, d, a):
        if r1 >= r:
            return
        p = derive_params(g, r, d)
        if r1 * d - r * d1 <= 0:
            return
        c = ExtensionChain(params=p, steps=((r1, d1), (r - r1, d - d1)), twists=(a,))
        assert c.degree == _ref_two_step_degree(p, r1, d1, a)
        assert c.dimension == _ref_two_step_dimension(p, r1, d1, a)
        assert two_step_chain(p, r1, d1, a) == c

    def test_invariant_violations_rejected(self):
        with pytest.raises(ParameterError):  # slope not increasing
            ExtensionChain(params=P231, steps=((1, 0), (1, 0), (1, 1)), twists=(1, 1))
        with pytest.raises(ParameterError):  # ranks do not sum to r
            ExtensionChain(params=P231, steps=((1, 0), (1, 1)), twists=(1,))
        with pytest.raises(ParameterError):  # degrees do not sum to d
            ExtensionChain(params=P231, steps=((1, 0), (1, 1), (1, 2)), twists=(1, 1))
        with pytest.raises(ParameterError):  # twist below 1
            ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(0, 1))

    def test_checks_fire_in_the_reference_order(self):
        # every chain of up to 3 steps with ranks 0..2, degrees -1..1 and up
        # to 3 twists in 0..2, at r = 3 and d = 0: each is rejected with the
        # message of the reference's first failing check, or accepted by both
        p = derive_params(2, 3, 0)
        side = list(itertools.product(range(3), range(-1, 2)))
        seen = set()
        for n, m in itertools.product(range(4), range(4)):
            for steps, twists in itertools.product(itertools.product(side, repeat=n),
                                                   itertools.product(range(3), repeat=m)):
                want = _rejection(_ref_chain_checks, p, steps, twists)
                assert _rejection(_chain, p, steps, twists) == want, (steps, twists)
                seen.add(want.split(":")[0] if want else None)
        assert seen == {None, "chain needs at least two steps",
                        "need exactly one twist per consecutive pair", "twists must be >= 1",
                        "step ranks must be >= 1", "step ranks must sum to r",
                        "step degrees must sum to d", "slopes must strictly increase"}

    @pytest.mark.parametrize("steps, twists, message", [
        # two checks fail at once: the earlier one names the fault
        ((), (0,), "chain needs at least two steps"),
        (((1, -1), (2, 1)), (), "need exactly one twist per consecutive pair"),
        (((0, -1), (3, 1)), (0,), "twists must be >= 1"),
        (((0, 1), (3, 0)), (1,), "step ranks must be >= 1"),
        (((1, 1), (1, 0)), (1,), "step ranks must sum to r"),
        (((1, 1), (2, 1)), (1,), "step degrees must sum to d"),
        (((1, 1), (1, 0), (1, 0)), (1, 1), "slopes must strictly increase: 1/1 !< 0/1"),
    ])
    def test_each_check_message(self, steps, twists, message):
        for check in (_ref_chain_checks, _chain):
            assert _rejection(check, P231, steps, twists) == message

    def test_numpy_steps_stored_as_int(self):
        c = ExtensionChain(params=P231, steps=np.array([[1, -1], [1, 0], [1, 2]]),
                           twists=np.array([1, 2]))
        assert c.steps == ((1, -1), (1, 0), (1, 2)) and c.twists == (1, 2)
        assert all(type(x) is int for step in c.steps for x in step)
        assert all(type(a) is int for a in c.twists)
        assert c == ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 2))

    def test_certificate_matches_dimension_gap(self):
        c = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 1))
        assert chain_dimension_excess_certificate(c) == 2
        assert c.dimension - expected_dimension(P231, 9) == -2


class TestSplittingPredicate:
    def test_examples(self):
        two = ExtensionChain(params=P221, steps=((1, 0), (1, 1)), twists=(1,))
        assert two.balanced
        twisted = ExtensionChain(params=P221, steps=((1, 0), (1, 1)), twists=(2,))
        assert not twisted.balanced
        long = ExtensionChain(params=P231, steps=((1, -1), (1, 0), (1, 2)),
                              twists=(1, 1))
        assert not long.balanced

    def test_torsion(self):
        assert TorsionDatum(params=P221, t=1, a=1).balanced
        assert not TorsionDatum(params=P221, t=1, a=2).balanced


@st.composite
def _chains(draw):
    """A valid chain: l pieces of rank 1..4 and degree -10..10 put in slope
    order, distinct slopes, twists 1..4 and g 2..5."""
    l = draw(st.integers(2, 6))
    pieces = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(-10, 10)),
                           min_size=l, max_size=l))
    pieces.sort(key=lambda piece: Fraction(piece[1], piece[0]))
    assume(all(d0 * r1 < d1 * r0 for (r0, d0), (r1, d1) in zip(pieces, pieces[1:])))
    twists = draw(st.lists(st.integers(1, 4), min_size=l - 1, max_size=l - 1))
    p = derive_params(draw(st.integers(2, 5)), sum(r for r, _ in pieces),
                      sum(d for _, d in pieces))
    return ExtensionChain(params=p, steps=pieces, twists=twists)


@given(_chains())
def test_chain_values_match_the_reference_loops(c):
    assert c.degree == _ref_chain_degree(c)
    assert c.dimension == _ref_chain_dimension(c)
    assert (c.dimension - expected_dimension(c.params, c.degree)
            == -chain_dimension_excess_certificate(c))
    assert c.balanced == (c.length == 2 and c.twists == (1,))


@given(g=st.integers(2, 4), r=st.integers(2, 5), d=st.integers(-5, 5),
       r1=st.integers(1, 4), d1=st.integers(-5, 5))
def test_twist_one_families_have_expected_dimension(g, r, d, r1, d1):
    if r1 >= r:
        return
    p = derive_params(g, r, d)
    if r1 * d - r * d1 <= 0:
        return
    chain = two_step_chain(p, r1, d1, 1)
    assert chain.dimension == expected_dimension(p, chain.degree)


@given(g=st.integers(2, 4), r=st.integers(2, 5), d=st.integers(-5, 5),
       t=st.integers(1, 4))
def test_twist_one_torsion_has_expected_dimension(g, r, d, t):
    p = derive_params(g, r, d)
    td = TorsionDatum(params=p, t=t, a=1)
    assert td.dimension == expected_dimension(p, td.degree)
