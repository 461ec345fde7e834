import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modulirc import (
    ExtensionChain,
    MixedDatum,
    ModuliParams,
    ParameterError,
    TorsionDatum,
    classify,
    derive_params,
    enumerate_candidates,
    expected_dimension,
    min_connecting_degree,
    solve_dioph,
    stratum_codimension,
)
from modulirc.oracle import VerificationReport
from modulirc.params import Record


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


@pytest.mark.parametrize("name,args", [("g", ("2", 3, 1)), ("r", (2, "3", 1)),
                                       ("d", (2, 3, "1")), ("g", (None, 3, 1))])
def test_derive_params_checks_integers_before_ranges(name, args):
    # a range check on a string or None would raise a bare TypeError
    with pytest.raises(ParameterError, match=f"^{name} must be an integer, got "):
        derive_params(*args)


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


# the value types derive from Record; a frozen keyword-only dataclass with the
# same fields, none defaulted, is the oracle for construction, equality, hash,
# repr and immutability

def _samples():
    """Two unequal instances of each value type, from the package itself."""
    p, q = derive_params(2, 3, 1), derive_params(2, 4, 2)
    report, other = classify(p, 9, include_candidates=True), classify(p, 10)
    pairs = [
        (p, q),
        (ExtensionChain(params=p, steps=((1, -1), (1, 0), (1, 2)), twists=(1, 2)),
         ExtensionChain(params=p, steps=((1, -1), (1, 0), (1, 2)), twists=(2, 1))),
        (TorsionDatum(params=p, t=1, a=1), TorsionDatum(params=p, t=2, a=3)),
        (MixedDatum(params=p, r1=1, d1=-2, t=1), MixedDatum(params=p, r1=1, d1=-3, t=2)),
        (stratum_codimension(p, 1, 1), stratum_codimension(p, 1, 4)),
        (min_connecting_degree(p), min_connecting_degree(q)),
        tuple(report.descriptors[:2]),
        tuple(report.thm_b),
        (report.candidate_search, enumerate_candidates(p, 9, max_l=2)),
        (report, other),
        (VerificationReport(suite="a", trials=2, failures=1, counterexamples=[[1]], notes=""),
         VerificationReport(suite="a", trials=2, failures=0, counterexamples=[],
                            notes="n")),
    ]
    return {type(first).__name__: (first, second) for first, second in pairs}


VALUE_TYPES = ("ModuliParams", "ExtensionChain", "TorsionDatum", "MixedDatum",
               "SegreStratum", "ConnectivityResult", "ComponentDescriptor", "ThmBRow",
               "CandidateSearch", "ClassificationReport", "VerificationReport")


def _twin(cls):
    fields = list(cls.__annotations__.items())
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, kw_only=True)


def _sibling(cls):
    """Another Record type with the same fields."""
    return type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})


def _outcome(fn):
    """The repr of what fn returns, or the kind of error it raises."""
    try:
        return repr(fn())
    except TypeError:
        return TypeError
    except AttributeError:  # a frozen dataclass raises a subclass
        return AttributeError


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_record_agrees_with_frozen_dataclass(name):
    samples = _samples()
    assert tuple(samples) == VALUE_TYPES
    first, second = samples[name]
    cls, twin = type(first), _twin(type(first))
    assert cls.__name__ == twin.__name__ and cls is not twin
    fields = list(cls.__annotations__)
    a, b = ({f: getattr(x, f) for f in fields} for x in (first, second))
    another = next(pair[0] for key, pair in samples.items() if key != name)
    cases = {
        "keyword": lambda c: c(**a),
        "positional": lambda c: c(*a.values()),
        "mixed": lambda c: c(a[fields[0]], **{f: a[f] for f in fields[1:]}),
        "missing": lambda c: c(**{f: a[f] for f in fields[1:]}),
        "unknown": lambda c: c(**a, bogus=1),
        "duplicated": lambda c: c(a[fields[0]], **a),
        "too many": lambda c: c(*a.values(), 0),
        "equal": lambda c: (c(**a) == c(**a), c(**a) != c(**a)),
        "unequal": lambda c: (c(**a) == c(**b), c(**a) != c(**b)),
        "other type": lambda c: (c(**a) == another, c(**a) == a),
        "hash": lambda c: hash(c(**a)),
        "hash unequal": lambda c: hash(c(**a)) == hash(c(**b)),
        "assign field": lambda c: setattr(c(**a), fields[0], 0),
        "assign other": lambda c: setattr(c(**a), "extra", 0),
        "delete field": lambda c: delattr(c(**a), fields[-1]),
    }
    for label, case in cases.items():
        assert _outcome(lambda: case(cls)) == _outcome(lambda: case(twin)), label
    # instances of two types with the same fields are never equal
    for c, other in ((cls, _sibling(cls)), (twin, _twin(cls)), (cls, twin), (twin, cls)):
        assert c(**a) != other(**a)
    assert repr(cls(**a)) == repr(first)
    assert cls(**a) == first != second


def test_record_runs_post_init_at_call_time(monkeypatch):
    p = derive_params(2, 3, 1)
    for steps, twists in ((((1, 1), (1, 0), (1, 0)), (1, 1)), (((1, -1), (2, 2)), ())):
        with pytest.raises(ParameterError):
            ExtensionChain(params=p, steps=steps, twists=twists)
    calls = []
    check = ExtensionChain.__post_init__
    monkeypatch.setattr(ExtensionChain, "__post_init__",
                        lambda self: calls.append(check(self)))
    ExtensionChain(params=p, steps=[[1, -1], [2, 2]], twists=[1])
    ExtensionChain(params=p, steps=((1, -1), (2, 2)), twists=(1,))
    assert len(calls) == 2


def test_integer_fields_reject_non_integers():
    # a float is not rounded, nor a string parsed: the error names the field
    p = derive_params(2, 3, 1)
    cases = {
        "steps": lambda: ExtensionChain(params=p, steps=((1.9, -1), (2, 2)), twists=(1.5,)),
        "twists": lambda: ExtensionChain(params=p, steps=((1, -1), (2, 2)), twists=(1.5,)),
        "d1": lambda: MixedDatum(params=p, r1=1, d1=-2.0, t=1),
        "t": lambda: TorsionDatum(params=p, t=2.0, a=1),
        "a": lambda: TorsionDatum(params=p, t=2, a="1"),
        "g": lambda: derive_params(2.0, 3, 1),
        "d": lambda: ModuliParams(g=2, r=3, d=1.0),
    }
    for name, build in cases.items():
        with pytest.raises(ParameterError, match=f"^{name} must be an integer, got "):
            build()
    # any integer type is taken, and stored as a plain int
    one = np.int64(1)
    values = [ModuliParams(g=np.int64(2), r=3, d=one),
              ExtensionChain(params=p, steps=((one, -1), (2, np.int32(2))), twists=(one,)),
              TorsionDatum(params=p, t=one, a=True),
              MixedDatum(params=p, r1=one, d1=np.int16(-2), t=one)]
    assert values == [p, ExtensionChain(params=p, steps=((1, -1), (2, 2)), twists=(1,)),
                      TorsionDatum(params=p, t=1, a=1), MixedDatum(params=p, r1=1, d1=-2, t=1)]
    params, chain, torsion, mixed = values
    plain = [params.g, params.d, *(x for step in chain.steps for x in step), *chain.twists,
             torsion.t, torsion.a, mixed.r1, mixed.d1, mixed.t]
    assert {type(x) for x in plain} == {int}
