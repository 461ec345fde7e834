import json

import pytest
from hypothesis import given, strategies as st

import modulirc.classifier
from modulirc import (
    ComponentDescriptor,
    ConnectivityResult,
    ConsistencyError,
    ExtensionChain,
    GenericImage,
    Kind,
    MixedDatum,
    ModuliParams,
    ParameterError,
    SegreStratum,
    Status,
    classify,
    derive_params,
    enumerate_candidates,
    enumerate_obstructed_expected,
    enumerate_unobstructed,
    expected_dimension,
    two_step_chain,
)


def _datum(desc):
    return desc.to_dict()["datum"]


class TestUnobstructed:
    def test_ext_example(self):
        p = derive_params(2, 2, 1)
        out = enumerate_unobstructed(p, 1)
        assert len(out) == 1
        assert out[0].kind is Kind.UNOBSTRUCTED_EXT
        assert out[0].dimension == 5
        assert _datum(out[0])["steps"] == [[1, 0], [1, 1]]

    def test_two_solutions(self):
        p = derive_params(2, 4, 2)
        out = enumerate_unobstructed(p, 3)
        assert [_datum(d)["steps"][0] for d in out] == [[1, -1], [3, 0]]

    def test_torsion_branch(self):
        p = derive_params(2, 2, 1)
        out = enumerate_unobstructed(p, 2)
        assert len(out) == 1
        assert out[0].kind is Kind.UNOBSTRUCTED_TORSION
        assert _datum(out[0]) == {"type": "torsion", "t": 1, "a": 1}
        assert out[0].dimension == 7

    @given(g=st.integers(2, 5), r=st.integers(2, 6), d=st.integers(-6, 6),
           k=st.integers(1, 20))
    def test_count_is_h_and_dims_expected(self, g, r, d, k):
        p = derive_params(g, r, d)
        out = enumerate_unobstructed(p, k)
        assert len(out) == p.h
        for desc in out:
            assert desc.dimension == expected_dimension(p, k)
            assert desc.status is Status.PROVED_COMPONENT
            assert desc.generic_image is GenericImage.GENERIC
            assert not desc.obstructed


class TestObstructedExpected:
    def test_anchor(self):
        p = derive_params(2, 2, 1)
        out, _ = enumerate_obstructed_expected(p, 2)
        assert len(out) == 1
        assert _datum(out[0]) == {"type": "chain", "steps": [[1, 0], [1, 1]],
                                  "twists": [2]}
        assert out[0].dimension == 7 == out[0].expected_dim

    def test_twist_one_not_counted(self):
        p = derive_params(2, 2, 1)
        assert enumerate_obstructed_expected(p, 1)[0] == []

    def test_parity_obstruction(self):
        p = derive_params(3, 2, 1)
        assert enumerate_obstructed_expected(p, 4)[0] == []

    def test_divisibility_table_reports_both_readings(self):
        p = derive_params(2, 2, 1)
        _, rows = enumerate_obstructed_expected(p, 1)
        assert len(rows) == 1
        assert rows[0].divides_k and not rows[0].constructive
        assert not rows[0].agree

    def test_divisibility_readings_disagree_as_documented(self):
        # README's third documented discrepancy: the literal reading
        # r1*(r-r1)*(g-1) | k against the constructive test, over its grid
        rows, literal_only, constructive_only = 0, [], []
        for g in range(2, 6):
            for r in range(2, 9):
                for d in range(r):
                    p = derive_params(g, r, d)
                    for k in range(1, 200):
                        for row in enumerate_obstructed_expected(p, k)[1]:
                            rows += 1
                            point = (k, g, r, d, row.r1)
                            if row.divides_k and not row.constructive:
                                literal_only.append(point)
                            elif row.constructive and not row.divides_k:
                                constructive_only.append(point)
        assert (rows, len(literal_only), len(constructive_only)) == (133728, 8356, 2022)
        # as (k, g, r, d, r1): at (2, 2, 0) the divisor 1 divides every k,
        # but 2 does not divide r1*d - divisor = -1; at (2, 4, 0) the divisor
        # 4 does not divide k = 2, but h = 4, so the test builds the twist-2
        # family (2, -1), (2, 1)
        assert min(literal_only) == (1, 2, 2, 0, 1)
        assert min(constructive_only) == (2, 2, 4, 0, 2)
        expected, _ = enumerate_obstructed_expected(derive_params(2, 4, 0), 2)
        assert [_datum(desc) for desc in expected] == [
            {"type": "chain", "steps": [[2, -1], [2, 1]], "twists": [2]}]


class TestCandidates:
    def test_rank_two_proved_component(self):
        p = derive_params(3, 2, 1)
        search = enumerate_candidates(p, 4, max_l=3)
        hits = [d for d in search.descriptors
                if d.kind is Kind.OBSTRUCTED_CANDIDATE]
        assert len(hits) == 1
        desc = hits[0]
        assert _datum(desc)["twists"] == [4]
        assert desc.dimension == 17 > desc.expected_dim == 14
        assert desc.generic_image is GenericImage.NON_GENERIC
        assert desc.status is Status.PROVED_COMPONENT

    def test_three_step_chain_found(self):
        # the same chain is a candidate at g = 4 and below the expected
        # dimension at g = 2, where the search does not list it
        steps, twists = ((1, -1), (1, 0), (1, 2)), (1, 1)
        for g, kind, dim, exp in ((4, Kind.OBSTRUCTED_CANDIDATE, 42, 42),
                                  (2, Kind.NOT_COMPONENT, 24, 26)):
            p = derive_params(g, 3, 1)
            search = enumerate_candidates(p, 9, max_l=3)
            assert not search.reasons
            desc = ComponentDescriptor(
                datum=ExtensionChain(params=p, steps=steps, twists=twists), k=9)
            assert (desc.kind, desc.dimension, desc.expected_dim) == (kind, dim, exp)
            assert (desc in search.descriptors) == (kind is Kind.OBSTRUCTED_CANDIDATE)
        assert desc.status is Status.PROVED_NOT_COMPONENT

    def test_equality_case_routed_to_obstructed_expected(self):
        p = derive_params(2, 2, 1)
        search = enumerate_candidates(p, 2, max_l=2)
        assert all(_datum(d)["twists"] != [2] or _datum(d)["steps"] != [[1, 0], [1, 1]]
                   for d in search.descriptors)
        assert len(enumerate_obstructed_expected(p, 2)[0]) == 1

    def test_incomplete_flag(self, monkeypatch):
        p = derive_params(2, 3, 1)
        monkeypatch.setattr(modulirc.classifier, "WORK_BUDGET", 30)
        search = enumerate_candidates(p, 9, max_l=3)
        assert search.reasons == ["candidate-search-incomplete: work budget "
                                  "of 30 units spent"]
        assert search.work > 30

    def test_bound_that_cuts_nothing_is_complete(self, monkeypatch):
        # at (2, 3, 1, 3) no chain of length 3 has degree hk = 3, so a max_l
        # of 3 cuts nothing; at (2, 3, 5, 10) neither does a budget of
        # exactly the search's work
        short = enumerate_candidates(derive_params(2, 3, 1), 3, max_l=3)
        assert short.longest_l == 2 and not short.reasons
        p = derive_params(2, 3, 5)
        full = enumerate_candidates(p, 10, max_l=3)
        assert not full.reasons and full.work < modulirc.classifier.WORK_BUDGET
        monkeypatch.setattr(modulirc.classifier, "WORK_BUDGET", full.work)
        assert enumerate_candidates(p, 10, max_l=3) == full

    def test_short_max_l_incomplete(self):
        # chains of length up to 5 can have degree hk = 30 >= C(6, 3)
        p = derive_params(3, 5, -4)
        short = enumerate_candidates(p, 30, max_l=3)
        assert short.longest_l == 5
        assert short.reasons == ["candidate-search-incomplete: max_l=3 below "
                                 "longest feasible chain length 5"]
        longer = enumerate_candidates(p, 30, max_l=4)
        assert any(len(_datum(d).get("steps", ())) == 4 for d in longer.descriptors)

    def test_max_l_beyond_longest_chain_searches_no_further(self):
        search = enumerate_candidates(derive_params(2, 2, 1), 1, max_l=10**12)
        assert search.longest_l == 2 and not search.reasons

    def test_mixed_flag(self):
        p = derive_params(2, 2, 2)
        search = enumerate_candidates(p, 2, max_l=2, include_mixed=True)
        mixed = [d for d in search.descriptors if _datum(d)["type"] == "mixed"]
        assert mixed
        for d in mixed:
            assert d.kind is Kind.NOT_COMPONENT
            assert d.status is Status.PROVED_NOT_COMPONENT
            assert d.dimension < d.expected_dim


class TestClassify:
    def test_merge_counts(self):
        p = derive_params(2, 2, 1)
        report = classify(p, 2)
        assert report.totals["EXPECTED_DIM_COMPONENTS"] == 2
        report = classify(p, 1)
        assert report.totals["EXPECTED_DIM_COMPONENTS"] == 1

    def test_full_pipeline_r5(self):
        p = derive_params(2, 5, 2)
        report = classify(p, 1)
        assert p.h == 1
        assert report.totals["UNOBSTRUCTED_EXT"] + \
            report.totals["UNOBSTRUCTED_TORSION"] == 1
        assert len(report.thm_b) == 4

    def test_deterministic_and_duplicate_free(self):
        p = derive_params(2, 4, 2)
        a = classify(p, 6, include_candidates=True, max_l=4)
        b = classify(p, 6, include_candidates=True, max_l=4)
        assert a.to_dict() == b.to_dict()
        keys = [json.dumps(d.to_dict(), sort_keys=True) for d in a.descriptors]
        assert len(keys) == len(set(keys))

    def test_no_component_label_below_expected(self):
        for k in range(1, 12):
            p = derive_params(2, 3, 1)
            report = classify(p, k, include_candidates=True, max_l=4)
            for desc in report.descriptors:
                if desc.dimension < desc.expected_dim:
                    assert desc.status is not Status.PROVED_COMPONENT

    def test_k_bounds(self):
        # the enumerators check k as classify does: at k 0 the thmB table
        # would read "dividesK" at every r1, and k -1 would fail inside max()
        p = derive_params(2, 3, 1)
        for fn in (classify, enumerate_unobstructed, enumerate_obstructed_expected,
                   enumerate_candidates):
            for k in (-4, -1, 0, 10**6 + 1):
                with pytest.raises(ParameterError, match="k must lie in"):
                    fn(p, k)


class TestDerivedValues:
    """Each value type takes its independent inputs; the rest is computed."""

    def test_fields_are_the_independent_inputs(self):
        assert ComponentDescriptor._fields == ("datum", "k")
        assert ModuliParams._fields == ("g", "r", "d")
        assert SegreStratum._fields == ("params", "r_prime", "s")
        assert len(ConnectivityResult._fields) == 5

    def test_descriptor_computes_kind_and_dimensions(self):
        # a twist-1 two-step chain of degree 1 at (2, 3, 1)
        chain = two_step_chain(derive_params(2, 3, 1), 1, 0, 1)
        desc = ComponentDescriptor(datum=chain, k=1)
        assert desc.kind is Kind.UNOBSTRUCTED_EXT
        assert desc.dimension == desc.expected_dim == expected_dimension(chain.params, 1)

    def test_datum_of_another_degree_rejected(self):
        chain = two_step_chain(derive_params(2, 3, 1), 1, 0, 1)
        with pytest.raises(ConsistencyError, match="has degree 1, not k = 999"):
            ComponentDescriptor(datum=chain, k=999)

    def test_old_five_field_construction_rejected(self):
        chain = two_step_chain(derive_params(2, 3, 1), 1, 0, 1)
        with pytest.raises(TypeError):
            ComponentDescriptor(kind=Kind.OBSTRUCTED_CANDIDATE, datum=chain, k=999,
                                dimension=1, expected_dim=0)
        with pytest.raises(TypeError):
            ModuliParams(g=2, r=3, d=1, h=3, r_bar=1, d_bar=0, dim_m=8, fano_index=6)

    def test_twist_one_dimension_checked(self):
        chain = two_step_chain(derive_params(2, 3, 1), 1, 0, 1)
        # a wrong dimension formula, injected into the datum's derived value
        object.__setattr__(chain, "dimension", chain.dimension + 1)
        with pytest.raises(ConsistencyError, match="twist-1 family"):
            ComponentDescriptor(datum=chain, k=1)

    def test_mixed_dimension_checked(self):
        p = derive_params(2, 2, 2)
        datum = MixedDatum(params=p, r1=1, d1=0, t=1)
        k = datum.degree
        assert ComponentDescriptor(datum=datum, k=k).kind is Kind.NOT_COMPONENT
        object.__setattr__(datum, "dimension", expected_dimension(p, k))
        with pytest.raises(ConsistencyError, match="mixed family"):
            ComponentDescriptor(datum=datum, k=k)

    def test_params_derived(self):
        p = ModuliParams(g=2, r=4, d=2)
        assert p.h == 2 and p.fano_index == 4
        assert (p.r_bar, p.d_bar, p.dim_m) == (2, 1, 15)
        assert p == derive_params(2, 4, 2)
