import json

import pytest
from hypothesis import given, strategies as st

from modulirc import (
    ClassificationReport,
    GenericImage,
    Kind,
    ParameterError,
    Status,
    classify,
    derive_params,
    enumerate_candidates,
    enumerate_obstructed_expected,
    enumerate_unobstructed,
    expected_dimension,
)


def _datum(desc):
    return desc.to_dict()["datum"]


# (path, value) edits of the (g, r, d, k) = (2, 3, 1, 9) report searched at
# deg_bound 2, each of which contradicts what the report's inputs determine
_CONTRADICTIONS = {
    "not-component-relabelled": [(("descriptors", 2, "kind"), "OBSTRUCTED_CANDIDATE"),
                                 (("descriptors", 2, "dimension"), 99),
                                 (("descriptors", 2, "genericImage"), "NON_GENERIC"),
                                 (("descriptors", 2, "status"), "CANDIDATE")],
    "dimension-lowered": [(("descriptors", 2, "dimension"), 23)],
    "descriptor-k": [(("descriptors", 1, "k"), 10)],
    "torsion-wrong-degree": [(("descriptors", 0, "datum", "t"), 4)],
    "totals": [(("totals", "NOT_COMPONENT"), 2)],
    "warnings-emptied": [(("warnings",), [])],
    "thmb-divisor": [(("thmB", 0, "divisor"), 99)],
    "thmb-both-readings": [(("thmB", 0, "dividesK"), True),
                           (("thmB", 0, "constructive"), True)],
    "search-complete": [(("candidateSearch", "incomplete"), False)],
    "analytic-bound": [(("candidateSearch", "analyticBound"), 3)],
    "params-h": [(("params", "h"), 3)],
    "unknown-key": [(("extra",), None)],
}


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
        p = derive_params(2, 3, 1)
        search = enumerate_candidates(p, 9, max_l=3)
        assert not search.incomplete
        chains = [d for d in search.descriptors
                  if _datum(d)["type"] == "chain" and len(_datum(d)["steps"]) == 3]
        target = [d for d in chains
                  if _datum(d)["steps"] == [[1, -1], [1, 0], [1, 2]]
                  and _datum(d)["twists"] == [1, 1]]
        assert len(target) == 1
        assert target[0].kind is Kind.NOT_COMPONENT
        assert target[0].dimension == 24 < target[0].expected_dim == 26
        assert target[0].status is Status.PROVED_NOT_COMPONENT

    def test_equality_case_routed_to_obstructed_expected(self):
        p = derive_params(2, 2, 1)
        search = enumerate_candidates(p, 2, max_l=2)
        assert all(_datum(d)["twists"] != [2] or _datum(d)["steps"] != [[1, 0], [1, 1]]
                   for d in search.descriptors)
        assert len(enumerate_obstructed_expected(p, 2)[0]) == 1

    def test_incomplete_flag(self):
        p = derive_params(2, 3, 1)
        search = enumerate_candidates(p, 9, max_l=3, deg_bound=2)
        assert search.incomplete

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

    def test_round_trip(self):
        p = derive_params(2, 3, 1)
        report = classify(p, 9, include_candidates=True, max_l=3)
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = ClassificationReport.from_dict(data)
        assert rebuilt.to_dict() == report.to_dict()

    def test_from_dict_rejects_labels_contradicting_kind(self):
        p = derive_params(2, 2, 1)
        data = json.loads(json.dumps(classify(p, 1).to_dict()))
        desc = data["descriptors"][0]
        assert desc["kind"] == "UNOBSTRUCTED_EXT"
        desc["genericImage"], desc["status"] = "UNKNOWN", "CANDIDATE"
        with pytest.raises(ParameterError, match="contradicts"):
            ClassificationReport.from_dict(data)

    @pytest.mark.parametrize("edits", _CONTRADICTIONS.values(),
                             ids=_CONTRADICTIONS)
    def test_from_dict_rejects_contradicting_json(self, edits):
        p = derive_params(2, 3, 1)
        report = classify(p, 9, include_candidates=True, deg_bound=2)
        data = json.loads(json.dumps(report.to_dict()))
        assert [d["kind"] for d in data["descriptors"]] == [
            "UNOBSTRUCTED_TORSION", "OBSTRUCTED_CANDIDATE", "NOT_COMPONENT"]
        assert data["descriptors"][0]["datum"]["t"] == 3
        assert data["descriptors"][2]["dimension"] == 24
        assert not data["thmB"][0]["dividesK"] and not data["thmB"][0]["constructive"]
        assert data["candidateSearch"]["incomplete"] and data["params"]["h"] == 1
        for path, value in edits:
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        with pytest.raises(ParameterError):
            ClassificationReport.from_dict(data)

    def test_from_dict_rejects_agree_contradicting_readings(self):
        p = derive_params(3, 2, 1)
        data = json.loads(json.dumps(classify(p, 4).to_dict()))
        row = data["thmB"][0]
        assert row["dividesK"] != row["constructive"] and not row["agree"]
        row["agree"] = True
        with pytest.raises(ParameterError, match="contradicts"):
            ClassificationReport.from_dict(data)
