"""Unit tests for the federation consistency auditor."""

import pytest

from helpers import make_workload
from repro.integration.validate import check_federation
from repro.objectdb.ids import LOid
from repro.objectdb.objects import LocalObject
from repro.objectdb.values import NULL
from repro.workload.paper_example import build_school_federation


class TestCleanFederations:
    def test_school_is_clean(self, school):
        report = check_federation(school)
        assert report.ok, [str(f) for f in report.findings]
        assert report.warnings == []
        assert report.objects_audited == 20  # all Figure 4 objects

    @pytest.mark.parametrize(
        "multi_valued_targets", [False, True],
        ids=["multi_valued_targets=False", "multi_valued_targets=True"],
    )
    def test_generated_is_clean(self, multi_valued_targets):
        """Copies of a multi-valued global attribute hold their own
        values by design (integration unions them): no disagreement."""
        workload = make_workload(
            seed=17, scale=0.03, multi_valued_targets=multi_valued_targets
        )
        report = check_federation(workload.system)
        assert report.ok, [str(f) for f in report.findings[:5]]
        assert report.warnings == []
        assert report.objects_audited > 0

    def test_summary(self, school):
        report = check_federation(school)
        assert "20 objects audited" in report.summary()
        assert "0 error(s)" in report.summary()


class TestDetections:
    def test_dangling_reference(self, school):
        school.db("DB1").get(LOid("DB1", "s1")).values["advisor"] = LOid(
            "DB1", "ghost"
        )
        report = check_federation(school)
        assert not report.ok
        assert any(f.category == "reference" for f in report.errors)

    def test_wrong_domain_reference(self, school):
        # advisor points at a Department instead of a Teacher.
        school.db("DB1").get(LOid("DB1", "s1")).values["advisor"] = LOid(
            "DB1", "d1"
        )
        report = check_federation(school)
        assert any("declared Teacher" in f.message for f in report.errors)

    def test_schema_violation(self, school):
        school.db("DB1").get(LOid("DB1", "s1")).values["bogus"] = 1
        report = check_federation(school)
        assert any(f.category == "schema" for f in report.errors)

    def test_uncatalogued_object(self, school):
        school.db("DB1").insert(
            LocalObject(LOid("DB1", "s99"), "Student",
                        {"s-no": 1, "name": "Ghost"})
        )
        report = check_federation(school)
        assert any(
            f.category == "catalog" and "no GOid" in f.message
            for f in report.errors
        )

    def test_catalog_pointing_nowhere(self, school):
        from repro.objectdb.ids import GOid

        school.catalog.table("Student").add(
            GOid("gs99"), LOid("DB1", "nothing")
        )
        report = check_federation(school)
        assert any(
            "no such object is stored" in f.message for f in report.errors
        )

    def test_replica_disagreement_is_warning(self, school):
        # John's name differs between DB1 and DB2.
        school.db("DB2").get(LOid("DB2", "s2'")).values["name"] = "Jon"
        report = check_federation(school)
        assert report.ok  # warnings only
        assert any(f.category == "consistency" for f in report.warnings)

    def test_max_findings_cap(self, school):
        for i in range(30):
            school.db("DB1").insert(
                LocalObject(LOid("DB1", f"sx{i}"), "Student", {"s-no": i})
            )
        report = check_federation(school, max_findings=5)
        assert len(report.findings) <= 6


class TestNullsAreFine:
    def test_nulls_never_flagged(self, school):
        for obj in school.db("DB1").extent("Teacher").values():
            obj.values["department"] = NULL
        report = check_federation(school)
        assert report.ok
