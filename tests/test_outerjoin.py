"""Unit tests for outerjoin materialization, incl. Figure 6 reproduction."""

import pytest

from repro.core.decompose import attributes_needed
from repro.errors import MappingError
from repro.integration.mapping import MappingCatalog
from repro.integration.outerjoin import IntegrationStats, integrate_class, materialize
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.values import MultiValue, NULL
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def full_exports(system, class_names):
    """Ship whole extents (all attributes) from every site."""
    exports = {}
    for class_name in class_names:
        per_db = {}
        for db_name, db in system.databases.items():
            local = system.global_schema.constituent_class(db_name, class_name)
            if local is None:
                continue
            per_db[db_name] = list(db.extent(local).values())
        exports[class_name] = per_db
    return exports


@pytest.fixture()
def school_extent(school):
    classes = ("Student", "Teacher", "Department", "Address")
    exports = full_exports(school, classes)
    return materialize(
        classes, school.global_schema, school.catalog, exports
    )


class TestFigure6:
    """The materialized global classes match the paper's Figure 6."""

    def test_john_merges_age_and_address(self, school_extent):
        john = school_extent.extent("Student")[GOid("gs1")]
        assert john.get("s-no") == 804301
        assert john.get("name") == "John"
        assert john.get("age") == 31            # from DB1
        assert john.get("sex") == "male"        # DB1 null, DB2 provides
        assert john.get("address") == GOid("ga2")  # LOid a2' translated
        assert john.get("advisor") == GOid("gt1")

    def test_tony_keeps_missing_address(self, school_extent):
        tony = school_extent.extent("Student")[GOid("gs2")]
        assert tony.get("address") is NULL
        assert tony.get("advisor") == GOid("gt3")

    def test_hedy(self, school_extent):
        hedy = school_extent.extent("Student")[GOid("gs4")]
        assert hedy.get("address") == GOid("ga1")
        assert hedy.get("advisor") == GOid("gt4")
        assert hedy.get("age") is NULL  # nobody stores Hedy's age

    def test_teachers(self, school_extent):
        teachers = school_extent.extent("Teacher")
        jeffery = teachers[GOid("gt1")]
        assert jeffery.get("department") == GOid("gd1")
        assert jeffery.get("speciality") == "network"
        abel = teachers[GOid("gt2")]
        assert abel.get("department") == GOid("gd2")  # from DB3 (EE)
        assert abel.get("speciality") is NULL
        haley = teachers[GOid("gt3")]
        assert haley.get("speciality") is NULL
        kelly = teachers[GOid("gt4")]
        assert kelly.get("department") == GOid("gd1")  # CS via DB3
        assert kelly.get("speciality") == "database"

    def test_every_object_appears(self, school_extent):
        # Outer join: entities with a single copy still materialize.
        assert len(school_extent.extent("Student")) == 5
        assert len(school_extent.extent("Teacher")) == 4
        assert len(school_extent.extent("Department")) == 3
        assert len(school_extent.extent("Address")) == 2

    def test_sources_recorded(self, school_extent):
        john = school_extent.extent("Student")[GOid("gs1")]
        assert set(john.sources) == {LOid("DB1", "s1"), LOid("DB2", "s2'")}


class TestGlobalExtent:
    def test_deref(self, school_extent):
        assert school_extent.deref(GOid("gs1")).get("name") == "John"
        assert school_extent.deref(GOid("nope")) is None
        assert school_extent.deref(LOid("DB1", "s1")) is None

    def test_classes_and_len(self, school_extent):
        assert set(school_extent.classes()) == {
            "Student", "Teacher", "Department", "Address",
        }
        assert len(school_extent) == 14


class TestIntegrationMechanics:
    def test_stats_counted(self, school):
        stats = IntegrationStats()
        exports = full_exports(school, ("Student",))
        integrate_class(
            "Student", school.global_schema, school.catalog,
            exports["Student"], stats,
        )
        assert stats.objects_in == 6
        assert stats.objects_out == 5
        assert stats.translations > 0
        assert stats.comparisons >= stats.objects_in

    def test_unmapped_object_rejected(self, school):
        from repro.objectdb.objects import LocalObject

        ghost = LocalObject(LOid("DB1", "ghost"), "Student", {"name": "?"})
        with pytest.raises(MappingError):
            integrate_class(
                "Student", school.global_schema, school.catalog,
                {"DB1": [ghost]},
            )

    def test_dangling_reference_becomes_null(self, school):
        from repro.objectdb.objects import LocalObject

        # s9 references a teacher that was never catalogued.
        db1 = school.db("DB1")
        obj = LocalObject(
            LOid("DB1", "s1"), "Student",
            {"s-no": 1, "advisor": LOid("DB1", "phantom")},
        )
        integrated = integrate_class(
            "Student", school.global_schema, school.catalog, {"DB1": [obj]}
        )
        goid = school.catalog.goid_of("Student", LOid("DB1", "s1"))
        assert integrated[goid].get("advisor") is NULL

    def test_projected_exports_match_attributes_needed(self, school):
        query = parse_query(Q1_TEXT)
        needed = attributes_needed(query, school.global_schema, "Student")
        assert "name" in needed and "address" in needed and "advisor" in needed
        assert "s-no" in needed  # key rides along
        assert "sex" not in needed


class TestMultiValuedMerge:
    def test_collects_distinct_values(self):
        """A multi-valued attribute merges contributions across sites."""
        from repro.integration.global_schema import ClassCorrespondence, integrate_schemas
        from repro.integration.isomerism import table_from_correspondences
        from repro.objectdb.database import ComponentDatabase
        from repro.objectdb.objects import LocalObject
        from repro.objectdb.schema import ClassDef, ComponentSchema, primitive

        schemas = {}
        dbs = {}
        for name, phone in (("DB1", "111"), ("DB2", "222")):
            cs = ComponentSchema.of(
                name, [ClassDef.of("P", [primitive("k"), primitive("phone")])]
            )
            db = ComponentDatabase(cs)
            db.insert(LocalObject(LOid(name, "p"), "P", {"k": 1, "phone": phone}))
            schemas[name] = cs
            dbs[name] = db
        gs = integrate_schemas(
            schemas,
            [ClassCorrespondence.of(
                "P", [("DB1", "P"), ("DB2", "P")], "k",
                multi_valued_attributes=["phone"],
            )],
        )
        catalog = MappingCatalog()
        catalog.register(table_from_correspondences(
            "P", [(GOid("g1"), [LOid("DB1", "p"), LOid("DB2", "p")])]
        ))
        integrated = integrate_class(
            "P", gs, catalog,
            {n: list(db.extent("P").values()) for n, db in dbs.items()},
        )
        assert integrated[GOid("g1")].get("phone") == MultiValue(["111", "222"])


class TestSiteExports:
    """The typed per-site accessor replacing the old untyped .get hole."""

    def test_missing_site_yields_empty_tuple(self):
        from repro.integration.outerjoin import SiteExports

        exports = SiteExports({"DB1": []})
        assert exports.for_db("DB1") == ()
        assert exports.for_db("DB9") == ()  # absent site, typed empty

    def test_values_materialized_and_reiterable(self):
        from repro.integration.outerjoin import SiteExports
        from repro.objectdb.objects import LocalObject

        obj = LocalObject(LOid("DB1", "s1"), "Student", {"s-no": 1})
        exports = SiteExports({"DB1": iter([obj])})  # consumed-once input
        assert exports.for_db("DB1") == (obj,)
        assert exports.for_db("DB1") == (obj,)  # re-iterable

    def test_mapping_protocol(self):
        from repro.integration.outerjoin import SiteExports

        exports = SiteExports({"DB1": [], "DB2": []})
        assert set(exports) == {"DB1", "DB2"}
        assert len(exports) == 2
        assert exports["DB1"] == ()
        with pytest.raises(KeyError):
            exports["DB9"]

    def test_coerce_is_identity_on_wrapped(self):
        from repro.integration.outerjoin import SiteExports

        wrapped = SiteExports({"DB1": []})
        assert SiteExports.coerce(wrapped) is wrapped
        assert isinstance(SiteExports.coerce({"DB1": []}), SiteExports)


class TestBatchedMergeParity:
    """The merge against literals recorded from the per-object merge it
    replaced (the last commit that had both gave these on either)."""

    STUDENTS = {
        "gs1": (
            {"s-no": 804301, "name": "John", "age": 31,
             "advisor": GOid("gt1"), "sex": "male", "address": GOid("ga2")},
            (LOid("DB1", "s1"), LOid("DB2", "s2'")),
        ),
        "gs2": (
            {"s-no": 798302, "name": "Tony", "age": 28,
             "advisor": GOid("gt3"), "sex": "male"},
            (LOid("DB1", "s2"),),
        ),
        "gs3": (
            {"s-no": 808301, "name": "Mary", "age": 24,
             "advisor": GOid("gt2"), "sex": "female"},
            (LOid("DB1", "s3"),),
        ),
        "gs4": (
            {"s-no": 762315, "name": "Hedy", "advisor": GOid("gt4"),
             "sex": "female", "address": GOid("ga1")},
            (LOid("DB2", "s1'"),),
        ),
        "gs5": (
            {"s-no": 828307, "name": "Fanny", "advisor": GOid("gt1"),
             "sex": "female", "address": GOid("ga1")},
            (LOid("DB2", "s3'"),),
        ),
    }

    def test_school_objects_identical(self, school):
        exports = full_exports(school, ("Student",))["Student"]
        stats = IntegrationStats()
        integrated = integrate_class(
            "Student", school.global_schema, school.catalog, exports, stats
        )
        assert [goid.value for goid in integrated] == list(self.STUDENTS)
        for goid, obj in integrated.items():
            values, sources = self.STUDENTS[goid.value]
            assert list(obj.values.items()) == list(values.items())
            assert obj.sources == sources
            assert obj.class_name == "Student"
        assert stats == IntegrationStats(
            objects_in=6, objects_out=5, comparisons=14, translations=8
        )

    def test_non_reference_value_raises_identically(self, school):
        from repro.objectdb.objects import LocalObject

        bad = LocalObject(
            LOid("DB1", "s1"), "Student", {"s-no": 1, "advisor": 42}
        )
        with pytest.raises(MappingError) as err:
            integrate_class(
                "Student", school.global_schema, school.catalog,
                {"DB1": [bad]},
            )
        assert str(err.value) == (
            "complex attribute holds non-reference value 42"
        )

    def test_materialize_school_extents(self, school):
        classes = ("Student", "Teacher", "Department", "Address")
        stats = IntegrationStats()
        extent = materialize(
            classes, school.global_schema, school.catalog,
            full_exports(school, classes), stats,
        )
        assert stats == IntegrationStats(
            objects_in=20, objects_out=14, comparisons=32, translations=12
        )
        merged = {
            name: {g.value: o.values for g, o in extent.extent(name).items()}
            for name in classes
        }
        assert merged == {
            "Student": {
                goid: values for goid, (values, _) in self.STUDENTS.items()
            },
            "Teacher": {
                "gt1": {"name": "Jeffery", "department": GOid("gd1"),
                        "speciality": "network"},
                "gt2": {"name": "Abel", "department": GOid("gd2")},
                "gt3": {"name": "Haley", "department": GOid("gd1")},
                "gt4": {"name": "Kelly", "department": GOid("gd1"),
                        "speciality": "database"},
            },
            "Department": {
                "gd1": {"name": "CS"},
                "gd2": {"name": "EE", "location": "building E"},
                "gd3": {"name": "PH", "location": "building D"},
            },
            "Address": {
                "ga1": {"city": "Taipei", "street": "Park", "zipcode": 100},
                "ga2": {"city": "HsinChu", "street": "Horber",
                        "zipcode": 800},
            },
        }
