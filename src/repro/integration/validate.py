"""Federation consistency checking.

:func:`check_federation` audits a :class:`~repro.core.system
.DistributedSystem` for the invariants the query strategies silently
rely on, and returns a structured report instead of failing midway
through a query:

* **schema conformance** — every stored object matches its class
  definition (types of attribute values, declared attributes only);
* **referential integrity** — every non-null complex attribute points at
  an existing local object of the declared domain class;
* **catalog coverage** — every stored object of an integrated class has
  a GOid, and every catalog entry points at a stored object;
* **replica value consistency** — isomeric copies never disagree on a
  shared non-null single-valued primitive attribute (the
  no-inconsistency assumption under which CA/BL/PL equivalence holds;
  violations are reported as warnings, not errors).  A global attribute
  declared multi-valued is exempt: integration unions its copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ObjectStoreError
from repro.objectdb.ids import LOid
from repro.objectdb.values import MultiValue, is_null


@dataclass(frozen=True)
class Finding:
    """One audit finding."""

    severity: str  # "error" | "warning"
    category: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.category}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of one federation audit."""

    findings: List[Finding] = field(default_factory=list)
    objects_audited: int = 0

    def add(self, severity: str, category: str, message: str) -> None:
        self.findings.append(Finding(severity, category, message))

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return (
            f"{self.objects_audited} objects audited: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )


def check_federation(system, max_findings: int = 200) -> AuditReport:
    """Audit *system*; see module docstring for the checked invariants."""
    report = AuditReport()

    def room() -> bool:
        return len(report.findings) < max_findings

    # --- per-site checks ------------------------------------------------
    for db_name, db in system.databases.items():
        for class_name in db.schema.class_names:
            cdef = db.schema.cls(class_name)
            for loid, obj in db.extent(class_name).items():
                report.objects_audited += 1
                if not room():
                    return report
                # Schema conformance.
                try:
                    obj.validate_against(cdef)
                except ObjectStoreError as exc:
                    report.add("error", "schema", str(exc))
                # Referential integrity.
                for attr in cdef.complex_attributes():
                    value = obj.get(attr.name)
                    if is_null(value):
                        continue
                    refs = list(value) if isinstance(value, MultiValue) else [value]
                    for ref in refs:
                        if not isinstance(ref, LOid):
                            continue  # schema check reported already
                        target = db.get(ref)
                        if target is None:
                            report.add(
                                "error", "reference",
                                f"{loid}.{attr.name} dangles: {ref} not stored",
                            )
                        elif (
                            attr.domain is not None
                            and target.class_name != attr.domain
                        ):
                            report.add(
                                "error", "reference",
                                f"{loid}.{attr.name} points at "
                                f"{target.class_name}, declared {attr.domain}",
                            )

    # --- catalog coverage --------------------------------------------------
    for global_class in system.global_schema.class_names:
        table = system.catalog.table(global_class)
        stored = set()
        for db_name in system.global_schema.databases_of(global_class):
            local_cls = system.global_schema.constituent_class(
                db_name, global_class
            )
            if local_cls is None:
                continue
            for loid in system.db(db_name).extent(local_cls):
                stored.add(loid)
                if table.goid_of(loid) is None and room():
                    report.add(
                        "error", "catalog",
                        f"{loid} ({global_class}) has no GOid",
                    )
        for _goid, row in table.entries():
            for loid in row.values():
                if loid not in stored and room():
                    report.add(
                        "error", "catalog",
                        f"catalog maps {loid} ({global_class}) but no such "
                        "object is stored",
                    )

    # --- replica value consistency -------------------------------------------
    for global_class in system.global_schema.class_names:
        table = system.catalog.table(global_class)
        gdef = system.global_schema.cls(global_class)
        for goid, row in table.entries():
            if len(row) < 2 or not room():
                continue
            copies = [
                system.db(db).get(loid)
                for db, loid in row.items()
            ]
            copies = [c for c in copies if c is not None]
            attrs = set().union(*(c.values.keys() for c in copies))
            for attr_name in attrs:
                if gdef.has_attribute(attr_name):
                    gattr = gdef.attribute(attr_name)
                    # References differ by construction (local LOids),
                    # and a multi-valued attribute unions its copies.
                    if gattr.is_complex or gattr.multi_valued:
                        continue
                non_null = {
                    c.get(attr_name)
                    for c in copies
                    if not is_null(c.get(attr_name))
                    and not isinstance(c.get(attr_name), MultiValue)
                }
                if len(non_null) > 1:
                    report.add(
                        "warning", "consistency",
                        f"{goid} ({global_class}): copies disagree on "
                        f"{attr_name!r}: {sorted(map(repr, non_null))}",
                    )
    return report
