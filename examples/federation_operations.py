#!/usr/bin/env python3
"""Auditing a federation: the invariants the strategies rely on.

:func:`repro.integration.validate.check_federation` audits schema
conformance, referential integrity, catalog coverage and replica
consistency, and pinpoints injected corruption.  The fuzz oracle runs
the same audit on every generated federation before it compares
strategies.

Run:  python examples/federation_operations.py
"""

from repro.integration.validate import check_federation
from repro.objectdb.ids import LOid
from repro.workload.paper_example import build_school_federation


def main() -> None:
    system = build_school_federation()

    print("1) Audit the pristine federation")
    report = check_federation(system)
    print(f"   {report.summary()}\n")

    print("2) Inject corruption and re-audit")
    system.db("DB1").get(LOid("DB1", "s1")).values["advisor"] = LOid(
        "DB1", "nobody"
    )
    system.db("DB2").get(LOid("DB2", "s2'")).values["name"] = "Jon"
    report = check_federation(system)
    print(f"   {report.summary()}")
    for finding in report.findings:
        print(f"   {finding}")


if __name__ == "__main__":
    main()
