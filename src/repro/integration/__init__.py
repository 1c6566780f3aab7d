"""Federation integration layer.

Schema integration (global classes from constituent classes), object
isomerism discovery, replicated GOid mapping tables, and the outerjoin
materialization of global classes used by the centralized strategy.

Re-exports are lazy (PEP 562) to keep package initialization cycle-free
(see :mod:`repro.objectdb` for the rationale).
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "ClassCorrespondence": "repro.integration.global_schema",
    "ConstituentRef": "repro.integration.isomerism",
    "GlobalExtent": "repro.integration.outerjoin",
    "GlobalSchema": "repro.integration.global_schema",
    "IntegrationStats": "repro.integration.outerjoin",
    "MappingCatalog": "repro.integration.mapping",
    "MappingTable": "repro.integration.mapping",
    "build_catalog": "repro.integration.isomerism",
    "discover_isomerism": "repro.integration.isomerism",
    "integrate_class": "repro.integration.outerjoin",
    "integrate_schemas": "repro.integration.global_schema",
    "isomerism_ratio": "repro.integration.isomerism",
    "materialize": "repro.integration.outerjoin",
    "table_from_correspondences": "repro.integration.isomerism",
    "AuditReport": "repro.integration.validate",
    "Finding": "repro.integration.validate",
    "check_federation": "repro.integration.validate",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
