"""The degradation notes: one spelling for each reason a row is weaker.

A row a fault-free execution would make certain, but this one could
not, carries a free-text note saying why.  Every site that writes a
note — or strips one again, as a repair does — spells it with one of
these functions, so the strings cannot drift apart.  Committed bench
baselines and tests match on them byte for byte.
"""

from __future__ import annotations

from typing import Iterable


def site_unavailable(site: str) -> str:
    """A localized strategy could not reach a site holding certification
    evidence (an assistant copy, or a placement of the entity)."""
    return f"uncertified: site {site} unavailable"


def outerjoin_incomplete(sites: Iterable[str]) -> str:
    """CA's fused outerjoin ran without the extents of *sites*: no row
    can be soundly certified."""
    return (
        "uncertified: outerjoin incomplete (site "
        + ", ".join(sorted(sites))
        + " unavailable)"
    )


def schema_flux(label: str) -> str:
    """The execution straddled the open evolution window *label*, which
    touches an attribute the query references."""
    return f"uncertified: schema in flux ({label})"
