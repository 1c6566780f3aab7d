"""Object schemas: classes, attributes and composition hierarchies.

A component database publishes a :class:`ComponentSchema` made of
:class:`ClassDef` entries.  Attributes are either *primitive* (int, float,
str, bool) or *complex*: a complex attribute's value is a reference to an
object of its ``domain`` class, which makes classes form a *class
composition hierarchy* — the structure traversed by the paper's nested
predicates / path expressions (``X.advisor.department.name``).

The paper restricts itself to composition hierarchies (no subclass
hierarchy), and so do we.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError, UnknownAttributeError, UnknownClassError


class AttrKind(enum.Enum):
    """Whether an attribute holds a primitive value or an object reference."""

    PRIMITIVE = "primitive"
    COMPLEX = "complex"


@dataclass(frozen=True)
class AttributeDef:
    """Definition of one attribute of a class.

    Attributes:
        name: the attribute name.
        kind: primitive or complex.
        domain: for complex attributes, the referenced class name; None for
            primitive attributes.
        multi_valued: True when the attribute holds a set of values
            (extension for the paper's future-work multi-valued global
            attributes).
    """

    name: str
    kind: AttrKind = AttrKind.PRIMITIVE
    domain: Optional[str] = None
    multi_valued: bool = False

    def __post_init__(self) -> None:
        if self.kind is AttrKind.COMPLEX and not self.domain:
            raise SchemaError(
                f"complex attribute {self.name!r} must declare a domain class"
            )
        if self.kind is AttrKind.PRIMITIVE and self.domain is not None:
            raise SchemaError(
                f"primitive attribute {self.name!r} must not declare a domain"
            )

    @property
    def is_complex(self) -> bool:
        return self.kind is AttrKind.COMPLEX


def primitive(name: str, multi_valued: bool = False) -> AttributeDef:
    """Shorthand constructor for a primitive attribute definition."""
    return AttributeDef(name=name, kind=AttrKind.PRIMITIVE, multi_valued=multi_valued)


def complex_attr(name: str, domain: str, multi_valued: bool = False) -> AttributeDef:
    """Shorthand constructor for a complex (reference) attribute definition."""
    return AttributeDef(
        name=name, kind=AttrKind.COMPLEX, domain=domain, multi_valued=multi_valued
    )


@dataclass(frozen=True)
class ClassDef:
    """Definition of one class: a name plus an ordered attribute mapping."""

    name: str
    attributes: Tuple[AttributeDef, ...]

    def __post_init__(self) -> None:
        seen = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(
                    f"class {self.name!r} declares attribute "
                    f"{attr.name!r} more than once"
                )
            seen.add(attr.name)

    @classmethod
    def of(cls, name: str, attributes: Iterable[AttributeDef]) -> "ClassDef":
        return cls(name=name, attributes=tuple(attributes))

    def attribute_names(self) -> List[str]:
        return [attr.name for attr in self.attributes]

    def has_attribute(self, name: str) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def attribute(self, name: str) -> AttributeDef:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise UnknownAttributeError(self.name, name)

    def complex_attributes(self) -> List[AttributeDef]:
        return [attr for attr in self.attributes if attr.is_complex]

    def primitive_attributes(self) -> List[AttributeDef]:
        return [attr for attr in self.attributes if not attr.is_complex]


class Schema:
    """A collection of class definitions forming a composition hierarchy.

    Used both for component schemas (via :class:`ComponentSchema`) and as a
    base for the integrated global schema
    (:class:`repro.integration.global_schema.GlobalSchema`).
    """

    def __init__(self, classes: Iterable[ClassDef]) -> None:
        self._classes: Dict[str, ClassDef] = {}
        for cdef in classes:
            if cdef.name in self._classes:
                raise SchemaError(f"duplicate class definition {cdef.name!r}")
            self._classes[cdef.name] = cdef
        self._validate_domains()
        #: (root class, steps) -> resolved chain.  A schema is never
        #: mutated (evolution builds a new one), so entries never go stale.
        self._chains: Dict[tuple, Tuple[AttributeDef, ...]] = {}

    def _validate_domains(self) -> None:
        for cdef in self._classes.values():
            for attr in cdef.complex_attributes():
                if attr.domain not in self._classes:
                    raise SchemaError(
                        f"attribute {cdef.name}.{attr.name} references "
                        f"undefined class {attr.domain!r}"
                    )

    # --- lookups ----------------------------------------------------------

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._classes

    def __iter__(self) -> Iterator[ClassDef]:
        return iter(self._classes.values())

    def __len__(self) -> int:
        return len(self._classes)

    @property
    def class_names(self) -> List[str]:
        return list(self._classes)

    def cls(self, class_name: str) -> ClassDef:
        try:
            return self._classes[class_name]
        except KeyError:
            raise UnknownClassError(class_name) from None

    # --- path expressions -------------------------------------------------

    def resolve_path(
        self, root_class: str, path: Sequence[str]
    ) -> Tuple[AttributeDef, ...]:
        """Type-check *path* from *root_class*; return the attribute chain.

        A path like ``("advisor", "department", "name")`` from ``Student``
        resolves to the attribute definitions for ``Student.advisor``,
        ``Teacher.department`` and ``Department.name``.  Every step except
        possibly the last must be a complex attribute.

        Raises:
            UnknownClassError: if *root_class* is undefined.
            UnknownAttributeError: if a step does not exist on its class.
            SchemaError: if a non-final step is primitive.
        """
        key = (root_class, tuple(path))
        resolved = self._chains.get(key)
        if resolved is not None:
            return resolved
        if not path:
            raise SchemaError("path expression must have at least one step")
        chain: List[AttributeDef] = []
        current = self.cls(root_class)
        for index, step in enumerate(path):
            attr = current.attribute(step)
            chain.append(attr)
            is_last = index == len(path) - 1
            if not is_last:
                if not attr.is_complex:
                    raise SchemaError(
                        f"path step {step!r} on class {current.name!r} is "
                        "primitive but is not the final step"
                    )
                current = self.cls(attr.domain)  # type: ignore[arg-type]
        resolved = self._chains[key] = tuple(chain)
        return resolved

    def classes_on_path(
        self, root_class: str, path: Sequence[str]
    ) -> List[str]:
        """Return the class visited *before* each path step.

        ``classes_on_path("Student", ("advisor", "name"))`` returns
        ``["Student", "Teacher"]``: the class on which each step's attribute
        is defined.
        """
        chain = self.resolve_path(root_class, path)
        classes = [root_class]
        for attr in chain[:-1]:
            classes.append(attr.domain)  # type: ignore[arg-type]
        return classes


@dataclass
class ComponentSchema:
    """The schema of one component database, identified by its site name."""

    db_name: str
    schema: Schema = field(default_factory=lambda: Schema(()))

    @classmethod
    def of(cls, db_name: str, classes: Iterable[ClassDef]) -> "ComponentSchema":
        return cls(db_name=db_name, schema=Schema(classes))

    def __contains__(self, class_name: str) -> bool:
        return class_name in self.schema

    def cls(self, class_name: str) -> ClassDef:
        return self.schema.cls(class_name)

    @property
    def class_names(self) -> List[str]:
        return self.schema.class_names


def missing_attributes(
    global_attrs: Mapping[str, AttributeDef], constituent: ClassDef
) -> List[AttributeDef]:
    """Attributes of the global class that *constituent* does not define.

    These are the paper's *missing attributes* of the constituent class:
    "the attributes appearing in the global class but not defined in
    constituent class C" (Section 1).  Data for them is missing (null) for
    every object of the constituent class.
    """
    return [
        attr
        for name, attr in global_attrs.items()
        if not constituent.has_attribute(name)
    ]
