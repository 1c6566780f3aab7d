"""Object signatures: superimposed-coding filters over attribute values.

The paper's Section 3 and future work (Section 5) propose an *auxiliary
structure storing object signatures* to reduce data transfer in the
localized approaches: before shipping assistant-object LOids to a remote
site for checking, the requesting site tests the replicated signatures and
drops assistants that certainly violate an equality predicate.  Table 1
sizes a signature at ``S_s = 32`` bytes and Table 2 gives the signature
filter a selectivity ``R_ss`` slightly above the true predicate
selectivity (signatures admit false positives, never false negatives).

We implement classic superimposed coding: each ``(attribute, value)`` pair
sets ``k`` bits (derived from a stable hash) in a ``width``-bit vector;
an equality predicate *may* be satisfied iff all bits of its own code are
set in the object's signature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.core.query import Op, Predicate
from repro.objectdb.ids import LOid
from repro.objectdb.objects import LocalObject
from repro.objectdb.values import MultiValue, is_null

#: Default signature width in bits (S_s = 32 bytes in Table 1).
DEFAULT_WIDTH_BITS = 256
#: Default number of bits set per (attribute, value) pair.
DEFAULT_BITS_PER_CODE = 4


def _code(attribute: str, value: object, width: int, k: int) -> int:
    """Deterministic k-bit code for an (attribute, value) pair."""
    mask = 0
    payload = f"{attribute}\x00{type(value).__name__}\x00{value!r}".encode()
    counter = 0
    while bin(mask).count("1") < k:
        digest = hashlib.blake2b(
            payload + counter.to_bytes(4, "little"), digest_size=8
        ).digest()
        bit = int.from_bytes(digest, "little") % width
        mask |= 1 << bit
        counter += 1
    return mask


@dataclass(frozen=True)
class Signature:
    """A fixed-width bit vector summarizing one object's attribute values."""

    bits: int
    width: int = DEFAULT_WIDTH_BITS

    def superset_of(self, mask: int) -> bool:
        """True when every bit of *mask* is set in this signature."""
        return (self.bits & mask) == mask

    @property
    def popcount(self) -> int:
        return bin(self.bits).count("1")

    @property
    def size_bytes(self) -> int:
        return self.width // 8


def make_signature(
    obj: LocalObject,
    attributes: Optional[Iterable[str]] = None,
    width: int = DEFAULT_WIDTH_BITS,
    k: int = DEFAULT_BITS_PER_CODE,
) -> Signature:
    """Build the signature of *obj* over *attributes* (default: all).

    Only primitive, non-null values are encoded; complex references and
    nulls contribute nothing (a signature can never prove a null attribute
    violates a predicate — absence of bits is only conclusive for values
    that were encoded, so callers must not filter objects whose attribute
    is null; see :class:`SignatureCatalog.may_satisfy`).
    """
    bits = 0
    names = tuple(attributes) if attributes is not None else tuple(obj.values)
    for name in names:
        value = obj.get(name)
        if is_null(value):
            continue
        members = list(value) if isinstance(value, MultiValue) else [value]
        for member in members:
            if isinstance(member, (int, float, str, bool)):
                bits |= _code(name, member, width, k)
    return Signature(bits=bits, width=width)


def predicate_mask(
    attribute: str,
    operand: object,
    width: int = DEFAULT_WIDTH_BITS,
    k: int = DEFAULT_BITS_PER_CODE,
) -> int:
    """The code an equality predicate's operand would set."""
    return _code(attribute, operand, width, k)


@dataclass
class SignatureCatalog:
    """Replicated per-class signature tables, indexed by LOid.

    The catalog additionally remembers, per object, which attributes were
    encoded with a non-null value, so that filtering stays sound: an
    object whose attribute was null cannot be dropped by the filter (its
    real value is unknown — the assistant must still be checked).
    """

    width: int = DEFAULT_WIDTH_BITS
    k: int = DEFAULT_BITS_PER_CODE
    _tables: Dict[str, Dict[LOid, Signature]] = field(default_factory=dict)
    _encoded: Dict[LOid, frozenset] = field(default_factory=dict)
    #: Memoized predicate masks keyed by (attribute, operand): the
    #: blake2b code of an operand is recomputed for every probe
    #: otherwise.
    _mask_cache: Dict[Tuple[str, object], int] = field(default_factory=dict)

    def _predicate_mask(self, attribute: str, operand: object) -> int:
        """The operand's code, memoized per (attribute, operand)."""
        key = (attribute, operand)
        cached = self._mask_cache.get(key)
        if cached is None:
            cached = predicate_mask(attribute, operand, self.width, self.k)
            self._mask_cache[key] = cached
        return cached

    def index_object(
        self, obj: LocalObject, attributes: Optional[Iterable[str]] = None
    ) -> Signature:
        """Compute, store and return the signature of *obj*."""
        names = tuple(attributes) if attributes is not None else tuple(obj.values)
        signature = make_signature(obj, names, self.width, self.k)
        table = self._tables.setdefault(obj.class_name, {})
        table[obj.loid] = signature
        self._encoded[obj.loid] = frozenset(
            name
            for name in names
            if not is_null(obj.get(name))
            and not isinstance(obj.get(name), (LOid,))
        )
        return signature

    def index_extent(self, objects: Iterable[LocalObject]) -> int:
        count = 0
        for obj in objects:
            self.index_object(obj)
            count += 1
        return count

    def lookup(self, class_name: str, loid: LOid) -> Optional[Signature]:
        return self._tables.get(class_name, {}).get(loid)

    def may_satisfy(
        self, class_name: str, loid: LOid, predicate: Predicate
    ) -> bool:
        """Signature test: can *loid* possibly satisfy *predicate*?

        Returns True (do not filter) whenever the test is inconclusive:
        unknown object, non-equality operator, nested path (the signature
        only covers the object's own attributes), or an attribute that was
        null at indexing time.  Returns False only when the object's
        encoded value provably differs from the operand — which is exactly
        the no-false-negatives guarantee.
        """
        if predicate.op not in (Op.EQ, Op.CONTAINS):
            return True
        if len(predicate.path.steps) != 1:
            return True
        signature = self.lookup(class_name, loid)
        if signature is None:
            return True
        attribute = predicate.path.first
        if attribute not in self._encoded.get(loid, frozenset()):
            return True
        mask = self._predicate_mask(attribute, predicate.operand)
        return signature.superset_of(mask)

    def precheck_assistants(
        self,
        class_name: str,
        loids: Iterable[LOid],
        predicates: Iterable[Predicate],
    ) -> "SignaturePrecheck":
        """Pre-check assistants locally against replicated signatures.

        A signature mismatch on an equality predicate is a *definitive*
        verdict: the assistant's value provably differs from the operand,
        i.e. the assistant **violates** the predicate — the certification
        rule can eliminate without any remote check.  Assistants passing
        (or inconclusive for) every predicate still need remote checking
        because signature matches may be false positives.

        Vectorized probe: each predicate's applicability and operand
        mask are resolved once up front, then every assistant tests a
        precomputed mask against its signature.  Verdicts and the
        comparison charge (one per (assistant, predicate), conclusive or
        not) are identical to probing :meth:`may_satisfy` pairwise.
        """
        predicates = tuple(predicates)
        # Hoisted per-predicate probe state: None marks a predicate the
        # signature test can never settle (non-equality op or nested
        # path); otherwise (attribute, operand mask).
        probes = []
        for predicate in predicates:
            if (
                predicate.op not in (Op.EQ, Op.CONTAINS)
                or len(predicate.path.steps) != 1
            ):
                probes.append((predicate, None, 0))
                continue
            attribute = predicate.path.first
            probes.append((
                predicate,
                attribute,
                self._predicate_mask(attribute, predicate.operand),
            ))
        table = self._tables.get(class_name, {})
        encoded_of = self._encoded
        to_check = []
        violated: Dict[Predicate, list] = {p: [] for p in predicates}
        comparisons = 0
        empty = frozenset()
        for loid in loids:
            comparisons += len(probes)
            signature = table.get(loid)
            if signature is None:
                to_check.append(loid)
                continue
            keep = True
            encoded = encoded_of.get(loid, empty)
            bits = signature.bits
            for predicate, attribute, mask in probes:
                if attribute is None or attribute not in encoded:
                    continue  # inconclusive: must not filter
                if (bits & mask) != mask:
                    violated[predicate].append(loid)
                    keep = False
            if keep:
                to_check.append(loid)
        return SignaturePrecheck(
            to_check=tuple(to_check),
            violated={p: tuple(v) for p, v in violated.items() if v},
            comparisons=comparisons,
        )

    # --- incremental maintenance (mutation hooks) -----------------------

    def update_object(
        self, obj: LocalObject, attributes: Optional[Iterable[str]] = None
    ) -> Signature:
        """Re-sign one mutated object in place.

        :meth:`index_object` already overwrites, so this is the same
        operation under the name the mutation hooks
        (:meth:`~repro.core.system.DistributedSystem.note_mutation`)
        call — signatures are maintained incrementally instead of
        rebuilding the whole catalog per change.
        """
        return self.index_object(obj, attributes)

    def drop_site(self, db_name: str) -> int:
        """Drop every signature of objects homed at *db_name*.

        Called when a site is excised from the federation; returns the
        number of signatures dropped.
        """
        dropped = 0
        for class_name in list(self._tables):
            table = self._tables[class_name]
            victims = [loid for loid in table if loid.db == db_name]
            for loid in victims:
                del table[loid]
                self._encoded.pop(loid, None)
                dropped += 1
            if not table:
                del self._tables[class_name]
        return dropped


@dataclass(frozen=True)
class SignaturePrecheck:
    """Outcome of a local signature pre-check of assistant objects.

    Attributes:
        to_check: assistants that must still be checked remotely.
        violated: per-predicate assistants that provably violate it.
        comparisons: signature comparisons performed (cost model).
    """

    to_check: Tuple[LOid, ...]
    violated: Dict[Predicate, Tuple[LOid, ...]]
    comparisons: int
