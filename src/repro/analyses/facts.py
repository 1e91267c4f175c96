"""Fact abstractions shared by the client analyses.

Facts must be hashable values; the IFDS framework is oblivious to their
structure (Section 2.1 of the paper).  Locals are naturally method-scoped
(Jimple locals), fields are abstracted by their declaring class and name —
i.e. receiver objects are merged, matching the paper's treatment of field
assignments "in a field-sensitive manner, abstracting from receiver
objects through their context-insensitive points-to sets".

Facts are immutable value objects with their hash computed once at
construction: the solvers key path edges, jump tables and memo caches on
(statement, fact) tuples, so fact hashing sits on the tabulation hot path.
Hashes are built from strings only — class *names*, and a definition
site's location rather than the identity-hashed instruction — so under a
fixed ``PYTHONHASHSEED`` the iteration order of a set of facts, and with
it the solver's work counters, does not depend on object addresses.
"""

from __future__ import annotations

from repro.ir.instructions import Instruction

__all__ = ["LocalFact", "FieldFact", "TypedLocal", "TypedField", "DefFact"]


class LocalFact:
    """A property (e.g. tainted, uninitialized) of one local variable."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("LocalFact", name)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, LocalFact) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name


class FieldFact:
    """A property of a field, merged over all receiver objects."""

    __slots__ = ("class_name", "field_name", "_hash")

    def __init__(self, class_name: str, field_name: str) -> None:
        object.__setattr__(self, "class_name", class_name)
        object.__setattr__(self, "field_name", field_name)
        object.__setattr__(
            self, "_hash", hash(("FieldFact", class_name, field_name))
        )

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, FieldFact)
            and other.class_name == self.class_name
            and other.field_name == self.field_name
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.class_name}.{self.field_name}"


class TypedLocal:
    """Possible-types fact: local ``name`` may refer to a ``class_name``."""

    __slots__ = ("name", "class_name", "_hash")

    def __init__(self, name: str, class_name: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "class_name", class_name)
        object.__setattr__(self, "_hash", hash(("TypedLocal", name, class_name)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, TypedLocal)
            and other.name == self.name
            and other.class_name == self.class_name
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name}:{self.class_name}"


class TypedField:
    """Possible-types fact for a field (receivers merged)."""

    __slots__ = ("declaring_class", "field_name", "class_name", "_hash")

    def __init__(
        self, declaring_class: str, field_name: str, class_name: str
    ) -> None:
        object.__setattr__(self, "declaring_class", declaring_class)
        object.__setattr__(self, "field_name", field_name)
        object.__setattr__(self, "class_name", class_name)
        object.__setattr__(
            self,
            "_hash",
            hash(("TypedField", declaring_class, field_name, class_name)),
        )

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, TypedField)
            and other.declaring_class == self.declaring_class
            and other.field_name == self.field_name
            and other.class_name == self.class_name
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.declaring_class}.{self.field_name}:{self.class_name}"


class DefFact:
    """Reaching-definitions fact: ``name`` may hold the value assigned at
    ``site``.  The variable name is rebound as the definition crosses
    parameter and return-value assignments."""

    __slots__ = ("name", "site", "_hash")

    def __init__(self, name: str, site: Instruction) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "_hash", hash(("DefFact", name, site.location)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, DefFact)
            and other.name == self.name
            and other.site == self.site
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name}@{self.site.location}"
