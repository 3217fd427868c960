"""The base of the package's immutable value records.

A record class lists its fields in ``__slots__``, in the order its
``__init__`` takes them, and its ``__init__`` checks its arguments and sets
each field once with ``object.__setattr__``; a slot named ``_x`` holds what
it derives from them. Equality (with records of the same class only), hash
and repr read the fields, listed once per class and read together through
one `operator.attrgetter` per class; the repr reads
``Name(field=value, ...)``. Assigning or deleting a field raises
`AttributeError`. Copy and pickle rebuild a record by calling its class on
its fields.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Slot storage, value equality, hash and repr, and no mutation."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__
                            if not name.startswith("_"))
        # every record has two fields or more, so the getter returns a tuple
        cls._get = attrgetter(*cls._fields)

    def _values(self) -> tuple:
        return self._get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._get(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
