"""The base of the package's immutable record classes.

A record class names its fields in `__slots__` and sets them in its own
`__init__` through `object.__setattr__`; assigning or deleting an attribute
afterwards raises. `==`, `hash` and `repr` read `_fields`, the slots unless a
class leaves out per-object caches: a record equals only records of its own
class, and its hash is the hash of the tuple of those field values.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
