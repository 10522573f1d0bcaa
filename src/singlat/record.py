"""The base of the package's immutable record classes.

A record class names its fields in `__slots__`, and `Record.__init__` binds
its arguments to them in that order, by position or keyword, as a frozen
dataclass would. The fields a call may leave out take their values from the
class's `_defaults`; a missing, unknown or repeated field, or too many
positional arguments, raises TypeError. Only a record with slots derived
from its arguments has its own `__init__`, which computes them. Assigning
or deleting an attribute afterwards raises.
`==`, `hash` and `repr` read `_fields`, the slots unless a class leaves out
per-object caches: a record equals only records of its own class, and its
hash is the hash of the tuple of those field values.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))
        # the slots' own setters, which bypass the refusing `__setattr__`
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every slot's value, in order, from a call's arguments."""
        slots, name = cls.__slots__, cls.__qualname__
        if len(args) > len(slots):
            raise TypeError(f"{name}() takes {len(slots)} positional arguments "
                            f"but {len(args)} were given")
        given = dict(zip(slots, args))
        for key in kwargs:
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in slots:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values = {**cls._defaults, **given, **kwargs}
        try:
            return [values[field] for field in slots]
        except KeyError:
            missing = ", ".join(repr(field) for field in slots if field not in values)
            raise TypeError(f"{name}() missing required arguments: {missing}") from None

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
