"""Immutable records: slotted classes compared, hashed and shown by field.

A record names its fields in ``__slots__``, plus ``"__dict__"`` where
``cached_property`` keeps values.  Its ``__eq__``, and its ``__init__``
unless it writes one through ``_setters``, are compiled once per class, as
``collections.namedtuple`` does; ``_defaults`` are those of the last fields.
"""

from __future__ import annotations

from operator import attrgetter

_METHODS = """
def __init__(self, {fields}):{sets}
def __eq__(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return ({mine},) == ({theirs},)
"""


class Record:
    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._values = attrgetter(*fields)
        cls._setters = [getattr(cls, f).__set__ for f in fields]
        names = {f"_set_{f}": set_f for f, set_f in zip(fields, cls._setters)}
        exec(_METHODS.format(
            fields=", ".join(fields),
            sets="".join(f"\n    _set_{f}(self, {f})" for f in fields),
            mine=", ".join(f"self.{f}" for f in fields),
            theirs=", ".join(f"other.{f}" for f in fields),
        ), names)
        cls.__eq__ = names["__eq__"]
        if "__init__" not in cls.__dict__:
            cls.__init__ = names["__init__"]
            cls.__init__.__defaults__ = cls._defaults

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")
