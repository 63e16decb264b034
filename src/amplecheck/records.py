"""Immutable records: slotted classes compared, hashed and shown by field.

A record names its fields in ``__slots__``, plus ``"__dict__"`` where
``lazy`` keeps values.  Only its constructor is compiled, once per template
and field count, and bound to each class with its field names and setters:
the ``__init__``, or beside a validating ``__init__`` the unchecked ``_of``;
``_defaults`` are those of the last fields.  ``==`` and ``hash`` both read
the fields through ``cls._values``.  ``cls._of(*fields)`` builds results
valid by construction; copies and pickles rebuild through ``__init__``.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType

_INIT = "def __init__(self, {fields}):{sets}"
_OF = "def _of(cls, {fields}):\n    self = _new(cls){sets}\n    return self"


@cache
def _shape(template: str, n: int) -> CodeType:
    """The code of ``template`` on fields ``f0 .. f<n-1>``, set through ``_set_<i>``."""
    sets = "".join(f"\n    _set_{i}(self, f{i})" for i in range(n))
    source = template.format(fields=", ".join(f"f{i}" for i in range(n)), sets=sets)
    return compile(source, "<record>", "exec").co_consts[0]  # the one def's code


class lazy:
    """Lock-free ``functools.cached_property`` for immutable records: a first read stores
    the value in ``__dict__`` past ``Record.__setattr__`` (racing reads store equal values)."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.func(record)
        return value


class Record:
    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._values = attrgetter(*fields)
        cls._setters = [getattr(cls, f).__set__ for f in fields]
        validating = "__init__" in cls.__dict__
        code = _shape(_OF if validating else _INIT, len(fields))
        local = code.co_varnames  # self or cls, the fields, then _of's self
        code = code.replace(co_varnames=(local[0], *fields, *local[len(fields) + 1:]))
        names = {f"_set_{i}": set_f for i, set_f in enumerate(cls._setters)}
        constructor = FunctionType(code, {"_new": object.__new__, **names})
        if validating:
            cls._of = classmethod(constructor)
        else:  # the compiled __init__ checks nothing, so it is the trusted path
            cls.__init__, cls._of = constructor, cls
            cls.__init__.__defaults__ = cls._defaults

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

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
