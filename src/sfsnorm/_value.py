"""The base of the package's immutable value classes.

A subclass names its fields in ``_fields``, in order, declares its
storage in ``__slots__`` and sets each slot once in ``__init__`` with
``_set``.  A subclass whose values a trusted caller also builds from
fields it has already checked writes every slot in one ``_store``
method instead: ``__init__`` calls it after its checks, and the trusted
caller calls it on ``object.__new__(cls)`` without them, so the slot
layout is written in one place.  The repr, equality and hash read the
fields as those of a frozen dataclass do; assignment and deletion raise
``AttributeError``, and ``copy`` and ``pickle`` build a value again from
its fields.
"""

from operator import attrgetter

# Writes a slot past the ``__setattr__`` that refuses it.
_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # The field values as a tuple, also for a single field.
        cls._values = staticmethod(get if len(cls._fields) > 1
                                   else lambda self: (get(self),))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value
                            in zip(self._fields, self._values(self))])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
