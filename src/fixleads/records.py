"""Plain value records: equality, hashing and ``repr`` keyed on ``__slots__``.

A subclass lists its fields in ``__slots__`` and sets them in an explicit
``__init__``.  :class:`Record` compares field by field and only with its
exact type, so ``And((a, b)) != Or((a, b))``, and is unhashable because it is
mutable.  :class:`Frozen` is read-only and hashable; its ``__init__`` takes
the fields in ``__slots__`` order and sets each with :func:`setfield`.
"""

setfield = object.__setattr__  # sets a field of a Frozen record, in its __init__


class Record:
    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()
