"""Read-only value classes: the base of the package's small immutable records.

A subclass names its fields, in constructor order, in __slots__ (a further
subclass adds its own after them), and its own __init__ checks the arguments
and hands them to Value.__init__, which stores them.  After that, assigning
or deleting any attribute raises AttributeError.  Two values are equal when
they are of the same class and their fields are equal; the hash is that of
the field tuple, so a value holding a dict is unhashable; the repr reads
Name(field=value, ...).  Pickling and copying rebuild a value through its
constructor, so its checks run again.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _names: tuple[str, ...]  # the fields of a subclass, set when it is made

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple(name for klass in reversed(cls.__mro__)
                           for name in vars(klass).get("__slots__", ()))

    def __init__(self, *values) -> None:
        for name, value in zip(self._names, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
