"""The base of the value classes that a NamedTuple cannot hold.

A record whose fields are all its state is a ``typing.NamedTuple``.  A
class that validates its fields, derives attributes from them or keeps a
cache derives from :class:`Frozen` instead: it sets its attributes once, in
its constructor, through ``object.__setattr__``, and writes its own
``__eq__`` and ``__hash__`` over its fields.
"""

from __future__ import annotations


class Frozen:
    """Assigning or deleting an attribute raises AttributeError, as on a
    NamedTuple; the repr is ``Name(field=value, ...)`` over ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

