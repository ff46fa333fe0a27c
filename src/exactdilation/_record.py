"""Immutable value classes, built without ``dataclasses``.

``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and builds every method of every class through ``exec``: on a
command-line run that is paid at each start, and it was over a quarter of
the package's import time.  A ``Record`` subclass lists its fields, in
order, as annotations, each with its default, if any, as the class
attribute; it gets positional and keyword construction, value ``==`` and
``hash``, a ``Name(field=value, ...)`` repr, ``replace`` and no assignment.
``_check`` validates every new instance, ``replace``'s too, by raising.
The arguments are bound in one pass over the fields: the positional values,
then each remaining field from its keyword or else from its default.  The
fields go into the instance's ``__dict__`` in one update, which keeps them
as fast to read as a plain object's attributes; the tuple of their values
is kept too, for ``==`` and ``hash``.

The fields are read off the class's own annotations as the class is made.
A module that defines a subclass starts with ``from __future__ import
annotations``: its annotations are then kept as text and not evaluated at
that point, where a name such as that of a later class may not yet exist.
A subclass that annotates no fields is refused.
"""

__all__ = ["Record"]


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)  # the class's own, from 3.10 on
        if not cls._fields:
            raise TypeError(f"Record subclass {cls.__name__} annotates no fields")

    def __init__(self, *args, **kwargs):
        cls, fields, n = type(self), self._fields, len(args)
        if n > len(fields) or not kwargs.keys().isdisjoint(fields[:n]):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, each given once")
        values = list(args)
        for name in fields[n:]:
            if name not in kwargs and name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else cls.__dict__[name])
        if kwargs:
            raise TypeError(f"{cls.__name__}() has no field {sorted(kwargs)[0]!r}")
        self.__dict__.update(zip(fields, values), _values=tuple(values))
        self._check()

    def _check(self):
        """Raise if the fields do not make a valid value."""

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, validated as a new instance is."""
        return type(self)(**dict(zip(self._fields, self._values), **changes))
