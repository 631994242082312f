"""The base class of the package's immutable values.

A subclass declares its fields as class annotations, in constructor order,
and sets each one in its own ``__init__`` with ``object.__setattr__``, after
any checks. ``Value`` then gives it the semantics of a frozen record, with
no code generated at import: assignment and deletion raise
``AttributeError``; two values are equal when they are of the same class and
their field tuples are equal; the hash is the hash of the field tuple,
except that ``Nfa``'s hash leaves out ``transitions`` and so reads none;
``repr`` names every field; and ``__match_args__`` lists the fields, so a
``case`` pattern can bind them by position. Instances keep a ``__dict__``:
a kernel may record a fact there that takes no part in ``==`` and ``hash``.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = tuple(cls.__annotations__)
        # a tuple only for two names or more, which every value has
        cls._key = attrgetter(*cls.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"
