"""The base of the package's immutable value types.

Generating these methods per class at import would load ``inspect`` (with
``ast``, ``dis`` and ``tokenize``) and compile each method with ``exec``:
about 8 ms plus 1 ms per class at the start of every CLI process. Here a
class names its fields once and the shared methods read them through one
``attrgetter`` built per class.
"""

from __future__ import annotations

from operator import attrgetter


#: How an ``__init__`` sets a field: the name bound once, not looked up per call.
set_field = object.__setattr__


class Frozen:
    """An immutable value whose equality, hash and repr follow its fields.

    A subclass sets ``_fields`` (its fields in ``__init__`` order, all shown
    by ``repr``) and, when only some of them take part in equality and hash,
    ``_compared``. Its ``__init__`` sets each field with :data:`set_field`;
    any later assignment or deletion raises AttributeError. An instance
    equals only instances of its own class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*getattr(cls, "_compared", cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(map(self.__getattribute__, self._fields))
