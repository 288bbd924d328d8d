"""Frozen value records, built without ``dataclasses`` or ``inspect``.

A :class:`Record` subclass declares its fields as ``name: type = default``
after its base's; a list, dict or set default is copied for each instance.
``__init_subclass__`` gives the class a constructor that closes over its
field table, so no source is generated.  A record takes its fields by
position or keyword and runs ``__post_init__`` if it has one; it equals a
record of its own class with equal fields, hashes by them and refuses
assignment."""
from __future__ import annotations

from types import SimpleNamespace

_NO_DEFAULT = object()
_set = object.__setattr__


class Record:
    """Base of the package's value records (see the module docstring)."""

    def __init_subclass__(cls):
        table = {}
        for klass in reversed(cls.__mro__):
            for name in klass.__dict__.get("__annotations__", ()):
                table[name] = klass.__dict__.get(name, _NO_DEFAULT)
        cls._fields = tuple(SimpleNamespace(name=name) for name in table)
        cls._names = names = tuple(table)
        count, name_set, post_init = len(names), frozenset(table), getattr(cls, "__post_init__", None)
        defaults = {k: v for k, v in table.items() if v is not _NO_DEFAULT}
        mutable = tuple(k for k, v in defaults.items() if type(v) in (list, dict, set))

        def __init__(self, *args, **kwargs):
            if not kwargs and len(args) == count:  # every field by position: the hot path
                self.__dict__.update(zip(names, args))
            elif not args and kwargs.keys() == name_set:  # every field by keyword, as replace() calls
                _set(self, "__dict__", kwargs)
            else:
                values = {**defaults, **kwargs}
                values.update(zip(names, args))
                for name in mutable:
                    if values[name] is defaults[name]:
                        values[name] = values[name].copy()
                if (len(values) != count or len(args) > count or not name_set.issuperset(kwargs)
                        or not kwargs.keys().isdisjoint(names[: len(args)])):
                    raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}; "
                                    f"got {len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")
                _set(self, "__dict__", values)
            if post_init is not None:
                post_init(self)

        cls.__init__ = __init__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {self.__class__.__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self._names)))

    def __repr__(self):
        items = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({items})"


def replace(record: Record, /, **changes) -> Record:
    """A copy of ``record`` with ``changes``, built and validated anew."""
    return record.__class__(**{**record.__dict__, **changes})


def fields(record) -> tuple:
    """The fields of a record or record class, each with its ``name``, in order."""
    return record._fields
