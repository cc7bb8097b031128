"""Record classes: the part of `dataclasses` that efdyn uses, built from closures.

`record` gives a class with annotated fields an `__init__` (positional or
keyword, with plain defaults, then `__post_init__` if the class has one),
`__repr__`, `__eq__`, `__hash__` and a guard against assignment, as
`dataclasses.dataclass(frozen=True)` defines them over every field; `__eq__`
compares tuples of fields, as it does up to Python 3.12. The fields are read
from the class's own `__annotations__`, so a module declaring records needs
`from __future__ import annotations` (without it, Python 3.14 stores no
`__annotations__` in the class body). `dataclasses` compiles each generated
method with `exec` when a class is decorated, and importing it loads `inspect`,
`ast` and `dis`: for efdyn's records that was most of the time `import efdyn`
took. tests/test_record.py holds these records against `dataclasses` ones.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


def _tuple_getter(names):
    """obj -> the tuple of its attributes `names`, also for one name."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names)


def record(cls):
    """Class decorator: the methods of `dataclasses.dataclass(frozen=True)`."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    if not names:
        raise TypeError(f"{cls.__qualname__} has no annotated fields in its own "
                        "__annotations__")
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fieldset, n = frozenset(names), len(names)
    setattr_ = object.__setattr__
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kw):
        """The field values in order, from a call other than all-positional
        or all-keyword, or one that leaves out a field with a default."""
        if len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        values, missing = list(args), []
        for name in names[len(args):]:
            if name in kw:
                values.append(kw.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                missing.append(name)
        if missing or kw:
            raise TypeError(f"{cls.__qualname__}() missing {missing}; "
                            f"unexpected or repeated {sorted(kw)}")
        return values

    def __init__(self, *args, **kw):
        if kw:
            args = (map(kw.__getitem__, names) if not args and kw.keys() == fieldset
                    else bind(args, kw))
        elif len(args) != n:
            args = bind(args, kw)
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if post_init:
            self.__post_init__()

    astuple = _tuple_getter(names)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{k}={v!r}" for k, v in zip(names, astuple(self))) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(astuple(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = __init__, __repr__, __eq__, __hash__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls
