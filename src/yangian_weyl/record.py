"""`record`: a frozen-record class decorator built from closures.

It gives a class what `@dataclass(frozen=True)` gives a class whose fields
have no defaults: `__init__` (which then calls `__post_init__`, if the
class has one), `__eq__`, `__hash__`, the dataclass `__repr__` text,
`__match_args__`, and a `__setattr__`/`__delattr__` that refuse.  A call
that does not match the fields raises one `TypeError` that names them,
not the dataclass's wording for each fault.  Nothing is generated as
source, so the decorator runs no `exec` at import; nor does the package
import `dataclasses`, which pulls in `inspect`.

The fields are the class's own annotations, in order.  No `__slots__`:
instances keep a `__dict__`.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    n = len(names)
    bad_call = f"{cls.__qualname__}() takes the fields {', '.join(names)}, by position or keyword"
    post_init = getattr(cls, "__post_init__", None)
    # With two or more fields the key is the field tuple, so the hash is
    # the dataclass's; `lru_cache` hashes `LieType` keys once per factor.
    key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            # Keywords name the fields after the positional ones, each
            # once; a missing, extra, unknown or repeated one is refused.
            rest = names[len(args):]
            if len(args) > n or kwargs.keys() != set(rest):
                raise TypeError(bad_call)
            args = (*args, *map(kwargs.get, rest))
        # `object.__setattr__`, not the instance `__dict__`: touching that
        # turns the object's inline attribute values into a dict, and every
        # later field read is then slower.
        for f, value in zip(names, args):
            _setattr(self, f, value)
        if post_init is not None:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        parts = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{self.__class__.__qualname__}({parts})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
