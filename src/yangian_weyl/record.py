"""`record`: a frozen-record class decorator built from closures.

It gives a class what `@dataclass(frozen=True)` gives a class whose fields
have no defaults: `__init__` (which then calls `__post_init__`, if the
class has one), `__eq__`, `__hash__`, the dataclass `__repr__` text,
`__match_args__`, and a `__setattr__`/`__delattr__` that refuse.  Nothing
is generated as source, so the decorator runs no `exec` at import; nor
does the package import `dataclasses`, which pulls in `inspect`.

The fields are the class's own annotations, in order.  No `__slots__`:
instances keep a `__dict__`, which `functools.cached_property` needs.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


def _missing_text(names: list) -> str:
    """Python's wording: 'a', 'a' and 'b', or 'a', 'b', and 'c'."""
    quoted = [repr(n) for n in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    n = len(names)
    where = f"{cls.__qualname__}.__init__()"
    post_init = getattr(cls, "__post_init__", None)
    # With two or more fields the key is the field tuple, so the hash is
    # the dataclass's; `lru_cache` hashes `LieType` keys once per factor.
    key = attrgetter(*names)

    def bind(args, kwargs):
        """The field values in order, or the TypeError Python raises for
        a call that does not match the fields."""
        if len(args) > n:
            raise TypeError(
                f"{where} takes {n + 1} positional arguments but {len(args) + 1} were given"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        if len(values) < n:
            missing = [f for f in names if f not in values]
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(
                f"{where} missing {len(missing)} required positional "
                f"argument{plural}: {_missing_text(missing)}"
            )
        return [values[f] for f in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
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
