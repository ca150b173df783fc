"""Records: what ``dataclasses`` makes of a class, from closures over its
fields.  ``dataclasses`` writes each method as source and execs it, which
every process pays for at start: no bytecode cache holds exec'd code."""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


def record(cls=None, /, *, frozen=True, eq=True, hidden=()):
    """Give ``cls`` construction from its annotated fields by position or
    keyword (class attributes are the defaults), ``__post_init__``, a repr
    ``Name(field=value, ...)`` less the ``hidden`` fields, ``__match_args__``
    and, if ``frozen``, refusal of assignment and deletion; if ``eq``,
    equality of the field tuples, hashed if frozen and unhashable if not."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq, hidden=hidden)
    names = tuple(cls.__annotations__)  # its own: no base class annotations, since 3.10
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init, get = getattr(cls, "__post_init__", None), attrgetter(*names)
    shown = [name for name in names if name not in hidden]
    key = get if len(names) > 1 else lambda self: (get(self),)  # always a tuple, compared as dataclasses compare

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):  # fill in the defaults; a missing, repeated or unknown field raises
            given = dict(defaults)
            given.update(zip(names, args), **kwargs)
            if len(args) > len(names) or given.keys() != set(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
                raise TypeError(f"{cls.__qualname__}() takes {names}: got {len(args)} by position, {sorted(kwargs)}")
            args = [given[name] for name in names]
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in shown)})"

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    cls.__init__, cls.__repr__, cls.__match_args__ = __init__, __repr__, names
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
