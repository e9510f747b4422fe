"""Record: the frozen record type of every report and container in qproj.

A subclass declares its fields as class annotations, each optionally
with a default as the class attribute of the same name; a subclass of
a record lists its base's fields first.  Records are built from
positional or keyword arguments, then ``__post_init__`` runs if the
class defines one.  They are frozen, compare and hash by their field
values within one class, and convert to plain dicts by ``_asdict``.

This is the part of frozen dataclasses the package uses, written out
because importing ``dataclasses`` also imports ``inspect``, ``ast``,
``dis`` and ``tokenize``, about a third of the CLI's start-up.
"""


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # not cls.__annotations__: on Python 3.10 a class that declares no
        # field would read its base's
        own = [f for f in cls.__dict__.get("__annotations__", {})
               if f not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults,
                         **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(self._fields, args))
        for f, v in kwargs.items():
            if f not in self._fields:
                raise TypeError(f"{name}() got an unexpected argument {f!r}")
            if f in values:
                raise TypeError(f"{name}() got multiple values for argument {f!r}")
            values[f] = v
        missing = [f for f in self._fields
                   if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        # the instance dict, as cached_property also uses
        self.__dict__.update({f: values[f] if f in values else self._defaults[f]
                              for f in self._fields})
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        """The fields as a dict, converted recursively through records,
        tuples, lists and dicts, as dataclasses.asdict does."""
        return {f: _plain(self.__dict__[f]) for f in self._fields}


def _plain(x):
    if isinstance(x, Record):
        return x._asdict()
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(v) for v in x)
    if isinstance(x, dict):
        return type(x)((_plain(k), _plain(v)) for k, v in x.items())
    return x
