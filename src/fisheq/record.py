"""Plain value classes.  A class's fields are the parameters of its
``__init__``, which sets each of them."""


class Record:
    """Field-wise ``==`` with instances of the same class only, a
    ``Name(field=value, ...)`` repr, and no hash: the fields may change."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if "__init__" in vars(cls):  # else the fields are the base's
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]  # the parameters after self

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose ``__init__`` writes its fields into the instance
    ``__dict__`` once; it hashes by value, and assigning or deleting an
    attribute raises AttributeError.  A ``cached_property`` still caches:
    it writes the ``__dict__`` too."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
