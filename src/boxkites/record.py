"""Records: the package's small exact values as classes of named fields.

``record`` gives a class, from its annotated fields in order, what
``dataclasses.dataclass`` gives it: an ``__init__`` that takes the fields, a
class attribute of the same name being a field's default, and then calls
``__post_init__`` when the class has one; equality and a hash on the tuple of
fields; a repr; and refused assignment unless ``frozen=False``.  It builds a
class at a fraction of the cost, with one ``exec`` for the three per-field
methods where ``dataclasses`` runs six, and without loading ``inspect``.
"""


class Fresh:
    """A field default made anew for each instance by ``make()``; with no
    ``make``, the field has no ``__init__`` parameter and ``__post_init__``
    sets it."""

    __slots__ = ("make",)

    def __init__(self, make=None):
        self.make = make


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, *, frozen=True):
    """Make ``cls`` a record; its fields follow those of a record it extends."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__annotations__", ()))
    namespace = {"_set": object.__setattr__}
    params, sets = ["self"], []
    for name in fields:
        value = name
        if hasattr(cls, name):  # its default
            default = namespace[f"_d_{name}"] = getattr(cls, name)
            if isinstance(default, Fresh):
                if default.make is None:
                    continue
                value = f"_d_{name}.make() if {name} is _d_{name} else {name}"
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
        sets.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        sets.append("self.__post_init__()")
    mine, theirs = ("".join(f"{who}.{name}, " for name in fields) for who in ("self", "other"))
    source = (
        f"def __init__({', '.join(params)}):\n {'; '.join(sets)}\n"
        "def __eq__(self, other):\n"
        f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
        " return NotImplemented\n"
        f"def __hash__(self): return hash(({mine}))\n"
    )
    exec(source, namespace)
    cls._fields = fields
    for method in ("__init__", "__eq__", "__hash__"):
        namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, namespace[method])
    cls.__repr__ = _repr
    if frozen:
        cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    else:
        cls.__hash__ = None
    return cls
