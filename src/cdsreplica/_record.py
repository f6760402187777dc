"""The frozen record that every value type of the package derives from.

A subclass declares its fields as annotations, after those of the record it
extends; a field declared again keeps its place. A class attribute is the
field's default, and `field(...)` declares a field that has no default, is
not an argument of __init__, or carries a parser.

Each class gets one generated function, its __init__, the way
collections.namedtuple generates __new__: it stores the arguments in order
and calls __post_init__, if the class has one. The rest is shared: == only
between objects of one class, the hash of the field tuple, the repr
`Name(field=value, ...)`, `_fields` (every field), `__match_args__` (the
arguments), `_asdict()` and `_replace(**changes)`, which constructs a new
record and so validates it. Assignment and deletion raise AttributeError;
object.__setattr__ still sets an attribute, which is how __post_init__
converts a field and how a curve keeps its memo, out of every field view.
"""

MISSING = object()  # the default of a field that has none


class field:
    """A field's declaration where a plain default does not say enough."""

    __slots__ = ("default", "init", "parse")

    def __init__(self, default=MISSING, *, init=True, parse=None):
        self.default, self.init, self.parse = default, init, parse


class Record:
    """Base of the frozen value types; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _specs: dict[str, field] = {}  # the field declarations, in field order

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        specs = dict(cls._specs)
        for name in cls.__dict__.get("__annotations__", ()):
            value = cls.__dict__.get(name, MISSING)
            specs[name] = spec = value if isinstance(value, field) else field(value)
            if spec.default is not MISSING:
                setattr(cls, name, spec.default)
            elif value is not MISSING:
                delattr(cls, name)
        args = [name for name, spec in specs.items() if spec.init]
        defaults = tuple(specs[name].default for name in args
                         if specs[name].default is not MISSING)
        if any(specs[name].default is MISSING for name in args[len(args) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        lines = [f"def __init__(self, {', '.join(args)}):", "    _dict = self.__dict__"]
        lines += [f"    _dict[{name!r}] = {name}" for name in args]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace: dict = {}
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__defaults__ = defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._specs, cls._fields, cls.__match_args__ = specs, tuple(specs), tuple(args)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        return self.__class__(**{**{name: getattr(self, name) for name in self.__match_args__},
                                 **changes})
