"""Exact defining equations of excellent SL(2,C)-character varieties of
arborescent knots, with a Monte-Carlo matrix oracle for every formula."""

__version__ = "0.1.0"

#: residual tolerance of `verify` and `witness` when `--tol` is not given
RESIDUAL_TOL = 1e-9

#: the oracle's verification suites in run order; kept here so that the
#: CLI can list them without loading `arborchar.oracle`
SUITE_NAMES = (
    "identities",
    "tr-h",
    "power",
    "key",
    "key2",
    "base",
    "compose",
    "convenient",
    "reducible",
    "presentation",
    "pretzel",
)


class _Record:
    """Base of the immutable records that `emit` builds (tangle trees,
    invariant records, Chebyshev pairs).  A subclass lists its fields in
    ``__slots__`` and, in ``_defaults``, the default values of its last
    fields, as a function's ``__defaults__`` does; construction, equality,
    hash, repr and immutability are those of a frozen dataclass with those
    fields.  Importing `dataclasses` would cost every fresh process about
    16 ms on a 2-core x86_64 machine."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        # a frozen record cannot assign its fields, so each is set through
        # its slot's own descriptor
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per field, in field order."""
        names, defaults = cls.__slots__, cls._defaults
        first_default = len(names) - len(defaults)
        if not kwargs and first_default <= len(args) <= len(names):
            return args + defaults[len(args) - first_default:]
        values = {**dict(zip(names[first_default:], defaults)), **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[: len(args)])):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, each once")
        return tuple(values[name] for name in names)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()
