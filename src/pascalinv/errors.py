"""Exceptions and the immutable value base shared across the layers."""


class Record:
    """Base of the immutable value classes.

    ``==`` and ``hash`` compare the ``_fields`` tuple between instances of
    the same class only, ``repr`` lists those fields, and assignment or
    deletion of any attribute raises ``AttributeError``.  Each subclass
    stores its attributes in ``__init__`` through ``vars(self)``.
    """

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PascalinvError(Exception):
    """Base class for all library errors."""


class InfiniteSumError(PascalinvError):
    """A composition or application would require summing infinitely many nonzero terms."""


class DivergentSumError(PascalinvError):
    """A classical-mode sum violates its convergence condition."""


class PoleError(PascalinvError):
    """A closed-form evaluation hits a pole of the continuation rule."""


class UnsupportedSequenceError(PascalinvError):
    """The sequence class does not support the requested operation."""


class UnsupportedPairError(PascalinvError):
    """No exact evaluation mode applies to the given pair of sequences."""


class SupportCapError(PascalinvError):
    """A request would pass a documented size cap: a pipeline would grow a
    finitely supported input past ``transforms.SUPPORT_CAP`` terms and past
    twice its own support, or a ``matrix`` block would hold more than
    ``cli._MATRIX_CAP`` entries."""


class NonIntegerSequenceError(PascalinvError):
    """The sequence prefix contains non-integer terms."""


class NetworkError(PascalinvError):
    """The search service could not be reached."""


class CacheMissError(PascalinvError):
    """Offline lookup found nothing in the cache or fixtures."""
