"""The one base class of the package's records.

A record names its fields once, in the class attribute `_fields`, and
sets them in its own `__init__`.  Records compare equal field by field and
only to an instance of the same class, hash as the tuple of their fields
(a report that fills in as it goes sets `__hash__ = None`), and print as
`Cls(field=value, ...)` in field order.  No code is generated: the three
methods read `_fields` when they run.
"""


class Record:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, f) for f in self._fields]))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({body})"
