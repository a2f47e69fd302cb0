"""The declared field vocabulary that reads payloads, scenario files, the
genesis config and block lines, and the helpers that validated values share;
it imports nothing of the package, so the CLI declares its scenario kinds
without loading the chain layer."""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping, Optional, Sequence

#: A declared field of a JSON object: its name, its type (a key of
#: `_JSON_TYPES`; None for any value), its default if it is optional (None:
#: required; `OPTIONAL`: left out when absent), and the fields of the record
#: that an object, or each item of a list, must be.  A list of records is
#: "a list" with a record.
Field = namedtuple("Field", "name type default record", defaults=[None, ()])
OPTIONAL = object()
_ABSENT = object()
_DOUBLE_BOUND = 2**1024 - 2**970  # `float()` of an integer this large overflows


#: `_make`, and so `_replace`, through a named tuple's own checking `__new__`.
_checked_make = classmethod(lambda cls, values: cls(*values))


def as_rational(value):
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction.  Floats
    are refused: exact payoffs must not carry binary rounding noise."""
    from fractions import Fraction  # only the verbs that read a rational load it
    if isinstance(value, str):
        value = value.strip()
    elif isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact rational required, got {value!r}")
    return Fraction(value)


def _json_carries(text: str) -> bool:
    """Whether JSON reads `text` back as it is.  JSON writes a high surrogate
    followed by a low one as two escapes, which read back, and seal, as the
    one character that the pair encodes in UTF-16."""
    return text.isascii() or text == text.encode(
        "utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def _strings(value) -> bool:
    """True for a list or tuple of strings; a string alone is not one."""
    return isinstance(value, (list, tuple)) and all(isinstance(s, str) for s in value)


#: The one type table: a type -> the Python types that hold it, and a test a
#: held value must also pass.  A bool is only ever "a boolean", a tuple counts
#: as a list, and a number must fit a double.
_JSON_TYPES = {
    "a string": (str, None), "an integer": (int, lambda n: type(n) is not bool),
    "a number": ((int, float), lambda n: type(n) is not bool and (
        isinstance(n, float) or abs(n) < _DOUBLE_BOUND)),
    "a boolean": (bool, None), "an object": (dict, None), "a list": ((list, tuple), None),
    "a list of strings": ((list, tuple), _strings), None: (object, None)}


class FieldError(Exception):
    """A value its declared field refuses: `path` names it (`trades[0].shares`),
    `expected` is the declared type, and `missing` is true if it is absent."""

    def __init__(self, path: str, expected: Optional[str], missing: bool = False):
        super().__init__(path, expected, missing)
        self.path, self.expected, self.missing = path, expected, missing


def check_fields(obj: Mapping, fields: Sequence[Field], path: str = "") -> dict:
    """Each field's value in `obj`, or its default, after JSON Schema's `type`,
    `required` and `items` keywords: nothing is converted, and a record's
    fields are checked and returned in their turn.  Raises FieldError for the
    first value refused; `path` prefixes the path it names."""
    checked = {}
    for name, kind, default, record in fields:
        value = obj.get(name, _ABSENT)
        if value is _ABSENT:
            if default is None:
                raise FieldError(path + name, kind, missing=True)
            if default is not OPTIONAL:
                checked[name] = default
            continue
        types, test = _JSON_TYPES[kind]
        if not isinstance(value, types) or test is not None and not test(value):
            raise FieldError(path + name, kind)
        if record and kind == "a list":
            value = [_check_record(item, record, f"{path}{name}[{i}]")
                     for i, item in enumerate(value)]
        elif record:
            value = _check_record(value, record, path + name)
        checked[name] = value
    return checked


def _check_record(item, record: Sequence[Field], path: str) -> dict:
    if not isinstance(item, dict):
        raise FieldError(path, "an object")
    return check_fields(item, record, path + ".")
