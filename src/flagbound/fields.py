"""The one reader of JSON input: batch records and lemma input objects.

Each field must hold exactly the JSON type its spec names.  An integer is a
JSON integer, never a float, a numeric string or a boolean; a list of
integers is accepted only where one is expected; a boolean only where a
flag is.  Nothing is coerced, so a record either means what it says or is
refused with a ValidationError.
"""

from __future__ import annotations

from .errors import ValidationError

INT = "an integer"
INTS = "a list of integers"
OBJECT = "an object"
BOOL = "true or false"


def _fits(value: object, kind: str) -> bool:
    if kind == INT:
        return type(value) is int
    if kind == INTS:
        return type(value) is list and all(type(v) is int for v in value)
    if kind == OBJECT:
        return type(value) is dict
    return type(value) is bool


def read_fields(
    data: object, spec: dict[str, str], what: str, optional: dict | None = None
) -> list:
    """The values of spec's fields in data, in spec order.

    spec maps each field name to its kind (INT, INTS, OBJECT or BOOL);
    optional maps the names that may be absent to the value they then take.
    Fields outside spec are ignored.
    """
    if type(data) is not dict:
        raise ValidationError(f"malformed {what}: expected an object, got {type(data).__name__}")
    values = []
    for name, kind in spec.items():
        if name in data:
            value = data[name]
        elif optional and name in optional:
            value = optional[name]
        else:
            missing = [n for n in spec if n not in data and not (optional and n in optional)]
            raise ValidationError(f"malformed {what}: missing fields: {', '.join(missing)}")
        if not _fits(value, kind):
            raise ValidationError(
                f"malformed {what}: field {name!r} must be {kind}, got {type(value).__name__}"
            )
        values.append(value)
    return values
