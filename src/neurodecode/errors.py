"""Exception taxonomy shared across the package, the field-type check
every JSON record the package reads goes through, and the seed check.

The CLI maps these onto process exit codes: usage errors exit 1, data
errors exit 2, numeric failures exit 3.
"""


class NeurodecodeError(Exception):
    """Base class for all package-raised errors."""


class UsageError(NeurodecodeError):
    """Bad command-line usage or invalid configuration."""


class DataError(NeurodecodeError):
    """Malformed, missing or inconsistent data files."""


class BadMagicError(DataError):
    """Container file does not start with the expected magic bytes."""


class VersionMismatchError(DataError):
    """Container file declares an unsupported format version."""


class TruncatedPayloadError(DataError):
    """Container payload is shorter than its header promises."""


class MetaMismatchError(DataError):
    """Sidecar metadata disagrees with the tensor header."""


class NumericError(NeurodecodeError):
    """Non-finite values or a numerically failed computation."""


# The JSON kinds a field may hold: int (an exact int, so a JSON true is no
# count), float (any number but a bool), str, None, "digits" (decimal text,
# as csv columns hold), [kind] for a list of that kind, or a tuple of kinds.
_KIND_NAMES = {int: "int", float: "number", str: "str", None: "null", "digits": "decimal digits"}


def _is_kind(value, kind) -> bool:
    if type(value) is kind:  # the common case: an int, float or str field
        return True
    if type(kind) is tuple:
        return any(_is_kind(value, k) for k in kind)
    if type(kind) is list:
        return type(value) is list and all(_is_kind(v, kind[0]) for v in value)
    if kind == "digits":
        return type(value) is str and value.isdecimal()
    return (kind is float and type(value) is int) or (kind is None and value is None)


def _kind_name(kind) -> str:
    if type(kind) is tuple:
        return " or ".join(map(_kind_name, kind))
    return f"list of {_kind_name(kind[0])}" if type(kind) is list else _KIND_NAMES[kind]


def check_fields(record, kinds: dict, where, error=DataError, required=None) -> dict:
    """Return ``record`` if it is a JSON object whose fields have their ``kinds``.

    Otherwise raise ``error`` naming ``where`` (the file read), the field
    and the bad value.  A field of ``kinds`` may be absent only if
    ``required`` (by default all of ``kinds``) leaves it out; fields
    outside ``kinds`` are not checked.
    """
    if not isinstance(record, dict):
        raise error(f"{where}: record is not a JSON object: {record!r}")
    for name, kind in kinds.items():
        if name in record:
            if not _is_kind(record[name], kind):
                raise error(f"{where}: field {name!r} must be {_kind_name(kind)}, got {record[name]!r}")
        elif required is None or name in required:
            raise error(f"{where}: missing field {name!r}")
    return record


def check_seed(seed: int) -> None:
    """numpy's seed sequences take only non-negative integers."""
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
