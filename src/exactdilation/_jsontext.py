"""The one JSON writer of reports, problem files and operator dumps."""

import json
from json.encoder import encode_basestring_ascii

__all__ = ["json_text"]

# the ASCII characters JSON writes as they are, read off the json module's encoder
_PLAIN = bytes(c for c in range(128) if encode_basestring_ascii(chr(c)) == f'"{chr(c)}"')


def _leaf(leaf) -> str:
    """The JSON text of ``leaf``, as the json module writes it: a string by its
    string encoder, the one ``json.dumps`` calls for a string, an int by
    ``int.__repr__``, as its encoder does, any other leaf by ``json.dumps``."""
    kind = type(leaf)
    if kind is str:
        return encode_basestring_ascii(leaf)
    return int.__repr__(leaf) if kind is int else json.dumps(leaf)


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, written directly: with
    ``indent`` the json module encodes in pure Python.

    ``obj`` nests dicts with string keys, lists and tuples.  Escaping stays
    the json module's (``_leaf``).  A list of strings, such as a row of
    scalar text, and a list of such lists, such as a grid, are written by
    joins alone when every character of their strings is one that the
    module's encoder writes as it is (``_PLAIN``), checked once for all.
    """
    return _write(obj, "\n") + "\n"


def _write(value, pad: str) -> str:
    """The JSON text of ``value``, its lines after the first indented by ``pad``."""
    if not isinstance(value, (dict, list, tuple)):
        return _leaf(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + _write(v, inner)
                 for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        if value and _plain(value):  # a row of scalar text
            return _rows([value], pad)[0]
        if set(map(type, value)) <= {list, tuple} and _plain(map("".join, value)):  # a grid
            items = _rows(value, inner)
        else:
            items = [_write(x, inner) for x in value]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _plain(strings) -> bool:
    """Whether ``strings`` are all strings that JSON writes as they are."""
    try:
        joined = "".join(strings)
    except TypeError:  # not all of them are strings
        return False
    return joined.isascii() and not joined.encode().translate(None, _PLAIN)


def _rows(rows, pad: str) -> list:
    """The JSON text of each list of ``_plain`` strings in ``rows``, one level below ``pad``."""
    inner = pad + "  "
    head, sep, tail = f'[{inner}"', f'",{inner}"', f'"{pad}]'
    return [head + sep.join(row) + tail if row else "[]" for row in rows]
