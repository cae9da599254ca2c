"""JSON text with the bytes of ``json.dumps(value, indent=2)``.

With ``indent``, CPython's ``json`` falls back to its pure-Python encoder,
which yields every token through nested generators. The artifacts prunekit
writes (plans, unit inventories, records) are long lists of small
objects and [layer, index] pairs, so here each container is one ``join`` of
its items' texts, and a list of pairs is written from one template. Scalars
are spelled as ``json`` spells them: strings through its ASCII escaper,
integers and floats through ``int.__repr__``/``float.__repr__``, and NaN and
the infinities as ``NaN``/``Infinity``/``-Infinity``.

``dumps`` writes any JSON value. ``texts``, ``objects`` and ``pair_arrays``
write a list of objects column by column, for callers that hold their rows as
columns or id arrays rather than as dicts and lists.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INF = float("inf")


def dumps(value) -> str:
    """``json.dumps(value, indent=2)``: the same text, faster."""
    return _text(value, "\n")


def _float(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


def _scalar(v) -> str:
    """The JSON text of a scalar, tested in the order ``json`` tests them."""
    if isinstance(v, str):
        return _string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key as ``json`` writes it: a string, or a scalar's text quoted."""
    if isinstance(k, str):
        return _string(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _scalar(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _text(v, ind: str) -> str:
    """The text of ``v`` whose first line starts at indentation ``ind``."""
    if isinstance(v, str):
        return _string(v)
    inner = ind + "  "
    if isinstance(v, (list, tuple)):
        if v and is_pairs(v):
            deeper = inner + "  "
            return array([f"[{deeper}{_string(name)},{deeper}{i}{inner}]" for name, i in v], ind)
        return array(texts(v, inner), ind)
    if isinstance(v, dict):
        if not v:
            return "{}"
        keys = [_string(k) if type(k) is str else _key(k) for k in v]
        return "{" + inner + ("," + inner).join(map("{}: {}".format, keys, texts(v.values(), inner))) + ind + "}"
    return _scalar(v)


def is_pairs(value) -> bool:
    """Whether ``value`` is a list of [str, int] lists (an int that is not a bool)."""
    return type(value) is list and all(
        type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is int for p in value
    )


def texts(values, ind: str) -> list[str]:
    """The text of each value at indentation ``ind``; strings, ints and finite
    floats without a call."""
    return [
        _string(v) if type(v) is str
        else int.__repr__(v) if type(v) is int
        else float.__repr__(v) if type(v) is float and v - v == 0
        else _text(v, ind)
        for v in values
    ]


def array(items: list[str], ind: str) -> str:
    """A JSON array of items already written at indentation ``ind + "  "``."""
    if not items:
        return "[]"
    inner = ind + "  "
    return "[" + inner + ("," + inner).join(items) + ind + "]"


def pair_texts(names: list[str], layer: list[int], index: list[int], ind: str) -> list[str]:
    """The text of each [names[layer[j]], index[j]] pair at indentation ``ind``."""
    encoded = [_string(n) for n in names]
    inner = ind + "  "
    return [f"[{inner}{encoded[l]},{inner}{i}{ind}]" for l, i in zip(layer, index)]


def pair_arrays(names: list[str], layer: list[int], index: list[int], bounds: list[int], ind: str) -> list[str]:
    """One JSON array per run ``bounds[i]:bounds[i + 1]`` of the pairs of
    :func:`pair_texts`, each array written at indentation ``ind``."""
    items = pair_texts(names, layer, index, ind + "  ")
    return [array(items[lo:hi], ind) for lo, hi in zip(bounds, bounds[1:])]


def objects(columns: dict[str, list[str | None]], ind: str) -> list[str]:
    """One JSON object per row, at indentation ``ind``, from columns of
    already-written value texts; a None value leaves its key out of that row."""
    inner = ind + "  "
    keys = [inner + _string(k) + ": " for k in columns]
    return [
        "{" + ",".join([k + v for k, v in zip(keys, row) if v is not None]) + ind + "}"
        for row in zip(*columns.values())
    ]
