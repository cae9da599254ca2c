"""JSON text with the bytes of ``json.dumps(value, indent=2)``.

With ``indent``, CPython's ``json`` falls back to its pure-Python encoder,
which yields every token through nested generators. The artifacts prunekit
writes (plans, unit inventories, records) are long lists of small
objects and [layer, index] pairs, so this module writes lists and non-empty
str-keyed dicts itself, each as one ``join`` of its items' texts, a list of
pairs from one template, and strings, ints and finite floats as ``json``
spells them (its ASCII escaper, ``int.__repr__``, ``float.__repr__``). Every
other value (None, bools, NaN and the infinities, tuples, empty dicts, dicts
with a non-str key, and what JSON cannot hold) goes to
``json.dumps(value, indent=2)``, re-indented. JSON text holds no raw newline
inside a string, so those bytes and errors are ``json``'s own.

``dumps`` writes any JSON value. ``texts``, ``objects`` and ``pair_arrays``
write a list of objects column by column, for callers that hold their rows as
columns or id arrays rather than as dicts and lists.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string


def dumps(value) -> str:
    """``json.dumps(value, indent=2)``: the same text, faster."""
    return _text(value, "\n")


def _text(v, ind: str) -> str:
    """The text of ``v`` whose first line starts at indentation ``ind``."""
    inner = ind + "  "
    if type(v) is list:
        if v and is_pairs(v):
            deeper = inner + "  "
            return array([f"[{deeper}{_string(name)},{deeper}{i}{inner}]" for name, i in v], ind)
        return array(texts(v, inner), ind)
    if type(v) is dict and v and all(type(k) is str for k in v):
        keys = map(_string, v)
        return "{" + inner + ("," + inner).join(map("{}: {}".format, keys, texts(v.values(), inner))) + ind + "}"
    return json.dumps(v, indent=2).replace("\n", ind)


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
