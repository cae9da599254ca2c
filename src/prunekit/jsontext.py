"""JSON text with the bytes of ``json.dumps(value, indent=2)``, column by column.

With ``indent``, CPython's ``json`` falls back to its pure-Python encoder,
which yields every token through nested generators. The artifacts prunekit
writes (plans, unit inventories, records) are long lists of small objects
and [layer, index] pairs, so this module writes a list of objects from one
column of value texts per key, each object as one join, and each list of
pairs from one pair template. Strings, ints and finite floats are spelled
as ``json`` spells them (its ASCII escaper, ``int.__repr__``,
``float.__repr__``); every other value goes to :func:`text`, which is
``json.dumps(value, indent=2)`` re-indented. JSON text holds no raw newline
inside a string, so those bytes and errors are ``json``'s own.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter


def text(value, ind: str) -> str:
    """``json.dumps(value, indent=2)`` with its first line at indentation ``ind``."""
    return json.dumps(value, indent=2).replace("\n", ind)


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
        else text(v, ind)
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


def pair_lists(values: list, ind: str) -> list[str]:
    """The text of each value at indentation ``ind``: when every value is a
    list of [str, int] pairs, which is checked in bulk over all the pairs,
    from :func:`pair_arrays`, and otherwise from :func:`text`."""
    pairs = list(chain.from_iterable(values)) if set(map(type, values)) <= {list} else [None]
    if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
        firsts, index = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
        if set(map(type, firsts)) <= {str} and set(map(type, index)) <= {int}:
            code = {name: i for i, name in enumerate(dict.fromkeys(firsts))}
            bounds = list(accumulate(map(len, values), initial=0))
            return pair_arrays(list(code), list(map(code.__getitem__, firsts)), index, bounds, ind)
    return [text(v, ind) for v in values]


def objects(columns: dict[str, list[str | None]], ind: str) -> list[str]:
    """One JSON object per row, at indentation ``ind``, from columns of
    already-written value texts; a None value leaves its key out of that row."""
    inner = ind + "  "
    keys = [inner + _string(k) + ": " for k in columns]
    return [
        "{" + ",".join([k + v for k, v in zip(keys, row) if v is not None]) + ind + "}"
        for row in zip(*columns.values())
    ]
