"""The JSON field types of every config object, and the one checker that
reads them.

TABLES holds one table per object: the top level, `sweep`, curve, codec,
overlay and dimension check.  Each maps a field to its type, and names the
fields the object must have.  Every type has one rule:

  integer   a JSON integer, or a float with no fractional part; becomes int
  number    a JSON integer or float; becomes float
  string    a JSON string
  label     a string with a non-space character and no comma or line break,
            as a CSV cell and a summary line need
  list      a JSON array of entries of one type; becomes a tuple
  object    a JSON object, checked against its own table where it is read
  version   the one schema_version there is, SCHEMA_VERSION

An integer or a number is never true or false.  A field typed `or_null`
also takes null, and is null by default.  Range and cross-field rules
belong to the code that reads the values (CodecSpec, BoundSpec,
harness.check_sweep_settings and check_snr_grid, analysis.box_sizes,
cli.parse_config); refuse_unread refuses a field a spec's kind ignores.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Callable, NamedTuple

SCHEMA_VERSION = 1


class JsonType(NamedTuple):
    noun: str                    # as messages say it: "an integer"
    rule: Callable = None        # value -> converted value, or None if refused
    entry: JsonType = None       # a list's entry type
    entry_noun: str = ""         # a list entry, as messages say it; {i} is its index
    null: bool = False


def _integer(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _number(value):
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return None
    return None


INTEGER = JsonType("an integer", _integer)
NUMBER = JsonType("a number", _number)
STRING = JsonType("a string", lambda v: v if isinstance(v, str) else None)
# A label holds none of the characters str.splitlines breaks on (\r, \v,
# \x85 and U+2028 among them), since a CSV or summary reader may split there.
LABEL = JsonType("a non-empty string with no comma or line break",
                 lambda v: v if isinstance(v, str) and v.strip()
                 and "," not in v and v.splitlines() == [v] else None)
OBJECT = JsonType("an object", lambda v: v if isinstance(v, dict) else None)
VERSION = JsonType(str(SCHEMA_VERSION),
                   lambda v: v if _integer(v) == SCHEMA_VERSION else None)


def list_of(entry: JsonType, noun: str) -> JsonType:
    return JsonType("a list", entry=entry, entry_noun=noun)


def or_null(kind: JsonType) -> JsonType:
    return kind._replace(null=True)


class Table(NamedTuple):
    types: dict
    required: tuple = ()


TABLES = {
    "top-level": Table({
        "schema_version": VERSION,
        "name": LABEL,
        "title": STRING,
        "master_seed": INTEGER,
        "snr_grid_db": list_of(NUMBER, "snr_grid_db: snr grid entry"),
        "sweep": OBJECT,
        "curves": list_of(OBJECT, "curves[{i}]: curve"),
        "overlays": list_of(OBJECT, "overlays[{i}]: overlay"),
        "dimension_checks": list_of(OBJECT, "dimension_checks[{i}]: dimension check"),
    }, required=("schema_version",)),
    "sweep": Table({
        "min_trials": INTEGER,
        "max_trials": INTEGER,
        "rel_se_target": NUMBER,
    }),
    "curve": Table({
        "label": LABEL,
        "codec": OBJECT,
        "snr_grid_db": list_of(NUMBER, "snr_grid_db: snr grid entry"),
        "fit_window_db": or_null(list_of(NUMBER, "fit_window_db entry")),
    }, required=("label", "codec")),
    "codec": Table({
        "scheme": STRING,
        "n": INTEGER,
        "a": or_null(INTEGER),
        "alpha": or_null(NUMBER),
        "k": or_null(INTEGER),
        "p": INTEGER,
        "grouping_variant": STRING,
    }, required=("scheme", "n")),
    "overlay": Table({
        "kind": STRING,
        "n": INTEGER,
        "alpha": or_null(NUMBER),
        "m": or_null(INTEGER),
        "scale": NUMBER,
        "rate": NUMBER,
        "anchor": or_null(STRING),
        "label": or_null(LABEL),
    }, required=("kind", "n")),
    "dimension check": Table({
        "label": LABEL,
        "codec": OBJECT,
        "epsilons": or_null(list_of(NUMBER, "epsilon")),
        "samples": INTEGER,
    }, required=("label", "codec")),
}


def _value(kind: JsonType, value, head: str, name: str):
    if value is None and kind.null:
        return None
    if kind.entry is not None:
        if isinstance(value, (list, tuple)):
            return tuple(_value(kind.entry, v, head, kind.entry_noun.format(i=i))
                         for i, v in enumerate(value))
        converted = None
    else:
        converted = kind.rule(value)
    if converted is None:
        raise ValueError(f"{head}{name} must be {kind.noun}, got {value!r}")
    return converted


def checked(data, what: str, head: str = "") -> dict:
    """data's fields, each converted by its type in TABLES[what].

    Raises ValueError if data is not an object, or has a field the table
    does not know, lacks a field it requires, or holds a value its type
    refuses.  head prefixes each field's name in the message.
    """
    table = TABLES[what]
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    for key in data:
        if key not in table.types:
            raise ValueError(f"unknown {what} field {key!r}")
    for key in table.required:
        if key not in data:
            raise ValueError(f"{head}{key} must be {table.types[key].noun}")
    return {key: _value(table.types[key], value, head, key)
            for key, value in data.items()}


def check_fields(spec, what: str) -> None:
    """Check a frozen dataclass's fields against TABLES[what] and store
    each converted value in place; raises as checked does."""
    values = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    for name, value in checked(values, what).items():
        object.__setattr__(spec, name, value)


def refuse_unread(spec, owner: str, reads: tuple) -> None:
    """Refuse a dataclass field outside reads that is set: not None, or not
    its default where that is not None.  owner would ignore it."""
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if field.name not in reads and (
                value is not None if field.default is None else value != field.default):
            raise ValueError(f"{owner} does not read {field.name}")
