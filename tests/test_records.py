"""The three public records: construction by position, by keyword, by
`_make` and by `_replace`, defaults, fields held as given, immutability,
equality and repr."""

import pytest

from fibpaths.automata import WeightedAutomaton
from fibpaths.contfrac import CFLevel
from fibpaths.families import PathCountReport
from fibpaths.series import poly

F, G, H = poly([0, 1], 4), poly([0, 2], 4), poly([0, 0, 3], 4)

# class, field names in order, a factory of fresh positional arguments, the
# fields as the record holds them (lists stay lists), the defaulted fields
RECORDS = [
    (CFLevel, ("f", "g", "h", "fp", "gp", "hp"), lambda: [F, G, H],
     {"f": F, "g": G, "h": H}, {"fp": None, "gp": None, "hp": None}),
    (WeightedAutomaton, ("n_states", "initial", "finals", "transitions"),
     lambda: [2, 0, [1, 0, 1], [(0, 1, F), (1, 0, G)]],
     {"n_states": 2, "initial": 0, "finals": [1, 0, 1],
      "transitions": [(0, 1, F), (1, 0, G)]}, {}),
    (PathCountReport, ("family", "k", "method", "counts"),
     lambda: ["fib", 2, "cf", [1, 1, 4]],
     {"family": "fib", "k": 2, "method": "cf", "counts": [1, 1, 4]}, {}),
]


@pytest.mark.parametrize(
    "cls, fields, args, expected, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_behaviour(cls, fields, args, expected, defaults):
    by_position = cls(*args())
    by_name = cls(**dict(zip(fields, args())))
    by_make = cls._make([*args(), *defaults.values()])
    by_replace = by_position._replace(**dict(zip(fields, args())))
    for record in (by_position, by_name, by_make, by_replace):
        for name, value in {**expected, **defaults}.items():
            got = getattr(record, name)
            assert type(got) is type(value) and got == value, name
    assert by_position == by_name == by_make == by_replace
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
    with pytest.raises(AttributeError):
        by_position.extra = 1
    text = repr(by_position)
    assert text.startswith(cls.__name__ + "(")
    assert all("%s=" % name in text for name in fields)
