"""``error_text`` and ``error_from_text`` are inverses."""

import pytest

from repro import errors
from repro.errors import ReproError, error_from_text, error_text

SUBCLASSES = sorted(
    (
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, ReproError)
    ),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_error_text_round_trips(cls):
    original = cls("query 7: boom: at morsel 3")
    text = error_text(original)
    assert text == f"{cls.__name__}: query 7: boom: at morsel 3"
    restored = error_from_text(text)
    assert type(restored) is cls
    assert str(restored) == str(original)
    assert error_text(restored) == text


def test_foreign_exception_falls_back_to_repro_error():
    restored = error_from_text(error_text(ValueError("bad")))
    assert type(restored) is ReproError
    assert str(restored) == "ValueError: bad"
