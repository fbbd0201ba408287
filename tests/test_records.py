"""The immutable value records: backends, structure functions and virial
tables share one contract (equality, hashing, repr, immutability, validated
replace)."""

import copy
import pickle
from fractions import Fraction

import pytest

from qvirial import (
    DecimalBackend,
    Interpolated,
    QBasic,
    QBasicOfQuadratic,
    QBasicSeries,
    Quadratic,
    QuadraticOfQBasic,
    SurdBackend,
    TruncPolyBackend,
    particle_series,
    virial_coefficients,
)


def records():
    """One fresh instance of each record class, with its repr."""
    sf = QBasic(Fraction(3, 2))
    return [
        (SurdBackend(), "SurdBackend()"),
        (TruncPolyBackend(3), "TruncPolyBackend(order=3)"),
        (DecimalBackend(), "DecimalBackend(digits=50)"),
        (sf, "QBasic(q=Fraction(3, 2))"),
        (Quadratic(Fraction(1, 4)), "Quadratic(mu=Fraction(1, 4))"),
        (QuadraticOfQBasic(Fraction(1, 3), Fraction(7, 5)), "QuadraticOfQBasic(mu=Fraction(1, 3), q=Fraction(7, 5))"),
        (QBasicOfQuadratic(Fraction(3, 2), Fraction(1, 7)), "QBasicOfQuadratic(q=Fraction(3, 2), mu=Fraction(1, 7))"),
        (Interpolated(Fraction(1, 2), Fraction(1, 7), Fraction(3, 2)),
         "Interpolated(t=Fraction(1, 2), mu=Fraction(1, 7), q=Fraction(3, 2))"),
        (QBasicSeries(4), "QBasicSeries(order=4)"),
        (virial_coefficients(particle_series(sf, 3)),
         "VirialTable(values=(SurdRational('1'), SurdRational('-5/32*sqrt(2)'), "
         "SurdRational('25/128 - 19/162*sqrt(3)')), first_nonpositive_phi=None)"),
    ]


def ids():
    return [type(record).__name__ for record, _ in records()]


@pytest.mark.parametrize("index", range(10), ids=ids())
def test_records_are_values(index):
    (record, text), (twin, _) = records()[index], records()[index]
    assert record == twin and not record != twin and record is not twin
    assert repr(record) == text
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    assert not hasattr(record, "__dict__")
    assert hash(record) == hash(twin)


@pytest.mark.parametrize("index", range(10), ids=ids())
def test_records_are_immutable(index):
    record, _ = records()[index]
    for name in type(record).__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_of_different_classes_never_compare_equal():
    assert DecimalBackend() == DecimalBackend(50) and hash(DecimalBackend()) == hash(DecimalBackend(50))
    assert QBasic(2) != Quadratic(2)
    assert TruncPolyBackend(4) != QBasicSeries(4)  # the same field tuple, ("order",) = (4,)
    assert QBasic(2) != (Fraction(2),)


def test_replace_coerces_and_validates_again():
    assert QBasic(2).replace(q=3) == QBasic(3) and isinstance(QBasic(2).replace(q=3).q, Fraction)
    with pytest.raises(ValueError):
        QBasic(2).replace(q=1)
    with pytest.raises(ValueError):
        Interpolated(0, 0, 2).replace(q=-1)
    with pytest.raises(TypeError):
        Quadratic(0).replace(q=2)  # no such field
