"""The immutable value records: backends, structure functions and virial
tables share one contract (equality, hashing, repr, immutability, validated
replace); the ring values pin their reprs and compare unequal to foreign objects."""

import copy
import pickle
from fractions import Fraction

import pytest

from qvirial import (
    DecimalBackend,
    Interpolated,
    NumberPoly,
    PowerSeries,
    QBasic,
    QBasicOfQuadratic,
    QBasicSeries,
    Quadratic,
    QuadraticOfQBasic,
    SurdBackend,
    SurdRational,
    TruncPoly,
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
        (DecimalBackend(50), "DecimalBackend(digits=50)"),
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


def values():
    """One instance of each value class that is not a record (no frozen fields), with its repr."""
    return [
        (SurdRational({1: Fraction(1, 2), 2: -3}), "SurdRational('1/2 - 3*sqrt(2)')"),
        (TruncPoly(2, {0: 1, 2: SurdRational({3: Fraction(-1, 4)})}), "TruncPoly(2, '(1) + (-1/4*sqrt(3))*eps^2')"),
        (NumberPoly([Fraction(1, 2), 1]), "NumberPoly('1/2 + 1*N')"),
        (PowerSeries(TruncPolyBackend(2), [0, 1, 3]), "PowerSeries(truncpoly[eps<=2], K=2)"),
    ]


@pytest.mark.parametrize("index", range(4), ids=[type(value).__name__ for value, _ in values()])
def test_values_have_a_pinned_repr_and_differ_from_foreign_objects(index):
    value, text = values()[index]
    assert repr(value) == text
    # NotImplemented from both sides falls back to identity: False, not None or an error
    assert (value == object()) is False and (value != object()) is True


def test_records_of_different_classes_never_compare_equal():
    assert DecimalBackend(50) == DecimalBackend(50) and hash(DecimalBackend(50)) == hash(DecimalBackend(50))
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
