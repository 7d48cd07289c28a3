from fractions import Fraction

import pytest

from sheffermat import (
    InsufficientOrderError,
    NotInvertibleError,
    Poly,
    PolySequence,
    TruncatedSeries,
    appell_sequence,
    make_pair,
    sheffer_appell_sequence,
    sheffer_sequence,
)

from plain_fractions import power


def test_polysequence_validates_kind_and_degrees():
    PolySequence("sheffer", (Poly((1,)), Poly((0, 1))))
    with pytest.raises(ValueError):
        PolySequence("legendre", (Poly((1,)),))
    with pytest.raises(ValueError):
        PolySequence("sheffer", (Poly((1,)), Poly((1,))))


def test_polysequence_container_protocol():
    seq = PolySequence("appell", (Poly((1,)), Poly((0, 1))))
    assert len(seq) == 2
    assert seq[1] == Poly((0, 1))
    assert list(seq) == [Poly((1,)), Poly((0, 1))]


def test_appell_sequence_function():
    l = TruncatedSeries([1, 1, Fraction(1, 2), Fraction(1, 6)])
    seq = appell_sequence(l, 3)
    assert seq.kind == "appell"
    for k in range(4):
        assert seq[k] == power(Poly((-1, 1)), k)


def test_appell_sequence_rejects_non_invertible():
    with pytest.raises(NotInvertibleError):
        appell_sequence(TruncatedSeries([0, 1, 0]), 2)


def test_appell_pair_reductions():
    # For an Appell pair (l, y): sheffer == appell of l, and the
    # double-denominator variant == appell of l^2.
    pair = make_pair("hermite", 6)
    assert list(sheffer_sequence(pair, 6)) == list(appell_sequence(pair.l, 6))
    assert list(sheffer_appell_sequence(pair, 6)) == list(
        appell_sequence(pair.l * pair.l, 6)
    )


def test_degree_bounds_checked():
    pair = make_pair("monomial", 3)
    with pytest.raises(InsufficientOrderError):
        sheffer_appell_sequence(pair, 4)
    with pytest.raises(ValueError):
        sheffer_sequence(pair, -1)


def test_shared_pair_object_reuses_expansion():
    pair = make_pair("euler", 10)
    first = sheffer_appell_sequence(pair, 10)
    second = sheffer_appell_sequence(pair, 7)
    assert list(second) == list(first)[:8]
