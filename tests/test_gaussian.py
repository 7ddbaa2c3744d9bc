import copy
import pickle
import random
from fractions import Fraction

import pytest

from wsimplex import GaussianRational


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(3, 2), -1)
    assert a + b == GaussianRational(Fraction(5, 2), 1)
    assert a - b == GaussianRational(Fraction(-1, 2), 3)
    # (1+2i)(3/2-i) = 3/2 - i + 3i + 2 = 7/2 + 2i
    assert a * b == GaussianRational(Fraction(7, 2), 2)
    assert (a * b) / b == a
    assert -a == GaussianRational(-1, -2)
    assert a.conjugate() == GaussianRational(1, -2)
    assert a * a.conjugate() == 5
    assert a.abs2() == 5


def test_int_and_fraction_mixing():
    a = GaussianRational(2)
    assert a + 1 == 3
    assert 1 + a == 3
    assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)
    assert GaussianRational(1) / 2 == Fraction(1, 2)
    assert 1 - a == -1
    assert 6 / GaussianRational(3) == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_predicates():
    assert GaussianRational(3).is_integer()
    assert not GaussianRational(Fraction(1, 2)).is_integer()
    assert not GaussianRational(1, 1).is_integer()
    assert GaussianRational(Fraction(1, 2)).is_real()
    assert not GaussianRational(0, 1).is_real()
    assert not GaussianRational(0)
    assert GaussianRational(0, 1)
    assert int(GaussianRational(-7)) == -7
    with pytest.raises(ValueError):
        int(GaussianRational(Fraction(1, 2)))
    with pytest.raises(ValueError):
        float(GaussianRational(0, 1))
    assert complex(GaussianRational(1, -2)) == 1 - 2j


def test_hash_consistent_with_eq():
    assert hash(GaussianRational(3)) == hash(3)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    d = {GaussianRational(2): "a"}
    assert d[GaussianRational(2)] == "a"


@pytest.mark.parametrize("text,re_,im_", [
    ("3", 3, 0),
    ("-7", -7, 0),
    ("3/2", Fraction(3, 2), 0),
    ("-3/2", Fraction(-3, 2), 0),
    ("1+2i", 1, 2),
    ("1-2i", 1, -2),
    ("1/2+3/4i", Fraction(1, 2), Fraction(3, 4)),
    ("-1/2-3/4i", Fraction(-1, 2), Fraction(-3, 4)),
    ("0+1i", 0, 1),
])
def test_parse(text, re_, im_):
    assert GaussianRational.from_string(text) == GaussianRational(re_, im_)


@pytest.mark.parametrize("bad", ["", "i", "1.5", "2i", "1+i", "1 + 2 j",
                                 "3/0x", "one", "1e3", "++2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        GaussianRational.from_string(bad)


def test_str_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        v = GaussianRational(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
        )
        assert GaussianRational.from_string(str(v)) == v


def test_immutable():
    v = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        v.re = Fraction(5)


@pytest.mark.parametrize("value", [GaussianRational(2), GaussianRational(0),
                                   GaussianRational(Fraction(-3, 4), Fraction(5, 6))])
def test_pickle_and_copy_round_trip(value):
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is GaussianRational
        assert again == value and str(again) == str(value) and hash(again) == hash(value)
    with pytest.raises(AttributeError):
        copy.deepcopy(value).re = Fraction(5)
