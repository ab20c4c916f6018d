import cmath
import math

import pytest

from frobqec import InvalidInputError, Turn
from frobqec.rings import TURN_ZERO


def test_normalisation_into_unit_interval():
    assert Turn(5, 4) == Turn(1, 4)
    assert Turn(-1, 4) == Turn(3, 4)
    assert Turn(2, 4) == Turn(1, 2)
    assert Turn(4, 4) == TURN_ZERO
    assert Turn(0, 7) == TURN_ZERO


def test_negative_denominator_is_reduced():
    assert Turn(1, -4) == Turn(3, 4)


def test_is_zero():
    assert TURN_ZERO.is_zero
    assert not Turn(1, 2).is_zero


def test_arithmetic():
    assert Turn(1, 4) + Turn(1, 4) == Turn(1, 2)
    assert Turn(3, 4) + Turn(1, 2) == Turn(1, 4)
    assert Turn(1, 4) - Turn(1, 2) == Turn(3, 4)
    assert -Turn(1, 3) == Turn(2, 3)
    assert -TURN_ZERO == TURN_ZERO
    assert Turn(1, 6) * 3 == Turn(1, 2)
    assert 4 * Turn(1, 4) == TURN_ZERO


def test_root_is_a_count_th_root():
    for num, den in [(1, 2), (3, 4), (2, 3), (0, 1)]:
        for count in range(1, 7):
            t = Turn(num, den)
            assert t.root(count) * count == t


def test_root_rejects_bad_count():
    with pytest.raises(InvalidInputError):
        Turn(1, 2).root(0)


def test_parse_round_trip():
    for t in [TURN_ZERO, Turn(1, 4), Turn(5, 6), Turn(17, 32)]:
        assert Turn.parse(str(t)) == t
    assert Turn.parse("3") == TURN_ZERO
    assert Turn.parse("-1/4") == Turn(3, 4)


@pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1/2/3", 7, None])
def test_parse_rejects_junk(bad):
    with pytest.raises(InvalidInputError):
        Turn.parse(bad)


def test_as_complex_matches_cmath():
    for num, den in [(0, 1), (1, 4), (1, 2), (3, 4), (1, 3)]:
        want = cmath.exp(2j * math.pi * num / den)
        assert abs(Turn(num, den).as_complex() - want) < 1e-12


def test_quarter_turn_is_i():
    assert abs(Turn(1, 4).as_complex() - 1j) < 1e-12
    assert abs(Turn(1, 2).as_complex() + 1) < 1e-12


def test_hash_follows_equality():
    assert len({Turn(1, 4), Turn(5, 4), Turn(-3, 4)}) == 1
