from __future__ import annotations

import json

import pytest

from hyperpd.ideals import (
    IdealError,
    Monomial,
    MonomialIdeal,
    add_variable_generator,
    colon_by_variable,
    ideal_from_json_dict,
    make_ideal,
    minimalize,
    parse_ideal,
)


def _mono(ring, exps):
    return Monomial(tuple(ring), tuple(exps))


def test_parse_juxtaposed_letters():
    I = parse_ideal("ab,bcg,cdg,de,efg")
    assert I.mu == 5
    assert I.ring == ("a", "b", "c", "g", "d", "e", "f")
    # rendering follows ring order (first appearance), not input spelling
    assert [m.to_text() for m in I.generators] == ["ab", "bcg", "cgd", "de", "gef"]


def test_parse_starred_names():
    I = parse_ideal("x1*x2,x2*x3")
    assert I.ring == ("x1", "x2", "x3")
    assert I.mu == 2


def test_parse_multichar_word_without_star_is_one_variable():
    # "x1" alone is a single name, not x*1
    I = parse_ideal("x1,y2")
    assert I.ring == ("x1", "y2")
    assert all(sum(m.exps) == 1 for m in I.generators)


def test_parse_rejects_exponents_in_ideals():
    with pytest.raises(IdealError, match="square-free"):
        parse_ideal("a^2*b,c")


def test_parse_rejects_garbage():
    with pytest.raises(IdealError):
        parse_ideal("a$b")
    with pytest.raises(IdealError):
        parse_ideal("a,,b")
    with pytest.raises(IdealError):
        parse_ideal("")


def test_parse_zero_ideal():
    I = parse_ideal("0")
    assert I.is_zero()
    assert I.mu == 0


def test_parse_unit_ideal():
    I = parse_ideal("1")
    assert I.is_unit()


def test_non_minimal_generators_dropped():
    I = parse_ideal("a,ab,bc")
    assert [m.to_text() for m in I.generators] == ["a", "bc"]


def test_duplicate_generators_keep_first():
    first, second = _mono("ab", (1, 1)), _mono("ab", (1, 1))
    kept = minimalize([first, second])
    assert len(kept) == 1 and kept[0] is first


def test_minimal_ideal_constructor_rejects_divisible_pair():
    with pytest.raises(IdealError, match="non-minimal"):
        MonomialIdeal(("a", "b"), (_mono("ab", (1, 0)), _mono("ab", (1, 1))))


def test_monomial_operations():
    a = _mono("xyz", (1, 1, 0))
    b = _mono("xyz", (0, 1, 1))
    assert a.gcd(b).to_text() == "y"
    assert a.times(b).exps == (1, 2, 1)
    assert not a.divides(b)
    assert a.gcd(b).divides(a)
    assert a.without_variable(0).to_text() == "y"
    assert a.support == (0, 1)


def test_monomial_text_forms():
    assert _mono("abc", (1, 1, 1)).to_text() == "abc"
    assert _mono("abc", (2, 0, 1)).to_text() == "a^2*c"
    assert _mono(("x1", "y"), (1, 1)).to_text() == "x1*y"
    assert _mono("a", (0,)).to_text() == "1"
    assert _mono("a", (0,)).is_one()


def test_squarefree_flags():
    assert _mono("ab", (1, 1)).is_squarefree()
    assert not _mono("ab", (2, 1)).is_squarefree()
    I = parse_ideal("ab,bc")
    assert I.is_squarefree()


def test_ideal_json_round_trip():
    I = parse_ideal("ab,bcg,cdg,de,efg")
    again = ideal_from_json_dict(json.loads(json.dumps(I.to_json_dict())))
    assert again == I
    assert again.ring == I.ring


def test_ideal_text_round_trip():
    I = parse_ideal("ab,bcg,cdg,de,efg")
    assert parse_ideal(I.to_text()) == I


def test_colon_by_variable():
    I = parse_ideal("ab,bc")
    J = colon_by_variable(I, "b")
    assert sorted(m.to_text() for m in J.generators) == ["a", "c"]
    # generators not involving the variable pass through
    K = colon_by_variable(parse_ideal("ab,cd"), "a")
    assert sorted(m.to_text() for m in K.generators) == ["b", "cd"]


def test_colon_unknown_variable():
    with pytest.raises(IdealError):
        colon_by_variable(parse_ideal("ab"), "q")


def test_add_variable_generator():
    I = parse_ideal("ab,bc")
    J = add_variable_generator(I, "b")
    assert sorted(m.to_text() for m in J.generators) == ["b"]
    with pytest.raises(IdealError):
        add_variable_generator(I, "z")


def test_make_ideal_minimalizes():
    ring = ("a", "b")
    I = make_ideal(ring, [_mono("ab", (1, 0)), _mono("ab", (1, 1))])
    assert I.mu == 1
