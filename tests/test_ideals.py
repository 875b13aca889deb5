from __future__ import annotations

import json
import random
import re

import pytest

from hyperpd.ideals import (
    IdealError,
    Monomial,
    MonomialIdeal,
    ideal_from_json_dict,
    make_ideal,
    minimalize,
    parse_ideal,
    parse_monomial_word,
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


@pytest.mark.parametrize("text, exponent", [
    ("aa", 2), ("a*a", 2), ("a^1*a", 2), ("a*b*a", 2), ("a^2*a", 3),
])
def test_a_repeated_variable_counts_toward_its_exponent(text, exponent):
    with pytest.raises(IdealError) as info:
        parse_ideal(f"{text},bc")
    assert str(info.value) == (
        f"exponent {exponent} on 'a' in {text!r}: input ideals must be square-free"
    )


def test_parse_rejects_garbage():
    with pytest.raises(IdealError):
        parse_ideal("a$b")
    with pytest.raises(IdealError):
        parse_ideal("a,,b")
    with pytest.raises(IdealError):
        parse_ideal("")


@pytest.mark.parametrize("text, message", [
    ("\u00e9", "bad character '\u00e9' at position 0"),
    ("ab,x\u00e9", "bad character '\u00e9' at position 4"),
    ("\u00e9*a", "bad variable name '\u00e9' at position 0"),
    ("ab,x*\u00e9", "bad variable name '\u00e9' at position 3"),
])
def test_letters_are_ascii_juxtaposed_or_starred(text, message):
    """A juxtaposed letter is an ASCII letter, as a starred name is."""
    with pytest.raises(IdealError) as err:
        parse_ideal(text)
    assert str(err.value) == message


def test_exponents_up_to_the_cap_parse():
    assert parse_monomial_word("a^1000*b^007", []) == [(0, 1000), (1, 7)]


@pytest.mark.parametrize("exp", ["1001", "3000000", "9" * 5000], ids=["1001", "3e6", "5000-digits"])
def test_exponent_over_the_cap_is_refused(exp):
    # 5,000 digits is past what int() converts from a string
    with pytest.raises(IdealError) as err:
        parse_monomial_word(f"a^{exp}", [])
    assert str(err.value) == f"exponent {exp} in 'a^{exp}' at position 0 exceeds the cap of 1000"


@pytest.mark.parametrize("exp", ["0", "000", "\u00b2", "\u0663", "-1", ""])
def test_exponent_must_be_ascii_digits_above_zero(exp):
    with pytest.raises(IdealError, match="bad exponent"):
        parse_monomial_word(f"a^{exp}", [])


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


def test_minimalize_keeps_first_of_each_minimal_exponent_vector():
    # lists drawn with duplicates and multiples; the expected list is the
    # first occurrence of each exponent vector that no other divides
    rng = random.Random(17)
    ring = "abcd"
    for _ in range(300):
        monomials = [_mono(ring, [rng.randrange(4) for _ in ring]) for _ in range(rng.randrange(1, 9))]
        monomials += [_mono(ring, m.exps) for m in rng.sample(monomials, rng.randrange(len(monomials) + 1))]
        rng.shuffle(monomials)
        vectors = {m.exps for m in monomials}
        minimal = {
            e for e in vectors
            if not any(f != e and all(x <= y for x, y in zip(f, e)) for f in vectors)
        }
        seen, expected = set(), []
        for m in monomials:
            if m.exps in minimal and m.exps not in seen:
                seen.add(m.exps)
                expected.append(m)
        kept = minimalize(monomials)
        assert len(kept) == len(expected)
        assert all(k is e for k, e in zip(kept, expected))


def test_minimal_ideal_constructor_rejects_divisible_pair():
    with pytest.raises(IdealError, match="non-minimal"):
        MonomialIdeal(("a", "b"), (_mono("ab", (1, 0)), _mono("ab", (1, 1))))


def test_minimal_ideal_constructor_refuses_exactly_the_divisible_pairs():
    # exponents 0-3 over five variables, so supports nest often while
    # exponents still decide; the refusal names the first pair (i, j),
    # in row order, where generator i divides generator j
    rng = random.Random(19)
    ring = "abcde"
    refused = 0
    for _ in range(400):
        gens = [_mono(ring, [rng.choice((0, 0, 1, 2, 3)) for _ in ring]) for _ in range(rng.randrange(1, 7))]
        pairs = [
            (a, b)
            for i, a in enumerate(gens)
            for j, b in enumerate(gens)
            if i != j and all(x <= y for x, y in zip(a.exps, b.exps))
        ]
        if pairs:
            refused += 1
            a, b = pairs[0]
            with pytest.raises(IdealError, match=re.escape(f"non-minimal generating set: {a} divides {b}") + "$"):
                MonomialIdeal(tuple(ring), tuple(gens))
        else:
            assert MonomialIdeal(tuple(ring), tuple(gens)).generators == tuple(gens)
    assert 100 <= refused <= 300


def test_monomial_operations():
    a = _mono("xyz", (1, 1, 0))
    b = _mono("xyz", (0, 1, 1))
    assert a.gcd(b).to_text() == "y"
    assert a.times(b).exps == (1, 2, 1)
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


def test_make_ideal_minimalizes():
    ring = ("a", "b")
    I = make_ideal(ring, [_mono("ab", (1, 0)), _mono("ab", (1, 1))])
    assert I.mu == 1
    with pytest.raises(IdealError, match="ring mismatch"):
        minimalize([_mono("ab", (1, 0)), _mono("ac", (1, 1))])
