"""Monomials and monomial ideals.

Monomials carry full exponent vectors over a named ring (a tuple of
variable names). Square-freeness is required only where the hypergraph
construction needs it; lattice coordinatization can produce exponents
above 1, so the general representation is kept throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import le

MAX_EXPONENT = 1000  # the ideal JSON spells exponent e as e repeated indices

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class IdealError(ValueError):
    """Domain error for ideal construction and arithmetic."""


@dataclass(frozen=True)
class Monomial:
    ring: tuple[str, ...]
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.ring) != len(self.exps):
            raise IdealError("exponent vector does not match ring size")
        if min(self.exps, default=0) < 0:
            raise IdealError("negative exponent")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def is_one(self) -> bool:
        return not any(self.exps)

    def gcd(self, other: "Monomial") -> "Monomial":
        _check_ring(self, other)
        return Monomial(self.ring, tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def times(self, other: "Monomial") -> "Monomial":
        _check_ring(self, other)
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def to_text(self) -> str:
        if self.is_one():
            return "1"
        factors = []
        plain = True
        for name, e in zip(self.ring, self.exps):
            if not e:
                continue
            if len(name) > 1 or e > 1:
                plain = False
            factors.append(name if e == 1 else f"{name}^{e}")
        if plain:
            return "".join(factors)
        return "*".join(factors)

    def __str__(self):
        return self.to_text()


def _check_ring(a: Monomial, b: Monomial):
    if a.ring != b.ring:
        raise IdealError(f"ring mismatch: {a.ring} vs {b.ring}")


def monomial_from_indices(ring: tuple[str, ...], indices) -> Monomial:
    """Build a monomial from variable indices; repeats raise the exponent."""
    exps = [0] * len(ring)
    for i in indices:
        exps[i] += 1
    return Monomial(ring, tuple(exps))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by an ordered minimal generating set.

    Generator order is canonical: it fixes the vertex numbering 1..mu of
    the dual hypergraph and every trace downstream.
    """

    ring: tuple[str, ...]
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        if len(set(self.ring)) != len(self.ring):
            raise IdealError("duplicate variable names")
        for m in self.generators:
            if m.ring != self.ring:
                raise IdealError("generator in wrong ring")
        # every generator is in this ring, so exponents compare directly
        for i, j in _dividing_pairs([m.exps for m in self.generators]):
            raise IdealError(
                "non-minimal generating set: "
                f"{self.generators[i]} divides {self.generators[j]}"
            )

    @property
    def mu(self) -> int:
        return len(self.generators)

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(m.is_one() for m in self.generators)

    def is_squarefree(self) -> bool:
        return all(m.is_squarefree() for m in self.generators)

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        return ", ".join(m.to_text() for m in self.generators)

    def to_json_dict(self) -> dict:
        gens = []
        for m in self.generators:
            indices = []
            for i, e in enumerate(m.exps):
                indices.extend([i] * e)
            gens.append(indices)
        return {"variables": list(self.ring), "generators": gens}

    def __str__(self):
        return self.to_text()


def minimalize(monomials) -> list[Monomial]:
    """Drop duplicates and multiples, keeping first occurrences in order."""
    for m in monomials:
        _check_ring(m, monomials[0])
    # every monomial is in one ring, so exponents compare directly
    exps = [m.exps for m in monomials]
    # j goes when another i divides it, unless i's vector equals j's and
    # comes later: the first of equal duplicates stays
    gone = {j for i, j in _dividing_pairs(exps) if i < j or exps[i] != exps[j]}
    return [m for j, m in enumerate(monomials) if j not in gone]


def _dividing_pairs(exps):
    """Every (i, j), i != j, with vector i dividing vector j, ordered by
    i then j. A divisor's support lies in the other's, which bitmasks
    test first."""
    masks = [sum(1 << k for k, e in enumerate(a) if e) for a in exps]
    for i, (a, ma) in enumerate(zip(exps, masks)):
        for j, (b, mb) in enumerate(zip(exps, masks)):
            if not ma & ~mb and i != j and all(map(le, a, b)):
                yield i, j


def make_ideal(ring, monomials) -> MonomialIdeal:
    return MonomialIdeal(tuple(ring), tuple(minimalize(monomials)))


def parse_monomial_word(word: str, variables: list[str], offset: int = 0) -> list[tuple[int, int]]:
    """Parse one monomial word into (variable index, exponent) pairs.

    Extends `variables` in place with names in order of first
    appearance. Single ASCII letters may be juxtaposed ("abc"); longer
    names need "*" separators; "^" introduces an exponent.
    """
    word = word.strip()
    if not word:
        raise IdealError(f"empty monomial at position {offset}")
    if word == "1":
        return []

    def var_index(name):
        if name not in variables:
            variables.append(name)
        return variables.index(name)

    pairs = []
    if "*" in word or "^" in word or (_NAME_RE.fullmatch(word) and not word.isalpha()):
        for factor in word.split("*"):
            factor = factor.strip()
            if "^" in factor:
                base, _, exp_text = factor.partition("^")
                base = base.strip()
                exp_text = exp_text.strip()
                digits = exp_text.lstrip("0")
                if not (exp_text.isascii() and exp_text.isdigit() and digits):
                    raise IdealError(f"bad exponent {exp_text!r} in {word!r} at position {offset}")
                # lengths first: int() refuses strings of over 4,300 digits
                if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                    raise IdealError(f"exponent {digits} in {word!r} at position {offset} "
                                     f"exceeds the cap of {MAX_EXPONENT}")
                exp = int(digits)
            else:
                base, exp = factor, 1
            if not _NAME_RE.fullmatch(base):
                raise IdealError(f"bad variable name {base!r} at position {offset}")
            pairs.append((var_index(base), exp))
    else:
        for k, ch in enumerate(word):
            if not (ch.isascii() and ch.isalpha()):
                raise IdealError(f"bad character {ch!r} at position {offset + k}")
            pairs.append((var_index(ch), 1))
    return pairs


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse a comma-separated list of monomial words into an ideal.

    Variables are ordered by first appearance. Exponents above 1,
    counting a variable a word repeats, are rejected here (square-free
    input contract); non-minimal generators are dropped.
    """
    if text.strip() == "0":
        return MonomialIdeal((), ())
    variables: list[str] = []
    raw: list[dict[int, int]] = []
    pos = 0
    pieces = text.split(",")
    if not any(p.strip() for p in pieces):
        raise IdealError("empty generator list")
    for piece in pieces:
        word = piece.strip()
        if not word:
            raise IdealError(f"empty generator at position {pos}")
        # a variable the word repeats counts toward its exponent
        exps: dict[int, int] = {}
        for i, e in parse_monomial_word(word, variables, offset=pos + piece.index(word)):
            exps[i] = exps.get(i, 0) + e
        for i, e in exps.items():
            if e >= 2:
                raise IdealError(
                    f"exponent {e} on {variables[i]!r} in {word!r}: input ideals must be square-free"
                )
        raw.append(exps)
        pos += len(piece) + 1
    ring = tuple(variables)
    return make_ideal(ring, [monomial_from_indices(ring, exps) for exps in raw])


def is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer; JSON's true and false
    come back as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def ideal_from_json_dict(data: dict) -> MonomialIdeal:
    try:
        variables = data["variables"]
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise IdealError(f"missing ideal JSON field: {exc}")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise IdealError("ideal JSON variables must be a list of names")
    ring = tuple(variables)
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise IdealError("ideal JSON generators must be lists of variable indices")
    for g in gens:
        for i in g:
            if not is_json_int(i) or not 0 <= i < len(ring):
                raise IdealError(
                    f"generator {g} uses variable index {i!r}, outside 0..{len(ring) - 1}"
                )
    monomials = [monomial_from_indices(ring, indices) for indices in gens]
    return make_ideal(ring, monomials)

