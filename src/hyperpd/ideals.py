"""Monomials and monomial ideals.

Monomials carry full exponent vectors over a named ring (a tuple of
variable names). Square-freeness is required only where the hypergraph
construction needs it; lattice coordinatization can produce exponents
above 1, so the general representation is kept throughout.

Rings are capped at 64 variables. That is an input limit only:
nothing here depends on it, and ROADMAP.md plans to lift it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MAX_RING_VARIABLES = 64

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
        if any(e < 0 for e in self.exps):
            raise IdealError("negative exponent")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def is_one(self) -> bool:
        return not any(self.exps)

    def divides(self, other: "Monomial") -> bool:
        _check_ring(self, other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def gcd(self, other: "Monomial") -> "Monomial":
        _check_ring(self, other)
        return Monomial(self.ring, tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def times(self, other: "Monomial") -> "Monomial":
        _check_ring(self, other)
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def without_variable(self, index: int) -> "Monomial":
        """Divide by the variable once (colon); no-op when it is absent."""
        exps = list(self.exps)
        if exps[index] > 0:
            exps[index] -= 1
        return Monomial(self.ring, tuple(exps))

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
        if len(self.ring) > MAX_RING_VARIABLES:
            raise IdealError(f"rings are capped at {MAX_RING_VARIABLES} variables")
        if len(set(self.ring)) != len(self.ring):
            raise IdealError("duplicate variable names")
        for m in self.generators:
            if m.ring != self.ring:
                raise IdealError("generator in wrong ring")
        # every generator is in this ring, so exponents compare directly
        exps = [m.exps for m in self.generators]
        for i, a in enumerate(exps):
            for j, b in enumerate(exps):
                if i != j and all(x <= y for x, y in zip(a, b)):
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
    kept = []
    for idx, m in enumerate(monomials):
        redundant = False
        for jdx, other in enumerate(monomials):
            if jdx == idx:
                continue
            if other.divides(m) and not (m.divides(other) and jdx > idx):
                # the parenthesized clause keeps the FIRST of equal duplicates
                redundant = True
                break
        if not redundant:
            kept.append(m)
    return kept


def make_ideal(ring, monomials) -> MonomialIdeal:
    return MonomialIdeal(tuple(ring), tuple(minimalize(monomials)))


def parse_monomial_word(word: str, variables: list[str], offset: int = 0) -> list[tuple[int, int]]:
    """Parse one monomial word into (variable index, exponent) pairs.

    Extends `variables` in place with names in order of first
    appearance. Single letters may be juxtaposed ("abc"); multi-letter
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
                if not exp_text.isdigit() or int(exp_text) < 1:
                    raise IdealError(f"bad exponent {exp_text!r} in {word!r} at position {offset}")
                exp = int(exp_text)
            else:
                base, exp = factor, 1
            if not _NAME_RE.fullmatch(base):
                raise IdealError(f"bad variable name {base!r} at position {offset}")
            pairs.append((var_index(base), exp))
    else:
        for k, ch in enumerate(word):
            if not ch.isalpha():
                raise IdealError(f"bad character {ch!r} at position {offset + k}")
            pairs.append((var_index(ch), 1))
    return pairs


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse a comma-separated list of monomial words into an ideal.

    Variables are ordered by first appearance. Exponents above 1 are
    rejected here (square-free input contract); non-minimal generators
    are dropped.
    """
    if text.strip() == "0":
        return MonomialIdeal((), ())
    variables: list[str] = []
    raw: list[list[tuple[int, int]]] = []
    pos = 0
    pieces = text.split(",")
    if not any(p.strip() for p in pieces):
        raise IdealError("empty generator list")
    for piece in pieces:
        word = piece.strip()
        if not word:
            raise IdealError(f"empty generator at position {pos}")
        pairs = parse_monomial_word(word, variables, offset=pos + piece.index(word))
        for i, e in pairs:
            if e >= 2:
                raise IdealError(
                    f"exponent {e} on {variables[i]!r} in {word!r}: input ideals must be square-free"
                )
        raw.append(pairs)
        pos += len(piece) + 1
    ring = tuple(variables)
    monomials = []
    for pairs in raw:
        exps = [0] * len(ring)
        for i, e in pairs:
            exps[i] += e
        monomials.append(Monomial(ring, tuple(exps)))
    return make_ideal(ring, monomials)


def is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer; JSON's true and false
    come back as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def ideal_from_json_dict(data: dict) -> MonomialIdeal:
    try:
        variables = list(data["variables"])
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise IdealError(f"missing ideal JSON field: {exc}")
    if not all(isinstance(v, str) for v in variables):
        raise IdealError("ideal JSON variables must be names")
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


def colon_by_variable(ideal: MonomialIdeal, name: str) -> MonomialIdeal:
    """The ideal (I : x) for a single ring variable x.

    Returns a unit-ideal marker when x itself is a generator.
    """
    index = _variable_index(ideal, name)
    quotients = [m.without_variable(index) for m in ideal.generators]
    if any(m.is_one() for m in quotients):
        one = Monomial(ideal.ring, (0,) * len(ideal.ring))
        return MonomialIdeal(ideal.ring, (one,))
    return make_ideal(ideal.ring, quotients)


def add_variable_generator(ideal: MonomialIdeal, name: str) -> MonomialIdeal:
    """The ideal (x) + I: adjoin x as a generator, in front."""
    index = _variable_index(ideal, name)
    exps = [0] * len(ideal.ring)
    exps[index] = 1
    var = Monomial(ideal.ring, tuple(exps))
    survivors = [m for m in ideal.generators if m.exps[index] == 0]
    return make_ideal(ideal.ring, [var] + survivors)


def _variable_index(ideal: MonomialIdeal, name: str) -> int:
    try:
        return ideal.ring.index(name)
    except ValueError:
        raise IdealError(f"{name!r} is not a ring variable")
