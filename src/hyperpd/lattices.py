"""Finite atomic lattices as intersection-closed set families.

An element is the set of generator indices below it, stored as a
bitmask (atom j is bit j-1). Meet is intersection; the join of two
elements is the smallest family member containing their union, which
exists because the family is intersection-closed and has a top.

Built two ways: from an ideal (the generators below each lcm of
generators) and from a separated hypergraph (intersection-closure of
the edge complements). The two constructions agreeing on ideal-derived
hypergraphs is the load-bearing theorem of the whole pipeline, and is
tested, not assumed.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .ideals import IdealError, Monomial, MonomialIdeal
from .hypergraphs import Hypergraph, is_separated

DEFAULT_ELEMENT_CAP = 1 << 18

# full pairwise validation is quadratic; skip it for oracle-scale families
_FULL_VALIDATION_LIMIT = 2048


class LatticeError(ValueError):
    """Domain error for lattice construction and labeling."""


def mask_of(atoms) -> int:
    m = 0
    for a in atoms:
        m |= 1 << (int(a) - 1)
    return m


def set_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class SetFamilyLattice:
    """An intersection-closed family of masks with bottom, top and atoms.

    A construction passes the `generators` whose intersection-closure
    its family is; closure is then proven in |L|*|G| steps at any size.
    Without them, every pair is checked, for families of up to
    _FULL_VALIDATION_LIMIT elements only.
    """

    __slots__ = ("num_atoms", "masks", "_members")

    def __init__(self, num_atoms: int, elements, generators=None):
        if num_atoms < 0 or num_atoms > 64:
            raise LatticeError("atom count out of range 0..64")
        self.num_atoms = num_atoms
        full = (1 << num_atoms) - 1
        members = set()
        for el in elements:
            m = el if isinstance(el, int) else mask_of(el)
            if m & ~full:
                raise LatticeError(f"element {set_of(m)} exceeds the atom count")
            members.add(m)
        self.masks = tuple(sorted(members, key=lambda m: (m.bit_count(), set_of(m))))
        self._members = frozenset(members)
        self._check_invariants(full)
        if generators is not None:
            self._check_generated(full, generators)
        elif len(members) <= _FULL_VALIDATION_LIMIT:
            self._check_pairs()

    def _check_invariants(self, full: int):
        if 0 not in self._members:
            raise LatticeError("missing bottom element")
        if full not in self._members:
            raise LatticeError("missing top element")
        for i in range(self.num_atoms):
            if (1 << i) not in self._members:
                raise LatticeError(f"missing atom {i + 1}")

    def _check_pairs(self):
        for a in self.masks:
            for b in self.masks:
                if a < b and (a & b) not in self._members:
                    raise LatticeError(
                        f"not intersection-closed: {set_of(a)} and {set_of(b)}"
                    )

    def _check_generated(self, full: int, generators):
        """Intersection-closure from a generating set G with the top.

        If a & g is in L for all a in L and g in G, and every nonzero
        b in L is the meet of the g above it, then a & b = a & g1 & g2
        & ... stays in L step by step.
        """
        gens = set(generators) | {full}
        for a in self.masks:
            meet = full
            for g in gens:
                if a & g not in self._members:
                    raise LatticeError(
                        f"not intersection-closed: {set_of(a)} and {set_of(g)}"
                    )
                if a & g == a:
                    meet &= g
            if a and meet != a:
                raise LatticeError(
                    f"{set_of(a)} is not a meet of the generating family"
                )

    @property
    def top(self) -> int:
        return (1 << self.num_atoms) - 1

    def __len__(self):
        return len(self.masks)

    def __contains__(self, element):
        m = element if isinstance(element, int) else mask_of(element)
        return m in self._members

    def __eq__(self, other):
        if not isinstance(other, SetFamilyLattice):
            return NotImplemented
        return self.num_atoms == other.num_atoms and self._members == other._members

    def __hash__(self):
        return hash((self.num_atoms, self._members))

    def _require(self, m: int):
        if m not in self._members:
            raise LatticeError(f"{set_of(m)} is not a lattice element")

    def meet(self, a: int, b: int) -> int:
        self._require(a)
        self._require(b)
        m = a & b
        self._require(m)
        return m

    def join(self, a: int, b: int) -> int:
        self._require(a)
        self._require(b)
        target = a | b
        out = self.top
        for m in self.masks:
            if m & target == target:
                out &= m
        self._require(out)
        return out

    def filter_of(self, x: int) -> tuple[int, ...]:
        self._require(x)
        return tuple(m for m in self.masks if m & x == x)

    def atoms(self) -> tuple[int, ...]:
        return tuple(1 << i for i in range(self.num_atoms))

    def meet_irreducibles(self) -> tuple[int, ...]:
        """Elements that are not intersections of strictly larger ones.

        The top is included (vacuously irreducible); everything else is
        irreducible iff the intersection of its strict supersets stays
        strictly larger, i.e. there is a unique upper cover.
        """
        out = []
        for x in self.masks:
            if x == self.top:
                out.append(x)
                continue
            t = self.top
            for y in self.masks:
                if y != x and y & x == x:
                    t &= y
            if t != x:
                out.append(x)
        return tuple(out)

    def check_remark22(self) -> bool:
        """Every proper element is the meet of the meet-irreducibles
        above it."""
        mi = self.meet_irreducibles()
        for p in self.masks:
            if p == self.top:
                continue
            t = self.top
            for m in mi:
                if m & p == p:
                    t &= m
            if t != p:
                return False
        return True

    def upper_covers(self, x: int) -> tuple[int, ...]:
        self._require(x)
        sups = [y for y in self.masks if y != x and y & x == x]
        covers = []
        for y in sups:
            if not any(z != y and y & z == z for z in sups):
                covers.append(y)
        return tuple(covers)

    def to_json_dict(self) -> dict:
        return {
            "atoms": self.num_atoms,
            "elements": [list(set_of(m)) for m in self.masks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_dot(self) -> str:
        def name(m):
            return '"' + ("0" if m == 0 else ",".join(map(str, set_of(m)))) + '"'

        lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=none];"]
        for m in self.masks:
            lines.append(f"  {name(m)};")
        for m in self.masks:
            for c in self.upper_covers(m):
                lines.append(f"  {name(m)} -> {name(c)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def lattice_from_json_dict(data: dict) -> SetFamilyLattice:
    try:
        n = int(data["atoms"])
        elements = data["elements"]
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"bad lattice JSON: {exc}")
    if not isinstance(elements, list) or not all(
        isinstance(el, list) and all(isinstance(a, int) and a >= 1 for a in el)
        for el in elements
    ):
        raise LatticeError("lattice JSON elements must be lists of atoms 1, 2, ...")
    return SetFamilyLattice(n, elements)


def _capped_closure(seeds, combine, cap: int, what: str) -> set[int]:
    """Close the masks `seeds` under `combine` (OR or AND).

    The operation is associative, commutative and idempotent, so
    combining with one seed at a time reaches every combination of
    seeds. Raises as soon as the family holds more than `cap` members.
    """
    family = set(seeds)
    if len(family) > cap:
        raise LatticeError(f"{what} exceeds the {cap}-element cap")
    frontier = list(family)
    while frontier:
        fresh = []
        for a in frontier:
            for s in seeds:
                c = combine(a, s)
                if c not in family:
                    family.add(c)
                    if len(family) > cap:
                        raise LatticeError(f"{what} exceeds the {cap}-element cap")
                    fresh.append(c)
        frontier = fresh
    return family


def _polarize(ideal: MonomialIdeal) -> list[int]:
    """One mask per generator, in which x_j^e sets the bits (j, 1..e).

    Then lcm is OR and divisibility is containment, for square-free and
    non-square-free ideals alike.
    """
    gens = [m.exps for m in ideal.generators]
    masks = [0] * len(gens)
    offset = 0
    for j in range(len(ideal.ring)):
        width = max(g[j] for g in gens)
        for i, g in enumerate(gens):
            masks[i] |= ((1 << g[j]) - 1) << offset
        offset += width
    return masks


def lcm_lattice(ideal: MonomialIdeal, cap: int = DEFAULT_ELEMENT_CAP) -> SetFamilyLattice:
    """For each lcm of a generator subset, the set of generators that
    divide it; plus the empty bottom.

    Lcms are the OR-closure of the polarized generators. Distinct lcms
    have distinct sets of generators below them, so the sets are a
    faithful encoding. The set of an lcm t is the meet of the sets of
    generators that lack one polarized bit missing from t, so those
    sets and the top generate the family under intersection.
    """
    if ideal.is_zero():
        raise LatticeError("the zero ideal has no lcm-lattice")
    if ideal.is_unit():
        raise LatticeError("the unit ideal has no lcm-lattice")
    gens = _polarize(ideal)
    lcms = _capped_closure(gens, operator.or_, cap, "lcm-lattice")
    indexed = list(enumerate(gens))

    def below(t: int) -> int:
        m = 0
        for j, g in indexed:
            if g & t == g:
                m |= 1 << j
        return m

    elements = {below(t) for t in lcms}
    elements.add(0)
    # below(~bit) is the set of generators that lack the bit
    lacking = [below(~(1 << b)) for b in range(max(gens).bit_length())]
    return SetFamilyLattice(ideal.mu, elements, generators=lacking)


def lattice_from_hypergraph(H: Hypergraph, cap: int = DEFAULT_ELEMENT_CAP) -> SetFamilyLattice:
    """Intersection-closure of the edge complements, with top and
    bottom adjoined. Atoms are vertex positions after renumbering the
    (stable) vertex ids in increasing order."""
    if not H.vertices:
        raise LatticeError("empty hypergraph has no lattice")
    if not is_separated(H):
        raise LatticeError("hypergraph is not separated")
    pos = {v: i for i, v in enumerate(H.vertices)}
    full = (1 << len(H.vertices)) - 1
    seeds = {full}
    for e in H.edges:
        m = 0
        for v in e:
            m |= 1 << pos[v]
        seeds.add(full & ~m)
    family = _capped_closure(list(seeds), operator.and_, cap, "lattice")
    family.add(0)
    return SetFamilyLattice(len(H.vertices), family, generators=seeds)


def union_edge_elements(H: Hypergraph) -> list[tuple[int, ...]]:
    """Edges equal to the union of the edges properly contained in
    them; their lattice complements are exactly the non-meet-irreducible
    edge elements."""
    masks = [(e, mask_of(e)) for e in H.edges]
    out = []
    for e, m in masks:
        union = 0
        for _, g in masks:
            if g != m and g & m == g:
                union |= g
        if union == m:
            out.append(e)
    return out


@dataclass
class Labeling:
    """Monomial labels on some lattice elements (masks); unlabeled
    elements count as the monomial 1."""

    ring: tuple[str, ...]
    assignment: dict[int, Monomial]

    def __post_init__(self):
        for mask, mono in self.assignment.items():
            if mono.ring != self.ring:
                raise LatticeError("label in wrong ring")
            if mono.is_one():
                raise LatticeError(f"trivial label on {set_of(mask)}")


def _validate_labeling(L: SetFamilyLattice, lab: Labeling):
    for mask in lab.assignment:
        if mask not in L._members:
            raise LatticeError(f"label on non-element {set_of(mask)}")
    for mi in L.meet_irreducibles():
        if mi == L.top:
            continue
        if mi not in lab.assignment:
            raise LatticeError(
                f"unlabeled meet-irreducible element {list(set_of(mi))}"
            )
    labeled = sorted(lab.assignment, key=lambda m: (m.bit_count(), set_of(m)))
    for i, p in enumerate(labeled):
        for q in labeled[i + 1 :]:
            if p & q != p and p & q != q:
                g = lab.assignment[p].gcd(lab.assignment[q])
                if not g.is_one():
                    raise LatticeError(
                        f"incomparable elements {list(set_of(p))} and "
                        f"{list(set_of(q))} carry non-coprime labels"
                    )


def coordinatize(L: SetFamilyLattice, lab: Labeling) -> MonomialIdeal:
    """One generator per atom: the product of all labels not above it.

    The labeling must cover every meet-irreducible except the top and
    keep non-coprime labels on comparable elements; then the result's
    lcm-lattice is the input lattice again.
    """
    _validate_labeling(L, lab)
    gens = []
    one = Monomial(lab.ring, (0,) * len(lab.ring))
    for i in range(L.num_atoms):
        bit = 1 << i
        x = one
        for mask, mono in lab.assignment.items():
            if not (mask & bit):
                x = x.times(mono)
        gens.append(x)
    try:
        return MonomialIdeal(lab.ring, tuple(gens))
    except IdealError as exc:
        raise LatticeError(f"labeling does not coordinatize: {exc}")


def hypergraph_coordinatization(H: Hypergraph) -> tuple[Labeling, MonomialIdeal]:
    """Label each edge's complement with the product of the edge's
    variables; running the atom formula then recovers the ideal the
    hypergraph came from."""
    L = lattice_from_hypergraph(H)
    ring: list[str] = []
    for e in H.edges:
        names = H.label_of(e)
        if not names:
            raise LatticeError(f"edge {list(e)} has no variable label")
        for name in names:
            if name not in ring:
                ring.append(name)
    ring_t = tuple(ring)
    pos = {v: i for i, v in enumerate(H.vertices)}
    full = (1 << len(H.vertices)) - 1
    assignment: dict[int, Monomial] = {}
    for e in H.edges:
        m = 0
        for v in e:
            m |= 1 << pos[v]
        exps = [0] * len(ring_t)
        for name in H.label_of(e):
            exps[ring.index(name)] += 1
        assignment[full & ~m] = Monomial(ring_t, tuple(exps))
    lab = Labeling(ring_t, assignment)
    return lab, coordinatize(L, lab)


def labeling_to_json_dict(L: SetFamilyLattice, lab: Labeling) -> dict:
    data = L.to_json_dict()
    data["labels"] = {
        json.dumps(list(set_of(m)), separators=(",", ":")): lab.assignment[m].to_text()
        for m in sorted(lab.assignment, key=lambda m: (m.bit_count(), set_of(m)))
    }
    return data


def labeling_from_json_dict(data: dict) -> tuple[SetFamilyLattice, Labeling]:
    from .ideals import parse_monomial_word

    L = lattice_from_json_dict(data)
    raw = data.get("labels") or {}
    if not isinstance(raw, dict):
        raise LatticeError("lattice JSON labels must map element keys to monomials")
    keyed = []
    for key, word in raw.items():
        try:
            atoms = [int(a) for a in json.loads(key)]
            keyed.append((len(atoms), atoms, mask_of(atoms), word))
        except (TypeError, ValueError):
            raise LatticeError(f"bad element key {key!r}")
    variables: list[str] = []
    parsed = []
    for _, _, element, word in sorted(keyed, key=lambda k: k[:2]):
        parsed.append((element, parse_monomial_word(str(word), variables)))
    ring = tuple(variables)
    assignment = {}
    for element, pairs in parsed:
        exps = [0] * len(ring)
        for i, e in pairs:
            exps[i] += e
        assignment[element] = Monomial(ring, tuple(exps))
    return L, Labeling(ring, assignment)


def lattices_isomorphic(L1: SetFamilyLattice, L2: SetFamilyLattice) -> bool:
    """Search for an atom bijection matching the families; test helper,
    feasible for small atom counts only."""
    if L1.num_atoms != L2.num_atoms or len(L1) != len(L2):
        return False
    n = L1.num_atoms
    target = L2._members

    def extend(perm):
        if len(perm) == n:
            for m in L1.masks:
                img = 0
                for i in range(n):
                    if m & (1 << i):
                        img |= 1 << perm[i]
                if img not in target:
                    return False
            return True
        used = set(perm)
        return any(extend(perm + [j]) for j in range(n) if j not in used)

    return extend([])
