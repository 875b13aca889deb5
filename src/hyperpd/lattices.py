"""Finite atomic lattices as intersection-closed set families.

An element is the set of generator indices below it, stored as a
bitmask (atom j is bit j-1). Meet is intersection; the join of two
elements is the smallest family member containing their union, which
exists because the family is intersection-closed and has a top.

Both lattices are the intersection-closure of the complements of a
hypergraph's edges: a separated hypergraph's own edges, or for an
ideal one edge per variable power (the dual hypergraph of its
polarization), whose lattice is the lcm-lattice. That theorem is
load-bearing for the whole pipeline, and is tested against the literal
definition, not assumed. One walk, `walk_lattice`, takes the edge
masks and enumerates that closure from the top down: the builders here
keep every element it visits, `betti.betti_table_of_edges` has it mark
each Taylor element's Boolean interval and settles the rest, and
`betti.lattice_pd` stops it below the best degree found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ideals import IdealError, Monomial, MonomialIdeal, is_json_int, parse_monomial_word
from .hypergraphs import Hypergraph, atom_key, edge_masks, is_separated, union_masks

DEFAULT_ELEMENT_CAP = 1 << 18
BOOLEAN = -1  # a visitor's answer to `walk_lattice`: p's interval is Boolean


class LatticeError(ValueError):
    """Domain error for lattice construction and labeling."""


def mask_of(atoms) -> int:
    m = 0
    for a in atoms:
        m |= 1 << (int(a) - 1)
    return m


def set_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _size_order(masks) -> list[int]:
    """Masks by size, then by their atoms in increasing order: the
    order of `(m.bit_count(), set_of(m))`.

    Of two masks of one size, the one holding the lowest atom where
    they differ comes first. Read from atom 1 up, its binary string
    has a 1 where the other's has a 0, so it sorts later ascending;
    a stable sort by size then keeps that descending order.
    """
    out = sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True)
    out.sort(key=int.bit_count)
    return out


def atom_columns(num_atoms: int, masks) -> list[int]:
    """Per atom i, an int whose bit j is set when masks[j] holds i; for
    a lattice's edges these are the atoms' supports.

    Write each mask as n binary digits, last mask first; digit column k
    then spells the column of atom n - 1 - k in binary.
    """
    if not num_atoms or not masks:
        return [0] * num_atoms
    rows = [format(m, f"0{num_atoms}b") for m in reversed(masks)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


class SetFamilyLattice:
    """An intersection-closed family of masks with bottom, top and atoms.

    Closure is proven by generating the family from its
    meet-irreducibles, so a family is refused first when it holds more
    than `DEFAULT_ELEMENT_CAP` elements above the bottom. A lattice that
    `walk_lattice` built is closed by the walk's own proof and enters
    through `_walked`. `edges` are the edge masks whose complements
    generate the family, and all order queries read: the walk's, or the
    complements of the given family's meet-irreducibles.
    """

    __slots__ = ("num_atoms", "masks", "edges", "_members")

    def __init__(self, num_atoms: int, elements):
        if num_atoms < 0:
            raise LatticeError("atom count must not be negative")
        full = (1 << num_atoms) - 1
        members = set()
        for el in elements:
            m = el if isinstance(el, int) else mask_of(el)
            if m & ~full:
                raise LatticeError(f"element {set_of(m)} exceeds the atom count")
            members.add(m)
        size = len(members) - (0 in members)
        if size > DEFAULT_ELEMENT_CAP:
            raise LatticeError(
                f"lattice of {size} elements above the bottom exceeds the "
                f"{DEFAULT_ELEMENT_CAP}-element cap"
            )
        self._fill(num_atoms, members)
        self.edges = self._generate()

    @classmethod
    def _walked(cls, num_atoms: int, members: set[int], edges) -> SetFamilyLattice:
        L = cls.__new__(cls)
        L._fill(num_atoms, members)
        L.edges = tuple(edges)
        return L

    def _fill(self, num_atoms: int, members: set[int]):
        self.num_atoms = num_atoms
        self.masks = tuple(_size_order(members))
        self._members = frozenset(members)
        if 0 not in members:
            raise LatticeError("missing bottom element")
        if self.top not in members:
            raise LatticeError("missing top element")
        for i in range(num_atoms):
            if (1 << i) not in members:
                raise LatticeError(f"missing atom {i + 1}")

    def _generate(self) -> tuple[int, ...]:
        """Prove the family intersection-closed by generating it, and
        return the complements of its meet-irreducibles, in `masks` order.

        Elements are taken by falling size from the top. The meets of a
        closed family with one more mask are closed again, so what is
        generated stays closed, and an element not yet generated is not
        the meet of those above it: it is meet-irreducible, and its meets
        with everything generated so far must be given. In the end every
        given element is generated, so the given family is closed.
        """
        generated: dict[int, None] = {}
        irreducible = []
        for x in reversed(self.masks):
            if x not in generated:
                irreducible.append(x)
                fresh = {x: None}
                for g in generated:
                    if x & g not in self._members:
                        raise LatticeError(f"not intersection-closed: {set_of(x)} and {set_of(g)}")
                    fresh[x & g] = None
                generated.update(fresh)
        return tuple(self.top & ~m for m in reversed(irreducible))

    @property
    def top(self) -> int:
        return (1 << self.num_atoms) - 1

    def __len__(self):
        return len(self.masks)

    def __eq__(self, other):
        if not isinstance(other, SetFamilyLattice):
            return NotImplemented
        return self.num_atoms == other.num_atoms and self._members == other._members

    def __hash__(self):
        return hash((self.num_atoms, self._members))

    def meet_irreducibles(self) -> tuple[int, ...]:
        """Elements that are not intersections of strictly larger ones:
        the top and the complements of the edges that are not the union
        of the edges inside them."""
        unions = union_masks(self.edges)
        irreducible = {self.top} | {self.top & ~e for e in self.edges if e not in unions}
        return tuple(x for x in self.masks if x in irreducible)

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

    def upper_covers(self) -> list[list[int]]:
        """Each element's upper covers, both in `masks` order.

        An element is the meet of the complements of the edges that miss
        it, so the edges that meet it name it. The join of x and an atom
        i not in x is named by those of x and the edges through i, i's
        support. Every upper cover of x is such a join, and the covers
        are the minimal joins. `masks` lists each element after its
        subsets, so a join is minimal when no cover before it lies in it.
        """
        supports = atom_columns(self.num_atoms, self.edges)
        hits = [sum(1 << j for j, e in enumerate(self.edges) if e & x) for x in self.masks]
        named = {hit: b for b, hit in enumerate(hits)}
        out = []
        for x, hit in zip(self.masks, hits):
            joins = {named[hit | s] for i, s in enumerate(supports) if not x >> i & 1}
            covers: list[int] = []
            for b in sorted(joins):
                y = self.masks[b]
                if all(c & y != c for c in covers):
                    covers.append(y)
            out.append(covers)
        return out

    def to_json_dict(self) -> dict:
        return {
            "atoms": self.num_atoms,
            "elements": [list(set_of(m)) for m in self.masks],
        }

    def to_dot(self) -> str:
        name = {m: '"' + (",".join(map(str, set_of(m))) or "0") + '"' for m in self.masks}
        lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=none];"]
        for m in self.masks:
            lines.append(f"  {name[m]};")
        for m, covers in zip(self.masks, self.upper_covers()):
            for c in covers:
                lines.append(f"  {name[m]} -> {name[c]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def lattice_from_json_dict(data: dict) -> SetFamilyLattice:
    try:
        n = data["atoms"]
        elements = data["elements"]
    except (KeyError, TypeError) as exc:
        raise LatticeError(f"bad lattice JSON: {exc}")
    if not is_json_int(n):
        raise LatticeError(f"lattice JSON atoms must be an integer, got {n!r}")
    if not isinstance(elements, list) or not all(
        isinstance(el, list) and all(is_json_int(a) and a >= 1 for a in el)
        for el in elements
    ):
        raise LatticeError("lattice JSON elements must be lists of atoms 1, 2, ...")
    # each atom is an element; checked before any mask is built
    if n > len(elements):
        raise LatticeError(f"{n} atoms but only {len(elements)} elements")
    for el in elements:
        if any(a > n for a in el):
            raise LatticeError(f"element {tuple(sorted(set(el)))} exceeds the atom count")
    return SetFamilyLattice(n, elements)


def walk_lattice(num_atoms: int, edges, visit, what: str) -> set[int]:
    """Visit the elements of the lattice of the edge masks `edges`, the
    intersection-closure of their distinct nonzero complements, and the
    top, by falling atom count. `visit(p)` returns a floor, and from
    then on no element on floor or fewer atoms is built or visited; or
    it returns `BOOLEAN`: p's interval is Boolean, because each atom of
    p has an edge that meets p in that atom alone.

    Elements wait in one list per atom count, the top in the first.
    Every meet of an element with a complement has fewer atoms than the
    element, so each list is complete when the walk reaches it; it is
    then visited in increasing mask order, and each element's unseen
    meets with the complements are built into the lists below. Every
    element but the top is the meet of a larger element with one
    complement, so nothing is missed. The walk also proves what it
    visits intersection-closed: each element is met with every
    complement and checked to be the meet of the complements above it,
    so a meet of two elements is reached one complement at a time.
    An element on floor + 1 atoms or fewer, whose meets all lie at or
    below the floor, is checked so and builds nothing.

    A Boolean p first marks every subset of p as built, p's meets among
    them, so it builds none of its own meets; a subset waiting in a
    lower list is skipped when the walk reaches it. No subset S needs a
    meet check: the edge of an atom of p outside S meets p in that atom
    alone, so it misses S, and S is p's meet with the complements of
    those edges, closed since p is. Every meet of S lies in p, and is
    marked too. Returns the elements marked so, the Boolean p's
    included; the walk hands none of the others to `visit`.

    Raises once more than `DEFAULT_ELEMENT_CAP` elements are built or
    marked, the top included: at the first element built over the cap,
    or when a Boolean p's subsets are marked. Where counting the subsets
    already built costs less than marking, they are counted first, so
    19 coprime generators stop before any of their 2^19 - 1 lcms is
    marked.
    """
    full = (1 << num_atoms) - 1
    complements = [c for c in dict.fromkeys(full & ~e for e in edges) if c]
    cap = DEFAULT_ELEMENT_CAP
    seen = {full}
    boolean: set[int] = set()
    # levels[k]: the elements built on k atoms
    levels: list[list[int]] = [[] for _ in range(num_atoms)] + [[full]]
    floor = 0
    for count in range(num_atoms, 0, -1):
        levels[count].sort()
        for p in levels[count]:
            if count <= floor:
                return boolean
            if p in boolean:
                continue
            answer = visit(p)
            if answer == BOOLEAN:
                # p's nonempty subsets, less those already built where
                # counting them costs less than marking
                fresh = (1 << count) - 1
                if len(seen) + fresh > cap and len(seen) < fresh:
                    fresh -= sum(1 for m in seen if m | p == p)
                    if len(seen) + fresh > cap:
                        raise LatticeError(f"{what} exceeds the {cap}-element cap")
                s = p
                while s:
                    if s not in boolean:
                        boolean.add(s)
                        seen.add(s)
                    s = (s - 1) & p
                if len(seen) > cap:
                    raise LatticeError(f"{what} exceeds the {cap}-element cap")
            else:
                floor = answer
            builds = count - 1 > floor
            meet = full
            for c in complements:
                m = p & c
                if m == p:
                    meet &= c
                elif builds and m not in seen:
                    k = m.bit_count()
                    if k > floor:
                        seen.add(m)
                        if len(seen) > cap:
                            raise LatticeError(f"{what} exceeds the {cap}-element cap")
                        levels[k].append(m)
            if meet != p:
                raise AssertionError(f"{set_of(p)} is not the meet of the complements above it")
    return boolean


def _lattice_of_edges(num_atoms: int, edges: list[int], what: str) -> SetFamilyLattice:
    """The lattice of the edge masks `edges`: every element a walk with
    floor 0 visits, and the bottom."""
    members = {0}

    def visit(p: int) -> int:
        members.add(p)
        return 0

    walk_lattice(num_atoms, edges, visit, what)
    return SetFamilyLattice._walked(num_atoms, members, edges)


def polarized_edges(ideal: MonomialIdeal) -> list[int]:
    """One edge mask per variable power x_j^e: the generators with
    exponent at least e, the dual hypergraph of the polarization."""
    if ideal.is_zero():
        raise LatticeError("the zero ideal has no lcm-lattice")
    if ideal.is_unit():
        raise LatticeError("the unit ideal has no lcm-lattice")
    gens = [m.exps for m in ideal.generators]
    return [
        sum(1 << i for i, g in enumerate(gens) if g[j] >= e)
        for j in range(len(ideal.ring))
        for e in range(1, max(g[j] for g in gens) + 1)
    ]


def lcm_lattice(ideal: MonomialIdeal) -> SetFamilyLattice:
    """For each lcm of a generator subset, the set of generators that
    divide it; plus the empty bottom.

    Distinct lcms have distinct sets of generators below them, so the
    sets are a faithful encoding. The set below an lcm t is the meet of
    the complements of the polarized edges of the powers that t lacks,
    and a meet S of such complements is the set below lcm(S), so the
    family is the lattice of those edges.
    """
    return _lattice_of_edges(ideal.mu, polarized_edges(ideal), "lcm-lattice")


def _separated_edge_masks(H: Hypergraph) -> list[int]:
    if not H.edges:
        raise LatticeError("empty hypergraph has no lattice")
    if not is_separated(H):
        raise LatticeError("hypergraph is not separated")
    return edge_masks(H)


def lattice_from_hypergraph(H: Hypergraph) -> SetFamilyLattice:
    """Intersection-closure of the edge complements, with top and
    bottom adjoined. Atoms are vertex positions after renumbering the
    (stable) vertex ids in increasing order."""
    return _lattice_of_edges(H.mu, _separated_edge_masks(H), "lattice")


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
    for mi in L.meet_irreducibles():
        if mi == L.top:
            continue
        if mi not in lab.assignment:
            raise LatticeError(
                f"unlabeled meet-irreducible element {list(set_of(mi))}"
            )
    labeled = _size_order(lab.assignment)
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


def hypergraph_coordinatization(
    H: Hypergraph,
) -> tuple[SetFamilyLattice, Labeling, MonomialIdeal]:
    """The lattice of H, labeled by the product of each edge's
    variables on the edge's complement, and the ideal the atom formula
    gives: the ideal the hypergraph came from."""
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
    assignment: dict[int, Monomial] = {}
    for e, m in zip(H.edges, L.edges):  # a walked lattice keeps H's edge masks
        exps = [0] * len(ring_t)
        for name in H.label_of(e):
            exps[ring.index(name)] += 1
        assignment[L.top & ~m] = Monomial(ring_t, tuple(exps))
    lab = Labeling(ring_t, assignment)
    return L, lab, coordinatize(L, lab)


def labeling_to_json_dict(L: SetFamilyLattice, lab: Labeling) -> dict:
    data = L.to_json_dict()
    data["labels"] = {
        atom_key(set_of(m)): lab.assignment[m].to_text()
        for m in _size_order(lab.assignment)
    }
    return data


def labeling_from_json_dict(data: dict) -> tuple[SetFamilyLattice, Labeling]:
    L = lattice_from_json_dict(data)
    raw = data.get("labels", {})
    if not isinstance(raw, dict):
        raise LatticeError("lattice JSON labels must map element keys to monomials")
    keyed = {}  # element -> (size, atoms, key, word)
    for key, word in raw.items():
        try:
            atoms = json.loads(key)
        except ValueError:
            atoms = None
        if not isinstance(atoms, list) or not all(is_json_int(a) and a >= 1 for a in atoms):
            raise LatticeError(f"bad element key {key!r}")
        # atoms are bounded before any mask is built
        element = mask_of(atoms) if all(a <= L.num_atoms for a in atoms) else None
        if element not in L._members:
            raise LatticeError(f"label on non-element {tuple(sorted(set(atoms)))}")
        if element in keyed:
            first = keyed[element][2]
            raise LatticeError(f"label keys {first!r} and {key!r} both name element {set_of(element)}")
        keyed[element] = (len(atoms), atoms, key, word)
    variables: list[str] = []
    parsed = []
    for element, (*_, word) in sorted(keyed.items(), key=lambda item: item[1]):
        parsed.append((element, parse_monomial_word(str(word), variables)))
    ring = tuple(variables)
    assignment = {}
    for element, pairs in parsed:
        exps = [0] * len(ring)
        for i, e in pairs:
            exps[i] += e
        assignment[element] = Monomial(ring, tuple(exps))
    return L, Labeling(ring, assignment)
