"""Finite atomic lattices as intersection-closed set families.

An element is the set of generator indices below it, stored as a
bitmask (atom j is bit j-1). Meet is intersection; the join of two
elements is the smallest family member containing their union, which
exists because the family is intersection-closed and has a top.

Both lattices are built the same way, as the intersection-closure of
the complements of a hypergraph's edges: a separated hypergraph's own
edges, or for an ideal one edge per variable power (the dual
hypergraph of its polarization), whose lattice is the lcm-lattice.
That theorem is load-bearing for the whole pipeline, and is tested
against the literal definition, not assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ideals import IdealError, Monomial, MonomialIdeal, is_json_int
from .hypergraphs import Hypergraph, edge_masks, is_separated

DEFAULT_ELEMENT_CAP = 1 << 18


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
    a lattice's masks these are the atoms' up-sets.

    Write each mask as n binary digits, last mask first; digit column k
    then spells the column of atom n - 1 - k in binary.
    """
    if not num_atoms or not masks:
        return [0] * num_atoms
    rows = [format(m, f"0{num_atoms}b") for m in reversed(masks)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


class SetFamilyLattice:
    """An intersection-closed family of masks with bottom, top and atoms.

    A construction passes the `generators` whose intersection-closure
    its family is; closure is then proven in |L|*|G| steps. Without
    them, closure is proven from the up-sets in |L|*n steps on
    |L|-bit ints, so such a family is refused first when it holds more
    than `DEFAULT_ELEMENT_CAP` elements above the bottom.
    """

    __slots__ = ("num_atoms", "masks", "_members")

    def __init__(self, num_atoms: int, elements, generators=None):
        if num_atoms < 0:
            raise LatticeError("atom count must not be negative")
        self.num_atoms = num_atoms
        full = (1 << num_atoms) - 1
        members = set()
        for el in elements:
            m = el if isinstance(el, int) else mask_of(el)
            if m & ~full:
                raise LatticeError(f"element {set_of(m)} exceeds the atom count")
            members.add(m)
        size = len(members) - (0 in members)
        if generators is None and size > DEFAULT_ELEMENT_CAP:
            raise LatticeError(
                f"lattice of {size} elements above the bottom exceeds the "
                f"{DEFAULT_ELEMENT_CAP}-element cap"
            )
        self.masks = tuple(_size_order(members))
        self._members = frozenset(members)
        self._check_invariants(full)
        if generators is not None:
            self._check_generated(full, generators)
        else:
            self._check_up_sets()

    def _check_invariants(self, full: int):
        if 0 not in self._members:
            raise LatticeError("missing bottom element")
        if full not in self._members:
            raise LatticeError("missing top element")
        for i in range(self.num_atoms):
            if (1 << i) not in self._members:
                raise LatticeError(f"missing atom {i + 1}")

    def _check_up_sets(self):
        """Intersection-closure from the up-sets, at any size.

        Let up(S) be the elements containing the atom set S. For each
        element a and atom i, the first element b above a + {i} must
        have up(b) == up(a) & ups[i]. By induction on |S|, every S then
        has an element c with up(c) == up(S), and for S = x & y that c
        is x & y. Otherwise some y in up(a) & ups[i] misses part of b,
        and b & y, above a + {i} but smaller than b, is not an element.
        """
        ups = atom_columns(self.num_atoms, self.masks)

        def up_of(m: int) -> int:
            up = (1 << len(self.masks)) - 1
            for i, row in enumerate(ups):
                if (m >> i) & 1:
                    up &= row
            return up

        # up(b) lies inside up, so sizes decide; keeping sizes keeps memory O(|L|)
        up_size = [up_of(m).bit_count() for m in self.masks]
        for a in self.masks:
            up_a = up_of(a)
            for row in ups:
                up = up_a & row
                b = (up & -up).bit_length() - 1
                if up.bit_count() != up_size[b]:
                    missed = up & ~up_of(self.masks[b])
                    y = self.masks[(missed & -missed).bit_length() - 1]
                    raise LatticeError(
                        f"not intersection-closed: {set_of(self.masks[b])} and {set_of(y)}"
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

    def __eq__(self, other):
        if not isinstance(other, SetFamilyLattice):
            return NotImplemented
        return self.num_atoms == other.num_atoms and self._members == other._members

    def __hash__(self):
        return hash((self.num_atoms, self._members))

    def _require(self, m: int):
        if m not in self._members:
            raise LatticeError(f"{set_of(m)} is not a lattice element")

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


def _capped_closure(seeds, what: str) -> set[int]:
    """Close the masks `seeds` under intersection, leaving the empty
    set out.

    Intersection is associative, commutative and idempotent, so meeting
    with one seed at a time reaches every meet of seeds. Raises as soon
    as the family holds more than `DEFAULT_ELEMENT_CAP` members.
    """
    cap = DEFAULT_ELEMENT_CAP
    seeds = [s for s in set(seeds) if s]
    family = set(seeds)
    if len(family) > cap:
        raise LatticeError(f"{what} exceeds the {cap}-element cap")
    frontier = seeds
    while frontier:
        fresh = []
        for a in frontier:
            for s in seeds:
                c = a & s
                if c and c not in family:
                    family.add(c)
                    if len(family) > cap:
                        raise LatticeError(f"{what} exceeds the {cap}-element cap")
                    fresh.append(c)
        frontier = fresh
    return family


def _lattice_of_edges(num_atoms: int, edges: list[int], what: str) -> SetFamilyLattice:
    """The intersection-closure of the complements of the edge masks
    `edges` and the top, with the bottom adjoined; closure is proven
    from those complements."""
    full = (1 << num_atoms) - 1
    complements = {full & ~e for e in edges} | {full}
    family = _capped_closure(complements, what)
    family.add(0)
    return SetFamilyLattice(num_atoms, family, generators=complements)


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
    if not H.vertices:
        raise LatticeError("empty hypergraph has no lattice")
    if not is_separated(H):
        raise LatticeError("hypergraph is not separated")
    return edge_masks(H)


def lattice_from_hypergraph(H: Hypergraph) -> SetFamilyLattice:
    """Intersection-closure of the edge complements, with top and
    bottom adjoined. Atoms are vertex positions after renumbering the
    (stable) vertex ids in increasing order."""
    return _lattice_of_edges(H.mu, _separated_edge_masks(H), "lattice")


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


def hypergraph_coordinatization(H: Hypergraph) -> tuple[Labeling, MonomialIdeal]:
    """Label each edge's complement with the product of the edge's
    variables; running the atom formula then recovers the ideal the
    hypergraph came from."""
    edges = _separated_edge_masks(H)
    L = _lattice_of_edges(H.mu, edges, "lattice")
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
    for e, m in zip(H.edges, edges):
        exps = [0] * len(ring_t)
        for name in H.label_of(e):
            exps[ring.index(name)] += 1
        assignment[L.top & ~m] = Monomial(ring_t, tuple(exps))
    lab = Labeling(ring_t, assignment)
    return lab, coordinatize(L, lab)


def labeling_to_json_dict(L: SetFamilyLattice, lab: Labeling) -> dict:
    data = L.to_json_dict()
    data["labels"] = {
        json.dumps(list(set_of(m)), separators=(",", ":")): lab.assignment[m].to_text()
        for m in _size_order(lab.assignment)
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
            atoms = json.loads(key)
        except ValueError:
            atoms = None
        if not isinstance(atoms, list) or not all(is_json_int(a) and a >= 1 for a in atoms):
            raise LatticeError(f"bad element key {key!r}")
        keyed.append((len(atoms), atoms, mask_of(atoms), word))
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
