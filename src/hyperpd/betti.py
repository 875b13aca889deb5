"""Ground-truth total Betti numbers via lattice interval homology.

For each lattice element p above the bottom, the Betti number in
homological degree i is the rank of reduced homology H~_{i-2} of the
open interval (bottom, p), computed over a prime field
(Gasharov-Peeva-Welker). The projective dimension is the top nonzero
degree, which `lattice_pd` finds by stopping the lattice walk of
`lattices.walk_lattice` below the best degree found; a whole table
settles every element the walk visits, and builds no lattice. Everything
downstream is checked against this module; nothing here depends on the
reduction rules.

A lattice here is the intersection-closure of the complements of a
list of edges, with a top and a bottom. A support is the edges through
an atom: atom i's support is the bitmask of the edges that hold i, so
of the complements that miss i. The join of a set of atoms is the meet
of the complements that none of them misses, so a face joins to p
exactly when the OR of its supports equals p's. An ideal's edges are
its polarized edges; a lattice given by its elements has the
complements of its meet-irreducibles as its edges.

The interval's homology is that of its crosscut complex (Bjorner): the
sets of atoms below p whose join is not p, so the sets F of p's atoms
A whose supports OR to less than T, the OR of all of them.

Atoms with a private support bit, one that no other atom of p has, are
peeled off before any complex is built. Let P be those atoms, N the
rest and R = T & ~OR(P). If N is empty, the complex is the boundary of
the simplex on A, with one unit of H~_{|A|-2}. Otherwise a face that
misses an atom of P misses its private bit, and a face holding all of
P reaches T exactly when its part in N covers R. Write dP for the
boundary of the simplex on P, a (|P| - 2)-sphere, and C' for the sets
of N whose supports do not cover R. The complex is dP * (simplex on N)
united with (simplex on P) * C'. Both pieces are cones, and they meet
in dP * C', so Mayer-Vietoris and the join with a sphere give
H~_j = H~_{j-|P|}(C'). C' is again a crosscut complex: of the
supports cut down to R, with target R. Every rank is 0 if R = 0 (the
complex is the cone dP * (simplex on N)), if a cut support is 0 (its
atom is a cone point of C'), or if the cut supports OR to less than R
(C' is a simplex). Otherwise the step repeats on C'.

With no private bit left, an atom b whose support holds another atom
a's (or equals it) is dropped: toggling a keeps the join of every face
through b, so it matches the faces through b acyclically, and the
complex collapses onto that of the other atoms, which still cover the
target since b has no private bit. The peel then starts again with no
shift; a lone atom left is private, and its complex has only the empty
face, with one unit of H~_{-1}.

What is left once neither step applies is split on one atom, the apex
a: the one with the fewest support bits, then the lowest index. The
faces without a are the deletion, the crosscut complex of the other
atoms with the same target T. The faces F without a for which F + {a}
is a face are the link: F's supports do not cover T & ~sup(a), so the
link is the crosscut complex of the other atoms with their supports
and the target cut to T & ~sup(a), and a cone if a cut support is 0.
The complex K is the deletion united with the cone a * link, and the
two meet in the link. The cone is acyclic, so Mayer-Vietoris gives

    H~_d(link) -> H~_d(del) -> H~_d(K) -> H~_{d-1}(link) -> H~_{d-1}(del).

When no degree is nonzero on both sides, the maps out of the link's
homology are 0, and over any field H~_d(K) = H~_d(del) + H~_{d-1}(link):
beta_i = beta_i(del) + beta_{i-1}(link). Both pieces go back through
the peel, and through the split again if need be. When the two sides
share a degree (a collision), a nested piece gives up at once, and only
the element's own instance builds a complex, so a collision costs only
the peels below it.

Many elements leave one instance after the peel's first step, so each
element takes that step as its supports are gathered, and each
leftover is settled once per table or `lattice_pd` call. A round of
the benchmark's `betti_gf3` queries (seed 1) has 2,542 elements above
the bottom. 1,507 of them, the 33 atoms included, are Taylor elements,
answered in that first pass; the other 1,035 leave 150 distinct
instances: 8 on figure 4's core, 62 on P12 and 80 on C11. The peel
settles all of those but one, the top of the 11-cycle, the split
settles that one, and no complex is built.

A complex that is built is computed relative to the closed star of the
apex. The star is a cone, so its reduced homology vanishes in every
degree, and the long exact sequence of the pair makes the relative
homology equal the reduced homology of the whole complex, degree by
degree. Only the faces outside the star are built and ranked; the star
holds most of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hypergraphs import atom_key
from .ideals import MonomialIdeal
from .lattices import (
    SetFamilyLattice,
    atom_columns,
    edge_complements,
    lcm_lattice,  # not called here; perfbench/tracing.py patches this name
    polarized_edges,
    set_of,
    walk_lattice,
)

DEFAULT_CHAIN_CAP = 10**7
MAX_FIELD_CHAR = 2**31 - 1  # so the primality check tries about 46,000 divisors


class OracleError(ValueError):
    """Sizing or input failure in the homology oracle."""


class SimplicialComplex:
    """A chain complex of faces, each a bitmask over positions in `vertices`.

    `faces[k]` lists the faces with k vertices, and every boundary drops
    the facets that are not listed. A complex closed under subsets lists
    the empty face (mask 0), so its homology is reduced homology. A pair
    (K, A) of a complex and a subcomplex lists only the faces of K
    outside A, so its homology is the relative homology.
    """

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces):
        self.vertices = tuple(vertices)
        self.faces = [list(level) for level in faces]
        while self.faces and not self.faces[-1]:
            self.faces.pop()

    def face_counts(self) -> list[int]:
        return [len(level) for level in self.faces]


def _crosscut_complex(supports: list[int], p: int, apex: int | None = None) -> SimplicialComplex:
    """The crosscut complex of the atoms below p, relative to the
    closed star of one atom, the apex.

    The crosscut complex has the atom sets whose join is not p as its
    faces; a set joins to p exactly when the OR of its atoms' supports
    is that of all of p's atoms. The star of the apex a holds the faces
    F whose F + {a} still joins below p; it is a cone, so relative
    homology equals the reduced homology of the whole complex in every
    degree. The faces kept are those outside the star: a not in F,
    join(F) != p and join(F + {a}) = p. The default apex has the fewest
    support bits, then the lowest index; `_settle` calls this only
    once no atom has a support bit of its own. Faces are masks
    over positions in the atom list.
    """
    atoms = [i for i in range(p.bit_length()) if p >> i & 1]
    # after[k]: the supports of the atoms from position k on
    after = [0] * (len(atoms) + 1)
    for k in range(len(atoms) - 1, -1, -1):
        after[k] = after[k + 1] | supports[atoms[k]]
    target = after[0]
    if apex is None:
        apex = min(atoms, key=lambda a: supports[a].bit_count())
    apex_support = supports[apex]
    # rest[k]: the supports of the apex and of every atom from position k on
    rest = [later | apex_support for later in after]
    # levels[k]: the kept faces on k atoms; the empty face is in the star
    levels: list[list[int]] = [[] for _ in atoms]
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        face, joined, start = stack.pop()
        for k in range(start, len(atoms)):
            if atoms[k] == apex:
                continue
            joined2 = joined | supports[atoms[k]]
            if joined2 == target:
                continue
            f2 = face | 1 << k
            if joined2 | apex_support == target:
                levels[f2.bit_count()].append(f2)
            # unless the apex and every later atom join f2 up to p, no
            # extension of f2 leaves the star
            if joined2 | rest[k + 1] == target:
                stack.append((f2, joined2, k + 1))
    return SimplicialComplex(atoms, [sorted(level) for level in levels])


def _rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2) of bitmask rows, each reduced by its highest
    column; on boundaries of sorted faces that fills in far less than
    the lowest."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            high = row.bit_length()
            if high in pivots:
                row ^= pivots[high]
            else:
                pivots[high] = row
                break
    return len(pivots)


def _rank_gfp(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of sparse rows (column -> nonzero coefficient),
    reduced like `_rank_gf2`; pivots are kept scaled to lead with 1,
    with the lead dropped."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            high = max(row)
            pivot = pivots.get(high)
            if pivot is None:
                inv = pow(row.pop(high), -1, p)
                pivots[high] = {c: v * inv % p for c, v in row.items()}
                break
            factor = p - row.pop(high)
            for c, v in pivot.items():
                w = (row.get(c, 0) + factor * v) % p
                if w:
                    row[c] = w
                else:
                    del row[c]
    return len(pivots)


def _boundary_rank(K: SimplicialComplex, k: int, char: int) -> int:
    """Rank of the boundary map from the faces on k vertices to the
    listed faces on k - 1; 0 unless both levels are listed and non-empty."""
    if k < 1 or k >= len(K.faces) or not K.faces[k] or not K.faces[k - 1]:
        return 0
    lower = {f: i for i, f in enumerate(K.faces[k - 1])}
    signs = [(-1) ** i % char for i in range(k)]
    rows = []
    for f in K.faces[k]:
        row = {}
        rest, i = f, 0
        while rest:
            bit = rest & -rest
            col = lower.get(f ^ bit)
            if col is not None:
                row[col] = signs[i]
            rest ^= bit
            i += 1
        rows.append(row)
    if char == 2:
        return _rank_gf2([sum(1 << c for c in row) for row in rows])
    return _rank_gfp(rows, char)


def reduced_homology_ranks(K: SimplicialComplex, char: int = 2) -> dict[int, int]:
    """Homology ranks by dimension d, the faces on d + 1 vertices, from
    d = -1 up.

    With the empty face listed this is reduced homology: the complex
    whose only face is the empty one has one unit of H~_{-1}. A pair
    gets its relative homology. The Euler characteristic of the chain
    complex is asserted against the homology ranks. `char` must be
    prime; callers prove it with `_check_char` once, not per interval.
    """
    counts = K.face_counts()
    # from the faces on k vertices to those on k - 1; none leaves the
    # lowest level or enters the one above the top
    boundary_ranks = [0] + [_boundary_rank(K, k, char) for k in range(1, len(counts))] + [0]
    ranks: dict[int, int] = {}
    for k, count in enumerate(counts):
        r = count - boundary_ranks[k] - boundary_ranks[k + 1]
        if r < 0:
            raise AssertionError("negative homology rank; rank computation broken")
        if r:
            ranks[k - 1] = r
    lhs = sum((1 if k % 2 else -1) * count for k, count in enumerate(counts))
    rhs = sum((-1 if d % 2 else 1) * r for d, r in ranks.items())
    if lhs != rhs:
        raise AssertionError(
            f"Euler characteristic mismatch: chains {lhs} vs homology {rhs}"
        )
    return ranks


def _check_char(char: int):
    if char > MAX_FIELD_CHAR:
        raise OracleError(f"characteristic {char} exceeds the cap of {MAX_FIELD_CHAR}")
    if char < 2 or any(char % q == 0 for q in range(2, int(char**0.5) + 1)):
        raise OracleError(f"{char} is not a prime characteristic")


@dataclass
class BettiTable:
    field_char: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, _), r in self.entries.items():
            out[i] = out.get(i, 0) + r
        top = max(out) if out else 0
        return {i: out.get(i, 0) for i in range(top + 1)}

    @property
    def pd(self) -> int:
        """The top degree with a nonzero entry, read without totalling."""
        return max((i for (i, _), r in self.entries.items() if r > 0), default=0)

    def to_json_dict(self, include_entries: bool = False) -> dict:
        data = {
            "char": self.field_char,
            "totals": {str(i): t for i, t in self.totals().items()},
            "pd": self.pd,
        }
        if include_entries:
            breakdown: dict[str, dict[str, int]] = {}
            for (i, p), r in sorted(self.entries.items()):
                key = atom_key(set_of(p))
                breakdown.setdefault(str(i), {})[key] = r
            data["entries"] = breakdown
        return data


def _settle(live: list[int], target: int, char: int, nested: bool) -> dict[int, int] | None:
    """The nonzero Betti numbers by degree of the crosscut instance of
    the supports `live` with the target: beta_i is the rank of H~_{i-2}
    of the complex of the sets of atoms whose supports OR to less than
    the target.

    The peel and then the split on the apex settle the instance, as the
    module docstring explains. When the split's two sides share a
    degree, a nested instance returns None at once, and the element's
    own instance builds and ranks its complex.
    """
    shift = 0  # atoms peeled so far
    while True:
        once = shared = 0
        for s in live:
            shared |= once & s
            once |= s
        if once != target or not all(live):
            return {}  # a simplex, or a cone over an atom of empty support
        private = [s for s in live if s & ~shared]
        if not private:
            # drop an atom whose support holds another's: more supports
            # than its own lie inside it
            for j, b in enumerate(live):
                outside = ~b
                if len([a for a in live if not a & outside]) > 1:
                    del live[j]
                    break
            else:
                break
            continue
        if len(private) == len(live):
            return {shift + len(live): 1}  # the boundary of a simplex
        shift += len(private)
        for s in private:
            target &= ~s
        live = [s & target for s in live if not s & ~shared]
    # split on the apex: its deletion keeps the target, its link cuts
    # the target and every support to what the apex misses
    j = min(range(len(live)), key=lambda k: live[k].bit_count())
    rest = live[:j] + live[j + 1 :]
    cut = target & ~live[j]
    deletion = _settle(rest, target, char, True)
    link = None if deletion is None else _settle([s & cut for s in rest], cut, char, True)
    if link is None or deletion.keys() & link.keys():
        if nested:
            return None
        ranks = reduced_homology_ranks(_crosscut_complex(live, (1 << len(live)) - 1), char)
        numbers = {d + 2: r for d, r in ranks.items()}
    else:
        numbers = deletion
        for i, r in link.items():
            numbers[i + 1] = numbers.get(i + 1, 0) + r
    return {i + shift: r for i, r in numbers.items()}


def _betti_numbers(supports: list[int], p: int, char: int, memo: dict) -> dict[int, int]:
    """The nonzero Betti numbers of the element p by degree: beta_i is
    the rank of H~_{i-2} of p's crosscut complex.

    The peel's first step is taken here. One pass gathers p's supports,
    ORs them and marks the bits two of them share; an atom carries
    beta_1 = 1 and a Taylor element, every atom with a private bit, a
    single 1. Otherwise the atoms with a private bit are dropped and
    the rest and the target are cut to what those atoms miss. The cut
    target is the OR of the cut supports, so they alone, in atom order,
    name that leftover instance, and it is settled once per `memo`: a
    dict that lives for one table or one `lattice_pd` call, and whose
    values nothing writes to. A complex is built and ranked only when
    the split collides. The chain cap is judged on p's atom count.
    """
    count = p.bit_count()
    if 1 << count > DEFAULT_CHAIN_CAP:
        raise OracleError(
            f"crosscut complex on {count} atoms has {1 << count} "
            f"candidate faces, which exceeds the cap of {DEFAULT_CHAIN_CAP}"
        )
    live = []
    once = shared = 0
    rest = p
    while rest:
        low = rest & -rest
        s = supports[low.bit_length() - 1]
        shared |= once & s
        once |= s
        live.append(s)
        rest ^= low
    peeled = 0
    kept = []
    for s in live:
        if s & ~shared:
            peeled |= s
        else:
            kept.append(s)
    if not kept:
        return {count: 1}  # the boundary of a simplex
    target = once & ~peeled
    cut = [s & target for s in kept]
    # the key is copied from a list: under CPython 3.11, a tuple built
    # from a generator left 600 `betti_gf3` rounds in one process about
    # 1 MiB larger
    key = tuple(cut)
    numbers = memo.get(key)
    if numbers is None:
        numbers = memo[key] = _settle(cut, target, char, False)
    shift = count - len(kept)
    return {i + shift: r for i, r in numbers.items()}


def _table(supports: list[int], elements, char: int) -> BettiTable:
    """The Betti table of the elements, taken in the order given, so a
    chain-cap error names the first one over the cap."""
    table = BettiTable(field_char=char)
    table.entries[(0, 0)] = 1
    memo: dict = {}
    for p in elements:
        if p:
            for i, r in _betti_numbers(supports, p, char, memo).items():
                table.entries[(i, p)] = r
    return table


def betti_table_from_lattice(L: SetFamilyLattice, char: int = 2) -> BettiTable:
    """Every interval of L, with its supports read from L's edges."""
    _check_char(char)
    return _table(atom_columns(L.num_atoms, L.edges), L.masks, char)


def betti_table_of_edges(
    num_atoms: int, edges: list[int], char: int = 2, what: str = "lattice"
) -> BettiTable:
    """Every interval of the lattice of the edge masks `edges`, from the
    elements a walk with floor 0 visits; no lattice is built.

    The elements are settled after the walk, smallest first, so the
    element cap fires before the chain cap, and a chain-cap error names
    the smallest element over it.
    """
    elements: list[int] = []

    def visit(p: int) -> int:
        elements.append(p)
        return 0

    walk_lattice(num_atoms, edge_complements(num_atoms, edges), visit, what)
    _check_char(char)
    elements.reverse()
    return _table(atom_columns(num_atoms, edges), elements, char)


def betti_table(ideal: MonomialIdeal, char: int = 2) -> BettiTable:
    """Betti table of R/I from its lcm-lattice."""
    return betti_table_of_edges(ideal.mu, polarized_edges(ideal), char, "lcm-lattice")


def lattice_pd(num_atoms: int, edges: list[int], char: int = 2) -> int:
    """The top nonzero degree of the Betti table of the lattice of the
    edge masks `edges`, without building the rest of the lattice.

    The crosscut complex of an element p on k atoms has dimension at
    most k - 2, so p carries Betti numbers in degrees at most k. The
    lattice walk visits elements by falling atom count, and the best
    degree found is its floor: no element on that many atoms or fewer
    can beat it.
    """
    _check_char(char)
    supports = atom_columns(num_atoms, edges)
    best = 0
    memo: dict = {}

    def visit(p: int) -> int:
        nonlocal best
        best = max(best, max(_betti_numbers(supports, p, char, memo), default=0))
        return best

    walk_lattice(num_atoms, edge_complements(num_atoms, edges), visit, "lcm-lattice")
    return best

