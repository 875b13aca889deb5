"""Ground-truth total Betti numbers via lattice interval homology.

For each lattice element p above the bottom, the Betti number in
homological degree i is the rank of reduced homology H~_{i-2} of the
open interval (bottom, p), computed over a prime field
(Gasharov-Peeva-Welker). The projective dimension is the top nonzero
degree, which `lattice_pd` finds by walking only the top of the
lattice. Everything downstream is checked against this module; nothing
here depends on the reduction rules.

A lattice here is the intersection-closure of a list of complements,
with a top and a bottom. Atom i's support is the bitmask of the
complements that miss i, and the join of a set of atoms is the meet of
the complements that none of them misses: a face joins to p exactly
when the OR of its supports equals p's. An ideal's complements are
those of its polarized edges; a lattice given by its elements uses
all of them as complements.

The interval's homology is that of its crosscut complex (Bjorner): the
sets of atoms below p whose join is not p. Each interval is computed
relative to the closed star of one atom, the apex. The star is a cone,
so its reduced homology vanishes in every degree, and the long exact
sequence of the pair makes the relative homology equal the reduced
homology of the whole complex, degree by degree. Only the faces
outside the star are built and ranked; the star holds most of them.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from . import lattices
from .ideals import MonomialIdeal
from .lattices import (
    LatticeError,
    SetFamilyLattice,
    atom_columns,
    lcm_lattice,
    polarized_edges,
    set_of,
)

DEFAULT_CHAIN_CAP = 10**7


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


def _supports(num_atoms: int, complements) -> list[int]:
    """Per atom i, the bitmask whose bit j is set when complements[j]
    misses i."""
    full = (1 << num_atoms) - 1
    return atom_columns(num_atoms, [full & ~c for c in complements])


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
    support bits that no other atom of p has, then the fewest support
    bits, then the lowest index; on the benchmark's inputs that keeps
    fewer faces than either count alone. Faces are masks over positions
    in the atom list.
    """
    atoms = []
    bits = p
    while bits:
        low = bits & -bits
        atoms.append(low.bit_length() - 1)
        bits ^= low
    if 1 << len(atoms) > DEFAULT_CHAIN_CAP:
        raise OracleError(
            f"crosscut complex on {len(atoms)} atoms has {1 << len(atoms)} "
            f"candidate faces, which exceeds the cap of {DEFAULT_CHAIN_CAP}"
        )
    # after[k]: the supports of the atoms from position k on
    after = [0] * (len(atoms) + 1)
    for k in range(len(atoms) - 1, -1, -1):
        after[k] = after[k + 1] | supports[atoms[k]]
    target = after[0]
    if apex is None:
        before = 0
        best_key = None
        for k, a in enumerate(atoms):
            own = supports[a] & ~(before | after[k + 1])
            key = (own.bit_count(), supports[a].bit_count())
            if best_key is None or key < best_key:
                apex, best_key = a, key
            before |= supports[a]
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
    complex is asserted against the homology ranks.
    """
    _check_char(char)
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
        totals = self.totals()
        return max((i for i, t in totals.items() if t > 0), default=0)

    def to_json_dict(self, include_entries: bool = False) -> dict:
        data = {
            "char": self.field_char,
            "totals": {str(i): t for i, t in self.totals().items()},
            "pd": self.pd,
        }
        if include_entries:
            breakdown: dict[str, dict[str, int]] = {}
            for (i, p), r in sorted(self.entries.items()):
                key = json.dumps(list(set_of(p)), separators=(",", ":"))
                breakdown.setdefault(str(i), {})[key] = r
            data["entries"] = breakdown
        return data


def betti_table_from_lattice(L: SetFamilyLattice, char: int = 2) -> BettiTable:
    """Every interval of L, with L's own elements as the complements."""
    _check_char(char)
    table = BettiTable(field_char=char)
    table.entries[(0, 0)] = 1
    supports = _supports(L.num_atoms, L.masks)
    for p in L.masks:
        if p == 0:
            continue
        if p.bit_count() == 1:
            table.entries[(1, p)] = 1
            continue
        K = _crosscut_complex(supports, p)
        for d, r in reduced_homology_ranks(K, char).items():
            table.entries[(d + 2, p)] = r
    return table


def betti_table(ideal: MonomialIdeal, char: int = 2) -> BettiTable:
    """Betti table of R/I from its lcm-lattice."""
    return betti_table_from_lattice(lcm_lattice(ideal), char)


def lattice_pd(num_atoms: int, edges: list[int], char: int = 2) -> int:
    """The top nonzero degree of the Betti table of the lattice of the
    edge masks `edges`, without building the rest of the lattice.

    The crosscut complex of an element p on k atoms has dimension at
    most k - 2, so p carries Betti numbers in degrees at most k. A
    max-heap, seeded with the edge complements and the top, pops
    elements by falling atom count and pushes each popped element's
    unseen meets with the complements; the walk stops once no element
    left can beat the best degree found. Each atom count is complete
    when its first element is popped: an element that is not a
    complement is the meet of a larger element with one complement.
    The walk counts what it builds against `DEFAULT_ELEMENT_CAP`, and
    checks that each popped element is the meet of the complements
    above it.
    """
    _check_char(char)
    full = (1 << num_atoms) - 1
    complements = [c for c in dict.fromkeys(full & ~e for e in edges) if c]
    supports = _supports(num_atoms, complements)
    best = 1 if num_atoms else 0  # each atom carries beta_1 = 1
    seen = set(complements) | {full}
    cap = lattices.DEFAULT_ELEMENT_CAP
    if len(seen) > cap:
        raise LatticeError(f"lcm-lattice exceeds the {cap}-element cap")
    heap = [(-m.bit_count(), m) for m in seen]
    heapq.heapify(heap)
    while heap:
        neg_count, p = heapq.heappop(heap)
        if -neg_count <= best:
            break
        ranks = reduced_homology_ranks(_crosscut_complex(supports, p), char)
        if ranks:
            best = max(best, max(ranks) + 2)
        meet = full
        for c in complements:
            m = p & c
            if m == p:
                meet &= c
            elif m.bit_count() > best and m not in seen:
                seen.add(m)
                if len(seen) > cap:
                    raise LatticeError(f"lcm-lattice exceeds the {cap}-element cap")
                heapq.heappush(heap, (-m.bit_count(), m))
        if meet != p:
            raise AssertionError(f"{set_of(p)} is not the meet of the complements above it")
    return best


def oracle_pd(ideal: MonomialIdeal, char: int = 2) -> int:
    return lattice_pd(ideal.mu, polarized_edges(ideal), char)
