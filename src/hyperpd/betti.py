"""Ground-truth total Betti numbers via lattice interval homology.

For each lattice element p above the bottom, the Betti number in
homological degree i is the rank of reduced homology H~_{i-2} of the
order complex of the open interval (bottom, p), computed over a prime
field. The projective dimension is the top nonzero degree, which
`lattice_pd` finds without computing the whole table. Everything
downstream is checked against this module; nothing here depends on the
reduction rules.

Two interchangeable routes compute the interval homology. The "order"
route takes the order complex literally (chains of the open interval,
optionally dismantling beat points first). The default "crosscut"
route uses the complex on the atoms below p whose faces are the atom
subsets joining strictly below p; that complex is homotopy equivalent
to the order complex and stays small when the interval itself is
huge. Tests pin both routes to the same answers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .ideals import MonomialIdeal
from .lattices import LatticeError, SetFamilyLattice, lcm_lattice, set_of

DEFAULT_CHAIN_CAP = 10**7


class OracleError(ValueError):
    """Sizing or input failure in the homology oracle."""


class SimplicialComplex:
    """Faces grouped by dimension, as index tuples into `vertices`.

    `vertices` keeps the caller's labels (lattice elements, usually);
    faces reference them by position. The face family is closed under
    subsets by construction in both constructors.
    """

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces):
        self.vertices = tuple(vertices)
        self.faces = [list(level) for level in faces]
        while self.faces and not self.faces[-1]:
            self.faces.pop()

    @classmethod
    def from_maximal_faces(cls, maximal) -> "SimplicialComplex":
        vertices = sorted({v for f in maximal for v in f})
        index = {v: i for i, v in enumerate(vertices)}
        levels: list[set] = []
        for f in maximal:
            fi = tuple(sorted(index[v] for v in f))
            for k in range(1, len(fi) + 1):
                while len(levels) < k:
                    levels.append(set())
                levels[k - 1].update(itertools.combinations(fi, k))
        return cls(vertices, [sorted(level) for level in levels])

    def face_counts(self) -> list[int]:
        return [len(level) for level in self.faces]

    def is_empty(self) -> bool:
        return not self.faces


def order_complex(L: SetFamilyLattice, p: int) -> SimplicialComplex:
    """The full order complex of the open interval (bottom, p)."""
    if p == 0:
        raise OracleError("no interval below the bottom element")
    if p not in L:
        raise LatticeError(f"{set_of(p)} is not a lattice element")
    points = [q for q in L.masks if q != 0 and q != p and q & p == q]
    return _chain_complex(points)


def _chain_complex(points, chain_cap: int = DEFAULT_CHAIN_CAP) -> SimplicialComplex:
    """All chains of a family of masks ordered by strict containment."""
    pts = sorted(points, key=lambda m: (m.bit_count(), m))
    n = len(pts)
    above = [
        [j for j in range(i + 1, n) if pts[i] & pts[j] == pts[i] and pts[i] != pts[j]]
        for i in range(n)
    ]
    levels: list[list[tuple[int, ...]]] = []
    current = [(i,) for i in range(n)]
    total = n
    while current:
        levels.append(current)
        nxt = []
        for f in current:
            for j in above[f[-1]]:
                nxt.append(f + (j,))
        total += len(nxt)
        if total > chain_cap:
            raise OracleError(
                f"interval has more than {chain_cap} chains; aborting"
            )
        current = nxt
    return SimplicialComplex(pts, levels)


def _core_points(points: list[int]) -> list[int]:
    """Dismantle beat points: drop any element whose strict down-set
    has a maximum or strict up-set has a minimum. Homotopy type of the
    order complex is preserved, so homology ranks are unchanged."""
    pts = set(points)
    changed = True
    while changed:
        changed = False
        for x in sorted(pts):
            down_union = 0
            down_hit = False
            up_inter = -1
            up_hit = False
            for y in pts:
                if y == x:
                    continue
                if y & x == y:
                    down_union |= y
                    down_hit = True
                elif y & x == x:
                    up_inter &= y
                    up_hit = True
            down_beat = down_hit and down_union != x and down_union in pts
            up_beat = up_hit and up_inter != x and up_inter in pts
            if down_beat or up_beat:
                pts.remove(x)
                changed = True
        if len(pts) <= 1:
            break
    return sorted(pts)


def _atom_join(L: SetFamilyLattice):
    """Memoized (element, atom bit) -> join, scanning the size-sorted
    mask array for the first superset (the unique smallest one)."""
    cache: dict[int, int] = {}
    arr = np.array(L.masks, dtype=np.int64) if L.num_atoms <= 62 else None

    def join(x: int, bit: int) -> int:
        key = x | bit
        got = cache.get(key)
        if got is None:
            if arr is not None:
                hits = np.nonzero((arr & key) == key)[0]
                got = int(arr[hits[0]])
            else:
                got = next(m for m in L.masks if m & key == key)
            cache[key] = got
        return got

    return join


def _crosscut_complex(L: SetFamilyLattice, p: int, join, chain_cap: int) -> SimplicialComplex:
    """Faces are the subsets of atoms below p whose join is not p."""
    atoms = [i for i in range(L.num_atoms) if (p >> i) & 1]
    if 1 << len(atoms) > chain_cap:
        raise OracleError(
            f"crosscut complex on {len(atoms)} atoms exceeds the cap"
        )
    levels: list[list[tuple[int, ...]]] = [[] for _ in atoms]
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    while stack:
        face, closure, start = stack.pop()
        for k in range(start, len(atoms)):
            bit = 1 << atoms[k]
            cl2 = closure if closure & bit else join(closure, bit)
            if cl2 == p:
                continue
            f2 = face + (k,)
            levels[len(f2) - 1].append(f2)
            stack.append((f2, cl2, k + 1))
    return SimplicialComplex(atoms, [sorted(level) for level in levels])


def _rank_gf2(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def _rank_gfp(mat: np.ndarray, p: int) -> int:
    mat = np.array(mat % p, dtype=np.int64)
    rows, cols = mat.shape
    rank = 0
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if mat[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            mat[[r, pivot]] = mat[[pivot, r]]
        inv = pow(int(mat[r, c]), -1, p)
        mat[r] = (mat[r] * inv) % p
        below = mat[r + 1 :, c].copy()
        if below.any():
            mat[r + 1 :] = (mat[r + 1 :] - np.outer(below, mat[r])) % p
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def _boundary_rank(K: SimplicialComplex, d: int, char: int) -> int:
    """Rank of the boundary map from d-faces to (d-1)-faces."""
    if d < 0 or d >= len(K.faces) or not K.faces[d]:
        return 0
    if d == 0:
        return 1  # augmentation onto the empty face
    lower = {f: i for i, f in enumerate(K.faces[d - 1])}
    if char == 2:
        rows = []
        for f in K.faces[d]:
            m = 0
            for k in range(len(f)):
                m ^= 1 << lower[f[:k] + f[k + 1 :]]
            rows.append(m)
        return _rank_gf2(rows)
    mat = np.zeros((len(K.faces[d]), len(lower)), dtype=np.int64)
    for i, f in enumerate(K.faces[d]):
        for k in range(len(f)):
            mat[i, lower[f[:k] + f[k + 1 :]]] += (-1) ** k
    return _rank_gfp(mat, char)


def reduced_homology_ranks(K: SimplicialComplex, char: int = 2) -> dict[int, int]:
    """Ranks of reduced homology by dimension, from d = -1 up.

    The empty complex has one unit of H~_{-1}; the Euler characteristic
    of the chain complex is asserted against the homology ranks.
    """
    _check_char(char)
    counts = K.face_counts()
    dims = len(counts)
    boundary_ranks = [_boundary_rank(K, d, char) for d in range(dims + 1)]
    ranks: dict[int, int] = {}
    empty_rank = 1 - (boundary_ranks[0] if dims else 0)
    if empty_rank:
        ranks[-1] = empty_rank
    for d in range(dims):
        r = counts[d] - boundary_ranks[d] - boundary_ranks[d + 1]
        if r < 0:
            raise AssertionError("negative homology rank; rank computation broken")
        if r:
            ranks[d] = r
    lhs = -1 + sum((-1 if d % 2 else 1) * counts[d] for d in range(dims))
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
    num_atoms: int
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

    def total(self, i: int) -> int:
        return self.totals().get(i, 0)

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


def betti_table_from_lattice(
    L: SetFamilyLattice,
    char: int = 2,
    use_core: bool = True,
    chain_cap: int = DEFAULT_CHAIN_CAP,
    method: str = "crosscut",
) -> BettiTable:
    if method not in ("crosscut", "order"):
        raise OracleError(f"unknown homology method {method!r}")
    _check_char(char)
    table = BettiTable(field_char=char, num_atoms=L.num_atoms)
    table.entries[(0, 0)] = 1
    join = _atom_join(L) if method == "crosscut" else None
    for p in L.masks:
        if p == 0:
            continue
        if method == "crosscut":
            if p.bit_count() == 1:
                table.entries[(1, p)] = 1
                continue
            K = _crosscut_complex(L, p, join, chain_cap)
        else:
            points = [q for q in L.masks if q != 0 and q != p and q & p == q]
            if use_core:
                points = _core_points(points)
            K = _chain_complex(points, chain_cap)
        for d, r in reduced_homology_ranks(K, char).items():
            table.entries[(d + 2, p)] = r
    return table


def betti_table(
    ideal: MonomialIdeal,
    char: int = 2,
    use_core: bool = True,
    chain_cap: int = DEFAULT_CHAIN_CAP,
    method: str = "crosscut",
) -> BettiTable:
    """Betti table of R/I from its lcm-lattice.

    `method` picks the interval-homology route; the two routes always
    agree (tested). `use_core` dismantles beat points first on the
    "order" route; it never changes the answer, only the work.
    """
    return betti_table_from_lattice(lcm_lattice(ideal), char, use_core, chain_cap, method)


def lattice_pd(L: SetFamilyLattice, char: int = 2) -> int:
    """The top nonzero degree of the Betti table, without the rest of it.

    The crosscut complex of an element p on k atoms has dimension at
    most k - 2, so p carries Betti numbers in degrees at most k. The
    scan visits elements by falling atom count and stops once no
    element left can beat the best degree found.
    """
    _check_char(char)
    best = 1 if L.num_atoms else 0  # each atom carries beta_1 = 1
    join = _atom_join(L)
    for p in reversed(L.masks):
        if p.bit_count() <= best:
            break
        ranks = reduced_homology_ranks(_crosscut_complex(L, p, join, DEFAULT_CHAIN_CAP), char)
        if ranks:
            best = max(best, max(ranks) + 2)
    return best


def oracle_pd(ideal: MonomialIdeal, char: int = 2) -> int:
    return lattice_pd(lcm_lattice(ideal), char)
