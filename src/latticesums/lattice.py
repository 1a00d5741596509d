"""Integer-lattice combinatorics of affine hyperplane arrangements.

An arrangement is a finite ordered list of affine functionals
f(v) = <f_vec, v> + c_f with nonzero integer directions spanning R^r.
This module computes everything downstream evaluators need from it:
indispensable functionals, the bases (independent r-subsets) with dual
vectors and coset representatives of Z^r modulo the direction lattice,
a generic direction phi, the phi-branched multi-dimensional fractional
part, and the excluded-hyperplane membership tests.  All of it is exact
Fraction arithmetic: a float point y is read at its exact binary value.

All of it but the fractional parts and the membership tests, which read
y, depends on the directions alone.  So it is computed once per list of
directions, on first use, and kept in one process-wide table
(``arrangement_data``) of ``ARRANGEMENT_TABLE_SIZE`` entries, keyed by
the rank and the ordered directions, least recently used dropped first.
An entry (``ArrangementData``) holds the bases, the indispensable
functionals, the codimension-one normals and the default phi; per basis,
the pairings <g, f^B> of every g outside it with the duals f^B of its
members, and each dual as an integer vector over the lcm of its
denominators.  Arrangements with equal directions and different constants
share an entry: the constants enter only in the evaluators.  The side of
phi that a fractional part takes is read where the part is taken
(``frac_part``), from one dot product with the dual.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import intlinalg
from .errors import LatticeSumError


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        return GaussianRational(self.re + other, self.im)

    __radd__ = __add__

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re * other.re - self.im * other.im,
                                    self.re * other.im + self.im * other.re)
        return GaussianRational(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __str__(self) -> str:
        return str(complex(self))


Constant = Union[Fraction, GaussianRational, complex]


@dataclass(frozen=True)
class Functional:
    """An affine functional: integer direction plus a constant term."""

    direction: Tuple[int, ...]
    constant: Constant

    def __post_init__(self):
        # int() would truncate 2.5 to 2, and True is an int in Python
        if any(isinstance(x, bool) or not isinstance(x, numbers.Integral)
               for x in self.direction):
            raise ValueError(
                f"direction entries must be integers, got {self.direction}")
        object.__setattr__(self, "direction",
                           tuple(int(x) for x in self.direction))
        if all(x == 0 for x in self.direction):
            raise ValueError("functional direction must be nonzero")

    def rational_constant(self) -> Fraction:
        if isinstance(self.constant, Fraction):
            return self.constant
        if isinstance(self.constant, GaussianRational) and self.constant.im == 0:
            return self.constant.re
        raise ValueError(f"constant {self.constant!r} is not a real rational")

    def exact_constant(self) -> Union[Fraction, GaussianRational]:
        """The constant as a Fraction when it is real, else as a
        GaussianRational; a float is taken at its exact binary value."""
        c = self.constant
        if not isinstance(c, (Fraction, GaussianRational)):
            c = GaussianRational(Fraction(c.real), Fraction(c.imag))
        if isinstance(c, GaussianRational) and c.im == 0:
            return c.re
        return c


def make_functional(direction, constant) -> Functional:
    if isinstance(constant, (int, Fraction)):
        constant = Fraction(constant)
    elif isinstance(constant, tuple):
        constant = GaussianRational(Fraction(constant[0]), Fraction(constant[1]))
    elif isinstance(constant, GaussianRational):
        pass
    else:
        constant = complex(constant)
        if constant.imag == 0:
            as_frac = Fraction(constant.real)
            if as_frac.denominator <= 10**6 and float(as_frac) == constant.real:
                constant = as_frac
    return Functional(tuple(direction), constant)


@dataclass
class Basis:
    """An independent r-subset with its dual vectors and coset data."""

    members: Tuple[int, ...]
    direction_matrix: List[List[int]]
    dual_vectors: Dict[int, Tuple[Fraction, ...]]
    index: int
    coset_reps: List[Tuple[int, ...]]

    def dual(self, member: int) -> Tuple[Fraction, ...]:
        return self.dual_vectors[member]


@dataclass(frozen=True)
class GenericDirection:
    phi: Tuple[int, ...]


class Arrangement:
    def __init__(self, rank: int, functionals: Sequence[Functional]):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if not functionals:
            raise ValueError("arrangement must be nonempty")
        self.rank = rank
        self.functionals = list(functionals)
        for f in self.functionals:
            if len(f.direction) != rank:
                raise ValueError("direction length must equal the rank")
        if intlinalg.rank([f.direction for f in self.functionals]) != rank:
            raise ValueError("directions must span the full space")

    @property
    def size(self) -> int:
        return len(self.functionals)

    @property
    def is_exact(self) -> bool:
        """Whether exact mode evaluates the arrangement: it reads every
        constant as a real rational (``Functional.rational_constant``)."""
        try:
            for f in self.functionals:
                f.rational_constant()
        except ValueError:
            return False
        return True

    @cached_property
    def indispensable(self) -> Tuple[int, ...]:
        """Functionals whose removal drops the direction span below full rank."""
        return arrangement_data(self).indispensable

    @cached_property
    def bases(self) -> List[Basis]:
        return arrangement_data(self).bases

    @cached_property
    def codim1_normals(self) -> List[Tuple[int, ...]]:
        """Integer normals of the spans of independent (r-1)-subsets."""
        return arrangement_data(self).codim1_normals

    def restricted(self, keep: Sequence[int]) -> "Arrangement":
        return Arrangement(self.rank, [self.functionals[i] for i in keep])


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _integer_vector(v: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(D, D v) for D the lcm of the denominators of v.  No prime of D
    divides every entry of D v, so D and the entries of D v are coprime."""
    D = math.lcm(*(x.denominator for x in v))
    return D, tuple(x.numerator * (D // x.denominator) for x in v)


def enumerate_bases(arr: Arrangement) -> List[Basis]:
    """All r-subsets with invertible direction matrix, with dual vectors,
    index and coset representatives from an integer column echelon form."""
    r = arr.rank
    out = []
    for combo in itertools.combinations(range(arr.size), r):
        rows = [list(arr.functionals[i].direction) for i in combo]
        d = intlinalg.det(rows)
        if d == 0:
            continue
        inv = intlinalg.mat_inverse(rows)
        duals = {m: tuple(inv[i][j] for i in range(r))
                 for j, m in enumerate(combo)}
        index = abs(int(d))
        out.append(Basis(tuple(combo), rows, duals, index, _coset_reps(rows)))
    return out


def _coset_reps(rows: List[List[int]]) -> List[Tuple[int, ...]]:
    """Representatives of Z^r modulo the lattice of the rows: the box
    0 <= w_i < H_ii of the column echelon H of the transposed rows.  H is
    lower triangular with the lattice as its column lattice, so column i
    reduces coordinate i of any v into the box without touching the ones
    before it, and two points of the box never differ by a lattice point."""
    H, _, _ = intlinalg.column_echelon([list(col) for col in zip(*rows)])
    return list(itertools.product(*(range(H[i][i]) for i in range(len(H)))))


# ---------------------------------------------------------------------------
# the arrangement table
# ---------------------------------------------------------------------------


class ArrangementData:
    """What the directions of an arrangement fix, each part computed on
    first use, bases in the order of ``enumerate_bases`` (see the module
    docstring).  ``phi`` is the default phi once ``choose_phi`` has
    found it; no other phi is kept."""

    def __init__(self, arr: Arrangement):
        self.rank = arr.rank
        self.directions = tuple(f.direction for f in arr.functionals)
        # the arrangement the entry was made for, which enumerate_bases reads
        self._arr = arr
        self.phi: Optional[GenericDirection] = None

    @cached_property
    def indispensable(self) -> Tuple[int, ...]:
        dirs = self.directions
        return tuple(i for i in range(len(dirs))
                     if intlinalg.rank(dirs[:i] + dirs[i + 1:]) != self.rank)

    @cached_property
    def bases(self) -> List[Basis]:
        bases = enumerate_bases(self._arr)
        for i in self.indispensable:
            for b in bases:
                if i not in b.members:
                    raise LatticeSumError(
                        "internal: an indispensable functional escaped a "
                        "basis")
        return bases

    @cached_property
    def pairings(self) -> List[Dict[int, Dict[int, Fraction]]]:
        """Per basis: {g outside it: {member f: <g, f^B>}}."""
        return [{g: {m: _dot(gdir, b.dual(m)) for m in b.members}
                 for g, gdir in enumerate(self.directions)
                 if g not in b.members}
                for b in self.bases]

    @cached_property
    def integer_duals(self) -> List[Dict[int, Tuple[int, Tuple[int, ...]]]]:
        """Per basis: {member f: (D, D f^B)}, D the lcm of the denominators
        of f^B, so that D f^B is an integer vector."""
        return [{m: _integer_vector(b.dual(m)) for m in b.members}
                for b in self.bases]

    @cached_property
    def codim1_normals(self) -> List[Tuple[int, ...]]:
        """Integer normals of the spans of independent (r-1)-subsets."""
        if self.rank == 1:
            return [(1,)]
        normals = {}
        dirs = self.directions
        for combo in itertools.combinations(range(len(dirs)), self.rank - 1):
            rows = [dirs[i] for i in combo]
            if intlinalg.rank(rows) != self.rank - 1:
                continue
            n = tuple(intlinalg.integer_normal(rows))
            canon = n if n > tuple(-x for x in n) else tuple(-x for x in n)
            normals[canon] = True
        return list(normals)


# the direction data of this process, most recently used last
ARRANGEMENT_TABLE_SIZE = 64
_arrangement_table: Dict[tuple, ArrangementData] = {}


def clear_arrangement_table() -> None:
    """Forget the direction data of every arrangement seen so far."""
    _arrangement_table.clear()


def arrangement_data(arr: Arrangement) -> ArrangementData:
    """The table entry of arr's rank and ordered directions."""
    key = (arr.rank, tuple(f.direction for f in arr.functionals))
    data = _arrangement_table.pop(key, None)
    if data is None:
        data = ArrangementData(arr)
        if len(_arrangement_table) >= ARRANGEMENT_TABLE_SIZE:
            del _arrangement_table[next(iter(_arrangement_table))]
    _arrangement_table[key] = data
    return data


# ---------------------------------------------------------------------------
# generic direction phi
# ---------------------------------------------------------------------------


def is_generic(arr: Arrangement, phi: Sequence[int]) -> bool:
    """Whether phi is orthogonal to no dual f^B of a basis member, so that
    every fractional part has a side of phi to take.  Raises ValueError
    unless phi has one entry per dimension: zipped against the duals, a
    longer phi would be read truncated."""
    if len(phi) != arr.rank:
        raise ValueError(f"phi {tuple(phi)} has length {len(phi)}, not "
                         f"the rank {arr.rank}")
    return all(_dot(phi, b.dual(m)) != 0
               for b in arr.bases for m in b.members)


def choose_phi(arr: Arrangement) -> GenericDirection:
    """Deterministic phi = (1, M, ..., M^(r-1)) for the smallest workable M,
    searched once per list of directions and kept in the arrangement
    table."""
    data = arrangement_data(arr)
    M = 1
    while data.phi is None:
        if M > 10_000:
            raise LatticeSumError("no generic direction found (bug)")
        phi = tuple(M**i for i in range(arr.rank))
        if is_generic(arr, phi):
            data.phi = GenericDirection(phi)
        M += 1
    return data.phi


# ---------------------------------------------------------------------------
# fractional parts and excluded hyperplanes
# ---------------------------------------------------------------------------


def frac_part(y: Sequence, w: Sequence[int], basis: Basis, member: int,
              phi: GenericDirection):
    """The fractional part of a = <y + w, dual(member)> on the side of
    phi: {a} when <phi, dual(member)> > 0 and 1 - {-a} when it is < 0, so
    an integer a reads 0 or 1 respectively."""
    dual = basis.dual(member)
    a = sum((yi + wi) * d for yi, wi, d in zip(y, w, dual))
    if _dot(phi.phi, dual) > 0:
        return a - math.floor(a)
    return 1 - (-a - math.floor(-a))


def on_excluded_hyperplanes(y: Sequence, arr: Arrangement,
                            subset: Optional[Sequence[int]] = None) -> bool:
    """Whether y lies on an excluded translated hyperplane for some
    indispensable functional in `subset` (default: all of them).

    For indispensable f the excluded set is characterized by
    <y + w, dual_f> in Z for some integer w, i.e. <y, dual_f> lying in the
    subgroup of Q generated by 1 and the dual entries.  With dual_f read
    from the table as (D, D dual_f), that subgroup is gcd(D, D dual_f)/D Z
    = (1/D) Z, so the test is whether <y, D dual_f> is an integer.
    """
    # zipped against the duals, a short y would be read as it is
    if len(y) != arr.rank:
        raise ValueError("y must have one entry per dimension")
    if subset is None:
        subset = arr.indispensable
    else:
        for i in subset:
            if i not in arr.indispensable:
                raise ValueError(f"functional {i} is not indispensable")
    duals = arrangement_data(arr).integer_duals[0]
    for i in subset:
        _, dual = duals[i]
        if sum(Fraction(v) * d for v, d in zip(y, dual)).denominator == 1:
            return True
    return False


def in_singular_locus(y: Sequence, arr: Arrangement) -> bool:
    """Whether y lies on any codimension-one direction span + Z^r.

    This is the locus where the fractional parts jump; polytope-based
    reconstruction and the differential hierarchy require y off it.
    """
    if len(y) != arr.rank:
        raise ValueError("y must have one entry per dimension")
    # y is on n^perp + Z^r iff <y, n> lies in <Z^r, n>, which is Z as the
    # normals are primitive
    for n in arr.codim1_normals:
        if sum(Fraction(v) * x for v, x in zip(y, n)).denominator == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _constant_to_json(c: Constant):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else str(c)
    if isinstance(c, GaussianRational):
        return {"re": str(c.re), "im": str(c.im)}
    return {"re": c.real, "im": c.imag}


def _constant_from_json(obj, where: str):
    parts = ((obj.get("re", 0), obj.get("im", 0)) if isinstance(obj, dict)
             else (obj,))
    if any(isinstance(x, bool) or not isinstance(x, (int, str, float))
           for x in parts):
        raise ValueError(f"{where}: unreadable constant {obj!r}")
    try:
        if any(isinstance(x, float) for x in parts):
            return complex(*map(float, parts))
        exact = [Fraction(x) for x in parts]
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{where}: unreadable constant {obj!r}") from None
    return exact[0] if len(exact) == 1 else GaussianRational(*exact)


def arrangement_to_json(arr: Arrangement) -> dict:
    return {
        "rank": arr.rank,
        "functionals": [
            {"direction": list(f.direction),
             "constant": _constant_to_json(f.constant)}
            for f in arr.functionals
        ],
    }


def _json_field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    return obj[key]


def arrangement_from_json(obj) -> Arrangement:
    """The arrangement of {"rank": int, "functionals": [{"direction":
    [int, ...], "constant": ...}, ...]}, given as an object or its JSON
    text.  Raises ValueError naming a missing or ill-typed field."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    rank = _json_field(obj, "rank", "the arrangement")
    # int() would read 2.7 as 2, and True is an int in Python
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    items = _json_field(obj, "functionals", "the arrangement")
    if not isinstance(items, list):
        raise ValueError(f"functionals must be a list, got {items!r}")
    fs = []
    for i, item in enumerate(items):
        where = f"functional {i}"
        direction = _json_field(item, "direction", where)
        if not isinstance(direction, list):
            raise ValueError(f"{where}: direction must be a list of "
                             f"integers, got {direction!r}")
        constant = _json_field(item, "constant", where)
        fs.append(Functional(tuple(direction),
                             _constant_from_json(constant, where)))
    return Arrangement(rank, fs)


def load_arrangement(path) -> Arrangement:
    with open(path) as fh:
        return arrangement_from_json(json.load(fh))
