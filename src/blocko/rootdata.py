"""Cartan data, real root enumeration, the invariant form and weights.

Weights are stored in the basis of fundamental weights, with an extra
delta-coefficient in affine type (the basis {Lambda_1..Lambda_n, delta} of the
dual Cartan; no derivation coordinate is kept).  All arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul

from . import linalg
from .errors import CartanError
from .linalg import frac

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


class Value:
    """A value type: instances of one class are equal, and hash alike,
    when the fields named in its `__slots__` are; a field named with a
    leading "_" is derived from the others and not compared."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*(f for f in cls.__slots__ if f[0] != "_"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))


class CartanDatum(Value):
    __slots__ = ("matrix", "symmetrizer", "kind", "marks",
                 "_scale", "_int_symmetrizer", "_int_form")

    def __init__(self, matrix, symmetrizer, kind, marks=None):
        self.matrix = matrix  # generalized Cartan matrix, rows of ints
        self.symmetrizer = symmetrizer  # positive Fractions, d_i a_ij = d_j a_ji
        self.kind = kind
        self.marks = marks  # affine only: primitive positive kernel of A
        # the form on the root lattice times the lcm of the symmetrizer's
        # denominators: integers D_i = scale d_i and (D A)_ij = scale (alpha_i, alpha_j)
        self._scale = math.lcm(*(frac(d).denominator for d in symmetrizer))
        self._int_symmetrizer = tuple(int(d * self._scale) for d in symmetrizer)
        self._int_form = tuple(
            tuple(d * a for a in row) for d, row in zip(self._int_symmetrizer, matrix)
        )

    @property
    def rank(self):
        return len(self.matrix)

    @property
    def is_affine(self):
        return self.kind == AFFINE


def _validate_gcm(matrix):
    """The matrix as a tuple of int rows, if it is a generalized Cartan
    matrix: an entry -1.5, 2.0 or True is not an integer."""
    n = len(matrix)
    if not n:
        raise CartanError("Cartan matrix must not be empty")
    for row in matrix:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise CartanError("Cartan matrix must be square")
        if any(type(a) is not int for a in row):
            raise CartanError("Cartan matrix entries must be integers")
    matrix = tuple(map(tuple, matrix))
    for i, row in enumerate(matrix):
        for j, a in enumerate(row):
            if i == j and a != 2:
                raise CartanError("Cartan matrix diagonal must be 2")
            if i != j and a > 0:
                raise CartanError("off-diagonal Cartan entries must be <= 0")
            if i != j and (a == 0) != (matrix[j][i] == 0):
                raise CartanError("a_ij = 0 must imply a_ji = 0")
    return matrix


def _find_symmetrizer(matrix):
    n = len(matrix)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if matrix[i][j] and i != j:
                    dj = d[i] * matrix[i][j] / matrix[j][i]
                    if d[j] is None:
                        d[j] = dj
                        queue.append(j)
                    elif d[j] != dj:
                        raise CartanError("matrix is not symmetrizable")
    lo = min(d)
    return tuple(x / lo for x in d)


def _kernel_marks(matrix):
    n = len(matrix)
    rows = [[Fraction(a) for a in row] for row in matrix]
    # one kernel vector, as the symmetrized matrix has one zero eigenvalue;
    # it has an entry 1, so it is primitive and never all negative
    kern = linalg.kernel_basis(rows, n)
    ints = linalg.integral(kern[0])[0]
    return tuple(ints) if all(x > 0 for x in ints) else None


def cartan_datum(matrix, symmetrizer=None) -> CartanDatum:
    """Build a CartanDatum from a GCM, detecting finite/affine/indefinite."""
    matrix = _validate_gcm(matrix)
    if symmetrizer is None:
        symmetrizer = _find_symmetrizer(matrix)
    else:
        symmetrizer = tuple(frac(d) for d in symmetrizer)
        if len(symmetrizer) != len(matrix):
            raise CartanError("symmetrizer must have one entry per row")
        if any(d <= 0 for d in symmetrizer):
            raise CartanError("symmetrizer entries must be positive")
        for i in range(len(matrix)):
            for j in range(len(matrix)):
                if symmetrizer[i] * matrix[i][j] != symmetrizer[j] * matrix[j][i]:
                    raise CartanError("symmetrizer does not symmetrize the matrix")
    n = len(matrix)
    sym = [
        [symmetrizer[i] * matrix[i][j] for j in range(n)] for i in range(n)
    ]
    pos, zero, neg = linalg.congruence_inertia(sym)
    if neg == 0 and zero == 0:
        return CartanDatum(matrix, symmetrizer, FINITE)
    if neg == 0 and zero == 1:
        marks = _kernel_marks(matrix)
        if marks is not None:
            # a strictly positive kernel vector makes A indecomposable, and
            # every proper principal submatrix of an indecomposable affine
            # matrix is of finite type (Kac, Infinite-dimensional Lie
            # algebras, Lemma 4.5): deleting node 0 leaves a finite diagram
            return CartanDatum(matrix, symmetrizer, AFFINE, marks)
    return CartanDatum(matrix, symmetrizer, INDEFINITE)


class Weight(Value):
    __slots__ = ("cartan", "coords", "delta")

    def __init__(self, cartan, coords, delta=0):
        self.cartan = cartan
        self.coords = tuple(map(frac, coords))  # fundamental-weight coordinates
        self.delta = frac(delta)

    def __add__(self, other):
        _same_cartan(self, other)
        return Weight(
            self.cartan,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            self.delta + other.delta,
        )

    def __sub__(self, other):
        _same_cartan(self, other)
        return Weight(
            self.cartan,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
            self.delta - other.delta,
        )

    def scale(self, c):
        c = frac(c)
        return Weight(self.cartan, tuple(c * a for a in self.coords), c * self.delta)

    def full_coords(self):
        if self.cartan.is_affine:
            return list(self.coords) + [self.delta]
        return list(self.coords)


class Root(Value):
    __slots__ = ("cartan", "simple_coords")

    def __init__(self, cartan, simple_coords):
        self.cartan = cartan
        self.simple_coords = tuple(map(int, simple_coords))

    @property
    def height(self):
        return sum(self.simple_coords)

    @property
    def sign(self):
        if all(m >= 0 for m in self.simple_coords):
            return 1
        if all(m <= 0 for m in self.simple_coords):
            return -1
        raise ValueError("mixed-sign coordinate vector is not a root")

    @property
    def is_real(self):
        return _scaled_form(self, self) > 0

    def __neg__(self):
        return Root(self.cartan, tuple(-m for m in self.simple_coords))


def simple_root(cartan, i) -> Root:
    coords = [0] * cartan.rank
    coords[i] = 1
    return Root(cartan, tuple(coords))


def _same_cartan(x, y):
    if x.cartan != y.cartan:
        raise ValueError("mixed Cartan data")


def weight_gram(cartan: CartanDatum):
    """Gram matrix of the invariant form on the chosen weight basis.

    Basis is (Lambda_1..Lambda_n) in finite type and
    (Lambda_1..Lambda_n, delta) in affine type.
    """
    n = cartan.rank
    a = [[Fraction(x) for x in row] for row in cartan.matrix]
    d = list(cartan.symmetrizer)
    if cartan.kind == FINITE:
        ainv = linalg.invert(a)
        return tuple(
            tuple(d[i] * ainv[i][j] for j in range(n)) for i in range(n)
        )
    if cartan.kind != AFFINE:
        # indefinite: fundamental weights are not determined without a
        # derivation; we symmetrically extend using a pseudoinverse-free
        # construction only in the affine case.
        raise CartanError("invariant form on weights needs finite or affine type")
    jstar = 0  # the affine node (see cartan_datum)
    rest = [r for r in range(n) if r != jstar]
    sub = [[a[r][c] for c in rest] for r in rest]
    subinv = linalg.invert(sub)
    g = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for ri, r in enumerate(rest):
        for ci, c in enumerate(rest):
            g[r][c] = d[r] * subinv[ri][ci]
    astar = Fraction(cartan.marks[jstar])
    for k in range(n):
        val = astar * (
            (d[jstar] if k == jstar else Fraction(0))
            - sum(a[l][jstar] * g[k][l] for l in range(n))
        )
        g[k][n] = val
        g[n][k] = val
    g[n][n] = Fraction(0)
    return tuple(tuple(row) for row in g)


def _root_coords(root: Root):
    """Integer fundamental-weight coordinates <root, alpha_i^vee>."""
    a = root.cartan.matrix
    m = root.simple_coords
    return tuple(sum(a_ij * m_j for a_ij, m_j in zip(row, m)) for row in a)


def _scaled_form(beta: Root, y):
    """(beta, y) times the datum's scale, for a root beta and a root or a
    weight y: an integer on two roots.  A root pairs through its simple
    coordinates, (alpha_j, y) = d_j <y, alpha_j^vee>, which is d_j y_j for
    a weight and d_j a_jk for y = alpha_k."""
    cartan = beta.cartan
    if cartan.kind not in (FINITE, AFFINE):
        raise CartanError("invariant form on weights needs finite or affine type")
    if isinstance(y, Root):
        n = y.simple_coords
        return sum(m * sum(map(mul, row, n))
                   for m, row in zip(beta.simple_coords, cartan._int_form) if m)
    return sum(d * m * c
               for d, m, c in zip(cartan._int_symmetrizer, beta.simple_coords, y.coords)
               if m and c)


def form(x, y) -> Fraction:
    """The invariant symmetric bilinear form; arguments are Weights or Roots.
    Two weights pair through `weight_gram`, a root through `_scaled_form`."""
    _same_cartan(x, y)
    if not isinstance(x, Root):
        x, y = y, x
    if not isinstance(x, Root):
        g = weight_gram(x.cartan)
        vx, vy = x.full_coords(), y.full_coords()
        return sum(
            vx[i] * g[i][j] * vy[j]
            for i in range(len(vx))
            for j in range(len(vy))
            if vx[i] and g[i][j] and vy[j]
        ) or Fraction(0)
    return Fraction(_scaled_form(x, y), x.cartan._scale)


def coroot_pairing(x, beta: Root) -> Fraction:
    """<x, beta^vee> = 2 (x, beta) / (beta, beta); beta must be real."""
    bb = _scaled_form(beta, beta)
    if bb <= 0:
        raise ValueError("coroot pairing needs a real root")
    _same_cartan(x, beta)
    return Fraction(2 * _scaled_form(beta, x), bb)


def rho(cartan: CartanDatum) -> Weight:
    """A Weyl vector: pairs to 1 with every simple coroot; delta set to 0."""
    return Weight(cartan, (Fraction(1),) * cartan.rank, Fraction(0))


def _real_square(beta: Root):
    bb = _scaled_form(beta, beta)
    if bb <= 0:
        raise ValueError("cannot reflect in an imaginary root")
    return bb


def _reflect(beta: Root, x: Weight, shift) -> Weight:
    """x - <x + shift rho, beta^vee> beta, built as one Weight: beta has
    weight coordinates <beta, alpha_i^vee> and, in affine type, the delta
    coefficient m_0 / a_0 at the affine node 0 (see `cartan_datum`); and
    (rho, beta) = sum d_k m_k."""
    bb = _real_square(beta)
    _same_cartan(x, beta)
    cartan, m = beta.cartan, beta.simple_coords
    num = _scaled_form(beta, x)
    if shift:
        num += sum(map(mul, cartan._int_symmetrizer, m))
    c = Fraction(2 * num, bb)
    delta = x.delta
    if cartan.is_affine:
        delta -= c * Fraction(m[0], cartan.marks[0])
    return Weight(cartan, [a - c * b for a, b in zip(x.coords, _root_coords(beta))], delta)


def reflect(beta: Root, x: Weight) -> Weight:
    """s_beta(x) = x - <x, beta^vee> beta."""
    return _reflect(beta, x, 0)


def dot_reflect(beta: Root, x: Weight) -> Weight:
    """s_beta . x = s_beta(x + rho) - rho."""
    return _reflect(beta, x, 1)


def reflect_root(beta: Root, gamma: Root) -> Root:
    """s_beta(gamma) in simple-root coordinates."""
    bb = _real_square(beta)
    _same_cartan(gamma, beta)
    c, r = divmod(2 * _scaled_form(beta, gamma), bb)
    if r:
        raise ValueError("reflection of a root must stay in the root lattice")
    return Root(
        beta.cartan,
        tuple(g - c * b for g, b in zip(gamma.simple_coords, beta.simple_coords)),
    )


class RootSystem:
    def __init__(self, positive_real, positive_imaginary):
        self.positive_real = positive_real  # Roots, height ascending
        self.positive_imaginary = positive_imaginary  # delta multiples (affine)

    @property
    def positive_roots(self):
        return tuple(
            sorted(
                self.positive_real + self.positive_imaginary,
                key=lambda r: (r.height, r.simple_coords),
            )
        )


def build_root_system(cartan: CartanDatum, height_bound: int) -> RootSystem:
    """All roots of height <= height_bound, by reflection closure of the
    simple roots (real) plus the delta multiples (affine imaginary)."""
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    n = cartan.rank
    seen = {}
    frontier = [simple_root(cartan, i) for i in range(n)]
    for r in frontier:
        seen[r.simple_coords] = r
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                s = reflect_root(simple_root(cartan, i), r)
                if (
                    1 <= s.height <= height_bound
                    and s.simple_coords not in seen
                ):
                    seen[s.simple_coords] = s
                    nxt.append(s)
        frontier = nxt
    real = sorted(seen.values(), key=lambda r: (r.height, r.simple_coords))
    imaginary = []
    if cartan.is_affine:
        delta_height = sum(cartan.marks)
        k = 1
        while k * delta_height <= height_bound:
            imaginary.append(
                Root(cartan, tuple(k * m for m in cartan.marks))
            )
            k += 1
    return RootSystem(tuple(real), tuple(imaginary))


# ---------------------------------------------------------------------------
# serialization helpers

def parse_rational(s) -> Fraction:
    """A rational from an int, a Fraction or its text; not from a bool."""
    if isinstance(s, bool):
        raise ValueError(f"{str(s).lower()} is a boolean, not a number")
    if isinstance(s, (int, Fraction)):
        return frac(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def cartan_from_json(obj) -> CartanDatum:
    if not isinstance(obj, dict) or not isinstance(obj.get("matrix"), list):
        raise CartanError('Cartan data must be a JSON object with a "matrix" list')
    matrix = obj["matrix"]
    if "rank" in obj and type(obj["rank"]) is not int:
        raise CartanError("rank must be an integer")
    if "rank" in obj and len(matrix) != obj["rank"]:
        raise CartanError("rank does not match matrix size")
    symmetrizer = obj.get("symmetrizer")
    if symmetrizer is not None:
        if not isinstance(symmetrizer, list):
            raise CartanError("symmetrizer must be a list")
        symmetrizer = [parse_rational(d) for d in symmetrizer]
    return cartan_datum(matrix, symmetrizer)


def cartan_to_json(cartan: CartanDatum):
    return {
        "rank": cartan.rank,
        "matrix": [list(row) for row in cartan.matrix],
        "symmetrizer": [str(d) for d in cartan.symmetrizer],
    }


def weight_from_json(obj, cartan: CartanDatum) -> Weight:
    coords = [parse_rational(c) for c in obj["coords"]]
    if len(coords) != cartan.rank:
        raise ValueError("weight coordinate count does not match rank")
    delta = parse_rational(obj.get("delta", 0))
    return Weight(cartan, tuple(coords), delta)


def weight_to_json(w: Weight):
    return {
        "coords": [str(c) for c in w.coords],
        "delta": str(w.delta),
    }
