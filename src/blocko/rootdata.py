"""Cartan data, real root enumeration, the invariant form and weights.

Weights are stored in the basis of fundamental weights, with an extra
delta-coefficient in affine type (the basis {Lambda_1..Lambda_n, delta} of the
dual Cartan; no derivation coordinate is kept).  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg
from .errors import CartanError
from .linalg import frac

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class CartanDatum:
    matrix: tuple  # generalized Cartan matrix, rows of ints
    symmetrizer: tuple  # positive Fractions d_i with d_i a_ij = d_j a_ji
    kind: str
    marks: tuple | None = None  # affine only: primitive positive kernel of A
    affine_node: int | None = None  # node deleted to get the finite subdiagram

    @property
    def rank(self):
        return len(self.matrix)

    @property
    def is_affine(self):
        return self.kind == AFFINE


def _validate_gcm(matrix):
    n = len(matrix)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise CartanError("Cartan matrix must be square")
        for j, a in enumerate(row):
            if not isinstance(a, int):
                raise CartanError("Cartan matrix entries must be integers")
            if i == j and a != 2:
                raise CartanError("Cartan matrix diagonal must be 2")
            if i != j and a > 0:
                raise CartanError("off-diagonal Cartan entries must be <= 0")
            if i != j and (a == 0) != (matrix[j][i] == 0):
                raise CartanError("a_ij = 0 must imply a_ji = 0")


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
    kern = linalg.kernel_basis(rows, n)
    if len(kern) != 1:
        return None
    v = kern[0]
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if all(x > 0 for x in ints):
        return tuple(ints)
    if all(x < 0 for x in ints):
        return tuple(-x for x in ints)
    return None


def cartan_datum(matrix, symmetrizer=None) -> CartanDatum:
    """Build a CartanDatum from a GCM, detecting finite/affine/indefinite."""
    matrix = tuple(tuple(int(a) for a in row) for row in matrix)
    _validate_gcm(matrix)
    if symmetrizer is None:
        symmetrizer = _find_symmetrizer(matrix)
    else:
        symmetrizer = tuple(frac(d) for d in symmetrizer)
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
            node = _pick_affine_node(matrix, symmetrizer)
            return CartanDatum(matrix, symmetrizer, AFFINE, marks, node)
    return CartanDatum(matrix, symmetrizer, INDEFINITE)


def _pick_affine_node(matrix, symmetrizer):
    n = len(matrix)
    for j in range(n):
        rest = [r for r in range(n) if r != j]
        sub = [[symmetrizer[a] * matrix[a][b] for b in rest] for a in rest]
        pos, zero, neg = linalg.congruence_inertia(sub)
        if zero == 0 and neg == 0:
            return j
    raise CartanError("no affine node found")  # pragma: no cover


@dataclass(frozen=True)
class Weight:
    cartan: CartanDatum
    coords: tuple  # Fractions, fundamental-weight coordinates
    delta: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(frac(c) for c in self.coords))
        object.__setattr__(self, "delta", frac(self.delta))

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


@dataclass(frozen=True)
class Root:
    cartan: CartanDatum
    simple_coords: tuple  # integers

    def __post_init__(self):
        object.__setattr__(
            self, "simple_coords", tuple(int(m) for m in self.simple_coords)
        )

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
        return form(self, self) > 0

    def __neg__(self):
        return Root(self.cartan, tuple(-m for m in self.simple_coords))


def simple_root(cartan, i) -> Root:
    coords = [0] * cartan.rank
    coords[i] = 1
    return Root(cartan, tuple(coords))


def _same_cartan(x, y):
    if x.cartan != y.cartan:
        raise ValueError("mixed Cartan data")


@lru_cache(maxsize=None)
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
    jstar = cartan.affine_node
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


def root_to_weight(root: Root) -> Weight:
    """Express a root in the weight basis."""
    cartan = root.cartan
    n = cartan.rank
    m = root.simple_coords
    coords = tuple(
        sum(Fraction(cartan.matrix[i][j]) * m[j] for j in range(n))
        for i in range(n)
    )
    delta = Fraction(0)
    if cartan.is_affine:
        jstar = cartan.affine_node
        delta = Fraction(m[jstar], cartan.marks[jstar])
    return Weight(cartan, coords, delta)


def _as_weight(x) -> Weight:
    return root_to_weight(x) if isinstance(x, Root) else x


def form(x, y) -> Fraction:
    """The invariant symmetric bilinear form; arguments are Weights or Roots."""
    _same_cartan(x, y)
    wx, wy = _as_weight(x), _as_weight(y)
    g = weight_gram(wx.cartan)
    vx, vy = wx.full_coords(), wy.full_coords()
    return sum(
        vx[i] * g[i][j] * vy[j]
        for i in range(len(vx))
        for j in range(len(vy))
        if vx[i] and g[i][j] and vy[j]
    ) or Fraction(0)


def coroot_pairing(x, beta: Root) -> Fraction:
    """<x, beta^vee> = 2 (x, beta) / (beta, beta); beta must be real."""
    bb = form(beta, beta)
    if bb <= 0:
        raise ValueError("coroot pairing needs a real root")
    return 2 * form(x, beta) / bb


def rho(cartan: CartanDatum) -> Weight:
    """A Weyl vector: pairs to 1 with every simple coroot; delta set to 0."""
    return Weight(cartan, (Fraction(1),) * cartan.rank, Fraction(0))


def reflect(beta: Root, x: Weight) -> Weight:
    """s_beta(x) = x - <x, beta^vee> beta."""
    if not beta.is_real:
        raise ValueError("cannot reflect in an imaginary root")
    c = coroot_pairing(x, beta)
    return x - root_to_weight(beta).scale(c)


def reflect_root(beta: Root, gamma: Root) -> Root:
    """s_beta(gamma) in simple-root coordinates."""
    if not beta.is_real:
        raise ValueError("cannot reflect in an imaginary root")
    c = coroot_pairing(gamma, beta)
    if c.denominator != 1:
        raise ValueError("reflection of a root must stay in the root lattice")
    return Root(
        beta.cartan,
        tuple(g - int(c) * b for g, b in zip(gamma.simple_coords, beta.simple_coords)),
    )


def weight_root_coords(w: Weight):
    """Coordinates of w in the simple-root basis, or None if w is not in
    the root lattice's rational span."""
    cartan = w.cartan
    n = cartan.rank
    a = [[Fraction(x) for x in row] for row in cartan.matrix]
    if cartan.kind == FINITE:
        ainv = linalg.invert(a)
        return linalg.mat_vec(ainv, list(w.coords))
    if cartan.kind != AFFINE:
        raise CartanError("root coordinates need finite or affine type")
    sol = linalg.solve(a, list(w.coords))
    if sol is None:
        return None
    jstar = cartan.affine_node
    astar = Fraction(cartan.marks[jstar])
    # general solution sol + t * marks; pin t by the delta coefficient
    t = w.delta - sol[jstar] / astar
    return [s + t * m for s, m in zip(sol, cartan.marks)]


def leq(lhs: Weight, rhs: Weight) -> bool:
    """Standard partial order: rhs - lhs a nonnegative-integer combination
    of simple roots."""
    _same_cartan(lhs, rhs)
    coords = weight_root_coords(rhs - lhs)
    if coords is None:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coords)


@dataclass(frozen=True)
class RootSystem:
    cartan: CartanDatum
    height_bound: int
    positive_real: tuple  # Roots, height ascending
    positive_imaginary: tuple  # Roots (multiples of delta; affine only)

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
    return RootSystem(cartan, height_bound, tuple(real), tuple(imaginary))


# ---------------------------------------------------------------------------
# serialization helpers

def parse_rational(s) -> Fraction:
    if isinstance(s, (int, Fraction)):
        return frac(s)
    return Fraction(str(s))


def format_rational(x: Fraction) -> str:
    return str(x)


def cartan_from_json(obj) -> CartanDatum:
    matrix = obj["matrix"]
    if "rank" in obj and len(matrix) != obj["rank"]:
        raise CartanError("rank does not match matrix size")
    symmetrizer = obj.get("symmetrizer")
    if symmetrizer is not None:
        symmetrizer = [parse_rational(d) for d in symmetrizer]
    return cartan_datum(matrix, symmetrizer)


def cartan_to_json(cartan: CartanDatum):
    return {
        "rank": cartan.rank,
        "matrix": [list(row) for row in cartan.matrix],
        "symmetrizer": [format_rational(d) for d in cartan.symmetrizer],
    }


def weight_from_json(obj, cartan: CartanDatum) -> Weight:
    coords = [parse_rational(c) for c in obj["coords"]]
    if len(coords) != cartan.rank:
        raise ValueError("weight coordinate count does not match rank")
    delta = parse_rational(obj.get("delta", 0))
    return Weight(cartan, tuple(coords), delta)


def weight_to_json(w: Weight):
    return {
        "coords": [format_rational(c) for c in w.coords],
        "delta": format_rational(w.delta),
    }
