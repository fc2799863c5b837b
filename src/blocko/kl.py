"""Kazhdan-Lusztig polynomials, character formulas and multiplicities.

P_{x,w} is computed by the classical recursion; the inverse polynomials
Q_{w,y} are defined operationally by unitriangular inversion of the signed
P-matrix, so that the two character formulas are mutually inverse by
construction.  Polynomials in q are dense integer coefficient tuples,
index = power.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import coxeter
from .coxeter import Element, bruhat_leq, lower_cone
from .errors import CriticalityError, UnsupportedError

ONE = (1,)
ZERO = ()


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_sub(a, b):
    return poly_add(a, tuple(-c for c in b))

def poly_shift(a, k):
    """Multiply by q^k."""
    if not a:
        return ZERO
    return (0,) * k + tuple(a)


def poly_scale(a, c):
    if c == 0:
        return ZERO
    return tuple(c * x for x in a)


def poly_eval_one(a):
    return sum(a)


def poly_str(a):
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            q = "q" if i == 1 else f"q^{i}"
            if c == 1:
                parts.append(q)
            elif c == -1:
                parts.append(f"-{q}")
            else:
                parts.append(f"{c}{q}")
    return "+".join(parts).replace("+-", "-")


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials over one Coxeter system.

    Three stores: `memo` holds P_{x,w} keyed by (x word, w word), `q_memo`
    holds Q_{w,y} keyed by (w word, y word), and `d_memo` holds decomposition
    numbers keyed by (base position, y word, w word)."""

    def __init__(self, system):
        self.system = system
        self.memo = {}
        self.q_memo = {}
        self.d_memo = {}

    def poly(self, x: Element, w: Element):
        """P_{x,w} as a dense coefficient tuple."""
        key = (x.word, w.word)
        if key in self.memo:
            return self.memo[key]
        val = self._compute(x, w)
        self.memo[key] = val
        return val

    def _compute(self, x, w):
        if x.word == w.word:
            return ONE
        if not bruhat_leq(x, w):
            return ZERO
        s_idx = w.word[0]  # left descent of w
        s = self.system.generator(s_idx)
        v = s * w  # length l(w) - 1
        sx = s * x
        if sx.length > x.length:
            # standard reduction: P_{x,w} = P_{sx,w} when sx > x, sw < w
            return self.poly(sx, w)
        total = poly_add(self.poly(sx, v), poly_shift(self.poly(x, v), 1))
        for z in lower_cone(v):
            if (s * z).length < z.length and bruhat_leq(x, z):
                mu = self.mu(z, v)
                if mu:
                    p = self.poly(x, z)
                    if p:
                        k = (w.length - z.length) // 2
                        total = poly_sub(total, poly_scale(poly_shift(p, k), mu))
        return total

    def mu(self, z: Element, v: Element):
        """Coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}."""
        d = v.length - z.length
        if d <= 0 or d % 2 == 0:
            return 0
        p = self.poly(z, v)
        k = (d - 1) // 2
        return p[k] if k < len(p) else 0

    def inverse_poly(self, w: Element, y: Element):
        """Q_{w,y}: unitriangular inversion of the signed P-matrix.

        Each entry only involves the finite Bruhat interval [w, y], so the
        result is exact.
        """
        return self._q(w.word, y.word)

    def _q(self, ww, yw):
        key = (ww, yw)
        if key in self.q_memo:
            return self.q_memo[key]
        w = Element(self.system, ww)
        y = Element(self.system, yw)
        if ww == yw:
            val = ONE
        elif not bruhat_leq(w, y):
            val = ZERO
        else:
            # sum_{w <= z <= y} (-1)^{l(z)-l(w)} Q_{w,z} P_{z,y} = 0
            acc = ZERO
            for z in coxeter.interval(w, y):
                if z.word == yw:
                    continue
                sign = -1 if (z.length - w.length) % 2 else 1
                term = poly_scale(
                    _poly_mul(self._q(ww, z.word), self.poly(z, y)), sign
                )
                acc = poly_add(acc, term)
            sign = -1 if (y.length - w.length) % 2 else 1
            val = poly_scale(acc, -sign)
        self.q_memo[key] = val
        return val


def _poly_mul(a, b):
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# character formulas on a block


@dataclass
class CharacterVector:
    """Finitely supported Z-combination of Verma characters ch M(y.lambda),
    keyed by orbit word (1-based string form)."""

    block: object
    coefficients: dict
    truncated: bool = False

    def to_json(self):
        out = {
            (" ".join(str(i + 1) for i in word) if word else "e"): c
            for word, c in sorted(self.coefficients.items())
        }
        return out


def _require_character_hypotheses(block):
    from .blocks import is_critical  # local import to avoid a cycle

    if is_critical(block):
        raise CriticalityError("character formulas need a non-critical block")
    if block.stab_order != 1:
        raise UnsupportedError(
            "character formulas are stated for regular blocks only"
        )


def base_weight_position(block):
    """Whether the base weight is dominant / antidominant in its class,
    certified by coroot pairings against the integral simple roots: every
    positive integral coroot is a nonnegative combination of theirs."""
    from .rootdata import coroot_pairing, rho

    shifted = block.base_weight + rho(block.cartan)
    pairings = [coroot_pairing(shifted, b) for b in block.integral_simples]
    if all(p >= 0 for p in pairings):
        return "dominant"
    if all(p <= 0 for p in pairings):
        return "antidominant"
    return "interior"


def simple_character(block, w: Element, table: KLTable = None) -> CharacterVector:
    """ch L(w.lambda) as a combination of Verma characters.

    Dominant base weight: ch L(w.l) = sum_{y>=w} (-1)^{l(y)-l(w)} Q_{w,y}(1) ch M(y.l).
    Antidominant:         ch L(w.l) = sum_{y<=w} (-1)^{l(w)-l(y)} P_{y,w}(1) ch M(y.l).
    """
    _require_character_hypotheses(block)
    if table is None:
        table = KLTable(block.coxeter_system)
    position = base_weight_position(block)
    coeffs = {}
    truncated = False
    if position == "antidominant":
        for y in lower_cone(w):
            sign = -1 if (w.length - y.length) % 2 else 1
            c = sign * poly_eval_one(table.poly(y, w))
            if c:
                coeffs[y.word] = c
    elif position == "dominant":
        if coxeter.is_finite(block.coxeter_system):
            cone = [
                y
                for y in coxeter.all_elements(block.coxeter_system)
                if bruhat_leq(w, y)
            ]
        else:
            cone = coxeter.upper_cone(w, block.length_bound)
            truncated = True
        for y in cone:
            sign = -1 if (y.length - w.length) % 2 else 1
            c = sign * poly_eval_one(table.inverse_poly(w, y))
            if c:
                coeffs[y.word] = c
    else:
        raise UnsupportedError(
            "base weight is neither dominant nor antidominant in its class"
        )
    return CharacterVector(block, coeffs, truncated)


def decomposition_matrix(block, length_bound=None, table: KLTable = None):
    """[M(y.lambda) : L(w.lambda)] for orbit words y, w.

    The unitriangular inverse of the simple-character matrix; every entry only
    needs the Bruhat interval [y, w] (or [w, y]), so truncation is exact.
    """
    _require_character_hypotheses(block)
    if table is None:
        table = KLTable(block.coxeter_system)
    if length_bound is None:
        length_bound = block.length_bound
    position = base_weight_position(block)
    if coxeter.is_finite(block.coxeter_system):
        elems = coxeter.all_elements(block.coxeter_system)
    else:
        elems = coxeter.elements_up_to(block.coxeter_system, length_bound)
    out = {}
    for y in elems:
        for w in elems:
            # support: antidominant entries need w <= y, dominant y <= w
            if position == "antidominant":
                ok = bruhat_leq(w, y)
            else:
                ok = bruhat_leq(y, w)
            if not ok:
                continue
            out[(y.word, w.word)] = _decomp_entry(table, position, y, w)
    return out


def _decomp_entry(table, position, y, w):
    """[M(y):L(w)]: entry of the unitriangular inverse of the
    simple-character matrix C, C[w][z] = ch M(z)-coefficient of ch L(w).

    From C*D = identity: D[y][w] = delta_{y,w} - sum_{z != y} C[y][z] D[z][w];
    the sum runs over the finite Bruhat interval between w and y.
    """
    key = (position, y.word, w.word)
    if key in table.d_memo:
        return table.d_memo[key]
    if y.word == w.word:
        val = 1
    else:
        if position == "antidominant":
            # C[y][z] != 0 needs z <= y; D[z][w] != 0 needs w <= z
            between = [
                z for z in lower_cone(y) if bruhat_leq(w, z) and z.word != y.word
            ]
        else:
            # C[y][z] != 0 needs z >= y; D[z][w] != 0 needs z <= w
            between = [
                z for z in lower_cone(w) if bruhat_leq(y, z) and z.word != y.word
            ]
        val = -sum(
            _char_coeff(table, position, y, z) * _decomp_entry(table, position, z, w)
            for z in between
        )
    table.d_memo[key] = val
    return val


def _char_coeff(table, position, wv, yv):
    """Coefficient of ch M(y) in ch L(w)."""
    if position == "antidominant":
        if not bruhat_leq(yv, wv):
            return 0
        sign = -1 if (wv.length - yv.length) % 2 else 1
        return sign * poly_eval_one(table.poly(yv, wv))
    if not bruhat_leq(wv, yv):
        return 0
    sign = -1 if (yv.length - wv.length) % 2 else 1
    return sign * poly_eval_one(table.inverse_poly(wv, yv))


def projective_multiplicities(block, w: Element, table: KLTable = None):
    """(P(w.lambda) : M(y.lambda)) via BGG reciprocity."""
    if block.level_class != "dominant-containing":
        raise UnsupportedError(
            "projectives need a dominant-containing block; apply tilt first"
        )
    _require_character_hypotheses(block)
    if table is None:
        table = KLTable(block.coxeter_system)
    position = base_weight_position(block)
    if coxeter.is_finite(block.coxeter_system):
        elems = coxeter.all_elements(block.coxeter_system)
    else:
        elems = coxeter.elements_up_to(block.coxeter_system, block.length_bound)
    out = {}
    for y in elems:
        mult = _decomp_entry(table, position, y, w)
        if mult:
            out[y.word] = mult
    return out


def verma_hom_dim(block, w: Element, w2: Element) -> int:
    """dim Hom(M(w.lambda), M(w2.lambda)) for dominant or antidominant base.

    Vermas of a block embed along the Bruhat order of W(lambda) modulo the
    stabilizer (BGG; Kac-Kazhdan): on minimal coset representatives,
    Hom != 0 iff w <= w2 for an antidominant base, iff w2 <= w for a
    dominant one."""
    from .blocks import is_critical

    if is_critical(block):
        raise CriticalityError("Verma embeddings need a non-critical block")
    position = base_weight_position(block)
    if position == "interior":
        raise UnsupportedError(
            "Verma embedding dimensions need a dominant or antidominant base"
        )
    stab = set(block.stab_simple_indices)
    x, y = (_min_coset_rep(v, stab) for v in (w, w2))
    if position == "dominant":
        x, y = y, x
    return 1 if bruhat_leq(x, y) else 0


def _min_coset_rep(w: Element, gens):
    """The shortest element of the coset w<gens>."""
    while gens:
        down = coxeter.descents(w) & gens
        if not down:
            break
        w = w * w.system.generator(min(down))
    return w


# ---------------------------------------------------------------------------
# weight multiplicities


def kostant_partition_count(cartan, root_coords) -> int:
    """Number of multisets of positive roots summing to the given
    simple-root coordinate vector (finite type only)."""
    if cartan.kind != "finite":
        raise UnsupportedError("partition counts implemented for finite type")
    if any(c != int(c) or c < 0 for c in root_coords):
        return 0
    coords = tuple(int(c) for c in root_coords)
    from .rootdata import build_root_system

    bound = max(1, sum(coords))
    positives = sorted(
        r.simple_coords for r in build_root_system(cartan, bound).positive_real
    )

    def count(idx, rest):
        if not any(rest):
            return 1
        if idx == len(positives):
            return 0
        root = positives[idx]
        total = 0
        cur = rest
        while all(c >= 0 for c in cur):
            total += count(idx + 1, tuple(cur))
            cur = tuple(a - b for a, b in zip(cur, root))
        return total

    return count(0, coords)


def character_weight_dimensions(block, char: CharacterVector, depth: int):
    """Weight multiplicities of a Verma-character combination.

    Returns {nu: dim at lambda - nu} over all nonnegative simple-root
    vectors nu of height <= depth; zero entries are dropped."""
    from itertools import product

    from .blocks import dot_action
    from .rootdata import weight_root_coords

    lam = block.base_weight
    n = block.cartan.rank
    offsets = {}
    for word in char.coefficients:
        off = weight_root_coords(lam - dot_action(block, word, lam))
        offsets[word] = tuple(off)
    out = {}
    for nu in product(range(depth + 1), repeat=n):
        if sum(nu) > depth:
            continue
        total = 0
        for word, c in char.coefficients.items():
            diff = tuple(a - b for a, b in zip(nu, offsets[word]))
            if all(d.denominator == 1 and d >= 0 for d in diff):
                total += c * kostant_partition_count(block.cartan, diff)
        if total:
            out[nu] = total
    return out
