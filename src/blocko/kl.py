"""Kazhdan-Lusztig polynomials, character formulas and multiplicities.

P_{x,w} comes from the classical recursion run on the Coxeter system's ids:
s w, s x and s z are table lookups, x <= w is a cone bit, and the sum over z
reads the mu-list of v = sw, its z with mu(z, v) != 0 (du Cloux, Exp. Math.
11, 2002).  Q_{w,y} inverts the signed P-matrix over the interval [w, y]: once
a finite group is numbered up to w0 it is P_{w0 y, w0 w}, else the
inversion is run.  So the two character formulas are mutually inverse, and the
decomposition numbers are read off in closed form: [M(y.l):L(w.l)] =
P_{y,w}(1) for a dominant base weight and Q_{w,y}(1) for an antidominant
one.  The P store holds extremal pairs x < w only (du Cloux): every left
and every right descent of w is one of x.  x = w gives 1 and x not <= w, a
cone bit, gives 0; any other x is first raised by each left, then each
right descent of w that it lacks, as P_{x,w} = P_{sx,w} when sw < w
(Kazhdan-Lusztig, Invent. Math. 53, 1979), and likewise on the right.  The
readers map a whole column x <= w to its extremal pairs in one pass.
Polynomials in q are dense integer tuples, index = power.
"""

from __future__ import annotations

from . import coxeter
from .blocks import is_critical, outside_the_length_bound
from .coxeter import Element, bruhat_leq, members, word_str
from .errors import CriticalityError, TruncationError, UnsupportedError

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

    `memo` (P, which the disk cache reads and fills) is keyed by ids and
    holds extremal pairs x < w only, `q_memo` (Q, while w0 is not numbered)
    any pairs x < w.
    `mu_lists[v]` is (bitset of the z whose mu(z, v) was read, the (z, mu)
    among them with mu != 0).  The readers go by column: `_column` is
    (w, ext) for one w, ext[x] the x of the extremal pair that (x, w)
    reduces to (w when P = 1), or -1 for x not <= w.  It holds ids only, so
    filling the store or numbering more elements leaves it valid.  `_w0x[x]`
    is the id of w0 x, once w0 is numbered."""

    def __init__(self, system):
        self.system = system
        self.memo = {}
        self.q_memo = {}
        self.mu_lists = {}
        self._column = (None, [])
        self._w0x = None

    def poly(self, x: Element, w: Element):
        """P_{x,w} as a dense coefficient tuple, read off the column of w."""
        return self._read(x.id, w.id)

    def column(self, w: Element):
        """{x id: P_{x,w}} over the x <= w, in increasing id."""
        w = w.id
        return {x: self._extremal(e, w) for x, e in enumerate(self._ext(w)) if e >= 0}

    def _read(self, x, w):
        """P_{x,w} (ids) off the column of w."""
        ext = self._ext(w)
        if x > w or ext[x] < 0:
            return ZERO
        return self._extremal(ext[x], w)

    def _ext(self, w):
        """ext of the column of w, reduced again when w changes."""
        if self._column[0] != w:
            self._column = (w, self._reduce(w))
        return self._column[1]

    def _reduce(self, w):
        """ext for the column of w.  ext[x] is the longest element of the
        double coset W_I x W_J, I = L(w) and J = R(w), where every walk by
        ascents in I on the left and J on the right ends, `_p`'s too; it is
        still <= w.  One pass down the cone by decreasing id: x takes ext[sx]
        for an s in I not in L(x), else ext[xs] for an s in J not in R(x),
        else is that element."""
        system = self.system
        ldesc, rdesc, lmul, rmul = system.ldesc, system.rdesc, system.lmul, system.rmul
        lw, rw = ldesc[w], rdesc[w]
        ext = [-1] * (w + 1)
        for x in reversed(members(system.cone(w))):
            if up := lw & ~ldesc[x]:
                ext[x] = ext[lmul[up.bit_length() - 1][x]]
            elif up := rw & ~rdesc[x]:
                ext[x] = ext[rmul[up.bit_length() - 1][x]]
            else:
                ext[x] = x
        return ext

    def _extremal(self, x, w):
        """P_{x,w} for an extremal pair x <= w."""
        if x == w:
            return ONE
        val = self.memo.get((x, w))
        if val is None:
            val = self.memo[x, w] = self._compute(x, w)
        return val

    def _p(self, x, w):
        """P_{x,w} (ids) for the recursion, which reads many columns a few
        pairs each: walk the pair down to its extremal pair."""
        if x == w:
            return ONE
        system = self.system
        if not system.cone(w) >> x & 1:
            return ZERO
        # s x <= w for a descent s of w, and a right ascent keeps every
        # left descent: one walk per side ends at an extremal pair
        ldesc, lmul = system.ldesc, system.lmul
        while up := ldesc[w] & ~ldesc[x]:
            x = lmul[(up & -up).bit_length() - 1][x]
        rdesc, rmul = system.rdesc, system.rmul
        while up := rdesc[w] & ~rdesc[x]:
            x = rmul[(up & -up).bit_length() - 1][x]
        return self._extremal(x, w)

    def _compute(self, x, w):
        """P_{x,w} for an extremal pair x < w, so s x < x for the first
        letter s of w: P_{sx,v} + q P_{x,v} - sum mu(z, v) q^k P_{x,z}
        with v = s w and k = (l(w) - l(z)) / 2, summed in one list."""
        system = self.system
        s = system.words[w][0]  # left descent of w, and so of x
        v, sx = system.lmul[s][w], system.lmul[s][x]  # l(v) = l(w) - 1
        length = system.length
        lw = length[w]
        total = [0] * ((lw - length[x]) // 2 + 1)
        for i, c in enumerate(self._p(sx, v)):
            total[i] += c
        for i, c in enumerate(self._p(x, v), 1):
            total[i] += c
        for z, mu in self._mu_terms(x, s, v):
            for i, c in enumerate(self._p(x, z), (lw - length[z]) // 2):
                total[i] -= mu * c
        while not total[-1]:
            total.pop()
        return tuple(total)

    def _mu_terms(self, x, s, v):
        """(z, mu) over the z < v with sz < z, x <= z and mu(z, v), the
        coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}, nonzero.  The mu-list
        grows by the z first needed here: `memo` gets the classical pairs."""
        system = self.system
        cone, length = system.cone, system.length
        seen, found = self.mu_lists.get(v) or (0, [])
        lv = length[v]
        new = cone(v) & system.descent_set[s] & system.parity[(lv + 1) & 1] & ~seen
        if new:
            for z in members(new):
                if cone(z) >> x & 1:
                    seen |= 1 << z
                    p = self._p(z, v)
                    k = (lv - length[z] - 1) // 2
                    if k < len(p) and p[k]:
                        found.append((z, p[k]))
            self.mu_lists[v] = (seen, found)
        ldesc = system.ldesc
        return [(z, mu) for z, mu in found if ldesc[z] >> s & 1 and cone(z) >> x & 1]

    def inverse_poly(self, w: Element, y: Element):
        """Q_{w,y}: unitriangular inversion of the signed P-matrix.

        Q = 0 off the Bruhat order, a cone bit.  Once the numbering has
        reached w0, Q_{w,y} = P_{w0 y, w0 w} (Kazhdan-Lusztig, Invent. Math.
        53, 1979, (3.1)), read off the column of w0 w.  Before that, and on
        an infinite group, `_q` inverts over the finite Bruhat interval
        [w, y], so a short query numbers no element longer than y.
        """
        w, y = w.id, y.id
        if not self.system.cone(y) >> w & 1:
            return ZERO
        w0x = self._w0_times()
        if w0x is None:
            return self._q(w, y)
        return self._read(w0x[y], w0x[w])

    def _w0_times(self):
        """`_w0x`, built once the numbering has reached w0 (the last
        element, every generator a left descent), else None."""
        system = self.system
        if self._w0x is None and system.ldesc[-1] == (1 << system.generator_count) - 1:
            rmul, words = system.rmul, system.words
            w0x = [len(words) - 1]
            for x in range(1, len(words)):
                t = words[x][-1]  # w0 x = (w0 (x t)) t
                w0x.append(rmul[t][w0x[rmul[t][x]]])
            self._w0x = w0x
        return self._w0x

    def _q(self, w, y):
        if w == y:
            return ONE
        cone, length = self.system.cone, self.system.length
        if not cone(y) >> w & 1:
            return ZERO
        val = self.q_memo.get((w, y))
        if val is None:
            # sum_{w <= z <= y} (-1)^{l(z)-l(w)} Q_{w,z} P_{z,y} = 0
            acc = ZERO
            for z in members(cone(y)):
                if z != y and cone(z) >> w & 1:
                    sign = -1 if (length[z] - length[w]) % 2 else 1
                    term = poly_scale(_poly_mul(self._q(w, z), self._p(z, y)), sign)
                    acc = poly_add(acc, term)
            sign = -1 if (length[y] - length[w]) % 2 else 1
            val = self.q_memo[w, y] = poly_scale(acc, -sign)
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


class CharacterVector:
    """Finitely supported Z-combination of Verma characters ch M(y.lambda),
    keyed by orbit word (1-based string form)."""

    def __init__(self, block, coefficients, truncated=False):
        self.block = block
        self.coefficients = coefficients
        self.truncated = truncated

    def to_json(self):
        return {word_str(word): c for word, c in sorted(self.coefficients.items())}


def _require_character_hypotheses(block):
    if is_critical(block):
        raise CriticalityError("character formulas need a non-critical block")
    if block.stab_order != 1:
        raise UnsupportedError(
            "character formulas are stated for regular blocks only"
        )


def base_weight_position(block):
    """Whether the base weight is dominant / antidominant in its class,
    certified by coroot pairings against the integral simple roots (every
    positive integral coroot is a nonnegative combination of theirs), as
    `block_data` found."""
    return block.position


# the refusal of a base weight inside its class, by the character formulas
# and by `bs`
INTERIOR_BASE = "base weight is neither dominant nor antidominant in its class"


def _extremal_position(block):
    """The base weight's position for the character formulas, which hold on
    a regular, non-critical block with a dominant or antidominant base."""
    _require_character_hypotheses(block)
    position = base_weight_position(block)
    if position == "interior":
        raise UnsupportedError(INTERIOR_BASE)
    return position


def _elements(block):
    """The whole integral Weyl group, or its elements up to the block's
    length bound when it is infinite; the flag says whether the list is
    truncated."""
    system = block.coxeter_system
    if coxeter.is_finite(system):
        return coxeter.all_elements(system), False
    return coxeter.elements_up_to(system, block.length_bound), True


def _require_within_the_bound(block, w: Element):
    """Refuse w longer than the length bound of an infinite W(lambda): the
    dominant-base formulas would sum over a truncation without w."""
    if w.length > block.length_bound and not coxeter.is_finite(block.coxeter_system):
        raise TruncationError(outside_the_length_bound(block, w.word))


def simple_character(block, w: Element, table: KLTable = None) -> CharacterVector:
    """ch L(w.lambda) as a combination of Verma characters.

    Dominant base weight: ch L(w.l) = sum_{y>=w} (-1)^{l(y)-l(w)} Q_{w,y}(1) ch M(y.l).
    Antidominant:         ch L(w.l) = sum_{y<=w} (-1)^{l(w)-l(y)} P_{y,w}(1) ch M(y.l).

    On an infinite W(lambda) over a dominant base the sum stops at the
    length bound and the result is marked truncated.  Each length step
    lowers the weight by a positive root, so a truncated character is exact
    only down to depth (length bound - l(w)) below w.l: in the weight spaces
    w.l - nu with ht(nu) <= length bound - l(w).
    """
    position = _extremal_position(block)
    if table is None:
        table = KLTable(block.coxeter_system)
    truncated = False
    if position == "antidominant":
        column = table.column(w)
    else:
        _require_within_the_bound(block, w)
        elems, truncated = _elements(block)
        column = _q_column(table, w, elems)
    words, length, lw = table.system.words, table.system.length, w.length
    coeffs = {}
    for y, p in column.items():
        if c := poly_eval_one(p):
            coeffs[words[y]] = -c if (length[y] - lw) % 2 else c
    return CharacterVector(block, coeffs, truncated)


def _q_column(table, w, elems):
    """{y id: Q_{w,y}} over the listed y >= w, in their order."""
    return {y.id: q for y in elems if (q := table.inverse_poly(w, y))}


def _multiplicities(table, position, w, elems):
    """{y id: [M(y.lambda) : L(w.lambda)]} over the listed y related to w.
    The character matrix is the signed Q-matrix for a dominant base and the
    transposed signed P-matrix for an antidominant one, so its inverse is
    P(1), resp. Q(1) transposed: one column of either."""
    column = table.column(w) if position == "dominant" else _q_column(table, w, elems)
    return {y: poly_eval_one(p) for y, p in column.items()}


def decomposition_matrix(block, table: KLTable = None):
    """[M(y.lambda) : L(w.lambda)] for orbit words y, w related in the Bruhat
    order: P_{y,w}(1) for y <= w over a dominant base, Q_{w,y}(1) for w <= y
    over an antidominant one.  Every entry only needs the Bruhat interval
    between y and w, so truncation is exact.  The entries are read one
    column w at a time.
    """
    position = _extremal_position(block)
    if table is None:
        table = KLTable(block.coxeter_system)
    elems, _ = _elements(block)
    words = table.system.words
    return {(words[y], w.word): n for w in elems
            for y, n in _multiplicities(table, position, w, elems).items()}


def projective_multiplicities(block, w: Element, table: KLTable = None):
    """(P(w.lambda) : M(y.lambda)) = [M(y.lambda) : L(w.lambda)] by BGG
    reciprocity."""
    if not block.has_dominant:
        raise UnsupportedError(
            "projectives need a dominant-containing block; apply tilt first"
        )
    position = _extremal_position(block)
    if position == "dominant":
        _require_within_the_bound(block, w)
    if table is None:
        table = KLTable(block.coxeter_system)
    elems, _ = _elements(block)
    words = table.system.words
    return {words[y]: n for y, n in _multiplicities(table, position, w, elems).items() if n}


def verma_hom_dim(block, w: Element, w2: Element) -> int:
    """dim Hom(M(w.lambda), M(w2.lambda)) for dominant or antidominant base.

    Vermas of a block embed along the Bruhat order of W(lambda) modulo the
    stabilizer (BGG; Kac-Kazhdan): on minimal coset representatives,
    Hom != 0 iff w <= w2 for an antidominant base, iff w2 <= w for a
    dominant one."""
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
    """The shortest element of the coset w<gens>: strip the least right
    descent in gens while there is one."""
    system = w.system
    mask = sum(1 << k for k in gens)
    v = w.id
    while down := system.rdesc[v] & mask:
        v = system.rmul[(down & -down).bit_length() - 1][v]
    return system.elements[v]
