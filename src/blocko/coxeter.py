"""Abstract Coxeter systems from a Coxeter matrix.

Only crystallographic bond labels {2, 3, 4, 6, infinity} are supported, which
covers every integral Weyl group of a symmetrizable Kac-Moody algebra.  For
these labels the reflection representation is integral: s_k(alpha_j) =
alpha_j - a_kj alpha_k with a Cartan-style pairing a_kj.

An element w is handled through its orbit vector c(w) = (<alpha_j,
w(rho^vee)>)_j: c(e) = (1, ..., 1), a left s_k acts by c_j <- c_j - a_kj c_k,
and s_k w < w exactly when c_k(w) < 0, since c_k(w) is the height of the root
w^-1(alpha_k) (Kac, Lemma 3.11; Casselman, Machine calculations in Weyl
groups, 1994).  rho^vee is interior to the fundamental chamber of any
Kac-Moody root datum (Kac, Prop. 3.12), so c is injective on W in general.

Elements are numbered in ShortLex order (by length, then by normal form, the
lexicographically least reduced word), one length at a time from the orbit
vectors: a finite group up to w0, an infinite one only as far as the longest
element asked for, and growing never changes an id.  The group is finite
exactly when the Cartan-style matrix is of finite type: symmetrizable, with
a positive definite symmetrization (Kac, Ch. 4), so finiteness needs no
walk.  Per id the
system keeps the word, length, left and right descent bitmasks, left and
right products with each generator, inverse, and the one `Element`, which
carries its id.  A Bruhat cone [e, w] is a bitset, a Python int with bit x
set when x <= w, built on first use from [e, w] = [e, sw] u s[e, sw] for a
left descent s; it lists its elements in ShortLex order.
"""

from __future__ import annotations

from itertools import compress, count
from math import inf

from .errors import CartanError, TruncationError, UnsupportedError
from .rootdata import FINITE, Value, cartan_datum

INFINITY = None  # Coxeter matrix entry for infinite order

# off-diagonal Chevalley pairs (-c_ij, -c_ji) realizing each bond label
_BOND_PAIRS = {2: (0, 0), 3: (1, 1), 4: (1, 2), 6: (1, 3), INFINITY: (2, 2)}


def members(mask):
    """The ids in a bitset, in increasing order: its binary digits, lowest
    first, as bytes that are zero at a clear bit, pick the ids from a
    counter in C."""
    return list(compress(count(), bin(mask)[:1:-1].encode().replace(b"0", b"\0")))


def word_str(word):
    """A word's 1-based letters joined by spaces, "e" for the empty word."""
    return " ".join(str(i + 1) for i in word) if word else "e"


def _finite_type(cartan):
    """Is the Coxeter group of this Cartan-style matrix finite?  A matrix
    with no symmetrizer has a cycle in its diagram, which no finite group
    has."""
    if not cartan:
        return True
    try:
        return cartan_datum(cartan).kind == FINITE
    except CartanError:
        return False


class CoxeterSystem:
    """A Coxeter system with its integral reflection representation, its
    ShortLex numbering and the tables over it.

    `finite` says whether the group is.  Per id i of w: `words[i]` (`ids`
    maps it back), `elements[i]`, `length[i]`, the descent bitmasks
    `ldesc[i]` and `rdesc[i]`, the ids `lmul[k][i]` of s_k w, `rmul[k][i]`
    of w s_k and `inv[i]` of w^-1.
    Bitsets of ids: `descent_set[k]` with left descent s_k, `parity[p]` of
    length = p mod 2."""

    def __init__(self, matrix):
        matrix = tuple(
            tuple(INFINITY if x in (INFINITY, 0, "inf") else int(x) for x in row)
            for row in matrix
        )
        n = len(matrix)
        for i in range(n):
            if len(matrix[i]) != n:
                raise ValueError("Coxeter matrix must be square")
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i == j:
                    if matrix[i][j] != 1:
                        raise ValueError("Coxeter matrix diagonal must be 1")
                elif matrix[i][j] not in _BOND_PAIRS:
                    raise UnsupportedError(
                        f"bond label {matrix[i][j]} not in {{2,3,4,6,inf}}"
                    )
        self.matrix = matrix
        self.generator_count = n
        # Cartan-style pairing: s_i(alpha_j) = alpha_j - cartan[i][j] alpha_i
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                cij, cji = _BOND_PAIRS[matrix[i][j]]
                cartan[i][j] = -cij
                cartan[j][i] = -cji
        self.cartan = tuple(tuple(row) for row in cartan)
        # the nonzero off-diagonal pairings of each generator: (j, a_kj)
        self._bonds = tuple(
            tuple((j, a) for j, a in enumerate(row) if a and j != k)
            for k, row in enumerate(self.cartan)
        )
        self.finite = _finite_type(self.cartan)
        self.words, self.ids, self.length = [()], {(): 0}, [0]
        self.ldesc, self.rdesc, self.inv = [0], [0], [0]
        self.lmul = tuple([None] for _ in range(n))
        self.rmul = tuple([None] for _ in range(n))
        self.descent_set = [0] * n
        self.parity = [1, 0]
        self.elements = [Element(self, (), 0)]  # id -> Element
        self._cones = [1]  # id -> bitset of [e, w], None until first use
        self._starts = [0]  # length -> its first id
        self._frontier = {(1,) * n: 0}  # orbit vector -> id, longest length
        self._closed = False  # every element is numbered

    def __eq__(self, other):
        return isinstance(other, CoxeterSystem) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    # -- orbit vectors ------------------------------------------------------

    def _act(self, k, c):
        """c(s_k w) from c(w)."""
        ck = c[k]
        out = list(c)
        out[k] = -ck
        for j, a in self._bonds[k]:
            out[j] -= a * ck
        return tuple(out)

    def _product(self, word):
        """The id of the product of an arbitrary word (0-based indices)."""
        n = self.generator_count
        w = 0
        for k in reversed(word):
            if not 0 <= k < n:
                raise ValueError(f"generator index {k} out of range")
            if self.lmul[k][w] is None:
                self._count(self.length[w] + 1)
            w = self.lmul[k][w]
        return w

    def normal_form(self, word):
        """ShortLex normal form of an arbitrary word (0-based indices)."""
        return self.words[self._product(word)]

    def _next_level(self):
        """Number the elements one length above the longest numbered ones.

        The normal form of u = s_k w starts with its least left descent i,
        and s_i u is numbered, one length shorter.  Products between the two
        lengths follow: u^-1 = s_j (u s_j)^-1 for the last letter j of u,
        and w s_k = (s_k w^-1)^-1."""
        old, words, lmul, rmul = self._frontier, self.words, self.lmul, self.rmul
        n, inv, rdesc = self.generator_count, self.inv, self.rdesc
        found, ups = {}, []  # c(u) -> word of u; (k, w, c(s_k w)) with s_k w > w
        for c, w in old.items():
            for k in range(n):
                if c[k] > 0:
                    d = self._act(k, c)
                    ups.append((k, w, d))
                    if d not in found:
                        i = next(i for i, di in enumerate(d) if di < 0)
                        found[d] = (i,) + words[old[self._act(i, d)]]
        if not found:
            self._closed = True
            return
        start, end, length = len(words), len(words) + len(found), len(self._starts)
        self._starts.append(start)
        self._frontier = new = {}
        for d, word in sorted(found.items(), key=lambda item: item[1]):
            new[d] = self.ids[word] = len(words)
            self.elements.append(Element(self, word, len(words)))
            words.append(word)
            self.ldesc.append(sum(1 << k for k in range(n) if d[k] < 0))
        self.length.extend([length] * len(found))
        self._cones.extend([None] * len(found))
        self.parity[length & 1] |= (1 << end) - (1 << start)
        for k in range(n):
            lmul[k].extend([None] * len(found))
            rmul[k].extend([None] * len(found))
            self.descent_set[k] |= sum(
                1 << u for u in range(start, end) if self.ldesc[u] >> k & 1
            )
        for k, w, d in ups:
            lmul[k][w], lmul[k][new[d]] = new[d], w
        for word in words[start:]:
            inv.append(lmul[word[-1]][inv[self.ids[word[:-1]]]])
        rdesc.extend(self.ldesc[inv[u]] for u in range(start, end))
        for w in old.values():
            for k in range(n):
                if not rdesc[w] >> k & 1:
                    u = inv[lmul[k][inv[w]]]
                    rmul[k][w], rmul[k][u] = u, w

    def _count(self, length):
        """The number of elements of length <= `length` (any, if inf),
        numbering them."""
        while not self._closed and len(self._starts) <= length:
            self._next_level()
        starts = self._starts
        return starts[length + 1] if length + 1 < len(starts) else len(self.words)

    def index(self, word):
        """The id of a ShortLex normal form, None for any other word.  Its
        prefixes are normal forms: grow while the longest numbered one is."""
        while (len(word) >= len(self._starts) and not self._closed
               and word[: len(self._starts) - 1] in self.ids):
            self._next_level()
        return self.ids.get(word)

    def right(self, w, k):
        """The id of w s_k, for w given by its id."""
        if self.rmul[k][w] is None:
            self._count(self.length[w] + 1)
        return self.rmul[k][w]

    def word_times(self, word, k):
        """The normal form of w s_k, for w given by its normal form."""
        if not 0 <= k < self.generator_count:
            raise ValueError(f"generator index {k} out of range")
        return self.words[self.right(self.index(word), k)]

    def cone(self, w):
        """The bitset of the ids x <= w, for w given by its id."""
        if self._cones[w] is None:
            down = self.lmul[self.words[w][0]]
            cone = below = self.cone(down[w])
            for x in members(below):
                cone |= 1 << down[x]
            self._cones[w] = cone
        return self._cones[w]

    # -- elements -----------------------------------------------------------

    def element(self, word=()):
        return self.elements[self._product(tuple(word))]


class Element(Value):
    __slots__ = ("system", "word", "id")

    def __init__(self, system, word, id):
        self.system = system
        self.word = word  # ShortLex normal form, 0-based generator indices
        self.id = id  # its place in the ShortLex numbering

    @property
    def length(self):
        return len(self.word)

    def __mul__(self, other):
        system = self.system
        if system is not other.system and system != other.system:
            raise ValueError("elements of different Coxeter systems")
        w = self.id
        for k in other.word:
            w = system.right(w, k)
        return system.elements[w]

    def inverse(self):
        return self.system.elements[self.system.inv[self.id]]

    def __str__(self):
        return word_str(self.word)


def descents(w: Element):
    """Right descent set {i : l(w s_i) < l(w)}."""
    mask = w.system.rdesc[w.id]
    return {i for i in range(w.system.generator_count) if mask >> i & 1}


def bruhat_leq(x: Element, w: Element) -> bool:
    """Bruhat order: one bit of the cone of w."""
    if len(x.word) >= len(w.word):
        return x.id == w.id
    return bool(w.system.cone(w.id) >> x.id & 1)


def lower_cone(w: Element):
    """All x <= w in Bruhat order, in ShortLex order."""
    system = w.system
    return [system.elements[x] for x in members(system.cone(w.id))]


def interval(x: Element, w: Element):
    """The Bruhat interval [x, w], in ShortLex order."""
    system, cone = w.system, w.system.cone
    return [system.elements[z] for z in members(cone(w.id)) if cone(z) >> x.id & 1]


def elements_up_to(system: CoxeterSystem, length_bound: int):
    """All elements of length <= length_bound, in ShortLex order."""
    return system.elements[: system._count(length_bound)]


def all_elements(system: CoxeterSystem):
    """All elements of a finite Coxeter group, numbered up to w0; error if
    the group is infinite."""
    if not system.finite:
        raise TruncationError("the group is infinite: its Cartan matrix is "
                              "not of finite type")
    return system.elements[: system._count(inf)]


def upper_cone(w: Element, length_bound: int):
    """All y >= w with l(y) <= length_bound."""
    system, cone = w.system, w.system.cone
    return [system.elements[y] for y in range(system._count(length_bound))
            if cone(y) >> w.id & 1]


def demazure_product(system: CoxeterSystem, word):
    """The normal form of the Demazure product of a word: each letter s
    takes w to ws when that is longer, and keeps w otherwise."""
    top = ()
    for s in word:
        top = max(top, system.word_times(top, s), key=len)
    return top


def coset_min_reps(system: CoxeterSystem, stab_gens, length_bound: int):
    """Minimal-length representatives of W / <stab_gens> for a standard
    parabolic subgroup, up to the length bound."""
    mask = sum(1 << k for k in set(stab_gens))
    return [system.elements[y] for y in range(system._count(length_bound))
            if not system.rdesc[y] & mask]


def is_finite(system: CoxeterSystem) -> bool:
    return system.finite
