"""Abstract Coxeter systems from a Coxeter matrix.

Only crystallographic bond labels {2, 3, 4, 6, infinity} are supported, which
covers every integral Weyl group of a symmetrizable Kac-Moody algebra.  For
these labels the reflection representation is integral: s_k(alpha_j) =
alpha_j - a_kj alpha_k with a Cartan-style pairing a_kj.

An element w is handled through its orbit vector c(w) = (<alpha_j,
w(rho^vee)>)_j: c(e) = (1, ..., 1), a left s_k acts by c_j <- c_j - a_kj c_k,
and s_k w < w exactly when c_k(w) < 0, since c_k(w) is the height of the root
w^-1(alpha_k) (Kac, Lemma 3.11; Casselman, Machine calculations in Weyl
groups, 1994).  rho^vee is interior to the fundamental chamber, so c is
injective on W, finite or affine.  Elements are kept in ShortLex normal form
(the lexicographically least reduced word), read off c(w) by peeling the
least left descent until none is left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncationError, UnsupportedError

INFINITY = None  # Coxeter matrix entry for infinite order

# off-diagonal Chevalley pairs (-c_ij, -c_ji) realizing each bond label
_BOND_PAIRS = {2: (0, 0), 3: (1, 1), 4: (1, 2), 6: (1, 3), INFINITY: (2, 2)}


class CoxeterSystem:
    """A Coxeter system with its integral reflection representation, and the
    caches of results that depend only on the system."""

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
        self._rho = (1,) * n
        self._closure = {}  # safety bound -> l(w0), or None if not closed
        self._elements = None  # all elements of a finite group
        self._bruhat = {}  # (x word, w word) -> x <= w
        self._cones = {}  # w word -> frozenset of the words below it

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

    def _vector(self, word):
        """c(s_{word[0]} ... s_{word[-1]})."""
        c = self._rho
        for k in reversed(word):
            c = self._act(k, c)
        return c

    def _peel(self, c):
        """ShortLex normal form of the element with orbit vector c."""
        out = []
        while True:
            for k, ck in enumerate(c):
                if ck < 0:
                    break
            else:
                return tuple(out)
            out.append(k)
            c = self._act(k, c)

    def normal_form(self, word):
        """ShortLex normal form of an arbitrary word (0-based indices)."""
        n = self.generator_count
        for i in word:
            if not 0 <= i < n:
                raise ValueError(f"generator index {i} out of range")
        return self._peel(self._vector(word))

    def _next_level(self, level):
        """{c(s_k w): normal form} over w in `level` and s_k with s_k w > w.

        The normal form of u = s_k w starts with its least left descent i,
        and s_i u has one length less, so its word is already in `level`."""
        out = {}
        for c in level:
            for k, ck in enumerate(c):
                if ck > 0:
                    d = self._act(k, c)
                    if d not in out:
                        i = next(i for i, di in enumerate(d) if di < 0)
                        out[d] = (i,) + level[self._act(i, d)]
        return out

    def longest_length(self, safety_bound):
        """l(w0) if every element is shorter than safety_bound, else None.

        Enumerates orbit vectors length by length, without words, once per
        system and bound."""
        if safety_bound not in self._closure:
            level, length = {self._rho}, 0
            while level and length < safety_bound:
                level = {
                    self._act(k, c) for c in level for k, ck in enumerate(c) if ck > 0
                }
                length += 1
            self._closure[safety_bound] = None if level else length - 1
        return self._closure[safety_bound]

    # -- elements -----------------------------------------------------------

    def element(self, word=()):
        return Element(self, self.normal_form(tuple(word)))

    def generator(self, i):
        return self.element((i,))


@dataclass(frozen=True)
class Element:
    system: CoxeterSystem
    word: tuple  # ShortLex normal form, 0-based generator indices

    @property
    def length(self):
        return len(self.word)

    def __mul__(self, other):
        if self.system is not other.system and self.system != other.system:
            raise ValueError("elements of different Coxeter systems")
        return Element(self.system, self.system.normal_form(self.word + other.word))

    def inverse(self):
        return Element(self.system, self.system.normal_form(self.word[::-1]))

    def __str__(self):
        return " ".join(str(i + 1) for i in self.word) if self.word else "e"


def descents(w: Element):
    """Right descent set {i : l(w s_i) < l(w)}: the left descents of w^-1."""
    c = w.system._vector(w.word[::-1])
    return {i for i, ci in enumerate(c) if ci < 0}


def bruhat_leq(x: Element, w: Element) -> bool:
    """Bruhat order via the subword property."""
    return _bruhat_leq_words(x.system, x.word, w.word)


def _bruhat_leq_words(system, xw, ww):
    key = (xw, ww)
    memo = system._bruhat
    if key in memo:
        return memo[key]
    if len(xw) > len(ww):
        val = False
    elif xw == ww or not xw:
        val = True
    else:
        s = ww[0]  # a left descent of w
        sw = ww[1:]  # reduced: normal form tails are reduced
        sx = system.normal_form((s,) + xw)
        val = _bruhat_leq_words(system, sx if len(sx) < len(xw) else xw, sw)
    memo[key] = val
    return val


def _lower_cone_words(system, ww):
    """All elements <= w, as normal-form words (subword enumeration)."""
    memo = system._cones
    if ww not in memo:
        out = {ww}
        for k in range(len(ww)):
            sub = ww[:k] + ww[k + 1 :]
            out.update(_lower_cone_words(system, system.normal_form(sub)))
        memo[ww] = frozenset(out)
    return memo[ww]


def lower_cone(w: Element):
    """All x <= w in Bruhat order."""
    return sorted(
        (Element(w.system, word) for word in _lower_cone_words(w.system, w.word)),
        key=lambda e: (e.length, e.word),
    )


def interval(x: Element, w: Element):
    """The Bruhat interval [x, w]."""
    return [y for y in lower_cone(w) if bruhat_leq(x, y)]


def elements_up_to(system: CoxeterSystem, length_bound: int):
    """All elements of length <= length_bound, in ShortLex order."""
    level = {system._rho: ()}
    words = [()]
    for _ in range(length_bound):
        level = system._next_level(level)
        if not level:
            break
        words.extend(sorted(level.values()))
    return [Element(system, word) for word in words]


def all_elements(system: CoxeterSystem, safety_bound: int = 64):
    """All elements of a finite Coxeter group; error if not closed within
    the safety bound."""
    longest = system.longest_length(safety_bound)
    if longest is None:
        raise TruncationError("group did not close; is it infinite?")
    if system._elements is None:
        system._elements = tuple(elements_up_to(system, longest))
    return list(system._elements)


def upper_cone(w: Element, length_bound: int):
    """All y >= w with l(y) <= length_bound."""
    return [
        y
        for y in elements_up_to(w.system, length_bound)
        if bruhat_leq(w, y)
    ]


def coset_min_reps(system: CoxeterSystem, stab_gens, length_bound: int):
    """Minimal-length representatives of W / <stab_gens> for a standard
    parabolic subgroup, up to the length bound."""
    stab = set(stab_gens)
    return [
        w
        for w in elements_up_to(system, length_bound)
        if not (descents(w) & stab)
    ]


def is_finite(system: CoxeterSystem, safety_bound: int = 64) -> bool:
    return system.longest_length(safety_bound) is not None
