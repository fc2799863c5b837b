"""Reference characters from the Lie algebra: ranks of the Shapovalov form.

The Verma module M(mu) is spanned in weight mu - nu by the words
f_{k_1} ... f_{k_m} v of content nu = alpha_{k_1} + ... + alpha_{k_m}.  The
contravariant form, with (v, v) = 1 and e_i adjoint to f_i, needs only

    e_i f_{k_1} ... f_{k_m} v
        = sum_{t: k_t = i} <mu - sum_{s>t} alpha_{k_s}, alpha_i^vee> f_{K minus t} v,

so no Serre relation and no root multiplicity is used.  Its radical is the
maximal submodule, so its rank in weight mu - nu is dim L(mu)_{mu - nu}
(Shapovalov, Funct. Anal. Appl. 6, 1972).  Off every Kac-Kazhdan hyperplane
(Adv. Math. 34, 1979) the form is nondegenerate, and the rank is the
partition count K(nu) = dim U(n^-)_{-nu}, on any symmetrizable type.

The form is built degree by degree.  The words f_j b, for b in the basis of
content nu - alpha_j, span content nu.  At a weight off every hyperplane up
to the depth, the Gram matrix of those words picks a basis among them and
writes the others in it: that is the left action of f_j on U(n^-), the same
at every weight.  Then at any weight mu the e_i action on the basis is

    e_i f_j b = f_j (e_i b) + [i = j] <mu - (nu - alpha_j), alpha_i^vee> b,

and the Gram matrix is (f_j b, c) = (b, e_j c).  Every matrix is K(nu) square.
"""

from itertools import product

from blocko import linalg
from blocko.rootdata import coroot_pairing, dot_reflect, rho


def contents(rank, depth):
    """Every nu in Z_{>=0}^rank of height at most depth, by height."""
    return sorted(
        (nu for nu in product(range(depth + 1), repeat=rank) if sum(nu) <= depth), key=sum
    )


def _less(nu, i):
    """nu - alpha_i, or None when it is not in Q_+."""
    if not nu[i]:
        return None
    return nu[:i] + (nu[i] - 1,) + nu[i + 1:]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v) if a and b)


def kac_kazhdan_hits(cartan, coords, depth):
    """The (beta, n) with 2 (mu + rho, beta) = n (beta, beta), over every
    nonzero beta in Q_+ and n >= 1 with n ht(beta) <= depth, for the weight
    mu of fundamental coordinates `coords`.  Every positive root lies in
    Q_+, so an empty list puts mu off every Kac-Kazhdan hyperplane up to
    that height.  (alpha_i, alpha_j) = d_i a_ij and (mu + rho, alpha_j) =
    d_j (mu_j + 1)."""
    d, a = cartan.symmetrizer, cartan.matrix
    hits = []
    for beta in contents(cartan.rank, depth)[1:]:
        twice = 2 * sum(b * dj * (m + 1) for b, dj, m in zip(beta, d, coords))
        norm = sum(bi * d[i] * _dot(a[i], beta) for i, bi in enumerate(beta))
        hits += [(beta, n) for n in range(1, depth // sum(beta) + 1) if twice == n * norm]
    return hits


class WordBasis:
    """A basis of U(n^-) up to height `depth`, by words, and the Gram
    matrices of the contravariant form on it.

    `basis[nu]` lists the basis words of content nu, each as (j, b): the
    word f_j times basis word b of content nu - alpha_j.  `f_action[nu, j]`
    has one row per basis word b of content nu - alpha_j: the coordinates of
    f_j b in `basis[nu]`.  The words are chosen at the weight depth * rho,
    whose Kac-Kazhdan hyperplanes up to height `depth` are checked: none is
    met, as 2 (depth + 1) sum_j b_j d_j > n (beta, beta) whenever
    n ht(beta) <= depth."""

    def __init__(self, cartan, depth):
        self.cartan = cartan
        self.generic = (depth,) * cartan.rank
        hits = kac_kazhdan_hits(cartan, self.generic, depth)
        if hits:
            raise ValueError(f"the weight {self.generic} meets the hyperplanes {hits}")
        self.contents = contents(cartan.rank, depth)
        self.basis = {self.contents[0]: [None]}  # v itself
        self.f_action = {}
        self._gram(self.generic, self._choose)

    def partition_count(self, nu):
        """K(nu): zero off Q_+ and above the depth."""
        return len(self.basis.get(tuple(nu), ()))

    def ranks(self, coords):
        """{nu: dim L(mu)_{mu - nu}} for the weight mu of fundamental
        coordinates `coords`, over every nu up to the depth."""
        grams = self._gram(coords)
        return {nu: linalg.rank(g) for nu, g in grams.items()}

    def _e_action(self, coords, nu, words, e):
        """e[nu][i] for the given words (j, b) of content nu: per word, the
        coordinates of e_i on it in `basis[nu - alpha_i]`."""
        a, n = self.cartan.matrix, self.cartan.rank
        rows = [[] for _ in range(n)]
        for i in range(n):
            down = _less(nu, i)
            if down is None:
                continue
            for j, b in words:
                below = _less(nu, j)  # the content of b
                out = [0] * len(self.basis[down])
                if below[i]:  # f_j (e_i b)
                    for c, x in enumerate(e[below][i][b]):
                        if x:
                            for k, y in enumerate(self.f_action[down, j][c]):
                                if y:
                                    out[k] += x * y
                if i == j:  # [e_i, f_i] b = h_i b
                    out[b] += coords[i] - _dot(a[i], below)
                rows[i].append(out)
        return rows

    def _gram(self, coords, choose=None):
        """The Gram matrix of each content at the weight; `choose`, given
        the candidate words, their e action and Gram matrix, picks the basis
        (the first pass only)."""
        zero = self.contents[0]
        e, grams = {zero: []}, {zero: [[1]]}
        for nu in self.contents[1:]:
            if choose is None:
                words = self.basis[nu]
            else:
                words = [(j, b) for j in range(len(nu)) if nu[j]
                         for b in range(len(self.basis[_less(nu, j)]))]
            rows = self._e_action(coords, nu, words, e)
            gram = [[_dot(grams[_less(nu, j)][b], rows[j][c]) for c in range(len(words))]
                    for j, b in words]
            if choose is not None:
                gram, rows = choose(nu, words, gram, rows)
            e[nu], grams[nu] = rows, gram
        return grams

    def _choose(self, nu, words, gram, rows):
        """Keep the words at the pivot columns of the Gram matrix.  Its
        columns satisfy the linear relations of the words themselves, as the
        form is nondegenerate here, and the reduced row echelon form writes
        each column in the pivot ones: that is the f action."""
        reduced, pivots = linalg.rref(gram)
        self.basis[nu] = [words[p] for p in pivots]
        for c, (j, b) in enumerate(words):
            self.f_action.setdefault((nu, j), []).append([row[c] for row in reduced])
        return ([[gram[p][q] for q in pivots] for p in pivots],
                [[r[p] for p in pivots] if r else r for r in rows])


def root_offset(block, word):
    """lambda - y.lambda in simple-root coordinates, for y the given word in
    the integral simple reflections of the block, accumulated along the dot
    action from the right: s_beta . x = x - <x + rho, beta^vee> beta."""
    x = block.base_weight
    shift = rho(block.cartan)
    offset = [0] * block.cartan.rank
    for i in reversed(word):
        beta = block.integral_simples[i]
        c = coroot_pairing(x + shift, beta)
        offset = [o + c * m for o, m in zip(offset, beta.simple_coords)]
        x = dot_reflect(beta, x)
    return tuple(offset)


def character_dimensions(block, coefficients, top, words):
    """{nu: dim of the character at top - nu} over every nu up to the depth
    of the word basis, for the combination of Verma characters
    sum_y c_y ch M(y.lambda) given as {word of y: c_y}, with `top` the word
    of the weight that nu is read down from."""
    shift = root_offset(block, top)
    offsets = {y: [a - b for a, b in zip(root_offset(block, y), shift)]
               for y in coefficients}
    return {
        nu: sum(c * words.partition_count([a - b for a, b in zip(nu, offsets[y])])
                for y, c in coefficients.items())
        for nu in words.contents
    }
