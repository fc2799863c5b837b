"""Reference decomposition numbers by unitriangular inversion.

The route `blocko.kl` took before it read [M(y):L(w)] off P(1) and Q(1):
the simple-character matrix C, C[w][y] = ch M(y)-coefficient of ch L(w),
is inverted entry by entry from C D = 1.  Slow, but it uses the character
formulas only, not the closed form, so the tests compare the two.
"""

from blocko.coxeter import bruhat_leq, lower_cone
from blocko.kl import poly_eval_one


class UnitriangularInverse:
    """D = C^-1 for one block, over a KL table and the base weight's
    position ("dominant" or "antidominant")."""

    def __init__(self, table, position):
        self.table = table
        self.position = position
        self.memo = {}

    def char_coeff(self, w, y):
        """C[w][y], the coefficient of ch M(y) in ch L(w)."""
        if self.position == "antidominant":
            if not bruhat_leq(y, w):
                return 0
            sign = -1 if (w.length - y.length) % 2 else 1
            return sign * poly_eval_one(self.table.poly(y, w))
        if not bruhat_leq(w, y):
            return 0
        sign = -1 if (y.length - w.length) % 2 else 1
        return sign * poly_eval_one(self.table.inverse_poly(w, y))

    def entry(self, y, w):
        """D[y][w] = delta_{y,w} - sum_{z != y} C[y][z] D[z][w]; the sum runs
        over the finite Bruhat interval between w and y."""
        key = (y.word, w.word)
        if key in self.memo:
            return self.memo[key]
        if y.word == w.word:
            val = 1
        else:
            if self.position == "antidominant":
                # C[y][z] != 0 needs z <= y; D[z][w] != 0 needs w <= z
                between = [
                    z for z in lower_cone(y) if bruhat_leq(w, z) and z.word != y.word
                ]
            else:
                # C[y][z] != 0 needs z >= y; D[z][w] != 0 needs z <= w
                between = [
                    z for z in lower_cone(w) if bruhat_leq(y, z) and z.word != y.word
                ]
            val = -sum(self.char_coeff(y, z) * self.entry(z, w) for z in between)
        self.memo[key] = val
        return val
