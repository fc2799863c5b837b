"""Reference Kazhdan-Lusztig polynomials on ShortLex words.

The route `blocko.kl` took before its element-indexed core: elements are
words, normal forms are peeled off the orbit vector c(w) = (<alpha_j,
w(rho^vee)>)_j, x <= w is decided by the subword recursion on a left descent
s of w (x <= w iff min(x, sx) <= sw), lower cones are enumerated from
subwords, P_{x,w} is the classical recursion summing over the whole lower
cone of v = sw, and Q_{w,y} inverts the signed P-matrix over [w, y].  Slow,
but independent of the id tables, so the tests compare the two entry by
entry, and compare the sets of pairs the two recursions store.
"""

from blocko.kl import ONE, ZERO, _poly_mul, poly_add, poly_scale


def poly_shift(a, k):
    """Multiply by q^k."""
    return (0,) * k + tuple(a) if a else ZERO


def poly_sub(a, b):
    return poly_add(a, poly_scale(b, -1))


class WordKL:
    def __init__(self, system):
        self.cartan = system.cartan
        self.n = system.generator_count
        self.memo = {}  # (x word, w word) -> P_{x,w}
        self.q_memo = {}  # (w word, y word) -> Q_{w,y}
        self._normal = {}
        self._leq = {}
        self._cones = {}

    def _act(self, k, c):
        """c(s_k w) from c(w)."""
        return tuple(-c[k] if j == k else cj - self.cartan[k][j] * c[k]
                     for j, cj in enumerate(c))

    def normal_form(self, word):
        if word not in self._normal:
            c = (1,) * self.n
            for k in reversed(word):
                c = self._act(k, c)
            out = []
            while any(ck < 0 for ck in c):
                k = next(k for k, ck in enumerate(c) if ck < 0)
                out.append(k)
                c = self._act(k, c)
            self._normal[word] = tuple(out)
        return self._normal[word]

    def leq(self, xw, ww):
        key = (xw, ww)
        if key not in self._leq:
            if len(xw) > len(ww):
                val = False
            elif xw == ww or not xw:
                val = True
            else:
                sx = self.normal_form(ww[:1] + xw)
                val = self.leq(sx if len(sx) < len(xw) else xw, ww[1:])
            self._leq[key] = val
        return self._leq[key]

    def lower_cone(self, ww):
        """All words <= w, sorted by (length, word)."""
        if ww not in self._cones:
            out = {ww}
            for k in range(len(ww)):
                out.update(self.lower_cone(self.normal_form(ww[:k] + ww[k + 1:])))
            self._cones[ww] = sorted(out, key=lambda u: (len(u), u))
        return self._cones[ww]

    def poly(self, xw, ww):
        key = (xw, ww)
        if key not in self.memo:
            self.memo[key] = self._compute(xw, ww)
        return self.memo[key]

    def _compute(self, xw, ww):
        if xw == ww:
            return ONE
        if not self.leq(xw, ww):
            return ZERO
        s = ww[:1]
        v = ww[1:]
        sx = self.normal_form(s + xw)
        if len(sx) > len(xw):
            return self.poly(sx, ww)
        total = poly_add(self.poly(sx, v), poly_shift(self.poly(xw, v), 1))
        for z in self.lower_cone(v):
            if len(self.normal_form(s + z)) < len(z) and self.leq(xw, z):
                mu = self.mu(z, v)
                if mu:
                    k = (len(ww) - len(z)) // 2
                    total = poly_sub(total, poly_scale(poly_shift(self.poly(xw, z), k), mu))
        return total

    def mu(self, zw, vw):
        d = len(vw) - len(zw)
        if d <= 0 or d % 2 == 0:
            return 0
        p = self.poly(zw, vw)
        k = (d - 1) // 2
        return p[k] if k < len(p) else 0

    def inverse_poly(self, ww, yw):
        key = (ww, yw)
        if key not in self.q_memo:
            if ww == yw:
                val = ONE
            elif not self.leq(ww, yw):
                val = ZERO
            else:
                acc = ZERO
                for z in self.lower_cone(yw):
                    if z != yw and self.leq(ww, z):
                        sign = -1 if (len(z) - len(ww)) % 2 else 1
                        term = _poly_mul(self.inverse_poly(ww, z), self.poly(z, yw))
                        acc = poly_add(acc, poly_scale(term, sign))
                sign = -1 if (len(yw) - len(ww)) % 2 else 1
                val = poly_scale(acc, -sign)
            self.q_memo[key] = val
        return self.q_memo[key]
