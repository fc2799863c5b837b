"""Reference walks over W(lambda) that the package no longer makes.

`blocko` numbers each Coxeter group once, in ShortLex order, decides
finiteness from the Cartan-style matrix and reads the dot orbit off the
numbering.  The walks below are the independent routes it used before: a
length-by-length closure of orbit vectors, and a breadth-first search over
dot-action weights.  Slow, but they share no code with the numbering, so the
tests compare the two.
"""

from blocko.blocks import OrbitVertex, dot_reflect


def _act(cartan, k, c):
    """c(s_k w) from the orbit vector c(w)."""
    ck = c[k]
    return tuple(-ck if j == k else cj - cartan[k][j] * ck for j, cj in enumerate(c))


def closes_within(system, length_bound):
    """Whether every element is shorter than the bound: the orbit vectors of
    rho^vee, one length at a time, run out before it."""
    n = system.generator_count
    level, length = {(1,) * n}, 0
    while level and length < length_bound:
        level = {
            _act(system.cartan, k, c) for c in level for k in range(n) if c[k] > 0
        }
        length += 1
    return not level


def weight_bfs(block):
    """The dot orbit up to the block's length bound by breadth-first search
    over weights, keeping per weight the least word (i,) + v.word over the
    vertices v one length shorter; sorted by length, then word."""
    n = len(block.integral_simples)
    start = OrbitVertex((), block.base_weight)
    seen = {block.base_weight: start}
    level = [start]
    for _ in range(block.length_bound):
        candidates = {}
        for v in level:
            for i in range(n):
                w = dot_reflect(block.integral_simples[i], v.weight)
                if w in seen:
                    continue
                word = (i,) + v.word
                if w not in candidates or word < candidates[w]:
                    candidates[w] = word
        level = []
        for w, word in sorted(candidates.items(), key=lambda kv: kv[1]):
            vert = OrbitVertex(word, w)
            seen[w] = vert
            level.append(vert)
        if not level:
            break
    return sorted(seen.values(), key=lambda v: (v.length, v.word))
