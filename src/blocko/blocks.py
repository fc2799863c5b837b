"""Block data of a weight: integral roots, the integral Coxeter system,
stabilizer, criticality, level class, truncated orbit, tilting.

Truncation discipline: `length_bound` caps orbit word lengths, and nothing
else is cut.  The simple roots of W(lambda) and of the stabilizer are found
without a height bound, on finite and affine data alike; only
`integral_roots` takes one.
"""

from __future__ import annotations

import math
from itertools import islice, permutations

from . import coxeter, linalg
from .coxeter import INFINITY, CoxeterSystem, word_str
from .errors import CartanError, CriticalityError, TruncationError, UnsupportedError
from .rootdata import (
    CartanDatum,
    Root,
    Value,
    Weight,
    build_root_system,
    cartan_to_json,
    coroot_pairing,
    dot_reflect,
    form,
    reflect,
    reflect_root,
    rho,
    weight_to_json,
)

DEFAULT_LENGTH_BOUND = 8

_ORDER_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


class OrbitVertex(Value):
    __slots__ = ("word", "weight")

    def __init__(self, word, weight):
        self.word = word  # indices into integral_simples; shortlex-minimal coset rep
        self.weight = weight

    @property
    def length(self):
        return len(self.word)


class BlockData:
    def __init__(self, cartan, base_weight, length_bound, integral_simples,
                 coxeter_system, stab_simple_indices, stab_order, has_dominant,
                 has_antidominant, position):
        self.cartan = cartan
        self.base_weight = base_weight
        self.length_bound = length_bound
        self.integral_simples = integral_simples  # Roots
        self.coxeter_system = coxeter_system  # its matrix: entries int or INFINITY
        self.stab_simple_indices = stab_simple_indices  # those fixing lambda
        self.stab_order = stab_order  # None when the stabilizer is infinite
        self.has_dominant = has_dominant
        self.has_antidominant = has_antidominant
        # "dominant", "antidominant" or "interior": the signs of the base
        # weight's pairings with the integral simple coroots
        self.position = position
        self.orbit = []  # OrbitVertex


def integral_roots(cartan, weight, height_bound):
    """All roots beta of height <= bound with 2(lambda+rho, beta) in
    Z*(beta,beta); closed under negation."""
    root_system = build_root_system(cartan, height_bound)
    shifted = weight + rho(cartan)
    out = []
    for beta in root_system.positive_roots:
        # an imaginary root is left out: delta pairs integrally iff
        # (lambda+rho, delta) = 0, which is criticality, handled separately
        if beta.is_real and coroot_pairing(shifted, beta).denominator == 1:
            out.append(beta)
    return out + [-b for b in out]


def _integral_simples(positive):
    """Positive integral roots beta with s_beta(Delta_+ \\ {beta}) positive,
    cross-checked against the not-a-sum-of-two criterion."""
    pos_set = {b.simple_coords for b in positive}
    by_reflection = []
    for beta in positive:
        ok = True
        for gamma in positive:
            if gamma.simple_coords == beta.simple_coords:
                continue
            img = reflect_root(beta, gamma)
            if img.sign < 0:
                ok = False
                break
        if ok:
            by_reflection.append(beta)
    sums = set()
    for b in positive:
        for c in positive:
            sums.add(tuple(x + y for x, y in zip(b.simple_coords, c.simple_coords)))
    if any(b.simple_coords in sums for b in by_reflection):
        raise TruncationError("the simple-root criteria disagree")
    # ties in height break toward lower simple index (alpha_1 first)
    return sorted(
        by_reflection,
        key=lambda r: (r.height, tuple(-c for c in r.simple_coords)),
    )


def coxeter_matrix(simples):
    """The Coxeter matrix of the reflections in the given simple roots."""
    n = len(simples)
    mat = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            prod = coroot_pairing(simples[i], simples[j]) * coroot_pairing(
                simples[j], simples[i]
            )
            if prod.denominator != 1 or prod < 0:
                raise UnsupportedError(
                    f"integral simple roots {i + 1}, {j + 1} pair to {prod}, "
                    "not a Coxeter bond"
                )
            mat[i][j] = _ORDER_FROM_PRODUCT.get(int(prod), INFINITY)
    return tuple(tuple(row) for row in mat)


def dot_action(block: BlockData, word, weight: Weight) -> Weight:
    """Apply a word in Pi(Lambda)-indices under the dot action
    (rightmost letter first)."""
    for i in reversed(tuple(word)):
        weight = dot_reflect(block.integral_simples[i], weight)
    return weight


def _integral_candidates(cartan, weight):
    """Positive integral roots among which lie every simple root of
    W(lambda) and every positive root fixing lambda; no height is cut.

    Finite type: all positive integral roots of the (finite) root system.
    Affine type: over the classes of `real_root_classes`, with
    c = (lambda + rho, delta), integrality of beta + n g delta depends on n
    modulo the denominator q of 2 g c / (beta, beta), and for c != 0 one n
    at most gives a root fixing lambda (for c = 0 a class fixes lambda whole
    or not at all).  A simple root of W(lambda) is simple in the infinite
    dihedral group of its class and the opposite one, so it is the least
    integral root of its class: the candidates are, per class, that root
    (among the first q) and the root fixing lambda."""
    shifted = weight + rho(cartan)
    if cartan.kind == "finite":
        roots = build_root_system(cartan, math.inf).positive_real
        return [r for r in roots if coroot_pairing(shifted, r).denominator == 1]
    if cartan.kind != "affine":
        raise CartanError("block data need finite or affine type")
    c = form(shifted, Root(cartan, cartan.marks))
    out = set()
    for low, g in real_root_classes(cartan):
        x, length = form(shifted, low), form(low, low)
        period = (2 * g * c / length).denominator
        integral = (
            n for n in range(period) if (2 * (x + n * g * c) / length).denominator == 1
        )
        steps = list(islice(integral, 1))  # the least integral root
        if c:
            steps.append(-x / (g * c))  # the root fixing lambda
        out.update(
            shift_by_delta(low, n * g) for n in steps if n.denominator == 1 and n >= 0
        )
    return list(out)


def shift_by_delta(root: Root, k) -> Root:
    """root + k delta, in affine type."""
    marks = root.cartan.marks
    return Root(root.cartan, [m + k * d for m, d in zip(root.simple_coords, marks)])


def real_root_classes(cartan):
    """The classes beta + g Z delta of the real roots of affine type, as
    (the least positive root of the class, g).  As g is 1, 2 or 3 (Kac,
    Infinite-dimensional Lie algebras, Prop. 6.3), the two lowest positive
    roots of a class lie below height 6 ht(delta).  A class is keyed by its
    root free of alpha_0, the affine node (see `rootdata.cartan_datum`)."""
    delta = Root(cartan, cartan.marks)
    classes = {}  # beta modulo delta -> its positive roots, height ascending
    for r in build_root_system(cartan, 6 * delta.height).positive_real:
        t = r.simple_coords[0] // cartan.marks[0]
        key = tuple(m - t * d for m, d in zip(r.simple_coords, cartan.marks))
        classes.setdefault(key, []).append(r)
    return [(low, (high.height - low.height) // delta.height)
            for low, high, *_ in classes.values()]


def _orbit(block: BlockData):
    """The dot orbit up to the length bound, one vertex per weight.  In id
    order, w.lambda = s_i.((s_i w).lambda) for the first letter i of w, and
    the first w to reach a weight is its shortlex-minimal coset word."""
    system, simples = block.coxeter_system, block.integral_simples
    weights, vertices = [], {}  # id -> w.lambda; weight -> its vertex
    for w in coxeter.elements_up_to(system, block.length_bound):
        if w.word:
            i = w.word[0]
            weight = dot_reflect(simples[i], weights[system.lmul[i][w.id]])
        else:
            weight = block.base_weight
        weights.append(weight)
        vertices.setdefault(weight, OrbitVertex(w.word, weight))
    return list(vertices.values())


def _classify_level(cartan, weight):
    """(has_dominant, has_antidominant): does the class hold a dominant,
    an antidominant weight?  In affine type that is the sign of the level
    (lambda + rho, delta)."""
    if cartan.kind == "finite":
        return True, True
    level = form(weight + rho(cartan), Root(cartan, cartan.marks))
    return level > 0, level < 0


def block_data(
    cartan: CartanDatum,
    weight: Weight,
    length_bound: int = DEFAULT_LENGTH_BOUND,
) -> BlockData:
    """Assemble the block datum of a weight, its orbit cut at `length_bound`."""
    shifted = weight + rho(cartan)
    positive = _integral_candidates(cartan, weight)
    simples = _integral_simples(positive)
    fixed_simples = _integral_simples([b for b in positive if form(shifted, b) == 0])
    system = CoxeterSystem(coxeter_matrix(simples))
    stabilizer = CoxeterSystem(coxeter_matrix(fixed_simples))
    stab_order = (len(coxeter.all_elements(stabilizer))
                  if coxeter.is_finite(stabilizer) else None)
    pairings = [coroot_pairing(shifted, b) for b in simples]
    stab_simple_idx = tuple(i for i, p in enumerate(pairings) if p == 0)
    if all(p >= 0 for p in pairings):
        position = "dominant"
    elif all(p <= 0 for p in pairings):
        position = "antidominant"
    else:
        position = "interior"
    has_dom, has_anti = _classify_level(cartan, weight)
    # At the critical level the translations of W(lambda) orthogonal to
    # lambda + rho fix it; when no reflection does, they are the stabilizer,
    # infinite once their lattice (rank of the simples less 1) has rank 2.
    if (cartan.is_affine and not has_dom and not has_anti and stab_order == 1
            and linalg.rank([b.simple_coords for b in simples]) > 2):
        stab_order = None
    block = BlockData(
        cartan=cartan,
        base_weight=weight,
        length_bound=length_bound,
        integral_simples=simples,
        coxeter_system=system,
        stab_simple_indices=stab_simple_idx,
        stab_order=stab_order,
        has_dominant=has_dom,
        has_antidominant=has_anti,
        position=position,
    )
    block.orbit = _orbit(block)
    return block


def outside_the_length_bound(block: BlockData, word) -> str:
    """Names the bound a vertex word outgrows and the bound that passes."""
    return (f"vertex {word_str(word)} of length {len(word)} lies outside length "
            f"bound {block.length_bound}; length bound {len(word)} passes")


def is_critical(block: BlockData) -> bool:
    """Does the class meet a critical hyperplane?  Finite type: never.
    Affine: iff (lambda+rho, delta) = 0, which is iff neither a dominant
    nor an antidominant weight lies in the class."""
    return block.cartan.is_affine and not (block.has_dominant or block.has_antidominant)


def tilt(block: BlockData) -> BlockData:
    """The block of -2 rho - lambda; an involution on base weights."""
    tilted_weight = rho(block.cartan).scale(-2) - block.base_weight
    return block_data(block.cartan, tilted_weight, block.length_bound)


def chamber_walk(block: BlockData, weight: Weight, dominant: bool):
    """Walk weight + rho into the closed dominant (else antidominant) chamber
    of W(lambda), reflecting each step in the first integral simple root on
    the wrong side.  Returns the letters i_1 ... i_k, a reduced word with
    weight = s_{i_1} ... s_{i_k} . (end - rho), and the end point.  Raises
    UnsupportedError when the block has no such chamber (`has_dominant`,
    else `has_antidominant`, is False), where the walk would not end."""
    if not (block.has_dominant if dominant else block.has_antidominant):
        side = "dominant" if dominant else "antidominant"
        raise UnsupportedError(f"the block has no {side} chamber to walk into")
    shifted = weight + rho(block.cartan)
    sign = 1 if dominant else -1
    letters = []
    while True:
        pairings = [sign * form(shifted, b) for b in block.integral_simples]
        if min(pairings, default=0) >= 0:
            return tuple(letters), shifted
        letters.append(next(i for i, p in enumerate(pairings) if p < 0))
        shifted = reflect(block.integral_simples[letters[-1]], shifted)


def _chamber_stab_indices(block: BlockData, dominant: bool):
    """Indices of the integral simple roots fixing the base weight after
    `chamber_walk` moves it into the chamber, where its stabilizer is the
    standard parabolic subgroup on those indices."""
    _, shifted = chamber_walk(block, block.base_weight, dominant)
    return {i for i, b in enumerate(block.integral_simples) if form(shifted, b) == 0}


def equivalence_check(block_a: BlockData, block_b: BlockData) -> str:
    """Mechanical verification of the equivalence-theorem hypotheses.

    Returns "equivalent" or "not-determined" (the theorem has no converse).
    """
    for b in (block_a, block_b):
        if is_critical(b):
            raise CriticalityError("equivalence test rejects critical blocks")
    if block_a.stab_order is None or block_a.stab_order != block_b.stab_order:
        return "not-determined"  # infinite or unequal stabilizers
    levels_match = (block_a.has_dominant and block_b.has_dominant) or (
        block_a.has_antidominant and block_b.has_antidominant
    )
    if not levels_match:
        return "not-determined"
    n = len(block_a.integral_simples)
    if n != len(block_b.integral_simples):
        return "not-determined"
    if n > 8:
        raise UnsupportedError("graph isomorphism search capped at 8 generators")
    ma, mb = block_a.coxeter_system.matrix, block_b.coxeter_system.matrix
    dominant = block_a.has_dominant and block_b.has_dominant
    sa = _chamber_stab_indices(block_a, dominant)
    sb = _chamber_stab_indices(block_b, dominant)
    for perm in permutations(range(n)):
        if any(
            ma[i][j] != mb[perm[i]][perm[j]] for i in range(n) for j in range(n)
        ):
            continue
        if {perm[i] for i in sa} != sb:
            continue
        return "equivalent"
    return "not-determined"


def block_to_json(block: BlockData):
    if block.has_dominant:
        level_class = "dominant-containing"
    elif block.has_antidominant:
        level_class = "antidominant-containing"
    else:
        level_class = "neither-detected"
    return {
        "cartan": cartan_to_json(block.cartan),
        "base_weight": weight_to_json(block.base_weight),
        "critical": is_critical(block),
        "integral_simples": [list(b.simple_coords) for b in block.integral_simples],
        "coxeter_matrix": [
            ["inf" if m is INFINITY else m for m in row]
            for row in block.coxeter_system.matrix
        ],
        "stabilizer_order": block.stab_order,
        "level_class": level_class,
        "has_dominant": block.has_dominant,
        "has_antidominant": block.has_antidominant,
        "orbit": [
            {"word": word_str(v.word), "weight": weight_to_json(v.weight)}
            for v in block.orbit
        ],
    }
