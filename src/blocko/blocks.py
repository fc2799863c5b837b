"""Block data of a weight: integral roots, the integral Coxeter system,
stabilizer, criticality, level class, truncated orbit, tilting.

Truncation discipline: `height_bound` caps root heights, `length_bound` caps
orbit word lengths.  Anything that cannot be certified within the bounds
fails loudly instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from . import coxeter
from .coxeter import INFINITY, CoxeterSystem
from .errors import CriticalityError, TruncationError, UnsupportedError
from .rootdata import (
    CartanDatum,
    Root,
    RootSystem,
    Weight,
    build_root_system,
    cartan_to_json,
    coroot_pairing,
    form,
    reflect,
    reflect_root,
    rho,
    root_to_weight,
    weight_to_json,
)

DEFAULT_HEIGHT_BOUND = 20
DEFAULT_LENGTH_BOUND = 8

_ORDER_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


@dataclass(frozen=True)
class OrbitVertex:
    word: tuple  # indices into integral_simples; shortlex-minimal coset rep
    weight: Weight

    @property
    def length(self):
        return len(self.word)

    def word_str(self):
        return " ".join(str(i + 1) for i in self.word) if self.word else "e"


@dataclass
class BlockData:
    cartan: CartanDatum
    base_weight: Weight
    height_bound: int
    length_bound: int
    root_system: RootSystem
    integral_positive: list  # Roots
    integral_simples: list  # Roots
    coxeter_matrix: tuple  # entries int or INFINITY
    coxeter_system: CoxeterSystem
    stab_reflections: list  # Roots beta with <lambda+rho, beta^vee> = 0
    stab_simple_indices: tuple  # indices into integral_simples fixing lambda
    stab_finite: bool
    stab_order: int | None
    level_class: str
    has_dominant: bool
    has_antidominant: bool
    orbit: list = field(default_factory=list)  # OrbitVertex


def integral_roots(cartan, weight, height_bound, root_system=None):
    """All roots beta of height <= bound with 2(lambda+rho, beta) in
    Z*(beta,beta); closed under negation."""
    if root_system is None:
        root_system = build_root_system(cartan, height_bound)
    shifted = weight + rho(cartan)
    out = []
    for beta in root_system.positive_roots:
        bb = form(beta, beta)
        if bb == 0:
            # imaginary root: integrality here means criticality, handled
            # separately; delta pairs integrally iff (lambda+rho, delta) = 0
            continue
        if (2 * form(shifted, beta) / bb).denominator == 1:
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
        raise TruncationError(
            "simple-root criteria disagree on the truncated set; "
            "increase height_bound"
        )
    # ties in height break toward lower simple index (alpha_1 first)
    return sorted(
        by_reflection,
        key=lambda r: (r.height, tuple(-c for c in r.simple_coords)),
    )


def _coxeter_matrix(simples):
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


def dot_reflect(beta: Root, x: Weight) -> Weight:
    """s_beta . x = s_beta(x + rho) - rho."""
    r = rho(x.cartan)
    return reflect(beta, x + r) - r


def dot_action(block: BlockData, word, weight: Weight) -> Weight:
    """Apply a word in Pi(Lambda)-indices under the dot action
    (rightmost letter first)."""
    for i in reversed(tuple(word)):
        weight = dot_reflect(block.integral_simples[i], weight)
    return weight


def _stabilizer(cartan, weight, positive):
    """Reflections fixing the weight under the dot action, with a
    finiteness certificate (positive definiteness of their root Gram)."""
    shifted = weight + rho(cartan)
    fixed = [b for b in positive if form(shifted, b) == 0]
    if not fixed:
        return [], True, 1
    simples = _integral_simples(fixed)
    gram = [[form(a, b) for b in simples] for a in simples]
    from .linalg import congruence_inertia

    pos, zero, neg = congruence_inertia(gram)
    finite = zero == 0 and neg == 0
    order = None
    if finite:
        sub = CoxeterSystem(_coxeter_matrix(simples))
        order = len(coxeter.all_elements(sub))
    return fixed, finite, order


def _orbit(block: BlockData):
    """BFS over S(Lambda) modulo Stab, keeping shortlex-minimal words."""
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


def _classify_level(cartan, weight):
    if cartan.kind == "finite":
        return "dominant-containing", True, True
    if cartan.kind == "affine":
        delta = Root(cartan, cartan.marks)
        level = form(weight + rho(cartan), delta)
        if level > 0:
            return "dominant-containing", True, False
        if level < 0:
            return "antidominant-containing", False, True
        return "neither-detected", False, False
    return "neither-detected", False, False


def block_data(
    cartan: CartanDatum,
    weight: Weight,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
    length_bound: int = DEFAULT_LENGTH_BOUND,
) -> BlockData:
    """Assemble the block datum of a weight."""
    root_system = build_root_system(cartan, height_bound)
    all_integral = integral_roots(cartan, weight, height_bound, root_system)
    positive = sorted(
        (b for b in all_integral if b.sign > 0),
        key=lambda r: (r.height, tuple(-c for c in r.simple_coords)),
    )
    simples = _integral_simples(positive)
    cox_matrix = _coxeter_matrix(simples)
    system = CoxeterSystem(cox_matrix)
    stab_refl, stab_finite, stab_order = _stabilizer(cartan, weight, positive)
    shifted = weight + rho(cartan)
    stab_simple_idx = tuple(
        i for i, b in enumerate(simples) if form(shifted, b) == 0
    )
    level_class, has_dom, has_anti = _classify_level(cartan, weight)
    block = BlockData(
        cartan=cartan,
        base_weight=weight,
        height_bound=height_bound,
        length_bound=length_bound,
        root_system=root_system,
        integral_positive=positive,
        integral_simples=simples,
        coxeter_matrix=cox_matrix,
        coxeter_system=system,
        stab_reflections=stab_refl,
        stab_simple_indices=stab_simple_idx,
        stab_finite=stab_finite,
        stab_order=stab_order,
        level_class=level_class,
        has_dominant=has_dom,
        has_antidominant=has_anti,
    )
    block.orbit = _orbit(block)
    return block


def integral_simples(block: BlockData):
    return list(block.integral_simples)


def is_critical(block: BlockData) -> bool:
    """Does the class meet a critical hyperplane?  Finite type: never.
    Affine: iff (lambda+rho, delta) = 0."""
    if block.cartan.kind == "finite":
        return False
    if block.cartan.kind == "affine":
        delta = Root(block.cartan, block.cartan.marks)
        return form(block.base_weight + rho(block.cartan), delta) == 0
    raise CriticalityError(
        "criticality undecidable for indefinite type (imaginary root "
        "combinatorics out of scope)"
    )


def stabilizer(block: BlockData):
    """Generator description of Stab(lambda) plus a finiteness flag."""
    return {
        "reflection_roots": [list(b.simple_coords) for b in block.stab_reflections],
        "simple_indices": list(block.stab_simple_indices),
        "finite": block.stab_finite,
        "order": block.stab_order,
    }


def orbit(block: BlockData):
    return list(block.orbit)


def classify_level(block: BlockData) -> str:
    return block.level_class


def tilt(block: BlockData) -> BlockData:
    """The block of -2 rho - lambda; an involution on base weights."""
    tilted_weight = rho(block.cartan).scale(-2) - block.base_weight
    return block_data(
        block.cartan, tilted_weight, block.height_bound, block.length_bound
    )


def equivalence_check(block_a: BlockData, block_b: BlockData) -> str:
    """Mechanical verification of the equivalence-theorem hypotheses.

    Returns "equivalent" or "not-determined" (the theorem has no converse).
    """
    for b in (block_a, block_b):
        if is_critical(b):
            raise CriticalityError("equivalence test rejects critical blocks")
    if not (block_a.stab_finite and block_b.stab_finite):
        return "not-determined"
    if block_a.stab_order != block_b.stab_order:
        return "not-determined"
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
    ma, mb = block_a.coxeter_matrix, block_b.coxeter_matrix
    sa = set(block_a.stab_simple_indices)
    sb = set(block_b.stab_simple_indices)
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
    return {
        "cartan": cartan_to_json(block.cartan),
        "base_weight": weight_to_json(block.base_weight),
        "critical": is_critical(block) if block.cartan.kind != "indefinite" else None,
        "integral_simples": [list(b.simple_coords) for b in block.integral_simples],
        "coxeter_matrix": [
            ["inf" if m is INFINITY else m for m in row]
            for row in block.coxeter_matrix
        ],
        "stabilizer_order": block.stab_order,
        "level_class": block.level_class,
        "has_dominant": block.has_dominant,
        "has_antidominant": block.has_antidominant,
        "orbit": [
            {"word": v.word_str(), "weight": weight_to_json(v.weight)}
            for v in block.orbit
        ],
    }
