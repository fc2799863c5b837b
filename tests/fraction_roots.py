"""Reference root arithmetic over Fraction.

The invariant form, coroot pairings and reflections as `blocko.rootdata`
computed them before its integer table of the symmetrized Cartan matrix:
each pairing of a root a Fraction sum over the rational symmetrizer, and a
reflection the weight x less a multiple of the root written as a weight.
Also the base weight's position and criticality as `kl` and `blocks`
recomputed them on every call.  Slow, but independent of the integer route,
so the tests compare the two.
"""

from fractions import Fraction

from blocko.errors import CartanError
from blocko.rootdata import AFFINE, FINITE, Root, Weight, rho, weight_gram


def _same_cartan(x, y):
    if x.cartan != y.cartan:
        raise ValueError("mixed Cartan data")


def _root_coords(root):
    """Integer fundamental-weight coordinates <root, alpha_i^vee>."""
    a = root.cartan.matrix
    m = root.simple_coords
    return tuple(sum(a_ij * m_j for a_ij, m_j in zip(row, m)) for row in a)


def root_to_weight(root):
    """Express a root in the weight basis."""
    cartan = root.cartan
    delta = Fraction(0)
    if cartan.is_affine:
        # the affine node is node 0
        delta = Fraction(root.simple_coords[0], cartan.marks[0])
    return Weight(cartan, _root_coords(root), delta)


def form(x, y):
    """The invariant symmetric bilinear form; arguments are Weights or Roots."""
    _same_cartan(x, y)
    if not isinstance(x, Root):
        x, y = y, x
    if not isinstance(x, Root):
        g = weight_gram(x.cartan)
        vx, vy = x.full_coords(), y.full_coords()
        return sum(
            vx[i] * g[i][j] * vy[j]
            for i in range(len(vx))
            for j in range(len(vy))
            if vx[i] and g[i][j] and vy[j]
        ) or Fraction(0)
    cartan = x.cartan
    if cartan.kind not in (FINITE, AFFINE):
        raise CartanError("invariant form on weights needs finite or affine type")
    coords = _root_coords(y) if isinstance(y, Root) else y.coords
    return sum(
        (
            d * m * c
            for d, m, c in zip(cartan.symmetrizer, x.simple_coords, coords)
            if m and c
        ),
        Fraction(0),
    )


def is_real(root):
    return form(root, root) > 0


def coroot_pairing(x, beta):
    """<x, beta^vee> = 2 (x, beta) / (beta, beta); beta must be real."""
    bb = form(beta, beta)
    if bb <= 0:
        raise ValueError("coroot pairing needs a real root")
    return 2 * form(x, beta) / bb


def reflect(beta, x):
    """s_beta(x) = x - <x, beta^vee> beta."""
    if not is_real(beta):
        raise ValueError("cannot reflect in an imaginary root")
    c = coroot_pairing(x, beta)
    return x - root_to_weight(beta).scale(c)


def dot_reflect(beta, x):
    """s_beta . x = s_beta(x + rho) - rho."""
    r = rho(x.cartan)
    return reflect(beta, x + r) - r


def reflect_root(beta, gamma):
    """s_beta(gamma) in simple-root coordinates."""
    if not is_real(beta):
        raise ValueError("cannot reflect in an imaginary root")
    c = coroot_pairing(gamma, beta)
    if c.denominator != 1:
        raise ValueError("reflection of a root must stay in the root lattice")
    return Root(
        beta.cartan,
        tuple(g - int(c) * b for g, b in zip(gamma.simple_coords, beta.simple_coords)),
    )


def base_weight_position(block):
    """Dominant / antidominant / interior, from the coroot pairings of
    lambda + rho with the integral simple roots."""
    shifted = block.base_weight + rho(block.cartan)
    pairings = [coroot_pairing(shifted, b) for b in block.integral_simples]
    if all(p >= 0 for p in pairings):
        return "dominant"
    if all(p <= 0 for p in pairings):
        return "antidominant"
    return "interior"


def is_critical(block):
    """Affine with (lambda + rho, delta) = 0."""
    cartan = block.cartan
    if cartan.kind == FINITE:
        return False
    delta = Root(cartan, cartan.marks)
    return form(block.base_weight + rho(cartan), delta) == 0
