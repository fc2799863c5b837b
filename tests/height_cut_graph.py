"""The moment graph's edges as they were found before Billey's roots: two
orbit vertices are joined whenever a positive integral root of height at
most a bound reflects one onto the other, labeled by h_beta computed with
the invariant form on unit weights.  A reference for `zmod.moment_graph`,
which it matches once the bound reaches the roots of the block's edges."""

from blocko import blocks, rootdata
from blocko.poly import Poly


def form_root_form(cartan, beta):
    """h_beta(mu) = (beta, mu) from one `rootdata.form` per weight
    coordinate: the fundamental weights, then delta in affine type."""
    n = cartan.rank
    units = [rootdata.Weight(cartan, tuple(int(j == k) for j in range(n)))
             for k in range(n)]
    if cartan.is_affine:
        units.append(rootdata.Weight(cartan, (0,) * n, 1))
    return Poly.linear([rootdata.form(beta, u) for u in units])


def height_cut_edges(block, height_bound):
    """frozenset({word, word}) -> h_beta, over the positive integral roots
    beta of height <= height_bound in (height, reversed coordinates) order;
    a later root overwrites an edge's label."""
    positive = sorted(
        (b for b in blocks.integral_roots(block.cartan, block.base_weight, height_bound)
         if b.sign > 0),
        key=lambda r: (r.height, tuple(-c for c in r.simple_coords)),
    )
    by_weight = {v.weight: v.word for v in block.orbit}
    edges = {}
    for v in block.orbit:
        for beta in positive:
            other = blocks.dot_reflect(beta, v.weight)
            if other != v.weight and other in by_weight:
                key = frozenset({v.word, by_weight[other]})
                edges[key] = form_root_form(block.cartan, beta)
    return edges
