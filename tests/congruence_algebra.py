"""The congruence algebra on a vertex subset, grown from the kernel of the
edge congruences degree by degree: the route `blocko.zmod` took for the
structure algebra of a singular block before the Schubert classes covered
it.  Slower (an integer kernel of every congruence row per degree), but
independent of Billey's words and of the Schubert recursion, so the tests
compare the two, and it takes any vertex subset, where the Schubert classes
need the whole truncated orbit."""

from blocko.errors import UnsupportedError
from blocko.linalg import Echelon, kernel_incremental
from blocko.zmod import _certified_lattice, _label, _multiples, _restriction_rows, _width


def congruence_rows(graph, vertex_words, d):
    """Integer constraint rows (slot-major, degree-d coefficients) imposing
    every edge congruence z_a = z_b mod h inside the vertex subset."""
    width = _width(graph, d)
    index = {w: i for i, w in enumerate(vertex_words)}
    rows = []
    for edge, h in graph.edges.items():
        if not edge <= index.keys():
            continue
        a, b = (index[w] for w in edge)
        for r in _restriction_rows(graph, _label(graph, h), d):
            row = [0] * (len(vertex_words) * width)
            row[a * width : (a + 1) * width] = r
            row[b * width : (b + 1) * width] = [-x for x in r]
            rows.append(row)
    return rows


def grown_algebra(graph, vertex_words, count, edge_count, what):
    """The tuples on the sorted vertex subset that satisfy every edge
    congruence, certified free of rank `count`.

    Degree by degree, each vector of the congruence kernel outside the
    S-span of the generators kept so far is kept, until there are `count`.
    Their polynomial degrees must then add up to `edge_count`, which makes
    them the whole algebra (`zmod._certified_lattice`).  The kernel is
    `linalg.kernel_incremental`'s over the sparse rows: primitive integer
    vectors, from code the Schubert route does not use.  Raises UnsupportedError
    once the generators still missing cannot fit under `edge_count`."""
    chosen = []
    d = 0
    while len(chosen) < count:
        missing = count - len(chosen)
        if sum(dg for _, _, dg in chosen) + missing * d > edge_count:
            raise UnsupportedError(
                f"{what} is not free: {missing} generators of degree {d} or "
                f"more do not fit under {edge_count} edges"
            )
        rows = ([(c, x) for c, x in enumerate(row) if x]
                for row in congruence_rows(graph, vertex_words, d))
        span = Echelon(v for _, _, v in _multiples(graph, chosen, d))
        for vec in kernel_incremental(rows, len(vertex_words) * _width(graph, d)):
            if span.add(vec):
                chosen.append((vec, 1, d))
                if len(chosen) == count:
                    break
        d += 1
    return _certified_lattice(graph, vertex_words, chosen, count, what, edge_count)
