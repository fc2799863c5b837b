"""Reference projectives from Bott-Samelson lattices.

The route `blocko.zmod.identify_projective` took before it built P(w) as the
global sections of the Braden-MacPherson sheaf: decompose the Bott-Samelson
lattice BS(w) of the reduced word w, of rank 2^l(w), by idempotent splitting
and keep the one summand with a slot at w.  Its other summands are shifted
P(y) with y < w (Fiebig, Adv. Math. 217, 2008).  Slow, and it shares neither
the sheaf walk nor its certificate, so the tests compare the two.
"""

from blocko.errors import TruncationError
from blocko.zmod import bott_samelson, decompose


def projective_summand(summands, w):
    """The one summand whose slots contain the vertex w.  Among the summands
    of a Bott-Samelson lattice for a reduced word of w, which has rank 1 at
    w, that is P(w)."""
    word = tuple(w)
    over = [S for S in summands if word in S.slots]
    if len(over) != 1:
        raise TruncationError(
            f"{len(over)} summands have a slot at the vertex, expected 1"
        )
    return over[0]


def reference_projective(graph, w):
    """P(w) as the summand over w of BS(w), for w a vertex word."""
    return projective_summand(decompose(bott_samelson(graph, w)), w)
