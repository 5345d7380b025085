"""The plain edge congruence check ``gkm_check`` must agree with.

``reference_gkm_check`` walks the edges in order and, for every edge,
lifts both endpoint values to the work ring, derives the edge's generator
afresh from its label and asks ``exact_divide`` whether it divides the
difference.  Nothing is kept between edges or between calls.
"""

from gsplines.rings import MODINT, Residue, RingDescriptor, coerce, edge_modulus, exact_divide


def _lift(x, ring):
    x = coerce(x, ring)
    return x.value if isinstance(x, Residue) else x


def _generator(label, ring):
    """The label's generator over the work ring: zero for the zero ideal,
    the integer modulus over ``Z/n``, else the label without its inverted
    factors, expanded."""
    if label.is_zero:
        return 0 if ring.kind == MODINT else ring.zero()
    if ring.kind == MODINT:
        return edge_modulus(label, ring)
    inverted = ring.inverted_elements()
    return label.without(inverted).expand(ring)


def reference_gkm_check(g, s):
    ring = g.ring
    work = RingDescriptor.integers() if ring.kind == MODINT else ring
    for e in g.edges:
        d = _lift(s.values[e.a], ring) - _lift(s.values[e.b], ring)
        gen = _generator(e.label, ring)
        if not gen:
            if d:
                return False
        elif exact_divide(d, gen, work) is None:
            return False
    return True
