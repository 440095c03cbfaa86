import random

from surgerykit import linkdiag
from surgerykit.intlattice import IntegralLattice, _lattice, _slide_rows, direct_sum, e8_matrix
from surgerykit.linkdiag import DiagramError, FramedLinkDiagram


def random_diagram(rng: random.Random, max_components: int = 3,
                   max_crossings: int = 8) -> FramedLinkDiagram:
    """Random valid diagram grown by kinks, clasps, pokes and crossing
    switches, all made in place by one Editor.  Framings are arbitrary
    small integers."""
    k = rng.randint(1, max_components)
    ed = linkdiag.Editor(FramedLinkDiagram())
    for _ in range(k):
        ed.split_unknot(rng.randint(-3, 3))
    d = ed.d
    ids = d.component_ids()
    target = rng.randint(0, max_crossings)
    while len(d.crossings) < target:
        room = target - len(d.crossings)
        choices = ["kink"] if room < 2 else ["kink", "kink", "clasp", "poke"]
        move = rng.choice(choices)
        if move == "kink":
            ed.kink(rng.choice(ids), rng.choice((1, -1)), first_over=rng.random() < 0.5)
        elif len(ids) >= 2:
            i, j = rng.sample(ids, 2)
            if move == "clasp":
                ed.clasp(i, j, rng.choice((1, -1)))
            else:
                ed.poke(i, j, rng.choice((1, -1)))
    for xid in list(d.crossings):
        if rng.random() < 0.3:
            ed.switch(xid)
    assert not linkdiag.validate_diagram(d)
    return d


def random_symmetric(rng: random.Random, n: int, lo: int, hi: int):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


def gadget_sides(d, xid):
    """The non-degenerate side selectors for one crossing."""
    out = []
    for side in linkdiag.SIDES:
        c = d.crossing(xid)
        try:
            linkdiag._side_arcs(c, side)
            x, y, _, _ = linkdiag._side_arcs(c, side)
        except DiagramError:
            continue
        if x != y:
            out.append(side)
    return out


def quad(L, v):
    """The quadratic form v^T L v."""
    return sum(v[i] * L.entries[i][j] * v[j] for i in range(L.n) for j in range(L.n))


def position_rows(L):
    """The nonzero entries of L, as the matrix rules keep them, keyed by
    position."""
    return {p: {q: x for q, x in enumerate(row) if x} for p, row in enumerate(L.entries)}


def moved(L, rule, *args):
    """L after one of intlattice's in-place matrix rules (_slide_rows,
    _stabilize_rows, _blow_down_rows), run on its position rows."""
    A = position_rows(L)
    rule(A, *args)
    return _lattice(A)


def e8_sum(k, ones):
    """E8^k + I_ones, the E8 blocks first."""
    L = IntegralLattice.diagonal([1] * ones)
    for _ in range(k):
        L = direct_sum(e8_matrix(), L)
    return L


def scrambled(L, slides, rng):
    """L after `slides` seeded handle slides e_i += s e_j, drawn as
    perfbench/gen.py's `scrambled` draws them."""
    A = position_rows(L)
    for _ in range(slides):
        i, j = rng.sample(range(L.n), 2)
        _slide_rows(A, i, j, rng.choice((1, -1)))
    return _lattice(A)


def blow_down_gadget(ed, rec):
    """Kirby blow-down of a gadget unknot, the oracle for the crossing-change
    gadget: re-switch the recorded crossing, splice the unknot out, undo the
    framing compensations.  Like every Editor rewrite, a failed check raises
    before the first change."""
    d, u = ed.d, rec.unknot
    comp = ed.comp(u)
    if rec.epsilon not in (1, -1) or comp.framing != rec.epsilon:
        raise DiagramError("gadget unknot %d has framing %d, record says %d"
                           % (u, comp.framing, rec.epsilon))
    xids = ed.xs_of[u]
    if xids and len(xids) != 4:
        raise DiagramError("component %d has %d crossings, not the 4-crossing "
                           "gadget shape" % (u, len(xids)))
    for xid in sorted(xids):
        over, under = d._strand_owners(d.crossings[xid])
        if (over == u) == (under == u):
            raise DiagramError("crossing %d is not a single passage of the "
                               "gadget unknot" % xid)
    if rec.crossing in xids or u in rec.framing_compensations:
        raise DiagramError("gadget record of unknot %d names a crossing or a "
                           "component that the blow-down removes" % u)
    for t in rec.framing_compensations:
        ed.comp(t)  # raises for an unknown component, before any change
    if rec.crossing is not None:
        ed.switch(rec.crossing)
    ed.excise(u)
    for t, delta in rec.framing_compensations.items():
        ed.set_framing(t, ed.comp(t).framing - delta)
