import random

from surgerykit import linkdiag
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
