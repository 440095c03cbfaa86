import random

from surgerykit import calculus, catalog, linkdiag
from surgerykit.calculus import GadgetSwitch, Poke, SlideOverUnknot
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
    return _grown(rng, ed, rng.randint(0, max_crossings))


def random_trefoil_diagram(rng: random.Random, max_components: int = 3,
                           max_crossings: int = 12) -> FramedLinkDiagram:
    """A trefoil of random framing with up to `max_components - 1` split
    unknots added, grown and switched by the steps of `random_diagram`.
    Unlike that family, not every self-crossing here is a kink."""
    ed = linkdiag.Editor(catalog.trefoil(rng.randint(-3, 3)))
    for _ in range(rng.randint(0, max_components - 1)):
        ed.split_unknot(rng.randint(-3, 3))
    return _grown(rng, ed, rng.randint(3, max_crossings))


def _grown(rng: random.Random, ed: linkdiag.Editor, target: int) -> FramedLinkDiagram:
    """The editor's diagram grown by kinks, clasps and pokes to `target`
    crossings, then each crossing switched with probability 0.3."""
    d = ed.d
    ids = list(d.components)
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


def with_split_unknots(rng: random.Random, d: FramedLinkDiagram,
                       count: int) -> FramedLinkDiagram:
    """`d` itself after adding `count` split unknots framed +1 or -1 at
    random: the slide targets and gadget unknots of a Kirby-move script."""
    ed = linkdiag.Editor(d)
    for _ in range(count):
        ed.split_unknot(rng.choice((1, -1)))
    return d


def random_kirby_move(rng: random.Random, d: FramedLinkDiagram):
    """A random Poke, SlideOverUnknot or GadgetSwitch that replays on `d`,
    or None when the pick does not apply to `d`."""
    ids = list(d.components)
    busy = {d.arcs[a].owner for c in d.crossings.values() for a in (c.over_in, c.under_in)}
    units = [cid for cid, c in d.components.items() if c.framing in (1, -1) and cid not in busy]
    kind = rng.choice(["poke", "slide", "gadget"])
    if kind == "poke" and len(ids) >= 2:
        over, under = rng.sample(ids, 2)
        return Poke(over=over, under=under, sign=rng.choice((1, -1)))
    if kind == "slide" and units and len(ids) >= 2:
        u = rng.choice(units)
        return SlideOverUnknot(component=rng.choice([c for c in ids if c != u]),
                               unknot=u, s=rng.choice((1, -1)))
    if kind == "gadget" and d.crossings:
        xid = rng.choice(sorted(d.crossings))
        sides = gadget_sides(d, xid)
        if sides:
            side = rng.choice(sides)
            eps = linkdiag._side_arcs(d.crossing(xid), side)[4]
            fits = [u for u in units if d.components[u].framing == eps]
            if fits:
                return GadgetSwitch(crossing=xid, unknot=rng.choice(fits), side=side)
    return None


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
        x, y = linkdiag._side_arcs(c, side)[:2]
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
    _add_rows), run on its position rows."""
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


def gadget(ed, xid, side):
    """Editor.gadget(xid, side, u) on a new component u, framed as the
    gadget needs, added just before, as `calculus.unknotify` adds them; u."""
    u = ed.add_component(linkdiag._side_arcs(ed.d.crossing(xid), side)[4])
    ed.gadget(xid, side, u)
    return u


#: the passage signs (a, b) of the over and under strands on each side
PASSAGE_SIGNS = {"before": (1, 1), "after": (-1, -1), "left": (1, -1), "right": (-1, 1)}


def blow_down_gadget(ed, xid, side, u):
    """Kirby blow-down of the gadget unknot `u` that Editor.gadget(xid,
    side, u) wired, the oracle for the crossing-change gadget.  The unknot
    must be framed eps = -s*a*b (s the crossing's sign before the switch,
    a and b the side's passage signs) and link the crossing's over and
    under strands a and b times.  The oracle re-switches the crossing,
    splices the unknot out and moves each framing f_t by -eps*lk(u, t)^2,
    the blow-down formula.  Like every Editor rewrite, a failed check
    raises before the first change."""
    d = ed.d
    comp = ed.comp(u)
    c = d.crossing(xid)
    a, b = PASSAGE_SIGNS[side]
    eps = c.sign * a * b  # the switched crossing has sign -s
    if comp.framing != eps:
        raise DiagramError("gadget unknot %d has framing %d, side %r of crossing %d needs %d"
                           % (u, comp.framing, side, xid, eps))
    xids = ed.xs_of(u)
    if len(xids) != 4:
        raise DiagramError("component %d has %d crossings, not the 4-crossing "
                           "gadget shape" % (u, len(xids)))
    for x in sorted(xids):
        over, under = d._strand_owners(d.crossings[x])
        if (over == u) == (under == u):
            raise DiagramError("crossing %d is not a single passage of the "
                               "gadget unknot" % x)
    if xid in xids:
        raise DiagramError("crossing %d is one of the gadget unknot %d's, which the "
                           "blow-down removes" % (xid, u))
    # the switch swapped the strands: the over strand's component is now under
    over, under = d._strand_owners(c)
    want = {under: a}
    want[over] = want.get(over, 0) + b
    w = ed.linking(u)
    if w != {t: v for t, v in want.items() if v}:
        raise DiagramError("gadget unknot %d links %r, side %r of crossing %d needs %r"
                           % (u, w, side, xid, want))
    ed.switch(xid)
    ed.excise(u)
    for t, wt in w.items():
        ed.set_framing(t, ed.comp(t).framing - eps * wt * wt)


def blow_down_unknotify(d, res, unlink=False):
    """res.diagram, for res = calculus.unknotify(d, unlink=unlink), after
    each gadget unknot is blown back down, the last first."""
    switches = sorted(linkdiag.descending_switch_set(d, self_only=not unlink))
    assert len(switches) == len(res.unknots)
    ed = linkdiag.Editor(res.diagram)
    for xid, u in reversed(list(zip(switches, res.unknots))):
        blow_down_gadget(ed, xid, calculus._gadget_side_for(d.crossing(xid)), u)
    return ed.d


def validate_diagram_oracle(d: FramedLinkDiagram) -> list[str]:
    """linkdiag.validate_diagram as it was before it decided each group of
    checks in bulk, kept verbatim as the oracle of the differential test.
    Its successor walk may run len(arcs) + 1 steps per component and counts
    an arc each time it is reached.  Component ids are the keys of
    d.components, so they cannot repeat."""
    bad: list[str] = []
    comp_set = set(d.components)

    arcs = d.arcs
    by_owner: dict[int, list[int]] = {}
    for aid, arc in arcs.items():
        if arc.owner not in comp_set:
            bad.append("arc %d owned by unknown component %r" % (aid, arc.owner))
        if arc.successor not in arcs:
            bad.append("arc %d has unknown successor %r" % (aid, arc.successor))
        by_owner.setdefault(arc.owner, []).append(aid)

    # every arc is the in-arc of exactly one crossing and the out-arc of
    # exactly one, except arcs of zero-crossing loops; the counts and the
    # components met by a crossing are gathered in the same walk.
    in_count = dict.fromkeys(arcs, 0)
    out_count = dict.fromkeys(arcs, 0)
    busy: set[int] = set()
    for xid, c in d.crossings.items():
        if type(c.sign) is not int or c.sign not in (1, -1):  # no bool or float
            bad.append("crossing %d has sign %r, expected +1 or -1" % (xid, c.sign))
        # strand owners are read from the in-arcs; a missing in-arc names
        # no owner
        for a in (c.over_in, c.under_in):
            if a in arcs:
                busy.add(arcs[a].owner)
        missing = [a for a in c.arc_ids() if a not in arcs]
        if missing:
            bad.append("crossing %d references unknown arcs %r" % (xid, missing))
            continue
        in_count[c.over_in] += 1
        in_count[c.under_in] += 1
        out_count[c.over_out] += 1
        out_count[c.under_out] += 1
        # distinctness: the only allowed coincidences are the kink pattern
        # over_out == under_in / under_out == over_in.
        if c.over_in == c.under_in or c.over_out == c.under_out:
            bad.append("crossing %d shares an in-arc or out-arc between strands" % xid)
        if c.over_in == c.over_out or c.under_in == c.under_out:
            bad.append("crossing %d has a strand entering and leaving on one arc" % xid)
        if arcs[c.over_in].successor != c.over_out:
            bad.append("crossing %d: successor of over_in is not over_out" % xid)
        if arcs[c.under_in].successor != c.under_out:
            bad.append("crossing %d: successor of under_in is not under_out" % xid)

    loops = comp_set - busy
    for aid, arc in arcs.items():
        if arc.owner in loops:
            if in_count[aid] or out_count[aid]:
                bad.append("arc %d of zero-crossing loop appears in a crossing" % aid)
        else:
            if in_count[aid] != 1:
                bad.append("arc %d is the in-arc of %d crossings" % (aid, in_count[aid]))
            if out_count[aid] != 1:
                bad.append("arc %d is the out-arc of %d crossings" % (aid, out_count[aid]))

    # per component, the successor map is one cycle through its arcs
    for cid, comp in d.components.items():
        if type(comp.framing) is not int:  # no bool or float
            bad.append("component %d has framing %r, expected an integer"
                       % (cid, comp.framing))
        mine = by_owner.get(cid, [])
        if comp.basepoint is not None:
            if comp.basepoint not in arcs or arcs[comp.basepoint].owner != cid:
                bad.append("component %d basepoint %r is not one of its arcs"
                           % (cid, comp.basepoint))
        if not mine:
            continue
        start = min(mine)
        seen = [start]
        cur = start
        for _ in range(len(arcs) + 1):
            nxt = arcs[cur].successor if cur in arcs else None
            if nxt is None or nxt not in arcs or arcs[nxt].owner != cid:
                bad.append("component %d successor chain leaves the component at arc %r"
                           % (cid, cur))
                break
            if nxt == start:
                break
            seen.append(nxt)
            cur = nxt
        if set(seen) != set(mine):
            bad.append("component %d arcs are not a single successor cycle (%d of %d reached)"
                       % (cid, len(seen), len(mine)))
    return bad
