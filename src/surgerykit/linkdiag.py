"""Combinatorial framed-link diagrams and their local rewrites.

A diagram is a 4-valent graph presentation of an oriented link: arcs are
directed edges, crossings record which strand passes over, and each
component carries an integer framing stored independently of the picture
(so Reidemeister-1 bookkeeping never touches it).  Crossing signs are
stored data; planar realizability is deliberately not checked -- every
operation here is honest at the level of linking numbers and framings,
which is the level at which the surgery semantics live.

Conventions fixed here and pinned by the tests:

* right-handed crossing has sign +1;
* the linking number of two components is half the sum of the signs of
  their shared crossings;
* fresh arc / crossing / component ids are always the smallest unused
  non-negative integers, allocated in the documented order, so rewrites
  replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intlattice import IntegralLattice


class DiagramError(ValueError):
    """Raised when an operation's precondition on a diagram fails."""


#: side selectors for gadget insertion: which pair of arcs adjacent to a
#: crossing the fresh unknot encircles.
SIDE_BEFORE = "before"   # over_in  + under_in   (both strands entering)
SIDE_AFTER = "after"     # over_out + under_out  (both strands leaving)
SIDE_LEFT = "left"       # over_in  + under_out  (antiparallel passages)
SIDE_RIGHT = "right"     # over_out + under_in   (antiparallel passages)
SIDES = (SIDE_BEFORE, SIDE_AFTER, SIDE_LEFT, SIDE_RIGHT)


@dataclass
class Component:
    id: int
    framing: int
    basepoint: int | None = None


@dataclass
class Arc:
    owner: int
    successor: int


@dataclass
class Crossing:
    over_in: int
    over_out: int
    under_in: int
    under_out: int
    sign: int

    def arc_ids(self):
        return (self.over_in, self.over_out, self.under_in, self.under_out)


@dataclass
class GadgetRecord:
    """Replayable record of one crossing change realized by a blow-up."""

    unknot: int
    crossing: int | None
    epsilon: int
    passage_signs: tuple[int, int]
    framing_compensations: dict[int, int] = field(default_factory=dict)


@dataclass
class FramedLinkDiagram:
    components: list[Component] = field(default_factory=list)
    arcs: dict[int, Arc] = field(default_factory=dict)
    crossings: dict[int, Crossing] = field(default_factory=dict)

    # -- basic accessors -------------------------------------------------

    def copy(self) -> "FramedLinkDiagram":
        return FramedLinkDiagram(
            components=[Component(c.id, c.framing, c.basepoint) for c in self.components],
            arcs={a: Arc(v.owner, v.successor) for a, v in self.arcs.items()},
            crossings={
                x: Crossing(c.over_in, c.over_out, c.under_in, c.under_out, c.sign)
                for x, c in self.crossings.items()
            },
        )

    def component(self, cid: int) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise DiagramError("unknown component id %r" % (cid,))

    def component_ids(self) -> list[int]:
        return [c.id for c in self.components]

    def crossing(self, xid: int) -> Crossing:
        try:
            return self.crossings[xid]
        except KeyError:
            raise DiagramError("unknown crossing id %r" % (xid,)) from None

    def arc(self, aid: int) -> Arc:
        try:
            return self.arcs[aid]
        except KeyError:
            raise DiagramError("unknown arc id %r" % (aid,)) from None

    def arcs_of_component(self, cid: int) -> list[int]:
        return [a for a, v in self.arcs.items() if v.owner == cid]

    def crossings_of_component(self, cid: int) -> list[int]:
        out = []
        for x, c in self.crossings.items():
            owners = self._strand_owners(c)
            if cid in owners:
                out.append(x)
        return out

    def _strand_owners(self, c: Crossing) -> tuple[int, int]:
        return (self.arcs[c.over_in].owner, self.arcs[c.under_in].owner)

    def zero_crossing_loops(self) -> set[int]:
        busy = set()
        for c in self.crossings.values():
            busy.update(self._strand_owners(c))
        return {c.id for c in self.components} - busy

    # -- id allocation (smallest unused, deterministic) ------------------

    def fresh_component_id(self) -> int:
        return _smallest_unused({c.id for c in self.components})

    def fresh_arc_ids(self, k: int) -> list[int]:
        used = set(self.arcs)
        out = []
        for _ in range(k):
            a = _smallest_unused(used)
            used.add(a)
            out.append(a)
        return out

    def fresh_crossing_ids(self, k: int) -> list[int]:
        used = set(self.crossings)
        out = []
        for _ in range(k):
            x = _smallest_unused(used)
            used.add(x)
            out.append(x)
        return out


def _smallest_unused(used) -> int:
    i = 0
    while i in used:
        i += 1
    return i


# ---------------------------------------------------------------------------
# validation


def validate_diagram(d: FramedLinkDiagram) -> list[str]:
    """Check every structural invariant; violations are returned, not raised."""
    bad: list[str] = []
    comp_ids = [c.id for c in d.components]
    if len(set(comp_ids)) != len(comp_ids):
        bad.append("duplicate component ids")
    comp_set = set(comp_ids)

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
        if c.sign not in (1, -1):
            bad.append("crossing %d has sign %r, expected +1 or -1" % (xid, c.sign))
        # strand owners are read from the in-arcs, as in zero_crossing_loops;
        # a missing in-arc names no owner
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
    for comp in d.components:
        mine = by_owner.get(comp.id, [])
        if comp.basepoint is not None:
            if comp.basepoint not in arcs or arcs[comp.basepoint].owner != comp.id:
                bad.append("component %d basepoint %r is not one of its arcs"
                           % (comp.id, comp.basepoint))
        if not mine:
            continue
        start = min(mine)
        seen = [start]
        cur = start
        for _ in range(len(arcs) + 1):
            nxt = arcs[cur].successor if cur in arcs else None
            if nxt is None or nxt not in arcs or arcs[nxt].owner != comp.id:
                bad.append("component %d successor chain leaves the component at arc %r"
                           % (comp.id, cur))
                break
            if nxt == start:
                break
            seen.append(nxt)
            cur = nxt
        if set(seen) != set(mine):
            bad.append("component %d arcs are not a single successor cycle (%d of %d reached)"
                       % (comp.id, len(seen), len(mine)))
    return bad


def require_valid(d: FramedLinkDiagram) -> None:
    bad = validate_diagram(d)
    if bad:
        raise DiagramError("invalid diagram: " + "; ".join(bad))


# ---------------------------------------------------------------------------
# linking numbers


def linking_number(d: FramedLinkDiagram, i: int, j: int) -> int:
    if i == j:
        raise DiagramError("linking_number needs two distinct components; "
                           "the self-pairing is the framing")
    d.component(i)
    d.component(j)
    total = 0
    count = 0
    for c in d.crossings.values():
        owners = d._strand_owners(c)
        if set(owners) == {i, j}:
            total += c.sign
            count += 1
    if count % 2:
        raise DiagramError("components %d and %d share an odd number of crossings" % (i, j))
    return total // 2


def linking_matrix(d: FramedLinkDiagram) -> IntegralLattice:
    """Framings on the diagonal, pairwise linking numbers off it.

    One walk over the crossings and one sweep of the matrix: O(crossings +
    n^2) for n components, after the O(crossings + arcs) validation.
    """
    require_valid(d)
    ids = d.component_ids()
    n = len(ids)
    pos = {cid: a for a, cid in enumerate(ids)}
    arcs = d.arcs
    # for a < b, rows[a][b] sums the signs of the crossings between
    # components a and b, and rows[b][a] counts them
    rows = [[0] * n for _ in range(n)]
    for c in d.crossings.values():
        a = pos[arcs[c.over_in].owner]
        b = pos[arcs[c.under_in].owner]
        if a != b:
            a, b = min(a, b), max(a, b)
            rows[a][b] += c.sign
            rows[b][a] += 1
    for a in range(n):
        rows[a][a] = d.components[a].framing
        for b in range(a + 1, n):
            if rows[b][a] % 2:
                raise DiagramError("components %d and %d share an odd number of crossings"
                                   % (ids[a], ids[b]))
            rows[a][b] = rows[b][a] = rows[a][b] // 2
    return IntegralLattice(rows)


# ---------------------------------------------------------------------------
# elementary rewrites


def switch_crossing(d: FramedLinkDiagram, xid: int) -> FramedLinkDiagram:
    """Exchange over/under roles at one crossing and negate its sign."""
    d.crossing(xid)
    out = d.copy()
    _switch_in_place(out, xid)
    return out


def _switch_in_place(d: FramedLinkDiagram, xid: int) -> None:
    c = d.crossing(xid)
    c.over_in, c.under_in = c.under_in, c.over_in
    c.over_out, c.under_out = c.under_out, c.over_out
    c.sign = -c.sign


def reverse_component(d: FramedLinkDiagram, cid: int) -> FramedLinkDiagram:
    """Reverse the orientation of one component.

    Signs of crossings between `cid` and other components negate;
    self-crossing signs are unchanged (both passages reverse).
    """
    d.component(cid)
    out = d.copy()
    mine = out.arcs_of_component(cid)
    old_succ = {a: out.arcs[a].successor for a in mine}
    for a, s in old_succ.items():
        out.arcs[s].successor = a
    for c in out.crossings.values():
        over_mine = out.arcs[c.over_in].owner == cid
        under_mine = out.arcs[c.under_in].owner == cid
        if over_mine:
            c.over_in, c.over_out = c.over_out, c.over_in
        if under_mine:
            c.under_in, c.under_out = c.under_out, c.under_in
        if over_mine != under_mine:
            c.sign = -c.sign
    return out


def add_split_unknot(d: FramedLinkDiagram, framing: int) -> tuple[FramedLinkDiagram, int]:
    """Disjoint zero-crossing unknot with the given framing."""
    out = d.copy()
    cid = out.fresh_component_id()
    (aid,) = out.fresh_arc_ids(1)
    out.arcs[aid] = Arc(owner=cid, successor=aid)
    out.components.append(Component(cid, framing, basepoint=aid))
    return out, cid


# ---------------------------------------------------------------------------
# arc surgery helpers


def _anchor_arc(d: FramedLinkDiagram, cid: int) -> int:
    comp = d.component(cid)
    if comp.basepoint is not None:
        return comp.basepoint
    mine = d.arcs_of_component(cid)
    if mine:
        return min(mine)
    (aid,) = d.fresh_arc_ids(1)
    d.arcs[aid] = Arc(owner=cid, successor=aid)
    comp.basepoint = aid
    return aid


def _replace_in_ref(d: FramedLinkDiagram, old: int, new: int) -> None:
    for c in d.crossings.values():
        if c.over_in == old:
            c.over_in = new
        if c.under_in == old:
            c.under_in = new


def _subdivide(d: FramedLinkDiagram, aid: int, count: int) -> tuple[list[int], list[int]]:
    """Split arc `aid` to make room for `count` new crossing passages.

    Returns (entries, exits): entries[k] / exits[k] are the in- and
    out-arcs of the k-th new passage, in order along the strand.  The
    original arc keeps its id as the first segment.
    """
    arc = d.arc(aid)
    loop = arc.successor == aid and not any(aid in c.arc_ids() for c in d.crossings.values())
    if loop:
        fresh = d.fresh_arc_ids(count - 1)
        chain = [aid] + fresh
        for k, a in enumerate(fresh):
            d.arcs[a] = Arc(owner=arc.owner, successor=0)
        for k in range(count):
            d.arcs[chain[k]].successor = chain[(k + 1) % count]
        entries = chain
        exits = chain[1:] + [aid]
    else:
        fresh = d.fresh_arc_ids(count)
        old_succ = arc.successor
        chain = [aid] + fresh
        for a in fresh:
            d.arcs[a] = Arc(owner=arc.owner, successor=0)
        for k in range(count):
            d.arcs[chain[k]].successor = chain[k + 1]
        d.arcs[chain[count]].successor = old_succ
        _replace_in_ref(d, aid, chain[count])
        entries = chain[:count]
        exits = chain[1:]
    return entries, exits


def _splice_out(d: FramedLinkDiagram, in_arc: int, out_arc: int) -> None:
    """Merge the passage (in_arc -> crossing -> out_arc) after the crossing
    is removed; the surviving segment keeps the id of in_arc."""
    if in_arc == out_arc:
        return
    succ = d.arcs[out_arc].successor
    d.arcs[in_arc].successor = succ if succ != out_arc else in_arc
    _replace_in_ref(d, out_arc, in_arc)
    for comp in d.components:
        if comp.basepoint == out_arc:
            comp.basepoint = in_arc
    del d.arcs[out_arc]


# ---------------------------------------------------------------------------
# clasps and pokes (linking adjusters / R2 isotopy)


def _crossing_pair(d: FramedLinkDiagram, i: int, j: int, sign: int, what: str):
    """Copy `d` with room for two new crossings between components i and j.

    Returns the copy, the (entries, exits) of the two new passages on i
    and on j, and the two fresh crossing ids."""
    if i == j:
        raise DiagramError("%s needs two distinct components" % what)
    if sign not in (1, -1):
        raise DiagramError("%s sign must be +1 or -1" % what)
    d.component(i)
    d.component(j)
    out = d.copy()
    p = _anchor_arc(out, i)
    q = _anchor_arc(out, j)
    pp = _subdivide(out, p, 2)
    qq = _subdivide(out, q, 2)
    c1, c2 = out.fresh_crossing_ids(2)
    return out, pp, qq, c1, c2


def add_clasp(d: FramedLinkDiagram, i: int, j: int, sign: int) -> FramedLinkDiagram:
    """Two same-sign crossings between components i and j: lk(i,j) += sign."""
    out, (pi, po), (qi, qo), c1, c2 = _crossing_pair(d, i, j, sign, "clasp")
    out.crossings[c1] = Crossing(over_in=pi[0], over_out=po[0],
                                 under_in=qi[0], under_out=qo[0], sign=sign)
    out.crossings[c2] = Crossing(over_in=qi[1], over_out=qo[1],
                                 under_in=pi[1], under_out=po[1], sign=sign)
    return out


def add_poke(d: FramedLinkDiagram, over: int, under: int,
             sign: int) -> tuple[FramedLinkDiagram, int, int]:
    """Reidemeister-2 poke of `over` across `under`: two canceling
    crossings (signs +sign, -sign).  Linking numbers are unchanged.

    Returns (diagram, id of the sign-`sign` crossing, id of its mate).
    """
    out, (pi, po), (qi, qo), c1, c2 = _crossing_pair(d, over, under, sign, "poke")
    out.crossings[c1] = Crossing(over_in=pi[0], over_out=po[0],
                                 under_in=qi[0], under_out=qo[0], sign=sign)
    out.crossings[c2] = Crossing(over_in=pi[1], over_out=po[1],
                                 under_in=qi[1], under_out=qo[1], sign=-sign)
    return out, c1, c2


def add_kink(d: FramedLinkDiagram, cid: int, sign: int,
             first_over: bool = True) -> FramedLinkDiagram:
    """Reidemeister-1 kink on one component (framing is stored data and
    does not move)."""
    if sign not in (1, -1):
        raise DiagramError("kink sign must be +1 or -1")
    d.component(cid)
    out = d.copy()
    p = _anchor_arc(out, cid)
    (ent, ext) = _subdivide(out, p, 2)
    (xid,) = out.fresh_crossing_ids(1)
    if first_over:
        out.crossings[xid] = Crossing(over_in=ent[0], over_out=ext[0],
                                      under_in=ent[1], under_out=ext[1], sign=sign)
    else:
        out.crossings[xid] = Crossing(over_in=ent[1], over_out=ext[1],
                                      under_in=ent[0], under_out=ext[0], sign=sign)
    return out


# ---------------------------------------------------------------------------
# the crossing-change gadget


def _side_arcs(c: Crossing, side: str) -> tuple[int, int, int, int]:
    """Arcs encircled on `side` plus the passage signs (a for the over
    strand's arc, b for the under strand's).  A passage counts +1 when the
    arc is directed into the crossing."""
    if side == SIDE_BEFORE:
        return c.over_in, c.under_in, 1, 1
    if side == SIDE_AFTER:
        return c.over_out, c.under_out, -1, -1
    if side == SIDE_LEFT:
        return c.over_in, c.under_out, 1, -1
    if side == SIDE_RIGHT:
        return c.over_out, c.under_in, -1, 1
    raise DiagramError("unknown side selector %r (expected one of %r)" % (side, SIDES))


def insert_crossing_gadget(d: FramedLinkDiagram, xid: int, side: str,
                           unknot: int | None = None) -> tuple[FramedLinkDiagram, GadgetRecord]:
    """Switch crossing `xid` and wire an unknot around the two adjacent
    strands on `side`, so that blowing the unknot down restores the
    original linking matrix exactly.

    With `unknot=None` the unknot is a fresh component.  Otherwise
    `unknot` names an existing split zero-crossing component, other than
    the two encircled ones, whose framing already equals the required
    epsilon = -s*a*b (s the crossing sign, a and b the passage signs);
    its arcs are replaced by the gadget's and its id is kept.  The input
    diagram is not modified.
    """
    d = d.copy()
    c = d.crossing(xid)
    s = c.sign
    x, y, a, b = _side_arcs(c, side)
    if x == y:
        raise DiagramError("side %r of crossing %d selects one arc twice "
                           "(kink); use 'before' or 'after'" % (side, xid))
    eps = -s * a * b
    comp_x = d.arcs[x].owner
    comp_y = d.arcs[y].owner

    if unknot is None:
        ucid = d.fresh_component_id()
        d.components.append(Component(ucid, eps, basepoint=None))
    else:
        ucomp = d.component(unknot)
        if unknot in (comp_x, comp_y):
            raise DiagramError("gadget unknot %d is one of the encircled components" % unknot)
        if ucomp.framing != eps:
            raise DiagramError("gadget unknot %d has framing %d, need %d"
                               % (unknot, ucomp.framing, eps))
        if d.crossings_of_component(unknot):
            raise DiagramError("gadget unknot %d is not split" % unknot)
        for aid in d.arcs_of_component(unknot):
            del d.arcs[aid]
        ucomp.basepoint = None
        ucid = unknot

    _switch_in_place(d, xid)

    (ex, xx) = _subdivide(d, x, 2)
    (ey, yy) = _subdivide(d, y, 2)
    u0, u1, u2, u3 = d.fresh_arc_ids(4)
    for u in (u0, u1, u2, u3):
        d.arcs[u] = Arc(owner=ucid, successor=0)
    d.arcs[u0].successor = u1
    d.arcs[u1].successor = u2
    d.arcs[u2].successor = u3
    d.arcs[u3].successor = u0
    cx1, cx2, cy1, cy2 = d.fresh_crossing_ids(4)
    # along the unknot: cx1, cy1, cy2, cx2; each strand goes over the
    # unknot at its first passage and under at its second.
    d.crossings[cx1] = Crossing(over_in=ex[0], over_out=xx[0],
                                under_in=u3, under_out=u0, sign=a)
    d.crossings[cy1] = Crossing(over_in=ey[0], over_out=yy[0],
                                under_in=u0, under_out=u1, sign=b)
    d.crossings[cy2] = Crossing(over_in=u1, over_out=u2,
                                under_in=ey[1], under_out=yy[1], sign=b)
    d.crossings[cx2] = Crossing(over_in=u2, over_out=u3,
                                under_in=ex[1], under_out=xx[1], sign=a)
    d.component(ucid).basepoint = u0

    v: dict[int, int] = {}
    v[comp_x] = v.get(comp_x, 0) + a
    v[comp_y] = v.get(comp_y, 0) + b
    comps: dict[int, int] = {}
    for t, vt in v.items():
        delta = eps * vt * vt
        if delta:
            d.component(t).framing += delta
            comps[t] = delta
    return d, GadgetRecord(unknot=ucid, crossing=xid, epsilon=eps,
                           passage_signs=(a, b), framing_compensations=comps)


def blow_down_gadget(d: FramedLinkDiagram, rec: GadgetRecord) -> FramedLinkDiagram:
    """Kirby blow-down of a gadget unknot: splice it out, re-switch the
    recorded crossing, undo the framing compensations."""
    comp = d.component(rec.unknot)
    if rec.epsilon not in (1, -1) or comp.framing != rec.epsilon:
        raise DiagramError("gadget unknot %d has framing %d, record says %d"
                           % (rec.unknot, comp.framing, rec.epsilon))
    xids = d.crossings_of_component(rec.unknot)
    out = d.copy()
    if xids:
        if len(xids) != 4:
            raise DiagramError("component %d has %d crossings, not the 4-crossing "
                               "gadget shape" % (rec.unknot, len(xids)))
        for xid in sorted(xids):
            c = out.crossings[xid]
            over_owner = out.arcs[c.over_in].owner
            under_owner = out.arcs[c.under_in].owner
            if (over_owner == rec.unknot) == (under_owner == rec.unknot):
                raise DiagramError("crossing %d is not a single passage of the "
                                   "gadget unknot" % xid)
            if over_owner == rec.unknot:
                strand = (c.under_in, c.under_out)
            else:
                strand = (c.over_in, c.over_out)
            del out.crossings[xid]
            _splice_out(out, *strand)
    for aid in out.arcs_of_component(rec.unknot):
        del out.arcs[aid]
    out.components = [c for c in out.components if c.id != rec.unknot]
    if rec.crossing is not None:
        _switch_in_place(out, rec.crossing)
    for t, delta in rec.framing_compensations.items():
        out.component(t).framing -= delta
    return out


def blow_down_component(d: FramedLinkDiagram, cid: int) -> FramedLinkDiagram:
    """Raw Kirby blow-down of any +/-1-framed component.

    The result is a diagram presenting the blown-down linking data: the
    component is spliced away and the induced rank-one change of linking
    numbers is realized by clasps.  (Framings and linking numbers are what
    the downstream semantics read; the local picture is not isotoped.)
    """
    comp = d.component(cid)
    eps = comp.framing
    if eps not in (1, -1):
        raise DiagramError("blow-down needs framing +1 or -1, component %d has %d"
                           % (cid, eps))
    others = [c.id for c in d.components if c.id != cid]
    v = {j: linking_number(d, cid, j) for j in others}
    out = d.copy()
    for xid in sorted(out.crossings_of_component(cid)):
        c = out.crossings[xid]
        over_owner = out.arcs[c.over_in].owner
        under_owner = out.arcs[c.under_in].owner
        del out.crossings[xid]
        if over_owner != cid:
            _splice_out(out, c.over_in, c.over_out)
        if under_owner != cid:
            _splice_out(out, c.under_in, c.under_out)
    for aid in out.arcs_of_component(cid):
        del out.arcs[aid]
    out.components = [c for c in out.components if c.id != cid]
    for j in others:
        out.component(j).framing -= eps * v[j] * v[j]
    for a_idx, i in enumerate(others):
        for j in others[a_idx + 1:]:
            delta = -eps * v[i] * v[j]
            sgn = 1 if delta > 0 else -1
            for _ in range(abs(delta)):
                out = add_clasp(out, i, j, sgn)
    return out


# ---------------------------------------------------------------------------
# descending traversal


def _in_crossing_map(d: FramedLinkDiagram) -> dict[int, tuple[int, str]]:
    m: dict[int, tuple[int, str]] = {}
    for xid, c in d.crossings.items():
        m[c.over_in] = (xid, "over")
        m[c.under_in] = (xid, "under")
    return m


def component_cycle(d: FramedLinkDiagram, cid: int) -> list[int]:
    comp = d.component(cid)
    mine = d.arcs_of_component(cid)
    if not mine:
        return []
    if comp.basepoint is None:
        raise DiagramError("component %d has crossings but no basepoint" % cid
                           if d.crossings_of_component(cid)
                           else "component %d has no basepoint" % cid)
    cycle = [comp.basepoint]
    cur = comp.basepoint
    for _ in range(len(d.arcs)):
        cur = d.arcs[cur].successor
        if cur == comp.basepoint:
            return cycle
        cycle.append(cur)
    raise DiagramError("component %d successor chain does not close" % cid)


def _walk_encounters(d: FramedLinkDiagram, order: list[int]):
    """Yield (crossing id, role, component, first_time) in traversal order."""
    seen: set[int] = set()
    inmap = _in_crossing_map(d)
    loops = d.zero_crossing_loops()
    for cid in order:
        if cid in loops:
            continue
        for aid in component_cycle(d, cid):
            hit = inmap.get(aid)
            if hit is None:
                continue
            xid, role = hit
            first = xid not in seen
            seen.add(xid)
            yield xid, role, cid, first


def _check_order(d: FramedLinkDiagram, component_order) -> list[int]:
    ids = d.component_ids()
    if component_order is None:
        return ids
    order = list(component_order)
    if sorted(order) != sorted(ids):
        raise DiagramError("component order %r is not a permutation of %r" % (order, ids))
    return order


def descending_switch_set(d: FramedLinkDiagram, component_order=None,
                          self_only: bool = False) -> set[int]:
    """Crossings to switch so that the basepoint traversal meets every
    crossing on its over-strand first (hence an unlink; with
    `self_only`, only self-crossings count and each component becomes
    individually unknotted)."""
    require_valid(d)
    order = _check_order(d, component_order)
    out: set[int] = set()
    for xid, role, cid, first in _walk_encounters(d, order):
        if not first or role == "over":
            continue
        if self_only:
            c = d.crossings[xid]
            if d._strand_owners(c) != (cid, cid):
                continue
        out.add(xid)
    return out


def is_descending(d: FramedLinkDiagram, component_order=None,
                  self_only: bool = False) -> bool:
    return not descending_switch_set(d, component_order, self_only=self_only)
