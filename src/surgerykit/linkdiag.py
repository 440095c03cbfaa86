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

from operator import attrgetter, eq

try:  # the C functions heapq.py itself re-exports
    from _heapq import heappop, heappush
except ImportError:
    from heapq import heappop, heappush

from .intlattice import IntegralLattice, Record, _lattice


class DiagramError(ValueError):
    """Raised when an operation's precondition on a diagram fails."""


#: side selectors for gadget insertion: which pair of arcs adjacent to a
#: crossing the fresh unknot encircles.
SIDE_BEFORE = "before"   # over_in  + under_in   (both strands entering)
SIDE_AFTER = "after"     # over_out + under_out  (both strands leaving)
SIDE_LEFT = "left"       # over_in  + under_out  (antiparallel passages)
SIDE_RIGHT = "right"     # over_out + under_in   (antiparallel passages)
SIDES = (SIDE_BEFORE, SIDE_AFTER, SIDE_LEFT, SIDE_RIGHT)


def _side_arcs(c: "Crossing", side: str) -> tuple[int, int, int, int, int]:
    """Arcs encircled on `side`, the passage signs (a for the over
    strand's arc, b for the under strand's) and the framing epsilon =
    -s*a*b of the gadget unknot there, s the crossing's sign.  A passage
    counts +1 when the arc is directed into the crossing."""
    if side == SIDE_BEFORE:
        x, y, a, b = c.over_in, c.under_in, 1, 1
    elif side == SIDE_AFTER:
        x, y, a, b = c.over_out, c.under_out, -1, -1
    elif side == SIDE_LEFT:
        x, y, a, b = c.over_in, c.under_out, 1, -1
    elif side == SIDE_RIGHT:
        x, y, a, b = c.over_out, c.under_in, -1, 1
    else:
        raise DiagramError("unknown side selector %r (expected one of %r)" % (side, SIDES))
    return x, y, a, b, -c.sign * a * b


class Component(Record):
    __slots__ = ("framing", "basepoint")

    def __init__(self, framing: int, basepoint: int | None = None):
        self.framing, self.basepoint = framing, basepoint


class Arc(Record):
    __slots__ = ("owner", "successor")

    def __init__(self, owner: int, successor: int):
        self.owner, self.successor = owner, successor


class Crossing(Record):
    __slots__ = ("over_in", "over_out", "under_in", "under_out", "sign")

    def __init__(self, over_in: int, over_out: int, under_in: int, under_out: int, sign: int):
        self.over_in, self.over_out, self.under_in, self.under_out, self.sign = (
            over_in, over_out, under_in, under_out, sign)

    def arc_ids(self):
        return (self.over_in, self.over_out, self.under_in, self.under_out)


class FramedLinkDiagram(Record):
    __slots__ = ("components", "arcs", "crossings")

    def __init__(self, components: dict[int, Component] | None = None,
                 arcs: dict[int, Arc] | None = None,
                 crossings: dict[int, Crossing] | None = None):
        self.components = {} if components is None else components  # in component order
        self.arcs = {} if arcs is None else arcs
        self.crossings = {} if crossings is None else crossings

    # -- basic accessors -------------------------------------------------

    def copy(self) -> "FramedLinkDiagram":
        return FramedLinkDiagram(
            components={k: Component(c.framing, c.basepoint) for k, c in self.components.items()},
            arcs={a: Arc(v.owner, v.successor) for a, v in self.arcs.items()},
            crossings={
                x: Crossing(c.over_in, c.over_out, c.under_in, c.under_out, c.sign)
                for x, c in self.crossings.items()
            },
        )

    def crossing(self, xid: int) -> Crossing:
        try:
            return self.crossings[xid]
        except KeyError:
            raise DiagramError("unknown crossing id %r" % (xid,)) from None

    def _strand_owners(self, c: Crossing) -> tuple[int, int]:
        return (self.arcs[c.over_in].owner, self.arcs[c.under_in].owner)


# ---------------------------------------------------------------------------
# validation

_OWNER, _SUCCESSOR = attrgetter("owner"), attrgetter("successor")
_CROSSING_ROW = attrgetter("over_in", "over_out", "under_in", "under_out", "sign")


def validate_diagram(d: FramedLinkDiagram) -> list[str]:
    """Check every structural invariant; violations are returned, not raised.

    Each group of checks is decided for all records at once, on columns
    pulled from the arcs and crossings, and only a group that fails walks
    its records to name the faults.  A component's successor walk is
    bounded by its own arc count: O(arcs + crossings) on every input."""
    bad: list[str] = []
    comps, arcs = d.components, d.arcs
    owners = list(map(_OWNER, arcs.values()))
    succ = dict(zip(arcs, map(_SUCCESSOR, arcs.values())))
    first, targets = dict(zip(owners, arcs)), set(succ.values())  # an arc of each owner
    arcs_ok = comps.keys() >= first.keys() and arcs.keys() >= targets
    for aid, arc in arcs.items() if not arcs_ok else ():
        if arc.owner not in comps:
            bad.append("arc %d owned by unknown component %r" % (aid, arc.owner))
        if arc.successor not in arcs:
            bad.append("arc %d has unknown successor %r" % (aid, arc.successor))

    # the successor map is one cycle through each component's arcs when it
    # permutes the arcs, keeps each arc in its component, and the walks from
    # one arc of each component reach every arc.  Each walk follows a cycle
    # of that permutation inside one component, so it comes back to its
    # start within that component's arc count.
    cycles = (arcs_ok and len(targets) == len(arcs)
              and list(map(_OWNER, map(arcs.__getitem__, succ.values()))) == owners)
    reached = 0
    for start in first.values() if cycles else ():
        cur = succ[start]
        reached += 1
        while cur != start:
            cur = succ[cur]
            reached += 1
    cycles = cycles and reached == len(arcs)

    xs = d.crossings
    oi, oo, ui, uo, signs = list(zip(*map(_CROSSING_ROW, xs.values()))) or [()] * 5
    ins, outs = oi + ui, oo + uo
    in_set = set(ins)
    xs_ok = (set(map(type, signs)) <= {int} and set(signs) <= {1, -1}  # no bool or float
             and len(in_set) == len(ins) and arcs.keys() >= in_set and in_set == set(outs)
             and not any(map(eq, ins, outs)) and tuple(map(succ.get, ins)) == outs)
    whole_ins, whole_outs = (ins, outs) if xs_ok else ([], [])  # of crossings on known arcs
    for xid, c in xs.items() if not xs_ok else ():
        if type(c.sign) is not int or c.sign not in (1, -1):
            bad.append("crossing %d has sign %r, expected +1 or -1" % (xid, c.sign))
        missing = [a for a in c.arc_ids() if a not in arcs]
        if missing:
            bad.append("crossing %d references unknown arcs %r" % (xid, missing))
            continue
        whole_ins += c.over_in, c.under_in
        whole_outs += c.over_out, c.under_out
        # distinctness: the only allowed coincidences are the kink pattern
        # over_out == under_in / under_out == over_in.
        if c.over_in == c.under_in or c.over_out == c.under_out:
            bad.append("crossing %d shares an in-arc or out-arc between strands" % xid)
        if c.over_in == c.over_out or c.under_in == c.under_out:
            bad.append("crossing %d has a strand entering and leaving on one arc" % xid)
        if succ[c.over_in] != c.over_out:
            bad.append("crossing %d: successor of over_in is not over_out" % xid)
        if succ[c.under_in] != c.under_out:
            bad.append("crossing %d: successor of under_in is not under_out" % xid)

    # every arc is the in-arc of exactly one crossing and the out-arc of
    # exactly one, except arcs of zero-crossing loops.  When the in-arcs are
    # distinct, the out-arcs are their successors and the same set, that set
    # is closed under successors, so with one cycle per component it is all
    # the arcs of the components that cross
    if not (arcs_ok and xs_ok and cycles):
        # strand owners are read from the in-arcs; a missing in-arc names no owner
        loops = comps.keys() - {arcs[a].owner for a in ins if a in arcs}
        in_count, out_count = dict.fromkeys(arcs, 0), dict.fromkeys(arcs, 0)
        for a, b in zip(whole_ins, whole_outs):
            in_count[a] += 1
            out_count[b] += 1
        for aid, arc in arcs.items():
            if arc.owner in loops:
                if in_count[aid] or out_count[aid]:
                    bad.append("arc %d of zero-crossing loop appears in a crossing" % aid)
            else:
                if in_count[aid] != 1:
                    bad.append("arc %d is the in-arc of %d crossings" % (aid, in_count[aid]))
                if out_count[aid] != 1:
                    bad.append("arc %d is the out-arc of %d crossings" % (aid, out_count[aid]))

    by_owner = None
    for cid, comp in comps.items():
        bp = comp.basepoint
        if type(comp.framing) is not int:  # no bool or float
            bad.append("component %d has framing %r, expected an integer"
                       % (cid, comp.framing))
        if bp is not None and (bp not in arcs or arcs[bp].owner != cid):
            bad.append("component %d basepoint %r is not one of its arcs" % (cid, bp))
        if cycles or cid not in first:
            continue
        if by_owner is None:  # name the fault, walking from the smallest arc
            by_owner = {}
            for aid, o in zip(arcs, owners):
                by_owner.setdefault(o, []).append(aid)
        mine = by_owner[cid]
        start = cur = min(mine)
        seen = {start}
        while (nxt := succ[cur]) in arcs and arcs[nxt].owner == cid and nxt not in seen:
            seen.add(nxt)
            cur = nxt
        if nxt not in seen:
            bad.append("component %d successor chain leaves the component at arc %r"
                       % (cid, cur))
        if len(seen) != len(mine) or nxt != start and nxt in seen:
            bad.append("component %d arcs are not a single successor cycle (%d of %d reached)"
                       % (cid, len(seen), len(mine)))
    return bad


def require_valid(d: FramedLinkDiagram) -> None:
    bad = validate_diagram(d)
    if bad:
        raise DiagramError("invalid diagram: " + "; ".join(bad))


# ---------------------------------------------------------------------------
# linking numbers


def linking_matrix(d: FramedLinkDiagram) -> IntegralLattice:
    """Framings on the diagonal, pairwise linking numbers off it: the
    rows of `_linking_rows`, made dense, after the O(crossings + arcs)
    validation; the n^2 for n components only allocates the rows."""
    require_valid(d)
    return _lattice(_linking_rows(d))


def _linking_rows(d: FramedLinkDiagram) -> dict[int, dict[int, int]]:
    """The nonzero entries of linking_matrix(d), {id: {id': entry}} with the
    rows in component order, for a diagram already validated: O(size)."""
    arcs = d.arcs
    # for a < b, twice[a, b] sums the signs of the crossings between
    # components a and b; a sum of k signs +/-1 has the parity of k
    twice: dict[tuple[int, int], int] = {}
    for c in d.crossings.values():
        a = arcs[c.over_in].owner
        b = arcs[c.under_in].owner
        if a != b:
            key = (a, b) if a < b else (b, a)
            twice[key] = twice.get(key, 0) + c.sign
    odd = [key for key, s in twice.items() if s % 2]
    if odd:  # name the first odd pair in component order
        ids = list(d.components)
        pos = {c: t for t, c in enumerate(ids)}
        a, b = min(sorted((pos[a], pos[b])) for a, b in odd)
        raise DiagramError("components %d and %d share an odd number of crossings"
                           % (ids[a], ids[b]))
    rows = {cid: {cid: c.framing} if c.framing else {} for cid, c in d.components.items()}
    for (a, b), s in twice.items():
        if s:
            rows[a][b] = rows[b][a] = s // 2
    return rows


# ---------------------------------------------------------------------------
# in-place rewrites


class _Ids:
    """Smallest-unused ids over `live`, the dict or set of the ids in use.
    Every id below `low` is in use except the freed ones, which wait on a
    heap; an id taken counts as used from then on, and an id given back
    must also leave `live`."""

    def __init__(self, live):
        self.live, self.low, self.freed = live, 0, []

    def peek(self) -> int:
        """The id the next take() hands out."""
        if self.freed:
            return self.freed[0]
        while self.low in self.live:
            self.low += 1
        return self.low

    def take(self) -> int:
        i = self.peek()
        if self.freed:
            heappop(self.freed)
        else:
            self.low += 1
        return i

    def give(self, i: int) -> None:
        if i < self.low:
            heappush(self.freed, i)


class Editor:
    """A diagram rewritten in place, with the indexes its rewrites read.

    The indexes (arcs per component, in-arc -> crossing, free ids) are
    built once in O(arcs + crossings); each rewrite then costs O(its
    change), and a component's crossings are read off its arcs, so
    `excise` costs only the removed component's arcs and crossings.
    Every crossing added or removed between components i != j is logged
    as (i, j, +/-sign), and every framing change of component c,
    including a component's arrival or removal, as (c, c, delta).  A
    rewrite whose precondition fails raises before its first change.  To
    keep a diagram, edit a copy.
    """

    def __init__(self, d: FramedLinkDiagram):
        self.d = d
        self.arcs_of: dict[int, set[int]] = {cid: set() for cid in d.components}
        self.in_x: dict[int, int] = {}
        for aid, arc in d.arcs.items():
            self.arcs_of.setdefault(arc.owner, set()).add(aid)
        for xid, c in d.crossings.items():
            self.in_x[c.over_in] = self.in_x[c.under_in] = xid
        self.arc_ids, self.xids, self.cids = _Ids(d.arcs), _Ids(d.crossings), _Ids(d.components)
        self.log: list[tuple[int, int, int]] = []

    def _log(self, c: Crossing, way: int) -> None:
        i, j = self.d._strand_owners(c)
        if i != j:
            self.log.append((i, j, way * c.sign))

    def comp(self, cid: int) -> Component:
        try:
            return self.d.components[cid]
        except KeyError:
            raise DiagramError("unknown component id %r" % (cid,)) from None

    def put(self, xid: int, c: Crossing) -> None:
        self.d.crossings[xid] = c
        self.in_x[c.over_in] = self.in_x[c.under_in] = xid
        self._log(c, 1)

    def drop(self, xid: int) -> Crossing:
        c = self.d.crossings.pop(xid)
        self._log(c, -1)
        for a in (c.over_in, c.under_in):
            self.in_x.pop(a, None)
        self.xids.give(xid)
        return c

    def switch(self, xid: int) -> None:
        """Exchange over/under roles at one crossing and negate its sign."""
        c = self.d.crossing(xid)
        self._log(c, -1)
        c.over_in, c.under_in = c.under_in, c.over_in
        c.over_out, c.under_out = c.under_out, c.over_out
        c.sign = -c.sign
        self._log(c, 1)

    def new_arc(self, owner: int) -> int:
        aid = self.arc_ids.take()
        self.d.arcs[aid] = Arc(owner, aid)
        self.arcs_of[owner].add(aid)
        return aid

    def drop_arc(self, aid: int) -> None:
        self.arcs_of[self.d.arcs.pop(aid).owner].discard(aid)
        self.arc_ids.give(aid)

    def set_framing(self, cid: int, framing: int) -> None:
        comp = self.comp(cid)
        self.log.append((cid, cid, framing - comp.framing))
        comp.framing = framing

    def add_component(self, framing: int) -> int:
        cid = self.cids.take()
        self.d.components[cid] = Component(framing)
        self.arcs_of[cid] = set()
        self.log.append((cid, cid, framing))
        return cid

    def split_unknot(self, framing: int) -> int:
        """Disjoint zero-crossing unknot with the given framing."""
        cid = self.add_component(framing)
        self.d.components[cid].basepoint = self.new_arc(cid)
        return cid

    def xs_of(self, cid: int) -> set[int]:
        """The crossings of `cid`, each entered along one of its arcs.  In
        a valid diagram every arc of a component that crosses is an in-arc,
        and every rewrite keeps it so: one arc tells whether it crosses."""
        return {self.in_x[a] for a in self.arcs_of[cid] if a in self.in_x}

    # -- arc surgery -------------------------------------------------------

    def anchor(self, cid: int) -> int:
        """The basepoint of `cid`, set on first use to its smallest arc or a new one."""
        comp = self.comp(cid)
        if comp.basepoint is None:
            comp.basepoint = min(self.arcs_of[cid]) if self.arcs_of[cid] else self.new_arc(cid)
        return comp.basepoint

    def repoint(self, old: int, new: int) -> None:
        """The crossing entered along arc `old` is entered along `new`."""
        xid = self.in_x.pop(old, None)
        if xid is not None:
            c = self.d.crossings[xid]
            if c.over_in == old:
                c.over_in = new
            if c.under_in == old:
                c.under_in = new
            self.in_x[new] = xid

    def subdivide(self, aid: int) -> tuple[list[int], list[int]]:
        """Split arc `aid` to make room for two new crossing passages.

        Returns (entries, exits): entries[k] / exits[k] are the in- and
        out-arcs of the k-th new passage, in order along the strand.  The
        original arc keeps its id as the first segment.
        """
        arcs, arc = self.d.arcs, self.d.arcs[aid]
        loop = arc.successor == aid and aid not in self.in_x
        mid = self.new_arc(arc.owner)
        end = aid if loop else self.new_arc(arc.owner)
        if not loop:
            arcs[end].successor = arc.successor
            self.repoint(aid, end)
        arc.successor, arcs[mid].successor = mid, end
        return [aid, mid], [mid, end]

    def splice_out(self, in_arc: int, out_arc: int) -> None:
        """Merge the passage (in_arc -> crossing -> out_arc) after the
        crossing is removed; the surviving segment keeps the id of in_arc."""
        if in_arc == out_arc:
            return
        arcs = self.d.arcs
        succ = arcs[out_arc].successor
        arcs[in_arc].successor = succ if succ != out_arc else in_arc
        self.repoint(out_arc, in_arc)
        comp = self.comp(arcs[out_arc].owner)
        if comp.basepoint == out_arc:
            comp.basepoint = in_arc
        self.drop_arc(out_arc)

    def excise(self, cid: int) -> None:
        """Remove component `cid` and its crossings, splicing the other
        strand through each of them."""
        for xid in sorted(self.xs_of(cid)):
            over, under = self.d._strand_owners(self.d.crossings[xid])
            c = self.drop(xid)
            if over != cid:
                self.splice_out(c.over_in, c.over_out)
            if under != cid:
                self.splice_out(c.under_in, c.under_out)
        for aid in list(self.arcs_of[cid]):
            self.drop_arc(aid)
        del self.arcs_of[cid]
        self.log.append((cid, cid, -self.d.components.pop(cid).framing))
        self.cids.give(cid)

    # -- kinks, clasps, pokes and the gadget -------------------------------

    def kink(self, cid: int, sign: int, first_over: bool = True) -> None:
        """Reidemeister-1 kink on one component (framing is stored data and
        does not move)."""
        if type(sign) is not int or sign not in (1, -1):  # as validate_diagram
            raise DiagramError("kink sign must be +1 or -1")
        ent, ext = self.subdivide(self.anchor(cid))
        o, u = (0, 1) if first_over else (1, 0)
        self.put(self.xids.take(), Crossing(ent[o], ext[o], ent[u], ext[u], sign))

    def _crossing_pair(self, i: int, j: int, sign: int, what: str):
        """Room for two new crossings between components i and j: the
        (entries, exits) of the two new passages on i and on j, and the
        two fresh crossing ids."""
        if i == j:
            raise DiagramError("%s needs two distinct components" % what)
        if type(sign) is not int or sign not in (1, -1):  # as validate_diagram
            raise DiagramError("%s sign must be +1 or -1" % what)
        self.comp(i)
        self.comp(j)
        p, q = self.anchor(i), self.anchor(j)
        return self.subdivide(p), self.subdivide(q), self.xids.take(), self.xids.take()

    def clasp(self, i: int, j: int, sign: int) -> None:
        """A clasp of two same-sign crossings: lk(i, j) += sign."""
        (pi, po), (qi, qo), c1, c2 = self._crossing_pair(i, j, sign, "clasp")
        self.put(c1, Crossing(pi[0], po[0], qi[0], qo[0], sign))
        self.put(c2, Crossing(qi[1], qo[1], pi[1], po[1], sign))

    def poke(self, over: int, under: int, sign: int) -> tuple[int, int]:
        """Reidemeister-2 poke of `over` across `under`, linking numbers
        unchanged; returns the ids of the new sign and -sign crossings."""
        (pi, po), (qi, qo), c1, c2 = self._crossing_pair(over, under, sign, "poke")
        self.put(c1, Crossing(pi[0], po[0], qi[0], qo[0], sign))
        self.put(c2, Crossing(pi[1], po[1], qi[1], qo[1], -sign))
        return c1, c2

    def gadget(self, xid: int, side: str, unknot: int) -> None:
        """Switch crossing `xid` and wire the split zero-crossing component
        `unknot`, other than the two encircled ones, around the two
        adjacent strands on `side`, so that blowing the unknot down
        restores the original linking matrix exactly.

        The unknot must already be framed epsilon (see `_side_arcs`); its
        arcs are replaced by the gadget's and its id is kept.  It then
        links the over strand's component a times and the under strand's
        b times, and each of those components t gains framing
        epsilon*v_t^2, v_t its total linking with the unknot.
        """
        d = self.d
        c = d.crossing(xid)
        x, y, a, b, eps = _side_arcs(c, side)
        if x == y:
            raise DiagramError("side %r of crossing %d selects one arc twice "
                               "(kink); use 'before' or 'after'" % (side, xid))
        comp_x = d.arcs[x].owner
        comp_y = d.arcs[y].owner
        ucomp = self.comp(unknot)
        if unknot in (comp_x, comp_y):
            raise DiagramError("gadget unknot %d is one of the encircled components" % unknot)
        if ucomp.framing != eps:
            raise DiagramError("gadget unknot %d has framing %d, need %d"
                               % (unknot, ucomp.framing, eps))
        if next(iter(self.arcs_of[unknot]), None) in self.in_x:
            raise DiagramError("gadget unknot %d is not split" % unknot)
        for aid in list(self.arcs_of[unknot]):
            self.drop_arc(aid)

        self.switch(xid)
        (ex, xx), (ey, yy) = self.subdivide(x), self.subdivide(y)
        u = [self.new_arc(unknot) for _ in range(4)]
        for k in range(4):
            d.arcs[u[k]].successor = u[(k + 1) % 4]
        cx1, cx2, cy1, cy2 = (self.xids.take() for _ in range(4))
        # along the unknot: cx1, cy1, cy2, cx2; each strand goes over the
        # unknot at its first passage and under at its second.
        self.put(cx1, Crossing(ex[0], xx[0], u[3], u[0], a))
        self.put(cy1, Crossing(ey[0], yy[0], u[0], u[1], b))
        self.put(cy2, Crossing(u[1], u[2], ey[1], yy[1], b))
        self.put(cx2, Crossing(u[2], u[3], ex[1], xx[1], a))
        ucomp.basepoint = u[0]

        v = {comp_x: a}
        v[comp_y] = v.get(comp_y, 0) + b
        for t, vt in v.items():
            if vt:
                self.set_framing(t, self.comp(t).framing + eps * vt * vt)


# ---------------------------------------------------------------------------
# descending traversal


def descending_switch_set(d: FramedLinkDiagram, component_order=None,
                          self_only: bool = False) -> set[int]:
    """Crossings to switch so that the basepoint traversal meets every
    crossing on its over-strand first (hence an unlink; with
    `self_only`, only self-crossings count and each component becomes
    individually unknotted).

    One walk of each component's successor cycle that meets a crossing,
    in `component_order`: O(arcs + crossings).
    """
    require_valid(d)
    ids = list(d.components)
    order = ids if component_order is None else list(component_order)
    if sorted(order) != sorted(ids):
        raise DiagramError("component order %r is not a permutation of %r" % (order, ids))
    arcs = d.arcs
    in_x: dict[int, int] = {}
    for xid, c in d.crossings.items():
        in_x[c.over_in] = in_x[c.under_in] = xid
    busy = {arcs[a].owner for a in in_x}
    seen: set[int] = set()
    out: set[int] = set()
    for cid in order:
        if cid not in busy:
            continue
        start = aid = d.components[cid].basepoint
        if start is None:
            raise DiagramError("component %d has crossings but no basepoint" % cid)
        while True:
            xid = in_x.get(aid)
            if xid is not None and xid not in seen:
                seen.add(xid)
                c = d.crossings[xid]
                if c.under_in == aid and (not self_only or arcs[c.over_in].owner == cid):
                    out.add(xid)
            aid = arcs[aid].successor
            if aid == start:
                break
    return out

