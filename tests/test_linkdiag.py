import os
import random
import re
import subprocess
import sys
import time

import pytest

from conftest import blow_down_gadget, gadget, gadget_sides, random_diagram
from surgerykit import calculus, catalog, intlattice, jsonio, linkdiag
from surgerykit.linkdiag import (Arc, Component, Crossing, DiagramError,
                                 Editor, FramedLinkDiagram,
                                 descending_switch_set, linking_matrix,
                                 validate_diagram)


def _switched(d, xids):
    """A copy of `d` with the crossings `xids` switched."""
    ed = Editor(d.copy())
    for xid in xids:
        ed.switch(xid)
    return ed.d


def _lk(d, i, j):
    """The linking number of components i and j (ids), read from the
    linking matrix."""
    pos = list(d.components)
    return linking_matrix(d).entries[pos.index(i)][pos.index(j)]


# -- validation --------------------------------------------------------------

def test_zero_crossing_unknot_is_valid():
    d = catalog.unknot(5)
    assert validate_diagram(d) == []


def test_trefoil_is_valid():
    assert validate_diagram(catalog.trefoil()) == []


def test_bad_successor_cycle_reported():
    # one declared component whose two arcs form two 1-cycles
    d = FramedLinkDiagram(
        components={0: Component(0, basepoint=0)},
        arcs={0: Arc(0, 0), 1: Arc(0, 1)},
        crossings={})
    bad = validate_diagram(d)
    assert any("single successor cycle" in v for v in bad)


def test_crossing_successor_mismatch_reported():
    d = catalog.trefoil()
    d.crossings[0].over_out = 2  # breaks succ(over_in) == over_out
    bad = validate_diagram(d)
    assert any("successor of over_in" in v for v in bad)


def test_crossing_naming_missing_arc_is_reported_not_raised():
    d = catalog.hopf_link()
    d.crossings[0].over_in = 99
    bad = validate_diagram(d)
    assert "crossing 0 references unknown arcs [99]" in bad
    with pytest.raises(DiagramError, match=r"^invalid diagram: crossing 0 references"):
        linking_matrix(d)


def _diagram(components, arcs, crossings=()):
    """Components (id, basepoint) framed 0, arcs {id: (owner, next)} and
    crossings (over_in, over_out, under_in, under_out, sign) with ids 0, 1, ..."""
    return FramedLinkDiagram(components={cid: Component(0, bp) for cid, bp in components},
                             arcs={a: Arc(*v) for a, v in arcs.items()},
                             crossings=dict(enumerate(Crossing(*c) for c in crossings)))


_HOPF_ARCS = {0: (0, 2), 1: (1, 3), 2: (0, 0), 3: (1, 1)}
_HOPF_CROSSINGS = [(0, 2, 1, 3, 1), (3, 1, 2, 0, 1)]

# one minimal malformed diagram per message -> everything validate_diagram returns
MALFORMED = {
    "arc of an unknown component": (
        _diagram([], {0: (7, 0)}),
        ["arc 0 owned by unknown component 7", "arc 0 is the in-arc of 0 crossings",
         "arc 0 is the out-arc of 0 crossings"]),
    "unknown successor": (
        _diagram([(0, 0)], {0: (0, 9)}),
        ["arc 0 has unknown successor 9",
         "component 0 successor chain leaves the component at arc 0"]),
    "crossing sign": (
        _diagram([(0, 0), (1, 1)], _HOPF_ARCS, [(0, 2, 1, 3, 2), _HOPF_CROSSINGS[1]]),
        ["crossing 0 has sign 2, expected +1 or -1"]),
    "boolean crossing sign": (
        _diagram([(0, 0), (1, 1)], _HOPF_ARCS, [(0, 2, 1, 3, True), _HOPF_CROSSINGS[1]]),
        ["crossing 0 has sign True, expected +1 or -1"]),
    "float crossing sign": (
        _diagram([(0, 0), (1, 1)], _HOPF_ARCS, [_HOPF_CROSSINGS[0], (3, 1, 2, 0, 1.0)]),
        ["crossing 1 has sign 1.0, expected +1 or -1"]),
    "float framing": (
        FramedLinkDiagram({0: Component(2.0, 0)}, {0: Arc(0, 0)}),
        ["component 0 has framing 2.0, expected an integer"]),
    "boolean framing": (
        FramedLinkDiagram({0: Component(True, 0)}, {0: Arc(0, 0)}),
        ["component 0 has framing True, expected an integer"]),
    "in-arc shared between strands": (
        _diagram([(0, 0), (1, 1)], _HOPF_ARCS, [(0, 2, 0, 3, 1), _HOPF_CROSSINGS[1]]),
        ["crossing 0 shares an in-arc or out-arc between strands",
         "crossing 0: successor of under_in is not under_out",
         "arc 0 is the in-arc of 2 crossings", "arc 1 is the in-arc of 0 crossings"]),
    "strand on one arc": (
        _diagram([(0, 0), (1, 1)], {0: (0, 0), 1: (1, 1)}, [(0, 0, 1, 1, 1)]),
        ["crossing 0 has a strand entering and leaving on one arc"]),
    "under_in successor": (
        _diagram([(0, 0), (1, 1)], _HOPF_ARCS, [_HOPF_CROSSINGS[0], (3, 1, 2, 3, 1)]),
        ["crossing 1: successor of under_in is not under_out",
         "arc 0 is the out-arc of 0 crossings", "arc 3 is the out-arc of 2 crossings"]),
    "zero-crossing loop in a crossing": (
        _diagram([(0, 0), (1, 1), (2, 4)], {**_HOPF_ARCS, 4: (2, 4)},
                 [(0, 4, 1, 3, 1), _HOPF_CROSSINGS[1]]),
        ["crossing 0: successor of over_in is not over_out",
         "arc 2 is the out-arc of 0 crossings",
         "arc 4 of zero-crossing loop appears in a crossing"]),
    "basepoint of another component": (
        _diagram([(0, 1), (1, 1)], _HOPF_ARCS, _HOPF_CROSSINGS),
        ["component 0 basepoint 1 is not one of its arcs"]),
    "successor chain leaves the component": (
        _diagram([(0, 0), (1, 1)], {0: (0, 1), 1: (1, 1)}),
        ["component 0 successor chain leaves the component at arc 0"]),
    "successor chain loops back short of its start": (
        _diagram([(0, 0)], {0: (0, 1), 1: (0, 1)}),
        ["component 0 arcs are not a single successor cycle (2 of 2 reached)"]),
}


def test_hopf_table_is_valid():
    d = _diagram([(0, 0), (1, 1)], _HOPF_ARCS, _HOPF_CROSSINGS)
    assert d == catalog.hopf_link() and validate_diagram(d) == []


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_diagram_messages(case):
    d, messages = MALFORMED[case]
    assert validate_diagram(d) == messages


def _mutant(rng, d):
    """A copy of `d` with one to three seeded faults: an arc's owner or
    successor, a crossing's arc or sign, a basepoint, a framing or a
    component re-keyed to a fresh id, or an arc or a crossing deleted."""
    d = d.copy()
    for _ in range(rng.choice((1, 1, 2, 3))):
        arcs, xs, comps = d.arcs, d.crossings, d.components
        aids, cids = list(arcs), list(comps)
        arc_ids = aids + [max(aids, default=0) + 1]
        kind = rng.choice(("owner", "successor", "arc", "sign", "basepoint", "framing",
                           "id", "del arc", "del crossing") if xs else
                          ("owner", "successor", "basepoint", "framing", "id", "del arc"))
        if kind in ("owner", "successor", "del arc") and not aids:
            kind = "framing"
        if kind == "owner":
            arcs[rng.choice(aids)].owner = rng.choice(cids + [max(cids, default=0) + 1])
        elif kind == "successor":
            arcs[rng.choice(aids)].successor = rng.choice(arc_ids)
        elif kind == "arc":
            field = rng.choice(("over_in", "over_out", "under_in", "under_out"))
            setattr(xs[rng.choice(list(xs))], field, rng.choice(arc_ids))
        elif kind == "sign":
            c = xs[rng.choice(list(xs))]
            c.sign = rng.choice((-c.sign, 0, 2, True, False, 1.0, -1.0))
        elif kind == "basepoint":
            comps[rng.choice(cids)].basepoint = rng.choice(arc_ids + [None])
        elif kind == "framing":
            comps[rng.choice(cids)].framing = rng.choice((2.0, True, False, -1.0, 5))
        elif kind == "id":
            comps[max(cids) + 1] = comps.pop(rng.choice(cids))
        elif kind == "del arc":
            del arcs[rng.choice(aids)]
        else:
            del xs[rng.choice(list(xs))]
    return d


def _revisit_messages(d):
    """{component id: the cycle message} for each component whose successor
    walk from its smallest arc stays in the component and comes back to an
    arc other than its start; the message counts the distinct arcs reached."""
    mine = {}
    for aid, arc in d.arcs.items():
        mine.setdefault(arc.owner, []).append(aid)
    out = {}
    for cid in d.components:
        if cid not in mine:
            continue
        start = cur = min(mine[cid])
        seen = {start}
        while (nxt := d.arcs[cur].successor) in d.arcs and d.arcs[nxt].owner == cid:
            if nxt in seen:
                if nxt != start:
                    out[cid] = ("component %d arcs are not a single successor cycle "
                                "(%d of %d reached)" % (cid, len(seen), len(mine[cid])))
                break
            seen.add(nxt)
            cur = nxt
    return out


def test_validate_diagram_matches_the_oracle_on_seeded_mutants():
    """validate_diagram names the oracle's faults in the oracle's order on
    5,000 mutants of random diagrams and of unknotify outputs.  Where the
    oracle's walk comes back to an arc other than its start, the cycle
    message is the one with the distinct count, whatever the oracle says."""
    from conftest import validate_diagram_oracle
    from surgerykit.calculus import unknotify
    bases = [random_diagram(random.Random(s), max_components=4, max_crossings=12)
             for s in range(150)]
    bases += [unknotify(random_diagram(random.Random(s), max_components=3,
                                       max_crossings=10), unlink=s % 2).diagram
              for s in range(150, 200)]
    rng = random.Random("validate_diagram mutants")
    revisits = invalid = 0
    for t, base in enumerate(bases):
        for _ in range(25):
            d = _mutant(rng, base)
            old, new = validate_diagram_oracle(d), validate_diagram(d)
            extra = _revisit_messages(d)
            moved = {"component %d arcs are not a single successor cycle" % c for c in extra}
            kept = [m for m in old if m.split(" (")[0] not in moved]
            assert [m for m in new if m.split(" (")[0] not in moved] == kept, t
            assert [m for m in new if m.split(" (")[0] in moved] == [
                extra[c] for c in d.components if c in extra], t
            revisits += bool(extra)
            invalid += bool(old)
    assert revisits >= 50 and 3000 <= invalid < 5000


# -- linking numbers ---------------------------------------------------------

def test_hopf_linking_number():
    h = catalog.hopf_link()
    assert _lk(h, 0, 1) == 1
    assert _lk(h, 1, 0) == 1


def test_split_union_links_zero():
    d = catalog.unlink([0, 0])
    assert _lk(d, 0, 1) == 0


def test_chain_ends_unlinked():
    d = catalog.chain_link([0, 0, 0])
    assert _lk(d, 0, 2) == 0
    assert _lk(d, 0, 1) == 1


def test_linking_matrix_shapes():
    assert linking_matrix(catalog.unknot(7)).entries == [[7]]
    assert linking_matrix(catalog.hopf_link((0, 0))).entries == [[0, 1], [1, 0]]


def test_e8_link_matrix_is_e8():
    from surgerykit.intlattice import e8_matrix
    assert linking_matrix(catalog.e8_link()) == e8_matrix()


def test_linking_matrix_symmetric_with_framing_diagonal():
    rng = random.Random(7)
    for _ in range(25):
        d = random_diagram(rng)
        L = linking_matrix(d)
        assert L.entries == [list(r) for r in zip(*L.entries)]
        for t, c in enumerate(d.components.values()):
            assert L.entries[t][t] == c.framing


def _pairwise_linking_matrix(d):
    """Brute-force reference: framings on the diagonal, and off it, for
    each pair, half the sign sum over all crossings whose two strands
    that pair owns."""
    def lk(i, j):
        return sum(c.sign for c in d.crossings.values()
                   if {d.arcs[c.over_in].owner, d.arcs[c.under_in].owner} == {i, j}) // 2
    ids = list(d.components)
    return [[d.components[i].framing if i == j else lk(i, j) for j in ids] for i in ids]


def test_linking_matrix_matches_pairwise_reference():
    for seed in range(200):
        d = random_diagram(random.Random(seed), max_components=6, max_crossings=40)
        assert linking_matrix(d).entries == _pairwise_linking_matrix(d), seed


def test_linking_matrix_odd_pair_error():
    # three components of two arcs each; every pair shares one crossing
    arcs = {0: Arc(0, 1), 1: Arc(0, 0), 2: Arc(1, 3), 3: Arc(1, 2),
            4: Arc(2, 5), 5: Arc(2, 4)}
    crossings = {0: Crossing(0, 1, 2, 3, 1), 1: Crossing(3, 2, 4, 5, 1),
                 2: Crossing(5, 4, 1, 0, 1)}
    d = FramedLinkDiagram(
        components={k: Component(0, basepoint=2 * k) for k in range(3)},
        arcs=arcs, crossings=crossings)
    assert validate_diagram(d) == []
    with pytest.raises(DiagramError) as err:
        linking_matrix(d)
    assert str(err.value) == "components 0 and 1 share an odd number of crossings"


# -- switch ------------------------------------------------------------------

def test_switch_drops_hopf_linking():
    h = catalog.hopf_link()
    xid = min(h.crossings)
    assert _lk(_switched(h, [xid]), 0, 1) == 0


def test_switch_is_involution():
    d = catalog.trefoil(3)
    ed = Editor(d.copy())
    ed.switch(1)
    assert ed.d != d
    ed.switch(1)
    assert ed.d == d


def test_switch_self_crossing_keeps_matrix():
    d = catalog.trefoil(-1)
    assert linking_matrix(_switched(d, [0])) == linking_matrix(d)


def test_switch_changes_linking_by_sign():
    rng = random.Random(11)
    for _ in range(20):
        d = random_diagram(rng)
        for xid, c in d.crossings.items():
            i, j = d._strand_owners(c)
            if i == j:
                continue
            d2 = _switched(d, [xid])
            assert _lk(d2, i, j) == _lk(d, i, j) - c.sign
            assert ([x.framing for x in d2.components.values()]
                    == [x.framing for x in d.components.values()])
            break


# -- split unknots -----------------------------------------------------------

def test_add_split_unknot():
    ed = Editor(FramedLinkDiagram())
    assert ed.split_unknot(-1) == 0
    assert linking_matrix(ed.d).entries == [[-1]]
    ed = Editor(catalog.hopf_link((0, 0)))
    assert ed.split_unknot(1) == 2
    assert linking_matrix(ed.d).entries == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


def test_many_split_unknots_are_zero_crossing_loops():
    ed = Editor(FramedLinkDiagram())
    for k in range(4):
        ed.split_unknot(k)
    d = ed.d
    assert list(d.components) == [0, 1, 2, 3] and not d.crossings
    assert sorted((v.owner, v.successor) for v in d.arcs.values()) == [(k, k) for k in range(4)]


# -- gadget ------------------------------------------------------------------

def test_self_crossing_antiparallel_side_has_no_compensation():
    ed = Editor(catalog.trefoil(0))
    _, _, a, b, _ = linkdiag._side_arcs(ed.d.crossing(0), linkdiag.SIDE_LEFT)
    assert a == -b
    u = gadget(ed, 0, linkdiag.SIDE_LEFT)
    d2 = ed.d
    assert d2.components[0].framing == 0
    assert _lk(d2, 0, u) == 0


def test_hopf_gadget_compensations():
    ed = Editor(catalog.hopf_link((0, 0)))
    xid = min(ed.d.crossings)  # sign +1
    u = gadget(ed, xid, linkdiag.SIDE_BEFORE)
    assert [c.framing for c in ed.d.components.values()] == [-1, -1, -1]  # 0, 1 and the unknot
    blow_down_gadget(ed, xid, linkdiag.SIDE_BEFORE, u)
    assert linking_matrix(ed.d).entries == [[0, 1], [1, 0]]


def test_gadget_unknot_shape():
    ed = Editor(catalog.trefoil(0))
    u = gadget(ed, 1, linkdiag.SIDE_BEFORE)
    d2 = ed.d
    assert d2.components[u].framing in (1, -1)
    owners = [(d2.arcs[c.over_in].owner, d2.arcs[c.under_in].owner)
              for c in d2.crossings.values()]
    assert sum(u in pair for pair in owners) == 4


def test_gadget_round_trip_randomized():
    rng = random.Random(17)
    done = 0
    while done < 60:
        d = random_diagram(rng)
        if not d.crossings:
            continue
        L = linking_matrix(d)
        for xid in d.crossings:
            for side in gadget_sides(d, xid):
                ed = Editor(d.copy())
                u = gadget(ed, xid, side)
                assert not validate_diagram(ed.d)
                blow_down_gadget(ed, xid, side, u)
                assert not validate_diagram(ed.d)
                assert linking_matrix(ed.d) == L
        done += 1


def test_blow_down_split_unknot():
    # a split +/-1 unknot links nothing: its blow-down is its excision
    ed = Editor(catalog.hopf_link((0, 0)))
    cid = ed.split_unknot(1)
    ed.excise(cid)
    assert linking_matrix(ed.d).entries == [[0, 1], [1, 0]]


def test_blow_down_wrong_record_errors():
    ed = Editor(catalog.hopf_link((0, 0)))
    with pytest.raises(DiagramError):
        blow_down_gadget(ed, 0, linkdiag.SIDE_BEFORE, 0)  # framing 0, not gadget shaped


def test_degenerate_side_on_kink_errors():
    ed = Editor(catalog.unknot(0))
    ed.kink(0, 1)
    xid = next(iter(ed.d.crossings))
    c = ed.d.crossings[xid]
    u = ed.split_unknot(-1)
    with pytest.raises(DiagramError, match="selects one arc twice"):
        ed.gadget(xid, linkdiag.SIDE_LEFT if c.over_in == c.under_out else linkdiag.SIDE_RIGHT, u)


# -- freed ids without _heapq -------------------------------------------------

# A fresh `python -I -S` in which `_heapq` cannot be imported: it prints
# whether linkdiag took heapq.py's own functions, how often each ran, and
# the certificate of Hopf(3, -4) as jsonio writes it.
_NO_C_HEAP = """
import sys
sys.modules["_heapq"] = None
sys.path.insert(0, sys.argv[1])
import heapq
from surgerykit import calculus, catalog, jsonio, linkdiag
print(heapq.heappush.__module__, linkdiag.heappush is heapq.heappush,
      linkdiag.heappop is heapq.heappop)
calls = {"push": 0, "pop": 0}
def push(heap, i):
    calls["push"] += 1
    heapq.heappush(heap, i)
def pop(heap):
    calls["pop"] += 1
    return heapq.heappop(heap)
linkdiag.heappush, linkdiag.heappop = push, pop
cert = calculus.build_embedding_certificate(catalog.hopf_link((3, -4)))
print(calls["push"], calls["pop"])
sys.stdout.write(jsonio.dumps(jsonio.certificate_to_obj(cert)))
"""


def test_freed_ids_without_c_heapq_give_the_same_certificate():
    # Hopf(3, -4)'s gadgets free arc ids and take them again, so both heap
    # calls run on the pure-Python fallback.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _NO_C_HEAP, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    taken, calls, text = proc.stdout.split("\n", 2)
    assert taken == "heapq True True"
    push, pop = map(int, calls.split())
    assert push > 0 and pop > 0
    cert = calculus.build_embedding_certificate(catalog.hopf_link((3, -4)))
    assert text == jsonio.dumps(jsonio.certificate_to_obj(cert))


# -- failed preconditions ----------------------------------------------------

def _editor(d, kinks=0, unknots=()):
    """An Editor on `d` after `kinks` kinks on component 0 and one split
    unknot per framing in `unknots`."""
    ed = Editor(d)
    for _ in range(kinks):
        ed.kink(0, 1)
    for framing in unknots:
        ed.split_unknot(framing)
    return ed


def _hopf_gadget():
    """The Hopf link with a gadget on crossing 0, side 'before': the
    unknot is component 2, framed -1, on crossings 2-5."""
    ed = Editor(catalog.hopf_link((0, 0)))
    gadget(ed, 0, linkdiag.SIDE_BEFORE)
    return ed


# (editor, the rewrite whose precondition fails on it, the error it raises)
FAILED_PRECONDITIONS = {
    "switch unknown crossing": (lambda: _editor(catalog.hopf_link()),
                                lambda ed: ed.switch(9), "unknown crossing id 9"),
    "kink sign": (lambda: _editor(catalog.unknot(0)),
                  lambda ed: ed.kink(0, 2), "kink sign must be"),
    "kink sign True": (lambda: _editor(catalog.unknot(0)),
                       lambda ed: ed.kink(0, True), "kink sign must be"),
    "kink sign 1.0": (lambda: _editor(catalog.unknot(0)),
                      lambda ed: ed.kink(0, 1.0), "kink sign must be"),
    "kink unknown component": (lambda: _editor(catalog.unknot(0)),
                               lambda ed: ed.kink(5, 1), "unknown component id 5"),
    "clasp one component": (lambda: _editor(catalog.hopf_link()),
                            lambda ed: ed.clasp(0, 0, 1), "two distinct components"),
    "clasp sign": (lambda: _editor(catalog.hopf_link()),
                   lambda ed: ed.clasp(0, 1, 0), "clasp sign must be"),
    "clasp unknown component": (lambda: _editor(catalog.hopf_link()),
                                lambda ed: ed.clasp(0, 5, 1), "unknown component id 5"),
    "poke one component": (lambda: _editor(catalog.hopf_link()),
                           lambda ed: ed.poke(1, 1, 1), "two distinct components"),
    "poke sign": (lambda: _editor(catalog.hopf_link()),
                  lambda ed: ed.poke(0, 1, 2), "poke sign must be"),
    "poke unknown component": (lambda: _editor(catalog.hopf_link()),
                               lambda ed: ed.poke(5, 0, -1), "unknown component id 5"),
    "gadget unknown crossing": (lambda: _editor(catalog.hopf_link()),
                                lambda ed: ed.gadget(9, "before", 2), "unknown crossing id 9"),
    "gadget unknown side": (lambda: _editor(catalog.hopf_link()),
                            lambda ed: ed.gadget(0, "up", 2), "unknown side selector"),
    "gadget degenerate side": (lambda: _editor(catalog.unknot(0), kinks=1),
                               lambda ed: ed.gadget(0, "left", 1), "selects one arc twice"),
    "gadget unknown unknot": (lambda: _editor(catalog.hopf_link()),
                              lambda ed: ed.gadget(0, "before", 5), "unknown component id 5"),
    "gadget encircled unknot": (lambda: _editor(catalog.hopf_link()),
                                lambda ed: ed.gadget(0, "before", 1), "encircled"),
    "gadget unknot framing": (lambda: _editor(catalog.hopf_link(), unknots=[5]),
                              lambda ed: ed.gadget(0, "before", 2), "has framing 5, need -1"),
    "gadget unknot not split": (lambda: _editor(catalog.chain_link([0, 0, -1])),
                                lambda ed: ed.gadget(0, "before", 2), "is not split"),
    "blow_down_gadget unknown unknot": (
        _hopf_gadget, lambda ed: blow_down_gadget(ed, 0, "before", 5),
        "unknown component id 5"),
    "blow_down_gadget epsilon": (
        _hopf_gadget, lambda ed: blow_down_gadget(ed, 0, "left", 2),
        "has framing -1, side 'left' of crossing 0 needs 1"),
    "blow_down_gadget shape": (
        lambda: _editor(catalog.hopf_link((1, 0))),
        lambda ed: blow_down_gadget(ed, 0, "before", 0),
        "not the 4-crossing gadget shape"),
    "blow_down_gadget self-crossings": (
        lambda: _editor(catalog.unknot(1), kinks=4),
        lambda ed: blow_down_gadget(ed, 0, "before", 0), "not a single passage"),
    "blow_down_gadget missing crossing": (
        _hopf_gadget, lambda ed: blow_down_gadget(ed, 9, "before", 2),
        "unknown crossing id 9"),
    "blow_down_gadget crossing of the unknot": (
        _hopf_gadget, lambda ed: blow_down_gadget(ed, 3, "left", 2), "blow-down removes"),
    "blow_down_gadget linking row": (
        _hopf_gadget, lambda ed: blow_down_gadget(ed, 0, "after", 2),
        re.escape("gadget unknot 2 links {0: 1, 1: 1}, side 'after' of crossing 0 "
                  "needs {0: -1, 1: -1}")),
}


def _state(ed):
    return (ed.d.copy(), list(ed.log), {c: set(a) for c, a in ed.arcs_of.items()}, dict(ed.in_x))


@pytest.mark.parametrize("case", sorted(FAILED_PRECONDITIONS))
def test_failed_precondition_changes_nothing(case):
    make, rewrite, message = FAILED_PRECONDITIONS[case]
    ed = make()
    before = _state(ed)
    with pytest.raises(DiagramError, match=message):
        rewrite(ed)
    assert _state(ed) == before


def test_blow_down_gadget_record_and_log():
    ed = _hopf_gadget()
    assert gadget(ed, 1, linkdiag.SIDE_BEFORE) == 3
    blow_down_gadget(ed, 1, linkdiag.SIDE_BEFORE, 3)
    blow_down_gadget(ed, 0, linkdiag.SIDE_BEFORE, 2)
    assert ed.d == catalog.hopf_link((0, 0))
    # every crossing and framing change was logged, so the log nets to zero
    assert intlattice._pair_sums(ed.log) == {}


# -- descending traversal ----------------------------------------------------

def test_kink_first_over_is_descending():
    ed = Editor(catalog.unknot(0))
    ed.kink(0, 1, first_over=True)
    assert descending_switch_set(ed.d) == set()


def test_kink_first_under_needs_switch():
    ed = Editor(catalog.unknot(0))
    ed.kink(0, 1, first_over=False)
    assert descending_switch_set(ed.d) == set(ed.d.crossings)


def test_trefoil_descending_set():
    d = catalog.trefoil()
    s = descending_switch_set(d)
    assert s == {1}
    assert descending_switch_set(_switched(d, s)) == set()


def test_switching_descending_set_descends():
    rng = random.Random(19)
    for _ in range(40):
        d = random_diagram(rng)
        order = list(d.components)
        rng.shuffle(order)
        d2 = _switched(d, descending_switch_set(d, order))
        assert descending_switch_set(d2, order) == set()
        # restricted variant: every component individually descending
        d3 = _switched(d, descending_switch_set(d, order, self_only=True))
        assert descending_switch_set(d3, order, self_only=True) == set()


def test_missing_basepoint_errors():
    d = catalog.trefoil()
    d.components[0].basepoint = None
    with pytest.raises(DiagramError):
        descending_switch_set(d)


def test_bad_order_errors():
    with pytest.raises(DiagramError):
        descending_switch_set(catalog.hopf_link(), [0, 0])


def _reference_switch_set(d, order, self_only):
    """The traversal as first written: an in-arc -> (crossing, role) map,
    then every component that meets a crossing walked from its basepoint,
    in `order`, keeping each crossing met first on its under strand."""
    roles = {}
    for xid, c in d.crossings.items():
        roles[c.over_in] = (xid, "over")
        roles[c.under_in] = (xid, "under")
    owners = {xid: (d.arcs[c.over_in].owner, d.arcs[c.under_in].owner)
              for xid, c in d.crossings.items()}
    busy = {cid for pair in owners.values() for cid in pair}
    seen, out = set(), set()
    for cid in order:
        if cid not in busy:
            continue
        start = d.components[cid].basepoint
        if start is None:
            return "component %d has crossings but no basepoint" % cid
        cycle = [start]
        while d.arcs[cycle[-1]].successor != start:
            cycle.append(d.arcs[cycle[-1]].successor)
        for aid in cycle:
            xid, role = roles.get(aid, (None, None))
            if xid is None or xid in seen:
                continue
            seen.add(xid)
            if role == "under" and (not self_only or owners[xid] == (cid, cid)):
                out.add(xid)
    return out


def test_descending_switch_set_matches_reference_traversal():
    rng = random.Random(23)
    compared = errors = 0
    for _ in range(300):
        d = random_diagram(rng, max_components=6, max_crossings=30)
        shuffled = list(d.components)
        rng.shuffle(shuffled)
        # the same diagram with some basepoints removed
        e = d.copy()
        for comp in rng.sample(list(e.components.values()), rng.randint(1, len(e.components))):
            comp.basepoint = None
        for order in (None, shuffled):
            for self_only in (False, True):
                want = _reference_switch_set(d, order or list(d.components), self_only)
                assert descending_switch_set(d, order, self_only=self_only) == want
                compared += 1
                want = _reference_switch_set(e, order or list(e.components), self_only)
                if isinstance(want, str):
                    with pytest.raises(DiagramError) as err:
                        descending_switch_set(e, order, self_only=self_only)
                    assert str(err.value) == want
                    errors += 1
                else:
                    assert descending_switch_set(e, order, self_only=self_only) == want
    assert compared == 1200 and errors >= 1000, errors


# -- clasps and pokes --------------------------------------------------------

def test_clasp_changes_linking_by_sign():
    ed = Editor(catalog.unlink([0, 0]))
    ed.clasp(0, 1, -1)
    assert _lk(ed.d, 0, 1) == -1


def test_chain_link_clasps_in_place(monkeypatch):
    copies = []
    copy = FramedLinkDiagram.copy
    monkeypatch.setattr(FramedLinkDiagram, "copy",
                        lambda self: copies.append(len(self.crossings)) or copy(self))
    d = catalog.chain_link([0] * 50)
    assert copies == []
    assert linking_matrix(d).entries == [[int(abs(a - b) == 1) for b in range(50)]
                                         for a in range(50)]


def test_poke_preserves_linking():
    d = catalog.hopf_link((2, 3))
    ed = Editor(d.copy())
    c_main, c_mate = ed.poke(0, 1, -1)
    d2 = ed.d
    assert not validate_diagram(d2)
    assert linking_matrix(d2) == linking_matrix(d)
    assert d2.crossings[c_main].sign == -1
    assert d2.crossings[c_mate].sign == 1


def _hopf_basepoint_on_out_arc():
    # component 1's basepoint is the out-arc of its under-passage at crossing 0
    d = catalog.hopf_link((2, 3))
    d.components[1].basepoint = d.crossings[0].under_out
    return d


@pytest.mark.parametrize("make, cid", [
    (lambda: catalog.hopf_link((2, 3)), 0),
    (lambda: catalog.hopf_link((2, 3)), 1),
    (lambda: catalog.chain_link([1, 2, 3]), 1),
    (_hopf_basepoint_on_out_arc, 0),
])
def test_excise_removes_one_row_and_column(make, cid):
    d = make()
    L = linking_matrix(d).entries
    keep = [t for t, c in enumerate(d.components) if c != cid]
    ed = Editor(d)
    ed.excise(cid)
    assert validate_diagram(d) == []
    assert linking_matrix(d).entries == [[L[s][t] for t in keep] for s in keep]
    fresh = Editor(d.copy())
    assert (fresh.arcs_of, fresh.in_x) == (ed.arcs_of, ed.in_x)
    assert all(fresh.xs_of(c) == ed.xs_of(c) for c in d.components)
    if len(keep) == 1:  # the other Hopf component is left a zero-crossing loop
        assert not d.crossings and len(d.arcs) == 1


def test_excise_from_the_front_is_linear():
    # each excision costs the removed component's arcs and crossings, not
    # the components after it
    d = catalog.unlink([1] * 20000)
    ed = Editor(d)
    start = time.perf_counter()
    for cid in range(19999):
        ed.excise(cid)
    assert time.perf_counter() - start < 1
    assert validate_diagram(d) == [] and list(d.components) == [19999]
    assert linking_matrix(d).entries == [[1]] and d.arcs == {19999: Arc(19999, 19999)}


def test_anchor_of_a_component_without_basepoint():
    # with arcs, the smallest of them becomes the basepoint, which a
    # second anchor returns; with none, a fresh arc becomes the basepoint
    d = catalog.hopf_link()
    d.components[1].basepoint = None
    ed = Editor(d)
    arcs = {a for a, arc in d.arcs.items() if arc.owner == 1}
    assert ed.anchor(1) == min(arcs) == d.components[1].basepoint
    assert ed.anchor(1) == min(arcs)
    d = FramedLinkDiagram(components={0: Component(1)})
    ed = Editor(d)
    aid = ed.anchor(0)
    assert d.components[0].basepoint == aid and d.arcs == {aid: Arc(0, aid)}
    assert validate_diagram(d) == []
