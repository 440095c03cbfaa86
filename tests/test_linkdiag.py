import random

import pytest

from conftest import gadget_sides, random_diagram
from surgerykit import catalog, linkdiag
from surgerykit.linkdiag import (Arc, Component, Crossing, DiagramError,
                                 FramedLinkDiagram, add_clasp, add_kink,
                                 add_poke, add_split_unknot, blow_down_gadget,
                                 descending_switch_set, insert_crossing_gadget,
                                 is_descending, linking_matrix, linking_number,
                                 reverse_component, switch_crossing,
                                 validate_diagram)


# -- validation --------------------------------------------------------------

def test_zero_crossing_unknot_is_valid():
    d = catalog.unknot(5)
    assert validate_diagram(d) == []


def test_trefoil_is_valid():
    assert validate_diagram(catalog.trefoil()) == []


def test_bad_successor_cycle_reported():
    # one declared component whose two arcs form two 1-cycles
    d = FramedLinkDiagram(
        components=[Component(0, 0, basepoint=0)],
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


# -- linking numbers ---------------------------------------------------------

def test_hopf_linking_number():
    h = catalog.hopf_link()
    assert linking_number(h, 0, 1) == 1
    assert linking_number(h, 1, 0) == 1


def test_split_union_links_zero():
    d = catalog.unlink([0, 0])
    assert linking_number(d, 0, 1) == 0


def test_chain_ends_unlinked():
    d = catalog.chain_link([0, 0, 0])
    assert linking_number(d, 0, 2) == 0
    assert linking_number(d, 0, 1) == 1


def test_linking_number_rejects_self_pairing():
    with pytest.raises(DiagramError):
        linking_number(catalog.unknot(0), 0, 0)


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
        for t, c in enumerate(d.components):
            assert L.entries[t][t] == c.framing


def _pairwise_linking_matrix(d):
    """Reference construction: framings on the diagonal, one
    linking_number call per pair of components off it."""
    ids = d.component_ids()
    return [[d.component(i).framing if i == j else linking_number(d, i, j)
             for j in ids] for i in ids]


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
        components=[Component(k, 0, basepoint=2 * k) for k in range(3)],
        arcs=arcs, crossings=crossings)
    assert validate_diagram(d) == []
    with pytest.raises(DiagramError) as err:
        linking_matrix(d)
    assert str(err.value) == "components 0 and 1 share an odd number of crossings"


# -- switch ------------------------------------------------------------------

def test_switch_drops_hopf_linking():
    h = catalog.hopf_link()
    xid = min(h.crossings)
    assert linking_number(switch_crossing(h, xid), 0, 1) == 0


def test_switch_is_involution():
    d = catalog.trefoil(3)
    d2 = switch_crossing(switch_crossing(d, 1), 1)
    assert d2 == d


def test_switch_self_crossing_keeps_matrix():
    d = catalog.trefoil(-1)
    assert linking_matrix(switch_crossing(d, 0)) == linking_matrix(d)


def test_switch_changes_linking_by_sign():
    rng = random.Random(11)
    for _ in range(20):
        d = random_diagram(rng)
        for xid, c in d.crossings.items():
            i, j = d._strand_owners(c)
            if i == j:
                continue
            d2 = switch_crossing(d, xid)
            assert linking_number(d2, i, j) == linking_number(d, i, j) - c.sign
            assert [x.framing for x in d2.components] == [x.framing for x in d.components]
            break


# -- reverse -----------------------------------------------------------------

def test_reverse_negates_hopf_linking():
    h = catalog.hopf_link()
    assert linking_number(reverse_component(h, 0), 0, 1) == -1


def test_reverse_twice_is_identity():
    d = catalog.trefoil(2)
    assert reverse_component(reverse_component(d, 0), 0) == d


def test_reverse_conjugates_matrix():
    rng = random.Random(13)
    for _ in range(15):
        d = random_diagram(rng)
        ids = d.component_ids()
        cid = rng.choice(ids)
        t = ids.index(cid)
        L = linking_matrix(d).entries
        L2 = linking_matrix(reverse_component(d, cid)).entries
        for a in range(len(ids)):
            for b in range(len(ids)):
                s = (-1 if a == t else 1) * (-1 if b == t else 1)
                assert L2[a][b] == s * L[a][b]
        assert not validate_diagram(reverse_component(d, cid))


# -- split unknots -----------------------------------------------------------

def test_add_split_unknot():
    d, cid = add_split_unknot(FramedLinkDiagram(), -1)
    assert linking_matrix(d).entries == [[-1]]
    d2, _ = add_split_unknot(catalog.hopf_link((0, 0)), 1)
    assert linking_matrix(d2).entries == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


def test_many_split_unknots_are_zero_crossing_loops():
    d = FramedLinkDiagram()
    for k in range(4):
        d, _ = add_split_unknot(d, k)
    assert d.component_ids() == [0, 1, 2, 3] and not d.crossings
    assert sorted((v.owner, v.successor) for v in d.arcs.values()) == [(k, k) for k in range(4)]


# -- gadget ------------------------------------------------------------------

def test_self_crossing_antiparallel_side_has_no_compensation():
    d = catalog.trefoil(0)
    d2, rec = insert_crossing_gadget(d, 0, linkdiag.SIDE_LEFT)
    a, b = rec.passage_signs
    assert a == -b
    assert rec.framing_compensations == {}
    assert linking_number(d2, 0, rec.unknot) == 0


def test_hopf_gadget_compensations():
    h = catalog.hopf_link((0, 0))
    xid = min(h.crossings)  # sign +1
    d2, rec = insert_crossing_gadget(h, xid, linkdiag.SIDE_BEFORE)
    assert rec.epsilon == -1
    assert rec.framing_compensations == {0: -1, 1: -1}
    d3 = blow_down_gadget(d2, rec)
    assert linking_matrix(d3).entries == [[0, 1], [1, 0]]


def test_gadget_unknot_shape():
    d = catalog.trefoil(0)
    d2, rec = insert_crossing_gadget(d, 1, linkdiag.SIDE_BEFORE)
    assert d2.component(rec.unknot).framing == rec.epsilon
    assert rec.epsilon in (1, -1)
    owners = [(d2.arcs[c.over_in].owner, d2.arcs[c.under_in].owner)
              for c in d2.crossings.values()]
    assert sum(rec.unknot in pair for pair in owners) == 4


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
                d2, rec = insert_crossing_gadget(d, xid, side)
                assert not validate_diagram(d2)
                d3 = blow_down_gadget(d2, rec)
                assert not validate_diagram(d3)
                assert linking_matrix(d3) == L
        done += 1


def test_blow_down_split_unknot():
    from surgerykit.linkdiag import GadgetRecord
    d, cid = add_split_unknot(catalog.hopf_link((0, 0)), 1)
    rec = GadgetRecord(unknot=cid, crossing=None, epsilon=1,
                       passage_signs=(1, 1), framing_compensations={})
    d2 = blow_down_gadget(d, rec)
    assert linking_matrix(d2).entries == [[0, 1], [1, 0]]


def test_blow_down_wrong_record_errors():
    from surgerykit.linkdiag import GadgetRecord
    d = catalog.hopf_link((0, 0))
    rec = GadgetRecord(unknot=0, crossing=None, epsilon=1,
                       passage_signs=(1, 1), framing_compensations={})
    with pytest.raises(DiagramError):
        blow_down_gadget(d, rec)  # framing 0, not gadget shaped


def test_degenerate_side_on_kink_errors():
    d = add_kink(catalog.unknot(0), 0, 1)
    xid = next(iter(d.crossings))
    with pytest.raises(DiagramError):
        insert_crossing_gadget(d, xid, linkdiag.SIDE_LEFT if
                               d.crossings[xid].over_in == d.crossings[xid].under_out
                               else linkdiag.SIDE_RIGHT)


# -- descending traversal ----------------------------------------------------

def test_kink_first_over_is_descending():
    d = add_kink(catalog.unknot(0), 0, 1, first_over=True)
    assert descending_switch_set(d) == set()


def test_kink_first_under_needs_switch():
    d = add_kink(catalog.unknot(0), 0, 1, first_over=False)
    assert descending_switch_set(d) == set(d.crossings)


def test_trefoil_descending_set():
    d = catalog.trefoil()
    s = descending_switch_set(d)
    assert s == {1}
    d2 = d
    for xid in s:
        d2 = switch_crossing(d2, xid)
    assert is_descending(d2)


def test_switching_descending_set_descends():
    rng = random.Random(19)
    for _ in range(40):
        d = random_diagram(rng)
        order = d.component_ids()
        rng.shuffle(order)
        d2 = d
        for xid in descending_switch_set(d, order):
            d2 = switch_crossing(d2, xid)
        assert is_descending(d2, order)
        # restricted variant: every component individually descending
        d3 = d
        for xid in descending_switch_set(d, order, self_only=True):
            d3 = switch_crossing(d3, xid)
        assert is_descending(d3, order, self_only=True)


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
        start = d.component(cid).basepoint
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
        shuffled = d.component_ids()
        rng.shuffle(shuffled)
        # the same diagram with some basepoints removed
        e = d.copy()
        for comp in rng.sample(e.components, rng.randint(1, len(e.components))):
            comp.basepoint = None
        for order in (None, shuffled):
            for self_only in (False, True):
                want = _reference_switch_set(d, order or d.component_ids(), self_only)
                assert descending_switch_set(d, order, self_only=self_only) == want
                compared += 1
                want = _reference_switch_set(e, order or e.component_ids(), self_only)
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
    d = catalog.unlink([0, 0])
    assert linking_number(add_clasp(d, 0, 1, -1), 0, 1) == -1


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
    d2, c_main, c_mate = add_poke(d, 0, 1, -1)
    assert not validate_diagram(d2)
    assert linking_matrix(d2) == linking_matrix(d)
    assert d2.crossings[c_main].sign == -1
    assert d2.crossings[c_mate].sign == 1
