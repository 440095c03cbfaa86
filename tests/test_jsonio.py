import json
import random

import pytest

from conftest import random_diagram
from surgerykit import catalog, jsonio
from surgerykit.calculus import (AddSplitUnknot, BlowDownIndex, GadgetSwitch,
                                 MatrixSlide, Poke, SlideOverUnknot,
                                 build_embedding_certificate)
from surgerykit.intlattice import IntegralLattice
from surgerykit.jsonio import (FormatError, certificate_from_obj,
                               certificate_to_obj, decode_int, diagram_from_obj,
                               diagram_to_obj, dumps, encode_int,
                               lattice_from_obj, lattice_to_obj, move_from_obj,
                               move_to_obj)


# -- integers ----------------------------------------------------------------

def test_small_ints_stay_ints():
    assert encode_int(42) == 42
    assert encode_int(-(2 ** 63)) == -(2 ** 63)
    assert encode_int(2 ** 63 - 1) == 2 ** 63 - 1


def test_big_ints_become_strings():
    v = 2 ** 80
    assert encode_int(v) == str(v)
    assert encode_int(-v) == str(-v)
    assert decode_int(encode_int(v)) == v
    assert decode_int(encode_int(-v)) == -v


def test_encode_int_rejects_too_many_digits():
    # past Python's 4,300-digit int/str limit
    for v in (10 ** 5000, -10 ** 5000):
        with pytest.raises(FormatError, match="too many digits to write"):
            encode_int(v)


def test_decode_int_rejects_garbage():
    # "\u00b2" and "\u0661\u0662" pass str.isdigit but are not ASCII decimals
    for bad in (True, 1.5, "x", "1.5", "--3", "", None, [1],
                "\u00b2", "-\u00b2", "\u0661\u0662", "1" * 5000, "-" + "1" * 5000):
        with pytest.raises(FormatError):
            decode_int(bad)


# -- links -------------------------------------------------------------------

def test_diagram_round_trip_fixtures():
    for d in (catalog.unknot(3), catalog.hopf_link((2, -2)),
              catalog.trefoil(-1), catalog.e8_link()):
        assert diagram_from_obj(diagram_to_obj(d)) == d


def test_diagram_round_trip_randomized():
    rng = random.Random(307)
    for _ in range(25):
        d = random_diagram(rng)
        assert diagram_from_obj(diagram_to_obj(d)) == d


def test_diagram_rejects_unknown_keys():
    obj = diagram_to_obj(catalog.unknot(0))
    obj["extra"] = 1
    with pytest.raises(FormatError, match="unknown keys"):
        diagram_from_obj(obj)
    obj = diagram_to_obj(catalog.unknot(0))
    obj["components"][0]["color"] = "red"
    with pytest.raises(FormatError, match="unknown keys"):
        diagram_from_obj(obj)


def test_diagram_rejects_duplicates_and_missing():
    obj = diagram_to_obj(catalog.trefoil())
    obj["arcs"].append(dict(obj["arcs"][0]))
    with pytest.raises(FormatError, match="duplicate arc"):
        diagram_from_obj(obj)
    with pytest.raises(FormatError, match="missing keys"):
        diagram_from_obj({})


def test_diagram_big_framing():
    d = catalog.unknot(10 ** 30)
    obj = diagram_to_obj(d)
    assert obj["components"][0]["framing"] == str(10 ** 30)
    assert diagram_from_obj(obj).component(0).framing == 10 ** 30


# -- matrices ----------------------------------------------------------------

def test_lattice_round_trip():
    L = IntegralLattice([[0, 10 ** 25], [10 ** 25, -3]])
    obj = lattice_to_obj(L)
    assert obj["n"] == 2
    assert obj["entries"][0][1] == str(10 ** 25)
    assert lattice_from_obj(obj) == L


def test_lattice_rejects_bad_shapes():
    with pytest.raises(FormatError):
        lattice_from_obj({"n": 2, "entries": [[1, 0]]})
    with pytest.raises(FormatError):
        lattice_from_obj({"n": 1, "entries": [[1]], "junk": 0})
    with pytest.raises(FormatError, match="symmetric"):
        lattice_from_obj({"n": 2, "entries": [[1, 2], [3, 1]]})


# -- moves -------------------------------------------------------------------

def test_move_round_trips():
    moves = [
        GadgetSwitch(crossing=3, unknot=5, side="before"),
        SlideOverUnknot(component=0, unknot=2, s=-1),
        AddSplitUnknot(framing=-7),
        MatrixSlide(i=1, j=0, s=1),
        BlowDownIndex(k=4),
        Poke(over=0, under=1, sign=-1),
    ]
    for mv in moves:
        assert move_from_obj(move_to_obj(mv)) == mv


def test_move_rejects_unknown_type_and_keys():
    with pytest.raises(FormatError, match="unknown move type"):
        move_from_obj({"type": "twist"})
    with pytest.raises(FormatError, match="unknown keys"):
        move_from_obj({"type": "blow_down_index", "k": 0, "x": 1})
    with pytest.raises(FormatError, match="type"):
        move_from_obj([1, 2])
    with pytest.raises(FormatError, match="unknown move type"):
        move_from_obj({"type": ["poke"]})
    with pytest.raises(FormatError, match="poke is missing keys"):
        move_from_obj({"type": "poke", "over": 0, "under": 1})
    with pytest.raises(FormatError, match="sign must be an integer"):
        move_from_obj({"type": "poke", "over": 0, "under": 1, "sign": "x"})


# -- certificates ------------------------------------------------------------

def test_certificate_round_trip():
    cert = build_embedding_certificate(catalog.chain_link([2, -3, 5]))
    obj = certificate_to_obj(cert)
    back = certificate_from_obj(obj)
    assert back == cert


def test_certificate_via_json_text():
    cert = build_embedding_certificate(catalog.hopf_link((4, 4)))
    text = dumps(certificate_to_obj(cert))
    assert certificate_from_obj(json.loads(text)) == cert


def test_certificate_rejects_non_ascii_sublink_key():
    obj = certificate_to_obj(build_embedding_certificate(catalog.unknot(1)))
    obj["sublink"] = {"\u00b2": 0}
    with pytest.raises(FormatError, match="sublink key"):
        certificate_from_obj(obj)


def test_certificate_rejects_extra_keys():
    obj = certificate_to_obj(build_embedding_certificate(catalog.unknot(1)))
    obj["note"] = "hi"
    with pytest.raises(FormatError, match="unknown keys"):
        certificate_from_obj(obj)


# -- canonical text ----------------------------------------------------------

def test_dumps_is_canonical():
    d = catalog.trefoil(2)
    t1 = dumps(diagram_to_obj(d))
    t2 = dumps(diagram_to_obj(diagram_from_obj(json.loads(t1))))
    assert t1 == t2
    assert t1.endswith("\n")
    assert t1 == json.dumps(json.loads(t1), indent=2, sort_keys=True) + "\n"


def test_load_path_and_save_path(tmp_path):
    p = tmp_path / "link.json"
    d = catalog.hopf_link((0, 1))
    jsonio.save_path(str(p), diagram_to_obj(d))
    assert diagram_from_obj(jsonio.load_path(str(p))) == d
    with pytest.raises(FormatError, match="cannot read"):
        jsonio.load_path(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(FormatError, match="cannot read"):
        jsonio.load_path(str(bad))
