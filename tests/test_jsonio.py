import functools
import hashlib
import json
import marshal
import os
import random
import re
import subprocess
import sys

import pytest

from conftest import random_diagram
from surgerykit import catalog, jsonio
from surgerykit.calculus import (GadgetSwitch, Poke, SlideOverUnknot,
                                 build_embedding_certificate)
from surgerykit.cli import main
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

def _assert_round_trip(d):
    # dict == ignores the order of the components, which the file keeps
    d2 = diagram_from_obj(diagram_to_obj(d))
    assert d2 == d and list(d2.components) == list(d.components)


def test_diagram_round_trip_fixtures():
    reordered = catalog.unlink([1, 2, 3])
    reordered.components = dict(reversed(reordered.components.items()))
    for d in (catalog.unknot(3), catalog.hopf_link((2, -2)),
              catalog.trefoil(-1), catalog.e8_link(), reordered):
        _assert_round_trip(d)


def test_diagram_round_trip_randomized():
    rng = random.Random(307)
    for _ in range(25):
        _assert_round_trip(random_diagram(rng))


# sha256 of dumps(diagram_to_obj(random_diagram(random.Random(seed), ...))),
# recorded when random_diagram still copied the diagram at every step: the
# seeded inputs of every test built on random_diagram are pinned by these
SEEDED_DIAGRAMS = {
    (3, 8): {
        0: "4828d6677a0f7bb41da70e036959edbfb1f5debe1295571fa46d4c1b878304ba",
        1: "c9b6c99f64f8707df7f9a2ad56254d35d606705df3c71c97d29948e0acfa52f3",
        2: "aab78335b5cb609d23b1df069a0893293099f5b395cfa716d9c52601a23c08d8",
        3: "e7875fae3902348b3bf250da86d5e863c8be204e7bd193c935e3367f5f0c625c",
        4: "ebf72ddd762bbb03d6903d3d0a0e10147502c70868055beb55e93ea35e24e734",
        5: "6c76e3eba4585464601d12632d2ff83f5ca4e40b50c1ef106653e0045dd3ab76",
        6: "edd89088bd6e2721d942428409e7738224cae4a1082501844fc24f53cce45eed",
        7: "2549a8dc3fe4dcb6096e363b1f162b3557fa56c8da4941835dca3a9910fb4919",
    },
    (7, 40): {
        0: "1bfe4103d967e1fff0803ace14f718b0bbcbbf20cb3afeb7492f35e27a32aea7",
        1: "9131cca2bfc0ebd2d1340d3e18f18b6a2466e0d7d2b9b7d7ccda82a7c97e7f9e",
        2: "ea4cb8152dc8e116cfc3715cb05b968be90848e55d0d3aaf28af14f93f9dce66",
        3: "2359126bfd010f94c7e628614cd21707bd1932b3af78a99a00218fe48059deba",
        4: "f5be1d5cefb3ed6acd9e1f51effbe150a51b0b7f8769b318812f444bac0a0ee9",
        5: "b5bc5f508614f0602558bda112e0a8096ef773b5539ab304ddfa2e5a12a469d8",
        6: "e2337714c849a15bfd0261ada0390c290640d546035ca388e28b10065bba6c8f",
        7: "a2526343869acc11b31709acaad0505dcddd61faa76c96e08cbbda5852212af3",
    },
}
# one digest over seeds 0-299, seed s with 1 + s % 7 components and at
# most s % 41 crossings
SEEDED_DIAGRAMS_300 = "ba9da3d36d6b9848531f883db0ecbc5c2c751b67b02512873b438a27a04b3c9b"


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def test_seeded_random_diagrams_are_pinned():
    for (components, crossings), digests in SEEDED_DIAGRAMS.items():
        for seed, digest in digests.items():
            d = random_diagram(random.Random(seed), components, crossings)
            assert _digest([dumps(diagram_to_obj(d))]) == digest, (components, crossings, seed)
    texts = (dumps(diagram_to_obj(random_diagram(random.Random(s), 1 + s % 7, s % 41)))
             for s in range(300))
    assert _digest(texts) == SEEDED_DIAGRAMS_300


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


def test_repeated_component_id_is_a_parse_error():
    # read a list at a time when every component has a basepoint, record
    # by record when one has none: either way the repeat is named
    for column in (True, False):
        obj = diagram_to_obj(catalog.hopf_link())
        obj["components"][1]["id"] = 0
        if not column:
            del obj["components"][1]["basepoint"]
        row, width = jsonio._RECORDS[0][3], len(jsonio._RECORDS[0][4])
        assert (jsonio._int_rows(obj["components"], row, width) is not None) == column
        with pytest.raises(FormatError) as err:
            diagram_from_obj(obj)
        assert str(err.value) == "duplicate component id 0"


def test_diagram_big_framing():
    d = catalog.unknot(10 ** 30)
    obj = diagram_to_obj(d)
    assert obj["components"][0]["framing"] == str(10 ** 30)
    assert diagram_from_obj(obj).components[0].framing == 10 ** 30


# -- reading records a list at a time ----------------------------------------

def _read(obj):
    """The diagram diagram_from_obj reads from obj, or its FormatError text."""
    try:
        return diagram_from_obj(obj)
    except FormatError as e:
        return str(e)


def _link_mutants(obj, rng):
    """JSON-level mutants of a link object, each on its own copy."""
    kinds = [kind for kind in ("components", "arcs", "crossings") if obj[kind]]
    edits = [lambda rec, v=v: rec.__setitem__(rng.choice(sorted(rec)), v)
             for v in (True, 1.5, None, "7", str(2 ** 70), [1])]
    edits += [lambda rec: rec.pop(rng.choice(sorted(rec))), lambda rec: rec.update(extra=0)]
    for kind in kinds:
        for edit in edits:
            m = json.loads(json.dumps(obj))
            edit(rng.choice(m[kind]))
            yield m
        m = json.loads(json.dumps(obj))
        i = rng.randrange(len(m[kind]))
        m[kind][i] = list(m[kind][i].values())
        yield m
        m = json.loads(json.dumps(obj))
        m[kind] = {str(i): rec for i, rec in enumerate(m[kind])}
        yield m
        if len(obj[kind]) > 1:
            m = json.loads(json.dumps(obj))
            i, j = sorted(rng.sample(range(len(m[kind])), 2))
            m[kind][j]["id"] = m[kind][i]["id"]
            yield m


def test_column_reader_matches_the_record_loop(monkeypatch):
    rng = random.Random(15)
    for s in range(300):
        obj = diagram_to_obj(random_diagram(random.Random(s), 1 + s % 7, s % 41))
        for key, _, _, row, labels in jsonio._RECORDS:
            assert jsonio._int_rows(obj[key], row, len(labels)) is not None
        for m in [obj, *_link_mutants(obj, rng)]:
            outcome = _read(m)
            with monkeypatch.context() as loop_only:
                loop_only.setattr(jsonio, "_int_rows", lambda recs, row, width: None)
                assert _read(m) == outcome, (s, m)


@pytest.mark.parametrize("kind, field, bad, message", [
    ("arcs", "next", True, "arc successor must be an integer, got a boolean"),
    ("crossings", "sign", 1.5, "sign must be an integer or decimal string, got 1.5"),
])
def test_first_fault_in_list_order_is_named(kind, field, bad, message):
    for dup, fault in ((3, 5), (5, 3)):        # the record holding a duplicate id, a bad field
        obj = diagram_to_obj(catalog.e8_link())
        recs = obj[kind]
        recs[dup]["id"], recs[fault][field] = recs[0]["id"], bad
        with pytest.raises(FormatError) as err:
            diagram_from_obj(obj)
        assert str(err.value) == (message if fault < dup else
                                  "duplicate %s id %d" % (kind[:-1], recs[0]["id"]))


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
    for n in (-1, "-1"):
        with pytest.raises(FormatError) as err:
            lattice_from_obj({"n": n, "entries": []})
        assert str(err.value) == "matrix dimension must be non-negative, got -1"


def test_lattice_rows_at_the_64_bit_edges_match_the_entry_encoding():
    edges = [2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63), 2 ** 63, -(2 ** 63) - 1, 2 ** 64]
    n = len(edges) + 1
    A = [[0] * n for _ in range(n)]
    for i, v in enumerate(edges):
        A[i][i + 1] = A[i + 1][i] = A[i][i] = v
    L = IntegralLattice(A)
    obj = lattice_to_obj(L)
    assert obj == {"n": n, "entries": [[encode_int(x) for x in row] for row in A]}
    obj["entries"][0][0] = 7  # the written rows are copies
    assert L.entries[0][0] == 2 ** 63 - 1


def _matrix_mutants(obj, rng):
    """(mutant, the FormatError text it must give or None) for a square matrix object."""
    n = obj["n"]

    def copy():
        return json.loads(json.dumps(obj))

    i, j = rng.randrange(n), rng.randrange(n)
    for v, text in ((True, "matrix entry must be an integer, got a boolean"),
                    (1.5, "matrix entry must be an integer or decimal string, got 1.5"),
                    ("x1", "matrix entry must be an integer or decimal string, got 'x1'")):
        m = copy()
        m["entries"][i][j] = v
        yield m, text
    m = copy()
    m["entries"][i][j] = str(m["entries"][i][j])
    m["entries"][j][i] = str(m["entries"][j][i])
    yield m, None
    m = copy()
    m["entries"][i].pop()
    yield m, "matrix rows must each have %d entries" % n
    m = copy()
    m["n"] += 1
    yield m, "matrix entries must be a list of %d rows" % (n + 1)
    if n > 1:
        i, j = sorted(rng.sample(range(n), 2))
        m = copy()
        m["entries"][j][i] = m["entries"][i][j] + 1
        yield m, "matrix is not symmetric at (%d, %d)" % (i, j)


def test_matrix_rows_read_whole_or_by_entry_alike(tmp_path, capsys):
    # a row of exact ints is taken whole; the same row with its entries as
    # decimal strings goes through decode_int: both give the same lattice,
    # exit code and error text, on seeded matrices and their mutants
    rng = random.Random(1721)
    path = tmp_path / "m.json"

    def run(obj):
        path.write_text(json.dumps(obj))
        code = main(["lattice", str(path), "--json"])
        out = capsys.readouterr()
        return code, out.out and json.loads(out.out)["result"], out.err

    def by_entry(obj):
        m = json.loads(json.dumps(obj))
        if isinstance(m["entries"], list):
            m["entries"] = [[str(x) if type(x) is int else x for x in row]
                            for row in m["entries"]]
        return m

    for t in range(60):
        n = rng.randint(1, 7)
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = rng.choice((rng.randint(-9, 9), 2 ** 63, -(2 ** 70)))
        obj = {"n": n, "entries": A}
        for m, text in [(obj, None), *_matrix_mutants(obj, rng)]:
            for form in (m, by_entry(m)):
                if text is None:
                    assert lattice_from_obj(form) == IntegralLattice(A)
                else:
                    with pytest.raises(FormatError) as err:
                        lattice_from_obj(form)
                    assert str(err.value) == text, (t, m)
            code, out, err = run(m)
            assert run(by_entry(m)) == (code, out, err)
            assert (code, err) == ((0, "") if text is None else (2, "error: %s\n" % text))


# -- moves -------------------------------------------------------------------

def test_move_round_trips():
    moves = [
        GadgetSwitch(crossing=3, unknot=5, side="before"),
        SlideOverUnknot(component=0, unknot=2, s=-1),
        Poke(over=0, under=1, sign=-1),
    ]
    for mv in moves:
        assert move_from_obj(move_to_obj(mv)) == mv


def test_move_rejects_unknown_type_and_keys():
    with pytest.raises(FormatError, match="unknown move type"):
        move_from_obj({"type": "twist"})
    # tags of matrix-only moves, whose diagram rewrites could present
    # another 3-manifold: no script can name them
    for obj in ({"type": "matrix_slide", "i": 1, "j": 0, "s": 1},
                {"type": "blow_down_index", "k": 0},
                {"type": "add_split_unknot", "framing": 1}):
        with pytest.raises(FormatError, match="^unknown move type '%s'$" % obj["type"]):
            move_from_obj(obj)
    with pytest.raises(FormatError, match="unknown keys"):
        move_from_obj({"type": "poke", "over": 0, "under": 1, "sign": 1, "x": 1})
    with pytest.raises(FormatError, match="type"):
        move_from_obj([1, 2])
    with pytest.raises(FormatError, match="unknown move type"):
        move_from_obj({"type": ["poke"]})
    with pytest.raises(FormatError, match="poke is missing keys"):
        move_from_obj({"type": "poke", "over": 0, "under": 1})
    with pytest.raises(FormatError, match="sign must be an integer"):
        move_from_obj({"type": "poke", "over": 0, "under": 1, "sign": "x"})


@pytest.mark.parametrize("side", [["before"], True, 5, None, {}])
def test_move_rejects_a_side_that_is_not_a_string(side):
    obj = {"type": "gadget_switch", "crossing": 3, "unknot": 5, "side": side}
    with pytest.raises(FormatError, match="^side must be a string, got "):
        move_from_obj(obj)


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


@pytest.mark.parametrize("alias, cid", [("01", 1), ("-0", 0), ("000", 0)])
def test_certificate_rejects_two_sublink_keys_naming_one_id(alias, cid):
    # a later key that decodes to an earlier key's id must not overwrite it
    obj = certificate_to_obj(build_embedding_certificate(catalog.hopf_link()))
    obj["sublink"][alias] = 1 - cid
    with pytest.raises(FormatError, match="^duplicate sublink key %d %s$"
                                          % (cid, re.escape("(%r)" % alias))):
        certificate_from_obj(obj)


@pytest.mark.parametrize("key, value, message", [
    ("sublink", [[0, 0]], "sublink must be an object"),
    ("moves", {"0": {"type": "poke"}}, "moves must be a list")])
def test_certificate_rejects_a_sublink_or_moves_of_the_wrong_type(key, value, message):
    obj = certificate_to_obj(build_embedding_certificate(catalog.unknot(1)))
    obj[key] = value
    with pytest.raises(FormatError, match="^%s$" % message):
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


# -- the writer against json.dumps -------------------------------------------

def _reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=None)
def _seeded_records():
    """300 seeded diagrams and their certificates."""
    out = []
    for s in range(300):
        d = random_diagram(random.Random(s), 1 + s % 7, s % 41)
        cert = build_embedding_certificate(d, auto_unknotify=True)
        out += [diagram_to_obj(d), certificate_to_obj(cert)]
    return tuple(out)


_EDGE_CASES = [
    {}, [], (), None, True, False, 0, -1, 1.5, 2.0 ** 70, float("nan"), "",
    {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    [[[]]], [{}], (1, (2, 3), []), {"t": (1, 2), "u": ()},
    {"big": encode_int(2 ** 70), "neg": encode_int(-(2 ** 64)), "small": encode_int(2 ** 63 - 1)},
    [2 ** 64, -(2 ** 100), 2 ** 63 - 1],
    {"café": "über \U0001f600", "esc": "tab\tnl\nquote\"back\\slash\x00"},
    [" ", "\x7f", "/"],
    {"b": 1, "a": None, "c": [True, False, None, 0.1, -0.0]},
    {"z": {"y": {"x": [1, {"w": "v"}]}}, "a": 1},
    {1: "int key", 0: 2}, {"outer": {2: 3, 1: [1]}}, [{None: 1}], {True: [1], 2.5: {}},
    # lists of int records, written with one % format, and near misses
    [{"b": 1, "a": -2}, {"a": 3, "b": 4}, {"b": 0, "a": 0}],
    {"arcs": [{"id": 0, "component": 0, "next": 1}, {"id": 1, "component": 0, "next": 0}]},
    {"a": {"b": {"c": [{"x": 1, "y": 2}, {"y": 3, "x": 4}]}}},
    [{"100%": 1, "%d": 2, "%%s": 3}, {"100%": 4, "%d": 5, "%%s": 6}],
    [{"caf\u00e9": 1, "\U0001f600": 2, "q\"\\": 3}, {"caf\u00e9": 4, "\U0001f600": 5, "q\"\\": 6}],
    [{"a": True, "b": 1}, {"a": 2, "b": False}], [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    [{"a": 1, "b": 2}], [{"a": 1}, {"a": 2}], [{}, {}], ({"a": 1, "b": 2}, {"a": 3, "b": 4}),
    [{"a": 2 ** 70, "b": -(2 ** 100)}, {"a": 2 ** 63, "b": -(2 ** 63) - 1}],
    [{"a": 1, "b": "2"}, {"a": 3, "b": 4}], [{"a": 1, "b": 2}, {"a": 1.0, "b": 2}],
    [{"a": 1, "b": 2}, {"a": 3, "b": 4}, [5]], [{1: 1, 2: 2}, {1: 3, 2: 4}],
]


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
def test_dumps_matches_json_dumps(c_encoder, monkeypatch):
    if not c_encoder:
        monkeypatch.setattr(jsonio, "make_encoder", None)
    for obj in _seeded_records() + tuple(_EDGE_CASES):
        assert dumps(obj) == _reference(obj), obj


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
def test_dumps_matches_json_dumps_on_every_report(c_encoder, monkeypatch, tmp_path, capsys):
    from surgerykit.cli import main
    if not c_encoder:
        monkeypatch.setattr(jsonio, "make_encoder", None)
    link = tmp_path / "link.json"
    jsonio.save_path(str(link), diagram_to_obj(catalog.hopf_link((1, 1))))
    knot = tmp_path / "knot.json"
    jsonio.save_path(str(knot), diagram_to_obj(catalog.trefoil(-1)))
    matrix = tmp_path / "matrix.json"
    jsonio.save_path(str(matrix), lattice_to_obj(IntegralLattice([[2, 1], [1, 3]])))
    cert = tmp_path / "cert.json"
    commands = [["invariants", str(link)], ["lattice", str(matrix)],
                ["unknotify", str(knot)], ["certify-embedding", str(link), "-o", str(cert)],
                ["verify", str(cert)], ["obstruction", str(matrix)], ["word", "[[1, 1], [1, -1]]"]]
    for argv in commands:
        assert main(argv + ["--json"]) == 0, argv
        out = capsys.readouterr().out
        report = json.loads(out)
        assert isinstance(report["elapsed_s"], float)
        assert out == _reference(report) == dumps(report), argv
    assert cert.read_text() == _reference(json.loads(cert.read_text()))


def test_dumps_without_c_encoder_takes_json_dumps(monkeypatch):
    monkeypatch.setattr(jsonio, "make_encoder", None)
    monkeypatch.setattr(jsonio, "_encode", None)
    obj = diagram_to_obj(catalog.trefoil(1))
    assert dumps(obj) == _reference(obj)


# -- the reader against json.loads ------------------------------------------

# Each text is read in a fresh `python -I -S` that has not imported json, as
# a cold CLI command reads it: on Python 3.10 and 3.11 the C scanner's errors
# differ until json.decoder is loaded.  With "no-c", `_json`, `_hashlib` and
# the interpreter's own SHA-256 (`_sha256`, `_sha2`) cannot be imported, and
# the child's own json.loads (pure Python) is the reference; hashlib is loaded
# first, while it can still find a SHA-256, so the digest is that of jsonio's
# last fallback, `from hashlib import sha256`.  The child prints, per text,
# ("ok", repr(value)) or ("err", exception type, message), then the SHA-256
# of b"surgerykit" and one dumps.
_LOADS = """
import marshal, sys
if sys.argv[2] == "no-c":
    import hashlib
    for name in ("_json", "_hashlib", "_sha256", "_sha2"):
        sys.modules[name] = None
sys.path.insert(0, sys.argv[1])
from surgerykit import jsonio

def outcomes(read):
    out = []
    for text in texts:
        try:
            out.append(("ok", repr(read(text))))
        except Exception as e:
            out.append(("err", type(e).__name__, str(e)))
    return out

texts = marshal.loads(sys.stdin.buffer.read())
assert "json" not in sys.modules
out = outcomes(jsonio.loads)
digest = jsonio.sha256(b"surgerykit").hexdigest()
if sys.argv[2] == "no-c":
    import json
    assert jsonio.make_encoder is None and json.scanner.make_scanner is json.scanner.py_make_scanner
    assert jsonio.sha256 is hashlib.sha256
    out += outcomes(json.loads)
sys.stdout.buffer.write(marshal.dumps(out + [digest,
                                             jsonio.dumps({"b": [1, {"c": None}], "a": "\\u00e9"})]))
"""


def _outcome(read, text):
    try:
        return ("ok", repr(read(text)))
    except Exception as e:
        return ("err", type(e).__name__, str(e))


def _loads_corpus():
    """Edge cases, then 3,000 seeded mutants of link, certificate and matrix files."""
    texts = [
        '{"a" 1}',  # first: an error before json.decoder is loaded
        "", "\ufeff", "\ufeff[1]", " \ufeff1", "\x0b1", "1\x0b", "\x0c[1]", "[1]\x0c",
        " \t\n\r[1, 2] \t\n\r", " \t\n\r", "\t{}\n", "[1] [2]", "1 2", "{} x", "[1]]",
        "NaN", "-NaN", "[Infinity, -Infinity, NaN]", "1e999", "-1e999", "1E-999", "Infinity1",
        "[" * 100000, "[" * 100000 + "]" * 100000, "[" * 500 + "]" * 500,
        "9" * 5000, "-" + "9" * 5000, "0." + "9" * 5000, "9" * 4300, "1" + "0" * 4300,
        '"\\ud800"', '"\\udc00x"', '"\\ud83d\\ude00"', '"\ud800"', '"a\x01b"', '"\\u12"', '"\\q"',
        '"', '"abc', '{"a": 1, "a": 2}', '{"a": {"b": 1}, "a": [2]}', '{"a":1,}', "[1,]",
        "[,1]", "{,}", "01", "-", "-0", "1.", ".5", "1e", "tru", "nul", "true", "null", "false",
        "{}", "[]", '{"x": 1 "y": 2}', "{1: 2}", "[1 2]", "\xa01", "\u20281",
    ]
    d = catalog.trefoil(-1)
    bases = [dumps(diagram_to_obj(d)), dumps(diagram_to_obj(catalog.chain_link([2, -3, 5]))),
             dumps(certificate_to_obj(build_embedding_certificate(d, auto_unknotify=True))),
             dumps(certificate_to_obj(build_embedding_certificate(catalog.hopf_link((1, 1))))),
             dumps(lattice_to_obj(IntegralLattice([[2, 1], [1, 3]]))),
             dumps(lattice_to_obj(IntegralLattice.diagonal([2 ** 70, -1, 1])))]
    rng = random.Random("loads")
    for i in range(3000):
        t = bases[i % len(bases)]
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(t) + 1)
            op = rng.randrange(3)
            if op == 0:
                t = t[:at] + t[at + rng.randint(1, 3):]
            elif op == 1:
                t = t[:at] + rng.choice('[]{},:"\\ -+.0eE\t\x0b\ufeffNI') + t[at:]
            else:
                t = t[:at]
        texts.append(t)
    return texts


@pytest.mark.parametrize("c_scanner", [True, False], ids=["c-scanner", "no-c-scanner"])
def test_loads_matches_json_loads(c_scanner):
    texts = _loads_corpus()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _LOADS, src,
                           "c" if c_scanner else "no-c"], input=marshal.dumps(texts),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    *got, digest, written = marshal.loads(proc.stdout)
    assert digest == hashlib.sha256(b"surgerykit").hexdigest()
    assert written == _reference({"b": [1, {"c": None}], "a": "\u00e9"})
    if c_scanner:
        want = [_outcome(json.loads, text) for text in texts]
    else:
        got, want = got[:len(texts)], got[len(texts):]
    assert len(got) == len(want) == len(texts) > 3000
    for text, g, w in zip(texts, got, want):
        assert g == w, text[:200]
    kinds = {w[0] if w[0] == "ok" else w[1] for w in want}
    assert {"ok", "JSONDecodeError", "RecursionError", "ValueError"} <= kinds, kinds


# -- input digests ------------------------------------------------------------

# A fresh `python -I -S` hashes the inputs it is sent, in order, and prints per
# input its digest and whether OpenSSL's `_hashlib` is loaded after it.
_SHA256 = """
import marshal, sys
sys.path.insert(0, sys.argv[1])
from surgerykit import jsonio
out = []
for raw in marshal.loads(sys.stdin.buffer.read()):
    out.append((jsonio.sha256(raw).hexdigest(), "_hashlib" in sys.modules))
sys.stdout.buffer.write(marshal.dumps(out))
"""


@pytest.mark.parametrize("sizes, openssl", [
    ([0, 1, 4096, (1 << 19) - 4097, 1, 1 << 20], [False] * 4 + [True] * 2),
    ([1 << 19], [False]),
    ([(1 << 19) + 1, 7], [True, True]),
], ids=["running-total", "one-at-the-limit", "one-over-the-limit"])
def test_sha256_takes_openssl_once_512_kib_are_hashed(sizes, openssl):
    # The builtin hashes while the process's total, this input included, is
    # at most 1 << 19 bytes; the input that passes it loads _hashlib.
    rng = random.Random("sha256")
    inputs = [rng.randbytes(n) for n in sizes]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _SHA256, src],
                          input=marshal.dumps(inputs), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    got = marshal.loads(proc.stdout)
    assert [digest for digest, _ in got] == [hashlib.sha256(raw).hexdigest() for raw in inputs]
    assert [loaded for _, loaded in got] == openssl


# -- record keys -------------------------------------------------------------

def _component_link(**rec):
    return {"components": [rec], "arcs": [], "crossings": []}


@pytest.mark.parametrize("obj, message", [
    (_component_link(id=0, framing=1, basepoint=0, color="red", z=1),
     "component has unknown keys ['color', 'z']"),
    (_component_link(id=0, basepoint=0, color=1), "component has unknown keys ['color']"),
    (_component_link(id=0, basepoint=0), "component is missing keys ['framing']"),
    ({"components": [], "arcs": [{"id": 0, "next": 0}]}, "arc is missing keys ['component']"),
    ({"components": [], "crossings": [{"id": 0, "sign": 1, "over_in": 0}]},
     "crossing is missing keys ['over_out', 'under_in', 'under_out']"),
    ({"arcs": []}, "link is missing keys ['components']"),
    ({"components": [], "zzz": 1}, "link has unknown keys ['zzz']"),
    ({"components": [5]}, "component must be an object, got int"),
    ({"components": [], "arcs": [[0]]}, "arc must be an object, got list"),
    ([], "link must be an object, got list"),
])
def test_record_key_errors_keep_their_text(obj, message):
    with pytest.raises(FormatError) as err:
        diagram_from_obj(obj)
    assert str(err.value) == message


def test_record_key_errors_of_moves_matrices_and_certificates():
    cases = [
        (move_from_obj, {"type": "poke", "a": 0}, "poke has unknown keys ['a']"),
        (move_from_obj, {"type": "gadget_switch", "crossing": 0, "side": "L", "unknot": 1,
                         "extra": 2}, "gadget_switch has unknown keys ['extra']"),
        (lattice_from_obj, {"n": 1}, "matrix is missing keys ['entries']"),
        (lattice_from_obj, {"n": 1, "entries": [[1]], "x": 0}, "matrix has unknown keys ['x']"),
        (lattice_from_obj, "s", "matrix must be an object, got str"),
        (certificate_from_obj, {"m": 1},
         "certificate is missing keys ['initial', 'moves', 'n', 'p', 'sublink', 'target']"),
        (certificate_from_obj, 3, "certificate must be an object, got int"),
    ]
    for parse, obj, message in cases:
        with pytest.raises(FormatError) as err:
            parse(obj)
        assert str(err.value) == message


def test_component_basepoint_is_optional():
    for rec in ({"id": 0, "framing": 1}, {"id": 0, "framing": 1, "basepoint": 0}):
        obj = diagram_to_obj(catalog.unknot(1))
        obj["components"] = [rec]
        d = diagram_from_obj(obj)
        assert d.components[0].basepoint == rec.get("basepoint")
        assert diagram_to_obj(d)["components"] == [rec]
