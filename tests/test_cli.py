import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import e8_sum, random_diagram, random_symmetric, scrambled
from surgerykit import calculus, catalog, cli, intlattice, jsonio, linkdiag
from surgerykit.cli import main
from surgerykit.intlattice import IntegralLattice, e8_matrix


def _write_link(tmp_path, d, name="link.json"):
    p = tmp_path / name
    jsonio.save_path(str(p), jsonio.diagram_to_obj(d))
    return str(p)


def _write_matrix(tmp_path, L, name="matrix.json"):
    p = tmp_path / name
    jsonio.save_path(str(p), jsonio.lattice_to_obj(L))
    return str(p)


def _run_json(capsys, argv):
    code = main(argv + ["--json"])
    rep = json.loads(capsys.readouterr().out)
    return code, rep


# -- invariants / lattice ----------------------------------------------------

def test_invariants_text_output(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.unknot(5))
    assert main(["invariants", path]) == 0
    out = capsys.readouterr().out
    assert "Z/5" in out and "det" in out


def test_invariants_json_report(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.hopf_link((0, 0)))
    code, rep = _run_json(capsys, ["invariants", path])
    assert code == 0
    assert rep["command"] == "invariants"
    assert path in rep["inputs"] and len(rep["inputs"][path]) == 64
    assert rep["result"]["det"] == -1
    assert rep["result"]["homology"]["pretty"] == "0"
    assert isinstance(rep["elapsed_s"], float)


def test_lattice_command(tmp_path, capsys):
    path = _write_matrix(tmp_path, IntegralLattice.diagonal([2, 3]))
    code, rep = _run_json(capsys, ["lattice", path])
    assert code == 0
    assert rep["result"]["snf_diagonal"] == [1, 6]
    assert rep["result"]["homology"]["pretty"] == "Z/6"


def test_lattice_reports_diagonalizability(tmp_path, capsys):
    path = _write_matrix(tmp_path, e8_matrix())
    code, rep = _run_json(capsys, ["lattice", path])
    assert code == 0
    assert rep["result"]["unimodular"] is True
    assert rep["result"]["diagonalizable_over_Z"] is False


def test_lattice_and_obstruction_text_output(tmp_path, capsys):
    path = _write_matrix(tmp_path, e8_matrix())
    assert main(["lattice", path]) == 0
    assert "diag/Z     : False (split 0, residual rank 8)\n" in capsys.readouterr().out
    assert main(["obstruction", path]) == 0
    assert capsys.readouterr().out == ("positive definite : True\n"
                                       "unimodular        : True\n"
                                       "diagonalizable/Z  : False\n"
                                       "verdict           : OBSTRUCTED\n")


def test_even_forms_skip_the_norm_one_search(tmp_path, capsys):
    # E8^6 after 400 seeded slides: every vector of an even form has even
    # norm, so both commands answer without a short-vector search
    path = _write_matrix(tmp_path, scrambled(e8_sum(6, 0), 400, random.Random("p6")))
    start = time.perf_counter()
    code, rep = _run_json(capsys, ["obstruction", path])
    assert (code, rep["result"]["verdict"]) == (0, "OBSTRUCTED")
    code, rep = _run_json(capsys, ["lattice", path])
    assert code == 0 and rep["result"]["det"] == 1
    assert (rep["result"]["diagonalizable_over_Z"], rep["result"]["diagonal_part"],
            rep["result"]["residual_rank"]) == (False, 0, 48)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("s", range(5))
def test_odd_e8_sums_split_off_their_unit_within_a_second(tmp_path, capsys, s):
    # E8^6 + I_1 after 400 seeded slides: a search on the delta = 3/4 basis
    # ran past 10 s on each of these; splitting finds the one unit
    path = _write_matrix(tmp_path, scrambled(e8_sum(6, 1), 400, random.Random("p6-%d" % s)))
    for command, want in (("obstruction", ("verdict", "OBSTRUCTED")), ("lattice", ("diagonal_part", 1))):
        start = time.perf_counter()
        code, rep = _run_json(capsys, [command, path])
        assert time.perf_counter() - start < 1.0
        assert (code, rep["result"][want[0]]) == (0, want[1])


# -- unknotify ---------------------------------------------------------------

def test_unknotify_writes_descending_link(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.trefoil(-1))
    out = str(tmp_path / "out.json")
    code, rep = _run_json(capsys, ["unknotify", path, "-o", out])
    assert code == 0
    assert rep["result"]["p"] == 1
    d2 = jsonio.diagram_from_obj(jsonio.load_path(out))
    assert linkdiag.descending_switch_set(d2, self_only=True) == set()


def test_unknotify_over_its_input_reports_the_digest_of_the_input(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.trefoil(2), name="k.json")
    with open(path, "rb") as fh:
        before = fh.read()
    code, rep = _run_json(capsys, ["unknotify", path, "-o", path])
    with open(path, "rb") as fh:
        after = fh.read()
    assert code == 0 and rep["result"]["p"] == 1 and after != before
    assert rep["inputs"] == {path: hashlib.sha256(before).hexdigest()}


def test_unknotify_respects_order(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.hopf_link((0, 0)))
    code, rep = _run_json(capsys, ["unknotify", path, "--unlink",
                                   "--order", "1,0"])
    assert code == 0
    assert rep["result"]["p"] == 1


def test_unknotify_writes_ids_past_64_bits_back_as_read(tmp_path, capsys):
    # ids are written as plain JSON integers of any size; only framings,
    # entries, invariants and move fields past 64 bits become strings
    big = 2 ** 70
    d = catalog.trefoil(0)
    shifted = linkdiag.FramedLinkDiagram(
        components={k + big: linkdiag.Component(c.framing, c.basepoint + big)
                    for k, c in d.components.items()},
        arcs={a + big: linkdiag.Arc(v.owner + big, v.successor + big)
              for a, v in d.arcs.items()},
        crossings={x + big: linkdiag.Crossing(*(a + big for a in c.arc_ids()), c.sign)
                   for x, c in d.crossings.items()})
    path = _write_link(tmp_path, shifted)
    out = str(tmp_path / "out.json")
    code, rep = _run_json(capsys, ["unknotify", path, "-o", out])
    assert code == 0 and rep["result"]["p"] == 1
    with open(out) as fh:
        assert '"component": %d,' % big in fh.read()
    d2 = jsonio.diagram_from_obj(jsonio.load_path(out))
    assert d2.components[big].basepoint == shifted.components[big].basepoint
    assert all(d2.arcs[a].owner == big for a in shifted.arcs)
    assert shifted.crossings.keys() <= d2.crossings.keys()


def test_unknotify_bad_order_is_usage_error(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.hopf_link())
    # every id is ASCII decimal, as in the JSON files: int() would read
    # "0_0" and the Arabic-Indic one as 0 and 1
    for order in ("0,zap", "1,0_0", "\u0661,0"):
        assert main(["unknotify", path, "--order", order]) == 2
        assert capsys.readouterr().err == (
            "error: --order expects a comma-separated list of component ids\n")
    for order in ("1, 0", "1,,0"):
        assert main(["unknotify", path, "--order", order]) == 0


def test_unknotify_order_of_negative_ids_takes_the_equals_form(tmp_path, capsys):
    # argparse reads a separate "-2,-1" as an option, so a negative first
    # id is given as --order=-2,-1
    obj = jsonio.diagram_to_obj(catalog.hopf_link())
    for comp in obj["components"]:
        comp["id"] = -1 - comp["id"]
    for arc in obj["arcs"]:
        arc["component"] = -1 - arc["component"]
    neg = str(tmp_path / "neg.json")
    jsonio.save_path(neg, obj)
    path = _write_link(tmp_path, catalog.hopf_link())
    for extra in ([], ["--unlink"]):
        code, want = _run_json(capsys, ["unknotify", path, "--order", "1,0"] + extra)
        assert code == 0
        code, got = _run_json(capsys, ["unknotify", neg, "--order=-2,-1"] + extra)
        assert code == 0
        assert got["result"]["p"] == want["result"]["p"]
    assert want["result"]["p"] == 1
    with pytest.raises(SystemExit) as e:
        main(["unknotify", neg, "--order", "-2,-1"])
    assert e.value.code == 2
    assert "argument --order: expected one argument" in capsys.readouterr().err


# -- certify-embedding / verify ----------------------------------------------

def test_certify_then_verify(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.chain_link([2, -3, 5]))
    cert_path = str(tmp_path / "cert.json")
    code, rep = _run_json(capsys, ["certify-embedding", path, "-o", cert_path])
    assert code == 0
    assert rep["result"]["p"] == 2
    code, rep = _run_json(capsys, ["verify", cert_path])
    assert code == 0
    assert rep["result"]["verdict"] == "PASS"
    assert all(c["ok"] for c in rep["result"]["checks"])


def test_certify_needs_auto_for_knotted_input(tmp_path):
    path = _write_link(tmp_path, catalog.trefoil(1))
    assert main(["certify-embedding", path]) == 2
    assert main(["certify-embedding", path, "--auto-unknotify"]) == 0


def test_certify_pad_positive(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.unlink([-1]))
    code, rep = _run_json(capsys, ["certify-embedding", path, "--pad-positive"])
    assert code == 0
    assert rep["result"]["m"] > 0 and rep["result"]["n"] > 0


def test_verify_tampered_certificate_exits_one(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.hopf_link((4, 4)))
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    obj = jsonio.load_path(cert_path)
    obj["target"]["components"][0]["framing"] = 9
    jsonio.save_path(cert_path, obj)
    code, rep = _run_json(capsys, ["verify", cert_path])
    assert code == 1
    assert rep["result"]["verdict"] == "FAIL"
    assert main(["verify", cert_path]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "FAIL  sublink linking matrix equals target -- sublink matrix [[4, 1], [1, 4]], "
        "target matrix [[9, 1], [1, 4]]",
        "verdict: FAIL"]


def test_verify_move_that_is_not_a_kirby_move_exits_two(tmp_path, capsys):
    # a split-unknot move would attach a 2-handle the certificate does not
    # count; its tag is no move at all, so the file is refused unread
    path = _write_link(tmp_path, catalog.hopf_link())
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    obj = jsonio.load_path(cert_path)
    obj["moves"].insert(0, {"type": "add_split_unknot", "framing": 1})
    jsonio.save_path(cert_path, obj)
    for json_flag in ([], ["--json"]):
        assert main(["verify", cert_path] + json_flag) == 2
        assert capsys.readouterr() == ("", "error: unknown move type 'add_split_unknot'\n")


def test_verify_unknown_switch_crossing_exits_one(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.hopf_link((1, -1)))
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    obj = jsonio.load_path(cert_path)
    assert obj["moves"][1]["type"] == "gadget_switch"
    obj["moves"][1]["crossing"] = 99
    jsonio.save_path(cert_path, obj)
    code, rep = _run_json(capsys, ["verify", cert_path])
    assert code == 1
    assert rep["result"]["verdict"] == "FAIL"
    assert [(c["name"], c["detail"]) for c in rep["result"]["checks"] if not c["ok"]] == [
        ("script replays", "move 1 (GadgetSwitch): unknown crossing id 99")]


def test_verify_sublink_key_that_is_no_target_id_exits_one(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.hopf_link((1, -1)))
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    obj = jsonio.load_path(cert_path)
    obj["sublink"]["7"] = 0
    jsonio.save_path(cert_path, obj)
    assert main(["verify", cert_path]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "FAIL  sublink designates distinct final components -- sublink map "
        "{0: 0, 1: 1, 7: 0} does not inject target components into the final diagram",
        "verdict: FAIL"]


def test_verify_sublink_keys_naming_one_id_exit_two(tmp_path, capsys):
    # read as last-key-wins, "01" and "-0" would swap the Hopf link's two
    # components and the certificate would pass
    path = _write_link(tmp_path, catalog.hopf_link())
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    obj = jsonio.load_path(cert_path)
    obj["sublink"] = {"0": 0, "1": 1, "01": 0, "-0": 1}
    with open(cert_path, "w") as fh:  # in this key order, not sorted
        json.dump(obj, fh)
    for json_flag in ([], ["--json"]):
        assert main(["verify", cert_path] + json_flag) == 2
        assert capsys.readouterr() == ("", "error: duplicate sublink key 1 ('01')\n")


@pytest.mark.parametrize("diagram", ["target", "initial"])
def test_verify_repeated_component_id_exits_two(tmp_path, capsys, diagram):
    # a repeated component id is refused as the file is read, as a
    # repeated arc or crossing id is
    path = _write_link(tmp_path, catalog.hopf_link())
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    obj = jsonio.load_path(cert_path)
    assert obj[diagram]["components"][1]["id"] == 1
    obj[diagram]["components"][1]["id"] = 0
    jsonio.save_path(cert_path, obj)
    for json_flag in ([], ["--json"]):
        assert main(["verify", cert_path] + json_flag) == 2
        assert capsys.readouterr() == ("", "error: duplicate component id 0\n")


def test_certify_and_verify_of_a_large_unlink_are_linear(tmp_path, capsys):
    # 8,000 split +/-1 unknots: a dense 8,000 x 8,000 matrix anywhere would
    # take seconds and hundreds of MB
    path = _write_link(tmp_path, catalog.unlink([1, -1] * 4000))
    cert_path = str(tmp_path / "cert.json")
    for argv in (["certify-embedding", path, "-o", cert_path], ["verify", cert_path]):
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.endswith("verdict: PASS\n")


def test_verify_of_many_pokes_on_basepointless_unknots_is_linear(tmp_path, capsys):
    # every poke anchors on both unknots, which have no basepoint: each
    # anchor must not scan the unknot's growing arc set
    initial = catalog.unlink([1, -1])
    for c in initial.components.values():
        c.basepoint = None
    moves = [calculus.Poke(over=t % 2, under=1 - t % 2, sign=1 if t % 3 else -1)
             for t in range(16000)]
    cert = calculus.EmbeddingCertificate(target=catalog.unlink([1, -1]), initial=initial,
                                         moves=moves, sublink={0: 0, 1: 1}, m=1, n=1, p=0)
    cert_path = str(tmp_path / "cert.json")
    jsonio.save_path(cert_path, jsonio.certificate_to_obj(cert))
    start = time.perf_counter()
    assert main(["verify", cert_path]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.endswith("verdict: PASS\n")


@pytest.mark.parametrize("side", [["before"], True, 5, None, {}])
def test_verify_non_string_side_is_exit_two(tmp_path, capsys, side):
    path = _write_link(tmp_path, catalog.hopf_link())
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    obj = jsonio.load_path(cert_path)
    move = next(mv for mv in obj["moves"] if mv["type"] == "gadget_switch")
    move["side"] = side
    jsonio.save_path(cert_path, obj)
    assert main(["verify", cert_path]) == 2
    assert capsys.readouterr().err == "error: side must be a string, got %r\n" % (side,)


def test_wrong_matrix_rule_is_internal_error_exit_three(tmp_path, capsys, monkeypatch):
    # a replay whose matrix rule disagrees with the diagram is a fault of
    # the program: exit 3 with one line on stderr, not the verify-FAIL 1
    path = _write_link(tmp_path, catalog.hopf_link((4, 4)))
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify-embedding", path, "-o", cert_path]) == 0
    capsys.readouterr()
    rule = intlattice._slide_rows

    def off_by_one(A, i, j, s):
        changed = rule(A, i, j, s)
        A[i][i] = A[i].get(i, 0) + 1
        changed[i, i] = changed.get((i, i), 0) + 1
        return changed

    monkeypatch.setattr(intlattice, "_slide_rows", off_by_one)
    assert main(["verify", cert_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: AssertionError: ")
    assert "(SlideOverUnknot)" in err and err.count("\n") == 1


def test_verify_round_trip_random_links(tmp_path, capsys):
    rng = random.Random(401)
    for t in range(8):
        d = random_diagram(rng, max_components=2, max_crossings=5)
        path = _write_link(tmp_path, d, "l%d.json" % t)
        cert_path = str(tmp_path / ("c%d.json" % t))
        code = main(["certify-embedding", path, "--auto-unknotify",
                     "-o", cert_path])
        capsys.readouterr()
        assert code == 0
        assert main(["verify", cert_path]) == 0
        capsys.readouterr()


# -- obstruction -------------------------------------------------------------

def test_obstruction_verdicts(tmp_path, capsys):
    p1 = _write_matrix(tmp_path, e8_matrix(), "e8.json")
    code, rep = _run_json(capsys, ["obstruction", p1])
    assert code == 0 and rep["result"]["verdict"] == "OBSTRUCTED"
    p2 = _write_matrix(tmp_path, IntegralLattice.diagonal([1, 1]), "id.json")
    code, rep = _run_json(capsys, ["obstruction", p2])
    assert code == 0 and rep["result"]["verdict"] == "NOT_OBSTRUCTED"
    p3 = _write_matrix(tmp_path, IntegralLattice([[0]]), "z.json")
    code, rep = _run_json(capsys, ["obstruction", p3])
    assert code == 0 and rep["result"]["verdict"] == "NOT_APPLICABLE"
    # I_2 after one slide, with entries far past the float range
    N = 10 ** 400
    p4 = _write_matrix(tmp_path, IntegralLattice([[1, N], [N, N * N + 1]]), "big.json")
    code, rep = _run_json(capsys, ["obstruction", p4])
    assert code == 0 and rep["result"]["verdict"] == "NOT_OBSTRUCTED"


def test_obstruction_accepts_link_files(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.e8_link())
    code, rep = _run_json(capsys, ["obstruction", path])
    assert code == 0
    assert rep["result"]["verdict"] == "OBSTRUCTED"


# -- word --------------------------------------------------------------------

def test_word_inline(capsys):
    code, rep = _run_json(capsys, ["word", "[[0, 1], [0, -1]]"])
    assert code == 0 and rep["inputs"] == {}
    assert rep["result"]["trivial"] is True
    assert rep["result"]["reduced"] == []


def test_word_file_and_text(tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text("[[0, 1], [1, 1], [0, -1]]")
    assert main(["word", str(p)]) == 0
    out = capsys.readouterr().out
    assert "trivial            : False" in out
    assert "a1" in out


def test_word_report_hashes_a_file_input(tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text("[[0, 1], [1, 1]]")
    code, rep = _run_json(capsys, ["word", str(p)])
    assert code == 0
    assert rep["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()}


def test_word_rejects_garbage():
    assert main(["word", "{"]) == 2
    assert main(["word", "[[0]]"]) == 2
    assert main(["word", "[[0, 2]]"]) == 2
    assert main(["word", "[[%s, 1]]" % ("1" * 5000)]) == 2  # past the digit limit
    assert main(["word", "[" * 100000 + "]" * 100000]) == 2  # past the nesting limit


@pytest.mark.parametrize("name, content", [
    ("bad.json", b"[[0, 1], "),
    ("latin1.json", b"[[0, 1]] \xff"),
    ("nested.json", b"[" * 100000 + b"]" * 100000),
], ids=["truncated", "not_utf8", "too_deep"])
def test_word_reports_an_unreadable_file(tmp_path, capsys, name, content):
    # a file that exists but cannot be read is reported as such, not
    # reparsed as inline JSON
    p = tmp_path / name
    p.write_bytes(content)
    assert main(["word", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read %s: " % p)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_error_positions_count_a_newline_as_one_character(tmp_path, capsys, newline):
    # the file is read as text with universal newlines, as open() reads it
    p = tmp_path / "m.json"
    p.write_bytes(newline.join([b"{", b'  "n": 1,', b'  "entries": [[1]', b"}", b""]))
    assert main(["lattice", str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read %s: Expecting ',' delimiter: line 4 column 1 (char 30)\n" % p)


# -- exit codes and help -----------------------------------------------------

def test_missing_file_is_exit_two(tmp_path):
    assert main(["invariants", str(tmp_path / "nope.json")]) == 2


def test_unwritable_output_is_exit_two(tmp_path, capsys):
    path = _write_link(tmp_path, catalog.hopf_link((1, 1)))
    for cmd in ("unknotify", "certify-embedding"):
        out = str(tmp_path / "missing" / "out.json")
        assert main([cmd, path, "-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s" % out) and err.count("\n") == 1


def test_malformed_link_is_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"components": [{"id": 0, "framing": 0, "junk": 1}]}')
    assert main(["invariants", str(p)]) == 2
    p.write_bytes(b'{"components": "\xff"}')  # not UTF-8
    assert main(["invariants", str(p)]) == 2
    capsys.readouterr()
    # a link field that is not a list
    one = '[{"id": 0, "framing": 0, "basepoint": 0}]'
    for body, key in (('{"components": 1}', "components"),
                      ('{"components": %s, "arcs": null}' % one, "arcs"),
                      ('{"components": %s, "crossings": true}' % one, "crossings")):
        p.write_text(body)
        for cmd in ("invariants", "obstruction", "unknotify", "certify-embedding"):
            assert main([cmd, str(p)]) == 2
            assert capsys.readouterr().err == "error: link %s must be a list\n" % key
    cert = tmp_path / "cert.json"
    assert main(["certify-embedding", _write_link(tmp_path, catalog.hopf_link()),
                 "-o", str(cert)]) == 0
    obj = jsonio.load_path(str(cert))
    obj["target"]["arcs"] = 7
    jsonio.save_path(str(cert), obj)
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 2
    assert capsys.readouterr().err == "error: link arcs must be a list\n"
    # nesting past the parser's recursion limit
    p.write_text("[" * 100000 + "]" * 100000)
    for cmd in ("invariants", "lattice", "obstruction", "unknotify", "certify-embedding",
                "verify"):
        assert main([cmd, str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read %s: maximum recursion depth" % p), err


def test_crossing_naming_missing_arc_is_exit_two(tmp_path, capsys):
    d = catalog.hopf_link()
    d.crossings[0].over_in = 99
    assert main(["invariants", _write_link(tmp_path, d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid diagram: crossing 0 references unknown arcs [99]; ")
    assert "Traceback" not in err


def test_looped_successor_chains_are_rejected_in_linear_time(tmp_path, capsys):
    # component c has arcs 2c -> 2c+1 -> 2c+1: each successor chain stays in
    # its component but never comes back to its start
    n = 20000
    p = tmp_path / "looped.json"
    p.write_text(json.dumps({
        "components": [{"id": c, "framing": 0, "basepoint": 2 * c} for c in range(n)],
        "arcs": [{"id": a, "component": a // 2, "next": a | 1} for a in range(2 * n)],
        "crossings": []}))
    cert = tmp_path / "cert.json"
    for argv in (["invariants", str(p)], ["certify-embedding", str(p), "-o", str(cert)]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid diagram: component 0 arcs are not a single "
                              "successor cycle (2 of 2 reached); component 1 arcs ")
        assert err.count("(2 of 2 reached)") == n
    assert not cert.exists()


def test_non_ascii_digit_framing_is_exit_two(tmp_path, capsys):
    obj = jsonio.diagram_to_obj(catalog.unknot())
    obj["components"][0]["framing"] = "\u00b2"
    p = tmp_path / "link.json"
    jsonio.save_path(str(p), obj)
    assert main(["invariants", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: framing must be an integer or decimal string")
    assert "Traceback" not in err


def test_overlong_framing_is_exit_two(tmp_path, capsys):
    # past Python's 4,300-digit int/str limit, as a string and as a number
    obj = jsonio.diagram_to_obj(catalog.unknot())
    obj["components"][0]["framing"] = "1" * 5000
    p = tmp_path / "link.json"
    jsonio.save_path(str(p), obj)
    assert main(["invariants", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: framing has 5000 digits")
    p.write_text(p.read_text().replace('"%s"' % ("1" * 5000), "1" * 5000))
    assert main(["invariants", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


def test_huge_framing_certify_is_exit_two_at_once(tmp_path, capsys):
    obj = jsonio.diagram_to_obj(catalog.unknot())
    obj["components"][0]["framing"] = "99999999999999999999999"
    p = tmp_path / "link.json"
    jsonio.save_path(str(p), obj)
    start = time.perf_counter()
    assert main(["certify-embedding", str(p), "-o", str(tmp_path / "cert.json")]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == ("error: the framings need 99999999999999999999998 framing-fix unknots, "
                   "over the limit of 2000\n")
    assert not (tmp_path / "cert.json").exists()


def test_overlong_result_is_exit_two(tmp_path, capsys):
    # a result integer past Python's 4,300-digit int/str limit
    link = _write_link(tmp_path, catalog.hopf_link((10 ** 2999, 10 ** 2999)))
    N = 10 ** 2200 + 1
    matrix = _write_matrix(tmp_path, IntegralLattice([[N, 1], [1, N]]))
    for argv in (["invariants", link], ["invariants", link, "--json"], ["lattice", matrix]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: result integer has too many digits")
        assert "Traceback" not in captured.err and captured.out == ""


def test_one_inertia_and_determinant_per_report(tmp_path, capsys, monkeypatch):
    # the report's inertia carries the determinant, and diagonalizable_over_Z
    # takes it from the caller: one elimination of the form per report
    calls = []

    def counting(f):
        def wrapped(M):
            calls.append((f.__name__, M))
            return f(M)
        return wrapped

    monkeypatch.setattr(intlattice, "inertia", counting(intlattice.inertia))
    L = intlattice.direct_sum(e8_matrix(), IntegralLattice.diagonal([1, 1]))
    matrix = _write_matrix(tmp_path, L)
    for command in ("lattice", "obstruction"):
        calls.clear()
        code, _ = _run_json(capsys, [command, matrix])
        assert code == 0
        assert calls == [("inertia", L)]


def test_one_smith_form_per_report(tmp_path, capsys, monkeypatch):
    calls = []
    snf = intlattice.snf_diagonal

    def counting_snf(A, *args):
        calls.append(A)
        return snf(A, *args)

    monkeypatch.setattr(intlattice, "snf_diagonal", counting_snf)
    matrix = _write_matrix(tmp_path, IntegralLattice([[2, 1, 0], [1, 3, 1], [0, 1, 4]]))
    link = _write_link(tmp_path, catalog.hopf_link())
    for argv in (["lattice", matrix], ["invariants", link]):
        calls.clear()
        code, _ = _run_json(capsys, argv)
        assert code == 0 and len(calls) == 1


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


# -- the command table and argparse -----------------------------------------

def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    # a well-formed command builds no parser; an abbreviation builds one
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    link = _write_link(tmp_path, catalog.hopf_link())
    for _ in range(4):
        for argv in (["invariants", link], ["obstruction", link, "--json"], ["lattice", link]):
            main(argv)
    assert calls == []
    assert main(["obstruction", link, "--js"]) == 0
    assert calls == [1]


def _outcome(argv, out_path, capsys):
    """Exit code, report (without elapsed_s), stderr and written file of one call."""
    if os.path.exists(out_path):
        os.remove(out_path)
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    if "--json" in argv and code in (0, 1):
        out = json.loads(out)
        assert isinstance(out.pop("elapsed_s"), float)
    written = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            written = fh.read()
    return code, out, err, written


def test_cached_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    # the same calls give the same outcomes with argparse parsing every argv
    knot = _write_link(tmp_path, catalog.trefoil(-1), "knot.json")
    link = _write_link(tmp_path, catalog.hopf_link((1, 1)))
    out = str(tmp_path / "out.json")
    cert = str(tmp_path / "cert.json")
    assert main(["certify-embedding", link, "-o", cert]) == 0
    capsys.readouterr()
    calls = [
        ["unknotify", knot, "-o", out, "--json"], ["unknotify", knot, "--json"],
        ["unknotify", knot, "-o", out], ["unknotify", knot],
        ["certify-embedding", link, "--pad-positive", "--json"],
        ["certify-embedding", link, "--json"],
        ["certify-embedding", link, "--pad-positive", "-o", out], ["certify-embedding", link],
        ["invariants"], ["verify", cert, "--bogus"], [],
        ["verify", cert, "--json"], ["verify", cert],
    ]
    table = [_outcome(argv, out, capsys) for argv in calls]
    monkeypatch.setattr(cli, "_parse", lambda argv: None)
    assert [_outcome(argv, out, capsys) for argv in calls] == table
    assert [o[0] for o in table] == [0] * 8 + [2, 2, 2, 0, 0]
    assert table[0][3] is not None and table[1][3] is None


# -- golden text reports and help --------------------------------------------

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

# every command in text mode, in the working directory; -o writes out.json
GOLDEN_ARGVS = [
    ["invariants", "chain.json"],
    ["lattice", "e8.json"], ["lattice", "form.json"], ["lattice", "unimodular.json"],
    ["obstruction", "hyperbolic.json"], ["obstruction", "hopf.json"],
    ["obstruction", "e8.json"], ["obstruction", "unimodular.json"],
    ["unknotify", "knot.json"], ["unknotify", "knot.json", "-o", "out.json"],
    ["unknotify", "chain.json", "--unlink", "--order", "2,1,0"],
    ["certify-embedding", "hopf.json"],
    ["certify-embedding", "hopf.json", "-o", "out.json", "--pad-positive"],
    ["certify-embedding", "knot.json", "--auto-unknotify"],
    ["certify-embedding", "knot.json"],
    ["verify", "cert.json"], ["verify", "bad-cert.json"],
    ["word", "[[0, 1], [1, 1], [0, -1]]"], ["word", "word.json"], ["word", "[]"],
    ["lattice", "missing.json"],
]


def golden_outcomes(readouterr) -> dict:
    """Exit code, stdout, stderr and -o file of each golden command, run
    in the working directory on inputs written there from the catalog;
    `readouterr()` returns and clears what the command printed."""
    for name, d in (("knot.json", catalog.trefoil(-1)), ("hopf.json", catalog.hopf_link((4, 4))),
                    ("chain.json", catalog.chain_link([2, -3, 5]))):
        jsonio.save_path(name, jsonio.diagram_to_obj(d))
    for name, L in (("e8.json", e8_matrix()), ("form.json", IntegralLattice.diagonal([2, 3])),
                    ("unimodular.json", IntegralLattice([[1, 1], [1, 2]])),
                    ("hyperbolic.json", IntegralLattice([[0, 1], [1, 0]]))):
        jsonio.save_path(name, jsonio.lattice_to_obj(L))
    cert = jsonio.certificate_to_obj(
        calculus.build_embedding_certificate(catalog.hopf_link((4, 4))))
    jsonio.save_path("cert.json", cert)
    cert["target"]["components"][0]["framing"] = 9
    jsonio.save_path("bad-cert.json", cert)
    with open("word.json", "w") as fh:
        fh.write("[[0, 1], [0, -1]]")
    outcomes = {}
    for argv in GOLDEN_ARGVS:
        if os.path.exists("out.json"):
            os.remove("out.json")
        code = main(argv)
        stdout, stderr = readouterr()
        written = None
        if os.path.exists("out.json"):
            with open("out.json") as fh:
                written = fh.read()
        outcomes[" ".join(argv)] = {"code": code, "stdout": stdout, "stderr": stderr,
                                    "written": written}
    return outcomes


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_text_reports_match_the_golden_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = _golden()["outcomes"]
    got = golden_outcomes(capsys.readouterr)
    assert list(got) == list(want)
    for argv in want:
        assert got[argv] == want[argv], argv


def _exit(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as e:
        parse(argv)
    return (e.value.code,) + tuple(capsys.readouterr())


# usage errors: an unknown or abbreviated command, an unknown option, an
# option before the command, a missing argument, an unknown option or extra
# arguments after the command, an option without its value or with one
# that starts with -, another command's flag, a flag given a value; then a
# subcommand's help.  argparse's texts for these vary with the Python
# version, so they are compared in the running one, not pinned
USAGE_ARGVS = [["bogus", "m.json"], ["lat", "m.json"], ["-x"],
               ["--json", "lattice", "m.json"], ["lattice"],
               ["lattice", "m.json", "--bogus"], ["lattice", "m.json", "x", "y"],
               ["unknotify", "m.json", "--order"], ["unknotify", "m.json", "-o", "-x"],
               ["lattice", "m.json", "--unlink"], ["lattice", "m.json", "--json=1"],
               ["lattice", "-h"]]


def test_help_matches_the_recorded_parser(capsys):
    # the golden file records each subcommand's help and arguments in
    # order; a parser built from that record prints the help and usage
    # errors the real one must print, in the running Python's argparse layout
    spec = _golden()["parser"]
    ref = argparse.ArgumentParser(prog=spec["prog"], description=spec["description"])
    sub = ref.add_subparsers(dest="command")
    for cmd in spec["commands"]:
        p = sub.add_parser(cmd["name"], help=cmd["help"])
        for arg in cmd["arguments"]:
            p.add_argument(*arg["flags"], help=arg["help"],
                           action="store_true" if arg["store_true"] else "store")
    helps = [["--help"]] + [[cmd["name"], "--help"] for cmd in spec["commands"]]
    codes = []
    for argv in helps + USAGE_ARGVS:
        got = _exit(main, argv, capsys)
        assert got == _exit(ref.parse_args, argv, capsys), argv
        codes.append(got[0])
    assert codes == [0] * len(helps) + [2] * (len(USAGE_ARGVS) - 1) + [0]


def test_a_command_is_parsed_once(tmp_path, capsys, monkeypatch):
    # a well-formed argv never reaches argparse; an abbreviation goes to
    # argparse and gives the same report
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: calls.append(self.prog) or parse(self, *a, **k))
    path = _write_matrix(tmp_path, IntegralLattice.diagonal([2, 3]))
    reports = []
    for flag in ("--json", "--js"):
        assert main(["lattice", path, flag]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        assert isinstance(reports[-1].pop("elapsed_s"), float)
        assert bool(calls) == (flag == "--js")
        calls.clear()
    assert reports[0] == reports[1] and reports[0]["result"]["det"] == 6


# tokens of the argvs compared below: paths, "" and the dash forms;
# every flag of every command; spellings only argparse reads
_TOKENS = (["m.json", "dir/out.json", "", "-", "--", "-5"]
           + sorted({f for c in cli._COMMANDS for flags, _, _ in c[4] for f in flags})
           + ["--json", "-o", "--order", "--js", "--output=x", "-ox", "-h", "--bogus"])


def test_table_parse_matches_argparse(capsys):
    # whenever the table takes an argv, argparse's own parser, the one
    # main falls back to, takes it too and sets the same attributes
    ap = cli.build_parser()
    names = [c[0] for c in cli._COMMANDS] + ["bogus"]
    rng = random.Random(20260)
    taken = {}
    for _ in range(100_000):
        argv = [rng.choice(names)] + [rng.choice(_TOKENS) for _ in range(rng.randint(0, 5))]
        ns = cli._parse(argv)
        if ns is None:
            continue
        try:
            args = ap.parse_args(argv)
        except SystemExit:
            pytest.fail("argparse refuses %r: %s" % (argv, capsys.readouterr().err))
        assert vars(args) == vars(ns), argv
        taken[argv[0]] = taken.get(argv[0], 0) + 1
    assert sorted(taken) == sorted(names[:-1]) and sum(taken.values()) > 2_000, taken


def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = _write_matrix(tmp_path, IntegralLattice.diagonal([2, 3]))
    monkeypatch.setattr(sys, "argv", ["surgerykit", "lattice", path, "--json"])
    assert main() == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["command"], rep["result"]["det"]) == ("lattice", 6)
    monkeypatch.setattr(sys, "argv", ["surgerykit", "lattice", path, "--bogus"])
    with pytest.raises(SystemExit) as e:
        main()
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith(
        "surgerykit: error: unrecognized arguments: --bogus\n")


# -- seeded JSON mutants ------------------------------------------------------

# the commands that read each kind of input file, with their options
_READERS = {"link": [["invariants"], ["unknotify"], ["certify-embedding", "--auto-unknotify"],
                     ["obstruction"]],
            "certificate": [["verify"]],
            "matrix": [["lattice"], ["obstruction"]]}


def _mutant_bases():
    """(kind, JSON object) of catalog and random links, their
    --auto-unknotify certificates and matrices of rank <= 8."""
    links = [catalog.unknot(1), catalog.unlink([1, -1]), catalog.hopf_link((1, -1)),
             catalog.chain_link([2, -3, 5]), catalog.trefoil(-1), catalog.e8_link()]
    links += [random_diagram(random.Random(s), 3, 10) for s in range(8)]
    objs = [jsonio.diagram_to_obj(d) for d in links]
    bases = [("link", obj) for obj in objs]
    bases += [("certificate", jsonio.certificate_to_obj(calculus.build_embedding_certificate(
        jsonio.diagram_from_obj(obj), auto_unknotify=True))) for obj in objs]
    rng = random.Random(7)
    forms = [e8_matrix(), IntegralLattice([[0, 1], [1, 0]]), IntegralLattice.diagonal([1, 1, -1])]
    forms += [IntegralLattice(random_symmetric(rng, rng.randint(1, 8), -3, 3)) for _ in range(5)]
    return bases + [("matrix", jsonio.lattice_to_obj(L)) for L in forms]


def _places(obj):
    """(container, key) of every value nested in obj."""
    for k, v in list(obj.items() if isinstance(obj, dict) else enumerate(obj)):
        yield obj, k
        if isinstance(v, (dict, list)):
            yield from _places(v)


def _edit(obj, rng):
    """One edit of a value nested in obj: an int moved by 1 or 2 or negated,
    any value swapped for a bool, float, str, None or list, or deleted."""
    places = list(_places(obj))
    if not places:
        return
    box, key = rng.choice(places)
    ops = ["swap", "delete"] + (["move", "negate"] * 2 if type(box[key]) is int else [])
    op = rng.choice(ops)
    if op == "move":
        box[key] += rng.choice((-2, -1, 1, 2))
    elif op == "negate":
        box[key] = -box[key]
    elif op == "swap":
        box[key] = rng.choice((True, False, 1.5, "x", None, [1]))
    else:
        del box[key]


def test_seeded_mutants_end_in_a_report_or_exit_two(tmp_path, capsys, monkeypatch):
    # every reader of every mutant exits 0 or 1 with a JSON report, or 2
    # with one error line; every other mutant spells --json as --js, which
    # only argparse reads
    t0 = time.monotonic()
    bases, rng = _mutant_bases(), random.Random(20261)
    parsers, checked = [], set()  # argparse fallbacks; records whose keys were checked
    build, check = cli.build_parser, jsonio._check_keys
    monkeypatch.setattr(cli, "build_parser", lambda: parsers.append(1) or build())
    monkeypatch.setattr(jsonio, "_check_keys", lambda obj, allowed, required, what:
                        checked.add(what) or check(obj, allowed, required, what))
    path = str(tmp_path / "mutant.json")
    codes, abbreviated = {}, 0
    for i in range(2_000):
        kind, base = rng.choice(bases)
        mutant = json.loads(json.dumps(base))
        for _ in range(rng.randint(1, 4)):
            _edit(mutant, rng)
        with open(path, "w") as fh:
            json.dump(mutant, fh)
        for reader in _READERS[kind]:
            argv = reader[:1] + [path] + reader[1:] + ["--js" if i % 2 else "--json"]
            abbreviated += i % 2
            code = main(argv)
            out, err = capsys.readouterr()
            if code in (0, 1):
                ok = err == "" and isinstance(json.loads(out)["result"], dict)
            else:
                ok = code == 2 and out == "" and err.startswith("error: ") and err.count(
                    "\n") == 1 and err.endswith("\n")
            assert ok, (argv, code, err, mutant)
            codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 1, 2} and len(parsers) == abbreviated, codes
    assert {"arc", "crossing"} <= checked, checked  # the record loop ran for both lists
    assert time.monotonic() - t0 < 60


# -- no runtime dependencies -------------------------------------------------

_LOADED_MODULES = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from surgerykit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(line.split("\\0")) for line in sys.stdin.read().split("\\n")]
tops = {name.partition(".")[0] for name in sys.modules}
print(*codes)
print(*sorted(tops - set(sys.stdlib_module_names) - {"__main__"}))
print(*sorted({"argparse", "dataclasses", "inspect", "typing", "json", "re", "enum", "hashlib",
               "_hashlib", "__future__", "heapq"} & sys.modules.keys()))
"""


def test_every_command_loads_only_the_standard_library(tmp_path):
    # -I -S: no environment, no user or site packages; only the source tree.
    # The records are plain classes, so no command loads dataclasses,
    # inspect or typing, which were about half of a cold start's import;
    # a well-formed command is parsed without argparse; jsonio calls the C
    # cores of json and hashlib, so json, its re and enum, and hashlib stay
    # unloaded too.  These inputs are far below the 512 KiB jsonio hashes
    # with the interpreter's own SHA-256, so OpenSSL (_hashlib) is never
    # loaded either.  No module defers its annotations, so __future__ stays
    # unloaded, and linkdiag takes heappush and heappop from _heapq, not
    # from heapq.py.  The child reads one command a line, its arguments
    # NUL-joined, and prints without json.
    knot = _write_link(tmp_path, catalog.trefoil(-1), "knot.json")
    link = _write_link(tmp_path, catalog.chain_link([2, -3, 5]))
    form = _write_matrix(tmp_path, intlattice.direct_sum(e8_matrix(),
                                                         IntegralLattice.diagonal([1, 1])))
    cert = str(tmp_path / "cert.json")
    argvs = [["lattice", form], ["obstruction", form], ["invariants", link],
             ["unknotify", knot], ["certify-embedding", link, "-o", cert],
             ["verify", cert], ["word", "[[0, 1], [0, -1]]"]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _LOADED_MODULES, src],
                          input="\n".join("\0".join(argv) for argv in argvs),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, foreign, heavy = [line.split() for line in proc.stdout.split("\n")[:3]]
    assert codes == ["0"] * len(argvs)
    assert foreign == ["surgerykit"]
    assert heavy == []


_IMPORT_THEN_CERTIFY = """
import sys
sys.path.insert(0, sys.argv[1])
import surgerykit.cli
unused = {"__future__", "heapq", "surgerykit.catalog"}
print(*sorted(unused & sys.modules.keys()), flush=True)
code = surgerykit.cli.main(sys.argv[2:])
print(code, "surgerykit.catalog" in sys.modules)
"""


def test_import_loads_no_future_heapq_or_catalog(tmp_path):
    # The import alone loads none of the three; only certify-embedding,
    # which builds its initial unlink with catalog, loads catalog.
    link = _write_link(tmp_path, catalog.hopf_link((1, -1)))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _IMPORT_THEN_CERTIFY, src,
                           "certify-embedding", link, "-o", str(tmp_path / "cert.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[0] == ""
    assert lines[-2:] == ["0 True", ""]
