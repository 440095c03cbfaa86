"""Command-line front end.

Exit status: 0 success (and PASS for `verify`), 1 verification failure,
2 malformed input, usage error or unwritable output file, 3 internal
error (a fault of the program).  Every command is deterministic for a
fixed input; `--json` switches the report to machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import calculus, intlattice, jsonio, linkdiag
from .intlattice import IntegralLattice
from .jsonio import FormatError

_parser = None  # built by the first main() call, then reused


def _load_link(args):
    return jsonio.diagram_from_obj(jsonio.load_path(args.link, args._inputs))


def _load_matrix_or_link(args) -> IntegralLattice:
    obj = jsonio.load_path(args.input, args._inputs)
    if isinstance(obj, dict) and "entries" in obj:
        return jsonio.lattice_from_obj(obj)
    d = jsonio.diagram_from_obj(obj)
    return linkdiag.linking_matrix(d)


def _lattice_report(L: IntegralLattice) -> dict:
    inert = intlattice.inertia(L)
    diag = intlattice.snf_diagonal(L, inert)
    hom = intlattice.homology_from_diagonal(diag)
    out = {
        "n": L.n,
        "det": jsonio.encode_int(inert.det),
        "inertia": {"positive": inert.positive, "zero": inert.zero,
                    "negative": inert.negative},
        "snf_diagonal": [jsonio.encode_int(x) for x in diag],
        "homology": {"rank": hom.rank,
                     "torsion": [jsonio.encode_int(t) for t in hom.torsion],
                     "pretty": str(hom)},
        "unimodular": abs(inert.det) == 1,
    }
    if inert.positive == L.n and abs(inert.det) == 1:
        ok, count = intlattice.diagonalizable_over_Z(L, inert)
        out["diagonalizable_over_Z"] = ok
        out["diagonal_part"] = count
        out["residual_rank"] = L.n - count
    return out


def _print_lattice_report(rep: dict) -> None:
    print("rank       : %d" % rep["n"])
    print("det        : %s" % rep["det"])
    i = rep["inertia"]
    print("inertia    : (%d, %d, %d)" % (i["positive"], i["zero"], i["negative"]))
    print("SNF diag   : %s" % rep["snf_diagonal"])
    print("H1         : %s" % rep["homology"]["pretty"])
    print("unimodular : %s" % rep["unimodular"])
    if "diagonalizable_over_Z" in rep:
        print("diag/Z     : %s (split %d, residual rank %d)"
              % (rep["diagonalizable_over_Z"], rep["diagonal_part"],
                 rep["residual_rank"]))


def _parse_order(text: str | None):
    if text is None:
        return None
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise FormatError("--order expects a comma-separated list of component ids")


def _emit(args, report: dict, text_printer) -> None:
    if args.json:
        print(jsonio.dumps(report), end="")
    else:
        text_printer()


def cmd_invariants(args) -> int:
    d = _load_link(args)
    L = linkdiag.linking_matrix(d)
    rep = _lattice_report(L)
    rep["linking_matrix"] = jsonio.lattice_to_obj(L)
    _emit(args, _report(args, rep), lambda: _print_lattice_report(rep))
    return 0


def cmd_lattice(args) -> int:
    L = jsonio.lattice_from_obj(jsonio.load_path(args.matrix, args._inputs))
    rep = _lattice_report(L)
    _emit(args, _report(args, rep), lambda: _print_lattice_report(rep))
    return 0


def cmd_unknotify(args) -> int:
    d = _load_link(args)
    res = calculus.unknotify(d, component_order=_parse_order(args.order),
                             unlink=args.unlink)
    obj = jsonio.diagram_to_obj(res.diagram)
    if args.output:
        jsonio.save_path(args.output, obj)
    rep = {
        "p": res.p,
        "gadget_unknots": [g.unknot for g in res.gadgets],
        "output": args.output,
    }
    if not args.output:
        rep["link"] = obj

    def text():
        print("crossing changes (p) : %d" % res.p)
        print("gadget unknots       : %s" % rep["gadget_unknots"])
        if args.output:
            print("written              : %s" % args.output)
        else:
            print(jsonio.dumps(obj), end="")

    _emit(args, _report(args, rep), text)
    return 0


def cmd_certify_embedding(args) -> int:
    d = _load_link(args)
    cert = calculus.build_embedding_certificate(
        d, auto_unknotify=args.auto_unknotify, pad_positive=args.pad_positive)
    obj = jsonio.certificate_to_obj(cert)
    if args.output:
        jsonio.save_path(args.output, obj)
    rep = {"m": cert.m, "n": cert.n, "p": cert.p,
           "moves": len(cert.moves), "output": args.output}
    if not args.output:
        rep["certificate"] = obj

    def text():
        print("m (+1 handles) : %d" % cert.m)
        print("n (-1 handles) : %d" % cert.n)
        print("p (crossings)  : %d" % cert.p)
        print("moves          : %d" % len(cert.moves))
        if args.output:
            print("written        : %s" % args.output)
        else:
            print(jsonio.dumps(obj), end="")

    _emit(args, _report(args, rep), text)
    return 0


def cmd_verify(args) -> int:
    cert = jsonio.certificate_from_obj(jsonio.load_path(args.certificate, args._inputs))
    report = calculus.verify_certificate(cert)
    rep = {
        "verdict": "PASS" if report.passed else "FAIL",
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in report.checks],
    }

    def text():
        for c in report.checks:
            line = "%s  %s" % ("PASS" if c.ok else "FAIL", c.name)
            if c.detail:
                line += " -- " + c.detail
            print(line)
        print("verdict: %s" % rep["verdict"])

    _emit(args, _report(args, rep), text)
    return 0 if report.passed else 1


def cmd_obstruction(args) -> int:
    L = _load_matrix_or_link(args)
    rep_obj = calculus.donaldson_obstruction(L)
    rep = {
        "positive_definite": rep_obj.positive_definite,
        "unimodular": rep_obj.unimodular,
        "diagonalizable_over_Z": rep_obj.diagonalizable,
        "verdict": rep_obj.verdict,
    }

    def text():
        print("positive definite : %s" % rep_obj.positive_definite)
        print("unimodular        : %s" % rep_obj.unimodular)
        if rep_obj.diagonalizable is not None:
            print("diagonalizable/Z  : %s" % rep_obj.diagonalizable)
        print("verdict           : %s" % rep_obj.verdict)

    _emit(args, _report(args, rep), text)
    return 0


def cmd_word(args) -> int:
    if os.path.exists(args.intersections):
        obj = jsonio.load_path(args.intersections, args._inputs)
    else:
        try:
            obj = json.loads(args.intersections)
        except (ValueError, RecursionError):  # bad JSON, too deep, or too many digits
            raise FormatError("expected a JSON file or inline JSON list of "
                              "[disc, sign] pairs")
    if not isinstance(obj, list):
        raise FormatError("intersections must be a list of [disc, sign] pairs")
    seq = []
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError("each intersection must be a [disc, sign] pair")
        seq.append((jsonio.decode_int(item[0], "disc"),
                    jsonio.decode_int(item[1], "sign")))
    try:
        word = calculus.word_from_intersections(seq)
    except ValueError as e:
        raise FormatError(str(e))
    red = calculus.reduce_free_word(word)
    rep = {
        "word": [[g, e] for g, e in word],
        "reduced": [[g, e] for g, e in red.reduced],
        "cyclically_reduced": [[g, e] for g, e in red.cyclically_reduced],
        "trivial": red.trivial,
    }

    def fmt(w):
        if not w:
            return "1"
        return " ".join("a%d%s" % (g, "" if e == 1 else "^-1") for g, e in w)

    def text():
        print("word               : %s" % fmt(word))
        print("reduced            : %s" % fmt(red.reduced))
        print("cyclically reduced : %s" % fmt(red.cyclically_reduced))
        print("trivial            : %s" % red.trivial)

    _emit(args, _report(args, rep), text)
    return 0


def _report(args, result: dict) -> dict:
    return {
        "command": args.command,
        "inputs": args._inputs,
        "result": result,
        "elapsed_s": round(time.monotonic() - args._t0, 6),
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="surgerykit",
        description="Surgery presentations, Kirby-move certificates and "
                    "integer-lattice obstructions.")
    sub = ap.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")

    p = sub.add_parser("invariants", help="linking matrix invariants of a link file")
    p.add_argument("link")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("lattice", help="invariants of a symmetric matrix file")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("unknotify",
                       help="switch crossings via blow-up gadgets until every "
                            "component is an unknot")
    p.add_argument("link")
    p.add_argument("-o", "--output", help="write the rewritten link here")
    p.add_argument("--order", help="comma-separated component order for the "
                                   "descending traversal")
    p.add_argument("--unlink", action="store_true",
                   help="make the whole link an unlink, not just each component "
                        "an unknot")
    common(p)
    p.set_defaults(func=cmd_unknotify)

    p = sub.add_parser("certify-embedding",
                       help="build an embedding certificate for a link of unknots")
    p.add_argument("link")
    p.add_argument("-o", "--output", help="write the certificate here")
    p.add_argument("--pad-positive", action="store_true",
                   help="force m > 0 and n > 0 by adding a canceling +1/-1 pair")
    p.add_argument("--auto-unknotify", action="store_true",
                   help="run unknotify first if components are not descending")
    common(p)
    p.set_defaults(func=cmd_certify_embedding)

    p = sub.add_parser("verify", help="replay and audit an embedding certificate")
    p.add_argument("certificate")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("obstruction",
                       help="lattice obstruction verdict for a link or matrix file")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("word",
                       help="reduce the free-group word of an intersection "
                            "sequence (JSON file or inline list)")
    p.add_argument("intersections")
    common(p)
    p.set_defaults(func=cmd_word)

    return ap


def main(argv=None) -> int:
    global _parser
    ap = _parser = _parser or build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "func", None):
        ap.print_help()
        return 2
    args._t0 = time.monotonic()
    args._inputs = {}  # path -> sha256 of the bytes read there
    try:
        return args.func(args)
    except FormatError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (linkdiag.DiagramError, intlattice.LatticeError, calculus.MoveError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # a fault of the program, not of the input
        print("internal error: %s: %s" % (type(e).__name__, " ".join(str(e).split())),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
