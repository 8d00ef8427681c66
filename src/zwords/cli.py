"""Command line surface binding all modules for batch use.

Data output is line-oriented plain text on stdout (or the same fields as
JSON with --json); timings go to stderr.  Exit codes: 0 success, 1 domain
error, 2 usage error.  The env var ZW_CAPS, a positive integer, overrides
the enumeration and search caps.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import families, rationals, schreier, search, words
from .ordinals import classify, compare, format_ordinal, parse_ordinal
from .ordinals import fundamental_sequence, predecessor_sequence

# every domain error of the modules subclasses ValueError
DOMAIN_ERRORS = (ValueError, OSError, search.SearchCapExceeded)


def _caps(default: int | None = None) -> int | None:
    """The positive integer in ZW_CAPS, or the default when it is unset
    or empty."""
    raw = os.environ.get("ZW_CAPS")
    if not raw:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("ZW_CAPS must be a positive integer: %r" % raw)
    return cap


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, fields: dict, lines: list[str]) -> None:
    """Write the fields as one JSON line, or the lines, in one write."""
    if args.json:
        sys.stdout.write(json.dumps(fields, sort_keys=True) + "\n")
    elif lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _profile(args) -> words.DominationProfile:
    return words.parse_profile(getattr(args, "profile", "abs") or "abs")


# --- word ------------------------------------------------------------------


def _cmd_word_check(args) -> None:
    w = words.parse_word(args.word, _profile(args))
    cls = "variable" if w.is_variable_word else "constant"
    core = "true" if w.is_core else "false"
    _emit(args, {"class": cls, "core": w.is_core, "length": len(w.entries)},
          ["class=%s core=%s length=%d" % (cls, core, len(w.entries))])


def _cmd_word_concat(args) -> None:
    p = _profile(args)
    out = words.concat(words.parse_word(args.a, p), words.parse_word(args.b, p))
    _emit(args, {"word": words.format_word(out)}, [words.format_word(out)])


def _cmd_word_subst(args) -> None:
    w = words.parse_word(args.word, _profile(args))
    out = words.substitute(w, args.p, args.q)
    _emit(args, {"word": words.format_word(out)}, [words.format_word(out)])


def _cmd_word_merge(args) -> None:
    p = _profile(args)
    out = words.merge(words.parse_word(args.a, p), words.parse_word(args.b, p))
    _emit(args, {"word": words.format_word(out)}, [words.format_word(out)])


def _cmd_word_ev(args) -> None:
    p = _profile(args)
    bw = families.parse_tuple(args.tuple, p)
    indices = [int(x) for x in args.indices.split(",")] if args.indices else None
    es = words.extracted_sets(bw, indices)
    constants = sorted(es.constants, key=words.word_sort_key)
    variables = sorted(es.variables, key=words.word_sort_key)
    lines = ["E\t%s" % words.format_word(w) for w in constants]
    lines += ["V\t%s" % words.format_word(w) for w in variables]
    _emit(args, {"constants": [words.format_word(w) for w in constants],
                 "variables": [words.format_word(w) for w in variables]}, lines)


# --- schreier ---------------------------------------------------------------


def _cmd_schreier_member(args) -> None:
    ok = schreier.is_member(schreier.parse_set(args.set), parse_ordinal(args.xi))
    _emit(args, {"member": ok}, ["true" if ok else "false"])


def _cmd_schreier_enum(args) -> None:
    members = schreier.enumerate_members(parse_ordinal(args.xi), args.n, cap=_caps())
    lines = [schreier.format_set(s) for s in members]
    _emit(args, {"members": lines}, lines)


def _cmd_schreier_canon(args) -> None:
    dec = schreier.canonical_decompose(schreier.parse_set(args.set), parse_ordinal(args.xi))
    _emit(args, {"blocks": [schreier.format_set(b) for b in dec.blocks],
                 "remainder": schreier.format_set(dec.remainder) if dec.remainder else None},
          [str(dec)])


def _cmd_schreier_restriction(args) -> None:
    ok = schreier.restriction_check(parse_ordinal(args.xi), args.n, args.max, cap=_caps())
    _emit(args, {"holds": ok}, ["true" if ok else "false"])


# --- ordinal ----------------------------------------------------------------


def _cmd_ordinal_cmp(args) -> None:
    c = compare(parse_ordinal(args.a), parse_ordinal(args.b))
    text = {-1: "less", 0: "equal", 1: "greater"}[c]
    _emit(args, {"order": text}, [text])


def _cmd_ordinal_fund(args) -> None:
    out = fundamental_sequence(parse_ordinal(getattr(args, "lambda")), args.n)
    _emit(args, {"ordinal": format_ordinal(out)}, [format_ordinal(out)])


def _cmd_ordinal_pred(args) -> None:
    out = predecessor_sequence(parse_ordinal(args.xi), args.n)
    _emit(args, {"ordinal": format_ordinal(out)}, [format_ordinal(out)])


def _cmd_ordinal_classify(args) -> None:
    kind = classify(parse_ordinal(args.xi))
    _emit(args, {"kind": kind}, [kind])


# --- family -----------------------------------------------------------------


def _load_family(args):
    profile = _profile(args)
    fam = families.parse_family(_read_text(args.family), profile)
    pool = None
    if getattr(args, "pool", None):
        pool = families.parse_pool(_read_text(args.pool), profile)
    return fam, pool


def _cmd_family_closure(args) -> None:
    fam, pool = _load_family(args)
    if args.op == "tree":
        out = families.tree_closure(fam)
    elif args.op == "hereditary":
        if pool is None:
            raise families.FamilyError("hereditary closure needs --pool")
        out = families.hereditary_closure(fam, pool)
    else:
        if pool is None:
            raise families.FamilyError("largest hereditary subfamily needs --pool")
        out = families.largest_hereditary(fam, pool)
    lines = [families.serialize_tuple(bw) for bw in out.sorted_members()]
    _emit(args, {"members": lines}, lines)


def _cmd_family_cbindex(args) -> None:
    if args.set_m is not None:
        idx = families.set_family_cb_index(args.set_m, args.ground, args.tau)
    else:
        if not args.family or not args.pool:
            raise families.FamilyError("word-level index needs --family and --pool")
        fam, pool = _load_family(args)
        idx = families.cb_index(fam, pool, args.tau)
    _emit(args, {"index": idx}, [str(idx)])


# --- rat --------------------------------------------------------------------


def _cmd_rat_encode(args) -> None:
    w = rationals.encode(rationals.parse_rational(args.value))
    _emit(args, {"word": words.format_word(w)}, [words.format_word(w)])


def _cmd_rat_decode(args) -> None:
    text = rationals.format_rational(rationals.decode(words.parse_word(args.word)))
    _emit(args, {"value": text}, [text])


def _cmd_rat_precedes(args) -> None:
    ok = rationals.rational_precedes(rationals.parse_rational(args.a),
                                     rationals.parse_rational(args.b))
    _emit(args, {"precedes": ok}, ["true" if ok else "false"])


def _cmd_rat_qxi(args) -> None:
    values = [rationals.parse_rational(v) for v in args.values.split(",")]
    ok = rationals.q_xi_member(values, parse_ordinal(args.xi))
    _emit(args, {"member": ok}, ["true" if ok else "false"])


# --- search -----------------------------------------------------------------


def _coloring(args) -> search.Coloring:
    if getattr(args, "coloring", None):
        return search.Coloring.from_text(_read_text(args.coloring), args.r)
    if getattr(args, "seed", None) is None:
        raise search.SearchError("need --seed or --coloring")
    return search.Coloring(arity=args.r, seed=args.seed)


def _window(args) -> search.SearchWindow:
    return search.SearchWindow(args.window, _profile(args),
                               max_candidates=_caps(search.SearchWindow.max_candidates))


def _emit_report(args, rep: search.SearchReport) -> None:
    if rep.witness is None:
        fields = {"witness": None, "candidates": rep.candidates, "nodes": rep.nodes_expanded}
        lines = ["witness: none", "candidates: %d" % rep.candidates,
                 "nodes: %d" % rep.nodes_expanded]
    else:
        text = words.serialize_tuple(rep.witness)
        fields = {"witness": text, "color": rep.color, "grid": rep.grid_size,
                  "nodes": rep.nodes_expanded, "vacuous": rep.vacuous}
        lines = ["witness: %s" % text, "color: %s" % rep.color,
                 "grid: %d" % rep.grid_size, "nodes: %d" % rep.nodes_expanded]
    _emit(args, fields, lines)
    print("time_ms: %.1f" % rep.elapsed_ms, file=sys.stderr)


def _cmd_search_hj(args) -> None:
    bounds = [int(x) for x in args.bounds.split(",")]
    _emit_report(args, search.hj_witness_search(_coloring(args), len(bounds), bounds, args.n,
                                                _window(args)))


def _cmd_search_xi(args) -> None:
    _emit_report(args, search.xi_witness_search(_coloring(args), parse_ordinal(args.xi),
                                                args.l, args.n0, _window(args)))


def _cmd_search_fs(args) -> None:
    xs = [int(x) for x in args.xs.split(",")]
    if args.zs:
        zs = [int(x) for x in args.zs.split(",")]
        values = search.fs_two_sided(xs, zs, search.INT_LINEAR)
    else:
        values = search.fs_enumerate(xs, search.INT_LINEAR)
    values = sorted(values)
    _emit(args, {"values": values}, [str(v) for v in values])


def _cmd_search_psi(args) -> None:
    spec = {"int-linear": search.INT_LINEAR, "strings": search.STRING_CONCAT}[args.semigroup]
    value = search.psi_map(words.parse_word(args.word, _profile(args)), spec)
    _emit(args, {"value": value if isinstance(value, (int, str)) else str(value)}, [str(value)])


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="zwords", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    sub = top.add_subparsers(dest="command", required=True)

    def add(parent, name, func, **arguments):
        p = parent.add_parser(name)
        for flag, kw in arguments.items():
            p.add_argument("--" + flag.replace("_", "-"), **kw)
        p.set_defaults(func=func)
        return p

    word = sub.add_parser("word").add_subparsers(dest="subcommand", required=True)
    add(word, "check", _cmd_word_check, word={"required": True}, profile={"default": "abs"})
    add(word, "concat", _cmd_word_concat, a={"required": True}, b={"required": True},
        profile={"default": "abs"})
    add(word, "subst", _cmd_word_subst, word={"required": True},
        p={"type": int, "required": True}, q={"type": int, "required": True},
        profile={"default": "abs"})
    add(word, "merge", _cmd_word_merge, a={"required": True}, b={"required": True},
        profile={"default": "abs"})
    add(word, "ev", _cmd_word_ev, tuple={"required": True}, indices={"default": None},
        profile={"default": "abs"})

    sch = sub.add_parser("schreier").add_subparsers(dest="subcommand", required=True)
    add(sch, "member", _cmd_schreier_member, xi={"required": True}, set={"required": True})
    add(sch, "enum", _cmd_schreier_enum, xi={"required": True}, n={"type": int, "required": True})
    add(sch, "canon", _cmd_schreier_canon, xi={"required": True}, set={"required": True})
    add(sch, "check-restriction", _cmd_schreier_restriction, xi={"required": True},
        n={"type": int, "required": True}, max={"type": int, "required": True})

    ordn = sub.add_parser("ordinal").add_subparsers(dest="subcommand", required=True)
    add(ordn, "cmp", _cmd_ordinal_cmp, a={"required": True}, b={"required": True})
    p_fund = ordn.add_parser("fund")
    p_fund.add_argument("--lambda", dest="lambda", required=True)
    p_fund.add_argument("--n", type=int, required=True)
    p_fund.set_defaults(func=_cmd_ordinal_fund)
    add(ordn, "pred", _cmd_ordinal_pred, xi={"required": True}, n={"type": int, "required": True})
    add(ordn, "classify", _cmd_ordinal_classify, xi={"required": True})

    fam = sub.add_parser("family").add_subparsers(dest="subcommand", required=True)
    add(fam, "closure", _cmd_family_closure, op={"required": True,
        "choices": ["tree", "hereditary", "largest"]},
        family={"required": True}, pool={"default": None}, profile={"default": "abs"})
    add(fam, "cbindex", _cmd_family_cbindex, family={"default": None}, pool={"default": None},
        tau={"type": int, "required": True}, set_m={"type": int, "default": None},
        ground={"type": int, "default": 12}, profile={"default": "abs"})

    rat = sub.add_parser("rat").add_subparsers(dest="subcommand", required=True)
    p_enc = rat.add_parser("encode")
    p_enc.add_argument("value")
    p_enc.set_defaults(func=_cmd_rat_encode)
    add(rat, "decode", _cmd_rat_decode, word={"required": True})
    add(rat, "precedes", _cmd_rat_precedes, a={"required": True}, b={"required": True})
    add(rat, "qxi", _cmd_rat_qxi, xi={"required": True}, values={"required": True})

    src = sub.add_parser("search").add_subparsers(dest="subcommand", required=True)
    add(src, "hj", _cmd_search_hj, r={"type": int, "required": True},
        seed={"type": int, "default": None}, coloring={"default": None},
        bounds={"required": True}, n={"type": int, "required": True},
        window={"type": int, "required": True}, profile={"default": "abs"})
    add(src, "xi", _cmd_search_xi, r={"type": int, "required": True},
        seed={"type": int, "default": None}, coloring={"default": None},
        xi={"required": True}, l={"type": int, "required": True},
        n0={"type": int, "required": True}, window={"type": int, "required": True},
        profile={"default": "abs"})
    add(src, "fs", _cmd_search_fs, xs={"required": True}, zs={"default": None})
    add(src, "psi", _cmd_search_psi, word={"required": True},
        semigroup={"default": "int-linear", "choices": ["int-linear", "strings"]},
        profile={"default": "abs"})
    return top


# a value that starts like a negative number (-3/7, -1:v,1:v, -.5), which
# argparse would read as an option
_DASH_VALUE = re.compile(r"-[0-9.]")


def _dash_values(argv: list[str]) -> list[str]:
    """Join each dash value to the --flag just before it, if that flag has
    no "=" yet; otherwise put "--" in front of it, so that it and the rest
    are positional."""
    out = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        if _DASH_VALUE.match(arg):
            if out and out[-1].startswith("--") and "=" not in out[-1]:
                out[-1] += "=" + arg
                continue
            return out + ["--"] + argv[i:]
        out.append(arg)
    return out


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        # built on the first call, not at import, and reused: parsing keeps
        # no state in the parser, and importing the CLI stays cheap
        _parser = build_parser()
    parser = _parser
    argv = _dash_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
