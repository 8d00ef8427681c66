"""Command line surface binding all modules for batch use.

Data output is line-oriented plain text on stdout (or the same fields as
JSON with a leading --json); timings go to stderr.  Exit codes: 0
success, 1 domain error, 2 usage error.  The env var ZW_CAPS, a positive
integer, overrides the enumeration and search caps.  Each command is read
from its row of the command table (`_read` says how), and its help and
usage line are written from the same row.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

# a command imports the upper layers it reads when it runs, so an ordinal
# or schreier command never loads words, families, rationals or search
from . import schreier
from .ordinals import _echo, classify, compare, format_ordinal, parse_ordinal
from .ordinals import fundamental_sequence, predecessor_sequence

# every domain error of the modules subclasses ValueError, but for the
# search cap's refusal, which `_refusals` adds once search is loaded
DOMAIN_ERRORS = (ValueError, OSError)


def _refusals() -> tuple:
    """The errors a command answers with one `error:` line: DOMAIN_ERRORS,
    and SearchCapExceeded when search is loaded, since only search raises
    it.  Any other RuntimeError, RecursionError among them, propagates."""
    search = sys.modules.get(__package__ + ".search")
    return DOMAIN_ERRORS if search is None else (*DOMAIN_ERRORS, search.SearchCapExceeded)


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


def _ints(args, name: str) -> list[int] | None:
    """A flag's comma-separated integers, or None when it is absent; a
    malformed list is refused naming the flag and the list."""
    text = getattr(args, name)
    try:
        return None if text is None else [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError("bad --%s %s: expected integers separated by commas"
                         % (name, _echo(text))) from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, answer: tuple) -> None:
    """Write a command's answer to stdout in one write.  A (name, value)
    pair is {name: value} as JSON; as text a list is one line per item, a
    boolean true or false, and anything else str(value).  A (fields,
    lines) pair is the fields as JSON or the lines.  A third item, a
    search's time line, goes to stderr after the answer."""
    head, body, *notes = answer
    if isinstance(head, dict):
        fields, lines = head, body
    else:
        fields = {head: body}
        if isinstance(body, list):
            lines = [str(item) for item in body]
        else:
            lines = [("true" if body else "false") if isinstance(body, bool) else str(body)]
    if args.json:
        import json  # only --json reads it, so other commands start without it

        sys.stdout.write(json.dumps(fields, sort_keys=True) + "\n")
    elif lines:
        sys.stdout.write("\n".join(lines) + "\n")
    for note in notes:
        print(note, file=sys.stderr)


def _profile(args):
    from . import words

    return words.parse_profile(args.profile)


# --- word ------------------------------------------------------------------


def _cmd_word_check(args) -> tuple:
    from . import words

    w = words.parse_word(args.word, _profile(args))
    cls = "variable" if w.is_variable_word else "constant"
    core = "true" if w.is_core else "false"
    return ({"class": cls, "core": w.is_core, "length": len(w.entries)},
            ["class=%s core=%s length=%d" % (cls, core, len(w.entries))])


def _cmd_word_pair(args) -> tuple:
    """concat or merge, whichever the subcommand names as `combine`."""
    from . import words

    p = _profile(args)
    combine = getattr(words, args.combine)
    return "word", words.format_word(combine(words.parse_word(args.a, p),
                                             words.parse_word(args.b, p)))


def _cmd_word_subst(args) -> tuple:
    from . import words

    w = words.parse_word(args.word, _profile(args))
    return "word", words.format_word(words.substitute(w, args.p, args.q))


def _cmd_word_ev(args) -> tuple:
    from . import families, words

    p = _profile(args)
    bw = families.parse_tuple(args.tuple, p)
    es = words.extracted_sets(bw, _ints(args, "indices"))
    constants = [words.format_word(w) for w in sorted(es.constants, key=words.word_sort_key)]
    variables = [words.format_word(w) for w in sorted(es.variables, key=words.word_sort_key)]
    return ({"constants": constants, "variables": variables},
            ["E\t" + w for w in constants] + ["V\t" + w for w in variables])


# --- schreier ---------------------------------------------------------------


def _cmd_schreier_member(args) -> tuple:
    return "member", schreier.is_member(schreier.parse_set(args.set), parse_ordinal(args.xi))


def _cmd_schreier_enum(args) -> tuple:
    members = schreier.enumerate_members(parse_ordinal(args.xi), args.n, cap=_caps())
    return "members", [schreier.format_set(s) for s in members]


def _cmd_schreier_canon(args) -> tuple:
    dec = schreier.canonical_decompose(schreier.parse_set(args.set), parse_ordinal(args.xi))
    return ({"blocks": [schreier.format_set(b) for b in dec.blocks],
             "remainder": schreier.format_set(dec.remainder) if dec.remainder else None},
            [str(dec)])


def _cmd_schreier_restriction(args) -> tuple:
    return "holds", schreier.restriction_check(parse_ordinal(args.xi), args.n, args.max,
                                               cap=_caps())


# --- ordinal ----------------------------------------------------------------


def _cmd_ordinal_cmp(args) -> tuple:
    c = compare(parse_ordinal(args.a), parse_ordinal(args.b))
    return "order", {-1: "less", 0: "equal", 1: "greater"}[c]


def _cmd_ordinal_fund(args) -> tuple:
    return "ordinal", format_ordinal(fundamental_sequence(parse_ordinal(getattr(args, "lambda")),
                                                          args.n))


def _cmd_ordinal_pred(args) -> tuple:
    return "ordinal", format_ordinal(predecessor_sequence(parse_ordinal(args.xi), args.n))


def _cmd_ordinal_classify(args) -> tuple:
    return "kind", classify(parse_ordinal(args.xi))


# --- family -----------------------------------------------------------------


def _load_family(args):
    from . import families

    profile = _profile(args)
    fam = families.parse_family(_read_text(args.family), profile)
    pool = None
    if args.pool is not None:
        pool = families.parse_pool(_read_text(args.pool), profile)
    return fam, pool


# the closure operations that need a pool, by --op: the families
# function and the name its refusal uses
_POOL_OPS = {"hereditary": ("hereditary_closure", "hereditary closure"),
             "largest": ("largest_hereditary", "largest hereditary subfamily")}


def _cmd_family_closure(args) -> tuple:
    from . import families

    fam, pool = _load_family(args)
    if args.op == "tree":
        out = families.tree_closure(fam)
    else:
        op, name = _POOL_OPS[args.op]
        if pool is None:
            raise families.FamilyError("%s needs --pool" % name)
        out = getattr(families, op)(fam, pool)
    return "members", [families.serialize_tuple(bw) for bw in out.sorted_members()]


def _cmd_family_cbindex(args) -> tuple:
    from . import families

    if args.set_m is not None:
        return "index", families.set_family_cb_index(args.set_m, args.ground, args.tau)
    if args.family is None or args.pool is None:
        raise families.FamilyError("word-level index needs --family and --pool")
    fam, pool = _load_family(args)
    return "index", families.cb_index(fam, pool, args.tau)


# --- rat --------------------------------------------------------------------


def _cmd_rat_encode(args) -> tuple:
    from . import rationals, words

    return "word", words.format_word(rationals.encode(rationals.parse_rational(args.value)))


def _cmd_rat_decode(args) -> tuple:
    from . import rationals, words

    return "value", rationals.format_rational(rationals.decode(words.parse_word(args.word)))


def _cmd_rat_precedes(args) -> tuple:
    from . import rationals

    return "precedes", rationals.rational_precedes(rationals.parse_rational(args.a),
                                                   rationals.parse_rational(args.b))


def _cmd_rat_qxi(args) -> tuple:
    from . import rationals

    values = [rationals.parse_rational(v) for v in args.values.split(",")]
    return "member", rationals.q_xi_member(values, parse_ordinal(args.xi))


# --- search -----------------------------------------------------------------


def _coloring(args):
    from . import search

    if args.coloring is not None:
        return search.Coloring.from_text(_read_text(args.coloring), args.r)
    if args.seed is None:
        raise search.SearchError("need --seed or --coloring")
    return search.Coloring(arity=args.r, seed=args.seed)


def _window(args):
    from . import search

    return search.SearchWindow(args.window, _profile(args),
                               max_candidates=_caps(search.MAX_CANDIDATES))


def _report(rep) -> tuple:
    from . import words

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
    return fields, lines, "time_ms: %.1f" % rep.elapsed_ms


def _cmd_search_hj(args) -> tuple:
    from . import search

    bounds = _ints(args, "bounds")
    return _report(search.hj_witness_search(_coloring(args), len(bounds), bounds, args.n,
                                            _window(args)))


def _cmd_search_xi(args) -> tuple:
    from . import search

    return _report(search.xi_witness_search(_coloring(args), parse_ordinal(args.xi),
                                            args.l, args.n0, _window(args)))


def _cmd_search_fs(args) -> tuple:
    from . import search

    xs, zs = _ints(args, "xs"), _ints(args, "zs")
    if zs is not None:
        values = search.fs_two_sided(xs, zs, search.INT_LINEAR)
    else:
        values = search.fs_enumerate(xs, search.INT_LINEAR)
    return "values", sorted(values)


def _cmd_search_psi(args) -> tuple:
    from . import search, words

    spec = {"int-linear": search.INT_LINEAR, "strings": search.STRING_CONCAT}[args.semigroup]
    return "value", search.psi_map(words.parse_word(args.word, _profile(args)), spec)


# --- commands ---------------------------------------------------------------

_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_NONE = {"default": None}
_INT_NONE = {"type": int, "default": None}
_ABS = {"default": "abs"}

# Every command by (group, name): its handler, its arguments in the order
# of its usage line (a name without dashes is positional -> keywords) and
# the defaults it binds besides the handler.  `_read` reads commands from
# this table, and their help and usage lines are written from it.
COMMANDS = {
    ("word", "check"): (_cmd_word_check, {"--word": _REQUIRED, "--profile": _ABS}, {}),
    ("word", "concat"): (_cmd_word_pair, {"--a": _REQUIRED, "--b": _REQUIRED,
                                          "--profile": _ABS}, {"combine": "concat"}),
    ("word", "subst"): (_cmd_word_subst, {"--word": _REQUIRED, "--p": _INT, "--q": _INT,
                                          "--profile": _ABS}, {}),
    ("word", "merge"): (_cmd_word_pair, {"--a": _REQUIRED, "--b": _REQUIRED,
                                         "--profile": _ABS}, {"combine": "merge"}),
    ("word", "ev"): (_cmd_word_ev, {"--tuple": _REQUIRED, "--indices": _NONE,
                                    "--profile": _ABS}, {}),
    ("schreier", "member"): (_cmd_schreier_member, {"--xi": _REQUIRED, "--set": _REQUIRED}, {}),
    ("schreier", "enum"): (_cmd_schreier_enum, {"--xi": _REQUIRED, "--n": _INT}, {}),
    ("schreier", "canon"): (_cmd_schreier_canon, {"--xi": _REQUIRED, "--set": _REQUIRED}, {}),
    ("schreier", "check-restriction"): (_cmd_schreier_restriction, {
        "--xi": _REQUIRED, "--n": _INT, "--max": _INT}, {}),
    ("ordinal", "cmp"): (_cmd_ordinal_cmp, {"--a": _REQUIRED, "--b": _REQUIRED}, {}),
    ("ordinal", "fund"): (_cmd_ordinal_fund, {"--lambda": _REQUIRED, "--n": _INT}, {}),
    ("ordinal", "pred"): (_cmd_ordinal_pred, {"--xi": _REQUIRED, "--n": _INT}, {}),
    ("ordinal", "classify"): (_cmd_ordinal_classify, {"--xi": _REQUIRED}, {}),
    ("family", "closure"): (_cmd_family_closure, {
        "--op": {"required": True, "choices": ["tree", *_POOL_OPS]},
        "--family": _REQUIRED, "--pool": _NONE, "--profile": _ABS}, {}),
    ("family", "cbindex"): (_cmd_family_cbindex, {
        "--family": _NONE, "--pool": _NONE, "--tau": _INT, "--set-m": _INT_NONE,
        "--ground": {"type": int, "default": 12}, "--profile": _ABS}, {}),
    ("rat", "encode"): (_cmd_rat_encode, {"value": _REQUIRED}, {}),
    ("rat", "decode"): (_cmd_rat_decode, {"--word": _REQUIRED}, {}),
    ("rat", "precedes"): (_cmd_rat_precedes, {"--a": _REQUIRED, "--b": _REQUIRED}, {}),
    ("rat", "qxi"): (_cmd_rat_qxi, {"--xi": _REQUIRED, "--values": _REQUIRED}, {}),
    ("search", "hj"): (_cmd_search_hj, {
        "--r": _INT, "--seed": _INT_NONE, "--coloring": _NONE, "--bounds": _REQUIRED,
        "--n": _INT, "--window": _INT, "--profile": _ABS}, {}),
    ("search", "xi"): (_cmd_search_xi, {
        "--r": _INT, "--seed": _INT_NONE, "--coloring": _NONE, "--xi": _REQUIRED,
        "--l": _INT, "--n0": _INT, "--window": _INT, "--profile": _ABS}, {}),
    ("search", "fs"): (_cmd_search_fs, {"--xs": _REQUIRED, "--zs": _NONE}, {}),
    ("search", "psi"): (_cmd_search_psi, {
        "--word": _REQUIRED, "--semigroup": {"default": "int-linear",
                                             "choices": ["int-linear", "strings"]},
        "--profile": _ABS}, {}),
}


class UsageError(Exception):
    """Raised as (path, reason): help for path when reason is None, else a usage error."""


def _choices(path: tuple) -> list[str]:
    """The groups, for (), or the commands of a group, in table order."""
    return list(dict.fromkeys(key[len(path)] for key in COMMANDS if key[:len(path)] == path))


def _form(name: str, keywords: dict) -> str:
    """An argument on a usage line: a flag with its choices or metavar, [optional]."""
    meta = ("{%s}" % ",".join(keywords["choices"]) if "choices" in keywords
            else name[2:].upper().replace("-", "_"))
    form = name + " " + meta if name.startswith("-") else name
    return form if keywords.get("required") else "[%s]" % form


def _parts(path: tuple) -> list[str]:
    """What follows [-h] on path's usage line: its choices or arguments."""
    if path in COMMANDS:
        return [_form(*argument) for argument in COMMANDS[path][1].items()]
    return ["[--json]"] * (not path) + ["{%s}" % ",".join(_choices(path)), "..."]


def _usage(path: tuple) -> str:
    """The usage line of path, () or (group,) or a command, as argparse wrote it."""
    return "usage: %s [-h] %s\n" % (" ".join(("zwords", *path)), " ".join(_parts(path)))


def _help(path: tuple) -> str:
    """The usage line, then a line per group with its commands, command with
    its arguments, or argument with its default or need, and its type."""
    rows = [("--json", "emit JSON instead of plain text")] * (not path)
    if path in COMMANDS:
        for name, keywords in COMMANDS[path][1].items():
            default = keywords.get("default")
            note = ("required" if keywords.get("required") else "optional" if default is None
                    else "default %s" % default)
            rows.append((_form(name, keywords).strip("[]"),
                         note + ", an integer" * ("type" in keywords)))
    else:
        rows += [(choice, " ".join(_parts(path + (choice,)))) for choice in _choices(path)]
    width = max(len(left) for left, _ in rows)
    return _usage(path) + "\n" + "".join("  %s  %s\n" % (left.ljust(width), right)
                                         for left, right in rows)


def _stray(path: tuple, token: str) -> UsageError:
    """Help for -h or --help, else the usage error of a token path refuses."""
    return UsageError(path, None if token in ("-h", "--help")
                      else "unrecognized arguments: %s" % token)


def _dash_value(token: str) -> bool:
    """Whether token starts like a negative number (-3/7, -1:v,1:v, -.5),
    which is read as a value, not as an option."""
    return len(token) > 1 and token[0] == "-" and token[1] in "0123456789."


def _plain(token: str) -> bool:
    """Whether token is a value: no leading "-", "-" alone, or a dash value."""
    return not token.startswith("-") or token == "-" or _dash_value(token)


def _read(command: tuple[str, str], argv: list[str]) -> SimpleNamespace:
    """The namespace of a command's arguments, argv, read from its row, or
    UsageError.  Each flag is given at most once, unabbreviated, as --flag
    value or --flag=value; positional values stand bare, after "--" or
    from a first dash value on; every required argument is given and every
    type and choice met."""
    func, arguments, defaults = COMMANDS[command]
    given, bare = {}, []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" or _dash_value(token):
            # the rest is positional; a "--" with nothing after it is refused
            rest = argv[i:] if token == "--" else argv[i - 1:]
            if not rest:
                raise _stray(command, token)
            bare += rest
            break
        if token.startswith("--"):
            flag, eq, value = token.partition("=")
            if flag not in arguments:
                raise _stray(command, token)
            if flag in given:
                raise UsageError(command, "argument %s: given more than once" % flag)
            if not eq:
                if i == len(argv) or not _plain(argv[i]):
                    raise UsageError(command, "argument %s: expected one argument" % flag)
                value = argv[i]
                i += 1
            given[flag] = value
        elif _plain(token):
            bare.append(token)
        else:
            raise _stray(command, token)
    positionals = [name for name in arguments if not name.startswith("-")]
    if len(bare) > len(positionals):
        raise _stray(command, " ".join(bare[len(positionals):]))
    given.update(zip(positionals, bare))
    values = dict(defaults, func=func)
    for name, keywords in arguments.items():
        if name in given:
            value = given[name]
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except (TypeError, ValueError):
                    raise UsageError(command, "argument %s: invalid %s value: %r"
                                     % (name, keywords["type"].__name__, value)) from None
            if "choices" in keywords and value not in keywords["choices"]:
                raise UsageError(command, "argument %s: invalid choice: %r (choose from %s)"
                                 % (name, value, ", ".join(keywords["choices"])))
        elif keywords.get("required"):
            raise UsageError(command, "the following arguments are required: " + ", ".join(
                flag for flag in arguments
                if arguments[flag].get("required") and flag not in given))
        else:
            value = keywords.get("default")
        values[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**values)


def _answer(args) -> int:
    """Run a parsed command and write its answer; a domain error is one
    `error:` line on stderr and exit code 1."""
    try:
        # the answer is written inside the guard: text of an int past
        # Python's int-to-str limit is a ValueError
        _emit(args, args.func(args))
    except _refusals() as exc:  # evaluated only when something is raised
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line, after an optional leading --json.  Help goes to
    stdout, exit code 0; a usage error is its usage line and one error:
    line on stderr, exit code 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    start = 1 if argv[:1] == ["--json"] else 0
    command = tuple(argv[start:start + 2])
    try:
        if command in COMMANDS:
            args = _read(command, argv[start + 2:])
        else:  # no command: the top level, or the group named first, refuses
            path = command[:1] if command and command[0] in _choices(()) else ()
            level, rest = ("command", "subcommand")[len(path)], command[len(path):]
            if not rest:
                raise UsageError(path, "the following arguments are required: " + level)
            raise UsageError(path, None if rest[0] in ("-h", "--help") else
                             "argument %s: invalid choice: %r (choose from %s)"
                             % (level, rest[0], ", ".join(_choices(path))))
    except UsageError as exc:
        path, reason = exc.args
        if reason is None:
            sys.stdout.write(_help(path))
            return 0
        sys.stderr.write("%s%s: error: %s\n" % (_usage(path), " ".join(("zwords", *path)), reason))
        return 2
    args.json = bool(start)
    return _answer(args)


if __name__ == "__main__":
    sys.exit(main())
