"""Command-line front end.

Every command is a thin wrapper over the library and emits JSON lines
on stdout (or CSV for the verification sweep with --csv).  Strings are
passed as comma-separated coefficients, e.g. --a 3,2,2,3,5.

Exit codes: 0 on success, 2 when a classification came out Unknown (so
scripts can branch on it), 1 on usage errors.

COMMANDS maps each command to its help, handler, optional positional with
its choices, and long options {name: (kind, default, help)}.  A kind is int,
a tuple of choices, bool for a flag or the metavar of a string; a _REQUIRED
default makes an option required, and of the _ONE_OF options exactly one is
given.  parse_args reads argv against it through getopt.gnu_getopt.
"""

from __future__ import annotations

import getopt
import json
import os
import sys
import types

from . import chainstring, classifier, contfrac, embedsearch, families, lattice


def _emit(obj, out):
    # json.dumps runs the C encoder; json.dump to a stream does not
    out.write(json.dumps(obj) + "\n")


class _LazyFile:
    """Opens its path for writing at the first write, so a command that
    fails its argument checks leaves an existing file untouched."""

    def __init__(self, path):
        self.path, self.file = path, None

    def write(self, text):
        if self.file is None:
            self.file = open(self.path, "w")
        return self.file.write(text)

    def flush(self):
        if self.file is not None:
            self.file.flush()

    def close(self):
        if self.file is not None:
            self.file.close()


def _string(text):
    return chainstring.validate_chain(chainstring.parse_string(text))


def cmd_dual(args, out):
    if args.cyclic is not None:
        dual = chainstring.cyclic_dual(_string(args.cyclic))
    else:
        entries = chainstring.parse_string(args.linear)
        dual = chainstring.linear_dual(entries)
    _emit({"dual": chainstring.format_string(dual)}, out)
    return 0


def cmd_member(args, out):
    a = _string(args.a)
    witnesses = families.member(a, args.mode)
    tags = {w.tag for w in witnesses}
    _emit(
        {
            "string": chainstring.format_string(a),
            "mode": args.mode,
            "in_s1": not tags.isdisjoint(families.S1_TAGS),
            "in_s2": not tags.isdisjoint(families.S2_TAGS),
            "witnesses": [w.to_json() for w in witnesses],
        },
        out,
    )
    return 0


_KINDS = {
    "negative": lattice.NEGATIVE,
    "positive": lattice.POSITIVE,
    "standard": lattice.STANDARD,
}


def cmd_embed(args, out):
    result = embedsearch.embedding_witness(chainstring.parse_string(args.a), _KINDS[args.kind])
    payload = {"string": args.a, "kind": args.kind}
    payload.update(result.to_json())
    _emit(payload, out)
    return 0


def cmd_homology(args, out):
    a = _string(args.a)
    m = contfrac.monodromy_matrix(a)
    payload = {
        "string": args.a,
        "fraction": str(contfrac.hj_eval(a)),
        "trace": m.trace,
    }
    try:
        payload["order_even"] = contfrac.torsion_order(a, +1)
        payload["order_odd"] = contfrac.torsion_order(a, -1)
    except contfrac.NonHyperbolicError:
        payload["order_even"] = payload["order_odd"] = None
    _emit(payload, out)
    return 0


def cmd_classify(args, out):
    if args.what in ("surgery", "braid"):
        if args.a is None:
            raise chainstring.StringError(f"classify {args.what} needs --a")
        a = _string(args.a)
        classify = (
            classifier.classify_surgery
            if args.what == "surgery"
            else classifier.classify_braid_cover
        )
        verdict = classify(a, args.t, args.mode)
        payload = {"string": args.a, "t": args.t, "mode": args.mode}
    else:
        if args.matrix is None:
            raise chainstring.StringError("classify bundle needs --matrix a,b,c,d")
        entries = chainstring.parse_string(args.matrix)
        if len(entries) != 4:
            raise chainstring.StringError("--matrix takes four integers a,b,c,d")
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        mc = classifier.normalize_monodromy(m)
        verdict = classifier.classify_torus_bundle(mc)
        payload = {"matrix": args.matrix, "class": repr(mc)}
    payload.update(verdict.to_json())
    _emit(payload, out)
    return 2 if verdict.status == classifier.UNKNOWN else 0


def cmd_braid(args, out):
    a = _string(args.a)
    word = classifier.braid_word(a, args.t)
    trace, matches = classifier.burau_trace_check(a, args.t)
    payload = {"string": args.a, "t": args.t}
    payload.update(word.to_json())
    payload["burau_trace"] = trace
    payload["trace_matches_monodromy"] = matches
    _emit(payload, out)
    return 0


def cmd_verify(args, out):
    skip = chainstring.parse_string(args.skip_until) if args.skip_until else None
    wrote_header = False

    def callback(row):
        nonlocal wrote_header
        if args.csv:
            if not wrote_header:
                # the header names the to_json keys, which to_csv follows
                out.write(",".join(row.to_json(args.mode)) + "\n")
                wrote_header = True
            out.write(row.to_csv(args.mode) + "\n")
        else:
            out.write(row.to_json_line(args.mode))
        out.flush()

    report = embedsearch.verify_classification(
        args.max_n,
        args.mode,
        workers=args.workers,
        skip_until=skip,
        row_callback=callback,
    )
    mismatches = report.mismatches()
    summary = {
        "rows": len(report.rows),
        "mismatches": [chainstring.format_string(r.string) for r in mismatches],
    }
    _emit(summary, out)
    return 0


def cmd_fixtures(args, out):
    if args.name is None:
        for name, doc in lattice.FIXTURE_DOC.items():
            _emit({"name": name, "doc": doc}, out)
        return 0
    params = {}
    for key in ("n", "k", "x", "y"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    subset = lattice.fixture(args.name, **params)
    payload = {"name": args.name, **params}
    payload.update(subset.to_json())
    payload["I"] = lattice.subset_i_invariant(subset)
    stats = lattice.incidence_stats(subset)
    payload["p"] = {str(k): v for k, v in sorted(stats.p.items())}
    _emit(payload, out)
    return 0


_REQUIRED, _ONE_OF = object(), object()

COMMANDS = {
    "dual": ("linear or cyclic dual of a string", cmd_dual, None, {
        "cyclic": ("CSV", _ONE_OF, "cyclic dual"), "linear": ("CSV", _ONE_OF, "linear dual")}),
    "member": ("family membership witnesses", cmd_member, None, {
        "a": ("CSV", _REQUIRED, "the string"), "mode": (families.MODES, "strict", "side conditions")}),
    "embed": ("search for a lattice subset", cmd_embed, None, {
        "a": ("CSV", _REQUIRED, "the string"), "kind": (tuple(sorted(_KINDS)), _REQUIRED, "lattice")}),
    "homology": ("homology orders of the surgeries", cmd_homology, None, {"a": ("CSV", _REQUIRED, "the string")}),
    "classify": ("rational ball / circle verdicts", cmd_classify, ("what", ("surgery", "bundle", "braid")), {
        "a": ("CSV", None, "surgery and braid"), "t": (int, 0, "surgery and braid"),
        "matrix": ("A,B,C,D", None, "bundle monodromy"), "mode": (families.MODES, "strict", "surgery and braid")}),
    "braid": ("braid word whose double cover is the surgery", cmd_braid, None, {
        "a": ("CSV", _REQUIRED, "the string"), "t": (int, 0, "twist")}),
    "verify": ("exhaustive embedding-vs-family sweep", cmd_verify, None, {
        "max-n": (int, _REQUIRED, "longest string"), "mode": (families.MODES, "relaxed", ""),
        "workers": (int, os.cpu_count() or 1, ""), "csv": (bool, False, ""), "out": ("PATH", None, ""),
        "skip-until": ("CSV", None, "first string of the sweep")}),
    "fixtures": ("named subsets from the catalog", cmd_fixtures, None, {
        "name": ("NAME", None, "all names if omitted"), **{key: (int, None, "parameter") for key in "nkxy"}}),
}


def _options(command):
    """(usage word, help) of each option of a command."""
    for name, (kind, default, text) in COMMANDS[command][3].items():
        word = f"--{name}" + ("" if kind is bool else f" {kind}" if isinstance(kind, str) else " INT" if kind is int
                              else " {%s}" % ",".join(kind))
        yield (word if default is _REQUIRED else f"[{word}]"), text


def _usage(command):
    if command is None:
        return "usage: qball {%s} ..." % ",".join(COMMANDS)
    positional = COMMANDS[command][2]
    words = ["{%s}" % ",".join(positional[1])] if positional else []
    return " ".join(["usage: qball", command] + words + [word for word, _ in _options(command)])


def _fail(command, message):
    print(f"{_usage(command)}\nqball{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _help(command):
    head = __doc__.split("\n\nCOMMANDS")[0] if command is None else COMMANDS[command][0]
    rows = [(name, spec[0]) for name, spec in COMMANDS.items()] if command is None else _options(command)
    print("\n".join([_usage(command), "", head, ""] + [f"  {a:<28} {b}".rstrip() for a, b in rows]))
    raise SystemExit(0)


def parse_args(argv):
    """Read argv against COMMANDS: the handler and a namespace holding
    every option of the command.  Usage errors exit 1; -h exits 0."""
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        _help(command if command in COMMANDS else None)
    if command not in COMMANDS:
        _fail(None, f"argument command: choose one of {', '.join(COMMANDS)}")
    _, handler, positional, options = COMMANDS[command]
    try:
        pairs, rest = getopt.gnu_getopt(argv[1:], "", [name + "=" * (s[0] is not bool) for name, s in options.items()])
    except getopt.GetoptError as exc:
        _fail(command, str(exc))
    values = {name: spec[1] for name, spec in options.items()}
    for opt, value in pairs:
        kind = options[opt[2:]][0]
        try:
            values[opt[2:]] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            _fail(command, f"argument {opt}: invalid int value: {value!r}")
        if isinstance(kind, tuple) and value not in kind:
            _fail(command, f"argument {opt}: invalid choice: {value!r} (choose from {', '.join(kind)})")
    if positional:
        values[positional[0]] = rest.pop(0) if rest and rest[0] in positional[1] else _REQUIRED
    if rest:
        _fail(command, f"unrecognized arguments: {' '.join(rest)}")
    missing = [("--" if name in options else "") + name for name, value in values.items() if value is _REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    one_of = [name for name, spec in options.items() if spec[1] is _ONE_OF]
    if one_of and sum(values[name] is not _ONE_OF for name in one_of) != 1:
        _fail(command, f"give exactly one of {', '.join('--' + name for name in one_of)}")
    return handler, types.SimpleNamespace(**{k.replace("-", "_"): None if v is _ONE_OF else v for k, v in values.items()})


def run(argv=None, out=None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    close = False
    if out is None:
        if getattr(args, "out", None):
            out = _LazyFile(args.out)
            close = True
        else:
            out = sys.stdout
    try:
        try:
            return handler(args, out)
        except (chainstring.StringError, contfrac.ContfracError, ValueError, OSError) as exc:
            print(f"qball: error: {exc}", file=sys.stderr)
            return 1
    finally:
        if close:
            out.close()


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
