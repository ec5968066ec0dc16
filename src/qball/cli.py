"""Command-line front end.

Every command is a thin wrapper over the library and emits JSON lines
on stdout (or CSV for the verification sweep with --csv).  Strings are
passed as comma-separated coefficients, e.g. --a 3,2,2,3,5.

Exit codes: 0 on success, 2 when a classification came out Unknown (so
scripts can branch on it), 1 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chainstring, classifier, contfrac, embedsearch, families, lattice


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qball", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="linear or cyclic dual of a string")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cyclic", metavar="CSV")
    group.add_argument("--linear", metavar="CSV")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("member", help="family membership witnesses")
    p.add_argument("--a", required=True, metavar="CSV")
    p.add_argument("--mode", choices=families.MODES, default="strict")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("embed", help="search for a lattice subset")
    p.add_argument("--a", required=True, metavar="CSV")
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("homology", help="homology orders of the surgeries")
    p.add_argument("--a", required=True, metavar="CSV")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("classify", help="rational ball / circle verdicts")
    p.add_argument("what", choices=("surgery", "bundle", "braid"))
    p.add_argument("--a", metavar="CSV")
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--matrix", metavar="A,B,C,D", help="bundle monodromy entries")
    p.add_argument("--mode", choices=families.MODES, default="strict", help="surgery and braid only")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("braid", help="braid word whose double cover is the surgery")
    p.add_argument("--a", required=True, metavar="CSV")
    p.add_argument("--t", type=int, default=0)
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("verify", help="exhaustive embedding-vs-family sweep")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--mode", choices=families.MODES, default="relaxed")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--skip-until", metavar="CSV", dest="skip_until")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="named subsets from the catalog")
    p.add_argument("--name")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.set_defaults(func=cmd_fixtures)

    return parser


def run(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    close = False
    if out is None:
        if getattr(args, "out", None):
            out = _LazyFile(args.out)
            close = True
        else:
            out = sys.stdout
    try:
        try:
            return args.func(args, out)
        except (chainstring.StringError, contfrac.ContfracError, ValueError) as exc:
            print(f"qball: error: {exc}", file=sys.stderr)
            return 1
    finally:
        if close:
            out.close()


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
