"""Command line front end: validate, derive, check, search, explain."""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import ParseError, UsageError, WorkbenchError
from .algebras import ValidationReport
from .documents import parse_documents, serialize_documents
from .checks import CHECKS, CONSTRUCTIONS, EXPLANATIONS, run_check, run_derive, run_validate
from .search import SearchSpec, TARGETS, run_search


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _load_documents(paths):
    docs = []
    for path in paths:
        docs.extend(parse_documents(_read_input(path)))
    return docs


def _write_output(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _render_witness(witness):
    return "(" + ",".join("e%d" % (w + 1) for w in witness) + ")"


def _render_vector(vector):
    terms = []
    for k, c in enumerate(vector):
        if c == 0:
            continue
        if c == 1:
            terms.append("e%d" % (k + 1))
        elif c == -1:
            terms.append("-e%d" % (k + 1))
        else:
            terms.append("%s*e%d" % (c, k + 1))
    return " + ".join(terms) if terms else "0"


def _print_report(report, verbose):
    failures = report.failures if verbose else report.failures[:10]
    for failure in failures:
        line = "  %s at %s" % (failure.identity, _render_witness(failure.witness))
        if failure.residual:
            line += ": residual %s" % _render_vector(failure.residual)
        print(line)
    hidden = len(report.failures) - len(failures)
    if hidden > 0:
        print("  ... %d more failure(s), rerun with --verbose" % hidden)


def _print_details(details):
    for key in sorted(details):
        value = details[key]
        if isinstance(value, bool):
            print("  %s: %s" % (key, "yes" if value else "no"))


def _jsonable(value):
    if isinstance(value, ValidationReport):
        return _jsonable(value.to_dict())
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def _cmd_validate(args):
    docs = _load_documents(args.files)
    worst = 0
    payload = []
    for index, doc in enumerate(docs):
        result = run_validate(doc)
        worst = max(worst, result.exit_code)
        if args.json:
            payload.append({"kind": doc.kind, "valid": result.report.valid,
                            "report": _jsonable(result.report)})
            continue
        label = "document %d (%s)" % (index + 1, doc.kind) if len(docs) > 1 else doc.kind
        if result.report.valid:
            print("%s: valid" % label)
        else:
            print("%s: invalid, %d failure(s)" % (label, result.report.failure_count))
            _print_report(result.report, args.verbose)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return worst


def _cmd_derive(args):
    docs = _load_documents(args.files)
    produced = run_derive(args.construction, docs)
    _write_output(serialize_documents(produced), args.out)
    return 0


def _cmd_check(args):
    docs = _load_documents(args.files)
    result = run_check(args.slug, docs)
    if args.json:
        print(json.dumps({"slug": args.slug, "holds": result.exit_code == 0,
                          "report": _jsonable(result.report)}, indent=2, sort_keys=True))
        return result.exit_code
    if result.exit_code == 0:
        print("%s: holds" % args.slug)
    else:
        print("%s: fails, %d failure(s)" % (args.slug, result.report.failure_count))
        _print_report(result.report, args.verbose)
    _print_details(result.report.details)
    return result.exit_code


def _parse_coeffs(text):
    try:
        values = [Fraction(token) for token in text.split(",") if token != ""]
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad coefficient list %r" % (text,))
    if not values:
        raise ParseError("empty coefficient list")
    return values


def _cmd_search(args):
    base = None
    if args.base is not None:
        base_docs = parse_documents(_read_input(args.base))
        if len(base_docs) != 1:
            raise ParseError("--base must hold exactly one document")
        base = base_docs[0].value
    spec = SearchSpec(args.target, dim=args.dim, coefficients=_parse_coeffs(args.coeffs),
                      mode=args.mode, seed=args.seed, limit=args.limit, base=base,
                      attempts=args.attempts, budget=args.budget)
    found = run_search(spec)
    if args.verbose:
        print("found %d document(s)" % len(found), file=sys.stderr)
    _write_output(serialize_documents(found), args.out)
    return 0


def _cmd_explain(args):
    print(args.slug)
    print(EXPLANATIONS[args.slug])
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="hombench",
        description="Exact-arithmetic workbench for twisted Lie and pre-Lie structures.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check every defining identity of a document")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--verbose", action="store_true", help="show all failures")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("derive", help="run a named construction on input documents")
    p.add_argument("construction", choices=sorted(CONSTRUCTIONS))
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--out", help="write the result here instead of stdout")

    p = sub.add_parser("check", help="verify a registered theorem on an instance")
    p.add_argument("slug", choices=sorted(CHECKS))
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--verbose", action="store_true", help="show all failures")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("search", help="enumerate or sample small examples")
    p.add_argument("target", choices=sorted(TARGETS))
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--coeffs", default="-1,0,1", help="comma-separated rationals")
    p.add_argument("--mode", choices=("exhaustive", "seeded"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--attempts", type=int, default=1000, help="draws in seeded mode")
    p.add_argument("--budget", type=int, default=200000, help="candidate evaluation cap")
    p.add_argument("--base", help="document file the target is searched over")
    p.add_argument("--out", help="write results here instead of stdout")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("explain", help="print the statement a check slug verifies")
    p.add_argument("slug", choices=sorted(EXPLANATIONS))
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "check": _cmd_check,
    "search": _cmd_search,
    "explain": _cmd_explain,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.verb](args)
    except (ParseError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
