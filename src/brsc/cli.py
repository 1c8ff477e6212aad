"""Command-line interface.

Complexes come in as JSON files ({"vertices": ..., "facets": ...}), as "-"
for stdin, or as catalog names with optional parameters ("jnmk:n=16,m=6,k=3").
All complex output uses the same JSON shape, with facets sorted by size then
bitmask, so output can be fed straight back in. Each command is one entry of
COMMANDS; main alone reads its input, prints its result and maps errors to
exit codes.

Exit codes: 0 success, 1 a reproduce check failed, 2 bad usage or input,
3 a capacity or budget limit was hit, 141 standard output was closed early
(128 + SIGPIPE, the code a shell gives a process that signal ends).
"""

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from .core import (
    CapacityError,
    Complex,
    DomainError,
    _by_size,
    _label_finder,
    _read_json,
    complex_from_json,
    complex_to_dict,
    contraction,
    is_paving,
    join,
    oplus,
    pure_part,
    restriction,
    sum_complex,
    truncate,
    union,
    write_complex_json,
)
from .lattice import closure, flats, is_boolean_representable
from .operators import b_d, up, up_iter
from .t_operator import (
    classify_minimality,
    codimension,
    goes_up,
    is_tbrsc,
    t_family,
    truncation_t_family,
)
from .matroid import (
    check_pure_conjecture,
    h_star,
    is_matroid,
    is_near_matroid,
    is_shellable,
    matroid_extension_candidate,
    search_matroid_extensions,
)
from .iso import are_isomorphic, canonical_complex, embeds
from .catalog import catalog_names, named
from . import reproduce as rp


def load_complex(arg):
    """File path, "-" for stdin, or catalog name with k=v parameters."""
    if arg == "-":
        return complex_from_json(sys.stdin.read())
    p = Path(arg)
    if p.exists():
        return complex_from_json(p.read_text())
    name, _, rest = arg.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        k, sep, v = item.partition("=")
        if not sep:
            raise DomainError(f"bad parameter {item!r}, expected key=value")
        try:
            params[k] = int(v)
        except ValueError:
            params[k] = v  # not an integer: the builder refuses it as a bad parameter
    return named(name, **params)


def parse_labels(C, text):
    """A vertex set to its mask. A text starting with "[" is a JSON array of
    labels, read as the labels of a JSON complex are. Otherwise the text
    lists labels by commas, each matching a string label equal to it or any
    other label whose JSON text it is (true, null, 2), and a part that names
    two vertices (the JSON labels 1 and "1") is refused."""
    m = 0
    if text.lstrip().startswith("["):
        find = _label_finder(C.labels)
        for l in _read_json(text):
            i = find(l)
            if i is None:
                raise DomainError(f"unknown vertex label {l!r}")
            m |= 1 << i
        return m
    texts = [l if isinstance(l, str) else json.dumps(l) for l in C.labels]
    for part in filter(None, (s.strip() for s in text.split(","))):
        hits = [i for i, t in enumerate(texts) if t == part]
        if not hits:
            raise DomainError(f"unknown vertex label {part!r}")
        if len(hits) > 1:
            raise DomainError(f"vertex label {part!r} names {len(hits)} vertices")
        m |= 1 << hits[0]
    return m


def emit(data):
    if isinstance(data, Complex):
        write_complex_json(data, sys.stdout)
    else:
        print(json.dumps(data, indent=2))


def _family_labels(C, fam):
    return [C.face_labels(m) for m in _by_size(fam.members)]


def _guarded(out, timings, key, fn, C):
    t0 = perf_counter()
    try:
        out[key] = fn(C)
    except (CapacityError, DomainError):
        out[key] = None
    timings[key] = round(perf_counter() - t0, 4)


# the properties of `brsc check`, in report order; each null past a limit or where undefined
CHECKS = (
    ("paving", is_paving),
    ("brsc", lambda C: is_boolean_representable(C)[0]),
    ("tbrsc", is_tbrsc),
    ("matroid", lambda C: is_matroid(C)[0]),
    ("near_matroid", lambda C: is_near_matroid(C)[0]),
    ("shellable", lambda C: is_shellable(C) is not None),
    ("codim", codimension),
    ("classification", classify_minimality),
)


def _check(C, args):
    out, scan, timings = {"vertices": C.n, "dim": C.dim}, {}, {}
    # brsc and near_matroid share the cached flat listing; time it on its own,
    # as null when the faces or the flats pass core.SET_LIMIT
    _guarded(scan, timings, "flats", flats, C)
    if scan["flats"] is None:
        timings["flats"] = None
    for key, fn in CHECKS:
        _guarded(out, timings, key, fn, C)
    out["timings"] = timings
    return out


def _brcheck(C, args):
    ok, witness = is_boolean_representable(C)
    return {"brsc": ok, "witness": None if witness is None else C.face_labels(witness)}


def _tfam(C, args):
    fam = t_family(C) if args.k is None else truncation_t_family(C, args.k)
    return {"members": _family_labels(C, fam)}


def _classify(C, args):
    rep = goes_up(C)
    return {
        "classification": classify_minimality(C),
        "verdict": rep.verdict,
        "t_family_size": rep.t_family_size,
        "max_chain_length": rep.max_chain_length,
        "dim_jt": rep.dim_JT,
    }


def _matroid_check(C, args):
    ok, pair = is_matroid(C)
    return {
        "matroid": ok,
        "near_matroid": is_near_matroid(C)[0],
        "witness": None if pair is None else [C.face_labels(x) for x in pair],
    }


def _extend(C, args):
    cand, verdict = matroid_extension_candidate(C)
    if verdict == "no_extension":
        return {"verdict": verdict}
    return {"verdict": verdict, "candidate": complex_to_dict(cand)}


def _search(C, args):
    res = search_matroid_extensions(C, budget=args.budget)
    return {"complete": res.complete, "nodes": res.nodes, "extensions": [complex_to_dict(E) for E in res.extensions]}


def _shelling(C, args):
    sh = is_shellable(C)
    return {"shellable": sh is not None, "order": None if sh is None else [C.face_labels(f) for f in sh.order]}


# `brsc matroid` on one complex, called with it and the parsed arguments
MATROID = {
    "check": _matroid_check,
    "extend": _extend,
    "search": _search,
    "shelling": _shelling,
    "hstar": lambda C, args: h_star(C),
    "pure": lambda C, args: check_pure_conjecture(C, 3 if args.k is None else args.k),
}

# `brsc op` on one complex, called with it and the parsed arguments, and on
# two complexes; "bd" builds its complex from the options alone
ONE_OPS = {
    "up": lambda C, args: up(C) if args.m is None else up_iter(C, args.m),
    "pure": lambda C, args: pure_part(C),
    "truncate": lambda C, args: truncate(C, _require(args.k, "--k")),
    "restrict": lambda C, args: restriction(C, parse_labels(C, _require(args.set, "--set"))),
    "contract": lambda C, args: contraction(C, parse_labels(C, _require(args.set, "--set"))),
}
TWO_OPS = {"union": union, "sum": sum_complex, "join": join, "oplus": oplus}


def _require(value, flag):
    if value is None:
        raise DomainError(f"this operation needs {flag}")
    return value


def _op(args):
    if args.op == "bd":
        if args.inputs:
            raise DomainError("op bd takes no complex")
        n = _require(args.n, "--n")
        return b_d(n, parse_labels(Complex(n, ()), _require(args.line, "--line")), args.d)
    if args.op in ONE_OPS:
        if len(args.inputs) != 1:
            raise DomainError(f"op {args.op} needs one complex")
        return ONE_OPS[args.op](load_complex(args.inputs[0]), args)
    if len(args.inputs) != 2:
        raise DomainError(f"op {args.op} needs two complexes")
    return TWO_OPS[args.op](*map(load_complex, args.inputs))


def _iso(args):
    if args.sub == "canon":
        if len(args.inputs) != 1:
            raise DomainError("iso canon needs one complex")
        return canonical_complex(load_complex(args.inputs[0]))
    if len(args.inputs) != 2:
        raise DomainError(f"iso {args.sub} needs two complexes")
    C, D = map(load_complex, args.inputs)
    if args.sub == "check":
        return {"isomorphic": are_isomorphic(C, D)}
    m = embeds(C, D)
    images = None if m is None else {str(C.labels[i]): D.labels[m[i]] for i in range(C.n)}
    return {"embeds": m is not None, "map": images}


def _catalog(args):
    if args.sub == "get":
        return load_complex(args.name)
    return {"names": [{"name": n, "params": d} for n, d in catalog_names()]}


def _reproduce(args):
    """Prints the criteria's reports and returns the exit code."""
    if args.list:
        for row in rp.REPRODUCE_TABLE:
            kind = "acceptance" if row.acceptance else "extra"
            print(f"{row.tag:16s} {kind:10s} budget {row.budget:>5.0f}s  {row.title}")
        return 0
    tags = args.tags or [r.tag for r in rp.acceptance_rows()]
    known = set(rp.available_tags())
    unknown = [t for t in tags if t not in known]
    if unknown:
        print(f"unknown tags: {', '.join(unknown)}", file=sys.stderr)
        print("available: " + ", ".join(rp.available_tags()), file=sys.stderr)
        return 2
    reports = [rp.run_criterion(t) for t in tags]
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        note = "" if rep.elapsed <= rep.budget else f"  OVER BUDGET ({rep.budget:.0f}s)"
        print(f"{status}  {rep.tag}  {rep.elapsed:.1f}s{note}  {rep.title}")
        for line in rep.lines():
            print(line)
    failed = sum(not rep.ok for rep in reports)
    print(f"{len(reports) - failed}/{len(reports)} criteria passed")
    if failed:
        return 1
    return 3 if any(rep.elapsed > rep.budget for rep in reports) else 0


INPUT = ("input", {})
K_OPTION = ("--k", {"type": int})

# name: (function, help, arguments in order). A command with an "input"
# argument is called with that complex and the parsed arguments, and main
# prints "id" first in its dict result; the others get the arguments alone
COMMANDS = {
    "check": (_check, "full property report for one complex", [INPUT]),
    "flats": (lambda C, args: {"flats": _family_labels(C, flats(C))}, "all flats", [INPUT]),
    "closure": (
        lambda C, args: {"closure": C.face_labels(closure(C, parse_labels(C, args.set)))},
        "closure of a vertex set",
        [INPUT, ("--set", {"required": True, "help": "comma-separated labels, or a JSON array of labels"})],
    ),
    "brcheck": (_brcheck, "boolean representability with witness", [INPUT]),
    "tfam": (_tfam, "T-family, or rank-k truncation family with --k", [INPUT, K_OPTION]),
    "tbrsc": (lambda C, args: {"tbrsc": is_tbrsc(C)}, "is the complex a TBRSC", [INPUT]),
    "codim": (lambda C, args: {"codim": codimension(C)}, "codimension inside its T-family complex", [INPUT]),
    "classify": (_classify, "going-up classification of a paving complex", [INPUT]),
    "op": (
        _op,
        "apply an operator, output the complex",
        [
            ("op", {"choices": (*ONE_OPS, *TWO_OPS, "bd")}),
            ("inputs", {"nargs": "*"}),
            K_OPTION,
            ("--m", {"type": int}),
            ("--n", {"type": int}),
            ("--d", {"type": int, "default": 2}),
            ("--set", {}),
            ("--line", {}),
        ],
    ),
    "matroid": (
        lambda C, args: MATROID[args.sub](C, args),
        "matroid checks, extensions, shellings",
        [("sub", {"choices": tuple(MATROID)}), INPUT, K_OPTION, ("--budget", {"type": int, "default": 10**8})],
    ),
    "catalog": (
        _catalog,
        "list or print the built-in complexes",
        [("sub", {"choices": ("list", "get")}), ("name", {"nargs": "?"})],
    ),
    "iso": (
        _iso,
        "isomorphism, canonical form, embeddings",
        [("sub", {"choices": ("check", "canon", "embed")}), ("inputs", {"nargs": "+"})],
    ),
    "reproduce": (
        _reproduce,
        "rerun the tagged result reproductions",
        [("tags", {"nargs": "*"}), ("--list", {"action": "store_true"})],
    ),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="brsc",
        description="Boolean representable simplicial complexes: checks, operators, reproduction.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (fn, text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        for arg, kw in arguments:
            p.add_argument(arg, **kw)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "catalog" and args.sub == "get" and not args.name:
        ap.error("catalog get needs a name")
    try:
        code = 0
        if args.cmd == "reproduce":
            code = args.fn(args)
        elif "input" in args:
            out = args.fn(load_complex(args.input), args)
            emit({"id": args.input, **out} if isinstance(out, dict) else out)
        else:
            emit(args.fn(args))
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
