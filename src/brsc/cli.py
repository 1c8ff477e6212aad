"""Command-line interface.

Complexes come in as JSON files ({"vertices": ..., "facets": ...}), as "-"
for stdin, or as catalog names with optional parameters ("jnmk:n=16,m=6,k=3").
All complex output uses the same JSON shape, with facets sorted by size then
bitmask, so output can be fed straight back in.

Exit codes: 0 success, 1 a reproduce check failed, 2 bad usage or input,
3 a capacity or budget limit was hit.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

from .core import (
    CapacityError,
    Complex,
    DomainError,
    complex_from_json,
    complex_to_json,
    contraction,
    is_paving,
    join,
    oplus,
    pure_part,
    restriction,
    sum_complex,
    truncate,
    union,
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
        params[k] = int(v) if v.lstrip("-").isdigit() else v
    return named(name, **params)


def parse_labels(C, text):
    """Comma-separated labels to a vertex mask."""
    pos = {str(l): i for i, l in enumerate(C.labels)}
    m = 0
    for part in filter(None, (s.strip() for s in text.split(","))):
        if part not in pos:
            raise DomainError(f"unknown vertex label {part!r}")
        m |= 1 << pos[part]
    return m


def emit(data):
    if isinstance(data, Complex):
        print(complex_to_json(data, indent=2))
    else:
        print(json.dumps(data, indent=2))


def _family_labels(C, fam):
    members = sorted(fam.members, key=lambda m: (m.bit_count(), m))
    return [C.face_labels(m) for m in members]


def _guarded(out, timings, key, fn):
    t0 = perf_counter()
    try:
        out[key] = fn()
    except (CapacityError, DomainError):
        out[key] = None
    timings[key] = round(perf_counter() - t0, 4)


def cmd_check(args):
    C = load_complex(args.input)
    out = {"id": args.input, "vertices": C.n}
    timings = {}
    out["dim"] = C.dim
    # brsc and near_matroid share the cached flat scan; time it on its own,
    # as null when it is out of range
    scan = {}
    _guarded(scan, timings, "flats", lambda: flats(C))
    if scan["flats"] is None:
        timings["flats"] = None
    _guarded(out, timings, "paving", lambda: is_paving(C))
    _guarded(out, timings, "brsc", lambda: is_boolean_representable(C)[0])
    _guarded(out, timings, "tbrsc", lambda: is_tbrsc(C))
    _guarded(out, timings, "matroid", lambda: is_matroid(C)[0])
    _guarded(out, timings, "near_matroid", lambda: is_near_matroid(C)[0])
    _guarded(out, timings, "shellable", lambda: is_shellable(C) is not None)
    _guarded(out, timings, "codim", lambda: codimension(C))
    _guarded(out, timings, "classification", lambda: classify_minimality(C))
    out["timings"] = timings
    emit(out)
    return 0


def cmd_flats(args):
    C = load_complex(args.input)
    emit({"id": args.input, "flats": _family_labels(C, flats(C))})
    return 0


def cmd_closure(args):
    C = load_complex(args.input)
    X = parse_labels(C, args.set)
    emit({"id": args.input, "closure": C.face_labels(closure(C, X))})
    return 0


def cmd_brcheck(args):
    C = load_complex(args.input)
    ok, witness = is_boolean_representable(C)
    emit(
        {
            "id": args.input,
            "brsc": ok,
            "witness": None if witness is None else C.face_labels(witness),
        }
    )
    return 0


def cmd_tfam(args):
    C = load_complex(args.input)
    fam = t_family(C) if args.k is None else truncation_t_family(C, args.k)
    emit({"id": args.input, "members": _family_labels(C, fam)})
    return 0


def cmd_tbrsc(args):
    C = load_complex(args.input)
    emit({"id": args.input, "tbrsc": is_tbrsc(C)})
    return 0


def cmd_codim(args):
    C = load_complex(args.input)
    emit({"id": args.input, "codim": codimension(C)})
    return 0


def cmd_classify(args):
    C = load_complex(args.input)
    rep = goes_up(C)
    emit(
        {
            "id": args.input,
            "classification": classify_minimality(C),
            "verdict": rep.verdict,
            "t_family_size": rep.t_family_size,
            "max_chain_length": rep.max_chain_length,
            "dim_jt": rep.dim_JT,
        }
    )
    return 0


def cmd_op(args):
    one = {
        "up": lambda C: up(C) if args.m is None else up_iter(C, args.m),
        "pure": pure_part,
        "truncate": lambda C: truncate(C, _require(args.k, "--k")),
        "restrict": lambda C: restriction(C, parse_labels(C, _require(args.set, "--set"))),
        "contract": lambda C: contraction(C, parse_labels(C, _require(args.set, "--set"))),
    }
    two = {"union": union, "sum": sum_complex, "join": join, "oplus": oplus}
    if args.op == "bd":
        n = _require(args.n, "--n")
        C = Complex(n, ())
        L = parse_labels(C, _require(args.line, "--line"))
        emit(b_d(n, L, args.d))
        return 0
    if args.op in one:
        if not args.inputs:
            raise DomainError(f"op {args.op} needs one complex")
        emit(one[args.op](load_complex(args.inputs[0])))
        return 0
    if args.op in two:
        if len(args.inputs) != 2:
            raise DomainError(f"op {args.op} needs two complexes")
        emit(two[args.op](load_complex(args.inputs[0]), load_complex(args.inputs[1])))
        return 0
    raise DomainError(f"unknown op {args.op!r}")


def _require(value, flag):
    if value is None:
        raise DomainError(f"this operation needs {flag}")
    return value


def cmd_matroid(args):
    C = load_complex(args.input)
    if args.sub == "check":
        ok, pair = is_matroid(C)
        emit(
            {
                "id": args.input,
                "matroid": ok,
                "near_matroid": is_near_matroid(C)[0],
                "witness": None if pair is None else [C.face_labels(x) for x in pair],
            }
        )
    elif args.sub == "extend":
        cand, verdict = matroid_extension_candidate(C)
        out = {"id": args.input, "verdict": verdict}
        if verdict != "no_extension":
            out["candidate"] = json.loads(complex_to_json(cand))
        emit(out)
    elif args.sub == "search":
        res = search_matroid_extensions(C, budget=args.budget)
        emit(
            {
                "id": args.input,
                "complete": res.complete,
                "nodes": res.nodes,
                "extensions": [json.loads(complex_to_json(E)) for E in res.extensions],
            }
        )
    elif args.sub == "shelling":
        sh = is_shellable(C)
        emit(
            {
                "id": args.input,
                "shellable": sh is not None,
                "order": None if sh is None else [C.face_labels(f) for f in sh.order],
            }
        )
    elif args.sub == "hstar":
        emit(h_star(C))
    else:
        r = check_pure_conjecture(C, args.k if args.k is not None else 3)
        emit({"id": args.input, **r})
    return 0


def cmd_catalog(args):
    if args.sub == "list":
        emit({"names": [{"name": n, "params": d} for n, d in catalog_names()]})
    else:
        emit(load_complex(args.name))
    return 0


def cmd_iso(args):
    if args.sub == "canon":
        emit(canonical_complex(load_complex(args.inputs[0])))
        return 0
    if len(args.inputs) != 2:
        raise DomainError(f"iso {args.sub} needs two complexes")
    C, D = (load_complex(a) for a in args.inputs)
    if args.sub == "check":
        emit({"isomorphic": are_isomorphic(C, D)})
    else:
        m = embeds(C, D)
        emit(
            {
                "embeds": m is not None,
                "map": None
                if m is None
                else {str(C.labels[i]): D.labels[m[i]] for i in range(C.n)},
            }
        )
    return 0


def _run_tag(tag, params):
    return rp.run_criterion(tag, **params)


def cmd_reproduce(args):
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
    params = {}
    if args.n is not None:
        if len(tags) != 1:
            raise DomainError("--n applies to a single tag")
        params["n"] = args.n
    if args.threads > 1 and len(tags) > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            reports = list(pool.map(_run_tag, tags, [params] * len(tags)))
    else:
        reports = [rp.run_criterion(t, **params) for t in tags]
    failed = over = 0
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        within = rep.elapsed <= rep.budget
        if not rep.ok:
            failed += 1
        if not within:
            over += 1
        note = "" if within else f"  OVER BUDGET ({rep.budget:.0f}s)"
        print(f"{status}  {rep.tag}  {rep.elapsed:.1f}s{note}  {rep.title}")
        for line in rep.lines():
            print(line)
    print(f"{len(reports) - failed}/{len(reports)} criteria passed")
    if failed:
        return 1
    return 3 if over else 0


def build_parser():
    default_threads = int(os.environ.get("BRSC_THREADS", "1") or "1")
    ap = argparse.ArgumentParser(
        prog="brsc",
        description="Boolean representable simplicial complexes: checks, operators, reproduction.",
    )
    ap.add_argument("--threads", type=int, default=default_threads)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, help="full property report for one complex")
    p.add_argument("input")
    p = add("flats", cmd_flats, help="all flats")
    p.add_argument("input")
    p = add("closure", cmd_closure, help="closure of a vertex set")
    p.add_argument("input")
    p.add_argument("--set", required=True, help="comma-separated labels")
    p = add("brcheck", cmd_brcheck, help="boolean representability with witness")
    p.add_argument("input")
    p = add("tfam", cmd_tfam, help="T-family, or rank-k truncation family with --k")
    p.add_argument("input")
    p.add_argument("--k", type=int)
    p = add("tbrsc", cmd_tbrsc, help="is the complex a TBRSC")
    p.add_argument("input")
    p = add("codim", cmd_codim, help="codimension inside its T-family complex")
    p.add_argument("input")
    p = add("classify", cmd_classify, help="going-up classification of a paving complex")
    p.add_argument("input")
    p = add("op", cmd_op, help="apply an operator, output the complex")
    p.add_argument(
        "op",
        choices=(
            "up",
            "pure",
            "truncate",
            "restrict",
            "contract",
            "union",
            "sum",
            "join",
            "oplus",
            "bd",
        ),
    )
    p.add_argument("inputs", nargs="*")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--set")
    p.add_argument("--line")
    p = add("matroid", cmd_matroid, help="matroid checks, extensions, shellings")
    p.add_argument("sub", choices=("check", "extend", "search", "shelling", "hstar", "pure"))
    p.add_argument("input")
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=int, default=10**8)
    p = add("catalog", cmd_catalog, help="list or print the built-in complexes")
    p.add_argument("sub", choices=("list", "get"))
    p.add_argument("name", nargs="?")
    p = add("iso", cmd_iso, help="isomorphism, canonical form, embeddings")
    p.add_argument("sub", choices=("check", "canon", "embed"))
    p.add_argument("inputs", nargs="+")
    p = add("reproduce", cmd_reproduce, help="rerun the tagged result reproductions")
    p.add_argument("tags", nargs="*")
    p.add_argument("--list", action="store_true")
    p.add_argument("--n", type=int, help="vertex count for parameterized tags")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "catalog" and args.sub == "get" and not args.name:
        ap.error("catalog get needs a name")
    try:
        return args.fn(args)
    except (DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
