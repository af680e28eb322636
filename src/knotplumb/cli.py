"""Command-line surface tying the pipeline together.

Subcommands: contfrac (negative continued fractions), graph (plumbing
construction), embed (lattice-embedding decision/enumeration), sweep
(parameter sweep to CSV) and audit (sweep verdicts against the expected
families).  Exit codes partition outcomes so scripts can branch on them:

    0  success (embed: embedding found; audit: perfect agreement)
    1  invalid input (bad fraction/spec/ranges, non-algebraic tower,
       not negative definite, a tree of over 10^6 vertices to build or
       search, bad config)
    2  graph --reduced/--closed-form or embed --pairs with N < 0 (no
       negative definite form) or N = 0 (possibly a connected sum)
    3  embed: no embedding exists (exhaustive)
    4  embed: search budget exhausted, indeterminate
    5  audit: disagreements or indeterminate rows

Defaults may be supplied in a flat key=value config file (--config);
explicit flags override it, unknown keys are rejected.  The default
output directory is $KNOTPLUMB_OUT, falling back to the current
directory.  A call builds the top-level parser and, of the subcommands'
parsers, only the one its argv names, and asks the terminal's width
once.  graph and embed --pairs count a tree's vertices from its
builder's entries and build none past 10^6, and sweep and audit count
so every tree they would search; embed --pairs searches the builder's
rows, as a sweep does, with no tree frozen.  Each file format has one
reader or writer: a graph file is decoded once, a witness file written
from sparse vectors a row at a time (_write_witness, named by a spec's
integers or a graph file's basename), and the CSV rendered, only to be
written or printed, once in the body sweep and audit share.  A witness
stays the search's sparse vectors up to its bytes: embed prints them,
embed and a sweep write them as they are, embed --enumerate prints its
classes sparse, and no command makes a dense witness.
"""

import argparse
import json
import os
import re
import shutil
import stat
import sys
from functools import partial
from itertools import chain

from . import hjcf
from .cabling import (
    CableTower,
    ReducibleBoundaryError,
    SurgerySpec,
    UnsupportedTowerError,
    _fold,
    _raw_builder,
    _reduced_builder,
    _require_two_iter,
    reduced_plumbing,  # unused; perfbench's LAYER_PATCHES wraps cli.reduced_plumbing
)
from .classify import (
    DEFAULT_BUDGET,
    admissible_tuples,
    rows_to_csv,
    searched,
    sweep,
    theorem_audit,
)
from .lattice import SearchStatus, _render, enumerate_embeddings, find_embedding
from .plumbing import (
    NoNegativeDefiniteFormError,
    WeightedTree,
    det_exact,  # unused; perfbench's LAYER_PATCHES wraps cli.det_exact
    form_invariants,
    is_negative_definite,  # unused; perfbench's LAYER_PATCHES wraps cli.is_negative_definite
)


def _int(text):
    """int(text) of an optional '-' and ASCII digits only: int() alone also
    takes spaces, '+', '_' and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)  # ValueError past int()'s digit limit


_int.__name__ = "int"  # argparse and load_config name the type in errors

CONFIG_KEYS = {"out": str, "workers": _int, "budget": _int, "timing": bool}


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def load_config(path) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys are rejected."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = CONFIG_KEYS[key]
        if typ is bool:
            if val.lower() not in ("0", "1", "true", "false"):
                raise CliError(f"{path}:{lineno}: boolean expected for {key}")
            values[key] = val.lower() in ("1", "true")
        else:
            try:
                values[key] = typ(val)
            except ValueError:
                raise CliError(f"{path}:{lineno}: {typ.__name__} expected for {key}")
    return values


def resolve(args, config, key, default):
    flag = getattr(args, key, None)
    return flag if flag is not None else config.get(key, default)


def resolve_positive(args, config, key, default):
    value = resolve(args, config, key, default)
    if value < 1:
        raise CliError(f"{key} must be at least 1, got {value}")
    return value


def _write_text(path, parts):
    """Write the strings of parts to path in turn.  A regular or missing
    file, found through any symlinks, is replaced by renaming a new sibling
    (0o666 less the umask) over it; a device or FIFO is written in place."""
    try:
        try:
            in_place = not stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            in_place = False
        if in_place:
            with open(path, "w") as fh:
                fh.writelines(parts)
            return
        # a sibling of a path through a symlinked directory is renamed in
        # that directory, so only a symlink at the end needs resolving
        target = os.path.realpath(path) if os.path.islink(path) else path
        tmp = f"{target}.{os.urandom(4).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w") as fh:
                fh.writelines(parts)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is not None:  # name path, not the sibling
            exc = OSError(exc.errno, exc.strerror, path)
        raise CliError(f"cannot write {path}: {exc}")


def _make_out_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory: {exc}")


_ZEROS = "0, " * 4096


def _row_text(vec, rank):
    """json.dumps of the rank ints of which vec, (coordinate, entry) pairs
    ascending, holds the nonzero ones, joined once: each entry and its
    ", ", a stretch of zeros as _ZEROS and a slice of it, the last ", "
    cut from its piece, so no dense row and no other copy of the text is
    made."""
    parts, at = ["["], 0
    for k, x in chain(vec, [(rank, None)]):
        z = k - at
        if z >= 4096:
            parts += [_ZEROS] * (z // 4096)
            z %= 4096
        if z:
            parts.append(_ZEROS[: 3 * z])
        if k < rank:
            parts.append(f"{x}, ")
        at = k + 1
    parts[-1] = parts[-1][:-2] + "]" if rank else "[]"
    return "".join(parts)


def _write_witness(out_dir, key, vectors, rank) -> str:
    """Write witness_<key's items joined by '_'>.json as json.dumps writes
    {"rank": rank, "vectors": [...]}, of sparse vectors as _row_text
    takes them, a row's text at a time."""
    path = os.path.join(out_dir, f"witness_{'_'.join(map(str, key))}.json")
    head = f'{{"rank": {rank}, "vectors": ['
    rows = (part for i, vec in enumerate(vectors) for part in (", " if i else "", _row_text(vec, rank)))
    _write_text(path, chain([head], rows, ["]}"]))
    return path


def _parse_int_list(text):
    try:
        return [_int(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}")


def _parse_spec(args) -> SurgerySpec:
    vals = _parse_int_list(args.pairs)
    if len(vals) % 2 != 0 or not vals:
        raise CliError(f"--pairs wants p1,a1[,p2,a2...], got {args.pairs!r}")
    pairs = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    try:
        return SurgerySpec(CableTower(pairs), args.n)
    except ValueError as exc:
        raise CliError(str(exc))


# -- contfrac -----------------------------------------------------------------

MAX_COEFFICIENTS = 10**6  # the longest list contfrac prints, checked before expanding


def cmd_contfrac(args, config):
    if args.eval is not None:
        if args.fraction is not None or args.dual or args.reverse:
            raise CliError("--eval takes no fraction, --dual or --reverse")
        coeffs = tuple(_parse_int_list(args.eval))
        try:
            value = hjcf.eval_neg_cf(coeffs)
        except ValueError as exc:
            raise CliError(str(exc))
        out = {"coefficients": list(coeffs), "value": str(value)}
        text = str(value)
    else:
        if args.fraction is None:
            raise CliError("give a fraction like 7/2, or --eval coefficients")
        try:
            num, slash, den = args.fraction.partition("/")
            p, q = _int(num), _int(den) if slash else 1
            longest = hjcf._expansion_length(p, q)
            if args.dual:
                longest = max(longest, hjcf._expansion_length(p, p - q))
            if longest > MAX_COEFFICIENTS:
                raise CliError(f"a list of {longest} coefficients; contfrac prints at most {MAX_COEFFICIENTS}")
            coeffs = hjcf.expand_neg_cf(p, q)
            value = hjcf.eval_neg_cf(coeffs)
        except ValueError as exc:
            raise CliError(str(exc))
        out = {"value": str(value), "coefficients": list(coeffs)}
        if args.dual:
            coeffs = hjcf.dual_point_rule(coeffs)
            out["dual"] = list(coeffs)
            out["dual_value"] = str(hjcf.eval_neg_cf(coeffs))
        if args.reverse:
            coeffs = tuple(reversed(coeffs))
            out["reversed"] = list(coeffs)
            out["reversed_value"] = str(hjcf.eval_neg_cf(coeffs))
        text = "[" + ",".join(str(a) for a in coeffs) + "]"
    print(json.dumps(out) if args.json else text)
    return 0


# -- graph --------------------------------------------------------------------


MAX_VERTICES = 10**6  # the largest tree a command builds or searches, counted before expanding
MAX_TUPLES = 2_000_000  # the largest range sweep and audit build, counted before building it


def _builder(spec, kind, gaps):
    """The builder of kind's tree, checked as its public builder checks
    it, with its vertices counted, runs whole, before any is expanded."""
    try:
        if kind == "closed-form":
            _require_two_iter(spec)
        build = _raw_builder(spec) if kind == "raw" else _reduced_builder(spec, gaps)
    except UnsupportedTowerError as exc:
        raise CliError(str(exc))
    except (NoNegativeDefiniteFormError, ReducibleBoundaryError) as exc:
        raise CliError(str(exc), code=2)
    vertices = build.vertices()
    if vertices > MAX_VERTICES:
        raise CliError(f"a tree of {vertices} vertices; graph and embed build at most {MAX_VERTICES}")
    return build


def cmd_graph(args, config):
    spec = _parse_spec(args)
    build = _builder(spec, args.kind, gaps=args.kind == "reduced")
    if args.kind == "reduced":  # as reduced_plumbing, with no roles
        tree, roles = build.finish(spec, with_roles=False), None
    else:
        tree, roles = build.finish(spec, with_roles=True)
    det, negdef = form_invariants(tree)
    if args.dot:
        print(tree.to_dot(roles))
    elif args.json:
        # to_json's text spliced in as it is, not decoded and encoded again
        rest = {"rank": len(tree), "det": abs(det), "negative_definite": negdef}
        if roles:
            rest["roles"] = {str(v): r for v, r in roles.items()}
        print('{"tree": ' + tree.to_json() + ", " + json.dumps(rest)[1:])
    else:
        print(f"rank {len(tree)}")
        print(f"det {abs(det)}")
        print(f"negative definite: {'yes' if negdef else 'no'}")
    return 0


# -- embed --------------------------------------------------------------------


def _embed_input(args):
    """The form to search (a tree, or a spec's builder's rows), its vertex
    count and the witness file's key."""
    if args.graph_file:
        try:
            with open(args.graph_file) as fh:
                obj = json.load(fh)
            if "tree" in obj:  # graph --json's output
                obj = obj["tree"]
            tree = WeightedTree._from_obj(obj)
        except OSError as exc:
            raise CliError(f"cannot read graph: {exc}")
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            # RecursionError: json.load on deeply nested arrays or objects
            raise CliError(f"{args.graph_file}: not a plumbing tree: {exc!r}")
        return tree, len(tree), [os.path.splitext(os.path.basename(args.graph_file))[0]]
    if args.pairs is None or args.n is None:
        raise CliError("give a graph file, or --pairs and --n")
    spec = _parse_spec(args)
    # reduced_plumbing's tree, ids 0..n-1, searched as classify_one does:
    # the builder's rows, no tree frozen
    build = _builder(spec, "reduced", gaps=False)
    rows = build.rows(build.form[1])
    return rows, len(rows[0]), [x for pair in spec.knot.pairs for x in pair] + [spec.n]


MAX_RANK = 10**6  # the widest rank embed takes: a witness holds one entry per coordinate


def cmd_embed(args, config):
    if args.rank is not None and args.rank > MAX_RANK:
        raise CliError(f"--rank {args.rank}; embed takes a rank of at most {MAX_RANK}")
    if args.locally_minimal and not args.enumerate:
        raise CliError("--locally-minimal needs --enumerate")
    if args.enumerate and args.budget is not None:
        # enumerate_embeddings takes no budget: a cut-short class list has no Indeterminate
        raise CliError("--budget does not apply to --enumerate")
    form, vertices, key = _embed_input(args)
    rank = args.rank if args.rank is not None else vertices
    budget = resolve_positive(args, config, "budget", DEFAULT_BUDGET)
    out_dir = resolve(args, config, "out", os.environ.get("KNOTPLUMB_OUT", "."))
    try:
        if args.enumerate:
            classes = enumerate_embeddings(
                form, rank=rank, locally_minimal_only=args.locally_minimal
            )
        else:
            result = find_embedding(form, rank=rank, budget=budget)
    except ValueError as exc:  # not negative definite, or rank < 1
        raise CliError(str(exc))
    if args.enumerate:
        print(f"{len(classes)} embedding class(es) into rank {rank}")
        for i, cls in enumerate(classes, start=1):
            print(f"class {i}:")
            for vec in cls:
                print(f"  {_render(vec)}")
        return 0
    if result.status is SearchStatus.FOUND:
        # the checked sparse vectors, rendered and written with no dense copy
        _make_out_dir(out_dir)
        path = _write_witness(out_dir, key, result.vectors, rank)
        lines = [f"  {_render(vec)}" for vec in result.vectors]
        print(f"embedding found into rank {rank} ({result.nodes} nodes)", *lines,
              f"witness written to {path}", sep="\n")
        return 0
    if result.status is SearchStatus.NONE:
        print(f"no embedding into rank {rank} (exhausted after {result.nodes} nodes)")
        return 3
    print(f"indeterminate: budget of {budget} nodes exhausted")
    return 4


# -- sweep and audit ----------------------------------------------------------


def _range_size(p1s, k1s, p2s, k2_max, ns):
    """len(admissible_tuples(...)) in closed form, with no tuple built:
    each distinct (p1, k1) has its own a1 and k2 >= p1 * a1, each k2 two
    a2's (one when p2 = 2), and each distinct N its own n."""
    k2s = sum(max(0, k2_max - p1 * (k1 * p1 + 1) + 1) for p1 in set(p1s) for k1 in set(k1s))
    return k2s * sum(1 if p2 == 2 else 2 for p2 in set(p2s)) * len(set(ns))


def _range_tuples(args):
    p1s = _parse_int_list(args.p1)
    k1s = _parse_int_list(args.k1)
    p2s = _parse_int_list(args.p2)
    ns = _parse_int_list(args.N)
    if args.k2_max < 1 or not p1s or not k1s or not p2s or not ns:
        raise CliError("invalid ranges")
    if any(p < 2 for p in p1s + p2s) or any(k < 1 for k in k1s):
        raise CliError("invalid ranges: p >= 2 and k1 >= 1 required")
    if max(ns) - 1 > sys.maxsize:  # as cabling._require_positive_framing
        raise CliError(f"invalid ranges: N - 1 must be at most {sys.maxsize}")
    size = _range_size(p1s, k1s, p2s, args.k2_max, ns)
    if size > MAX_TUPLES:
        raise CliError(f"invalid ranges: {size} tuples; sweep and audit take at most {MAX_TUPLES}")
    tuples = admissible_tuples(p1s, k1s, p2s, args.k2_max, ns)
    for t in tuples:
        p1, a1, p2, a2, n = t
        if n == 0:
            raise CliError(f"invalid ranges: tuple {t} has surgery coefficient n = 0")
        if searched(n, n - p2 * a2):
            # counted by classify_one's fold before its rows are expanded
            vertices = _fold(SurgerySpec(CableTower(((p1, a1), (p2, a2))), n))[2]
            if vertices > MAX_VERTICES:
                raise CliError(f"invalid ranges: tuple {t} has a tree of {vertices} vertices; "
                               f"sweep and audit search at most {MAX_VERTICES}")
    return tuples


def _run_sweep(args, config, print_csv):
    """The rows of the range, their witnesses written.  The CSV is
    rendered only to be written to --csv or, if print_csv, printed."""
    tuples = _range_tuples(args)
    budget = resolve_positive(args, config, "budget", DEFAULT_BUDGET)
    workers = resolve_positive(args, config, "workers", 1)
    out_dir = resolve(args, config, "out", os.environ.get("KNOTPLUMB_OUT", "."))
    # fail before the search, not after it
    _make_out_dir(out_dir)
    rows = sweep(tuples, budget=budget, workers=workers)
    witness_files = {row.key(): _write_witness(out_dir, row.key(), row.vectors, row.rank)
                     for row in rows if row.vectors is not None}
    if args.csv or print_csv:
        csv_text = rows_to_csv(rows, witness_files, timing=resolve(args, config, "timing", False))
        if args.csv:
            _write_text(args.csv, [csv_text])
        else:
            sys.stdout.write(csv_text)
    return rows


def cmd_sweep(args, config):
    rows = _run_sweep(args, config, print_csv=True)
    if args.csv:
        print(f"{len(rows)} rows written to {args.csv}")
    return 0


def cmd_audit(args, config):
    report = theorem_audit(_run_sweep(args, config, print_csv=False), family1_form=args.family_form)
    print(json.dumps(report.to_json_obj(), indent=2))
    return 0 if report.perfect else 5


# -- wiring -------------------------------------------------------------------


def _define_contfrac(p):
    p.add_argument("fraction", nargs="?", help="rational like 7/2")
    p.add_argument("--eval", help="evaluate a comma-separated coefficient list")
    p.add_argument("--dual", action="store_true", help="apply the point rule")
    p.add_argument("--reverse", action="store_true", help="reverse the expansion")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_contfrac)


def _define_graph(p):
    p.add_argument("--pairs", required=True, help="p1,a1[,p2,a2...]")
    p.add_argument("--n", type=_int, required=True, help="surgery coefficient")
    mode = p.add_mutually_exclusive_group()
    for kind in ("raw", "reduced", "closed-form"):
        mode.add_argument(f"--{kind}", dest="kind", action="store_const", const=kind)
    p.add_argument("--dot", action="store_true", help="emit GraphViz")
    p.add_argument("--json", action="store_true", help="emit the tree as JSON")
    p.set_defaults(func=cmd_graph, kind="reduced")


def _define_embed(p):
    p.add_argument("graph_file", nargs="?", help="plumbing JSON file")
    p.add_argument("--pairs", help="p1,a1[,p2,a2...] (build reduced graph)")
    p.add_argument("--n", type=_int)
    p.add_argument("--rank", type=_int, help="target rank (default: vertex count)")
    p.add_argument("--budget", type=_int, help="search node budget (not with --enumerate)")
    p.add_argument("--enumerate", action="store_true", help="list all classes")
    p.add_argument("--locally-minimal", action="store_true",
                   help="with --enumerate, keep only embeddings using every coordinate")
    p.add_argument("--out", help="output directory for witness files")
    p.set_defaults(func=cmd_embed)


def _define_sweep(p):
    p.add_argument("--p1", default="2,3")
    p.add_argument("--k1", default="1,2,3")
    p.add_argument("--p2", default="2,3")
    p.add_argument("--k2-max", dest="k2_max", type=_int, default=25)
    p.add_argument("--N", default="2,3,4,5,6")
    p.add_argument("--csv", help="write rows to this CSV file")
    p.add_argument("--workers", type=_int)
    p.add_argument("--budget", type=_int)
    p.add_argument("--timing", action="store_const", const=True, default=None,
                   help="fill the ms column (breaks byte-determinism)")
    p.add_argument("--out", help="output directory for witness files")
    p.set_defaults(func=cmd_sweep)


def _define_audit(p):
    _define_sweep(p)
    p.add_argument("--family-form", choices=("derived", "printed"), default="derived",
                   help="which printed/derived form of family 1 to audit against")
    p.set_defaults(func=cmd_audit)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, made and defined when argparse hands it argv."""

    def __init__(self, define, **kwargs):
        self._deferred = define, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._deferred:
            (define, kwargs), self._deferred = self._deferred, None
            super().__init__(**kwargs)
            define(self)
        return super().parse_known_args(args, namespace)


def build_parser():
    # argparse's formatter, made for every argument added and every text
    # formatted, sizes itself to the terminal unless given a width: asked
    # once here, as it would answer each time
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="knotplumb",
        description="Plumbing graphs and the lattice-embedding obstruction "
        "for integral surgeries on algebraic iterated torus knots.",
        formatter_class=fmt,
    )
    parser.add_argument("--config", help="flat key=value config file")
    # prog as argparse would format it from this parser's usage
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Subcommand, prog="knotplumb"
    )
    for name, text, define in (
        ("contfrac", "negative continued fractions", _define_contfrac),
        ("graph", "build a plumbing graph for a surgery", _define_graph),
        ("embed", "decide lattice embeddability", _define_embed),
        ("sweep", "sweep over a tuple range", _define_sweep),
        ("audit", "audit over a tuple range", _define_audit),
    ):
        sub.add_parser(name, help=text, define=define, formatter_class=fmt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
