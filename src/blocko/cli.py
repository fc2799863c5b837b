"""Command-line front end: parse Cartan/weight input, run the library,
emit JSON or TSV reports, and cache Kazhdan-Lusztig tables on disk.

Exit codes: 0 ok, 1 usage or parse error, 2 mathematical rejection.
Reports are deterministic: sorted keys, canonical polynomial strings, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from . import blocks, coxeter, kl, rootdata, zmod
from .coxeter import INFINITY, CoxeterSystem, Element
from .errors import BlockoError, CartanError, CriticalityError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing


def load_cartan(path) -> rootdata.CartanDatum:
    with open(path) as fh:
        return rootdata.cartan_from_json(json.load(fh))


def parse_weight(cartan, text) -> rootdata.Weight:
    """Comma-separated rationals in fundamental-weight coordinates with an
    optional ";delta=p/q" suffix."""
    delta = Fraction(0)
    if ";" in text:
        text, tail = text.split(";", 1)
        tail = tail.strip()
        if not tail.startswith("delta="):
            raise UsageError(f"unrecognized weight suffix {tail!r}")
        delta = rootdata.parse_rational(tail[len("delta=") :])
    coords = tuple(
        rootdata.parse_rational(c.strip()) for c in text.split(",")
    )
    if len(coords) != cartan.rank:
        raise UsageError(
            f"weight has {len(coords)} coordinates, Cartan rank is {cartan.rank}"
        )
    return rootdata.Weight(cartan, coords, delta)


def parse_word(text) -> tuple:
    """Space-separated 1-based generator indices; "e" or "" is the identity."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        letters = tuple(int(t) - 1 for t in text.split())
    except ValueError as exc:
        raise UsageError(f"bad word {text!r}") from exc
    if any(i < 0 for i in letters):
        raise UsageError("word letters are 1-based")
    return letters


def word_str(word) -> str:
    return " ".join(str(i + 1) for i in word) if word else "e"


def _positive(args, name):
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None and value <= 0:
        raise UsageError(f"--{name} must be positive")


def _single(values, flag):
    if not values or len(values) != 1:
        raise UsageError(f"exactly one {flag} required")
    return values[0]


def _build_block(args):
    cartan = load_cartan(_single(args.cartan, "--cartan"))
    weight = parse_weight(cartan, _single(args.weight, "--weight"))
    block = blocks.block_data(
        cartan,
        weight,
        height_bound=args.height_bound,
        length_bound=args.length_bound,
    )
    if args.require_noncritical and blocks.is_critical(block):
        raise CriticalityError("block is critical")
    return block


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig disk cache


def cache_root() -> Path:
    env = os.environ.get("BLOCKO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "blocko"


# the file layout and the word convention of its keys: a change to either
# gets a new file name, so an old file is never read under new rules
CACHE_FORMAT = "v2-shortlex"


def _coxeter_cache_path(system: CoxeterSystem) -> Path:
    payload = json.dumps(
        [["inf" if m is INFINITY else m for m in row] for row in system.matrix],
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return cache_root() / f"kl-{CACHE_FORMAT}-{digest}.json"


def _possible_p(system: CoxeterSystem, x, w, coeffs):
    """Whether a cached polynomial can be P_{x,w}: 1 for x = w, 0 off the
    Bruhat cone, and otherwise P(0) = 1 with degree <= (l(w)-l(x)-1)/2."""
    if not isinstance(coeffs, list) or any(type(c) is not int for c in coeffs):
        return False
    if coeffs and coeffs[-1] == 0:
        return False
    if x == w:
        return coeffs == [1]
    if not coxeter.bruhat_leq(Element(system, x), Element(system, w)):
        return not coeffs
    bound = (len(w) - len(x) - 1) // 2
    return bool(coeffs) and coeffs[0] == 1 and len(coeffs) - 1 <= bound


def _load_kl_cache(table: kl.KLTable):
    """Fill the table's P store from the cache file.  Entries whose words
    are not ShortLex normal forms, or that `_possible_p` rejects, are
    dropped and recomputed when needed."""
    path = _coxeter_cache_path(table.system)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return
    if not isinstance(data, dict):
        return
    normal = {}  # word text -> the normal-form word it spells, or None

    def word(text):
        if text not in normal:
            try:
                w = parse_word(text)
                normal[text] = w if table.system.normal_form(w) == w else None
            except ValueError:
                normal[text] = None
        return normal[text]

    for key, coeffs in data.items():
        xs, bar, ws = key.partition("|")
        x, w = word(xs), word(ws)
        if bar and x is not None and w is not None:
            if _possible_p(table.system, x, w, coeffs):
                table.memo[(x, w)] = tuple(coeffs)


def _store_kl_cache(table: kl.KLTable):
    """Merge the table's P store into the cache file.

    Writes are atomic (temp file + rename) under an exclusive lock, so
    concurrent invocations only ever append."""
    path = _coxeter_cache_path(table.system)
    path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = path.with_suffix(".lock")
    import fcntl

    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
        for (xw, ww), val in table.memo.items():
            data[f"{word_str(xw)}|{word_str(ww)}"] = list(val)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# commands


def cmd_block(args):
    block = _build_block(args)
    return blocks.block_to_json(block)


def _integral_coxeter(cartan) -> CoxeterSystem:
    simples = [rootdata.simple_root(cartan, i) for i in range(cartan.rank)]
    return CoxeterSystem(blocks._coxeter_matrix(simples))


def cmd_kl(args):
    cartan = load_cartan(_single(args.cartan, "--cartan"))
    if args.x is None or args.w is None:
        raise UsageError("kl requires --x and --w")
    system = _integral_coxeter(cartan)
    x = system.element(parse_word(args.x))
    w = system.element(parse_word(args.w))
    table = kl.KLTable(system)
    _load_kl_cache(table)
    p = table.poly(x, w)
    q = table.inverse_poly(x, w) if x.length <= w.length else kl.ZERO
    _store_kl_cache(table)
    return {
        "x": word_str(x.word),
        "w": word_str(w.word),
        "p": kl.poly_str(p),
        "p_coefficients": list(p),
        "q": kl.poly_str(q),
        "q_coefficients": list(q),
    }


def cmd_character(args):
    block = _build_block(args)
    if args.w is None:
        raise UsageError("character requires --w")
    w = block.coxeter_system.element(parse_word(args.w))
    table = kl.KLTable(block.coxeter_system)
    _load_kl_cache(table)
    char = kl.simple_character(block, w, table)
    _store_kl_cache(table)
    return {
        "w": word_str(w.word),
        "coefficients": char.to_json(),
        "truncated": char.truncated,
    }


def _char_report(char):
    return {word_str(w): degs for w, degs in sorted(char.items())}


def cmd_bs(args):
    block = _build_block(args)
    if args.word is None:
        raise UsageError("bs requires --word")
    word = parse_word(args.word)
    graph = zmod.moment_graph(block)
    lattice = zmod.bott_samelson(graph, word, args.degree_bound)
    summands = zmod.decompose(lattice)
    target = block.coxeter_system.normal_form(word)
    projective = zmod.identify_projective(graph, target, args.degree_bound)
    return {
        "word": word_str(word),
        "rank": lattice.rank,
        "summands": [
            _char_report(zmod.graded_char(s)) for s in summands
        ],
        "projective": {
            "word": word_str(target),
            "graded_character": _char_report(zmod.graded_char(projective)),
        },
    }


def cmd_center(args):
    block = _build_block(args)
    graph = zmod.moment_graph(block)
    algebra = zmod.structure_algebra(graph, None, args.degree_bound)
    return zmod.zlattice_to_json(algebra)


def cmd_equiv(args):
    if not args.cartan or len(args.cartan) != 2:
        raise UsageError("equiv requires two --cartan files")
    if not args.weight or len(args.weight) != 2:
        raise UsageError("equiv requires two --weight values")
    reports = []
    pair = []
    for path, wtext in zip(args.cartan, args.weight):
        cartan = load_cartan(path)
        weight = parse_weight(cartan, wtext)
        block = blocks.block_data(
            cartan,
            weight,
            height_bound=args.height_bound,
            length_bound=args.length_bound,
        )
        pair.append(block)
        reports.append(blocks.block_to_json(block))
    verdict = blocks.equivalence_check(pair[0], pair[1])
    return {"verdict": verdict, "blocks": reports}


# ---------------------------------------------------------------------------
# output


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    else:
        yield prefix[:-1], obj


def emit(report, fmt, out=None):
    out = out or sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, separators=(",", ": ")))
        out.write("\n")
    else:
        for key, value in _flatten(report):
            out.write(f"{key}\t{json.dumps(value, sort_keys=True)}\n")


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="blocko")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "block": cmd_block,
        "kl": cmd_kl,
        "character": cmd_character,
        "bs": cmd_bs,
        "center": cmd_center,
        "equiv": cmd_equiv,
    }
    for name, func in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--cartan", action="append", metavar="FILE")
        p.add_argument("--weight", action="append", metavar="STR")
        p.add_argument("--word")
        p.add_argument("--x")
        p.add_argument("--w")
        p.add_argument(
            "--height-bound", type=int, default=blocks.DEFAULT_HEIGHT_BOUND
        )
        p.add_argument(
            "--length-bound", type=int, default=blocks.DEFAULT_LENGTH_BOUND
        )
        p.add_argument(
            "--degree-bound", type=int, default=zmod.DEFAULT_DEGREE_BOUND
        )
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--require-noncritical", action="store_true")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for bound in ("height-bound", "length-bound", "degree-bound"):
            _positive(args, bound)
        report = args.func(args)
    except (ValueError, OSError, CartanError) as exc:
        # malformed input of any kind, including bad Cartan data
        emit({"error": str(exc)}, "json")
        return 1
    except BlockoError as exc:
        emit({"error": str(exc)}, "json")
        return 2
    emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
