"""Command-line front end: parse Cartan/weight input, run the library,
emit JSON or TSV reports, and cache Kazhdan-Lusztig tables on disk.

Exit codes: 0 ok, 1 usage or parse error, 2 mathematical rejection,
3 internal fault.
Reports are deterministic: sorted keys, canonical polynomial strings, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import blocks, kl, rootdata
from .coxeter import INFINITY, CoxeterSystem, demazure_product, word_str
from .errors import BlockoError, CartanError, CriticalityError, UnsupportedError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing


def _read(parse, text):
    """parse(text), where a ValueError means the text is bad input."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_cartan(path) -> rootdata.CartanDatum:
    with open(path) as fh:
        obj = _read(json.load, fh)
    if isinstance(obj, dict) and isinstance(obj.get("symmetrizer"), list):
        obj["symmetrizer"] = [_read(rootdata.parse_rational, d) for d in obj["symmetrizer"]]
    return rootdata.cartan_from_json(obj)


def parse_weight(cartan, text) -> rootdata.Weight:
    """Comma-separated rationals in fundamental-weight coordinates with an
    optional ";delta=p/q" suffix on affine data."""
    delta = Fraction(0)
    if ";" in text:
        text, tail = text.split(";", 1)
        tail = tail.strip()
        if not tail.startswith("delta="):
            raise UsageError(f"unrecognized weight suffix {tail!r}")
        if not cartan.is_affine:
            raise UsageError("a delta coordinate needs affine Cartan data")
        delta = _read(rootdata.parse_rational, tail[len("delta=") :])
    coords = tuple(_read(rootdata.parse_rational, c.strip()) for c in text.split(","))
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
    return blocks.block_data(cartan, weight, args.length_bound)


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig disk cache


def cache_root() -> Path:
    env = os.environ.get("BLOCKO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "blocko"


# the file layout, its ShortLex word keys and its pairs (extremal x < w only):
# a change to any gets a new file name, so an old file is never read under
# new rules
CACHE_FORMAT = "v4-extremal"


def _coxeter_cache_path(system: CoxeterSystem) -> Path:
    import hashlib  # loads OpenSSL: only the commands with a KL cache pay
    payload = json.dumps(
        [["inf" if m is INFINITY else m for m in row] for row in system.matrix],
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return cache_root() / f"kl-{CACHE_FORMAT}-{digest}.json"


def _possible_p(system: CoxeterSystem, x, w, coeffs):
    """Whether a cached polynomial can be P_{x,w} (x, w ids) for an
    extremal pair x < w, the only pairs the store holds: P(0) = 1 with
    degree <= (l(w)-l(x)-1)/2."""
    if not isinstance(coeffs, list) or any(type(c) is not int for c in coeffs):
        return False
    if x == w or not system.cone(w) >> x & 1:
        return False
    if system.ldesc[w] & ~system.ldesc[x] or system.rdesc[w] & ~system.rdesc[x]:
        return False
    bound = (system.length[w] - system.length[x] - 1) // 2
    return (bool(coeffs) and coeffs[0] == 1 and coeffs[-1] != 0
            and len(coeffs) - 1 <= bound)


def _load_kl_cache(table: kl.KLTable):
    """Fill the table's P store from the cache file.  Its keys are words,
    as a forged id could grow an affine group without bound.  Entries whose
    words are not normal forms, or that `_possible_p` rejects, are dropped
    and recomputed when needed.  Each distinct word is looked up once,
    numbering the group no further than the longest word read.

    Returns what `_store_kl_cache` needs: the size of the P store after
    loading and the set of dropped keys."""
    dropped = set()
    path = _coxeter_cache_path(table.system)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return len(table.memo), dropped
    if not isinstance(data, dict):
        return len(table.memo), dropped
    system = table.system
    ids = {}  # word text -> id of the normal form it spells, or None

    def index(text):
        if text not in ids:
            try:
                ids[text] = system.index(parse_word(text))
            except ValueError:
                ids[text] = None
        return ids[text]

    for key, coeffs in data.items():
        xs, bar, ws = key.partition("|")
        x, w = index(xs), index(ws)
        if (bar and x is not None and w is not None
                and _possible_p(system, x, w, coeffs)):
            table.memo[x, w] = tuple(coeffs)
        else:
            dropped.add(key)
    return len(table.memo), dropped


def _store_kl_cache(table: kl.KLTable, loaded):
    """Merge the table's P store into the cache file and remove the keys
    that load dropped; `loaded` is what `_load_kl_cache` returned.  When no
    entry is new since loading and none was dropped, nothing is written.

    Writes are atomic (temp file + rename) under an exclusive lock, so a
    reader never sees a partial file and concurrent invocations merge
    their entries."""
    size, dropped = loaded
    if len(table.memo) == size and not dropped:
        return
    path = _coxeter_cache_path(table.system)
    path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = path.with_suffix(".lock")
    import fcntl
    import tempfile

    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
        for key in dropped:
            data.pop(key, None)
        words = table.system.words
        for (x, w), val in table.memo.items():
            data[f"{word_str(words[x])}|{word_str(words[w])}"] = list(val)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# commands


def cmd_block(args):
    block = _build_block(args)
    # the one command that reports a critical block; the others refuse it
    if args.require_noncritical and blocks.is_critical(block):
        raise CriticalityError("block is critical")
    return blocks.block_to_json(block)


def _integral_coxeter(cartan) -> CoxeterSystem:
    simples = [rootdata.simple_root(cartan, i) for i in range(cartan.rank)]
    return CoxeterSystem(blocks.coxeter_matrix(simples))


def cmd_kl(args):
    cartan = load_cartan(_single(args.cartan, "--cartan"))
    if args.x is None or args.w is None:
        raise UsageError("kl requires --x and --w")
    system = _integral_coxeter(cartan)
    # a letter outside the generators is bad input
    x = _read(system.element, parse_word(_single(args.x, "--x")))
    w = _read(system.element, parse_word(_single(args.w, "--w")))
    table = kl.KLTable(system)
    loaded = _load_kl_cache(table)
    p = table.poly(x, w)
    q = table.inverse_poly(x, w)
    _store_kl_cache(table, loaded)
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
    w = _read(block.coxeter_system.element, parse_word(_single(args.w, "--w")))
    table = kl.KLTable(block.coxeter_system)
    loaded = _load_kl_cache(table)
    char = kl.simple_character(block, w, table)
    _store_kl_cache(table, loaded)
    return {
        "w": word_str(w.word),
        "coefficients": char.to_json(),
        "truncated": char.truncated,
    }


def _char_report(char):
    return {word_str(w): degs for w, degs in sorted(char.items())}


# what the Braden-MacPherson sheaf on [e, w] is, by the base weight's
# position: P(w.lambda) off a dominant base, T(w.lambda) off an antidominant
# one (Soergel, Represent. Theory 2, 1998)
_SHEAF_NAMES = {"dominant": "projective", "antidominant": "tilting"}


def cmd_bs(args):
    block = _build_block(args)
    if args.word is None:
        raise UsageError("bs requires --word")
    word = parse_word(_single(args.word, "--word"))
    _read(block.coxeter_system.element, word)  # a letter outside W(lambda)'s is bad input
    from . import zmod  # only bs and center need it
    graph = zmod.moment_graph(block)
    if block.position not in _SHEAF_NAMES:
        raise UnsupportedError(kl.INTERIOR_BASE)
    lattice = zmod.bott_samelson(graph, word)
    summands = zmod.decompose(lattice)
    target = demazure_product(block.coxeter_system, word)
    sheaf = zmod.identify_projective(graph, target)
    return {
        "word": word_str(word),
        "rank": lattice.rank,
        "summands": [
            _char_report(zmod.graded_char(s)) for s in summands
        ],
        _SHEAF_NAMES[block.position]: {
            "word": word_str(target),
            "graded_character": _char_report(zmod.graded_char(sheaf)),
        },
    }


def cmd_center(args):
    block = _build_block(args)
    from . import zmod
    graph = zmod.moment_graph(block)
    algebra = zmod.structure_algebra(graph)
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
        block = blocks.block_data(cartan, weight, args.length_bound)
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


_BLOCK_OPTIONS = ("cartan", "weight", "length-bound")

# the options each command reads, besides --format; --degree-bound is
# accepted for old scripts and ignored, as structure algebras are certified
# without a degree bound
COMMAND_OPTIONS = {
    "block": _BLOCK_OPTIONS + ("require-noncritical",),
    "kl": ("cartan", "x", "w"),
    "character": _BLOCK_OPTIONS + ("w",),
    "bs": _BLOCK_OPTIONS + ("word",),
    "center": _BLOCK_OPTIONS + ("degree-bound",),
    "equiv": ("cartan", "weight", "length-bound"),
}

_OPTION_ARGUMENTS = {  # add_argument keywords beyond a plain string option
    "cartan": {"action": "append", "metavar": "FILE"},
    "weight": {"action": "append", "metavar": "STR"},
    "x": {"action": "append"},
    "w": {"action": "append"},
    "word": {"action": "append"},
    "length-bound": {"type": int, "default": blocks.DEFAULT_LENGTH_BOUND},
    "degree-bound": {"type": int},
    "require-noncritical": {"action": "store_true"},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="blocko")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(f"--{option}", **_OPTION_ARGUMENTS.get(option, {}))
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        # looked up per build, so that a replaced cmd_* function is run
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for bound in ("length-bound", "degree-bound"):
            _positive(args, bound)
        report = args.func(args)
    except (UsageError, OSError, CartanError) as exc:
        # malformed input of any kind, including bad Cartan data; any other
        # ValueError is a fault of the program
        emit({"error": str(exc)}, "json")
        return 1
    except BlockoError as exc:
        emit({"error": str(exc)}, "json")
        return 2
    except Exception as exc:
        # a fault of the program, not of its input: keep the traceback
        import traceback

        traceback.print_exc()
        emit({"error": f"internal error: {type(exc).__name__}: {exc}"}, "json")
        return 3
    emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
