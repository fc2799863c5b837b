"""Per-layer call counts and self time, measured from outside the library.

`install()` replaces chosen functions of the blocko modules with timing
wrappers, in every module namespace that binds them (``zmod`` imports
``rref`` and ``solve_many`` by name, ``kl`` imports ``bruhat_leq`` and
``lower_cone``), and on the classes whose methods are layer entry points.
Nothing under ``src/`` is edited.

Self time of a call is its wall time minus the wall time of the wrapped calls
made inside it, so the self times of all wrapped functions add up to the
time spent inside the library.  Code that is not wrapped is charged to the
nearest wrapped caller.

sympy is only reached through two helpers of ``zmod``; those helpers are the
``sympy`` layer here, because calls on sympy objects (``charpoly``,
``coeffs``) cannot be wrapped without proxying every object sympy returns.
"""

from __future__ import annotations

import importlib
import os
import time
from fractions import Fraction

LAYERS = ("rootdata", "blocks", "coxeter", "kl", "linalg", "poly", "zmod", "sympy", "cli")

# wrapped entry points per layer, as attribute paths in the layer's module
# (the sympy layer's helpers live in zmod)
WRAPPED = {
    "rootdata": ["build_root_system", "cartan_datum", "cartan_from_json", "weight_gram"],
    "blocks": ["block_data", "integral_roots", "dot_action", "is_critical", "block_to_json",
               "equivalence_check", "tilt"],
    "coxeter": ["CoxeterSystem.normal_form", "bruhat_leq", "lower_cone", "interval",
                "elements_up_to", "all_elements", "upper_cone", "coset_min_reps",
                "is_finite", "descents"],
    "kl": ["KLTable.poly", "KLTable.inverse_poly", "simple_character", "decomposition_matrix",
           "projective_multiplicities", "base_weight_position"],
    "linalg": ["rref", "solve_many", "solve", "kernel_basis", "kernel_incremental", "in_span",
               "invert", "rank", "congruence_inertia", "extend_basis"],
    "poly": ["monomials_of_degree", "restrict_to_hyperplane", "divisible_by_linear",
             "poly_to_coeffs", "coeffs_to_poly", "Poly.__mul__", "Poly.__add__",
             "Poly.__sub__", "Poly.substitute", "Poly.evaluate", "Poly.scale"],
    "zmod": ["moment_graph", "structure_algebra", "minimal_generators", "theta_s",
             "bott_samelson", "hom_graded", "expand_many", "decompose", "graded_char",
             "identify_projective", "lattice_contains", "apply_hom", "compose",
             "isomorphic_up_to_shift", "invariant_structure_algebra", "singular_reduce",
             "zlattice_to_json"],
    "sympy": ["zmod._charpoly_factors", "zmod._splitting_poly"],
    "cli": ["main", "cmd_block", "cmd_kl", "cmd_character", "cmd_bs", "cmd_center",
            "cmd_equiv", "load_cartan", "emit", "_load_kl_cache", "_store_kl_cache"],
}

# eliminations whose rows x columns and entry sizes are recorded
_ELIMINATIONS = ("rref", "solve_many", "kernel_incremental", "congruence_inertia")


class Tracer:
    """Counts and self times keyed "layer.function", plus layer counters."""

    def __init__(self):
        self.stats = {}  # key -> [calls, self seconds]
        self.counters = {}
        self._stack = []  # wall time of wrapped children, one slot per open call

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def exclude(self, seconds):
        """Leave time spent outside the library (a calibration slice run
        from a signal handler) out of the open call's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def wrap(self, key, func, before=None, after=None):
        """Time `func` under `key`.  `before(args)` returns the arguments to
        call with and a token for `after(args, result, token, elapsed)`."""
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                args, token = before(args)
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result, token, elapsed)
            return result

        return wrapper

    def snapshot(self):
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }


# counters that keep their largest value instead of adding up
MAXIMA = ("linalg.elim_max_cols", "linalg.max_entry_bits")


def merge(into, snapshot, weight=1.0):
    """Add a snapshot's counts, self times and counters, times `weight`,
    into another snapshot."""
    for key, (calls, self_s) in snapshot["stats"].items():
        stat = into["stats"].setdefault(key, [0, 0.0])
        stat[0] += calls * weight
        stat[1] += self_s * weight
    for key, value in snapshot["counters"].items():
        if key in MAXIMA:
            into["counters"][key] = max(into["counters"].get(key, 0), value)
        else:
            into["counters"][key] = into["counters"].get(key, 0) + value * weight


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return 0


def _max_bits(rows):
    return max((_bits(x) for row in rows for x in row), default=0)


def _elim_hooks(tracer, name):
    """Record rows x columns and entry sizes of one elimination call."""

    def record(nrows, ncols, bits):
        tracer.count("linalg.elim_cells", nrows * ncols)
        tracer.maximum("linalg.elim_max_cols", ncols)
        tracer.maximum("linalg.max_entry_bits", bits)

    def before(args):
        rows = args[0]
        if name == "kernel_incremental":
            # hom_graded passes a generator: count rows as they are consumed
            ncols = args[1]

            def counted():
                for row in rows:
                    record(1, ncols, _max_bits([row]))
                    yield row

            return (counted(),) + args[1:], None
        if name == "solve_many":
            rhs = args[1]
            ncols = (len(rows[0]) if rows else 0) + len(rhs)
            record(len(rows), ncols, max(_max_bits(rows), _max_bits(rhs)))
        elif name == "rref" and len(args) > 1 and args[1] is not None:
            record(len(rows), args[1], _max_bits(rows))
        else:
            record(len(rows), len(rows[0]) if rows else 0, _max_bits(rows))
        return args, None

    def after(args, result, token, elapsed):
        if name == "rref":
            tracer.maximum("linalg.max_entry_bits", _max_bits(result[0]))
        elif name == "solve_many":
            tracer.maximum("linalg.max_entry_bits",
                           _max_bits([x for x in result if x is not None]))

    return before, after


def _kl_poly_hooks(tracer):
    """KLTable.poly(x, w): a memo hit or a newly computed pair."""

    def before(args):
        table, x, w = args[0], args[1], args[2]
        hit = (x.word, w.word) in table.memo
        tracer.count("kl.memo_hits" if hit else "kl.pairs_computed")
        return args, None

    return before, None


def _cli_cache_hooks(tracer, cli, attr):
    """Time, entries and bytes of the CLI's KL disk cache."""
    kind = "load" if attr == "_load_kl_cache" else "store"

    def size(table):
        try:
            return os.path.getsize(cli._coxeter_cache_path(table.system))
        except OSError:
            return 0

    def before(args):
        table = args[0]
        if kind == "load":
            tracer.count("cli.kl_cache.bytes", size(table))
        return args, len(table.memo)

    def after(args, result, token, elapsed):
        table = args[0]
        tracer.count(f"cli.kl_cache.{kind}_s", elapsed)
        if kind == "load":
            tracer.count("cli.kl_cache.entries_loaded", len(table.memo) - token)
        else:
            tracer.count("cli.kl_cache.bytes", size(table))

    return before, after


def install(tracer):
    """Wrap every entry point of WRAPPED in place and return the tracer."""
    mods = {
        name: importlib.import_module(f"blocko.{name}")
        for name in ("rootdata", "coxeter", "blocks", "kl", "linalg", "poly", "zmod", "cli")
    }
    replaced = {}  # id(original) -> (original, wrapper)
    for layer, paths in WRAPPED.items():
        for path in paths:
            parts = path.split(".")
            owner = mods[parts[0]] if layer == "sympy" else mods[layer]
            for part in parts[1:-1] if layer == "sympy" else parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = getattr(owner, attr)
            before = after = None
            if layer == "linalg" and attr in _ELIMINATIONS:
                before, after = _elim_hooks(tracer, attr)
            elif layer == "kl" and attr == "poly":
                before, after = _kl_poly_hooks(tracer)
            elif layer == "cli" and attr in ("_load_kl_cache", "_store_kl_cache"):
                before, after = _cli_cache_hooks(tracer, mods["cli"], attr)
            key = f"{layer}.{attr.strip('_')}"
            wrapper = tracer.wrap(key, original, before, after)
            setattr(owner, attr, wrapper)
            replaced[id(original)] = (original, wrapper)
    # rebind the names other modules imported with "from .x import name"
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])
    return tracer
