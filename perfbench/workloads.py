"""The three workloads: seeded inputs, operations and output checks.

An operation is one library query or one CLI command.  Each returns an
output that is checked against a mathematical identity, never against a
stored snapshot, so a known-wrong answer of the library cannot be frozen in
as correct.  `build(name, seed, ctx)` is called during set-up; running the
returned operations is the timed part.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from blocko import blocks, cli, coxeter, kl, rootdata, zmod
from blocko.poly import Poly, divisible_by_linear

CARTAN = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A1~": [[2, -2], [-2, 2]],
    "A2~": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
}

# KL pairs of the CLI session: (length of w, length of x), x <= w.  The
# first, on the empty cache, is the heaviest command of the session besides
# center; it is (e, w0) for every seed, because with x a seeded simple
# reflection its cost depended on which one by about 10 %.
KL_LENGTH_PROFILE = ((9, 0), (8, 3), (7, 0), (5, 2))
CLI_TIMEOUT_S = 60
CENTER_DEGREE_BOUND = 12
AFFINE_CLI_LENGTH_BOUND = 4


class Op:
    """A named operation with the check of its output."""

    def __init__(self, name, run, check, canon=repr):
        self.name, self.run, self.check, self.canon = name, run, check, canon

    def digest(self, output):
        return hashlib.sha256(self.canon(output).encode()).hexdigest()


# ---------------------------------------------------------------------------
# seeded inputs


def dominant(rng, rank):
    """A regular integral dominant weight: lambda + rho strictly dominant."""
    return [rng.randint(0, 3) for _ in range(rank)]


def antidominant(rng, rank):
    """A regular integral antidominant weight: lambda + rho strictly negative."""
    return [-rng.randint(2, 5) for _ in range(rank)]


def weight(cartan, coords):
    return rootdata.Weight(cartan, tuple(Fraction(c) for c in coords), Fraction(0))


def walk_up(system, length, rng):
    """A random element of the given length, by a random ascending walk."""
    word = ()
    while len(word) < length:
        ups = [s for s in range(system.generator_count)
               if len(system.normal_form(word + (s,))) == len(word) + 1]
        word = system.normal_form(word + (rng.choice(ups),))
    return word


def walk_down(system, word, length, rng):
    """A random x <= w of the given length: delete letters of reduced words."""
    while len(word) > length:
        downs = []
        for k in range(len(word)):
            sub = system.normal_form(word[:k] + word[k + 1:])
            if len(sub) == len(word) - 1:
                downs.append(sub)
        word = rng.choice(downs)
    return word


def word_str(word):
    return " ".join(str(i + 1) for i in word) if word else "e"


def weight_arg(coords):
    return ",".join(str(c) for c in coords)


# ---------------------------------------------------------------------------
# checks (each returns a list of problems; empty means the output is correct)


def check_p_column(table, w, elements, column, rng):
    """P_{w,w} = 1; for x < w, P(0) = 1 and deg <= (l(w)-l(x)-1)/2; P = 0
    off the Bruhat cone.  Then signed P.Q = identity on one seeded interval
    [x, w]: sum over z of (-1)^(l(z)-l(x)) P_{x,z} Q_{z,w} = 0 for x < w."""
    problems = []
    below = []
    for x in elements:
        p = column[x.word]
        if x.word == w.word:
            ok = p == kl.ONE
        elif coxeter.bruhat_leq(x, w):
            ok = bool(p) and p[0] == 1 and len(p) - 1 <= (w.length - x.length - 1) // 2
            below.append(x)
        else:
            ok = p == kl.ZERO
        if not ok:
            problems.append(f"P[{x},{w}]={p} breaks P(0)=1, the degree bound or the support")
    if below:
        x = rng.choice(below)
        acc = kl.ZERO
        for z in coxeter.interval(x, w):
            sign = -1 if (z.length - x.length) % 2 else 1
            term = kl._poly_mul(table.poly(x, z), table.inverse_poly(z, w))
            acc = kl.poly_add(acc, kl.poly_scale(term, sign))
        if acc != kl.ZERO:
            problems.append(f"signed P.Q on [{x},{w}] = {acc}, not 0")
    return problems


def check_decomposition(table, system, dmat):
    """D . C = identity, C[w][z] = (-1)^(l(z)-l(w)) Q_{w,z}(1) the dominant
    simple characters (coefficient of ch M(z) in ch L(w))."""
    words = sorted({y for y, _ in dmat}, key=lambda w: (len(w), w))
    el = {w: system.element(w) for w in words}

    def c(w, z):
        sign = -1 if (len(z) - len(w)) % 2 else 1
        return sign * kl.poly_eval_one(table.inverse_poly(el[w], el[z]))

    rows = {}
    for (y, w), d in dmat.items():
        if d:
            rows.setdefault(y, []).append((w, d))
    problems = []
    for y in words:
        for z in words:
            if not coxeter.bruhat_leq(el[y], el[z]):
                continue
            total = sum(d * c(w, z) for w, d in rows.get(y, ())
                        if coxeter.bruhat_leq(el[w], el[z]))
            if total != (1 if y == z else 0):
                problems.append(f"(D.C)[{word_str(y)},{word_str(z)}] = {total}")
    return problems


def check_anti_character(system, w, coeffs, elements):
    """Leading coefficient 1, support in the lower Bruhat cone, and for the
    longest element of a finite group the Weyl character formula: every y
    appears with sign (-1)^(l(w)-l(y))."""
    ew = system.element(w)
    problems = []
    if coeffs.get(w) != 1:
        problems.append(f"coefficient of M({word_str(w)}) is {coeffs.get(w)}")
    for y in coeffs:
        if not coxeter.bruhat_leq(system.element(y), ew):
            problems.append(f"support {word_str(y)} not below {word_str(w)}")
    if w == elements[-1].word:
        for y in elements:
            want = -1 if (len(w) - y.length) % 2 else 1
            if coeffs.get(y.word) != want:
                problems.append(f"Weyl formula fails at {y}: {coeffs.get(y.word)}")
    return problems


def check_projective(block, w, lattice):
    """Ungraded character equals the BGG multiplicities (P : M(y))."""
    want = kl.projective_multiplicities(block, block.coxeter_system.element(w))
    want = {y: n for y, n in want.items() if n}
    got = zmod.ungraded_char(lattice)
    return [] if got == want else [f"ungraded character {got} != BGG {want}"]


def check_structure_algebra(graph, algebra):
    """Rank equals the vertex count, and every edge label divides."""
    problems = []
    if algebra.rank != len(graph.vertices) or len(algebra.generators) != algebra.rank:
        problems.append(f"rank {algebra.rank} with {len(algebra.generators)} generators "
                        f"on {len(graph.vertices)} vertices")
    index = {w: i for i, w in enumerate(algebra.slots)}
    for edge, label in graph.edges.items():
        a, b = tuple(edge)
        if a in index and b in index:
            for gen in algebra.generators:
                if not divisible_by_linear(gen[index[a]] - gen[index[b]], label):
                    problems.append(f"edge {word_str(a)}-{word_str(b)} does not divide")
    return problems


def canon_lattice(m):
    return json.dumps([zmod.zlattice_to_json(m),
                       sorted((word_str(w), d) for w, d in zmod.graded_char(m).items())])


# ---------------------------------------------------------------------------
# kl_tables


def build_kl_tables(seed, ctx):
    """Per type: the P-table as one query per column w, then the
    decomposition matrix and the antidominant characters of every w, all
    on one KL table.  The element lists are inputs, made at set-up.  The
    columns of the five tables are interleaved, each table's in order of
    length, so that queries of similar size are spread over the pass and
    the latency percentiles do not hang on one moment of host speed."""
    rng = random.Random(seed)
    columns, later = [], []
    for name in ("A3", "B3", "G2", "A1~", "A2~"):
        cartan = rootdata.cartan_datum(CARTAN[name])
        length_bound = 5 if name == "A2~" else blocks.DEFAULT_LENGTH_BOUND
        dom = blocks.block_data(cartan, weight(cartan, dominant(rng, cartan.rank)),
                                length_bound=length_bound)
        system = dom.coxeter_system
        table = kl.KLTable(system)
        if cartan.kind == "finite":
            elements = coxeter.all_elements(system)
        else:
            elements = coxeter.elements_up_to(system, {"A1~": 10, "A2~": 5}[name])
        check_rng = random.Random(rng.random())
        columns.append([_p_column_op(name, table, elements, w, check_rng) for w in elements])
        if name != "A2~":
            later.append(Op(f"{name}.decomposition",
                            lambda b=dom, t=table: kl.decomposition_matrix(b, table=t),
                            lambda out, t=table, s=system: check_decomposition(t, s, out),
                            canon=lambda out: repr(sorted(out.items()))))
        if cartan.kind == "finite":
            anti = blocks.block_data(cartan, weight(cartan, antidominant(rng, cartan.rank)))
            later.append(_anti_characters_op(name, anti, table, elements))
    interleaved = [op for rank in itertools.zip_longest(*columns) for op in rank if op]
    return interleaved + later


def _p_column_op(type_name, table, elements, w, check_rng):
    """P_{x,w} for every listed x: one column of the P-table."""

    def run():
        return {x.word: table.poly(x, w) for x in elements}

    def check(out):
        return check_p_column(table, w, elements, out, check_rng)

    return Op(f"{type_name}.p_column[{word_str(w.word)}]", run, check,
              canon=lambda out: repr(sorted(out.items())))


def _anti_characters_op(type_name, block, table, elements):
    """ch L(w.lambda) of every w, antidominant lambda."""
    system = block.coxeter_system

    def run():
        return {w.word: dict(kl.simple_character(block, w, table).coefficients)
                for w in elements}

    def check(out):
        return [p for w, coeffs in out.items()
                for p in check_anti_character(system, w, coeffs, elements)]

    return Op(f"{type_name}.characters", run, check,
              canon=lambda out: repr(sorted((w, sorted(c.items())) for w, c in out.items())))


# ---------------------------------------------------------------------------
# zmod_projectives


def build_zmod_projectives(seed, ctx):
    rng = random.Random(seed)
    ops = []
    for name, max_length in (("A2", 3), ("B2", 3)):
        cartan = rootdata.cartan_datum(CARTAN[name])
        block = blocks.block_data(cartan, weight(cartan, dominant(rng, cartan.rank)))
        graph = zmod.moment_graph(block)
        for w in graph.vertices:
            if len(w) <= max_length:
                ops.append(Op(
                    f"{name}.projective[{word_str(w)}]",
                    lambda g=graph, w=w: zmod.identify_projective(g, w),
                    lambda out, b=block, w=w: check_projective(b, w, out),
                    canon=canon_lattice,
                ))
    cartan = rootdata.cartan_datum(CARTAN["A1~"])
    block = blocks.block_data(cartan, weight(cartan, dominant(rng, cartan.rank)), length_bound=3)
    graph = zmod.moment_graph(block)
    ops.append(Op("A1~.structure_algebra", lambda: zmod.structure_algebra(graph),
                  lambda out: check_structure_algebra(graph, out), canon=canon_lattice))
    return ops


# ---------------------------------------------------------------------------
# cli_session


class CliOp(Op):
    """One blocko command-line subprocess, run through cli_child.py so that
    host speed is sampled while it runs; its output is stdout."""

    def __init__(self, name, argv, ctx, cache, reference):
        self.argv, self.ctx, self.cache, self.reference = argv, ctx, cache, reference
        self.name, self.canon = name, lambda out: out
        self.same_as = None  # an earlier op whose stdout must be identical
        self.checked_output = None

    def run(self):
        env = dict(self.ctx["env"], BLOCKO_CACHE=self.cache,
                   BENCH_SLICES_OUT=self.ctx["slices_out"])
        if self.ctx.get("trace_out"):
            env["BENCH_TRACE_OUT"] = self.ctx["trace_out"]
        cmd = [sys.executable, self.ctx["cli_child"]] + self.argv
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stdout[-300:]!r} "
                               f"{proc.stderr[-300:]!r}")
        return proc.stdout.decode()

    def check(self, out):
        expected = io.StringIO()
        cli.emit(self.reference(), "json", expected)
        problems = []
        if out != expected.getvalue():
            problems.append("stdout differs from the in-process library result")
        earlier = self.same_as.checked_output if self.same_as else None
        if earlier is not None and out != earlier:
            problems.append(f"stdout differs from {self.same_as.name}")
        self.checked_output = out
        return problems


def build_cli_session(seed, ctx):
    rng = random.Random(seed)
    work = ctx["workdir"]
    paths = {}
    for name in ("A2", "B3", "A2~", "G2"):
        paths[name] = os.path.join(work, f"{name.replace('~', 'aff')}.json")
        with open(paths[name], "w") as fh:
            json.dump({"rank": len(CARTAN[name]), "matrix": CARTAN[name]}, fh)
    quick_cache = os.path.join(work, "cache-quick")
    kl_cache = os.path.join(work, "cache-kl")
    ops = []

    def block_ref(name, coords, length_bound):
        cartan = rootdata.cartan_datum(CARTAN[name])
        return blocks.block_data(cartan, weight(cartan, coords), length_bound=length_bound)

    for name, char_length in (("A2", 2), ("B3", 5), ("A2~", 3)):
        bound = AFFINE_CLI_LENGTH_BOUND if name == "A2~" else blocks.DEFAULT_LENGTH_BOUND
        extra = ["--length-bound", str(bound)] if name == "A2~" else []
        cartan = rootdata.cartan_datum(CARTAN[name])
        dom = dominant(rng, cartan.rank)
        ops.append(CliOp(
            f"{name}.block", ["block", "--cartan", paths[name], f"--weight={weight_arg(dom)}"]
            + extra, ctx, quick_cache,
            lambda n=name, c=dom, b=bound: blocks.block_to_json(block_ref(n, c, b))))
        anti = antidominant(rng, cartan.rank)
        system = block_ref(name, anti, bound).coxeter_system
        w = walk_up(system, char_length, rng)

        def char_ref(n=name, c=anti, b=bound, w=w):
            block = block_ref(n, c, b)
            char = kl.simple_character(block, block.coxeter_system.element(w))
            return {"w": word_str(w), "coefficients": char.to_json(),
                    "truncated": char.truncated}

        ops.append(CliOp(
            f"{name}.character[{word_str(w)}]",
            ["character", "--cartan", paths[name], f"--weight={weight_arg(anti)}",
             "--w", word_str(w)] + extra, ctx, quick_cache, char_ref))

    system = block_ref("B3", [0, 0, 0], blocks.DEFAULT_LENGTH_BOUND).coxeter_system
    table = kl.KLTable(system)
    pairs = []
    for lw, lx in KL_LENGTH_PROFILE:
        w = walk_up(system, lw, rng)
        pairs.append((walk_down(system, w, lx, rng), w))

    def kl_ref(x, w):
        ex, ew = system.element(x), system.element(w)
        p = table.poly(ex, ew)
        q = table.inverse_poly(ex, ew)
        return {"x": word_str(x), "w": word_str(w), "p": kl.poly_str(p),
                "p_coefficients": list(p), "q": kl.poly_str(q), "q_coefficients": list(q)}

    cold = []
    for phase in ("cold", "warm"):
        for i, (x, w) in enumerate(pairs):
            op = CliOp(f"B3.kl.{phase}[{word_str(x)}|{word_str(w)}]",
                       ["kl", "--cartan", paths["B3"], "--x", word_str(x), "--w", word_str(w)],
                       ctx, kl_cache, lambda x=x, w=w: kl_ref(x, w))
            if phase == "cold":
                cold.append(op)
            else:
                op.same_as = cold[i]
            ops.append(op)

    g2 = rootdata.cartan_datum(CARTAN["G2"])
    lam = dominant(rng, g2.rank)
    graph = zmod.moment_graph(block_ref("G2", lam, blocks.DEFAULT_LENGTH_BOUND))
    ops.append(CenterOp("G2.center", ["center", "--cartan", paths["G2"],
                                      f"--weight={weight_arg(lam)}",
                                      "--degree-bound", str(CENTER_DEGREE_BOUND)],
                        ctx, quick_cache, graph))
    return ops


class CenterOp(CliOp):
    """`center`: its printed structure algebra is checked directly (rank and
    edge divisibility), without recomputing it in-process."""

    def __init__(self, name, argv, ctx, cache, graph):
        super().__init__(name, argv, ctx, cache, None)
        self.graph = graph

    def check(self, out):
        report = json.loads(out)
        slots = [parse_word(w) for w in report["slots"]]
        nv = self.graph.nvars
        gens = [tuple(parse_poly(nv, e) for e in g["entries"]) for g in report["generators"]]
        algebra = zmod.ZLattice(self.graph, tuple(slots), gens,
                                [g["degree"] for g in report["generators"]])
        return check_structure_algebra(self.graph, algebra)


def parse_word(text):
    return () if text == "e" else tuple(int(t) - 1 for t in text.split())


def parse_poly(nvars, text):
    """Inverse of Poly.__str__: terms "c:x1^2*x3" joined by " + "."""
    terms = {}
    if text != "0":
        for term in text.split(" + "):
            coeff, _, names = term.partition(":")
            mono = [0] * nvars
            for name in filter(None, names.split("*")):
                var, _, exp = name[1:].partition("^")
                mono[int(var) - 1] = int(exp or 1)
            terms[tuple(mono)] = Fraction(coeff)
    return Poly(nvars, terms)


BUILDERS = {
    "kl_tables": build_kl_tables,
    "zmod_projectives": build_zmod_projectives,
    "cli_session": build_cli_session,
}
