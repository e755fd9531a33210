"""Workload ``witness-report``: whole scenarios through ``forcelab.cli.main``.

Generated scenario texts cover every verb: ``thm2 extract`` over families
holding the natural n (6 <= n <= 14, whose report grows as 2^n), ``thm1
enumerate``, ``mix``, ``leastord``, ``witness`` and ``forces`` over flat
posets, the four ``cohen`` modes on grids up to 4x3, ``decompose`` and
``symcheck``.  Every round also replays the committed ``scenarios/*.fl``
against ``tests/golden/`` byte for byte, and four malformed inputs that must
fail with their stated code and exit status.  Parsing, HF and name
construction and JSON serialization dominate here.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from forcelab.cli import main

from specs import Mismatch

ROOT = Path(__file__).resolve().parent.parent
ROUNDS_PER_SECOND = 2.1
LABELS = "abcdefhk"  # no "g" or "x": scenarios use them as names
# The expected code and exit status of each malformed input.
MALFORMED = {
    "syntax": ("syntax-error", 1),
    "verb": ("invalid-input", 2),
    "condition": ("unknown-condition", 2),
    "collision": ("column-collision", 2),
}
# Every report boolean that must hold, per verb or cohen mode.
MUST_HOLD = {
    "thm1": ("roundtrip_ok",),
    "thm2": ("complete", "roundtrip_ok"),
    "forces": ("routes_agree",),
    "leastord": ("forces_theta",),
    "decompose": ("composition_ok", "pi1_in_Hn", "pi2_fixes_k"),
    "hat": ("match",),
    "edense": ("dense_ok",),
    "conjugate": ("name_match", "compatible"),
    "roundtrip": ("decided_ok",),
}


def _set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _family(labels, blocks) -> str:
    return "family F { " + " ".join(
        f"{lab}: {_set(b)}" for lab, b in zip(labels, blocks)) + " }\n"


def _flat(rng, k):
    """k labels whose conditions are coded 0..k-1; the top is coded k."""
    labels = rng.sample(LABELS, k)
    text = _family(labels, [[v] for v in rng.sample(range(10), k)])
    return labels, text + "poset P flat F\nname g = gamma(P)\n"


def gen_thm2(rng, n):
    labels = rng.sample(LABELS, 2)
    text = _family(labels, [[n], rng.sample(range(6), 2)])
    return "thm2", text + "command thm2 extract F\n", {"count": 2}


def gen_thm1(rng, sizes, level):
    labels = rng.sample(LABELS, len(sizes))
    values = iter(rng.sample(range(12), sum(sizes)))
    text = _family(labels, [[next(values) for _ in range(s)] for s in sizes])
    count = 1
    for s in sizes:
        count *= level * s
    return ("thm1", text + f"command thm1 enumerate F level={level}\n",
            {"count": count})


def gen_mix(rng, k):
    labels, text = _flat(rng, k)
    order = rng.sample(labels, k)
    values = [rng.randrange(6) for _ in order]
    text += f"conds A over P = {{ {', '.join(order)} }}\n"
    text += "".join(f"name t{i} = check({v})\n" for i, v in enumerate(values))
    text += "command mix P 1 A " + " ".join(f"t{i}" for i in range(k)) + "\n"
    return "mix", text, {"evaluations": {lab: str(v)
                                         for lab, v in zip(order, values)}}


def gen_leastord(rng, k, kappa):
    """theta(al) is a disjunction of clauses "al = beta and c in g"; the
    last clause names the top, which lies in every generic filter."""
    labels, text = _flat(rng, k)
    clauses = [(rng.randrange(kappa), rng.randrange(k + 1))
               for _ in range(rng.randint(1, 3))] + [(kappa - 1, k)]
    text += "formula theta(al) = " + " or ".join(
        f"(al = check({b}) and check({c}) in g)" for b, c in clauses) + "\n"
    text += f"command leastord P 1 theta kappa={kappa}\n"
    least = {lab: str(min(b for b, c in clauses if c in (i, k)))
             for i, lab in enumerate(labels)}
    return "leastord", text, {"evaluations": least}


def gen_witness(rng, k, exact, rank):
    """theta(x) = "x in g", or with "exact" also "not x = <top code>", so
    that below block i the witness must be i itself."""
    labels, text = _flat(rng, k)
    body = "x in g" + (f" and not x = check({k})" if exact else "")
    text += (f"formula theta(x) = {body}\n"
             f"command witness P 1 theta rank={rank}\n")
    allowed = {lab: [str(i)] if exact else [str(i), str(k)]
               for i, lab in enumerate(labels)}
    return "witness", text, {"allowed": allowed}


def gen_forces(rng, k):
    labels, text = _flat(rng, k)
    i = rng.randrange(k + 1)
    template = rng.randrange(4)
    if template == 0:
        phi, holds = f"check({i}) in g", lambda m: i in (m, k)
    elif template == 1:
        phi, holds = f"not check({i}) in g", lambda m: i not in (m, k)
    elif template == 2:
        phi, holds = (f"exists x [in g] x = check({i})",
                      lambda m: i in (m, k))
    else:
        j = rng.randint(1, k + 1)
        phi, holds = (f"exists x [ord < {j}] x in g",
                      lambda m: m < j or k < j)
    cond = rng.choice(labels + ["1"])
    below = range(k) if cond == "1" else [labels.index(cond)]
    text += f"formula phi = {phi}\ncommand forces P {cond} phi\n"
    return "forces", text, {"forces": all(holds(m) for m in below)}


def _grid(rng, cols, rows, distinct=True):
    """A grid and a row-major assignment whose columns are distinct row
    sets, or, without ``distinct``, whose first two columns collide."""
    sets = rng.sample(range(1 << rows), cols) if distinct else \
        [0, 0] + [rng.randrange(1 << rows) for _ in range(cols - 2)]
    bits = [sets[c] >> r & 1 for r in range(rows) for c in range(cols)]
    return (f"grid G cols={cols} rows={rows}\n"
            f"assignment g G [{', '.join(map(str, bits))}]\n")


def _sigma(pairs) -> str:
    return "{ " + ", ".join(f"({i},{j})" for i, j in pairs) + " }"


def gen_hat(rng, cols, rows, size):
    sigma = zip(rng.sample(range(cols), size), rng.sample(range(cols), size))
    text = _grid(rng, cols, rows) + f"sigma s = {_sigma(sigma)}\n"
    return "cohen", text + "name t = rsigma(G, s)\ncommand cohen hat g t\n", \
        {"mode": "hat"}


def gen_edense(rng, cols, rows):
    """The dense set: every total condition, plus a few partial ones."""
    cells = [(c, r) for c in range(cols) for r in range(rows)]
    conds = [dict(zip(cells, (mask >> i & 1 for i in range(len(cells)))))
             for mask in range(1 << len(cells))]
    for _ in range(rng.randint(0, 3)):
        part = rng.sample(cells, rng.randint(1, len(cells) - 1))
        conds.append({cell: rng.randrange(2) for cell in part})
    rng.shuffle(conds)
    dense = ", ".join(
        "{" + ",".join(f"({c},{r})={b}" for (c, r), b in sorted(d.items()))
        + "}" for d in conds)
    text = _grid(rng, cols, rows) + f"conds D over G = {{ {dense} }}\n"
    return "cohen", text + "command cohen edense g D\n", {"mode": "edense"}


def gen_conjugate(rng):
    n = rng.randint(0, 2)
    bound = rng.randint(n + 1, 4)
    moving = rng.sample(range(n, bound), rng.randint(0, bound - n))
    images = rng.sample(range(n, bound), len(moving))
    sigma = [(i, i) for i in range(n)] + list(zip(moving, images))
    text = (f"grid G cols={2 * bound} rows=2\nsigma s = {_sigma(sigma)}\n"
            f"command cohen conjugate s n={n} bound={bound} grid=G\n")
    return "cohen", text, {"mode": "conjugate"}


def gen_roundtrip(rng, cols, rows):
    text = _grid(rng, cols, rows) + "command cohen roundtrip g\n"
    return "cohen", text, {"mode": "roundtrip", "g1_size": 1 << cols}


def gen_decompose(rng):
    """Cycles and at most one chain moving only points >= n.  The chain's
    tails are the odd and the even numbers from top + 2 on, so its window
    and the cycles share the points n..top+1."""
    n = rng.randint(0, 2)
    top = n + 2 * rng.randint(2, 4)
    free = rng.sample(range(n, top + 2), top + 2 - n)
    chain = ""
    if rng.random() < 0.8:
        m = rng.randint(1, 4)
        mid, free = free[:m], free[m:]
        chain = (f" chain(lo={rng.randint(0, 2)},"
                 f" mid=[{', '.join(map(str, mid))}],"
                 f" neg=(2,{top + 1}), pos=(2,{top}))")
    cycles = ""
    while len(free) >= 2 and rng.random() < 0.7:
        size = rng.randint(2, min(3, len(free)))
        cycles += "(" + " ".join(map(str, free[:size])) + ")"
        free = free[size:]
    perm = (cycles + chain).strip() or "id"
    k = rng.randint(n + 1, top + 2)
    return "decompose", (f"perm pi = {perm}\n"
                         f"command decompose pi n={n} k={k}\n"), {}


def gen_symcheck(rng):
    cols = rng.sample(range(6), 2)
    form = rng.randrange(4)
    if form == 0:
        name, support = f"xdot(G,{cols[0]})", cols[:1]
    elif form == 1:
        name, support = f"xcc(G,{cols[0]})", cols[:1]
    elif form == 2:
        name, support = f"upair(xdot(G,{cols[0]}), xdot(G,{cols[1]}))", cols
    else:
        name, support = f"pair(xdot(G,{cols[0]}), xcc(G,{cols[1]}))", cols
    n = rng.randint(0, 6)
    text = (f"grid G cols=6 rows=2\nname t over G = {name}\n"
            f"command symcheck t n={n}\n")
    return "symcheck", text, {"support": sorted(support),
                              "fixed": all(c < n for c in support)}


def gen_malformed(rng, kind):
    if kind == "syntax":
        labels = rng.sample(LABELS, 2)
        text = (f"family F {{ {labels[0]}: {{0, 1}} {labels[1]}: {{2}}\n"
                "command thm2 extract F\n")
        return "thm2", text, {"error": kind}
    if kind == "verb":
        _, text, _ = gen_thm2(rng, 6)
        return "thm1", text, {"error": kind}
    if kind == "condition":
        labels, text = _flat(rng, 2)
        return "forces", text + ("formula phi = check(0) in g\n"
                                 "command forces P zz phi\n"), {"error": kind}
    text = _grid(rng, 3, 2, distinct=False) + "command cohen roundtrip g\n"
    return "cohen", text, {"error": kind}


def round_of(rng):
    """One round: a fixed multiset of scenario shapes, contents drawn.

    Above the 90th percentile of a round's 78 operations sit the five
    heaviest (thm2 with n = 11..14, hat on a 4x3 grid); below them a block
    of five of about 9 ms (thm2 with n = 10, thm1 over blocks 3, 2, 1 at
    level 3, edense on a 2x2 grid, hat on a 3x2 grid, witness over three
    blocks at rank 2) holds the percentile, so that it does not jump with
    the contents a seed draws.  Edense stops at 2x2: on 3x2 it takes 0.2 s
    and on 4x2 over 5 s."""
    out = [gen_thm2(rng, n) for n in range(6, 15)]
    out += [gen_thm1(rng, sizes, level) for sizes, level in (
        ((2,), 3), ((1, 2), 2), ((2, 2), 3), ((3, 1, 1), 3), ((2, 2, 2), 2),
        ((3, 2, 1), 3))]
    out += [gen_mix(rng, k) for k in (2, 3, 3, 4, 4)]
    out += [gen_leastord(rng, k, kappa) for k, kappa in ((2, 2), (2, 3),
                                                         (3, 3), (3, 4))]
    out += [gen_witness(rng, k, exact, rank) for k, exact, rank in (
        (2, False, 1), (3, False, 1), (4, False, 1), (2, True, 1),
        (2, True, 2), (3, True, 2))]
    out += [gen_forces(rng, k) for k in (2, 2, 2, 3, 3, 3, 4, 4, 4)]
    out += [gen_hat(rng, c, r, size) for c, r, size in (
        (2, 2, 1), (2, 2, 2), (3, 2, 2), (4, 3, 1))]
    out += [gen_edense(rng, c, r) for c, r in ((2, 1), (2, 1), (2, 2))]
    out += [gen_conjugate(rng) for _ in range(3)]
    out += [gen_roundtrip(rng, c, r) for c, r in ((2, 2), (3, 2), (4, 3))]
    out += [gen_decompose(rng) for _ in range(3)]
    out += [gen_symcheck(rng) for _ in range(3)]
    out += [gen_malformed(rng, kind) for kind in MALFORMED]
    return out


# The committed scenarios, each replayed against tests/golden/<name>.json.
COMMITTED = (
    "cohen_conjugate", "cohen_edense", "cohen_hat", "cohen_roundtrip",
    "decompose_chain", "decompose_mixed", "forces_explicit", "forces_flat",
    "leastord_flat", "mix_flat", "parse_demo", "symcheck_pair",
    "symcheck_single", "thm1_enum", "thm2_extract", "witness_flat",
)


def goldens():
    """(verb, scenario path, golden report) for every committed scenario."""
    out = []
    for name in COMMITTED:
        path = ROOT / "scenarios" / f"{name}.fl"
        found = re.search(r"^command\s+(\S+)", path.read_text(), re.MULTILINE)
        verb = found.group(1) if found else "parse-only"
        golden = (ROOT / "tests" / "golden" / f"{name}.json").read_text()
        out.append(("golden", (verb, str(path), golden)))
    return out


def generate(rng, rounds):
    """One warm-up operation per verb, cohen mode and malformed kind, and
    ``rounds`` rounds of operations, each shuffled."""
    committed = goldens()
    kinds = {}
    for item in round_of(rng):
        verb, _, expect = item
        kinds.setdefault((verb, expect.get("mode"), expect.get("error")), item)
    warmups = [("scenario", item) for item in kinds.values()] + committed[:1]
    ops = []
    for _ in range(rounds):
        block = [("scenario", item) for item in round_of(rng)] + committed
        rng.shuffle(block)
        ops += block
    return warmups, ops


def prepare(kind, spec, workdir: Path):
    """Write a generated scenario to the file the command line will read;
    the benchmark does this between operations, outside their timing."""
    if kind == "golden":
        return spec
    verb, text, expect = spec
    path = workdir / "scenario.fl"
    path.write_text(text)
    return verb, str(path), expect


def run(kind, spec):
    """Run one scenario in process; return a callable that checks the
    report."""
    verb, path, expect = spec
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main([verb, path])
    out = buf.getvalue()
    if kind == "golden":
        def check():
            if status != 0 or out != expect:
                raise Mismatch(f"{path}: report differs from its golden file")
        return check
    return lambda: _check(verb, path, expect, status, out)


def _check(verb, path, expect, status, out):
    report = json.loads(out)
    if "error" in expect:
        code, want = MALFORMED[expect["error"]]
        got = report.get("error", {}).get("code")
        if (got, status) != (code, want):
            raise Mismatch(f"{path}: got {got} with status {status}, "
                           f"expected {code} with status {want}")
        return
    if status != 0:
        raise Mismatch(f"{path}: exit status {status}: {out[:200]}")
    for key in MUST_HOLD.get(expect.get("mode", verb), ()):
        if report.get(key) is not True:
            raise Mismatch(f"{path}: {key} is {report.get(key)}")
    if "count" in expect and not (
            report["count"] == report["expected"] == expect["count"]):
        raise Mismatch(f"{path}: count {report['count']}, reported "
                       f"{report['expected']}, expected {expect['count']}")
    for key in ("evaluations", "forces", "support", "fixed", "g1_size"):
        if key in expect and report[key] != expect[key]:
            raise Mismatch(f"{path}: {key} is {report[key]}, "
                           f"expected {expect[key]}")
    if "allowed" in expect:
        if not report["found"] or any(
                value not in expect["allowed"][lab]
                for lab, value in report["evaluations"].items()) or \
                set(report["evaluations"]) != set(expect["allowed"]):
            raise Mismatch(f"{path}: witness evaluations "
                           f"{report['evaluations']} escape "
                           f"{expect['allowed']}")
