"""Seeded inputs of the three workloads and the answers they must produce.

Every input is drawn from a ``random.Random`` seeded on the command line, so
the same seed gives the same groups and the same query stream.  The program
under test only ever sees the generated text and descriptors.

Expected answers come from two places:

* the paper, where it decides the answer (``paper_verdict``): rational
  images of Q^n have GL_Q(n), quadratic fields have their unit group, the
  rigid modules have {+-1}, ``realize-ax m`` succeeds exactly for prime m;
* ``pinned.json``, the stdout bytes and exit code of every query of the
  finite query universe (``query_universe``), recorded by ``pin.py``.
"""

import json
import random
from pathlib import Path

RADICANDS = (2, 3, 5, 6, 7)
ZINV_BASES = (2, 3, 5, 6, 7, 10)
REALIZE_BASES = tuple(range(2, 31))
# Radicands the oracle workloads draw from.  Within a pool every choice
# gives the same number of candidates at the workload's height, so runs with
# different seeds classify the same amount: the seed varies the arithmetic,
# not the size of the job.
LINE_POOLS = {
    "rigid": RADICANDS,                          # Z*1 + Q*sqrt(d): 44
    "rigid_pair": ((2, 6), (3, 2), (3, 6),       # Z*sqrt(d) + Q*sqrt(e): 44
                   (5, 2), (6, 2), (7, 2)),
    "field": RADICANDS,                          # Q + Q*sqrt(d), hull: 48
    "biquad": ((2, 3), (2, 5), (2, 7)),          # Q*sqrt(d) + Q*sqrt(e): 44
}
PLANE_POOLS = {
    "line": (3, 5, 6, 7),                        # Q x Q*sqrt(d): 252
    "pair": ((2, 3), (2, 5), (2, 6), (2, 7),     # Q*sqrt(d) x Q*sqrt(e): 252
             (3, 2), (5, 2), (6, 2), (7, 2)),
    "rigid": RADICANDS,                          # (Z*1 + Q*sqrt(d))^2: 496
}
LINE_HEIGHT = 2
PLANE_HEIGHT = 2
PINNED = Path(__file__).with_name("pinned.json")

# One block of the query stream: how many queries of each kind it holds.
# The three n = 7 images of a block are 1.5% of it, so p99 falls among them.
BLOCK = (("aut", 40), ("member", 30), ("aut-member", 24),
         ("aut-member-matrix", 24), ("dim", 12), ("divisible", 12),
         ("cyclic", 12), ("dense", 12), ("realize-ax", 10),
         ("sl-witness", 14))
IMAGE_SIZES = (3, 4, 5, 6, 7, 7, 7)
TAIL_PERCENTILE = 99


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _g(text, dim, rads=(), formal=False):
    return {"text": text, "dim": dim, "rads": rads, "formal": formal}


def _slots(groups):
    # the slot names a group's place in the corpus, whatever its radicands
    for slot, g in enumerate(groups):
        g["slot"] = slot
    return groups


def line_groups(d1, d2, e2, d3, d4, e4, d5, m):
    """The one-dimensional oracle corpus for one choice of radicands."""
    return _slots([
        _g(f"Z*1 + Q*sqrt({d1})", 1, (d1,)),
        _g(f"Z*sqrt({d2}) + Q*sqrt({e2})", 1, (d2, e2)),
        _g(f"Q + Q*sqrt({d3})", 1, (d3,)),
        _g(f"Q*sqrt({d4}) + Q*sqrt({e4})", 1, (d4, e4)),
        _g("Q + Q*t", 1, formal=True),
        _g("ring(Z[t,1/t])", 1, formal=True),
        _g(f"hull(Z*1 + Z*sqrt({d5}))", 1, (d5,)),
        _g(f"Zinv({m})", 1),
        _g("R", 1),
    ])


def plane_groups(d1, d2, e2, d3):
    """The two-factor oracle corpus for one choice of radicands."""
    return _slots([
        _g("Q x Q", 2),
        _g(f"Q x Q*sqrt({d1})", 2, (d1,)),
        _g("Q x R", 2),
        _g(f"Q*sqrt({d2}) x Q*sqrt({e2})", 2, (d2, e2)),
        _g(f"(Z*1 + Q*sqrt({d3})) x (Z*1 + Q*sqrt({d3}))", 2, (d3,)),
        _g("Z x Z", 2),
        _g("Q x Z", 2),
    ])


def line_pass(rng):
    d2, e2 = rng.choice(LINE_POOLS["rigid_pair"])
    d4, e4 = rng.choice(LINE_POOLS["biquad"])
    groups = line_groups(rng.choice(LINE_POOLS["rigid"]), d2, e2,
                         rng.choice(LINE_POOLS["field"]), d4, e4,
                         rng.choice(LINE_POOLS["field"]),
                         rng.choice(ZINV_BASES))
    rng.shuffle(groups)
    return groups


def plane_pass(rng):
    d2, e2 = rng.choice(PLANE_POOLS["pair"])
    groups = plane_groups(rng.choice(PLANE_POOLS["line"]), d2, e2,
                          rng.choice(PLANE_POOLS["rigid"]))
    rng.shuffle(groups)
    return groups


def _unique(groups):
    return list({g["text"]: g for g in groups}.values())


def all_line_groups():
    pairs = [(d, e) for d in RADICANDS for e in RADICANDS if d != e]
    return _unique(
        g for d in RADICANDS for d2, e2 in pairs for m in ZINV_BASES
        for g in line_groups(d, d2, e2, d, *sorted((d2, e2)), d, m))


def all_plane_groups():
    pairs = [(d, e) for d in RADICANDS for e in RADICANDS if d != e]
    return _unique(g for d in RADICANDS for d2, e2 in pairs
                   for g in plane_groups(d, d2, e2, d))


# ---------------------------------------------------------------------------
# query universe
# ---------------------------------------------------------------------------

def _member_values(g):
    if g["dim"] == 2:
        vals = ["(1,2)", "(1/2,3)", "(0,-1)"]
        if g["rads"]:
            d = g["rads"][-1]
            vals += [f"(1,sqrt({d}))", f"(1/2,3*sqrt({d}))"]
        return vals
    if g["formal"]:
        return ["t", "2*t^-1+t", "1/2*t", "3", "-t^2"]
    rads = g["rads"]
    if len(rads) == 2:
        d, e = rads
        return [f"sqrt({d})", f"2*sqrt({d})+1/3*sqrt({e})", f"1/2*sqrt({e})",
                f"-sqrt({e})", "1"]
    if len(rads) == 1:
        d = rads[0]
        return ["3", "1/2", f"sqrt({d})", f"1+sqrt({d})",
                f"-3+1/2*sqrt({d})", f"2/3*sqrt({d})"]
    if g["text"] == "R":
        return ["sqrt(2)", "1/3", "-5"]
    m = int(g["text"][5:-1])
    return [f"1/{m}", f"3/{m * m}", "1/11", "-7"]


def _scalar_candidates(g):
    if g["formal"]:
        return ["t", "2*t", "-t^-1", "2", "1/2*t^2"]
    rads = g["rads"]
    if len(rads) == 2:
        d, e = rads
        return ["2", "-1", "1/3", f"sqrt({d})", f"1+sqrt({e})"]
    if len(rads) == 1:
        d = rads[0]
        return ["2", "-1", "1/2", f"sqrt({d})", f"1+sqrt({d})"]
    if g["text"] == "R":
        return ["sqrt(2)", "2", "-1/3"]
    m = int(g["text"][5:-1])
    return [str(m), "2", f"1/{m}", "3", "-1"]


def _matrix_candidates(g):
    mats = ["[1,0;0,1]", "[2,0;0,1]", "[1,1;0,1]", "[0,1;1,0]", "[1,2;3,4]",
            "[-1,0;0,1]", "[1,0;1,1]", "[1/2,0;0,3]"]
    if len(g["rads"]) == 1:
        d = g["rads"][0]
        mats += [f"[1,0;0,sqrt({d})]", f"[sqrt({d}),0;0,1]"]
    return mats


def _with_value(cmd, group, value):
    # a value that starts with '-' must follow '--', or argparse takes it
    # for an option
    if value.startswith("-"):
        return [cmd, group, "--", value]
    return [cmd, group, value]


def _is_dense_candidate(g):
    return g["text"] not in ("Z x Z", "Q x Z")


def query_pools():
    """Every query of the stream except ``image``, grouped by block kind."""
    line, plane = all_line_groups(), all_plane_groups()
    everything = line + plane
    pools = {kind: [[kind, g["text"]] for g in everything]
             for kind in ("aut", "dim", "divisible", "dense")}
    # cyclicity is defined for one-dimensional groups only
    pools["cyclic"] = [["cyclic", g["text"]] for g in line]
    pools["member"] = [_with_value("member", g["text"], v)
                       for g in everything for v in _member_values(g)]
    pools["aut-member"] = [_with_value("aut-member", g["text"], v)
                           for g in line for v in _scalar_candidates(g)]
    pools["aut-member-matrix"] = [["aut-member", g["text"], v]
                                  for g in plane for v in _matrix_candidates(g)]
    pools["realize-ax"] = [["realize-ax", str(m)] for m in REALIZE_BASES]
    pools["sl-witness"] = [["sl-witness", g["text"]]
                           for g in plane if _is_dense_candidate(g)]
    return pools


def query_universe():
    return [q for pool in query_pools().values() for q in pool]


# ---------------------------------------------------------------------------
# image queries: dense invertible integer matrices
# ---------------------------------------------------------------------------

def integer_det(rows):
    """Bareiss fraction-free determinant of an integer matrix."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_matrix(rng, n):
    entries = [k for k in range(-5, 6) if k != 0]
    while True:
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if integer_det(rows) != 0:
            return rows


def image_query(rng, n):
    rows = dense_matrix(rng, n)
    body = ";".join(",".join(str(x) for x in r) for r in rows)
    return ["aut", f"image({' x '.join(['Q'] * n)}, [{body}])"]


# ---------------------------------------------------------------------------
# the query stream
# ---------------------------------------------------------------------------

def query_block(rng, pools):
    block = [rng.choice(pools[kind]) for kind, count in BLOCK
             for _ in range(count)]
    block += [image_query(rng, n) for n in IMAGE_SIZES]
    rng.shuffle(block)
    return block


def query_stream(seed, blocks):
    rng = random.Random(seed)
    pools = query_pools()
    return [q for _ in range(blocks) for q in query_block(rng, pools)]


# ---------------------------------------------------------------------------
# expected answers
# ---------------------------------------------------------------------------

def _is_prime(m):
    return m >= 2 and all(m % p for p in range(2, int(m ** 0.5) + 1))


def _image_size(text):
    inner = text[len("image("):text.index(", [")]
    factors = inner.split(" x ")
    return len(factors) if set(factors) == {"Q"} else None


def paper_verdict(argv, exit_code, stdout):
    """True or False where the paper decides the answer, None elsewhere."""
    cmd, rest = argv[0], argv[1:]
    if cmd == "realize-ax":
        answer = json.loads(stdout)
        return exit_code == 0 and answer["realizable"] == _is_prime(int(rest[0]))
    if cmd != "aut":
        return None
    text = rest[0]
    if text.startswith("image("):
        n = _image_size(text)
        if n is None:
            return None
        expected = {"aut": {"kind": "GLQ", "n": n}}
    elif text.startswith(("Q + Q*sqrt(", "hull(Z*1 + Z*sqrt(")):
        d = int(text.rstrip(")").rsplit("sqrt(", 1)[1])
        expected = {"aut": {"kind": "FieldUnits", "d": d}}
    elif text.startswith(("Z*1 + Q*sqrt(", "Z*sqrt(")):
        expected = {"aut": {"kind": "PlusMinusOne"}}
    else:
        return None
    return exit_code == 0 and json.loads(stdout) == expected


def load_pinned(path=PINNED):
    with open(path) as fh:
        entries = json.load(fh)["queries"]
    return {json.dumps(argv): (code, out) for argv, code, out in entries}


def expected_answer(argv, pinned):
    """(exit code, stdout) the query must produce, or None when only the
    paper's verdict applies (image queries)."""
    return pinned.get(json.dumps(argv))
