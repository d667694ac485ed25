"""The timed loops of the three workloads and the checks of their outputs.

All three are closed loops with a single caller: each operation starts only
after the previous one has returned.  Every package ``lru_cache`` is cleared
before each operation, outside the timed window, because every CLI process
starts cold.

Operations are timed in process CPU time.  The program runs on one thread
and neither waits nor does I/O, so on an idle machine that is its wall time;
unlike wall time, it leaves out the time a shared virtual machine gives the
CPU to someone else.
"""

import contextlib
import io
import itertools
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from groupaut import (autgroup, cli, descriptors, dsl, linalg, matrices,
                      oracle, scalars, witnesses)

import corpus

MODULES = (scalars, linalg, matrices, descriptors, autgroup, oracle, dsl,
           witnesses, cli)


def _package_caches():
    seen = {}
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                seen[id(obj)] = (f"{mod.__name__.split('.')[-1]}.{name}", obj)
    return sorted(seen.values(), key=lambda item: item[0])


# Bound once, before any tracing rebinds the module names.
CACHES = _package_caches()


def clear_caches(outcome=None):
    """Clear every package cache, first adding its hits and misses to the
    outcome's totals."""
    for name, fn in CACHES:
        if outcome is not None:
            info = fn.cache_info()
            total = outcome.cache_totals.setdefault(name, [0, 0])
            total[0] += info.hits
            total[1] += info.misses
        fn.cache_clear()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

ORACLE_PASSES = 8
QUERY_BLOCKS = 6


def _parsed(groups):
    return [dict(g, desc=dsl.parse_descriptor(g["text"])) for g in groups]


def build_inputs(workload, seed):
    """Everything a run needs, built from the seed alone."""
    rng = random.Random(seed)
    if workload == "oracle_line":
        return [_parsed(corpus.line_pass(rng)) for _ in range(ORACLE_PASSES)]
    if workload == "oracle_plane":
        return [_parsed(corpus.plane_pass(rng)) for _ in range(ORACLE_PASSES)]
    if workload == "query_mix":
        pinned = corpus.load_pinned()
        stream = corpus.query_stream(seed, QUERY_BLOCKS)
        return {"pinned": pinned, "stream": stream}
    raise ValueError(f"unknown workload {workload!r}")


HEIGHTS = {"oracle_line": corpus.LINE_HEIGHT,
           "oracle_plane": corpus.PLANE_HEIGHT}


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

# The calibration loop's CPU time on an idle machine of the kind the
# benchmark was built on.  Every request time is scaled by this over the
# loop's latest time, so the figures read as on that idle machine.
CALIBRATION_NOMINAL_S = 0.018
CALIBRATION_EVERY_S = 0.25


def _calibration_loop():
    """Fixed pure-Python work in the style of the scalar tower: Fraction
    arithmetic, tuple keys and a dict."""
    acc, table = Fraction(0), {}
    for i in range(1, 2500):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[i, i % 7] = acc.numerator % 97
    return acc


class Speedometer:
    """How fast the machine runs right now, next to how fast it runs idle.

    The machine is shared: its speed switches between states that differ by
    a factor of about 1.6 and last from seconds to minutes.  The calibration
    loop runs at most every ``CALIBRATION_EVERY_S`` of wall time, between
    requests and outside their timed windows; a request's scale is the mean
    of the scales before and after it."""

    def __init__(self):
        self.checked = None
        self.scale = 1.0
        self.scales = []

    def scale_now(self):
        now = time.perf_counter()
        if self.checked is None or now - self.checked >= CALIBRATION_EVERY_S:
            t0 = time.process_time_ns()
            _calibration_loop()
            loop_s = (time.process_time_ns() - t0) / 1e9
            self.scale = CALIBRATION_NOMINAL_S / loop_s
            self.scales.append(self.scale)
            self.checked = time.perf_counter()
        return self.scale


@dataclass
class Outcome:
    """What one run did: timings, counts and every failure.

    A request is one ``cross_check`` of a group, or one CLI query.  Each has
    its time (CPU time, scaled to the idle machine), its candidate count and
    a key: the group's corpus slot, or the query's position in the stream.
    """
    request_s: list = field(default_factory=list)
    request_key: list = field(default_factory=list)
    request_candidates: list = field(default_factory=list)
    candidates: int = 0
    confirmed: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    refutations: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    cache_totals: dict = field(default_factory=dict)
    speed: Speedometer = field(default_factory=Speedometer)

    def fail(self, name, reason):
        self.failures.append((name, reason))

    def request(self, key, seconds, candidates):
        self.request_key.append(key)
        self.request_s.append(seconds)
        self.request_candidates.append(candidates)

    @property
    def busy_s(self):
        return sum(self.request_s)

    def by_key(self):
        """key -> (list of seconds, list of candidate counts)"""
        groups = {}
        for key, t, c in zip(self.request_key, self.request_s,
                             self.request_candidates):
            times, cands = groups.setdefault(key, ([], []))
            times.append(t)
            cands.append(c)
        return groups


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def summary(outcome):
    """(candidates/s, requests/s, p50 latency s, tail latency s) of a run.

    A run repeats the same work: the oracle workloads pass after pass over
    their corpus slots, ``query_mix`` cycle after cycle over its stream.
    Each key (slot, or position in the stream) takes the median of its
    times.  The rates divide the keys' candidates and count by the sum of
    those medians; the latencies are the median and the p99 of them.
    """
    groups = outcome.by_key()
    typical = [statistics.median(t) for t, _ in groups.values()]
    cands = sum(c[0] for _, c in groups.values())
    busy = sum(typical)
    return (cands / busy, len(typical) / busy, statistics.median(typical),
            percentile(typical, corpus.TAIL_PERCENTILE))


def end_to_end(outcome, setup_s, peak_rss_mb):
    candidates_per_s, queries_per_s, p50_s, tail_s = summary(outcome)
    return {
        "setup_s": (setup_s, "s"),
        "candidates_per_s": (candidates_per_s, "1/s"),
        "queries_per_s": (queries_per_s, "1/s"),
        "query_p50_ms": (1000 * p50_s, "ms"),
        "query_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# oracle workloads
# ---------------------------------------------------------------------------

def cross_check_group(g, height, outcome):
    """One timed ``cross_check``; failures are recorded, not raised."""
    clear_caches(outcome)
    outcome.attempted += 1
    scale = outcome.speed.scale_now()
    t0 = time.process_time_ns()
    try:
        report = oracle.cross_check(g["desc"], height)
    except Exception as exc:   # a crash is a failed operation
        outcome.fail(g["text"], f"{type(exc).__name__}: {exc}")
        return None
    seconds = (time.process_time_ns() - t0) / 1e9
    # a long request may outlast a change of machine speed: take the mean
    # of the scales before and after it
    scale = (scale + outcome.speed.scale_now()) / 2
    outcome.request(g["slot"], scale * seconds, report.candidates)
    if report.agreement is not True:
        outcome.fail(g["text"], f"agreement is {report.agreement}")
    outcome.candidates += report.candidates
    outcome.confirmed += len(report.confirmed)
    for r in report.refuted:
        # passes repeat groups: an identical certificate is replayed once
        outcome.refutations.setdefault((g["text"], repr(r)), (g, r))
    return report


def _repeat(items, seconds, minimum):
    """(position, item) pairs: the items once when ``seconds`` is None, else
    round and round until ``seconds`` of wall time have passed and at least
    ``minimum`` items were given."""
    start = time.perf_counter()
    given = 0
    for _ in itertools.count():
        for pair in enumerate(items):
            if seconds is not None and given >= minimum \
                    and time.perf_counter() - start >= seconds:
                return
            yield pair
            given += 1
        if seconds is None:
            return


def run_oracle(passes, height, seconds=None):
    """Cross-check the passes' groups, once or for ``seconds`` but at least
    one pass, so that every corpus slot is timed."""
    outcome = Outcome()
    groups = [g for p in passes for g in p]
    for _, g in _repeat(groups, seconds, len(passes[0])):
        cross_check_group(g, height, outcome)
    clear_caches(outcome)
    return outcome


def _image(vec, candidate, direction):
    """vec times the candidate or its inverse; None when the image is not
    an element of the scalar tower at all."""
    if isinstance(candidate, matrices.ExactMatrix):
        a = candidate if direction == "forward" else candidate.inverse()
        return matrices.vec_mat_mul(vec, a)
    if direction == "forward":
        return tuple(x * candidate for x in vec)
    # A Laurent polynomial that is not a monomial has no inverse in
    # Q[t,1/t]; the image x / c then exists only where c divides x.
    image = tuple(scalars.exact_div(x, candidate) for x in vec)
    return None if None in image else image


def replays(g, vec, candidate, direction):
    """Does the certificate replay: vec is in G and its image under the
    candidate (forward) or its inverse (inverse) is not?  An image outside
    the tower (a quotient that is not a Laurent polynomial) is outside
    every group of the tower."""
    if direction not in ("forward", "inverse"):
        return False
    if not descriptors.member(g, vec).member:
        return False
    image = _image(vec, candidate, direction)
    return image is None or not descriptors.member(g, image).member


def replay_refutations(outcome):
    """Replay every oracle refutation; each is one checked operation."""
    for g, r in outcome.refutations.values():
        outcome.attempted += 1
        try:
            ok = replays(g["desc"], r.witness, r.candidate, r.direction)
        except Exception as exc:
            ok = False
            reason = f"replay raised {type(exc).__name__}: {exc}"
        else:
            reason = "refutation does not replay"
        if not ok:
            outcome.fail(f"{g['text']} @ {r.candidate!r}", reason)


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------

def run_cli(argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI query.
    A SystemExit from argparse or any exception becomes a string code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.process_time_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        dt = (time.process_time_ns() - t0) / 1e9
    return code, out.getvalue(), err.getvalue(), dt


def check_query(argv, code, stdout, pinned):
    """None when the answer is right, otherwise why it is wrong."""
    if not isinstance(code, int):
        return f"raised {code}"
    expected = corpus.expected_answer(argv, pinned)
    if expected is None and not argv[1].startswith("image("):
        return "no pinned answer"
    if expected is not None and (code, stdout) != tuple(expected):
        return f"got exit {code} {stdout.strip()!r}, expected {expected!r}"
    if corpus.paper_verdict(argv, code, stdout) is False:
        return f"contradicts the paper: exit {code} {stdout.strip()!r}"
    return None


def run_queries(stream, pinned, seconds=None):
    """Answer the stream's queries, once or for ``seconds`` but at least
    once through, so that every position is timed."""
    outcome = Outcome()
    for i, argv in _repeat(stream, seconds, len(stream)):
        clear_caches(outcome)
        outcome.attempted += 1
        scale = outcome.speed.scale_now()
        code, stdout, _, dt = run_cli(argv)
        scale = (scale + outcome.speed.scale_now()) / 2
        if isinstance(code, int):
            candidates = 1 if argv[0] == "aut-member" else 0
            outcome.request(i, scale * dt, candidates)
            outcome.candidates += candidates
            if argv[0] == "sl-witness" and code == 0:
                # a repeated query is replayed once
                outcome.witnesses[json.dumps(argv), stdout] = argv
        problem = check_query(argv, code, stdout, pinned)
        if problem:
            outcome.fail(" ".join(argv), problem)
    clear_caches(outcome)
    return outcome


def replay_witnesses(outcome):
    """Replay the failing generator of every ``sl-witness`` answer."""
    for (_, stdout), argv in outcome.witnesses.items():
        outcome.attempted += 1
        try:
            answer = json.loads(stdout)
            g = dsl.parse_descriptor(argv[1])
            a = dsl.matrix_from_json(answer["witness"])
            vec = tuple(dsl.parse_scalar(s) for s in answer["failing_generator"])
            ok = replays(g, vec, a, answer["direction"])
            reason = "failing generator does not replay"
        except Exception as exc:
            ok = False
            reason = f"replay raised {type(exc).__name__}: {exc}"
        if not ok:
            outcome.fail(" ".join(argv), reason)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def execute(workload, inputs, seconds=None):
    """One pass over the inputs, or repeated passes for ``seconds``."""
    if workload == "query_mix":
        return run_queries(inputs["stream"], inputs["pinned"], seconds)
    return run_oracle(inputs, HEIGHTS[workload], seconds)


def check_certificates(workload, outcome):
    """Replay the certificates a run returned, outside the timed window."""
    if workload == "query_mix":
        replay_witnesses(outcome)
    else:
        replay_refutations(outcome)
