"""List the code of src/groupaut that the benchmark's traffic never runs.

    python3 tools/reach.py

The traffic is every query of the pinned query universe
(``corpus.query_universe()``), the ``query_mix`` streams of seeds 7, 11 and
29, and ``cross_check`` on every corpus line and plane group at heights 1
and 2, each operation with cold caches.  All of it runs under
``sys.settrace``, and so does the import of the package, so a function that
only builds a module constant counts as entered.  The script prints each
function of ``src/groupaut`` that is never entered, then, for each function
that is, the lines of its body that never run, then the hits and misses of
each package ``lru_cache`` (``workloads.CACHES``) summed over the traffic.

It reads ``perfbench/corpus.py`` and ``perfbench/workloads.py`` and writes
nothing.  Only the standard library is used.
"""

import sys
import time
from types import SimpleNamespace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groupaut"
SEEDS = (7, 11, 29)
HEIGHTS = (1, 2)
# comprehensions run as code objects of their own; their lines are read as
# lines of the function that holds them
INLINE = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def functions(path):
    """{first line: (qualified name, executable lines)} for every function
    defined in the file at ``path``."""
    found = {}

    def walk(code, owner):
        for const in code.co_consts:
            if not hasattr(const, "co_lines"):
                continue
            if const.co_name in INLINE and owner is not None:
                found[owner][1].update(l for *_, l in const.co_lines() if l)
                walk(const, owner)
                continue
            is_function = bool(const.co_flags & 0x2)   # CO_NEWLOCALS
            inner = owner
            if is_function:
                inner = const.co_firstlineno
                lines = {l for *_, l in const.co_lines() if l}
                lines.discard(inner)       # the def line, or its decorator
                # co_qualname is new in Python 3.11
                name = getattr(const, "co_qualname", const.co_name)
                found[inner] = (name, lines)
            walk(const, inner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return found


def traced(run):
    """Run ``run()`` under a tracer; return the (file, first line) of every
    entered code object and the (file, line) of every line run, both in
    the package only."""
    entered, ran = set(), set()
    package = str(PACKAGE)

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return entered, ran


def traffic(totals):
    """Run the traffic; add each cache's hits and misses to
    ``totals.cache_totals`` as [hits, misses], read before each clear."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus
    import workloads
    from groupaut import dsl, oracle

    queries = corpus.query_universe() + [
        q for seed in SEEDS
        for q in corpus.query_stream(seed, workloads.QUERY_BLOCKS)]
    for argv in queries:
        workloads.clear_caches(totals)
        workloads.run_cli(argv)
    groups = corpus.all_line_groups() + corpus.all_plane_groups()
    raised = 0
    for g in groups:
        for h in HEIGHTS:
            workloads.clear_caches(totals)
            try:
                oracle.cross_check(dsl.parse_descriptor(g["text"]), h)
            except Exception:
                raised += 1
    workloads.clear_caches(totals)
    print(f"traffic: {len(queries)} queries, {len(groups) * len(HEIGHTS)} "
          f"cross-checks ({raised} raised)")


def spans(lines):
    """'3, 5-7' for [3, 5, 6, 7]."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][-1] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in runs)


def main():
    t0 = time.perf_counter()
    totals = SimpleNamespace(cache_totals={})
    entered, ran = traced(lambda: traffic(totals))
    never, missed, total = [], [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.name
        for first, (qualname, lines) in sorted(functions(path).items()):
            total += 1
            if (str(path), first) not in entered:
                never.append(f"  {name}:{first} {qualname}")
                continue
            left = sorted(l for l in lines if (str(path), l) not in ran)
            if left:
                missed.append(f"  {name}:{first} {qualname}: {spans(left)}")
    print(f"never entered: {len(never)} of {total} functions")
    print("\n".join(never))
    print(f"entered, with lines that never run: {len(missed)}")
    print("\n".join(missed))
    print(f"lru_caches: {len(totals.cache_totals)}")
    for name, (hits, misses) in sorted(totals.cache_totals.items()):
        print(f"  {name}: {hits} hits, {misses} misses")
    print(f"wall time {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
