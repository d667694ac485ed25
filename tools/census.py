"""Count how the program's answers end over seeded draws of groups.

    python3 tools/census.py --seeds 1 2 3 4 5 --draws 1000

Each draw is a group of dimension 1 or 2 from ``_random_group(rng, n, 3)``
of ``tests/draws.py``, with one question about it: ``member`` (a vector
from ``_COORDS``), ``aut-member`` (a scalar from ``_FACTORS``, or a matrix
from ``_MATRICES_2`` on a plane), ``aut``, ``cross-check --height 1`` or,
on a plane, ``sl-witness``.  Every random choice of a draw is made before
the group is normalized, so two revisions see the same draws.  A group
that cannot be normalized and printed is not asked; the others are asked
through ``cli.main`` in process, with output captured.

The script prints a header with the totals, then one line per (command,
exit code, first word of the stderr message after its "error:" prefix):
the count, the most CPU time one of its questions took, and its first
argv.

It reads ``tests/draws.py`` and writes nothing.  Only the standard library
is used.
"""

import argparse
import contextlib
import io
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("member", "aut-member", "aut", "cross-check", "sl-witness")


def _modules():
    """The modules a census reads, imported on first use (after ``main``
    has turned off writing bytecode)."""
    if str(ROOT / "tests") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import draws
    from groupaut import cli, dsl
    from groupaut.descriptors import normalize
    from groupaut.errors import GroupAutError
    return draws, cli, dsl, normalize, GroupAutError


def questions(seed, count):
    """The argv of each of ``count`` draws of ``seed``, or the name of the
    error that normalizing or printing its group raised."""
    draws, _, dsl, normalize, GroupAutError = _modules()
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((1, 2))
        g = draws._random_group(rng, n, 3)
        command = rng.choice(COMMANDS if n == 2 else COMMANDS[:4])
        vector = [rng.choice(draws._COORDS) for _ in range(n)]
        action = rng.choice(draws._FACTORS) if n == 1 \
            else rng.choice(draws._MATRICES_2)
        try:
            text = dsl.group_to_text(normalize(g))
        except GroupAutError as exc:
            yield type(exc).__name__
            continue
        if command == "member":
            extra = ["[" + ",".join(map(dsl.scalar_to_text, vector)) + "]"]
        elif command == "aut-member":
            extra = [dsl.scalar_to_text(action) if n == 1
                     else dsl.matrix_to_text(action)]
        elif command == "cross-check":
            extra = ["--height", "1"]
        else:
            extra = []
        yield [command, text, *extra]


def ask(argv):
    """(exit code, stdout, stderr, CPU seconds) of ``cli.main(argv)``."""
    cli = _modules()[1]
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse refused the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.process_time() - start


def first_word(err):
    """The first word of the message on stderr, after the prefix that the
    exit code names ("error:", "budget exceeded:" or "internal error:"),
    or "-" for none."""
    return err.split(": ", 1)[-1].split(" ", 1)[0].rstrip(":\n") or "-"


def census(seeds, count):
    """({(command, exit code, ``first_word`` of stderr): [count, max CPU
    seconds, first argv]}, {error name: unwritable draws})."""
    lines, unwritable = {}, {}
    for seed in seeds:
        for argv in questions(seed, count):
            if isinstance(argv, str):
                unwritable[argv] = unwritable.get(argv, 0) + 1
                continue
            code, _, err, cpu = ask(argv)
            key = argv[0], code, first_word(err)
            line = lines.setdefault(key, [0, 0.0, argv])
            line[0] += 1
            line[1] = max(line[1], cpu)
    return lines, unwritable


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--draws", type=int, default=1000,
                    help="draws per seed")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    start = time.perf_counter()
    lines, unwritable = census(args.seeds, args.draws)
    asked = sum(n for n, _, _ in lines.values())
    print(f"seeds {' '.join(map(str, args.seeds))}, {args.draws} draws each: "
          f"{asked} asked, unwritable {sum(unwritable.values())} "
          f"{dict(sorted(unwritable.items()))}, "
          f"{time.perf_counter() - start:.1f} s")
    print("command      exit  stderr       count  max CPU ms  first argv")
    for (command, code, word), (n, cpu, first) in sorted(lines.items()):
        print(f"{command:<12} {code:>4}  {word:<12} {n:>5}  {1000 * cpu:10.1f}"
              f"  {' '.join(repr(a) for a in first)}")


if __name__ == "__main__":
    main()
