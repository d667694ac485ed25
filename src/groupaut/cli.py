"""Batch command-line front end.

Every invocation answers a single query and prints one JSON document.
Exit code 0 means a decided verdict (including decided "false"), 2 means
the honest don't-know path (Bounds, exhausted search budget), 1 means the
input could not be understood (usage errors included), and 3 means an
internal error: two decision routes disagreed, or any other exception.
All numbers in the output are exact strings; two identical invocations
print identical bytes.  An error prints nothing on stdout and its reason
on stderr.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .autgroup import (
    Bounds,
    Exact,
    aut_group,
    aut_member,
    descriptor_code,
    descriptor_json,
    dim_of_aut,
    realize_Ax,
)
from .descriptors import cyclic_form, is_dense, is_divisible, member
from .dsl import (
    group_to_text,
    matrix_to_json,
    parse_descriptor,
    parse_matrix,
    parse_scalar,
    scalar_to_text,
)
from .errors import BudgetExceededError, ConsistencyError, GroupAutError, ParseError
from .matrices import circle_sum_witness
from .oracle import (
    brute_force_aut,
    cross_check,
    finite_permutation_action,
    injectivity_demo,
    report_to_json,
)
from .witnesses import _sl_search

DECIDED, INPUT_ERROR, UNKNOWN, INTERNAL_ERROR = 0, 1, 2, 3


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_vector(text: str) -> tuple:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    elif body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    return tuple(parse_scalar(p) for p in _split_top_level(body))


def _number(text: str, kind=Fraction):
    """text as a Fraction (or an int); a malformed number is a ParseError."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a number: {text.strip()!r}", 0) from None


def _parse_action(text: str):
    """A matrix when it looks like one, otherwise a scalar."""
    stripped = text.strip()
    if stripped.startswith("["):
        return parse_matrix(stripped)
    return parse_scalar(stripped)


def _parse_cycles(text: str) -> list[tuple[int, ...]]:
    """Cycles such as "(0,3) (1,2,5)"; any other text is a ParseError."""
    if not re.fullmatch(r"\s*(\([^()]*\)\s*)*", text):
        raise ParseError(f"not a sequence of cycles: {text.strip()!r}", 0)
    return [tuple(_number(x, int) for x in re.split(r"[,\s]+", body.strip()) if x)
            for body in re.findall(r"\(([^()]*)\)", text)]


def _bounds_json(result: Bounds) -> dict:
    payload = {"lower": [descriptor_code(d) for d in result.lower]}
    if result.upper:
        payload["upper"] = [descriptor_code(d) for d in result.upper]
    return {"bounds": payload}


def _cmd_aut(args) -> tuple[dict, int]:
    result = aut_group(parse_descriptor(args.group))
    if isinstance(result, Exact):
        return {"aut": descriptor_json(result.descriptor)}, DECIDED
    return _bounds_json(result), UNKNOWN


def _cmd_member(args) -> tuple[dict, int]:
    g = parse_descriptor(args.group)
    v = _parse_vector(args.value)
    verdict = member(g, v)
    witness = None
    if verdict.witness is not None:
        witness = [str(c) for c in verdict.witness]
    return {"member": verdict.member, "witness": witness}, DECIDED


def _cmd_aut_member(args) -> tuple[dict, int]:
    g = parse_descriptor(args.group)
    a = _parse_action(args.value)
    return {"aut_member": aut_member(g, a)}, DECIDED


def _cmd_divisible(args) -> tuple[dict, int]:
    return {"divisible": is_divisible(parse_descriptor(args.group))}, DECIDED


def _cmd_dense(args) -> tuple[dict, int]:
    return {"dense": is_dense(parse_descriptor(args.group))}, DECIDED


def _cmd_cyclic(args) -> tuple[dict, int]:
    form = cyclic_form(parse_descriptor(args.group))
    if form is None:
        return {"cyclic": False, "generator": None}, DECIDED
    return {"cyclic": True,
            "generator": scalar_to_text(form.terms[0][1])}, DECIDED


def _cmd_dim(args) -> tuple[dict, int]:
    result = aut_group(parse_descriptor(args.group))
    if isinstance(result, Bounds):
        return {"dim": None, **_bounds_json(result)}, UNKNOWN
    return {"dim": dim_of_aut(result)}, DECIDED


def _cmd_realize_ax(args) -> tuple[dict, int]:
    r = realize_Ax(args.m)
    if r.realizable:
        return {"realizable": True, "group": group_to_text(r.group)}, DECIDED
    return {"realizable": False, "refuter": str(r.refuter)}, DECIDED


def _cmd_oracle(args) -> tuple[dict, int]:
    report = brute_force_aut(parse_descriptor(args.group), args.height)
    return report_to_json(report), DECIDED


def _cmd_cross_check(args) -> tuple[dict, int]:
    g = parse_descriptor(args.group)
    report = cross_check(g, args.height)
    code = UNKNOWN if isinstance(aut_group(g), Bounds) else DECIDED
    return report_to_json(report), code


def _cmd_sl_witness(args) -> tuple[dict, int]:
    g = parse_descriptor(args.group)
    try:
        w, cert = _sl_search(g, args.budget)
    except BudgetExceededError as exc:
        return {"witness": None, "reason": str(exc)}, UNKNOWN
    return {"witness": matrix_to_json(w),
            "failing_generator": [scalar_to_text(s)
                                  for s in cert.failing_generator],
            "direction": cert.direction}, DECIDED


def _cmd_circle_witness(args) -> tuple[dict, int]:
    r2 = _number(args.r2)
    target = [_number(p) for p in _split_top_level(args.target.strip("()[] "))]
    a, b = circle_sum_witness(r2, target)
    return {"points": [[scalar_to_text(s) for s in a],
                       [scalar_to_text(s) for s in b]],
            "sum": [scalar_to_text(x + y) for x, y in zip(a, b)]}, DECIDED


def _cmd_perm_demo(args) -> tuple[dict, int]:
    if args.cycles is not None:
        seq = [_number(x) for x in _split_top_level(args.seq or "0")]
        image = finite_permutation_action(_parse_cycles(args.cycles), seq)
        return {"image": [str(x) for x in image]}, DECIDED
    return {"k": args.k, "injective": injectivity_demo(args.k)}, DECIDED


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error exits 1, bad input, not argparse's 2 ("don't know")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="groupaut",
        description="invariance groups of closed-form subgroups of R^n")
    parser.add_argument("--pretty", action="store_true",
                        help="indented JSON output (compact by default)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("aut", _cmd_aut, help="closed form or bounds for the invariance group")
    p.add_argument("group")
    p = add("member", _cmd_member, help="exact membership of a vector")
    p.add_argument("group")
    p.add_argument("value")
    p = add("aut-member", _cmd_aut_member,
            help="does a scalar or matrix preserve the group")
    p.add_argument("group")
    p.add_argument("value")
    for name, fn in (("divisible", _cmd_divisible), ("dense", _cmd_dense),
                     ("cyclic", _cmd_cyclic), ("dim", _cmd_dim)):
        p = add(name, fn, help=f"{name} test")
        p.add_argument("group")
    p = add("realize-ax", _cmd_realize_ax,
            help="realize {±m^k} as an invariance group, or refute")
    p.add_argument("m", type=int)
    for name, fn in (("oracle", _cmd_oracle), ("cross-check", _cmd_cross_check)):
        p = add(name, fn, help=f"brute-force {name.replace('-', ' ')}")
        p.add_argument("group")
        p.add_argument("--height", type=int, default=3)
    p = add("sl-witness", _cmd_sl_witness,
            help="determinant-one matrix the group does not absorb")
    p.add_argument("group")
    p.add_argument("--budget", type=int, default=64)
    p = add("circle-witness", _cmd_circle_witness,
            help="two circle points summing to an axis target")
    p.add_argument("r2")
    p.add_argument("target")
    p = add("perm-demo", _cmd_perm_demo,
            help="permutation action on finite-support sequences")
    p.add_argument("k", type=int, nargs="?", default=4)
    p.add_argument("--cycles")
    p.add_argument("--seq")
    return parser


# the parser is configuration: built by the first main call, then reused
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        payload, code = args.fn(args)
    except ConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return INTERNAL_ERROR
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return UNKNOWN
    except GroupAutError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return INTERNAL_ERROR
    if args.pretty:
        text = json.dumps(payload, indent=2)
    else:
        text = json.dumps(payload, separators=(",", ":"))
    sys.stdout.write(text + "\n")
    return code


def entry() -> None:
    raise SystemExit(main())
