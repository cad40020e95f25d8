"""Command-line front end.

One command per invocation: compute an invariant of a group action (order,
orbits, block systems, primitivity, closures, base sizes, the closure
number bound) or run a named verification suite. Groups come from the
catalog or a generator file; actions are the natural one or an induced
one. Output is plain text by default, JSON with --json (byte-identical
across repeated identical invocations unless --timings is given), CSV for
the two tabular commands.

Exit codes: 0 success or suite pass, 1 computation or usage error,
2 suite failure, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .actions import (
    ActionInstance,
    coset_action,
    is_primitive,
    ksubsets_action,
    maximal_block_systems,
    natural_action,
    partitions_action,
)
from .basesize import exact_base_size, greedy_base
from .budget import Budget
from .catalog import catalog_group, catalog_names, read_generator_file
from .closure import closure_spectrum, k_closure, k_trans
from .errors import BudgetExceededError, ClosureLabError
from .harness import run_suite, suite_names
from .perm import print_cycles
from .stabchain import PermGroup


def _allowance(kind):
    """An argparse type for a budget or a bound: a number of the given kind, at least 0."""

    def parse(text: str):
        value = kind(text)
        if not value >= 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be at least 0, not {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="closures, base sizes, and verification suites for permutation actions",
    )
    parser.add_argument("--version", action="version", version=f"closurelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget_flags=True, csv=False):
        p.add_argument("--catalog", metavar="NAME", help="catalog group, e.g. A5 or PSL(3,2)")
        p.add_argument("--group-file", metavar="PATH", help="generator file (degree + cycles)")
        p.add_argument(
            "--action",
            default="natural",
            metavar="SPEC",
            help="natural | ksubsets:K | partitions:AxB | cosets:FILE",
        )
        output = p.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true", help="machine-readable output")
        if csv:
            output.add_argument("--csv", action="store_true", help="CSV table output")
        p.add_argument("--timings", action="store_true", help="include real elapsed times")
        if budget_flags:
            p.add_argument("--budget-nodes", type=_allowance(int), metavar="N",
                           help="search node allowance")
            p.add_argument("--budget-seconds", type=_allowance(float), metavar="S",
                           help="wall-clock allowance")

    for name, helptext in [
        ("order", "order of the acting group's image"),
        ("orbits", "orbit partition of the domain"),
        ("blocks", "maximal invariant block systems"),
        ("primitive", "primitivity of a transitive action"),
    ]:
        # these run no search, so they take no budget flags
        add_common(sub.add_parser(name, help=helptext), budget_flags=False)

    p = sub.add_parser("closure", help="the k-closure of the action")
    add_common(p)
    p.add_argument("--k", type=int, required=True, metavar="K")

    p = sub.add_parser("spectrum", help="closure orders for k = 1, 2, ...")
    add_common(p, csv=True)
    p.add_argument("--k-max", type=int, metavar="K", help="stop after this k")

    p = sub.add_parser("base", help="base size of a faithful action")
    add_common(p, csv=True)
    p.add_argument("--greedy", action="store_true",
                   help="greedy upper bound only, not the branch-and-bound minimum")

    p = sub.add_parser("ktrans", help="largest minimal closure index over faithful transitive actions")
    add_common(p)
    p.add_argument("--max-degree", type=_allowance(int), required=True, metavar="D",
                   help="walk closure chains exactly up to this degree")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, metavar="NAME")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--timings", action="store_true", help="include real elapsed times")

    p = sub.add_parser("catalog", help="list catalog groups and suites")
    p.add_argument("--list", action="store_true", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def _resolve_group(args) -> tuple[str, ActionInstance]:
    if args.catalog and args.group_file:
        raise ClosureLabError("pass only one of --catalog and --group-file")
    if args.catalog:
        return args.catalog, catalog_group(args.catalog)
    if args.group_file:
        with open(args.group_file, "r", encoding="utf-8") as fh:
            degree, gens = read_generator_file(fh.read())
        G = PermGroup(degree, gens)
        return os.path.basename(args.group_file), natural_action(G)
    raise ClosureLabError("a group is required: pass --catalog NAME or --group-file PATH")


def _resolve_action(spec: str, base: ActionInstance) -> ActionInstance:
    if spec == "natural":
        return base
    if spec.startswith("ksubsets:"):
        k = int(spec.split(":", 1)[1])
        return ksubsets_action(base.group, k)
    if spec.startswith("partitions:"):
        shape = spec.split(":", 1)[1]
        a, _, b = shape.partition("x")
        return partitions_action(base.group, int(a), int(b))
    if spec.startswith("cosets:"):
        path = spec.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            degree, gens = read_generator_file(fh.read())
        if degree != base.group.degree:
            raise ClosureLabError(
                f"subgroup file degree {degree} does not match the group degree "
                f"{base.group.degree}"
            )
        return coset_action(base.group, PermGroup(degree, gens))
    raise ClosureLabError(f"unknown action spec {spec!r}")


def _labels(A: ActionInstance, points) -> list[str]:
    return [A.domain.labels[p] for p in points]


_SAFE_INT = 2**53


def _stringify_big(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _SAFE_INT else value
    if isinstance(value, dict):
        return {k: _stringify_big(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_big(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(_stringify_big(payload), sort_keys=True, indent=2) + "\n")


def _run_command(args) -> int:
    name, base = _resolve_group(args)
    A = _resolve_action(args.action, base)
    budget = Budget(getattr(args, "budget_nodes", None), getattr(args, "budget_seconds", None))
    t0 = time.monotonic()
    result: dict = {}
    lines: list[str] = []
    csv_rows = None
    # set when a search ran out of budget: the part it finished is printed,
    # then this is raised, so the exit code is still 3
    exhausted: BudgetExceededError | None = None

    if args.command == "order":
        result = {"order": A.group.order()}
        lines = [f"order {result['order']}"]
    elif args.command == "orbits":
        orbs = A.group.orbits()
        result = {"orbits": [_labels(A, orbit) for orbit in orbs]}
        lines = [f"{len(orbs)} orbit(s)"] + [
            "  {" + " ".join(row) + "}" for row in result["orbits"]
        ]
    elif args.command == "blocks":
        systems = maximal_block_systems(A)
        result = {
            "systems": [
                {
                    "num_blocks": S.num_blocks,
                    "blocks": [_labels(A, block) for block in S.blocks],
                }
                for S in systems
            ]
        }
        lines = [f"{len(systems)} maximal system(s)"]
        for S in systems:
            lines.append(
                "  " + " | ".join("{" + " ".join(_labels(A, b)) + "}" for b in S.blocks)
            )
    elif args.command == "primitive":
        result = {"primitive": is_primitive(A)}
        lines = ["primitive" if result["primitive"] else "imprimitive"]
    elif args.command == "closure":
        H = k_closure(A, args.k, budget=budget)
        result = {
            "k": args.k,
            "order": H.order(),
            "generators": [print_cycles(g) for g in H.generators],
        }
        lines = [f"k {args.k}", f"order {result['order']}"] + [
            f"gen {g}" for g in result["generators"]
        ]
    elif args.command == "spectrum":
        try:
            report = closure_spectrum(A, k_max=args.k_max, budget=budget)
        except BudgetExceededError as exc:
            exhausted, report = exc, exc.partial
        # "error" stays in the --json schema, always null: a step that ran out
        # is not an entry
        result = {
            "minimal_k": report.minimal_k,
            "entries": [
                {"k": e.k, "order": e.order, "nodes": e.nodes, "error": None}
                for e in report.entries
            ],
        }
        lines = [f"k {e.k}: order {e.order}" for e in report.entries]
        if exhausted is None:
            lines.append(f"minimal k: {report.minimal_k}")
        csv_rows = [["group", "action", "k", "order", "error"]] + [
            [name, A.provenance, e.k, e.order, ""] for e in report.entries
        ]
    elif args.command == "base":
        try:
            record = greedy_base(A) if args.greedy else exact_base_size(A, budget)
        except BudgetExceededError as exc:
            exhausted, record = exc, exc.partial
        result = {
            "size": record.size,
            "exhaustive": record.exhaustive,
            "witness": _labels(A, record.witness),
        }
        lines = [
            f"size {record.size}",
            f"witness {' '.join(result['witness'])}",
            f"exhaustive {'yes' if record.exhaustive else 'no'}",
        ]
        csv_rows = [
            ["group", "action", "b", "exhaustive", "witness"],
            [name, A.provenance, record.size, record.exhaustive, " ".join(result["witness"])],
        ]
    elif args.command == "ktrans":
        try:
            value, cert = k_trans(A.group, args.max_degree, budget=budget)
        except BudgetExceededError as exc:
            exhausted, value, cert = exc, None, exc.partial
        result = {
            "k": value,
            "certified": cert.certified,
            "note": cert.note,
            "entries": [
                {
                    "degree": e.degree,
                    "point_stabilizer_order": e.point_stabilizer_order,
                    "kind": e.kind,
                    "value": e.value,
                    "source": e.source,
                }
                for e in cert.entries
            ],
        }
        if exhausted is None:
            lines = [f"k {value}", f"certified {'yes' if cert.certified else 'no'}"]
        lines += [f"  degree {e.degree}: {e.kind} {e.value}" for e in cert.entries]
    else:  # pragma: no cover - parser restricts commands
        raise ClosureLabError(f"unhandled command {args.command}")

    elapsed = int((time.monotonic() - t0) * 1000)
    if getattr(args, "csv", False):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    elif args.json:
        _emit_json(
            {
                "tool_version": __version__,
                "command": args.command,
                "group": {"name": name, "degree": base.group.degree, "order": base.group.order()},
                "action": {"provenance": A.provenance, "degree": A.degree},
                "result": result,
                "budget": {
                    "nodes_used": budget.nodes,
                    "elapsed_ms": elapsed if args.timings else 0,
                },
            }
        )
    else:
        for line in lines:
            print(line)
    if exhausted is not None:
        raise exhausted
    return 0


def _run_verify(args) -> int:
    # set when a claim's search ran out: the claims finished before it are
    # printed without a suite verdict, then this is raised to exit 3
    exhausted: BudgetExceededError | None = None
    try:
        result = run_suite(args.suite)
    except BudgetExceededError as exc:
        exhausted, result = exc, exc.partial
    if args.json:
        payload = result.to_dict()
        if exhausted is not None:
            payload["passed"] = None
        if not args.timings:
            for claim in payload["claims"]:
                claim["elapsed_ms"] = 0
        _emit_json({"tool_version": __version__, "command": "verify", "result": payload})
    else:
        for c in result.claims:
            status = "pass" if c.passed else "FAIL"
            print(f"[{status}] {c.claim_id}: expected {c.expected}, got {c.computed}")
            print(f"       {c.citation}")
        if exhausted is None:
            print(f"suite {result.suite}: {'pass' if result.passed else 'FAIL'}")
    if exhausted is not None:
        raise exhausted
    return 0 if result.passed else 2


def _run_catalog(args) -> int:
    if args.json:
        _emit_json(
            {
                "tool_version": __version__,
                "command": "catalog",
                "result": {"groups": list(catalog_names()), "suites": list(suite_names())},
            }
        )
        return 0
    print("catalog groups:")
    for entry in catalog_names():
        print(f"  {entry}")
    print("verification suites:")
    for entry in suite_names():
        print(f"  {entry}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "catalog":
            return _run_catalog(args)
        return _run_command(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ClosureLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
