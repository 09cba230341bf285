"""Command-line interface: optimize, run, stats, verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure, 4 resource limit (also a ``run`` that cut Kleene enumerations
at ``--kl-cap``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .corpus import ENGINES, builtin_corpus, corpus_stream, verify_pattern
from .matching import DEFAULT_KL_CAP
from .model import (
    ContractError,
    OrderPlan,
    ResourceLimitError,
    SelectionStrategy,
    StatisticsCatalog,
    StreamCepError,
)
from .oracle import DEFAULT_CORESIDENT_LIMIT
from .parser import parse_pattern
from .plangen import (
    ALGORITHM_NAMES,
    bundle_from_json,
    bundle_to_json,
    generate_plan,
)
from .runner import PatternRunner
from .stream import DEFAULT_PAIR_SAMPLE, estimate_statistics, ingest_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 1 for those."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    def exit_with(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _strategy(text: str) -> SelectionStrategy:
    kind, _, key = text.partition(":")
    try:
        return SelectionStrategy(kind, key or None)
    except StreamCepError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _names(text: str, known, label: str) -> tuple[str, ...]:
    if text == "all":
        return tuple(known)
    picked = tuple(p.strip() for p in text.split(",") if p.strip())
    for name in picked:
        if name not in known:
            raise argparse.ArgumentTypeError(f"unknown {label} {name!r}")
    return picked


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise StreamCepError(f"cannot read {path}: {exc.strerror}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise StreamCepError(f"cannot write {path}: {exc.strerror}") from None


def _load_pattern(args):
    pattern = parse_pattern(_read(args.pattern), strategy=args.strategy)
    if getattr(args, "window", None) is not None:
        pattern = replace(pattern, window=args.window)
    return pattern


def _plan_summary(bundle) -> str:
    lines = [f"algorithm: {bundle.algorithm}"]
    for index, planned in enumerate(bundle.conjuncts):
        plan = planned.plan
        if isinstance(plan, OrderPlan):
            shape = " ".join(plan.order)
        else:
            shape = plan.root.label()
        rep = planned.report
        lines.append(
            f"conjunct {index}: {shape} | cost {rep.cost:.6g} | "
            f"{rep.candidates} candidates | {rep.wall_time * 1e3:.2f} ms"
        )
    return "\n".join(lines) + "\n"


def plan_json_text(plan_json: dict) -> str:
    return json.dumps(plan_json, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_optimize(args) -> int:
    pattern = _load_pattern(args)
    stats = StatisticsCatalog.from_json(_read(args.stats))
    bundle = generate_plan(
        pattern, stats, args.algorithm, alpha=args.alpha, seed=args.seed,
    )
    _write(args.out, plan_json_text(bundle_to_json(bundle)))
    sys.stderr.write(_plan_summary(bundle))
    return EXIT_OK


def cmd_run(args) -> int:
    pattern = _load_pattern(args)
    bundle = bundle_from_json(json.loads(_read(args.plan)))
    source = ingest_csv(args.stream)
    runner = PatternRunner(pattern, bundle, engine=args.engine, kl_cap=args.kl_cap)
    result = runner.run(source.events)
    lines = "".join(
        ",".join(str(s) for s in report.serials) + "\n"
        for report in result.reports
    )
    _write(args.out, lines)
    sys.stdout.write("events,matches,throughput,memory_peak,mean_latency,kl_overflows\n")
    sys.stdout.write(
        f"{result.events},{result.matches},{result.throughput:.6g},"
        f"{result.memory_peak},{result.mean_latency:.6g},{result.kl_overflows}\n"
    )
    if result.kl_overflows:
        sys.stderr.write(
            f"warning: {result.kl_overflows} Kleene enumerations were cut at "
            f"kl_cap={args.kl_cap}; groups larger than the cap were not matched\n"
        )
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_stats(args) -> int:
    source = ingest_csv(args.stream)
    patterns = [
        parse_pattern(_read(path)) for path in args.patterns
    ]
    if args.window is not None:
        patterns = [replace(p, window=args.window) for p in patterns]
    catalog = estimate_statistics(
        source, patterns, max_pairs=args.max_pairs, seed=args.seed,
    )
    _write(args.out, catalog.to_json() + "\n")
    return EXIT_OK


def _print_cells(label: str, cells) -> bool:
    all_ok = True
    for cell in cells:
        state = "PASS" if cell.passed else "FAIL"
        print(f"{state} {label} algorithm={cell.algorithm} engine={cell.engine}")
        if not cell.passed:
            all_ok = False
            if cell.error:
                print(f"  error: {cell.error}")
            if cell.missing:
                print(f"  missing: {' '.join(cell.missing)}")
            if cell.extra:
                print(f"  extra: {' '.join(cell.extra)}")
    return all_ok


def cmd_verify(args) -> int:
    if args.corpus:
        source = corpus_stream()
        ok = True
        for generated in builtin_corpus():
            cells = verify_pattern(
                generated.pattern, source,
                seed=args.seed, kl_cap=args.kl_cap,
                max_coresident=args.max_coresident,
            )
            ok = _print_cells(generated.pattern_id, cells) and ok
        return EXIT_OK if ok else EXIT_VERIFY

    if args.pattern is None or args.stream is None:
        raise StreamCepError("verify needs a pattern file and a stream file, or --corpus")
    pattern = _load_pattern(args)
    source = ingest_csv(args.stream)
    bundle = None
    engines = ENGINES if args.engines is None else args.engines
    if args.plan is not None:
        bundle = bundle_from_json(json.loads(_read(args.plan)))
        if not isinstance(bundle.conjuncts[0].plan, OrderPlan):
            if args.engines is None:
                engines = ("tree",)
            elif "nfa" in engines:
                raise ContractError(
                    "the chain NFA cannot execute a tree plan; "
                    "use the tree engine"
                )
    cells = verify_pattern(
        pattern, source,
        engines=engines,
        seed=args.seed,
        kl_cap=args.kl_cap,
        max_coresident=args.max_coresident,
        bundle=bundle,
    )
    ok = _print_cells(os.path.basename(args.pattern), cells)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="streamcep",
        description="Plan-driven complex event processing at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--window", type=float, default=None,
                       help="override the pattern's window (seconds)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    opt = sub.add_parser("optimize", help="plan a pattern against a statistics file")
    opt.add_argument("pattern", help="pattern file")
    opt.add_argument("stats", help="statistics JSON file")
    opt.add_argument("--algorithm", default="greedy", choices=ALGORITHM_NAMES)
    opt.add_argument("--alpha", type=float, default=0.0)
    opt.add_argument("--strategy", type=_strategy, default=None)
    opt.add_argument("--out", default=None, help="plan file (default: stdout)")
    common(opt)
    opt.set_defaults(func=cmd_optimize)

    run = sub.add_parser("run", help="execute a plan over a CSV stream")
    run.add_argument("plan", help="plan JSON file")
    run.add_argument("pattern", help="pattern file")
    run.add_argument("stream", help="CSV stream file")
    run.add_argument("--engine", default="auto", choices=("auto",) + ENGINES)
    run.add_argument("--strategy", type=_strategy, default=None)
    run.add_argument("--kl-cap", type=_positive_int, default=DEFAULT_KL_CAP)
    run.add_argument("--out", default="matches.txt",
                     help="match file, one serial tuple per line")
    common(run, seed=False)  # a run draws nothing at random
    run.set_defaults(func=cmd_run)

    stats = sub.add_parser("stats", help="estimate statistics from a CSV stream")
    stats.add_argument("stream", help="CSV stream file")
    stats.add_argument("patterns", nargs="+", help="pattern files")
    stats.add_argument("--max-pairs", type=_positive_int, default=DEFAULT_PAIR_SAMPLE)
    stats.add_argument("--out", default=None, help="statistics file (default: stdout)")
    common(stats)
    stats.set_defaults(func=cmd_stats)

    verify = sub.add_parser("verify", help="compare engines against exhaustive matching")
    verify.add_argument("pattern", nargs="?", default=None, help="pattern file")
    verify.add_argument("stream", nargs="?", default=None, help="CSV stream file")
    verify.add_argument("--corpus", action="store_true",
                        help="verify the built-in pattern corpus instead")
    verify.add_argument("--plan", default=None,
                        help="verify one serialized plan instead of all algorithms")
    verify.add_argument("--engine", dest="engines",
                        type=lambda t: _names(t, ENGINES, "engine"),
                        default=None, help="default: every engine the plan runs on")
    verify.add_argument("--strategy", type=_strategy, default=None)
    verify.add_argument("--kl-cap", type=_positive_int, default=DEFAULT_CORESIDENT_LIMIT)
    verify.add_argument("--max-coresident", type=_positive_int,
                        default=DEFAULT_CORESIDENT_LIMIT)
    common(verify)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except StreamCepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
