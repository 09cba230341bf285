"""Random workloads, the built-in corpus, benchmarking, and verification.

The workload generator draws patterns from five structural families over
random type subsets, with attribute-comparison predicates at a density of
about half the pattern size.  The benchmark driver runs every applicable
(algorithm, engine) cell over a shared stream and reports one CSV row per
cell; verification compares each cell's matches against the exhaustive
matcher.
"""
from __future__ import annotations

import json
import math
import random
import string
from dataclasses import dataclass, replace

from .model import (
    AND,
    AttrRef,
    DataError,
    KLEENE,
    Leaf,
    Literal,
    NOT,
    OperatorNode,
    OR,
    Pattern,
    Predicate,
    SEQ,
    SelectionStrategy,
    StatisticsCatalog,
    validate_pattern,
)
from .nfa import DEFAULT_KL_CAP
from .oracle import DEFAULT_CORESIDENT_LIMIT, oracle_match
from .plangen import (
    ALGORITHM_NAMES,
    DP_B_LIMIT,
    PlanBundle,
    TREE_ALGORITHMS,
    bundle_to_json,
    generate_plan,
)
from .runner import PatternRunner
from .stream import StreamSource, SyntheticConfig, estimate_statistics, generate_synthetic

FAMILIES = ("sequence", "conjunction", "negation", "kleene", "disjunction")
ENGINES = ("nfa", "tree")
BENCH_ATTRIBUTE = "difference"

CSV_COLUMNS = (
    "pattern_id", "family", "size", "algorithm", "engine",
    "throughput", "memory_peak", "mean_latency", "plan_cost",
    "normalized_cost", "plan_time", "alpha", "status",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """What to generate: families, sizes, density, window, strategy, seed."""

    families: tuple[str, ...] = FAMILIES
    sizes: tuple[int, ...] = (3, 4, 5)
    patterns_per_size: int = 1
    window: float = 20.0
    strategy: SelectionStrategy = SelectionStrategy()
    seed: int = 0

    def __post_init__(self) -> None:
        for family in self.families:
            if family not in FAMILIES:
                raise DataError(f"unknown pattern family {family!r}")
        for size in self.sizes:
            if not 1 <= size <= DP_B_LIMIT:
                raise DataError(
                    f"pattern size {size} outside [1, {DP_B_LIMIT}]"
                )
        if self.patterns_per_size < 0:
            raise DataError("patterns_per_size must be non-negative")
        if self.strategy.contiguous:
            bad = [f for f in self.families if f not in ("sequence", "negation")]
            if bad:
                raise DataError(
                    "contiguous strategies require sequence-shaped families; "
                    f"got {', '.join(bad)}"
                )
        floor = {"negation": 2, "disjunction": 2}
        for family in self.families:
            need = floor.get(family, 1)
            low = min(self.sizes, default=need)
            if low < need:
                raise DataError(f"{family} patterns need at least {need} positions")


@dataclass(frozen=True)
class GeneratedPattern:
    pattern_id: str
    family: str
    size: int
    pattern: Pattern


def default_universe(spec: WorkloadSpec) -> tuple[str, ...]:
    width = min(26, max(spec.sizes, default=3) + 3)
    return tuple(string.ascii_uppercase[:width])


def _predicates(rng: random.Random, groups: list[list[str]], count: int):
    """Attribute comparisons over a numeric per-event attribute.

    ``groups`` are alias pools a predicate may not straddle (disjunction
    branches; predicates across branches would bind to no conjunct).
    """
    preds: list[Predicate] = []
    rich = [g for g in groups if len(g) >= 2]
    for _ in range(count):
        comparator = rng.choice(("<", "<=", ">"))
        if rich:
            group = rng.choice(rich)
            left, right = rng.sample(group, 2)
            preds.append(Predicate(
                AttrRef(left, BENCH_ATTRIBUTE), comparator,
                AttrRef(right, BENCH_ATTRIBUTE),
            ))
        else:
            alias = rng.choice([a for g in groups for a in g])
            preds.append(Predicate(
                AttrRef(alias, BENCH_ATTRIBUTE), comparator, Literal(0.0),
            ))
    return tuple(preds)


def _generate_pattern(
    family: str,
    size: int,
    spec: WorkloadSpec,
    universe: tuple[str, ...],
    rng: random.Random,
) -> Pattern:
    types = rng.sample(list(universe), size)
    aliases = [t.lower() for t in types]
    if len(set(aliases)) != len(aliases):
        aliases = [f"e{i}" for i in range(size)]
    leaves = [Leaf(type_name=t, alias=a) for t, a in zip(types, aliases)]
    positives = list(aliases)
    groups = [positives]

    if family == "sequence":
        root = OperatorNode(SEQ, tuple(leaves))
    elif family == "conjunction":
        root = OperatorNode(AND, tuple(leaves))
    elif family == "negation":
        at = rng.randrange(1, size - 1) if size >= 3 else size - 1
        leaves[at] = replace(leaves[at], unary=(NOT,))
        positives = [a for i, a in enumerate(aliases) if i != at]
        groups = [positives]
        root = OperatorNode(SEQ, tuple(leaves))
    elif family == "kleene":
        at = rng.randrange(size)
        leaves[at] = replace(leaves[at], unary=(KLEENE,))
        root = OperatorNode(SEQ, tuple(leaves))
    elif family == "disjunction":
        split = (size + 1) // 2
        left = OperatorNode(SEQ, tuple(leaves[:split]))
        right = OperatorNode(SEQ, tuple(leaves[split:]))
        groups = [aliases[:split], aliases[split:]]
        root = OperatorNode(OR, (left, right))
    else:
        raise DataError(f"unknown pattern family {family!r}")

    density = max(1, size // 2)
    pattern = Pattern(
        root=root,
        predicates=_predicates(rng, groups, density),
        window=spec.window,
        strategy=spec.strategy,
    )
    violations = validate_pattern(pattern)
    if violations:
        raise DataError(
            f"generated {family} pattern is invalid: {', '.join(violations)}"
        )
    return pattern


def generate_workload(
    spec: WorkloadSpec,
    universe: tuple[str, ...] | None = None,
) -> tuple[GeneratedPattern, ...]:
    """Deterministic pattern list for a workload description."""
    if universe is None:
        universe = default_universe(spec)
    if len(universe) < max(spec.sizes, default=0):
        raise DataError(
            f"universe of {len(universe)} types cannot host "
            f"size-{max(spec.sizes)} patterns"
        )
    rng = random.Random(spec.seed)
    out: list[GeneratedPattern] = []
    for family in spec.families:
        for size in spec.sizes:
            for k in range(spec.patterns_per_size):
                pattern = _generate_pattern(family, size, spec, universe, rng)
                out.append(GeneratedPattern(
                    pattern_id=f"{family}-{size}-{k}",
                    family=family,
                    size=size,
                    pattern=pattern,
                ))
    return tuple(out)


def bench_stream(
    spec: WorkloadSpec,
    universe: tuple[str, ...] | None = None,
    duration: float = 240.0,
    rate_range: tuple[float, float] = (0.25, 2.0),
) -> StreamSource:
    """Synthetic stream matching a workload: one Poisson process per type.

    Per-type rates are drawn log-uniformly so that rate skew (what the
    planners exploit) is present but bounded.
    """
    if universe is None:
        universe = default_universe(spec)
    rng = random.Random(spec.seed * 7919 + 17)
    lo, hi = rate_range
    rates = {
        t: round(2.0 ** rng.uniform(math.log2(lo), math.log2(hi)), 4)
        for t in universe
    }
    config = SyntheticConfig(
        rates=rates,
        duration=duration,
        seed=spec.seed + 101,
        attributes={BENCH_ATTRIBUTE: (-1.0, 1.0)},
    )
    return generate_synthetic(config)


# ---------------------------------------------------------------------------
# Benchmark driver


@dataclass(frozen=True)
class BenchmarkRow:
    pattern_id: str
    family: str
    size: int
    algorithm: str
    engine: str
    throughput: float | None
    memory_peak: int | None
    mean_latency: float | None
    plan_cost: float | None
    normalized_cost: float | None
    plan_time: float | None
    alpha: float
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def csv_values(self) -> tuple[str, ...]:
        def num(v, spec="{:.6g}"):
            return "" if v is None else spec.format(v)

        return (
            self.pattern_id, self.family, str(self.size), self.algorithm,
            self.engine, num(self.throughput), num(self.memory_peak, "{:d}"),
            num(self.mean_latency), num(self.plan_cost),
            num(self.normalized_cost), num(self.plan_time),
            "{:g}".format(self.alpha), self.status,
        )


@dataclass(frozen=True)
class CellResult:
    row: BenchmarkRow
    plan_json: dict | None = None
    match_lines: tuple[str, ...] | None = None


@dataclass(frozen=True)
class BenchmarkResult:
    spec: WorkloadSpec
    cells: tuple[CellResult, ...]

    @property
    def rows(self) -> tuple[BenchmarkRow, ...]:
        return tuple(c.row for c in self.cells)


def valid_cells(algorithms=ALGORITHM_NAMES, engines=ENGINES):
    """The defined (algorithm, engine) grid.

    The chain runtime executes processing orders only, so tree-producing
    algorithms pair with the tree runtime alone.
    """
    out = []
    for algorithm in algorithms:
        for engine in engines:
            if engine == "nfa" and algorithm in TREE_ALGORITHMS:
                continue
            out.append((algorithm, engine))
    return tuple(out)


def match_lines(reports) -> tuple[str, ...]:
    return tuple(",".join(str(s) for s in r.serials) for r in reports)


def _run_cell(
    generated: GeneratedPattern,
    stats: StatisticsCatalog,
    algorithm: str,
    engine: str,
    alpha: float,
    base_cost: float | None,
    seed: int,
    events,
    kl_cap: int,
    collect_matches: bool,
) -> CellResult:
    base = dict(
        pattern_id=generated.pattern_id, family=generated.family,
        size=generated.size, algorithm=algorithm, engine=engine, alpha=alpha,
    )
    try:
        bundle = generate_plan(
            generated.pattern, stats, algorithm, alpha=alpha, seed=seed,
        )
        plan_time = sum(c.report.wall_time for c in bundle.conjuncts)
        runner = PatternRunner(
            generated.pattern, bundle, engine=engine, kl_cap=kl_cap,
        )
        result = runner.run(events)
        cost = bundle.total_cost
        normalized = None
        if base_cost is not None and cost > 0:
            normalized = base_cost / cost
        row = BenchmarkRow(
            **base,
            throughput=result.throughput,
            memory_peak=result.memory_peak,
            mean_latency=result.mean_latency,
            plan_cost=cost,
            normalized_cost=normalized,
            plan_time=plan_time,
        )
        return CellResult(
            row=row,
            plan_json=bundle_to_json(bundle),
            match_lines=match_lines(result.reports) if collect_matches else None,
        )
    except Exception as exc:
        row = BenchmarkRow(
            **base,
            throughput=None, memory_peak=None, mean_latency=None,
            plan_cost=None, normalized_cost=None, plan_time=None,
            status=f"error: {exc}",
        )
        return CellResult(row=row)


def run_benchmark(
    spec: WorkloadSpec,
    source: StreamSource,
    algorithms=ALGORITHM_NAMES,
    engines=ENGINES,
    alphas=(0.0,),
    kl_cap: int = DEFAULT_KL_CAP,
    collect_matches: bool = False,
    patterns: tuple[GeneratedPattern, ...] | None = None,
) -> BenchmarkResult:
    """Run every applicable cell of the workload; failures stay in-row."""
    if patterns is None:
        patterns = generate_workload(spec, universe=source.type_names())
    events = list(source.events)
    grid = valid_cells(algorithms, engines)

    cells = []
    for generated in patterns:
        try:
            stats = estimate_statistics(source, generated.pattern, seed=spec.seed)
        except DataError as exc:
            for algorithm, engine in grid:
                for alpha in alphas:
                    cells.append(CellResult(row=BenchmarkRow(
                        pattern_id=generated.pattern_id,
                        family=generated.family, size=generated.size,
                        algorithm=algorithm, engine=engine, alpha=alpha,
                        throughput=None, memory_peak=None, mean_latency=None,
                        plan_cost=None, normalized_cost=None, plan_time=None,
                        status=f"error: {exc}",
                    )))
            continue
        for alpha in alphas:
            try:
                baseline = generate_plan(
                    generated.pattern, stats, "efreq", alpha=alpha, seed=spec.seed,
                )
                base_cost = baseline.total_cost
            except Exception:
                base_cost = None
            for algorithm, engine in grid:
                cells.append(_run_cell(
                    generated, stats, algorithm, engine, alpha, base_cost,
                    spec.seed, events, kl_cap, collect_matches,
                ))
    return BenchmarkResult(spec=spec, cells=tuple(cells))


# ---------------------------------------------------------------------------
# CSV and aggregate emission


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_escape(v) for v in row.csv_values()))
    return "\n".join(lines) + "\n"


def _csv_escape(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def aggregate_rows(rows, group_by: str):
    """Mean metrics per (group, algorithm, engine, alpha); failures counted."""
    if group_by not in ("family", "size"):
        raise DataError(f"aggregate key must be family or size, not {group_by!r}")
    buckets: dict[tuple, list[BenchmarkRow]] = {}
    for row in rows:
        key = (getattr(row, group_by), row.algorithm, row.engine, row.alpha)
        buckets.setdefault(key, []).append(row)
    out = []
    for key in sorted(buckets, key=lambda k: tuple(str(p) for p in k)):
        group = buckets[key]
        ok = [r for r in group if r.ok]
        out.append({
            group_by: key[0],
            "algorithm": key[1],
            "engine": key[2],
            "alpha": key[3],
            "cells": len(group),
            "failures": len(group) - len(ok),
            "throughput": _mean(r.throughput for r in ok),
            "memory_peak": _mean(r.memory_peak for r in ok),
            "mean_latency": _mean(r.mean_latency for r in ok),
            "normalized_cost": _mean(r.normalized_cost for r in ok),
        })
    return out


AGGREGATE_COLUMNS = (
    "algorithm", "engine", "alpha", "cells", "failures",
    "throughput", "memory_peak", "mean_latency", "normalized_cost",
)


def _aggregate_table(agg, group_by: str, missing: str,
                     float_spec: str) -> list[tuple[str, ...]]:
    """Header and one row of formatted cells per aggregate entry."""
    columns = (group_by,) + AGGREGATE_COLUMNS
    table = [columns]
    for entry in agg:
        cells = []
        for col in columns:
            value = entry[col]
            if value is None:
                cells.append(missing)
            elif isinstance(value, float):
                cells.append(float_spec.format(value))
            else:
                cells.append(str(value))
        table.append(tuple(cells))
    return table


def aggregate_csv(agg, group_by: str) -> str:
    table = _aggregate_table(agg, group_by, "", "{:.6g}")
    return "\n".join(",".join(row) for row in table) + "\n"


def aggregate_text(agg, group_by: str) -> str:
    table = _aggregate_table(agg, group_by, "-", "{:.4g}")
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def plan_file_name(pattern_id: str, algorithm: str, alpha: float) -> str:
    return f"{pattern_id}-{algorithm}-a{alpha:g}.json"


def match_file_name(pattern_id: str, algorithm: str, engine: str, alpha: float) -> str:
    return f"{pattern_id}-{algorithm}-{engine}-a{alpha:g}.txt"


def plan_json_text(plan_json: dict) -> str:
    return json.dumps(plan_json, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Built-in corpus and verification


CORPUS_UNIVERSE = tuple(string.ascii_uppercase[:8])

CORPUS_SPEC = WorkloadSpec(
    families=FAMILIES,
    sizes=(3, 4, 5),
    patterns_per_size=1,
    window=6.0,
    strategy=SelectionStrategy(),
    seed=1309,
)


def builtin_corpus() -> tuple[GeneratedPattern, ...]:
    """Five families at sizes 3 to 5 over a fixed eight-type universe."""
    return generate_workload(CORPUS_SPEC, universe=CORPUS_UNIVERSE)


def corpus_stream(seed: int = CORPUS_SPEC.seed) -> StreamSource:
    """A toy stream small enough for the exhaustive matcher everywhere."""
    config = SyntheticConfig(
        rates={t: 0.12 for t in CORPUS_UNIVERSE},
        duration=90.0,
        seed=seed,
        attributes={BENCH_ATTRIBUTE: (-1.0, 1.0)},
    )
    return generate_synthetic(config)


@dataclass(frozen=True)
class VerifyCell:
    algorithm: str
    engine: str
    passed: bool
    missing: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()
    error: str | None = None


def _canon(reports):
    return [(r.serials, r.groups, r.emit_serial) for r in reports]


def _verify_stats(source: StreamSource, pattern: Pattern, seed: int) -> StatisticsCatalog:
    try:
        return estimate_statistics(source, pattern, seed=seed)
    except DataError:
        # a type absent from the toy stream still needs a rate for planning
        counts: dict[str, int] = {}
        for event in source.events:
            counts[event.type_name] = counts.get(event.type_name, 0) + 1
        duration = source.duration or 1.0
        rates = {}
        for leaf in pattern.leaves():
            seen = counts.get(leaf.type_name, 0)
            rates[leaf.type_name] = seen / duration if seen else 1.0
        return StatisticsCatalog(rates=rates)


def verify_pattern(
    pattern: Pattern,
    source: StreamSource,
    algorithms=ALGORITHM_NAMES,
    engines=ENGINES,
    seed: int = 0,
    kl_cap: int = DEFAULT_CORESIDENT_LIMIT,
    max_coresident: int = DEFAULT_CORESIDENT_LIMIT,
    bundle: PlanBundle | None = None,
    stats: StatisticsCatalog | None = None,
) -> list[VerifyCell]:
    """Run each cell and compare its matches against exhaustive matching.

    With ``bundle`` given, only that plan is checked (one cell per engine
    kind it supports).
    """
    events = list(source.events)
    expected = _canon(oracle_match(pattern, events, max_coresident=max_coresident))
    if stats is None:
        stats = _verify_stats(source, pattern, seed)

    cells: list[VerifyCell] = []
    if bundle is not None:
        grid = [(bundle.algorithm, engine) for engine in engines]
    else:
        grid = list(valid_cells(algorithms, engines))
    for algorithm, engine in grid:
        try:
            cell_bundle = bundle if bundle is not None else generate_plan(
                pattern, stats, algorithm, seed=seed,
            )
            runner = PatternRunner(pattern, cell_bundle, engine=engine, kl_cap=kl_cap)
            got = _canon(runner.run(events).reports)
        except Exception as exc:
            cells.append(VerifyCell(
                algorithm=algorithm, engine=engine, passed=False,
                error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        if got == expected:
            cells.append(VerifyCell(algorithm=algorithm, engine=engine, passed=True))
        else:
            want = {c[0] for c in expected}
            have = {c[0] for c in got}

            def fmt(keys):
                return tuple(",".join(str(s) for s in k) for k in sorted(keys))

            missing = fmt(want - have)
            extra = fmt(have - want)
            if not missing and not extra:
                # same serial sets but wrong grouping or emission order
                diff = [
                    f"order/groups differ at index {i}"
                    for i, (e, g) in enumerate(zip(expected, got)) if e != g
                ][:3]
                extra = tuple(diff) or ("report lists differ in length",)
            cells.append(VerifyCell(
                algorithm=algorithm, engine=engine, passed=False,
                missing=missing, extra=extra,
            ))
    return cells
