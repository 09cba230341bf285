"""The repository benchmark: seeded workloads through the public API.

    python3 perfbench/run.py --workload dense-any --seed 1 --seconds 20 --trace 0

One run makes its inputs from ``--seed``, checks correctness (the seed
self-test and the engines against the exhaustive matcher on the built-in
corpus), sets the workload up several times, then runs passes of plan
cells and replay cells until ``--seconds`` is used (at least one pass).
Times are CPU times scaled by the run's speed probe (``cells.SpeedProbe``).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
each cell also runs a second time with the layers wrapped, and it prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
MEMORY_CAP_BYTES = 3 << 30  # address space; MemoryError in a cell puts it over budget


def _import_program() -> None:
    if not (SOURCE / "streamcep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {SOURCE / 'streamcep'}")
    sys.path.insert(0, str(SOURCE))


_import_program()

from streamcep import builtin_corpus, corpus_stream, verify_pattern  # noqa: E402

import cells  # noqa: E402
import inputs  # noqa: E402
from tracing import ENGINE_LAYERS, Tracer  # noqa: E402

FAMILIES = ("sequence", "conjunction", "negation", "kleene", "disjunction")


@dataclass(frozen=True)
class Workload:
    shape: inputs.WorkloadShape
    budget: cells.Budget
    replay_cells: tuple = cells.REPLAY_CELLS


WORKLOADS = {
    "dense-any": Workload(
        inputs.WorkloadShape(types=8, duration=150.0, window=20.0,
                             families=FAMILIES, sizes=(3, 4, 5)),
        cells.Budget(max_partials=50_000, max_seconds=1.0),
    ),
    "contiguity-long": Workload(
        inputs.WorkloadShape(types=8, duration=1800.0, window=20.0,
                             families=("sequence", "negation"), sizes=(3, 4, 5),
                             strategies=("strict-contiguity", "partition-contiguity"),
                             partitions=3),
        cells.Budget(max_partials=50_000, max_seconds=4.0),
    ),
    "plan-search": Workload(
        inputs.WorkloadShape(types=15, duration=300.0, window=20.0,
                             families=("sequence", "conjunction", "negation", "kleene"),
                             sizes=(10, 11, 12),
                             replay_strategy="strict-contiguity",
                             replay_families=("sequence", "negation")),
        cells.Budget(max_partials=50_000, max_seconds=4.0),
        # declaration order, so the replay does the same work for every seed;
        # the planners' own plans are judged by plan_cost_norm
        replay_cells=(("trivial", "nfa"), ("trivial", "tree")),
    ),
}


# ---------------------------------------------------------------------------
# Correctness gate


def seed_selftest(shape: inputs.WorkloadShape, seed: int) -> bool:
    """Same seed, same inputs; another seed, other inputs."""
    def digests(s):
        made = inputs.generate(shape, s)
        return inputs.event_digest(made.events), inputs.pattern_digest(made.patterns)

    first, again, other = digests(seed), digests(seed), digests(seed + 1)
    return first == again and first[0] != other[0] and first[1] != other[1]


def corpus_gate(replay_cells) -> tuple[int, int]:
    """Replayed cells against the exhaustive matcher on the built-in corpus."""
    source = corpus_stream()
    checked = passed = 0
    for generated in builtin_corpus():
        for planner, engine in replay_cells:
            for cell in verify_pattern(generated.pattern, source,
                                       algorithms=(planner,), engines=(engine,)):
                checked += 1
                passed += cell.passed
    return checked, passed


# ---------------------------------------------------------------------------
# Measured passes


def run_pass(made, prepared, runners, workload, seed, tracer, probe):
    """One plan cell per (pattern, planner), one replay cell per replay pair.

    With a tracer, every cell runs once plain and once traced; the traced
    copies are returned separately.
    """
    plans, traced_plans, replays, traced_replays = [], [], [], []
    marks = cells.mark_points(len(made.events))
    for item in prepared:  # one pattern's plan cells, then its replay cells
        for planner in cells.PLANNERS if item.spec.plan else ():
            probe.sample()
            plans.append(cells.plan_cell(item, planner, seed))
            if tracer is not None:
                with tracer.cost_layer():
                    traced_plans.append(cells.plan_cell(item, planner, seed))
        for planner, engine in workload.replay_cells if item.spec.replay else ():
            key = (item.spec.pattern_id, planner, engine)
            probe.sample()
            runner = runners.pop(key, None) or cells.build_runner(item, planner, engine)
            busy = samples = 0
            while True:
                cell = cells.replay(runner, made.events, workload.budget, marks,
                                    cells.ReplayCell(*key))
                replays.append(cell)
                busy += cell.busy_s
                samples += len(cell.service_ns)
                if cell.status != "done" or (busy >= cells.REPLAY_MIN_SECONDS
                                             and samples >= cells.REPLAY_MIN_SAMPLES):
                    break
                runner = cells.build_runner(item, planner, engine)
            del runner
            if tracer is not None:
                runner = cells.build_runner(item, planner, engine)
                tracer.instrument_runner(runner)
                with tracer.replay_layers():
                    traced_replays.append(cells.replay(
                        runner, made.events, workload.budget, marks, cells.ReplayCell(*key)))
                del runner
    return plans, traced_plans, replays, traced_replays


def measure(made, setup_result, workload, seed, seconds, tracer, probe):
    passes = []
    deadline = time.perf_counter() + seconds
    runners = dict(setup_result.runners)
    while True:
        started = time.perf_counter()
        passes.append(run_pass(made, setup_result.prepared, runners, workload, seed,
                               tracer, probe))
        took = time.perf_counter() - started
        if time.perf_counter() + took > deadline:
            return passes


# ---------------------------------------------------------------------------
# Correctness of replayed match lists


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def check_replays(replays, recorded: dict) -> tuple[set, dict]:
    """Cells whose match lists disagree with the record or with each other.

    Every run of every cell of one pattern must give the same digest at
    each prefix mark it reached, and the same final digest if it finished.
    Where this seed has a recorded digest, a cell that differs from it
    fails on its own; without a record a disagreement fails every cell of
    the pattern, since nothing tells which one is right.  Returns the ids
    of the failing cells and the agreed digests per pattern.
    """
    by_pattern: dict[str, list] = {}
    for cell in replays:
        if cell.status != "error":
            by_pattern.setdefault(cell.pattern_id, []).append(cell)
    bad, agreed = set(), {}
    for pattern_id, group in by_pattern.items():
        record = recorded.get(pattern_id, {})
        marks = {int(mark): digest for mark, digest in record.get("marks", {}).items()}
        final = record.get("final")
        failing = set()
        for cell in group:
            for mark, digest in cell.marks.items():
                if marks.setdefault(mark, digest) != digest:
                    failing.add(id(cell))
            if cell.final is not None:
                final = final or cell.final
                if final != cell.final:
                    failing.add(id(cell))
        if not failing:
            agreed[pattern_id] = {
                "marks": {str(k): v for k, v in sorted(marks.items())}, "final": final,
            }
        elif record:
            bad |= failing
        else:
            bad.update(id(cell) for cell in group)
    return bad, agreed


# ---------------------------------------------------------------------------
# Metrics


def geomean(values) -> float:
    values = [max(v, 1e-12) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def by_key(replays) -> dict:
    """Runs of each replay cell (repeats and passes), in first-run order."""
    grouped: dict[tuple, list] = {}
    for cell in replays:
        grouped.setdefault(cell.key, []).append(cell)
    return grouped


def by_cell(replays) -> dict:
    """Like ``by_key``, keeping only runs that processed an event."""
    return by_key([c for c in replays if c.events])


def per_cell_medians(replays) -> dict:
    """Median over repeats and passes of each replay cell's figures."""
    return {
        key: {"rate": statistics.median(c.rate for c in group),
              "peak": statistics.median(max(c.memory_peak, 1) for c in group)}
        for key, group in by_cell(replays).items()
    }


def sampled(replays) -> dict:
    """Replay cells with enough service-time samples for a p99.

    A cell cut early by its budget has few calls, and its median swings
    between its cheap and its expensive calls from seed to seed; such
    cells show in the rate, the state and ``done_frac`` instead.
    """
    return {key: group for key, group in by_cell(replays).items()
            if sum(len(c.service_ns) for c in group) >= cells.REPLAY_MIN_SAMPLES}


def central(sorted_values) -> float:
    """Median, taken as the mean of the 40th-60th percentile samples.

    A cell whose calls fall into two groups of about equal size (events of
    the pattern's types and the rest) would otherwise jump between them.
    """
    lo = int(0.4 * len(sorted_values))
    hi = max(int(0.6 * len(sorted_values)), lo + 1)
    return sum(sorted_values[lo:hi]) / (hi - lo)


def service_times(group) -> list[int]:
    return sorted(ns for cell in group for ns in cell.service_ns)


def end_to_end(setups, passes, failed_ids) -> dict:
    first_plans, _, first_replays, _ = passes[0]
    replays = [c for p in passes for c in p[2]]
    figures = per_cell_medians(replays)
    plan_seconds: dict[tuple, list] = {}
    for plans, *_ in passes:
        for cell in plans:
            if cell.error is None:
                plan_seconds.setdefault((cell.pattern_id, cell.planner), []).append(cell.seconds)
    base = {c.pattern_id: c.cost for c in first_plans
            if c.planner == cells.BASELINE_PLANNER and c.error is None}
    norms = [c.cost / base[c.pattern_id] for c in first_plans
             if c.planner != cells.BASELINE_PLANNER and c.error is None
             and base.get(c.pattern_id)]
    replay_runs = by_key(first_replays).values()
    done_plans = [c for c in first_plans if c.error is None]
    done_keys = {group[0].key for group in replay_runs
                 if group[0].status == "done" and not any(id(c) in failed_ids for c in group)}
    done_frac = (len(done_plans) + len(done_keys)) / (len(first_plans) + len(replay_runs))
    return {
        "events_per_s": (geomean(f["rate"] for f in figures.values()), "ev/s"),
        "event_us_p50": (geomean(central(service_times(group))
                                 for group in sampled(replays).values()) / 1e3, "us"),
        "event_us_p99": (geomean(quantile(service_times(group), 0.99)
                                 for group in sampled(replays).values()) / 1e3, "us"),
        "peak_state": (geomean(f["peak"] for f in figures.values()), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(s.total_s for s in setups), "s"),
        "plan_s": (sum(statistics.median(v) for v in plan_seconds.values()), "s"),
        "plan_cost_norm": (geomean(norms), "ratio"),
        "done_frac": (done_frac, "ratio"),
    }


def per_layer(setups, passes, tracer) -> dict:
    out = {}
    traced = [c for p in passes for c in p[3]]
    plain = [c for p in passes for c in p[2]]
    for layer in ENGINE_LAYERS:
        engines = [counters for c in traced for name, counters in c.engines if name == layer]
        evals = tracer.count[f"{layer}.predicate_evals"]
        matches = sum(e["matches"] for e in engines)
        out[f"{layer}.process_s"] = (tracer.ns[f"{layer}.process"] / 1e9, "s")
        out[f"{layer}.predicate_evals"] = (evals, "count")
        out[f"{layer}.blocks_calls"] = (tracer.count[f"{layer}.blocks_calls"], "count")
        out[f"{layer}.instances_created"] = (sum(e["instances_created"] for e in engines), "count")
        out[f"{layer}.peak_partials"] = (max((e["peak_partials"] for e in engines), default=0), "count")
        out[f"{layer}.peak_buffered"] = (max((e["peak_buffered"] for e in engines), default=0), "count")
        out[f"{layer}.kl_overflows"] = (sum(e["kl_overflows"] for e in engines), "count")
        out[f"{layer}.matches_per_1k_evals"] = (1000 * matches / evals if evals else 0.0, "per-1k")
    offered, accepted = tracer.count["offered"], tracer.count["accepted"]
    out["matching.replay_s"] = (tracer.ns["replay"] / 1e9, "s")
    out["matching.offered"] = (offered, "count")
    out["matching.accepted"] = (accepted, "count")
    out["matching.accept_ratio"] = (accepted / offered if offered else 1.0, "ratio")
    out["matching.report_s"] = (tracer.ns["report"] / 1e9, "s")
    busy = sum(c.busy_s for c in traced)  # the layer self times add up to this
    children = sum(tracer.ns.values()) / 1e9
    layer_median = {
        name: statistics.median(s.layer_s[name] for s in setups)
        for name in setups[0].layer_s
    }
    out["runner.build_s"] = (layer_median["build"], "s")
    out["runner.self_s"] = (busy - children, "s")
    out["stream.stats_s"] = (layer_median["stats"], "s")
    out["transform.normalize_s"] = (layer_median["normalize"], "s")
    out["parser.parse_s"] = (layer_median["parse"], "s")
    for planner in cells.PLANNERS:
        mine = [c for p in passes for c in p[0] if c.planner == planner and c.error is None]
        first = [c for c in passes[0][0] if c.planner == planner and c.error is None]
        out[f"plangen.plan_s.{planner}"] = (
            sum(c.seconds for c in mine) / len(passes), "s")
        out[f"plangen.candidates.{planner}"] = (sum(c.candidates for c in first), "count")
    for name in ("order_total", "tree_total", "step_cost", "join_cost"):
        out[f"cost.{name}_calls"] = (tracer.count[f"cost.{name}"] / len(passes), "count")
    plain_rate = geomean(f["rate"] for f in per_cell_medians(plain).values())
    traced_rate = geomean(f["rate"] for f in per_cell_medians(traced).values())
    out["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    out["trace.layers_s"] = (busy, "s")
    out["trace.untraced_s"] = (sum(group[0].busy_s for p in passes
                                   for group in by_key(p[2]).values()), "s")
    return out


# ---------------------------------------------------------------------------


def cell_table(passes, failed_ids) -> list[str]:
    lines = [f"{'cell':34s} {'status':12s} {'events':>7s} {'ev/s':>10s} "
             f"{'p50_us':>9s} {'p99_us':>10s} {'peak':>7s} {'matches':>8s} runs"]
    for key, group in by_key(passes[0][2]).items():
        cell = group[0]
        name = f"{cell.pattern_id} {cell.planner}/{cell.engine}"
        status = "mismatch" if any(id(c) in failed_ids for c in group) else cell.status
        if cell.events:
            service = sorted(cell.service_ns)
            lines.append(
                f"{name:34s} {status:12s} {cell.events:7d} {cell.rate:10.1f} "
                f"{quantile(service, 0.5) / 1e3:9.1f} {quantile(service, 0.99) / 1e3:10.1f} "
                f"{cell.memory_peak:7d} {cell.matches:8d} {len(group)}")
        else:
            lines.append(f"{name:34s} {status:12s} {cell.error or ''}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's agreed match digests in digests.json")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # a runaway allocation in a cell fails that cell, not the host
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    made = inputs.generate(workload.shape, args.seed)
    selftest_ok = seed_selftest(workload.shape, args.seed)
    checked, passed = corpus_gate(workload.replay_cells)
    print(f"workload {args.workload} seed {args.seed}: {len(made.events)} events, "
          f"{len(made.patterns)} patterns, events {inputs.event_digest(made.events)}, "
          f"patterns {inputs.pattern_digest(made.patterns)}")
    print(f"gate: seed self-test {'ok' if selftest_ok else 'FAILED'}; "
          f"corpus {passed}/{checked} cells equal the exhaustive matcher")

    probe = cells.SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        setups.append(cells.setup(made, args.seed, workload.replay_cells))
    tracer = Tracer() if args.trace else None
    passes = measure(made, setups[-1], workload, args.seed, args.seconds, tracer, probe)
    probe.sample()

    digests = load_digests()
    recorded = digests.get(args.workload, {}).get(str(args.seed), {})
    all_replays = [c for p in passes for c in p[2] + p[3]]
    bad, agreed = check_replays(all_replays, recorded)
    first_plans, _, first_replays, _ = passes[0]
    replay_runs = by_key(first_replays).values()
    failed = sum(c.error is not None for c in first_plans) + sum(
        any(c.error is not None or id(c) in bad for c in group) for group in replay_runs)
    correct = selftest_ok and passed == checked and failed == 0
    print(f"replay check: {len(agreed)} patterns agree across cells; "
          f"digests {'recorded' if recorded else 'not recorded'} for this seed; "
          f"{len(passes)} pass(es)")
    for line in cell_table(passes, bad):
        print(line)
    if args.record and correct:
        digests.setdefault(args.workload, {})[str(args.seed)] = agreed
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    if args.trace:
        metrics = per_layer(setups, passes, tracer)
    else:
        metrics = end_to_end(setups, passes, bad)
    scale = probe.scale
    print(f"host speed: probe median {statistics.median(probe.samples) * 1e3:.2f} ms "
          f"over {len(probe.samples)} samples, reference {cells.PROBE_REFERENCE_S * 1e3:.2f} ms; "
          f"times scaled by {scale:.4f}")
    metrics = {name: (value * scale if unit in ("s", "us") else
                      value / scale if unit == "ev/s" else value, unit)
               for name, (value, unit) in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(first_plans) + len(replay_runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
