"""Rebuild the statistics catalogs of the benchmark's own streams.

    python3 tests/data/rebuild_catalogs.py           # compare with catalogs_seed1.json
    python3 tests/data/rebuild_catalogs.py --write   # rewrite catalogs_seed1.json
    python3 tests/data/rebuild_catalogs.py --seed 7  # print seed 7's catalogs as JSON

For every distinct pattern text of every perfbench workload at seed 1,
``estimate_statistics`` runs as the benchmark's set-up runs it, and the
catalog's ``to_json()`` is kept under the workload and the text.  The
comparison is of the whole file's text, so a catalog that moves by one
digit fails it; the names of the differing patterns are printed.
``--seed`` prints another seed's catalogs in the same form, to diff two
checkouts' outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
STORED = HERE / "catalogs_seed1.json"
SEED = 1

sys.path.insert(0, str(HERE.parent.parent / "perfbench"))

import run  # noqa: E402  (puts the repository's src on the path first)
from streamcep import estimate_statistics, from_events, parse_pattern  # noqa: E402


def catalogs(seed: int) -> dict:
    """Workload -> pattern text -> catalog document, as set-up measures it."""
    out = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        made = run.inputs.generate(workload.shape, seed)
        source = from_events(made.events, duration=made.duration)
        by_text = out[name] = {}
        for spec in made.patterns:
            if spec.text not in by_text:
                pattern = parse_pattern(spec.text, strategy=run.cells.strategy_of(spec.strategy))
                stats = estimate_statistics(source, pattern, seed=seed)
                by_text[spec.text] = json.loads(stats.to_json())
    return out


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Rebuild the benchmark streams' catalogs.")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--write", action="store_true",
                        help=f"rewrite {STORED.name} in place of comparing with it")
    action.add_argument("--seed", type=int,
                        help="print this seed's catalogs as JSON in place of comparing")
    args = parser.parse_args(argv)
    if args.seed is not None:
        sys.stdout.write(render(catalogs(args.seed)))
        return 0
    built = catalogs(SEED)
    if args.write:
        STORED.write_text(render(built))
        return 0
    stored = json.loads(STORED.read_text())
    differing = [
        f"{name}: {text}"
        for name in sorted(set(built) | set(stored))
        for text in sorted(set(built.get(name, {})) | set(stored.get(name, {})))
        if built.get(name, {}).get(text) != stored.get(name, {}).get(text)
    ]
    for line in differing:
        print("catalog differs:", line)
    same = render(built) == STORED.read_text()
    print(f"{sum(map(len, built.values()))} catalogs,",
          "identical" if same else f"{len(differing)} differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
