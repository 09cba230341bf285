"""Per-layer spans and counts, wrapped around the program from outside.

Only traced cells are wrapped, and every wrapper is removed when the cell
ends.  Engine entry points and the runner's replay are wrapped on the
instance; module functions (``evaluate_predicate``, ``blocks``,
``make_report``) are swapped in the module that calls them; the cost
model's methods are wrapped on the class.  Self time of a layer is its
span minus the spans of the layers it calls, so the engine, replay,
report and runner self times add up to the runner's ``process`` time.
"""
from __future__ import annotations

from contextlib import contextmanager

import streamcep.nfa as nfa_module
import streamcep.runner as runner_module
import streamcep.tree_engine as tree_module
from streamcep.cost import CostModel

from cells import clock

ENGINE_LAYERS = ("nfa", "tree_engine")
COST_METHODS = ("order_total", "tree_total", "step_cost", "join_cost")


class Tracer:
    """Accumulators for one traced run, shared by all of its cells."""

    def __init__(self):
        self.ns = dict.fromkeys(
            [f"{m}.process" for m in ENGINE_LAYERS] + ["replay", "report"], 0
        )
        self.count = dict.fromkeys(
            [f"{m}.{c}" for m in ENGINE_LAYERS for c in ("predicate_evals", "blocks_calls")]
            + ["offered", "accepted"]
            + [f"cost.{name}" for name in COST_METHODS],
            0,
        )

    # -- helpers -------------------------------------------------------------

    def _timed(self, key: str, fn):
        ns = self.ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[key] += clock() - t0

        return wrapper

    def _counted(self, key: str, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    @contextmanager
    def _swapped(owner, name: str, replacement):
        original = owner.__dict__[name]
        setattr(owner, name, replacement)
        try:
            yield
        finally:
            setattr(owner, name, original)

    # -- public --------------------------------------------------------------

    def instrument_runner(self, runner) -> None:
        """Wrap one runner's engines and replay (instance attributes only)."""
        for engine in runner.engines:
            layer = type(engine).__module__.rsplit(".", 1)[-1]
            key = f"{layer}.process"
            engine.process_event = self._timed(key, engine.process_event)
            engine.end = self._timed(key, engine.end)
        offer = runner.replay.offer
        count, ns = self.count, self.ns

        def traced_offer(batch):
            t0 = clock()
            try:
                accepted = offer(batch)
            finally:
                ns["replay"] += clock() - t0
            count["offered"] += len(batch)
            count["accepted"] += len(accepted)
            return accepted

        runner.replay.offer = traced_offer

    @contextmanager
    def replay_layers(self):
        """Module-level wrappers for the duration of one traced replay."""
        with self._swapped(runner_module, "make_report",
                           self._timed("report", runner_module.make_report)):
            with self._module_counters(nfa_module, "nfa"):
                with self._module_counters(tree_module, "tree_engine"):
                    yield

    @contextmanager
    def _module_counters(self, module, layer: str):
        with self._swapped(module, "evaluate_predicate",
                           self._counted(f"{layer}.predicate_evals", module.evaluate_predicate)):
            with self._swapped(module, "blocks",
                               self._counted(f"{layer}.blocks_calls", module.blocks)):
                yield

    @contextmanager
    def cost_layer(self):
        """Count calls to the cost model's evaluation methods."""
        originals = {name: CostModel.__dict__[name] for name in COST_METHODS}
        for name, fn in originals.items():
            setattr(CostModel, name, self._counted(f"cost.{name}", fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(CostModel, name, fn)
