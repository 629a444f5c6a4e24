"""Span tracer that wraps hybridfg's public functions from outside the package.

Each wrapper records a span (name, start, end, parent) around one call.  The
wrappers are installed where the caller looks the name up at call time,
which is not always the module that defines it:

* ``slam_cli`` and ``elimination`` both bind the elimination entry points
  (``optimize()`` imports them from ``elimination`` when it runs);
* ``elimination`` binds ``eliminate_one`` and the discrete table operations;
* ``slam_cli.main`` reaches the parser only through ``PARSERS["custom"]``;
* ``_Runner.finalize`` imports ``nonlinear.optimize`` lazily;
* ``linearize`` and the runner's pass methods are wrapped on their classes.

``install`` swaps the wrappers in and ``uninstall`` restores the originals,
so untraced solves in the same process run the unmodified code.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from hybridfg import dataset, elimination, nonlinear, slam_cli
from hybridfg.hybrid import HybridGaussianConditional

ELIMINATION_ENTRY_POINTS = (
    "sum_product", "max_product", "strong_ordering", "prune_bayes_net",
    "hypothesis_support", "restrict_to_support", "dead_mode_removal",
    "discrete_marginals")


def _hybrid_leaf_counts(bn) -> Tuple[int, int]:
    """(non-nil leaves, largest tree size) over a net's hybrid conditionals."""
    live = largest = 0
    for c in bn.conditionals:
        if isinstance(c, HybridGaussianConditional):
            leaves = c.components.leaves
            live += sum(1 for leaf in leaves.flat if leaf is not None)
            largest = max(largest, leaves.size)
    return live, largest


class Tracer:
    """Records spans in memory; ``metrics()`` folds them into layer figures."""

    def __init__(self):
        # Spans as parallel lists of names, floats and ints: unlike one list
        # per span they add no objects for the garbage collector to scan.
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, Any, Any]] = []
        self.leaves_computed = 0
        self.leaves_kept = 0
        self.max_tree_leaves = 0

    def reset(self):
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()
        self.leaves_computed = self.leaves_kept = self.max_tree_leaves = 0

    def wrap(self, name: str, fn: Callable,
             inspect: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if inspect is not None:
                inspect(args, result)
            return result
        return traced

    def _patch(self, owner, attr, name, inspect=None):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, inspect)
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, inspect))
        self._patches.append((owner, attr, original))

    def _inspect_prune(self, args, result):
        computed, largest = _hybrid_leaf_counts(args[0])
        kept, _ = _hybrid_leaf_counts(result)
        self.leaves_computed += computed
        self.leaves_kept += kept
        self.max_tree_leaves = max(self.max_tree_leaves, largest)

    def install(self):
        for attr in ELIMINATION_ENTRY_POINTS + ("bn_sample", "bn_evaluate"):
            inspect = self._inspect_prune if attr == "prune_bayes_net" else None
            for module in (elimination, slam_cli):
                if attr in module.__dict__:
                    self._patch(module, attr, f"elimination.{attr}", inspect)
        self._patch(elimination, "eliminate_one", "gaussian.eliminate_one")
        for attr in ("eliminate_discrete_sum", "eliminate_discrete_max",
                     "multiply_factors", "prune_to_top"):
            self._patch(elimination, attr, f"discrete.{attr}")
        self._patch(nonlinear.HybridNonlinearFactorGraph, "linearize",
                    "nonlinear.linearize")
        self._patch(nonlinear, "optimize", "nonlinear.optimize")
        self._patch(slam_cli.PARSERS, "custom", "dataset.parse_dataset")
        self._patch(slam_cli._Runner, "elimination_pass", "slam_cli.elimination_pass")
        self._patch(slam_cli._Runner, "finalize", "slam_cli.finalize")
        self._patch(slam_cli, "emit_results", "slam_cli.emit_results")
        self._patch(slam_cli, "main", "slam_cli.main")
        self._patch(dataset, "square_loop_dataset", "dataset.square_loop_dataset")
        self._patch(dataset, "write_dataset", "dataset.write_dataset")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- folding spans into metrics ------------------------------------------

    def _totals(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Inclusive time and calls per span name, and self time per module.

        Inclusive time counts only the outermost span of a name, so a name
        nested under itself is not counted twice.
        """
        names, parents = self.names, self.parents
        spans = list(zip(names, self.starts, self.ends, parents))
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        self_time: Dict[str, float] = {}
        for idx, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            module = name.split(".", 1)[0]
            self_time[module] = self_time.get(module, 0.0) \
                + (end - start) - child_time[idx]
            outer = parent
            while outer >= 0 and names[outer] != name:
                outer = parents[outer]
            if outer < 0:
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        return inclusive, calls, self_time

    def _gn_iters(self) -> int:
        """Linearize calls under each optimize span, less its final one."""
        names, parents = self.names, self.parents
        per_optimize: Dict[int, int] = {}
        for idx, (name, parent) in enumerate(zip(names, parents)):
            if name == "nonlinear.optimize":
                per_optimize.setdefault(idx, 0)
            elif name == "nonlinear.linearize":
                outer = parent
                while outer >= 0 and names[outer] != "nonlinear.optimize":
                    outer = parents[outer]
                if outer >= 0:
                    per_optimize[outer] = per_optimize.get(outer, 0) + 1
        return sum(max(n - 1, 0) for n in per_optimize.values())

    def metrics(self) -> Dict[str, float]:
        """Layer figures for the spans recorded since the last ``reset``."""
        inc, calls, self_time = self._totals()
        t = lambda *names: sum(inc.get(n, 0.0) for n in names)
        c = lambda *names: sum(calls.get(n, 0) for n in names)
        passes = [(end - start) * 1000.0
                  for name, start, end in zip(self.names, self.starts, self.ends)
                  if name == "slam_cli.elimination_pass"]
        m = {
            "dataset.generate_s": t("dataset.square_loop_dataset",
                                    "dataset.write_dataset"),
            "dataset.parse_s": t("dataset.parse_dataset"),
            "nonlinear.linearize_s": t("nonlinear.linearize"),
            "nonlinear.linearize_calls": c("nonlinear.linearize"),
            "nonlinear.optimize_s": t("nonlinear.optimize"),
            "nonlinear.gn_iters": self._gn_iters(),
            "elimination.strong_ordering_s": t("elimination.strong_ordering"),
            "elimination.sum_product_s": t("elimination.sum_product"),
            "elimination.sum_product_calls": c("elimination.sum_product"),
            "elimination.max_product_s": t("elimination.max_product"),
            "elimination.max_product_calls": c("elimination.max_product"),
            "elimination.prune_s": t("elimination.prune_bayes_net",
                                     "elimination.hypothesis_support"),
            "elimination.restrict_s": t("elimination.restrict_to_support"),
            "elimination.dmr_s": t("elimination.dead_mode_removal"),
            "elimination.query_s": t("elimination.bn_sample",
                                     "elimination.bn_evaluate",
                                     "elimination.discrete_marginals"),
            "gaussian.eliminate_one_s": t("gaussian.eliminate_one"),
            "gaussian.eliminate_one_calls": c("gaussian.eliminate_one"),
            "discrete.eliminate_s": t("discrete.eliminate_discrete_sum",
                                      "discrete.eliminate_discrete_max"),
            "discrete.eliminate_calls": c("discrete.eliminate_discrete_sum",
                                          "discrete.eliminate_discrete_max"),
            "discrete.multiply_s": t("discrete.multiply_factors"),
            "discrete.prune_to_top_s": t("discrete.prune_to_top"),
            "hybrid.leaves_computed": self.leaves_computed,
            "hybrid.leaves_kept": self.leaves_kept,
            "hybrid.kept_leaf_ratio": (self.leaves_kept / self.leaves_computed
                                       if self.leaves_computed else 1.0),
            "hybrid.max_tree_leaves": self.max_tree_leaves,
            "slam_cli.stream_s": t("slam_cli.elimination_pass"),
            "slam_cli.passes": len(passes),
            "slam_cli.pass_ms_p50": statistics.median(passes) if passes else 0.0,
            "slam_cli.finalize_s": t("slam_cli.finalize"),
            "slam_cli.emit_s": t("slam_cli.emit_results"),
        }
        for module in ("dataset", "nonlinear", "elimination", "gaussian",
                       "discrete", "slam_cli"):
            m[f"{module}.self_s"] = self_time.get(module, 0.0)
        return m
