"""``planner-sweeps``: cold ranked sweeps, one per model x cluster x
batch cell, each starting from empty caches.

Why: this is what ``amped sweep`` pays per call once imported.
``run_sweep`` (microbatch tuning, branch-and-bound pruning, top-k and
the compiled/vectorized switch at the fitted threshold) does most of
the work; the vectorized binder only sees cells above the threshold.

One sweep clears the operation, collective and compiled-sweep caches,
then calls ``enumerate_mappings``, ``AMPeD.for_mapping``,
``build_operations``, ``compile_sweep`` and ``run_sweep(max_results=10)``.
One pass runs all 120 cells in an order the seed shuffles anew each
pass.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.communication import clear_comm_cache
from repro.core.model import AMPeD
from repro.core.operations import build_operations, configure_operations_cache
from repro.hardware.catalog import megatron_a100_cluster
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.search.compiler import (
    clear_compiled_cache,
    compile_sweep,
    compiled_cache_stats,
)
from repro.search.dse import SKIP_PRUNED, explore
from repro.search.resilience import run_sweep
from repro.search.vectorized import resolve_evaluation_path
from repro.transformer.zoo import MODELS

from analysis import percentile
from harness import best_of, traced

NODE_COUNTS = (4, 16, 64, 128)
GLOBAL_BATCHES = (512, 2048)
MAX_RESULTS = 10
CHECKED_CELLS = 8
MIN_PASSES = 4


def _sweep(spans, key, system, global_batch):
    """One cold ranked sweep; returns its top result and counters."""
    model = MODELS[key]
    with spans.span("core.cache_clear", category="core"):
        configure_operations_cache()
        clear_comm_cache()
        clear_compiled_cache()
    with spans.span("parallelism.enumerate", category="parallelism"):
        mappings = enumerate_mappings(system, model)
    with spans.span("core.template", category="core"):
        template = AMPeD.for_mapping(model, system,
                                     dp=system.n_accelerators,
                                     efficiency=CASE_STUDY_EFFICIENCY)
    with spans.span("core.build_operations", category="core"):
        build_operations(model, global_batch, template.include_embeddings)
    with spans.span("compiler.compile", category="compiler"):
        compile_sweep(template, global_batch)
    with spans.span("sweep.run_sweep", category="search"):
        outcome = run_sweep(template, global_batch, mappings=mappings,
                            max_results=MAX_RESULTS)
    table = compiled_cache_stats()
    best = outcome.best
    return {
        "best": None if best is None else (best.label, best.batch_time_s),
        "candidates": len(mappings),
        "pruned": outcome.report.skipped.get(SKIP_PRUNED, 0),
        "vectorized": resolve_evaluation_path(
            "compiled", len(mappings)) == "vectorized",
        "builds": table["builds"], "hits": table["hits"],
        "table_lookups": table["table_lookups"],
        "table_hits": table["table_hits"],
    }


def prepare(run):
    base = megatron_a100_cluster()
    cells = [(key, replace(base, n_nodes=n_nodes), batch)
             for key in sorted(MODELS) for n_nodes in NODE_COUNTS
             for batch in GLOBAL_BATCHES]
    _sweep(run.off, *cells[0])  # warm-up: the same cell for every seed
    return {"cells": cells,
            "checked": run.rng.sample(range(len(cells)), CHECKED_CELLS)}


def measure(run, state):
    cells = state["cells"]

    def one_pass(spans):
        order = list(range(len(cells)))
        run.rng.shuffle(order)
        out = {"sweep_s": [0.0] * len(cells), "best": {},
               "candidates": 0, "pruned": 0, "vectorized": 0,
               "builds": 0, "hits": 0, "table_lookups": 0,
               "table_hits": 0}
        for index in order:
            begin = time.perf_counter()
            sweep = _sweep(spans, *cells[index])
            out["sweep_s"][index] = time.perf_counter() - begin
            run.attempted += 1
            out["best"][index] = sweep["best"]
            for name in ("candidates", "pruned", "vectorized", "builds",
                         "hits", "table_lookups", "table_hits"):
                out[name] += sweep[name]
        return out

    return run.passes(one_pass, MIN_PASSES)


def verify(run, state, passes):
    """Seeded cells' top-1 label and time must equal an unpruned
    compiled ``explore``; every pass must rank every cell alike."""
    last = passes[-1].value["best"]
    for done in passes[:-1]:
        if done.value["best"] != last:
            run.fail("passes disagree on a cell's winner")
    for index in state["checked"]:
        key, system, batch = state["cells"][index]
        template = AMPeD.for_mapping(MODELS[key], system,
                                     dp=system.n_accelerators,
                                     efficiency=CASE_STUDY_EFFICIENCY)
        ranked = explore(template, batch, max_results=1, prune=False,
                         evaluation_path="compiled")
        expected = (ranked[0].label, ranked[0].batch_time_s) \
            if ranked else None
        if last[index] != expected:
            run.fail(f"{key} {system.describe()} batch {batch}: sweep "
                     f"top-1 {last[index]!r} vs explore {expected!r}")


def metrics(run, state, passes):
    """Each cell's sweep at its fastest repeat: percentiles over cells,
    and candidates ranked per second over the sum of those times."""
    best = best_of(passes, "sweep_s")
    rate = passes[0].value["candidates"] / sum(best)
    p50, p99 = percentile(best, 50) * 1e3, percentile(best, 99) * 1e3
    e2e = {"p50_ms": p50, "p99_ms": p99, "throughput_per_s": rate}
    named = {"mappings_per_s": (rate, "1/s"),
             "sweep_p50_ms": (p50, "ms"), "sweep_p99_ms": (p99, "ms")}
    return e2e, named


def layers(run, state, passes, self_s):
    value = traced(passes)[-1].value
    n_cells = len(state["cells"])
    return {
        "compiler.builds": value["builds"],
        "compiler.hits": value["hits"],
        "compiler.table_hit_share":
            value["table_hits"] / max(1, value["table_lookups"]),
        "sweep.prune_share": value["pruned"] / value["candidates"],
        "sweep.vectorized_share": value["vectorized"] / n_cells,
    }
