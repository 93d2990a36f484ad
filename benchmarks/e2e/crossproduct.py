"""``crossproduct``: rank every mapping of every zoo model on four
cluster sizes, two batch sizes and a bubble-overlap grid.

Why: this is the planner's bulk path.  The vectorized backend and spec
construction do nearly all of the work, while serving and the CLI sit
idle, so it isolates ``repro.search.vectorized`` and
``repro.parallelism``.

One cell is one model x cluster x batch: ``enumerate_mappings``, the
overlap expansion of every mapping, ``compile_sweep``,
``VectorizedSweep.bind(tune_microbatches=True)``, ``best_lanes`` and the
argmin.  One pass runs every cell; passes repeat until the run's time
is used.  The seed fixes the cell order, the warm-up cells and the
lanes checked against the scalar path.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from repro.core.model import AMPeD
from repro.errors import MappingError
from repro.hardware.catalog import megatron_a100_cluster
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.search.compiler import (
    clear_compiled_cache,
    compile_sweep,
    compiled_cache_stats,
)
from repro.search.vectorized import VectorizedSweep
from repro.transformer.zoo import MODELS

from analysis import percentile
from harness import best_of, traced

NODE_COUNTS = (32, 64, 128, 256)
GLOBAL_BATCHES = (512, 2048)

#: Bubble-overlap ratios per mapping.  Seven points give ~168k
#: candidates (~700k microbatch lanes) per pass, about two seconds on
#: two cores, so every cell repeats about ten times in a run.
OVERLAP_POINTS = 7

WARMUP_CELLS = 4
CHECKED_LANES = 64
MIN_PASSES = 4


def _template(model, system) -> AMPeD:
    return AMPeD.for_mapping(model, system, dp=system.n_accelerators,
                             efficiency=CASE_STUDY_EFFICIENCY)


def _cell(spans, ratios, key, system, global_batch):
    """Run one cell; returns the batch's per-candidate best times and
    feasibility plus its sizes."""
    model = MODELS[key]
    with spans.span("parallelism.enumerate", category="parallelism"):
        mappings = enumerate_mappings(system, model)
    with spans.span("core.template", category="core"):
        template = _template(model, system)
    with spans.span("parallelism.spec_expand", category="parallelism"):
        specs = [spec.with_overlap(ratio) for ratio in ratios
                 for spec in mappings]
    with spans.span("compiler.compile", category="compiler"):
        compiled = compile_sweep(template, global_batch)
    with spans.span("vectorized.bind", category="vectorized"):
        batch = VectorizedSweep(compiled).bind(specs,
                                               tune_microbatches=True)
    with spans.span("vectorized.best_lanes", category="vectorized"):
        times, _, feasible = batch.best_lanes()
    index = int(np.where(feasible, times, np.inf).argmin())
    table = compiled.stats()
    return {
        "times": times, "feasible": feasible, "index": index,
        "candidates": len(specs), "lanes": batch.n_lanes,
        "array_bytes": batch.array_bytes,
        "table_lookups": table["lookups"], "table_hits": table["hits"],
    }


def prepare(run):
    base = megatron_a100_cluster()
    ratios = [point / OVERLAP_POINTS for point in range(OVERLAP_POINTS)]
    cells = []
    for key in sorted(MODELS):
        for n_nodes in NODE_COUNTS:
            system = replace(base, n_nodes=n_nodes)
            n_mappings = len(enumerate_mappings(system, MODELS[key]))
            if n_mappings:
                cells.extend((key, system, batch, n_mappings)
                             for batch in GLOBAL_BATCHES)
    # The same warm-up cells for every seed, so set-up does equal work.
    for key, system, batch, _ in cells[:WARMUP_CELLS]:
        _cell(run.off, ratios, key, system, batch)
    run.rng.shuffle(cells)
    checked = {}
    for _ in range(CHECKED_LANES):
        cell = run.rng.randrange(len(cells))
        checked.setdefault(cell, []).append(
            run.rng.randrange(cells[cell][3] * OVERLAP_POINTS))
    return {"cells": cells, "ratios": ratios, "checked": checked}


def measure(run, state):
    cells, ratios, checked = state["cells"], state["ratios"], \
        state["checked"]

    def one_pass(spans):
        before = compiled_cache_stats()
        out = {"cell_s": [], "candidates": 0, "lanes": 0,
               "array_bytes": 0, "table_lookups": 0, "table_hits": 0,
               "best": None, "checked": {}}
        for position, (key, system, batch, _) in enumerate(cells):
            begin = time.perf_counter()
            cell = _cell(spans, ratios, key, system, batch)
            out["cell_s"].append(time.perf_counter() - begin)
            run.attempted += 1
            for name in ("candidates", "lanes", "table_lookups",
                         "table_hits"):
                out[name] += cell[name]
            out["array_bytes"] = max(out["array_bytes"],
                                     cell["array_bytes"])
            if cell["feasible"][cell["index"]]:
                best = (float(cell["times"][cell["index"]]), position,
                        cell["index"])
                if out["best"] is None or best < out["best"]:
                    out["best"] = best
            for lane in checked.get(position, ()):
                out["checked"][(position, lane)] = (
                    bool(cell["feasible"][lane]),
                    float(cell["times"][lane]))
        after = compiled_cache_stats()
        out["builds"] = after["builds"] - before["builds"]
        out["hits"] = after["hits"] - before["hits"]
        return out

    return run.passes(one_pass, MIN_PASSES, reset=clear_compiled_cache)


def verify(run, state, passes):
    """The global winner and the seeded lanes must equal the scalar
    ``CompiledSweep.best_microbatch`` bit for bit, and every pass must
    agree with the last."""
    cells, ratios = state["cells"], state["ratios"]
    last = passes[-1].value
    for done in passes[:-1]:
        if (done.value["best"], done.value["checked"]) != \
                (last["best"], last["checked"]):
            run.fail("passes disagree on the winner or a checked lane")
    lanes = dict(last["checked"])
    if last["best"] is None:
        run.fail("no feasible mapping in the whole cross-product")
    else:
        time_s, position, lane = last["best"]
        lanes[(position, lane)] = (True, time_s)
    for (position, lane), (feasible, vector_time) in sorted(lanes.items()):
        key, system, batch, _ = cells[position]
        model = MODELS[key]
        mappings = enumerate_mappings(system, model)
        spec = mappings[lane % len(mappings)].with_overlap(
            ratios[lane // len(mappings)])
        compiled = compile_sweep(_template(model, system), batch)
        try:
            _, scalar = compiled.best_microbatch(spec)
        except MappingError:
            scalar = math.nan
        if feasible != math.isfinite(scalar) or (
                feasible and scalar != vector_time):
            run.fail(f"{key} {system.describe()} batch {batch} "
                     f"{spec.describe()}: vectorized "
                     f"{vector_time!r} ({feasible}) vs scalar {scalar!r}")


def metrics(run, state, passes):
    """Each cell at its fastest repeat: percentiles over cells, and
    candidates ranked per second over the sum of those times."""
    best = best_of(passes, "cell_s")
    rate = passes[0].value["candidates"] / sum(best)
    e2e = {"p50_ms": percentile(best, 50) * 1e3,
           "p99_ms": percentile(best, 99) * 1e3,
           "throughput_per_s": rate}
    named = {"mappings_per_s": (rate, "1/s")}
    return e2e, named


def layers(run, state, passes, self_s):
    value = traced(passes)[-1].value
    lanes = value["lanes"]
    return {
        "vectorized.bind_ns_per_lane":
            self_s.get("vectorized.bind", 0.0) / lanes * 1e9,
        "vectorized.reduce_ns_per_lane":
            self_s.get("vectorized.best_lanes", 0.0) / lanes * 1e9,
        "vectorized.lanes_per_candidate": lanes / value["candidates"],
        "vectorized.array_bytes": value["array_bytes"],
        "compiler.builds": value["builds"],
        "compiler.hits": value["hits"],
        "compiler.table_hit_share":
            value["table_hits"] / max(1, value["table_lookups"]),
    }
