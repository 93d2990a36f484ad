"""``cli-cold``: fresh ``python -m repro`` processes, one
``estimate`` and one ``sweep`` per pass.

Why: interpreter start and imports dominate and the model evaluation
is trivial, so a lazy-import or start-up change shows here and nowhere
else.  The estimate's arguments are drawn by the seed from fifteen
legal model x cluster x batch x mapping choices; the sweep is always
``sweep --model megatron-1.7b --nodes 2 --batch 256 --top 5``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.cli import main as cli_main
from repro.core.model import AMPeD
from repro.errors import ReproError
from repro.hardware.catalog import megatron_a100_cluster
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.parallelism.spec import spec_from_totals
from repro.transformer.zoo import MODELS
from repro.units import divisors

from analysis import import_times, percentile
from harness import ROOT, untraced

SWEEP_ARGV = ("sweep", "--model", "megatron-1.7b", "--nodes", "2",
              "--batch", "256", "--top", "5")
ESTIMATE_CHOICES = 15
ESTIMATE_NODES = (1, 2, 4, 8, 16, 32, 64, 128)
ESTIMATE_BATCHES = (256, 512, 1024, 2048)
MIN_PASSES = 8
LAYER_PROBES = 3

#: Top-level modules whose cumulative ``-X importtime`` is reported.
IMPORT_MODULES = ("numpy", "repro.search", "repro.serve", "repro.core")

#: Every import a cold CLI call pays before its subcommand runs:
#: ``build_parser`` imports the serve subcommand's arguments lazily.
_IMPORT_TREE = "import repro.cli; repro.cli.build_parser()"

#: Times ``repro.cli.main(argv)`` in a process that has imported
#: ``repro.cli`` and nothing else, so the lazy imports count as main;
#: prints the seconds on stdout.
_TIME_MAIN = (
    "import contextlib, io, json, sys, time\n"
    "import repro.cli\n"
    "argv = json.loads(sys.argv[1])\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    begin = time.perf_counter()\n"
    "    repro.cli.main(argv)\n"
    "    seconds = time.perf_counter() - begin\n"
    "print(seconds)\n")


def _estimate_argvs(rng) -> List[Tuple[str, ...]]:
    """Seeded estimate invocations that construct and evaluate."""
    argvs: List[Tuple[str, ...]] = []
    while len(argvs) < ESTIMATE_CHOICES:
        key = rng.choice(sorted(MODELS))
        nodes = rng.choice(ESTIMATE_NODES)
        batch = rng.choice(ESTIMATE_BATCHES)
        total = nodes * 8
        tp = rng.choice(divisors(total))
        pp = rng.choice(divisors(total // tp))
        dp = total // (tp * pp)
        system = megatron_a100_cluster(n_nodes=nodes)
        try:
            spec = spec_from_totals(system, tp=tp, pp=pp, dp=dp)
            AMPeD(model=MODELS[key], system=system, parallelism=spec,
                  efficiency=CASE_STUDY_EFFICIENCY).estimate_batch(batch)
        except ReproError:
            continue
        argvs.append(("estimate", "--model", key, "--nodes", str(nodes),
                      "--tp", str(tp), "--pp", str(pp), "--dp", str(dp),
                      "--batch", str(batch)))
    return argvs


def _invoke(args) -> Tuple[float, int, bytes]:
    """Wall seconds, exit code and stdout of one fresh interpreter."""
    begin = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    return time.perf_counter() - begin, done.returncode, done.stdout


def prepare(run):
    return {"estimates": _estimate_argvs(run.rng), "outputs": {}}


def measure(run, state):
    estimates = state["estimates"]
    outputs: Dict[tuple, List[Tuple[int, bytes]]] = state["outputs"]
    if run.traced:
        state["probes"] = _probe_layers(estimates[0])

    def one_pass(spans):
        walls = {}
        for kind, argv in (("estimate", run.rng.choice(estimates)),
                           ("sweep", SWEEP_ARGV)):
            with spans.span(f"cli.{kind}", category="cli"):
                walls[kind], code, stdout = _invoke(("-m", "repro",
                                                     *argv))
            run.attempted += 1
            outputs.setdefault(argv, []).append((code, stdout))
        return walls

    budget = run.seconds - state.get("probes", {}).get("seconds", 0.0)
    passes = run.passes(one_pass, MIN_PASSES, seconds=budget)
    state["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return passes


def _probe_layers(estimate) -> Dict[str, float]:
    """Start-up stages measured from outside: the bare interpreter,
    ``import repro.cli``, ``main(argv)`` after that import (together
    about one invocation), and ``-X importtime`` cumulative times of
    the big subtrees a call imports."""
    begin = time.perf_counter()
    bare = [_invoke(("-c", "pass"))[0] for _ in range(LAYER_PROBES)]
    imports = [_invoke(("-c", "import repro.cli"))[0]
               for _ in range(LAYER_PROBES)]
    cumulative: Dict[str, List[float]] = {name: []
                                          for name in IMPORT_MODULES}
    for _ in range(LAYER_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_TREE],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            check=True, text=True)
        for name, micros in import_times(done.stderr).items():
            if name in cumulative:
                cumulative[name].append(micros / 1e6)
    mains = []
    for argv in (estimate, SWEEP_ARGV):
        mains.append(statistics.median(
            float(_invoke(("-c", _TIME_MAIN, json.dumps(argv)))[2])
            for _ in range(LAYER_PROBES)))
    interpreter = statistics.median(bare)
    out = {"cli.interpreter_s": interpreter,
           "cli.import_s": statistics.median(imports) - interpreter,
           "cli.main_s": statistics.fmean(mains)}
    for name, values in cumulative.items():
        key = "cli.import." + name.replace(".", "_") + "_s"
        out[key] = statistics.median(values) if values else 0.0
    out["seconds"] = time.perf_counter() - begin
    return out


def verify(run, state, passes):
    """Each invocation's exit code and stdout must match an in-process
    ``repro.cli.main(argv)`` byte for byte."""
    for argv, results in sorted(state["outputs"].items()):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(list(argv))
        expected = (code, buffer.getvalue().encode())
        for result in results:
            if result != expected:
                run.fail(f"{' '.join(argv)}: exit {result[0]} with "
                         f"{len(result[1])} stdout bytes, in-process "
                         f"exit {code} with {len(expected[1])}")


def metrics(run, state, passes):
    """Each kind of call at its fastest repeat (the estimate's
    arguments vary, but import and start-up cost does not); the
    percentiles run over the two kinds."""
    timed = untraced(passes)
    best = {kind: min(p.value[kind] for p in timed)
            for kind in ("estimate", "sweep")}
    calls_ms = [seconds * 1e3 for seconds in best.values()]
    e2e = {"p50_ms": percentile(calls_ms, 50),
           "p99_ms": percentile(calls_ms, 99),
           "throughput_per_s": len(best) / sum(best.values()),
           "peak_rss_mb": state["peak_rss_mb"]}
    named = {"cli_estimate_s": (best["estimate"], "s"),
             "cli_sweep_s": (best["sweep"], "s")}
    return e2e, named


def layers(run, state, passes, self_s):
    probes = dict(state["probes"])
    probes.pop("seconds")
    return probes
