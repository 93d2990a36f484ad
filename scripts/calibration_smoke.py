#!/usr/bin/env python
"""CI smoke for the calibration loop.

Synthesizes a Chrome trace from a "machine" obeying *known* fit
coefficients — six mappings of Megatron-1.7B traced through the real
exporter, then perturbed with seeded gaussian noise on every term —
runs the genuine ``amped calibrate`` CLI over it, and asserts that the
fitter recovers every coefficient within ``TOLERANCE`` relative and
that the recalibrated model reports healthy drift.

Usage: ``python scripts/calibration_smoke.py`` (run from the repo
root; falls back to ``src/`` if ``repro`` is not installed).  Exits
non-zero on the first failed check.
"""

import json
import os
import random
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import main as amped  # noqa: E402
from repro.core.model import AMPeD  # noqa: E402
from repro.fitting.trace_fit import (  # noqa: E402
    FIT_PARAMETERS,
    FittedCoefficients,
)
from repro.hardware.catalog import ACCELERATORS  # noqa: E402
from repro.hardware.interconnect import IB_HDR, NVLINK3  # noqa: E402
from repro.hardware.node import NodeSpec  # noqa: E402
from repro.hardware.system import SystemSpec  # noqa: E402
from repro.obs.export import write_chrome_trace  # noqa: E402
from repro.obs.trace import get_tracer  # noqa: E402
from repro.parallelism.microbatch import (  # noqa: E402
    CASE_STUDY_EFFICIENCY,
)
from repro.transformer.zoo import get_model  # noqa: E402

#: The machine being "measured": coefficients the fit must recover.
TRUTH = FittedCoefficients(
    efficiency_a=0.97, efficiency_b=34.0, flops_fraction=0.86,
    link_latency_scale=1.5, link_bandwidth_scale=0.7)

#: Small enough that link latency leaves a visible fingerprint (the
#: 100B+ models drown it under bandwidth, leaving link_latency_scale
#: unidentifiable).
MODEL = "megatron-1.7b"

#: (tp, pp, dp, n_microbatches, global_batch) on 4 nodes x 8 A100 —
#: spanning microbatch regimes and both link tiers.
MAPPINGS = (
    (4, 1, 8, None, 512),
    (8, 1, 4, 8, 1024),
    (4, 2, 4, 12, 2048),
    (2, 4, 4, 4, 256),
    (8, 4, 1, 24, 4096),
    (2, 1, 16, 2, 128),
)

#: Relative sigma of the injected per-term noise, and how close the
#: recovered coefficients must land (validated headroom: the fit lands
#: within ~1.1% at this noise level).
NOISE_SIGMA = 0.003
TOLERANCE = 0.03


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def synthesize_trace(path):
    """Trace six mappings of a TRUTH-derated system, then add noise."""
    system = SystemSpec(
        node=NodeSpec(accelerator=ACCELERATORS["a100"],
                      n_accelerators=8, intra_link=NVLINK3,
                      inter_link=IB_HDR, n_nics=8),
        n_nodes=4)
    model = get_model(MODEL)
    base = AMPeD.for_mapping(model, system, tp=4, pp=1, dp=8,
                             efficiency=CASE_STUDY_EFFICIENCY)
    measured = TRUTH.apply(base)

    tracer = get_tracer()
    tracer.enable(reset=True)
    for tp, pp, dp, n_microbatches, global_batch in MAPPINGS:
        scenario = AMPeD.for_mapping(
            model, measured.system, tp=tp, pp=pp, dp=dp,
            n_microbatches=n_microbatches,
            efficiency=measured.efficiency)
        scenario.estimate_batch(global_batch)
    records = tracer.records()
    tracer.disable()
    tracer.reset()
    write_chrome_trace(records, path)

    # Measurement jitter: seeded iid gaussian noise on every term span
    # (both the exact attrs and the quantized dur, consistently).
    document = json.loads(open(path).read())
    rng = random.Random(20260809)
    perturbed = 0
    for event in document["traceEvents"]:
        if event.get("name", "").startswith("term.") \
                and "seconds" in event.get("args", {}):
            event["args"]["seconds"] *= \
                1.0 + NOISE_SIGMA * rng.gauss(0.0, 1.0)
            event["dur"] = event["args"]["seconds"] * 1e6
            perturbed += 1
    with open(path, "w") as handle:
        json.dump(document, handle)
    if perturbed != 11 * len(MAPPINGS):
        fail(f"expected {11 * len(MAPPINGS)} term spans to perturb, "
             f"found {perturbed}")
    print(f"synthesized {path}: {len(MAPPINGS)} observations, "
          f"{perturbed} noisy terms (sigma {NOISE_SIGMA:.1%})")


def main():
    workdir = tempfile.mkdtemp(prefix="calibration-smoke-")
    trace = os.path.join(workdir, "measured.json")
    report_path = os.path.join(workdir, "report.json")
    synthesize_trace(trace)

    code = amped(["calibrate", "--trace", trace, "--nodes", "4",
                  "--model", MODEL, "--report", report_path])
    if code != 0:
        fail(f"amped calibrate exited {code}")
    report = json.loads(open(report_path).read())

    fit = report["fit"]
    if not fit["converged"]:
        fail(f"fit did not converge: {fit['warnings']}")
    if fit["warnings"]:
        fail(f"fit warnings on a well-posed problem: {fit['warnings']}")
    print(f"fit converged on the {fit['backend']} backend, "
          f"R^2 = {fit['r_squared']:.6f}")

    worst = 0.0
    for name in FIT_PARAMETERS:
        truth = getattr(TRUTH, name)
        recovered = fit["coefficients"][name]
        relative = abs(recovered - truth) / truth
        worst = max(worst, relative)
        status = "ok" if relative < TOLERANCE else "FAIL"
        print(f"  {name:22s} truth={truth:<8g} "
              f"fit={recovered:.6g} rel={relative:.2e}  {status}")
        if relative >= TOLERANCE:
            fail(f"{name}: recovered {recovered:.6g} is more than "
                 f"{TOLERANCE:.0%} from truth {truth:g}")
    print(f"recovery ok (worst relative error {worst:.2e} "
          f"< {TOLERANCE:.0%})")

    if not report["drift"]["healthy"]:
        fail(f"recalibrated model still drifts: {report['drift']}")
    print("drift healthy after recalibration")
    print("SMOKE PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
