"""Command-line interface: ``amped`` / ``python -m repro``.

Subcommands:

- ``estimate`` — one AMPeD evaluation with a printed breakdown.
- ``sweep`` — exhaustive mapping exploration on a system, best-first.
- ``validate`` — reproduce the paper's validation artifacts
  (Table II, Table III, Fig. 2a/2b) and print error reports.
- ``experiment`` — run a named experiment (fig3, fig4..fig9, fig10,
  fig11, fig2c) and print its series.
- ``recommend`` — the paper's conclusions as a one-step mapping
  recommendation, with its rationale.
- ``sensitivity`` — per-knob elasticity of batch time (co-design
  tornado).
- ``cost`` — dollars, energy and CO2 for a full training run.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.core.model import AMPeD
from repro.errors import ReproError
from repro.obs.export import write_chrome_trace, write_metrics_snapshot
from repro.obs.logs import LOG_LEVELS, configure_logging
from repro.obs.metrics import collect_cache_metrics, get_metrics
from repro.obs.trace import get_tracer, span
from repro.hardware.catalog import ACCELERATORS
from repro.hardware.interconnect import IB_EDR, IB_HDR, IB_NDR, NVLINK3
from repro.hardware.node import NodeSpec
from repro.hardware.system import SystemSpec
from repro.parallelism.microbatch import (
    CASE_STUDY_EFFICIENCY,
    MicrobatchEfficiency,
)
from repro.parallelism.spec import spec_from_totals
from repro.reporting.tables import render_table
from repro.transformer.zoo import MODELS, get_model
from repro.units import format_duration, seconds_to_microseconds

_INTER_LINKS = {"edr": IB_EDR, "hdr": IB_HDR, "ndr": IB_NDR}

#: The CLI's user-facing output channel (see :mod:`repro.obs.logs`):
#: INFO lands on stdout bare, ERROR on stderr, levels honor
#: ``--log-level``.  At the default level the output is byte-identical
#: to the historical ``print()`` behaviour.
_OUT = logging.getLogger("repro.cli")


def _say(message: str = "") -> None:
    """Emit one line of user-facing CLI output."""
    _OUT.info(message)


def build_parser() -> argparse.ArgumentParser:
    """The ``amped`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="amped",
        description="AMPeD: analytical performance model for distributed "
                    "transformer training (ISPASS 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser(
        "estimate", help="evaluate one configuration")
    _add_system_args(estimate)
    _add_catalog_entry_arg(estimate)
    estimate.add_argument("--tp", type=int, default=1)
    estimate.add_argument("--pp", type=int, default=1)
    estimate.add_argument("--dp", type=int, default=1)
    estimate.add_argument("--batch", type=int, default=2048)
    estimate.add_argument("--tokens", type=float, default=None,
                          help="corpus size; prints total training days")

    sweep = sub.add_parser(
        "sweep", help="explore every parallelism mapping")
    _add_system_args(sweep)
    _add_catalog_entry_arg(sweep)
    sweep.add_argument("--batch", type=int, default=2048)
    sweep.add_argument("--top", type=int, default=10)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweeps on the scalar "
                            "route, used only without NumPy (1 = serial; "
                            "ranking is identical); the NumPy route "
                            "always runs in this process")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock limit per batch of worker "
                            "results before the batch is retried")
    sweep.add_argument("--retries", type=int, default=2,
                       help="consecutive worker failures tolerated "
                            "(with exponential backoff) before the "
                            "sweep degrades to serial execution")
    sweep.add_argument("--journal", default=None, metavar="PATH",
                       help="append progress to a JSONL sweep journal "
                            "(resumable with --resume)")
    sweep.add_argument("--resume", default=None, metavar="JOURNAL",
                       help="resume an interrupted sweep from its "
                            "journal; finished candidates are never "
                            "re-evaluated")

    validate = sub.add_parser(
        "validate", help="reproduce the paper's validation tables")

    experiment = sub.add_parser(
        "experiment", help="run a named paper experiment")
    experiment.add_argument(
        "name",
        choices=["fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5",
                 "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                 "table2-interleaved", "scaling", "family", "context"])

    recommend = sub.add_parser(
        "recommend", help="one-step mapping recommendation")
    _add_system_args(recommend)

    sensitivity = sub.add_parser(
        "sensitivity", help="per-knob elasticity of batch time")
    _add_system_args(sensitivity)
    sensitivity.add_argument("--tp", type=int, default=8)
    sensitivity.add_argument("--pp", type=int, default=1)
    sensitivity.add_argument("--dp", type=int, default=16)
    sensitivity.add_argument("--batch", type=int, default=2048)

    cost = sub.add_parser(
        "cost", help="dollars, energy and CO2 for a training run")
    _add_system_args(cost)
    cost.add_argument("--tp", type=int, default=8)
    cost.add_argument("--pp", type=int, default=1)
    cost.add_argument("--dp", type=int, default=16)
    cost.add_argument("--batch", type=int, default=2048)
    cost.add_argument("--tokens", type=float, default=3e11)
    cost.add_argument("--usd-per-gpu-hour", type=float, default=4.1)

    export = sub.add_parser(
        "export", help="write every experiment's data series to CSV")
    export.add_argument("--outdir", default="results",
                        help="output directory (created if missing)")
    export.add_argument("--skip-sweeps", action="store_true",
                        help="skip the slow Case Study I sweeps")

    serve = sub.add_parser(
        "serve", help="run the estimation-as-a-service HTTP daemon")
    from repro.serve.server import add_serve_args
    add_serve_args(serve)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit model coefficients to measured per-term timings "
             "and report model-vs-measured drift")
    _add_system_args(calibrate)
    calibrate.add_argument(
        "--trace", dest="trace_input", default=None, metavar="PATH",
        help="Chrome trace-event JSON (as written by --trace on other "
             "subcommands / repro.obs.export) to ingest")
    calibrate.add_argument(
        "--csv", dest="csv_input", default=None, metavar="PATH",
        help="CSV timing file (term,seconds[,...] — see "
             "docs/calibration.md) to ingest")
    calibrate.add_argument(
        "--batch", type=int, default=None,
        help="global batch size for observations that do not carry "
             "one (CSV files without a global_batch column)")
    calibrate.add_argument(
        "--fit", default=",".join(
            ("efficiency_a", "efficiency_b", "flops_fraction",
             "link_latency_scale", "link_bandwidth_scale")),
        metavar="PARAMS",
        help="comma-separated coefficients to fit (default: all five)")
    calibrate.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative-error threshold above which a term is flagged "
             "as drifted (default: 0.05)")
    calibrate.add_argument(
        "--write-catalog", dest="write_catalog", default=None,
        metavar="PATH",
        help="write the calibrated system + efficiency curve as a "
             "catalog entry JSON")
    calibrate.add_argument(
        "--catalog-name", dest="catalog_name", default=None,
        help="name recorded in the catalog entry (default: "
             "'<accelerator>-calibrated')")
    calibrate.add_argument(
        "--report", dest="report", default=None, metavar="PATH",
        help="write the drift report as JSON")

    for command_parser in sub.choices.values():
        _add_obs_args(command_parser)
    return parser


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    if "--trace" not in parser._option_string_actions:
        # `calibrate` claims --trace as its *input* flag (the trace to
        # ingest); every other subcommand gets the trace-output flag.
        group.add_argument(
            "--trace", default=None, metavar="PATH",
            help="record spans and modeled-time events, and "
                 "write a Chrome trace-event JSON (open in "
                 "chrome://tracing or ui.perfetto.dev)")
    group.add_argument("--metrics", nargs="?", const="", default=None,
                       metavar="PATH",
                       help="print a metrics snapshot after the "
                            "command (or write it as JSON to PATH)")
    group.add_argument("--log-level", default="info",
                       choices=sorted(LOG_LEVELS), dest="log_level",
                       help="verbosity of CLI output and library "
                            "diagnostics (default: info)")


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="megatron-145b",
                        choices=sorted(MODELS))
    parser.add_argument("--accelerator", default="a100",
                        choices=sorted(ACCELERATORS))
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--accel-per-node", type=int, default=8)
    parser.add_argument("--nics", type=int, default=8)
    parser.add_argument("--inter", default="hdr",
                        choices=sorted(_INTER_LINKS))


def _add_catalog_entry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--catalog-entry", default=None, metavar="PATH",
        dest="catalog_entry",
        help="evaluate against a calibrated catalog entry written by "
             "'amped calibrate --write-catalog' instead of the stock "
             "hardware flags (--accelerator/--nodes/... are ignored; "
             "--model still selects the transformer)")


def _system_from_args(args) -> SystemSpec:
    node = NodeSpec(
        accelerator=ACCELERATORS[args.accelerator],
        n_accelerators=args.accel_per_node,
        intra_link=NVLINK3,
        inter_link=_INTER_LINKS[args.inter],
        n_nics=args.nics,
    )
    return SystemSpec(node=node, n_nodes=args.nodes)


def _efficiency() -> MicrobatchEfficiency:
    return CASE_STUDY_EFFICIENCY


def _resolve_system(args):
    """``(system, efficiency, note)`` for estimate/sweep.

    ``--catalog-entry`` swaps in the calibrated system and efficiency
    curve written by ``amped calibrate --write-catalog``; otherwise the
    stock hardware flags and the paper's case-study curve apply.
    ``note`` names the entry for the report header (None for stock)."""
    path = getattr(args, "catalog_entry", None)
    if path is None:
        return _system_from_args(args), _efficiency(), None
    from repro.hardware.catalog_io import load_catalog_entry
    name, system, efficiency, _provenance = load_catalog_entry(path)
    return system, efficiency, f"calibrated entry {name!r} ({path})"


def _cmd_estimate(args) -> int:
    from repro.errors import MappingError
    from repro.search.diagnose import diagnose_mapping

    system, efficiency, catalog_note = _resolve_system(args)
    model = get_model(args.model)
    spec = spec_from_totals(system, tp=args.tp, pp=args.pp, dp=args.dp)
    try:
        amped = AMPeD(model=model, system=system, parallelism=spec,
                      efficiency=efficiency)
    except MappingError:
        diagnosis = diagnose_mapping(spec, model, system,
                                     global_batch=args.batch)
        _say(diagnosis.explain())
        return 1
    breakdown = amped.estimate_batch(args.batch)
    _say(f"model:   {model.name}")
    _say(f"system:  {system.describe()}")
    if catalog_note is not None:
        _say(f"         {catalog_note}")
    _say(f"mapping: {spec.describe()}  "
          f"(ub={amped.microbatch(args.batch):g}, "
          f"eff={amped.microbatch_efficiency(args.batch):.2f})")
    _say()
    _say(breakdown.format_table())
    if args.tokens:
        estimate = amped.estimate(args.batch, total_tokens=args.tokens)
        _say(f"\ntraining {args.tokens:g} tokens: "
              f"{estimate.total_time_days:.1f} days "
              f"({estimate.n_batches} batches)")
    return 0


def _cmd_sweep(args) -> int:
    from repro.search.resilience import run_sweep

    system, efficiency, catalog_note = _resolve_system(args)
    model = get_model(args.model)
    template = AMPeD.for_mapping(model, system, dp=system.n_accelerators,
                                 efficiency=efficiency)
    journal_path = args.resume or args.journal
    outcome = run_sweep(template, args.batch, max_results=args.top,
                        workers=args.jobs, timeout=args.timeout,
                        retries=args.retries, journal_path=journal_path,
                        resume=args.resume is not None)
    rows = [(r.label, format_duration(r.batch_time_s),
             f"{r.microbatch_size:g}", f"{r.microbatch_efficiency:.2f}",
             format_duration(r.breakdown.comm_time),
             format_duration(r.breakdown.bubble))
            for r in outcome.results]
    title = f"{model.name} on {system.describe()} @ batch {args.batch}"
    if catalog_note is not None:
        title += f" [{catalog_note}]"
    if outcome.partial:
        title += " [PARTIAL]"
    _say(render_table(
        ["mapping", "batch time", "ub", "eff", "comm", "bubble"], rows,
        title=title))
    _say()
    _say(outcome.report.format_table())
    if outcome.cumulative is not None:
        counters = outcome.cumulative["counters"]
        _say(f"journal cumulative: {counters['runs']} run(s), "
             f"{counters['evaluated']} evaluated, "
             f"{counters['retried']} batch retries, "
             f"{counters['worker_errors']} worker errors, "
             f"{counters['interrupts']} interrupt(s)")
    if outcome.partial:
        if journal_path:
            _say(f"\nsweep interrupted — continue with: "
                  f"amped sweep --resume {journal_path}")
        else:
            _say("\nsweep interrupted — rerun with --journal to make "
                  "future runs resumable")
        return 130
    return 0


def _cmd_validate(args) -> int:
    from repro.experiments.fig2_validation import (
        data_parallel_scaling,
        pipeline_parallel_scaling,
    )
    from repro.experiments.table2 import reproduce_table2
    from repro.experiments.table3 import reproduce_table3

    __, table2_report = reproduce_table2()
    _say(table2_report.format_table())
    _say()
    __, table3_report = reproduce_table3()
    _say(table3_report.format_table())
    _say()
    _say(data_parallel_scaling().report().format_table())
    _say()
    _say(pipeline_parallel_scaling().report().format_table())
    return 0


def _cmd_experiment(args) -> int:
    name = args.name
    if name == "fig2a":
        from repro.experiments.fig2_validation import data_parallel_scaling
        _say(data_parallel_scaling().report().format_table())
    elif name == "fig2b":
        from repro.experiments.fig2_validation import (
            pipeline_parallel_scaling)
        _say(pipeline_parallel_scaling().report().format_table())
    elif name == "fig2c":
        from repro.experiments.fig2_validation import batch_size_saturation
        points = batch_size_saturation()
        _say(render_table(
            ["microbatch", "global batch", "TFLOP/s/GPU", "eff"],
            [(p.microbatch_size, p.global_batch, p.tflops_per_gpu,
              p.efficiency) for p in points],
            title="Fig. 2c: GPT-3 175B on 96 GPUs (PP only)"))
    elif name == "fig3":
        from repro.experiments.fig3_breakdown import reproduce_fig3
        for case in reproduce_fig3():
            _say(case.breakdown.format_table(title=case.label))
            _say()
    elif name in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        from repro.experiments.casestudy1 import ALL_FIGURES
        series = ALL_FIGURES[name]()
        headers = ["inter split"] + [f"batch {b} (days)"
                                     for b in sorted(series.points[0].days)]
        rows = [[p.label] + [("n/a" if p.days[b] is None
                              else f"{p.days[b]:.1f}")
                             for b in sorted(p.days)]
                for p in series.points]
        _say(render_table(headers, rows, title=series.figure))
    elif name == "fig10":
        from repro.experiments.casestudy2 import reproduce_fig10
        rows = [(k, f"{v.dp_days:.1f}", f"{v.pp_days:.1f}", v.winner,
                 f"{v.pp_bubble_share:.1%}")
                for k, v in reproduce_fig10().items()]
        _say(render_table(
            ["accel+NICs/node", "DP days", "PP days", "winner",
             "PP bubble"],
            rows, title="Fig. 10: low-end inter-node DP vs PP"))
    elif name == "fig11":
        from repro.experiments.casestudy3 import reproduce_fig11
        bars = reproduce_fig11()
        reference = bars[0]
        rows = [(bar.label, f"{bar.training_days_per_epoch:.2f}",
                 f"{bar.speedup_over(reference):.2f}x") for bar in bars]
        _say(render_table(
            ["configuration", "days/100B tokens", "speedup"],
            rows, title="Fig. 11: optical communication substrates"))
    elif name == "table2-interleaved":
        from repro.experiments.table2_interleaved import (
            reproduce_table2_interleaved)
        __, report = reproduce_table2_interleaved()
        _say(report.format_table())
    elif name == "scaling":
        from repro.experiments.scaling_study import run_scaling_study
        points = run_scaling_study()
        base = points[0]
        _say(render_table(
            ["GPUs", "best mapping", "s/batch", "speedup",
             "efficiency"],
            [(p.n_accelerators, p.mapping, round(p.batch_time_s, 1),
              f"x{p.speedup_over(base):.2f}",
              f"{p.efficiency_over(base):.0%}") for p in points],
            title="Strong scaling (Megatron 145B)"))
    elif name == "family":
        from repro.experiments.family_study import run_family_study
        _say(render_table(
            ["model", "best mapping", "TFLOP/s/GPU", "MFU"],
            [(p.model_key, p.mapping, round(p.tflops_per_gpu, 1),
              f"{p.mfu:.0%}") for p in run_family_study()],
            title="Megatron family on 512 A100s"))
    elif name == "context":
        from repro.experiments.context_study import run_context_study
        _say(render_table(
            ["context", "batch", "s/batch", "us/token",
             "attention share"],
            [(p.sequence_length, p.global_batch,
              round(p.batch_time_s, 1),
              round(seconds_to_microseconds(p.time_per_token_s), 2),
              f"{p.attention_flop_share:.1%}")
             for p in run_context_study()],
            title="Long-context cost (7.5B arch, 4M tokens/batch)"))
    return 0


def _cmd_recommend(args) -> int:
    from repro.search.heuristics import recommend_mapping

    system = _system_from_args(args)
    model = get_model(args.model)
    recommendation = recommend_mapping(model, system)
    _say(f"model:   {model.name}")
    _say(f"system:  {system.describe()}")
    _say(f"mapping: {recommendation.parallelism.describe()}")
    _say(recommendation.explain())
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.sensitivity.elasticity import sensitivity_profile

    system = _system_from_args(args)
    model = get_model(args.model)
    spec = spec_from_totals(system, tp=args.tp, pp=args.pp, dp=args.dp)
    amped = AMPeD(model=model, system=system, parallelism=spec,
                  efficiency=_efficiency())
    profile = sensitivity_profile(amped, args.batch)
    _say(render_table(
        ["knob", "elasticity", "interpretation"],
        [(e.knob, f"{e.elasticity:+.4f}",
          "raising it helps" if e.improves_when_increased
          else "negligible / cost")
         for e in profile],
        title=f"batch-time elasticities ({spec.describe()}, "
              f"batch {args.batch})"))
    return 0


def _cmd_cost(args) -> int:
    from repro.cost.carbon import EU_AVERAGE_GRID, estimate_carbon
    from repro.cost.pricing import CloudPricing, estimate_cost
    from repro.energy.energy import estimate_energy
    from repro.energy.power import PowerModel

    system = _system_from_args(args)
    model = get_model(args.model)
    spec = spec_from_totals(system, tp=args.tp, pp=args.pp, dp=args.dp)
    amped = AMPeD(model=model, system=system, parallelism=spec,
                  efficiency=_efficiency())
    estimate = amped.estimate(args.batch, total_tokens=args.tokens)
    pricing = CloudPricing("cli", args.usd_per_gpu_hour)
    cost = estimate_cost(estimate, system.n_accelerators, pricing)
    power = PowerModel.for_accelerator(system.accelerator)
    energy = estimate_energy(estimate.breakdown, power,
                             system.n_accelerators)
    carbon = estimate_carbon(energy, EU_AVERAGE_GRID)
    _say(f"model:    {model.name} ({args.tokens:.0e} tokens, "
          f"batch {args.batch})")
    _say(f"system:   {system.describe()}")
    _say(f"mapping:  {spec.describe()}")
    _say(f"duration: {estimate.total_time_days:.1f} days")
    _say(f"usage:    {cost.gpu_hours:,.0f} GPU-hours "
          f"({cost.billed_gpu_hours:,.0f} billed)")
    _say(f"cost:     ${cost.usd:,.0f} at "
          f"${pricing.effective_rate:.2f}/GPU-hour")
    _say(f"energy:   {energy.total_kwh:,.0f} kWh")
    _say(f"carbon:   {carbon.tonnes_co2:,.1f} t CO2 "
          f"({EU_AVERAGE_GRID.name} grid, PUE "
          f"{EU_AVERAGE_GRID.pue})")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.server import config_from_args, run_daemon

    return run_daemon(config_from_args(args))


def _cmd_calibrate(args) -> int:
    import dataclasses
    import json as _json

    from repro.fitting.trace_fit import (
        FIT_PARAMETERS,
        fit_from_observations,
    )
    from repro.hardware.catalog_io import write_catalog_entry
    from repro.obs.ingest import load_observations
    from repro.reporting.drift import compute_drift

    observations = load_observations(args.trace_input, args.csv_input)
    if args.batch:
        observations = [
            dataclasses.replace(item, global_batch=args.batch)
            if item.global_batch <= 0 else item
            for item in observations]
    system = _system_from_args(args)
    model = get_model(args.model)
    fallback = next((item.mapping for item in observations
                     if item.mapping is not None), None) \
        or spec_from_totals(system, dp=system.n_accelerators)
    base = AMPeD(model=model, system=system, parallelism=fallback,
                 efficiency=_efficiency(), validate=False)
    for item in observations:
        if item.model and item.model != model.name:
            _say(f"note: observation {item.source or '<unknown>'} was "
                 f"recorded for {item.model!r}, calibrating "
                 f"{model.name!r} — pass --model to match")
            break

    parameters = tuple(name.strip() for name in args.fit.split(",")
                       if name.strip()) or FIT_PARAMETERS
    fit = fit_from_observations(base, observations,
                                parameters=parameters)

    _say(f"calibrated {model.name} against {len(observations)} "
         f"observation(s), {len(fit.residuals)} aligned term pair(s) "
         f"[{fit.backend} backend, {fit.iterations} iteration(s)"
         f"{'' if fit.converged else ', NOT converged'}]")
    _say()
    rows = []
    for name in fit.fitted_parameters:
        value = getattr(fit.coefficients, name)
        low, high = fit.confidence_interval(name)
        rows.append((name, f"{value:.6g}",
                     f"[{low:.6g}, {high:.6g}]"))
    _say(render_table(["coefficient", "fitted", "95% interval"], rows,
                      title=f"fit: R^2 = {fit.r_squared:.6f}, "
                            f"condition = {fit.condition_number:.3g}"))
    for warning in fit.warnings:
        _say(f"warning: {warning}")

    calibrated = fit.coefficients.apply(base)
    drift = compute_drift(calibrated, observations,
                          threshold=args.threshold)
    _say()
    _say(drift.format_table())

    if args.report:
        import math as _math
        from pathlib import Path

        def finite_or_none(value):
            return value if _math.isfinite(value) else None

        payload = {"fit": {
            "coefficients": fit.coefficients.as_dict(),
            "fitted_parameters": list(fit.fitted_parameters),
            "stderr": {name: finite_or_none(value)
                       for name, value in fit.stderr.items()},
            "r_squared": fit.r_squared,
            "condition_number": finite_or_none(fit.condition_number),
            "converged": fit.converged,
            "backend": fit.backend,
            "warnings": fit.warnings,
        }, "drift": drift.as_dict()}
        Path(args.report).write_text(
            _json.dumps(payload, indent=2, allow_nan=False) + "\n")
        _say(f"\nwrote report to {args.report}")

    if args.write_catalog:
        entry_name = args.catalog_name \
            or f"{args.accelerator}-calibrated"
        write_catalog_entry(
            args.write_catalog, entry_name, calibrated.system,
            calibrated.efficiency,
            provenance={
                "model": model.name,
                "observations": len(observations),
                "r_squared": fit.r_squared,
                "fitted_parameters": list(fit.fitted_parameters),
                "coefficients": fit.coefficients.as_dict(),
                "trace": args.trace_input,
                "csv": args.csv_input,
            })
        _say(f"wrote catalog entry {entry_name!r} to "
             f"{args.write_catalog}")
    return 0


def _cmd_export(args) -> int:
    from repro.experiments.casestudy1 import ALL_FIGURES
    from repro.experiments.casestudy2 import reproduce_fig10
    from repro.experiments.casestudy3 import reproduce_fig11
    from repro.experiments.fig2_validation import (
        batch_size_saturation,
        data_parallel_scaling,
        pipeline_parallel_scaling,
    )
    from repro.experiments.table2 import reproduce_table2
    from repro.experiments.table3 import reproduce_table3
    from repro.reporting.export import export_csv

    outdir = args.outdir
    written = []

    for name, result in (("fig2a", data_parallel_scaling()),
                         ("fig2b", pipeline_parallel_scaling())):
        rows = [(p.n_gpus, predicted, measured)
                for p, predicted, measured in zip(
                    result.points, result.predicted_normalized,
                    result.measured_normalized)]
        written.append(export_csv(
            f"{outdir}/{name}.csv",
            ["gpus", "predicted_normalized", "measured_normalized"],
            rows))

    written.append(export_csv(
        f"{outdir}/fig2c.csv",
        ["microbatch", "global_batch", "tflops_per_gpu", "efficiency"],
        [(p.microbatch_size, p.global_batch, p.tflops_per_gpu,
          p.efficiency) for p in batch_size_saturation()]))

    rows2, _ = reproduce_table2()
    written.append(export_csv(
        f"{outdir}/table2.csv",
        ["model", "tp", "pp", "dp", "predicted_tflops",
         "published_tflops", "error_percent"],
        [(r.point.model_key, r.point.tp, r.point.pp, r.point.dp,
          r.predicted_tflops, r.point.published_tflops,
          r.error_percent) for r in rows2]))

    rows3, _ = reproduce_table3()
    written.append(export_csv(
        f"{outdir}/table3.csv",
        ["gpus", "batch_time_s", "simulated_time_s"],
        [(r.n_gpus, r.batch_time_s, r.simulated_time_s)
         for r in rows3]))

    written.append(export_csv(
        f"{outdir}/fig10.csv",
        ["accel_per_node", "dp_days", "pp_days", "winner",
         "pp_bubble_share"],
        [(k, v.dp_days, v.pp_days, v.winner, v.pp_bubble_share)
         for k, v in sorted(reproduce_fig10().items())]))

    bars = reproduce_fig11()
    written.append(export_csv(
        f"{outdir}/fig11.csv",
        ["configuration", "accel_per_node", "days", "speedup"],
        [(b.label, b.accelerators_per_node, b.training_days_per_epoch,
          b.speedup_over(bars[0])) for b in bars]))

    if not args.skip_sweeps:
        for name, figure in ALL_FIGURES.items():
            series = figure()
            batches = sorted(series.points[0].days)
            written.append(export_csv(
                f"{outdir}/{name}.csv",
                ["inter_split"] + [f"days_batch_{b}" for b in batches],
                [[p.label] + [("" if p.days[b] is None else p.days[b])
                              for b in batches]
                 for p in series.points]))

    written.append(_write_summary_report(outdir, rows2, rows3, bars))

    for path in written:
        _say(f"wrote {path}")
    return 0


def _write_summary_report(outdir: str, table2_rows, table3_rows,
                          fig11_bars):
    """The committed-artifact summary: report.md."""
    from pathlib import Path

    from repro.core.metrics import speedups
    from repro.reporting.markdown import MarkdownReport
    from repro.validation.published import GPIPE_TABLE3

    report = MarkdownReport("AMPeD reproduction summary")
    report.add_section(
        "Table II — AMPeD vs published Megatron TFLOP/s/GPU",
        "Efficiency calibrated on the 145B row only; the rest are "
        "predictions.")
    report.add_table(
        ["Model", "TP/PP/DP", "published", "predicted", "error %"],
        [(f"{r.point.n_parameters_b:g}B",
          f"{r.point.tp}/{r.point.pp}/{r.point.dp}",
          r.point.published_tflops, round(r.predicted_tflops, 1),
          round(r.error_percent, 2)) for r in table2_rows])

    predicted = speedups([r.batch_time_s for r in table3_rows])
    report.add_section("Table III — GPipe normalized throughput")
    report.add_table(
        ["GPUs", "published", "predicted"],
        [(point.n_gpus, point.published_speedup, round(p, 2))
         for point, p in zip(GPIPE_TABLE3, predicted)])

    report.add_section("Fig. 11 — optical substrate ladder")
    report.add_table(
        ["configuration", "speedup"],
        [(bar.label, f"x{bar.speedup_over(fig11_bars[0]):.2f}")
         for bar in fig11_bars],
        caption="cumulative over the reference system")

    target = Path(outdir) / "report.md"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(report.render())
    return target


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``amped`` and ``python -m repro``."""
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "info"))
    tracer = get_tracer()
    trace_path = getattr(args, "trace", None)
    if trace_path:
        tracer.enable(reset=True)
    handlers = {
        "estimate": _cmd_estimate,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "experiment": _cmd_experiment,
        "recommend": _cmd_recommend,
        "sensitivity": _cmd_sensitivity,
        "cost": _cmd_cost,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "calibrate": _cmd_calibrate,
    }
    try:
        with span(f"cli.{args.command}", category="cli"):
            code = handlers[args.command](args)
    except ReproError as error:
        _OUT.error(f"error: {error}")
        code = 2
    if trace_path:
        tracer.disable()
        try:
            write_chrome_trace(tracer.records(), trace_path)
            _say(f"wrote trace to {trace_path}")
        except (OSError, ValueError) as error:
            _OUT.error(f"error: could not write trace: {error}")
            code = code or 1
    metrics_path = getattr(args, "metrics", None)
    if metrics_path is not None:
        registry = collect_cache_metrics(get_metrics())
        if metrics_path:
            try:
                write_metrics_snapshot(registry.snapshot(), metrics_path)
                _say(f"wrote metrics to {metrics_path}")
            except (OSError, ValueError) as error:
                _OUT.error(f"error: could not write metrics: {error}")
                code = code or 1
        else:
            _say(registry.format_table())
    return code


if __name__ == "__main__":
    sys.exit(main())
