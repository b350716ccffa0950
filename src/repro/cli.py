"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiments``            list reproducible tables/figures
- ``run <experiment>``       regenerate one table/figure (``--quick`` for
                             scaled-down parameters)
- ``fault-recovery``         kill k of N backends mid-run; report goodput
                             dip depth, detection latency, time-to-recover
- ``oracle-validation``      compare the closed-form queueing oracle
                             against simulated ground truth across arrival
                             processes and load levels (docs/queueing.md)
- ``mixed-fleet``            heterogeneous fleets: cost-optimal mixed-class
                             placement vs homogeneous baselines
                             (docs/heterogeneous.md)
- ``models``                 show the model zoo with sizes and profiles
- ``profile <model>``        print a model's batching profile on a device
- ``plan``                   capacity-plan a workload of sessions given as
                             ``model:slo_ms:rate_rps`` triples
- ``lint``                   run nexuslint, the project's determinism /
                             SLO-safety static analysis (docs/static-analysis.md)
- ``serve``                  run the live asyncio serving plane: an HTTP
                             frontend over the shared runtime core on
                             wall-clock epochs (docs/serving.md)
- ``loadgen``                open-loop load generator against a live
                             server; reports achieved rate, p50/p99 and
                             drop fractions

Observability flags (before the subcommand) capture the structured event
stream of every cluster run the command performs (docs/observability.md):

- ``--trace-out PATH``       Chrome trace_event JSON (chrome://tracing /
                             Perfetto)
- ``--metrics-out PATH``     Prometheus-style text snapshot of
                             counters/gauges
- ``--trace-csv PATH``       the raw event table as CSV
"""

from __future__ import annotations

import argparse
import sys

from .analysis import lint

__all__ = ["main", "build_parser"]

#: Experiments runnable from the CLI, with quick-mode overrides.
_EXPERIMENTS: dict[str, dict] = {
    "table1": {},
    "fig2": {},
    "fig4": {},
    "fig5": {"quick": {"duration_ms": 20_000.0}},
    "fig9": {"quick": {"duration_ms": 15_000.0, "iterations": 7}},
    "fig10": {"quick": {"duration_ms": 5_000.0, "iterations": 6,
                        "systems": ["nexus", "tf_serving", "-OL"]}},
    "fig11": {"quick": {"duration_ms": 6_000.0, "iterations": 6,
                        "systems": ["nexus", "tf_serving", "-OL"]}},
    "fig12": {"quick": {"duration_ms": 6_000.0, "iterations": 6,
                        "systems": ["nexus", "tf_serving"]}},
    "fig14": {"quick": {"duration_ms": 6_000.0, "iterations": 6,
                        "model_counts": (2, 4), "slos": (50.0, 200.0)}},
    "fig15": {},
    "fig16": {"quick": {"duration_ms": 5_000.0, "iterations": 6,
                        "scenarios": ("mix_rates_inception",)}},
    "fig17": {"quick": {"duration_ms": 6_000.0, "iterations": 6,
                        "slos": (400.0,), "gammas": (1.0,)}},
    "utilization": {"quick": {"duration_ms": 15_000.0}},
    "ilp_gap": {"quick": {"sizes": (4, 6), "trials": 5}},
    "mixed_fleet": {},
    "fault_recovery": {"quick": {"duration_ms": 60_000.0,
                                 "kill_at_ms": 20_000.0,
                                 "warmup_ms": 5_000.0}},
    "oracle_validation": {"quick": {"duration_ms": 20_000.0}},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nexus (SOSP 2019) reproduction toolkit",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON of every cluster run the "
             "command performs (open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a Prometheus-style text snapshot of the run's "
             "counters/gauges (goodput, bad rate, drops, batch sizes, "
             "GPU occupancy)",
    )
    parser.add_argument(
        "--trace-csv", metavar="PATH", default=None,
        help="write the raw structured event table as CSV",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "experiments", help="list reproducible tables/figures",
    ).set_defaults(run=_cmd_experiments)

    run = sub.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    run.add_argument("--quick", action="store_true",
                     help="scaled-down parameters (minutes -> seconds)")
    run.set_defaults(run=_cmd_run)

    fr = sub.add_parser(
        "fault-recovery",
        help="kill k of N backends mid-run and measure recovery",
    )
    fr.add_argument("--gpus", type=int, default=8,
                    help="cluster size (backends)")
    fr.add_argument("--kill", type=int, default=1,
                    help="backends to crash")
    fr.add_argument("--kill-at", type=float, default=40_000.0,
                    metavar="MS", help="crash instant (virtual ms)")
    fr.add_argument("--duration", type=float, default=120_000.0,
                    metavar="MS", help="run length (virtual ms)")
    fr.add_argument("--seed", type=int, default=0)
    fr.set_defaults(run=_cmd_fault_recovery)

    ov = sub.add_parser(
        "oracle-validation",
        help="validate the queueing oracle against simulated ground truth",
    )
    ov.add_argument("--duration", type=float, default=120_000.0,
                    metavar="MS", help="arrival stream length (virtual ms)")
    ov.add_argument("--seed", type=int, default=0)
    ov.add_argument("--quick", action="store_true",
                    help="shorter streams (noisier quantiles; for smoke "
                         "runs)")
    ov.set_defaults(run=_cmd_oracle_validation)

    mf = sub.add_parser(
        "mixed-fleet",
        help="heterogeneous fleets: cost-optimal mixed-class placement "
             "vs homogeneous baselines (docs/heterogeneous.md)",
    )
    mf.add_argument("--class", action="append", default=None,
                    metavar="NAME:COUNT", dest="classes",
                    help="fleet class with inventory, e.g. t4:4 or "
                         "gtx1080ti:16 (repeatable; COUNT '-' = "
                         "unbounded; default: gtx1080ti:16 k80:16 t4:4)")
    mf.add_argument("--no-stage-placement", action="store_true",
                    help="skip the PPipe-style per-stage placement rows")
    mf.set_defaults(run=_cmd_mixed_fleet)

    mega = sub.add_parser(
        "megascale",
        help="fleet-scale serving as federated shards (independent "
             "clusters fanned across worker processes): a compressed day "
             "of diurnal drift, regional waves and flash crowds "
             "(docs/sharded-simulation.md)",
    )
    mega.add_argument("--gpus", type=int, default=10_000,
                      help="fleet size (cap), dealt across shards")
    mega.add_argument("--sessions", type=int, default=1_000,
                      help="total model sessions across the fleet")
    mega.add_argument("--shards", type=int, default=8,
                      help="independent partitions (one worker each)")
    mega.add_argument("--duration", type=float, default=120.0,
                      metavar="S", help="compressed-day length (virtual s)")
    mega.add_argument("--base-rps", type=float, default=10.0,
                      help="per-session baseline rate")
    mega.add_argument("--workers", type=int, default=None,
                      help="worker processes for shard fan-out "
                           "(default: serial)")
    mega.add_argument("--seed", type=int, default=0)
    mega.add_argument("--quick", action="store_true",
                      help="small smoke configuration (64 GPUs, 12 "
                           "sessions, 2 shards, 8s day)")
    mega.set_defaults(run=_cmd_megascale)

    sub.add_parser(
        "models", help="show the model zoo",
    ).set_defaults(run=_cmd_models)

    prof = sub.add_parser("profile", help="print a model's batching profile")
    prof.add_argument("model", help="zoo name, e.g. resnet50 or "
                                    "'resnet50@task:40'")
    prof.add_argument("--device", default="gtx1080ti")
    prof.add_argument("--batches", default="1,2,4,8,16,32",
                      help="comma-separated batch sizes")
    prof.set_defaults(run=_cmd_profile)

    plan = sub.add_parser("plan", help="capacity-plan a session workload")
    plan.add_argument("sessions", nargs="+",
                      help="model:slo_ms:rate_rps triples, e.g. "
                           "resnet50:100:400")
    plan.add_argument("--device", default="gtx1080ti")
    plan.add_argument("--exact", action="store_true",
                      help="also solve exactly (small workloads only)")
    plan.set_defaults(run=_cmd_plan)

    lint_cmd = sub.add_parser(
        "lint", help=lint.DESCRIPTION, description=lint.DESCRIPTION,
    )
    lint.add_arguments(lint_cmd)
    lint_cmd.set_defaults(run=lint.run)

    serve = sub.add_parser(
        "serve",
        help="run the live serving plane (asyncio HTTP frontend)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = ephemeral, printed on start)")
    serve.add_argument("--app", action="append", default=None,
                       metavar="SPEC", dest="apps",
                       help="app to deploy: MODEL:SLO_MS:RATE_RPS or "
                            "app=NAME:RATE_RPS (repeatable; default "
                            "lenet5:50:30000)")
    serve.add_argument("--device", default="gtx1080ti")
    serve.add_argument("--gpus", type=int, default=None,
                       help="cluster size cap (default: size to demand)")
    serve.add_argument("--epoch-ms", type=float, default=10_000.0,
                       metavar="MS", help="epoch control-loop cadence")
    serve.add_argument("--dynamic", action="store_true",
                       help="re-plan every epoch from observed load")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(run=_cmd_serve)

    lg = sub.add_parser(
        "loadgen",
        help="open-loop load generator against a live server",
    )
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=8642)
    lg.add_argument("--app", default="lenet5",
                    help="application name to invoke (default lenet5)")
    lg.add_argument("--rate", type=float, default=25_000.0, metavar="RPS",
                    help="offered request rate")
    lg.add_argument("--duration", type=float, default=5.0, metavar="S",
                    dest="duration_s", help="burst length in seconds")
    lg.add_argument("--connections", type=int, default=8,
                    help="pipelined keep-alive connections")
    lg.add_argument("--arrival", choices=("poisson", "uniform"),
                    default="poisson")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--wait-ready", type=float, default=0.0, metavar="S",
                    dest="wait_ready_s",
                    help="poll /v1/healthz up to S seconds before starting")
    lg.add_argument("--min-achieved-rps", type=float, default=None,
                    metavar="RPS", dest="min_achieved_rps",
                    help="exit 1 if the achieved rate falls below RPS")
    lg.add_argument("--min-goodput-rps", type=float, default=None,
                    metavar="RPS", dest="min_goodput_rps",
                    help="exit 1 if server-side goodput falls below RPS")
    lg.add_argument("--report-json", default=None, metavar="PATH",
                    help="write the full report as JSON")
    lg.add_argument("--shutdown", action="store_true",
                    help="POST /v1/shutdown after the run (CI smoke)")
    lg.set_defaults(run=_cmd_loadgen)

    return parser


def _cmd_experiments(args: argparse.Namespace) -> int:
    print("reproducible artifacts (run with: python -m repro run <name>):")
    for name in sorted(_EXPERIMENTS):
        quick = " [--quick available]" if _EXPERIMENTS[name] else ""
        print(f"  {name}{quick}")
    print("\nfig13 (the 1000 s timeline) is driven via "
          "repro.experiments.fig13.run() or benchmarks/ -- it takes minutes.")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import importlib

    name = args.experiment
    module = importlib.import_module(f"repro.experiments.{name}")
    kwargs = _EXPERIMENTS[name].get("quick", {}) if args.quick else {}
    result = module.run(**kwargs)
    # Some experiments return (table, structured output); print the table.
    if isinstance(result, tuple):
        result = result[0]
    print(result)
    return 0


def _cmd_megascale(args: argparse.Namespace) -> int:
    from .experiments.megascale import run

    gpus, sessions, shards, duration_s = (
        args.gpus, args.sessions, args.shards, args.duration,
    )
    if args.quick:
        gpus, sessions, shards, duration_s = 64, 12, 2, 8.0
    table = run(
        gpus=gpus, sessions=sessions, shards=shards,
        duration_s=duration_s, seed=args.seed, workers=args.workers,
        base_rps=args.base_rps,
    )
    print(table)
    return 0


def _cmd_fault_recovery(args: argparse.Namespace) -> int:
    from .experiments.fault_recovery import run

    table, output = run(
        duration_ms=args.duration, kill_at_ms=args.kill_at, kill=args.kill,
        gpus=args.gpus, seed=args.seed,
    )
    print(table)
    det = output.detection_ms
    ttr = output.time_to_recover_ms
    print(f"pre-fault goodput : {output.pre_fault_goodput_rps:.1f} rps")
    print(f"dip depth         : {output.dip_fraction:.2f}x pre-fault")
    print("detection latency : "
          + ("not detected" if det is None else f"{det:.0f} ms"))
    print("time to recover   : "
          + ("not recovered" if ttr is None else f"{ttr:.0f} ms"))
    print(f"recovered level   : {output.recovered_fraction:.2f}x pre-fault")
    return 0


def _cmd_oracle_validation(args: argparse.Namespace) -> int:
    from .experiments.common import format_table
    from .experiments.oracle_validation import run

    duration_ms = args.duration
    if args.quick:
        duration_ms = min(duration_ms, 20_000.0)
    result = run(duration_ms=duration_ms, seed=args.seed)
    print(format_table(result.name, result.columns, result.rows,
                       result.notes))
    return 0


def _cmd_mixed_fleet(args: argparse.Namespace) -> int:
    from .experiments.mixed_fleet import run

    counts: dict[str, int | None] | None = None
    if args.classes:
        counts = {}
        for spec in args.classes:
            try:
                name, count_s = spec.rsplit(":", 1)
                counts[name] = None if count_s == "-" else int(count_s)
            except ValueError:
                print(f"bad class spec {spec!r}; want NAME:COUNT",
                      file=sys.stderr)
                return 2
    print(run(counts=counts,
              include_stage_placement=not args.no_stage_placement))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from .experiments.common import format_table
    from .models.zoo import MODEL_BUILDERS, get_model

    rows = []
    for name in sorted(MODEL_BUILDERS):
        m = get_model(name)
        rows.append([
            name,
            "x".join(str(d) for d in m.input_shape),
            m.num_layers(),
            round(m.total_flops() / 1e9, 2),
            round(m.total_param_bytes() / 1e6, 1),
        ])
    print(format_table("model zoo",
                       ["model", "input", "layers", "gflops", "params_mb"],
                       rows))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .experiments.common import format_table
    from .models.profiler import profile

    model, device = args.model, args.device
    prof = profile(model, device)
    rows = []
    for b in (int(x) for x in args.batches.split(",")):
        if b < 1 or b > prof.max_batch:
            continue
        rows.append([b, round(prof.latency(b), 3),
                     round(prof.throughput(b), 1),
                     round(prof.memory_bytes(b) / 1e6, 1)])
    print(format_table(
        f"{model} on {device} (alpha={prof.alpha:.3f} ms, "
        f"beta={prof.beta:.3f} ms, max_batch={prof.max_batch})",
        ["batch", "latency_ms", "throughput_rps", "memory_mb"], rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core import Session, SessionLoad, squishy_bin_packing
    from .core.ilp import exact_min_gpus
    from .core.profile import EffectiveProfile
    from .models.profiler import profile

    device = args.device
    loads = []
    for spec in args.sessions:
        try:
            model, slo_s, rate_s = spec.rsplit(":", 2)
            slo, rate = float(slo_s), float(rate_s)
        except ValueError:
            print(f"bad session spec {spec!r}; want model:slo_ms:rate_rps",
                  file=sys.stderr)
            return 2
        prof = EffectiveProfile(base=profile(model, device), overlap=True)
        loads.append(SessionLoad(Session(model, slo), rate, prof))

    plan = squishy_bin_packing(loads)
    print(f"{plan.num_gpus} GPUs ({device}):")
    for i, gpu in enumerate(plan.gpus):
        members = ", ".join(
            f"{a.session_id} b={a.batch} ({a.exec_ms:.1f} ms)"
            for a in gpu.allocations
        )
        kind = "saturated" if gpu.saturated else "shared"
        print(f"  gpu{i} [{kind}] duty={gpu.duty_cycle_ms:.1f} ms "
              f"occ={gpu.occupancy:.0%}: {members}")
    for load in plan.infeasible:
        print(f"  INFEASIBLE: {load.session_id} "
              f"(l(1)={load.profile.latency(1):.1f} ms vs "
              f"SLO {load.slo_ms:.0f} ms)")
    if args.exact:
        optimum = exact_min_gpus(loads)
        print(f"exact optimum: {optimum.num_gpus} GPUs")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster.nexus import ClusterConfig
    from .serving import NexusServer, parse_app_spec

    host, device = args.host, args.device
    cfg = ClusterConfig(
        device=device, max_gpus=args.gpus, epoch_ms=args.epoch_ms,
        seed=args.seed, dynamic=args.dynamic, expand_to_cluster=False,
    )

    async def _run() -> int:
        server = NexusServer(cfg, host=host, port=args.port)
        for spec in args.apps or ["lenet5:50:30000"]:
            query, rate, arrival = parse_app_spec(spec, device)
            server.runtime.add_app(query, rate, arrival)
        bound = await server.start()
        plan = server.runtime.plan
        print(
            f"serving on http://{host}:{bound} "
            f"({plan.num_gpus if plan else 0} emulated GPUs, "
            f"apps: {', '.join(server.runtime.app_names)})",
            flush=True,
        )
        try:
            await server.wait_shutdown()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await server.stop()
        print("server stopped cleanly", flush=True)
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        print("server stopped cleanly", flush=True)
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serving.loadgen import run_loadgen, wait_ready

    host, port = args.host, args.port
    min_achieved_rps = args.min_achieved_rps
    min_goodput_rps = args.min_goodput_rps

    async def _run() -> tuple[int, dict]:
        if args.wait_ready_s > 0:
            await wait_ready(host, port, timeout_s=args.wait_ready_s)
        report = await run_loadgen(
            host, port, args.app, args.rate, args.duration_s,
            connections=args.connections, arrival=args.arrival,
            seed=args.seed,
        )
        print(report.summary())
        status = 0
        if min_achieved_rps is not None and (
            report.achieved_rps < min_achieved_rps
        ):
            print(
                f"FAIL: achieved {report.achieved_rps:,.1f} rps < "
                f"required {min_achieved_rps:,.1f} rps", file=sys.stderr,
            )
            status = 1
        if min_goodput_rps is not None:
            goodput = float(report.server_stats.get("goodput_rps", 0.0))
            if goodput < min_goodput_rps:
                print(
                    f"FAIL: server goodput {goodput:,.1f} rps < "
                    f"required {min_goodput_rps:,.1f} rps",
                    file=sys.stderr,
                )
                status = 1
        if args.shutdown:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /v1/shutdown HTTP/1.1\r\nHost: lg\r\n"
                    b"Content-Length: 0\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                await reader.read()
                writer.close()
            except OSError as exc:
                print(f"shutdown request failed: {exc}", file=sys.stderr)
                status = status or 1
        return status, report.to_dict()

    # The report file is written here, after the event loop has exited:
    # synchronous file I/O inside the coroutine would stall the very
    # connections the loadgen is still draining.
    status, payload = asyncio.run(_run())
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report -> {args.report_json}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (args.trace_out or args.metrics_out or args.trace_csv):
        return args.run(args)

    from .observability import (
        capture_trace,
        write_chrome_trace,
        write_csv,
        write_prometheus_snapshot,
    )

    # Fail on unwritable paths now, not after a possibly long run.
    for path in (args.trace_out, args.metrics_out, args.trace_csv):
        if path:
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"cannot write {path}: {exc}", file=sys.stderr)
                return 2

    with capture_trace() as buffer:
        status = args.run(args)
    if args.trace_out:
        write_chrome_trace(buffer.events, args.trace_out)
        print(f"trace: {len(buffer.events)} events -> {args.trace_out}",
              file=sys.stderr)
    if args.metrics_out:
        write_prometheus_snapshot(buffer.events, args.metrics_out)
        print(f"metrics snapshot -> {args.metrics_out}", file=sys.stderr)
    if args.trace_csv:
        write_csv(buffer.events, args.trace_csv)
        print(f"event csv -> {args.trace_csv}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
