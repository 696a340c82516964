"""Command-line interface: regenerate paper figures from a shell.

    python -m repro.cli list --verbose
    python -m repro.cli run fig7a
    python -m repro.cli run fig10a --duration-ms 300 --seed 11
    python -m repro.cli run all
    python -m repro.cli stats
    python -m repro.cli stats --format prom --duration-ms 500
    python -m repro.cli timeline --format chrome --out trace.json
    python -m repro.cli timeline --trace-id 0xc2a5e8a3 --format text
    python -m repro.cli faults --seed 7 --format json
    python -m repro.cli watch --window-ms 100
    python -m repro.cli watch --deterministic
    python -m repro.cli rpc --requests 40
    python -m repro.cli rpc --deterministic
    python -m repro.cli bench --preset smoke
    python -m repro.cli bench --preset smoke --out benchmarks/baseline.json

`list` prints the ScenarioSpec registry (`repro.experiments.SCENARIOS`),
the one table of runnable things; `--verbose` adds each spec's
references.  `run` takes its figures from that table: each prints its
paper-vs-measured block (the presenter beside its runner), `run all`
walks the whole evaluation (§IV).  The same runners back `benchmarks/`.

`stats` runs the quickstart tracing scenario with the self-observability
layer attached (see docs/OBSERVABILITY.md) and emits the pipeline's own
health metrics as a table, JSON, Prometheus text, or the sampled time
series.

`timeline` runs the same scenario, reconstructs per-packet span trees
(see docs/TIMELINES.md), and exports them as Chrome trace-event JSON
(loadable in Perfetto / chrome://tracing), OTLP-style JSON, or an
indented text rendering with critical-path and anomaly summaries.

`faults` runs the three-leg fault-equivalence experiment (fault-free,
faulty-with-retries, lossy-without-retries; see docs/FAULTS.md) and
exits non-zero if the resilient delivery layer fails the equivalence
or loss-accounting invariants.

`watch` runs the quickstart scenario with the streaming query layer
attached (see docs/STREAMING.md) and prints the closed window frames --
per-flow throughput, per-hop latency/jitter, percentile sketches, and
the top-K slowest flows -- as a table or JSON; `--deterministic` emits
one canonical JSON document the CI determinism job byte-diffs.

`rpc` runs the multi-tier service scenario (see docs/SERVICES.md): a
declarative ServiceGraph compiled onto the simulated stack, every RPC
carrying its parent's trace ID, reconstructed into a cross-service span
forest; `--deterministic` emits one canonical JSON document the CI
determinism job byte-diffs (also across shard counts).

`bench` regenerates every `benchmarks/bench_*.py` scenario and reports
its simulation-deterministic outputs as one canonical JSON document;
`benchmarks/baseline.json` is that document, committed, and CI diffs a
fresh run against it (docs/BENCHMARKS.md).  Host speed is
`pipeline_bench`'s job, not this verb's.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
import time


# Virtual measurement window for the figures whose runner takes one,
# unless --duration-ms says otherwise.
_RUN_DURATION_MS = 400


def _list(args) -> None:
    """Print the ScenarioSpec registry (repro.experiments)."""
    from repro.experiments import SCENARIOS, scenario_names

    width = max(len(name) for name in scenario_names())
    for name in scenario_names():
        spec = SCENARIOS[name]
        print(f"{name:<{width}}  {spec.title}")
        if args.verbose:
            for role in ("run", "present", "build", "digest"):
                if getattr(spec, role):
                    print(f"{'':<{width}}    {role + ':':8s} {getattr(spec, role)}")


def _run(args, parser) -> None:
    """Regenerate one registered figure, or all of them."""
    from repro.experiments import SCENARIOS, figure_names

    for name in figure_names() if args.figure == "all" else [args.figure]:
        spec = SCENARIOS[name]
        run = spec.run_fn()
        # Omitting seed= leaves each runner on its own default.
        kwargs = {} if args.seed is None else {"seed": args.seed}
        if "duration_ns" in inspect.signature(run).parameters:
            kwargs["duration_ns"] = (args.duration_ms or _RUN_DURATION_MS) * 1_000_000
        elif args.duration_ms is not None and args.figure != "all":
            parser.error(f"run {name}: its runner has a fixed workload, no --duration-ms")
        print(f"== {name} ==")
        started = time.time()
        for line in spec.present_fn()(run(**kwargs)):
            print(line)
        print(f"  ({time.time() - started:.1f} s wall)")


def _stats(args) -> None:
    from repro.analysis.reports import pipeline_health_report
    from repro.obs.export import prometheus_text, series_json, snapshot_json
    from repro.obs.scenario import run_quickstart_scenario

    result = run_quickstart_scenario(
        seed=args.seed if args.seed is not None else 42,
        duration_ns=args.duration_ns,
        sample_interval_ns=args.sample_interval_ms * 1_000_000,
    )
    if args.format == "json":
        print(snapshot_json(result.registry, t_ns=result.engine.now))
    elif args.format == "prom":
        print(prometheus_text(result.registry), end="")
    elif args.format == "series":
        print(series_json(result.sampler))
    else:
        print(pipeline_health_report(result.registry, sampler=result.sampler))


def _write_export(path, output, forest) -> None:
    """``output`` to ``path`` (or stdout); ``None`` stands for the
    forest's Chrome trace, written chunk by chunk so the document is
    never held whole."""
    from repro.tracing import write_chrome_trace

    handle = open(path, "w") if path else sys.stdout
    try:
        if output is None:
            write_chrome_trace(forest, handle)
        else:
            handle.write(output)
    finally:
        if path:
            handle.close()


def _timeline(args) -> int:
    from repro.obs.scenario import QUICKSTART_CHAIN, run_quickstart_scenario
    from repro.tracing import (
        aggregate_hops,
        critical_path,
        flag_anomalies,
        otlp_json,
        timeline_text,
    )
    from repro.tracing.spans import SpanForest

    result = run_quickstart_scenario(
        seed=args.seed, duration_ns=args.duration_ns, shards=args.shards
    )
    tracer = result.tracer
    complete_only = args.flow == "complete"
    forest = tracer.span_forest(QUICKSTART_CHAIN, complete_only=complete_only)
    if args.warm_cache:
        # Assemble again and export the cache-served forest: the
        # determinism CI job byte-diffs this against a cold-cache run.
        forest = tracer.span_forest(QUICKSTART_CHAIN, complete_only=complete_only)

    if args.trace_id is not None:
        tree = forest.tree_for(args.trace_id)
        if tree is None:
            known = tracer.db.trace_ids()
            print(
                f"timeline: trace 0x{args.trace_id:08x} not found "
                f"({len(known)} traces collected)",
                file=sys.stderr,
            )
            return 1
        forest = SpanForest(
            trees=[tree],
            orphan_records=forest.orphan_records,
            control_root=forest.control_root,
        )

    if args.format == "chrome":
        output = None  # streamed by _write_export
    elif args.format == "otlp":
        output = otlp_json(forest)
    else:
        from repro.analysis.reports import format_ns

        lines = [timeline_text(forest)]
        if forest.trees:
            path = critical_path(forest.trees[0])
            lines.append("critical path (first tree):")
            lines.extend(
                f"  {span.name}: {format_ns(span.duration_ns)}" for span in path
            )
            lines.append("per-hop percentiles:")
            for stats in aggregate_hops(forest):
                lines.append(
                    f"  {stats.name}: p50 {format_ns(stats.p50_ns)} "
                    f"p95 {format_ns(stats.p95_ns)} p99 {format_ns(stats.p99_ns)}"
                )
            anomalies = flag_anomalies(forest, factor=args.anomaly_factor)
            lines.append(
                f"anomalies (> {args.anomaly_factor:g}x hop median): "
                f"{len(anomalies)}"
            )
            lines.extend(
                f"  0x{a.trace_id:08x} {a.name}: {format_ns(a.duration_ns)} "
                f"({a.ratio:.1f}x median {format_ns(a.median_ns)})"
                for a in anomalies[:10]
            )
        output = "\n".join(lines) + "\n"

    _write_export(args.out, output, forest)
    if args.out:
        print(f"wrote {args.out} ({len(forest)} trees, "
              f"{forest.span_count()} spans)")
    return 0


def _faults(args) -> int:
    """Run the three-leg fault-equivalence experiment (docs/FAULTS.md)."""
    import json

    from repro.experiments.fault_case import run_fault_equivalence

    r = run_fault_equivalence(seed=args.seed, packets=args.packets)

    def leg(result):
        return {
            "rows": result.rows,
            "rows_by_label": result.rows_by_label,
            "deploy_retries": result.deploy_retries,
            "ship_retries": result.ship_retries,
            "deduped_batches": result.deduped_batches,
            "records_lost": result.records_lost,
            "records_lost_by_reason": result.records_lost_by_reason,
            "control_injected": int(result.metrics.get("control_injected", 0)),
            "shipment_injected": int(result.metrics.get("shipment_injected", 0)),
        }

    doc = {
        "seed": args.seed,
        "packets": args.packets,
        "legs": {
            "baseline": leg(r.baseline),
            "faulty_with_retries": leg(r.faulty),
            "lossy_no_retries": leg(r.lossy_no_retries),
        },
        "invariants": {
            "rows_match": r.rows_match,
            "decomposition_match": r.decomposition_match,
            "timeline_match": r.timeline_match,
            "streaming_match": r.streaming_match,
            "loss_accounted": r.loss_accounted,
        },
    }
    if args.format == "json":
        # Canonical form: the CI determinism job byte-diffs two runs.
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        b, f, lossy = r.baseline, r.faulty, r.lossy_no_retries
        print(f"fault equivalence (seed {args.seed}, {args.packets} packets/leg)")
        print(f"  fault-free        rows {b.rows}  {b.rows_by_label}")
        print(f"  faulty + retries  rows {f.rows}  "
              f"deploy retries {f.deploy_retries}, ship retries {f.ship_retries}, "
              f"deduped batches {f.deduped_batches}")
        print(f"  lossy, no retries rows {lossy.rows}  "
              f"lost {lossy.records_lost} {lossy.records_lost_by_reason}")
        print(f"  rows match            {r.rows_match}")
        print(f"  decomposition match   {r.decomposition_match}")
        print(f"  timeline match        {r.timeline_match}")
        print(f"  streaming match       {r.streaming_match}")
        print(f"  loss accounted        {r.loss_accounted}")
    ok = r.equivalent and r.loss_accounted
    if not ok:
        print("faults: equivalence invariant violated", file=sys.stderr)
    return 0 if ok else 1


def _watch(args) -> None:
    """Stream the quickstart scenario's closed window frames
    (docs/STREAMING.md)."""
    import json

    from repro.obs.registry import estimate_quantile
    from repro.obs.scenario import run_quickstart_scenario
    from repro.streaming import LATENCY_SKETCH_BUCKETS_NS, canonical_json

    result = run_quickstart_scenario(
        seed=args.seed,
        duration_ns=args.duration_ns,
        window_ns=args.window_ms * 1_000_000,
    )
    agg = result.streaming

    if args.deterministic or args.format == "json":
        doc = {
            "chain": list(agg.config.chain),
            "window_ns": agg.config.window_ns,
            "frames": agg.frames_as_dicts(),
            "snapshots": agg.snapshots,
            "summary": agg.summary(),
        }
        if args.deterministic:
            print(canonical_json(doc))
        else:
            print(json.dumps(doc, sort_keys=True, indent=2))
        return

    chain = agg.config.chain
    e2e = f"{chain[0]}->{chain[-1]}"
    print(
        f"watch: {agg.windows_closed} windows x "
        f"{agg.config.window_ns / 1e6:g} ms over {' -> '.join(chain)}"
    )
    print(
        f"  {agg.records} records, {agg.late_records} late, "
        f"{agg.gap_notices} gap notices"
    )
    print(f"{'window':>8} {'start ms':>10} {'records':>8} "
          f"{'e2e n':>6} {'avg us':>9} {'p99 us':>9}")
    for frame in agg.frames:
        hop = frame.hops.get(e2e)
        if hop:
            n = hop["count"]
            avg = f"{hop['sum_ns'] / n / 1e3:9.1f}"
            p99 = estimate_quantile(LATENCY_SKETCH_BUCKETS_NS, hop["sketch"], 0.99)
            p99 = f"{p99 / 1e3:9.1f}" if p99 is not None else f"{'-':>9}"
            n = f"{n:6d}"
        else:
            n, avg, p99 = f"{'-':>6}", f"{'-':>9}", f"{'-':>9}"
        print(f"{frame.index:>8} {frame.start_ns / 1e6:>10.1f} "
              f"{frame.records:>8} {n} {avg} {p99}")
    summary = agg.summary()
    print("run totals:")
    for key, hop in summary["hops"].items():
        if not hop["count"]:
            continue
        p50 = hop["p50_ns"] / 1e3 if hop["p50_ns"] is not None else 0.0
        p99 = hop["p99_ns"] / 1e3 if hop["p99_ns"] is not None else 0.0
        print(f"  {key:45s} n={hop['count']:<6d} "
              f"p50 {p50:8.1f} us  p99 {p99:8.1f} us")
    slowest = ", ".join(
        f"0x{entry['trace_id']:08x}={entry['latency_ns'] / 1e3:.1f}us"
        for entry in summary["top_k_slowest"][:5]
    )
    print(f"  top slowest: {slowest}")


def _rpc(args) -> int:
    """Run the multi-tier RPC scenario (docs/SERVICES.md)."""
    import json

    from repro.experiments import get_scenario
    from repro.experiments.rpc_case import deterministic_doc
    from repro.streaming import canonical_json

    run = get_scenario("rpc_case").run_fn()
    result = run(seed=args.seed, requests=args.requests, shards=args.shards)

    if args.format == "chrome":
        output = None  # streamed by _write_export
    elif args.deterministic or args.format == "json":
        doc = deterministic_doc(result)
        if args.deterministic:
            output = canonical_json(doc) + "\n"
        else:
            output = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        deployment = result.deployment
        latencies = deployment.client_latencies
        lines = [
            f"rpc: {deployment.completed_requests}/{args.requests} requests "
            f"completed over {len(deployment.nodes)} nodes "
            f"({len(result.forest.trees)} trees, "
            f"{result.forest.span_count()} spans, "
            f"{len(deployment.links)} parent links)"
        ]
        if latencies:
            lines.append(
                f"  latency: min {min(latencies) / 1e3:.1f} us  "
                f"avg {sum(latencies) / len(latencies) / 1e3:.1f} us  "
                f"max {max(latencies) / 1e3:.1f} us"
            )
        for tier in deployment.graph.tiers:
            replicas = deployment.services[tier.name]
            lines.append(
                f"  {tier.name:10s} x{len(replicas)}  "
                f"requests {sum(s.requests_handled for s in replicas):4d}  "
                f"responses {sum(s.responses_sent for s in replicas):4d}  "
                f"calls issued {sum(s.calls_issued for s in replicas):4d}"
            )
        output = "\n".join(lines) + "\n"

    _write_export(args.out, output, result.forest)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _bench(args) -> int:
    from repro.bench import (
        build_report,
        discover_scenarios,
        dumps_report,
        find_bench_dir,
        run_suite,
        write_report,
    )
    from repro.bench.discovery import DiscoveryError

    try:
        bench_dir = find_bench_dir(args.bench_dir)
        if args.list:
            for scenario in discover_scenarios(bench_dir):
                print(scenario.name)
            return 0
        progress = None if args.json else print
        profile = None
        if args.profile is not None:
            import cProfile

            profile = cProfile.Profile()
            profile.enable()
        try:
            results = run_suite(
                preset=args.preset, only=args.only or None, bench_dir=bench_dir,
                progress=progress,
            )
        finally:
            if profile is not None:
                profile.disable()
    except DiscoveryError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report = build_report(results, args.preset)
    if args.json:
        print(dumps_report(report), end="")
    if args.out:
        path = write_report(report, args.out)
        if not args.json:
            print(f"wrote {path}")
    if profile is not None:
        # Strictly after every line of report output, and only once
        # stdout is flushed: with ``--json`` the report must stay one
        # contiguous parseable document even when stdout and stderr
        # share a pipe.
        sys.stdout.flush()
        _print_profile(profile, args.profile)
    return 0


def _print_profile(profile, top_n: int, stream=None) -> None:
    """Top-N cumulative-time functions of a finished cProfile run, so
    perf PRs can cite a profile instead of guessing (stderr: keeps
    ``--json`` stdout parseable)."""
    import pstats

    stream = stream if stream is not None else sys.stderr
    print(f"\n-- profile: top {top_n} functions by cumulative time --",
          file=stream)
    stats = pstats.Stats(profile, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top_n)


def _trace_id(text: str) -> int:
    """Trace IDs as the tools print them: 0x-prefixed hex or decimal."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a trace ID like 0xc2a5e8a3 or 1234, got {text!r}"
        )


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _output_path(text: str) -> str:
    """A file to write: its directory must exist, checked before the
    scenario runs rather than after."""
    directory = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import figure_names

    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate vNetTracer paper figures."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    listing = sub.add_parser(
        "list",
        help="list the ScenarioSpec registry: the figures `run` accepts and "
             "the scenarios behind stats / timeline / watch / faults / rpc",
    )
    listing.add_argument("--verbose", action="store_true",
                         help="also print each spec's run / present / build / "
                              "digest references")
    run = sub.add_parser("run", help="run one figure (or 'all')")
    run.add_argument("figure", choices=[*figure_names(), "all"])
    run.add_argument("--seed", type=int, default=None,
                     help="experiment seed (default: each runner's own)")
    run.add_argument("--duration-ms", type=_positive_int, default=None,
                     help=f"virtual measurement window (default "
                          f"{_RUN_DURATION_MS}); an error on a single figure "
                          f"whose runner has a fixed workload, and under "
                          f"'all' applied to the figures that take one")
    stats = sub.add_parser(
        "stats", help="run the quickstart scenario and emit pipeline-health metrics"
    )
    stats.add_argument("--seed", type=int, default=42)
    stats.add_argument("--duration-ms", type=_positive_int, default=1000,
                       help="virtual duration of the scenario")
    stats.add_argument("--sample-interval-ms", type=_positive_int, default=50,
                       help="stats sampler period (virtual ms)")
    stats.add_argument("--format", choices=("table", "json", "prom", "series"),
                       default="table", help="output format")
    timeline = sub.add_parser(
        "timeline",
        help="reconstruct per-packet span trees and export a timeline "
             "(docs/TIMELINES.md)",
    )
    timeline.add_argument("--seed", type=int, default=42)
    timeline.add_argument("--duration-ms", type=_positive_int, default=1000,
                          help="virtual duration of the scenario")
    timeline.add_argument("--trace-id", type=_trace_id, default=None,
                          help="export a single trace (hex like 0xc2a5e8a3 "
                               "or decimal)")
    timeline.add_argument("--flow", choices=("complete", "all"),
                          default="complete",
                          help="'complete' keeps only traces observed at "
                               "every tracepoint; 'all' keeps partial ones")
    timeline.add_argument("--format", choices=("chrome", "otlp", "text"),
                          default="chrome",
                          help="chrome = Perfetto-loadable trace-event JSON; "
                               "otlp = OTLP-style JSON; text = indented trees")
    timeline.add_argument("--out", metavar="PATH", type=_output_path, default=None,
                          help="write to a file instead of stdout")
    timeline.add_argument("--anomaly-factor", type=_positive_float, default=3.0,
                          help="text format: flag spans above this multiple "
                               "of their hop's flow median")
    timeline.add_argument("--shards", type=_nonnegative_int, default=2,
                          metavar="N",
                          help="engine shard count for the scenario run; 0 = "
                               "plain single-heap engine (output is "
                               "byte-identical at any count; the CI "
                               "determinism job diffs 1 vs 4)")
    timeline.add_argument("--warm-cache", action="store_true",
                          help="assemble the forest twice and export the "
                               "second, cache-served copy (byte-identical "
                               "to the cold one; the CI determinism job "
                               "diffs the two)")
    faults = sub.add_parser(
        "faults",
        help="run the fault-equivalence experiment: resilient delivery "
             "under injected faults (docs/FAULTS.md)",
    )
    faults.add_argument("--seed", type=int, default=7,
                        help="fault-plan and scenario seed")
    faults.add_argument("--packets", type=_positive_int, default=200,
                        help="traced packets per leg")
    faults.add_argument("--format", choices=("summary", "json"),
                        default="summary",
                        help="json = canonical byte-diffable report")
    watch = sub.add_parser(
        "watch",
        help="run the quickstart scenario with the streaming query layer "
             "and print live window frames (docs/STREAMING.md)",
    )
    watch.add_argument("--seed", type=int, default=42)
    watch.add_argument("--duration-ms", type=_positive_int, default=1000,
                       help="virtual duration of the scenario")
    watch.add_argument("--window-ms", type=_positive_int, default=100,
                       help="tumbling window width (virtual ms)")
    watch.add_argument("--format", choices=("table", "json"), default="table",
                       help="output format")
    watch.add_argument("--deterministic", action="store_true",
                       help="emit one canonical JSON document (byte-diffable; "
                            "the CI determinism job diffs two runs)")
    rpc = sub.add_parser(
        "rpc",
        help="run the multi-tier RPC service scenario and export the "
             "cross-service span forest (docs/SERVICES.md)",
    )
    rpc.add_argument("--seed", type=int, default=21)
    rpc.add_argument("--requests", type=_positive_int, default=40,
                     help="root requests issued by the client tier")
    rpc.add_argument("--shards", type=_nonnegative_int, default=1,
                     help="ShardedEngine shard count (0 = plain engine); "
                          "output is byte-identical at any count")
    rpc.add_argument("--format", choices=("summary", "json", "chrome"),
                     default="summary",
                     help="chrome = Perfetto-loadable trace-event JSON of "
                          "the RPC span forest")
    rpc.add_argument("--deterministic", action="store_true",
                     help="emit one canonical JSON document (byte-diffable; "
                          "the CI determinism job diffs runs and shard "
                          "counts)")
    rpc.add_argument("--out", metavar="PATH", type=_output_path, default=None,
                     help="write to a file instead of stdout")
    bench = sub.add_parser(
        "bench",
        help="regenerate every benchmarks/bench_*.py scenario and report its "
             "deterministic outputs (docs/BENCHMARKS.md)",
    )
    bench.add_argument("--preset", choices=("smoke", "full"), default="smoke",
                       help="workload scale (smoke ~= 10%% of full durations)")
    bench.add_argument("--only", action="append", metavar="NAME",
                       help="run only the named scenario(s); repeatable")
    bench.add_argument("--json", action="store_true",
                       help="print the report JSON to stdout instead of the "
                            "progress table")
    bench.add_argument("--out", metavar="PATH", type=_output_path, default=None,
                       help="also write the report JSON to PATH "
                            "(benchmarks/baseline.json to refresh the gate)")
    bench.add_argument("--profile", type=_positive_int, nargs="?", const=25, default=None,
                       metavar="N",
                       help="wrap the run in cProfile and print the top N "
                            "functions by cumulative time (default 25) to "
                            "stderr")
    bench.add_argument("--list", action="store_true",
                       help="list discovered scenarios and exit")
    bench.add_argument("--bench-dir", metavar="DIR", default=None,
                       help="benchmarks directory (default: auto-detect)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _list(args)
        return 0
    if args.command == "run":
        _run(args, parser)
        return 0
    if args.command == "bench":
        return _bench(args)
    if args.command == "faults":
        return _faults(args)
    if args.command == "rpc":
        return _rpc(args)

    args.duration_ns = args.duration_ms * 1_000_000
    if args.command == "stats":
        _stats(args)
        return 0
    if args.command == "watch":
        _watch(args)
        return 0
    return _timeline(args)


if __name__ == "__main__":
    sys.exit(main())
