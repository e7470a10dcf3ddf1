"""Command-line interface for running Drum experiments.

Installed as ``python -m repro`` (see :mod:`repro.__main__`).  Three
subcommands mirror the library's three evaluation stacks::

    # Round-based Monte-Carlo simulation (the paper's Section 7 setup)
    python -m repro simulate --protocol drum --n 120 --alpha 0.1 -x 128

    # Closed-form / numerical analysis (Appendices A-C)
    python -m repro analyze --protocol push --n 120 --alpha 0.1 -x 128

    # Full-protocol measurement (Section 8): stream throughput/latency
    python -m repro measure --protocol pull --n 50 --alpha 0.1 -x 128

    # Figure sweep through the content-addressed store (a rerun
    # recomputes only the cells the store lacks)
    python -m repro sweep --kind rate --protocols drum,push,pull \\
        --values 0,32,64,128 --seed 1 --store results/.cache

    # Replay a JSONL event trace recorded with --trace
    python -m repro trace run.jsonl

    # Live asyncio gossip service with a JSONL-over-TCP control plane
    python -m repro serve --port 7000 --start --protocol drum --n 2000

``--faults`` and ``--trace`` are uniform across the
execution subcommands (where the stack supports them).  Each subcommand
prints a compact table; ``--json`` emits machine-readable results
instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.adversary import AttackSpec
from repro.analysis import (
    accept_probability_attacked,
    accept_probability_unattacked,
    coverage_curve_attack,
    coverage_curve_no_attack,
    escape_time_std,
    expected_escape_rounds,
)
from repro.api import Experiment
from repro.core.config import ProtocolKind
from repro.metrics.stats import summarize_runs
from repro.sweep.grid import (
    MONTE_CARLO_METRICS,
    budget_grid,
    churn_grid,
    extent_grid,
    rate_grid,
)
from repro.util import Table

PROTOCOL_CHOICES = [kind.value for kind in ProtocolKind]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocol", default="drum", choices=PROTOCOL_CHOICES,
        help="protocol to evaluate (default: drum)",
    )
    parser.add_argument("--n", type=int, default=120, help="group size")
    parser.add_argument(
        "--malicious", type=float, default=0.1,
        help="fraction of group members controlled by the adversary",
    )
    parser.add_argument(
        "--alpha", type=float, default=0.0,
        help="fraction of processes under attack (0 = no attack)",
    )
    parser.add_argument(
        "-x", "--rate", type=float, default=0.0,
        help="fabricated messages per victim per round",
    )
    parser.add_argument("--fan-out", type=int, default=4)
    parser.add_argument("--loss", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults, e.g. "
             "'crash@5:0.1;partition@8-15:0.4;gilbert:0.01,0.3,0.05,0.25' "
             "(clauses: crash@R[-R]:F, partition@R-R:F, stall@R-R:F, "
             "join@R[-R]:F, leave@R[-R]:F, expel@R:F, "
             "loss:P, gilbert:LG,LB,PGB,PBG, delay:MS[~JIT], reorder:P, "
             "dup:P)",
    )
    parser.add_argument(
        "--churn", type=float, default=None, metavar="F",
        help="churn-storm shorthand: a fraction F of the group joins at "
             "round 5 and a fraction F of the correct members logs out "
             "at round 12 (appended to --faults as 'join@5:F; "
             "leave@12:F'; the same plan resolves identically on every "
             "engine)",
    )


def _faults_spec(args) -> Optional[str]:
    """Merge ``--faults`` and the ``--churn`` shorthand into one spec."""
    spec = getattr(args, "faults", None)
    churn = getattr(args, "churn", None)
    if churn is not None:
        if not 0 < churn < 1:
            raise SystemExit(f"--churn must be in (0, 1), got {churn}")
        tokens = f"join@5:{churn:g}; leave@12:{churn:g}"
        spec = f"{spec}; {tokens}" if spec else tokens
    return spec


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSONL event trace of the run to FILE "
             "(replay it with 'repro trace FILE')",
    )


def _open_tracer(args):
    """(tracer, sink) for ``--trace FILE``, else (None, None).

    The caller must close the sink after the run; the lazy import keeps
    untraced invocations from paying for :mod:`repro.obs`.
    """
    if getattr(args, "trace", None) is None:
        return None, None
    from repro.obs import JsonlSink, Tracer

    sink = JsonlSink(args.trace)
    return Tracer(sink), sink


def _traced_run(args, run):
    """``run(tracer)`` with ``--trace FILE`` recording (tracer None
    without it); returns the result and the closed sink, if any."""
    tracer, sink = _open_tracer(args)
    try:
        return run(tracer), sink
    finally:
        if sink is not None:
            sink.close()


def _attack(args) -> Optional[AttackSpec]:
    if args.alpha > 0 and args.rate > 0:
        return AttackSpec(alpha=args.alpha, x=args.rate)
    if args.alpha > 0 or args.rate > 0:
        raise SystemExit("an attack needs both --alpha and -x/--rate")
    return None


def _emit(args, title: str, payload: dict, sink=None) -> None:
    """Print ``payload`` as JSON or a one-row table, naming the trace
    file ``sink`` wrote, if any."""
    if args.json:
        if sink is not None:
            payload["trace"] = {"path": args.trace, "events": sink.written}
        print(json.dumps(payload, indent=2, default=float))
        return
    table = Table(title, list(payload.keys()))
    table.add_row(*payload.values())
    print(table)
    if sink is not None:
        print(f"trace: {args.trace} ({sink.written} events)")


def _experiment(args, **knobs) -> Experiment:
    """The experiment ``simulate`` / ``measure`` describe on the command
    line, plus the per-stack ``knobs`` each one sets."""
    attack = _attack(args)
    return Experiment(
        protocol=args.protocol,
        n=args.n,
        fan_out=args.fan_out,
        loss=args.loss,
        malicious_fraction=args.malicious if attack else 0.0,
        attack=attack,
        faults=_faults_spec(args),
        **knobs,
    )


def cmd_simulate(args) -> int:
    exp = _experiment(args, max_rounds=args.max_rounds, runs=args.runs)
    result, sink = _traced_run(
        args,
        lambda tracer: exp.run(
            "fast", seed=args.seed, workers=args.workers, tracer=tracer
        ),
    )
    scenario = result.scenario
    payload = {
        "mean rounds to 99%": result.mean_rounds(),
        "std": result.std_rounds(),
        "censored runs": result.censored_runs(),
    }
    if scenario.faults is not None:
        payload["mean residual reliability"] = float(
            np.mean(result.residual_reliability())
        )
        heal = result.rounds_to_heal()
        if heal is not None:
            payload["mean rounds to heal"] = summarize_runs(heal).mean
        latency = result.join_latency()
        if latency is not None:
            payload["mean join latency [rounds]"] = (
                summarize_runs(latency).mean
            )
            payload["mean view convergence [rounds]"] = float(
                np.mean(result.view_convergence())
            )
    _emit(
        args,
        f"Simulation: {scenario.describe()} ({args.runs} runs)",
        payload,
        sink,
    )
    return 0


def cmd_analyze(args) -> int:
    attack = _attack(args)
    b = int(round(args.malicious * args.n)) if attack else 0
    if attack is None:
        curves = coverage_curve_no_attack(
            args.protocol, args.n, b, fan_out=args.fan_out,
            loss=args.loss, rounds=args.rounds, refined=args.refined,
        )
    else:
        curves = coverage_curve_attack(
            args.protocol, args.n, b, attack, fan_out=args.fan_out,
            loss=args.loss, rounds=args.rounds, refined=args.refined,
        )
    payload = {
        "rounds to 99% (expected coverage)": curves.rounds_to_fraction(0.99),
        "p_u": accept_probability_unattacked(args.n, args.fan_out),
    }
    if attack is not None:
        payload["p_a"] = accept_probability_attacked(
            args.n, args.fan_out, attack.x
        )
        if ProtocolKind(args.protocol) is ProtocolKind.PULL:
            payload["expected source escape rounds"] = expected_escape_rounds(
                args.n, args.fan_out, attack.x
            )
            payload["escape std"] = escape_time_std(
                args.n, args.fan_out, attack.x
            )
    _emit(args, f"Analysis: {args.protocol}, n={args.n}", payload)
    return 0


def cmd_measure(args) -> int:
    exp = _experiment(
        args,
        messages=args.messages,
        send_rate=args.send_rate,
        round_duration_ms=args.round_ms,
    )
    result, sink = _traced_run(
        args, lambda tracer: exp.run("des", seed=args.seed, tracer=tracer)
    )
    throughput = result.throughput()
    latencies = [
        latency
        for samples in result.latencies_by_process().values()
        for latency in samples
    ]
    payload = {
        "received throughput [msg/s]": throughput.mean_msgs_per_sec,
        "delivery ratio": result.delivery_ratio(),
        "mean latency [ms]": float(np.mean(latencies)) if latencies else float("nan"),
        "p99 latency [ms]": float(np.percentile(latencies, 99)) if latencies else float("nan"),
    }
    if result.faults is not None:
        payload["residual reliability"] = result.residual_reliability()
    if result.churn is not None:
        payload["joined/left/expelled"] = (
            f"{result.churn['joined']}/{result.churn['left']}/"
            f"{result.churn['expelled']}"
        )
        if result.churn["join_latency"] is not None:
            payload["mean join latency [rounds]"] = result.churn["join_latency"]
        if result.churn["view_convergence"] is not None:
            payload["mean view convergence [rounds]"] = result.churn[
                "view_convergence"
            ]
    _emit(
        args,
        f"Measurement: {args.protocol}, n={args.n}, "
        f"{args.messages} msgs @ {args.send_rate:g}/s",
        payload,
        sink,
    )
    return 0


#: ``repro sweep --kind`` -> (grid builder, its kind-specific options).
SWEEP_KINDS = {
    "rate": (rate_grid, lambda a: dict(alpha=a.alpha or 0.1)),
    "extent": (extent_grid, lambda a: dict(x=a.rate or 128.0)),
    "budget": (
        budget_grid, lambda a: dict(budget_per_process=a.budget_per_process)
    ),
    "churn": (
        churn_grid,
        lambda a: dict(alpha=a.alpha or 0.1, x=a.rate or 0.0, metric=a.metric),
    ),
}


def cmd_sweep(args) -> int:
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if not protocols:
        raise SystemExit("--protocols needs at least one protocol name")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise SystemExit(f"bad --values entry: {exc}")
    if not values:
        raise SystemExit("--values needs at least one grid point")

    tracer, sink = _open_tracer(args)
    if tracer is None:
        # Always trace into counters: the sweep lifecycle events are
        # where the computed / cache-hit accounting comes from.
        from repro.obs import Tracer

        tracer = Tracer()
    builder, options = SWEEP_KINDS[args.kind]
    try:
        report = builder(
            protocols,
            values,
            n=args.n,
            malicious_fraction=args.malicious,
            runs=args.runs,
            seed=args.seed,
            max_rounds=args.max_rounds,
            **options(args),
        ).run(
            workers=args.workers,
            store=args.store,
            tracer=tracer,
        )
    finally:
        if sink is not None:
            sink.close()

    counters = tracer.counters
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    if args.json:
        payload = json.loads(report.to_json())
        payload["sweep"] = {
            "computed": counters.sweep_cells_computed,
            "cache_hits": counters.sweep_cache_hits,
            "store": args.store,
        }
        print(json.dumps(payload, indent=2, default=float))
        return 0
    labels = list(report.series)
    table = Table(
        f"Sweep: {report.name} ({report.x_label})",
        [report.x_label] + labels,
    )
    for i, x in enumerate(report.x_values):
        table.add_row(
            x, *[f"{report.series[label][i]:.2f}" for label in labels]
        )
    print(table)
    print(
        f"cells: {counters.sweep_cells_computed} computed, "
        f"{counters.sweep_cache_hits} served from "
        f"{'the store' if args.store else 'memory'}"
    )
    if args.out is not None:
        print(f"report: {args.out}")
    if sink is not None:
        print(f"trace: {args.trace} ({sink.written} events)")
    return 0


def cmd_trace(args) -> int:
    from repro.obs import read_trace, summarize

    summary = summarize(read_trace(args.file))
    if args.json:
        print(json.dumps(summary.to_jsonable(), indent=2, default=float))
        return 0
    engines = ", ".join(summary.engines) if summary.engines else "unknown"
    dropped_total = sum(summary.dropped_by_reason.values())
    overview = Table(
        f"Trace: {args.file} ({summary.events} events, engine: {engines})",
        ["delivered", "run_end delivered", "dropped", "max round"],
    )
    overview.add_row(
        summary.delivered_total,
        summary.final_delivered,
        dropped_total,
        summary.max_round(),
    )
    print(overview)
    if summary.rounds:
        table = Table(
            "Per-round activity",
            ["round", "delivered", "cumulative", "sent", "flooded",
             "accepted", "fabricated", "dropped"],
        )
        for r in summary.rounds:
            table.add_row(
                r.round, r.delivered, r.cumulative, r.sent, r.flooded,
                r.accepted_valid, r.accepted_fabricated, r.dropped_total,
            )
        print(table)
    if summary.dropped_by_reason:
        drops = Table("Drops by reason", ["reason", "count"])
        for reason in sorted(summary.dropped_by_reason):
            drops.add_row(reason, summary.dropped_by_reason[reason])
        print(drops)
    return 0


def cmd_serve(args) -> int:
    import socket

    from repro.aio.service import GossipService

    service = GossipService(host=args.host, port=args.port)
    service.start()
    print(f"gossip service listening on {service.host}:{service.port}")
    if args.start:
        # Boot the cluster through the control socket a client would
        # use, so the flag exercises the public path end to end.
        request = {
            "op": "start",
            "protocol": args.protocol,
            "n": args.n,
            "loss": args.loss,
            "round_duration_ms": args.round_ms,
        }
        if args.seed is not None:
            request["seed"] = args.seed
        with socket.create_connection((service.host, service.port)) as sock:
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reply = json.loads(sock.makefile(encoding="utf-8").readline())
        if not reply.get("ok"):
            print(
                f"cluster start failed: {reply.get('error')}", file=sys.stderr
            )
            service.stop()
            return 1
        print(f"cluster running: protocol={args.protocol} n={args.n}")
    print(
        "control plane: one JSON request per line, e.g.\n"
        f"  echo '{{\"op\": \"status\"}}' | nc {service.host} {service.port}\n"
        "ops: ping start status multicast inject metrics stream stop "
        "shutdown (Ctrl-C also exits)"
    )
    try:
        while not service.wait(timeout_s=0.5):
            pass
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Drum (DSN 2004) reproduction: simulate, analyze, measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="round-based Monte-Carlo simulation")
    _add_common(p_sim)
    _add_faults(p_sim)
    p_sim.add_argument("--runs", type=int, default=100)
    p_sim.add_argument("--max-rounds", type=int, default=400)
    p_sim.add_argument(
        "--workers", type=int, default=None,
        help="workers on the persistent process pool for the run "
             "fan-out (default: REPRO_WORKERS or 1; results are "
             "identical for any count; REPRO_START_METHOD picks "
             "fork/spawn/forkserver)",
    )
    _add_trace(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="closed-form / numerical analysis")
    _add_common(p_ana)
    p_ana.add_argument("--rounds", type=int, default=60)
    p_ana.add_argument(
        "--refined", action="store_true",
        help="use the exact (beyond-paper) acceptance computation",
    )
    p_ana.set_defaults(func=cmd_analyze)

    p_meas = sub.add_parser("measure", help="full-protocol stream measurement")
    _add_common(p_meas)
    _add_faults(p_meas)
    p_meas.add_argument("--messages", type=int, default=400)
    p_meas.add_argument("--send-rate", type=float, default=40.0)
    p_meas.add_argument("--round-ms", type=float, default=1000.0)
    _add_trace(p_meas)
    p_meas.set_defaults(func=cmd_measure)

    p_sweep = sub.add_parser(
        "sweep",
        help="resumable multi-protocol figure sweep through the result store",
    )
    p_sweep.add_argument(
        "--kind", default="rate", choices=list(SWEEP_KINDS),
        help="sweep shape: x-axis is the attack rate x, the extent "
             "alpha, the extent under a fixed total budget, or the "
             "churn-storm fraction (joins+leaves per storm; pair with "
             "--alpha/-x for churn under DoS)",
    )
    p_sweep.add_argument(
        "--protocols", default="drum,push,pull",
        help="comma-separated protocol series (default: drum,push,pull)",
    )
    p_sweep.add_argument(
        "--values", default=None, required=True,
        help="comma-separated x-axis grid points "
             "(rates for --kind rate, alphas otherwise)",
    )
    p_sweep.add_argument("--n", type=int, default=120, help="group size")
    p_sweep.add_argument(
        "--malicious", type=float, default=0.1,
        help="fraction of group members controlled by the adversary",
    )
    p_sweep.add_argument(
        "--alpha", type=float, default=None,
        help="attack extent for --kind rate (default: 0.1)",
    )
    p_sweep.add_argument(
        "-x", "--rate", type=float, default=None,
        help="per-victim attack rate for --kind extent (default: 128)",
    )
    p_sweep.add_argument(
        "--budget-per-process", type=float, default=7.2,
        help="for --kind budget: total budget B = this times n",
    )
    p_sweep.add_argument(
        "--metric", default="reliability", choices=MONTE_CARLO_METRICS,
        help="for --kind churn: the per-cell metric to chart "
             "(default: residual reliability over the "
             "certified-and-alive set)",
    )
    p_sweep.add_argument("--runs", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--max-rounds", type=int, default=400)
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="workers on the persistent process pool draining the "
             "global (cell, shard) work queue (default: REPRO_WORKERS "
             "or 1; results are identical for any count; "
             "REPRO_START_METHOD picks fork/spawn/forkserver)",
    )
    p_sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent result store directory: every computed cell "
             "is kept, so a rerun (or the next run of an interrupted "
             "sweep) recomputes only the cells the store lacks",
    )
    p_sweep.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the figure report JSON to FILE",
    )
    p_sweep.add_argument(
        "--json", action="store_true",
        help="emit the report plus cell accounting as JSON",
    )
    _add_trace(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser(
        "trace", help="summarise a recorded JSONL event trace"
    )
    p_trace.add_argument(
        "file", metavar="FILE",
        help="JSONL trace written by --trace (or a JsonlSink)",
    )
    p_trace.add_argument(
        "--json", action="store_true",
        help="emit the full summary as JSON instead of tables",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve",
        help="run the live asyncio gossip service "
             "(JSONL-over-TCP control plane)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind the control socket on",
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="control-plane TCP port (default: 0 = pick a free port)",
    )
    p_serve.add_argument(
        "--start", action="store_true",
        help="also start a cluster immediately from --protocol/--n/"
             "--loss/--round-ms/--seed (otherwise send a "
             "{\"op\": \"start\"} request later)",
    )
    p_serve.add_argument(
        "--protocol", default="drum", choices=PROTOCOL_CHOICES,
        help="protocol for --start (default: drum)",
    )
    p_serve.add_argument(
        "--n", type=int, default=120, help="group size for --start"
    )
    p_serve.add_argument(
        "--loss", type=float, default=0.01,
        help="packet-loss probability for --start",
    )
    p_serve.add_argument(
        "--round-ms", type=float, default=200.0,
        help="gossip round duration for --start (milliseconds)",
    )
    p_serve.add_argument(
        "--seed", type=int, default=None, help="seed for --start"
    )
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
