"""Command-line interface: reproduce any of the paper's artifacts.

Examples::

    python -m repro list                 # what can be reproduced
    python -m repro figure F1a           # one protocol-flow figure
    python -m repro theorem 1            # a theorem demonstration
    python -m repro costs --participants 4
    python -m repro taxonomy             # Figure 5
    python -m repro all                  # everything, in order
    python -m repro explore --seeds 0:200 --protocol u2pc
    python -m repro explore --replay tests/explore/artifacts/<file>.json
    python -m repro bench --check
    python -m repro bench --suite live --check
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis.taxonomy import classify, render_taxonomy
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS
from repro.experiments.flows import (
    FIGURES,
    matches_figure,
    render_flow,
    reproduce_figure,
)

#: The seed of every command that is not a measured experiment (those
#: run at their own :attr:`~repro.experiments.table.Experiment.seed`
#: unless ``--seed`` overrides it).
DEFAULT_SEED = 7

#: The measured experiments by name; ``theorem<N>`` is ``repro theorem N``.
_ROWS = {row.name: row for row in EXPERIMENTS}


def _taxonomy(args: argparse.Namespace) -> str:
    protocols = ("PrN", "PrA", "PrC", "PrAny", "U2PC(PrC)", "C2PC(PrN)")
    classifications = "\n".join(
        f"  {protocol}: {' > '.join(classify(protocol))}" for protocol in protocols
    )
    return render_taxonomy() + "\n\nClassification of this repo's protocols:\n" + classifications


def _command(name: str) -> str:
    """How ``repro`` spells a row: ``theorem1`` is ``theorem 1``."""
    return name.replace("theorem", "theorem ")


def _seed(args: argparse.Namespace) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _cmd_experiment(args: argparse.Namespace) -> str:
    """Run one row: at its own seed unless ``--seed`` names one; a
    row's own subcommand flags (``costs --participants``) are grid
    parameters by their ``dest``."""
    row = _ROWS[getattr(args, "experiment", None) or f"theorem{args.number}"]
    grid = {
        name: value
        for name, value in vars(args).items()
        if name in inspect.signature(row.grid).parameters
    }
    return row.run(args.seed, **grid).render()


def _cmd_list(args: argparse.Namespace) -> str:
    lines = ["Reproducible artifacts:", ""]
    for figure_id, case in FIGURES.items():
        lines.append(f"  figure {figure_id:<10} {case.description}")
    lines += [
        f"  {_command(row.name):<18} {row.artifact}: {row.title}"
        for row in EXPERIMENTS
    ]
    lines += [
        "  taxonomy           F5: atomic-commitment taxonomy",
        "  all                everything above, in order",
        "  explore            fuzz adversarial schedules (VOPR-style; "
        "--sharded / --replicated N topologies)",
        "  bench              run the seed-pinned count rows (BENCH_sim.json; "
        "--suite live: BENCH_live.json)",
        "  live               run the engines over real TCP sockets (asyncio; "
        "--multiprocess, --sharded, --replicated N, --codec binary)",
        "  loadgen            open-loop traffic generator: latency vs "
        "offered load (seeded Poisson/bursty arrivals, saturation knee)",
    ]
    return "\n".join(lines)


def _cmd_figure(args: argparse.Namespace) -> str:
    result = reproduce_figure(args.id, seed=_seed(args))
    verdict = matches_figure(result)
    return render_flow(result) + f"\nlane match vs paper figure: {verdict}"


def _parse_seed_range(text: str) -> range:
    """``"A:B"`` → ``range(A, B)``; a bare ``"N"`` → ``range(0, N)``."""
    if ":" in text:
        low, high = text.split(":", 1)
        start, stop = int(low), int(high)
    else:
        start, stop = 0, int(text)
    if stop <= start:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(start, stop)


def _cmd_explore(args: argparse.Namespace) -> str:
    # Imported lazily: the explorer pulls in multiprocessing machinery
    # that none of the other (fast, figure-style) commands need.
    from repro.explore import (
        Artifact,
        AdversaryGenerator,
        GeneratorConfig,
        ParallelRunner,
        replay_artifact,
        run_scenario,
        save_artifact,
        shrink,
    )
    from repro.explore.adversary import PROTOCOL_FAMILIES

    if args.replay is not None:
        try:
            result = replay_artifact(args.replay)
        except (ReproError, OSError, ValueError) as exc:
            # Missing file, malformed JSON, or a JSON file that is not
            # an artifact: a message, not a traceback.
            raise SystemExit(f"cannot replay {args.replay}: {exc}")
        if not result.exact:
            args.exit_code = 1
        return result.describe()

    if args.protocol not in PROTOCOL_FAMILIES:
        raise SystemExit(
            f"unknown protocol family {args.protocol!r}; "
            f"expected one of {sorted(PROTOCOL_FAMILIES)}"
        )
    seeds = range(0, 50) if args.smoke and args.seeds is None else (
        args.seeds if args.seeds is not None else range(0, 100)
    )
    budget = 30.0 if args.smoke and args.budget is None else args.budget
    config = GeneratorConfig(
        protocol=args.protocol,
        mix=args.mix,
        salt=args.salt,
        topology=_topology_from_args(args),
    )

    def progress(done: int, violations: int) -> None:
        print(
            f"  ... {done} seeds swept, {violations} violation(s)",
            file=sys.stderr,
            flush=True,
        )

    runner = ParallelRunner(config, jobs=args.jobs, progress=progress)
    sweep = runner.sweep(seeds, time_budget=budget)

    lines = [
        f"explore — {args.protocol} over "
        + (args.mix or "sampled mixes")
        + f", seeds {seeds.start}:{seeds.stop}",
        f"  seeds swept:      {sweep.seeds_scanned}"
        + (" (wall-clock budget exhausted)" if sweep.budget_exhausted else ""),
        f"  elapsed:          {sweep.elapsed_seconds:.1f}s"
        f" ({sweep.seeds_scanned / max(sweep.elapsed_seconds, 1e-9):.0f} seeds/s,"
        f" jobs={runner.jobs})",
        f"  violations:       {len(sweep.violations)}",
    ]
    for category, count in sweep.category_counts().items():
        lines.append(f"    - {category}: {count}")

    if sweep.violations:
        args.exit_code = 1
        generator = AdversaryGenerator(config)
        artifacts_dir = Path(args.artifacts)
        shrunk = 0
        for summary in sweep.violations:
            if shrunk >= args.max_counterexamples:
                lines.append(
                    f"  (stopping after {shrunk} shrunk counterexamples; "
                    f"{len(sweep.violations) - shrunk} more violating seeds)"
                )
                break
            if args.no_shrink:
                lines.append(f"  seed {summary.seed}: {summary.summary}")
                continue
            result = shrink(generator.generate(summary.seed))
            artifact = Artifact.from_outcome(
                result.outcome,
                note=(
                    f"found by `repro explore --protocol {args.protocol}"
                    f"{' --mix ' + args.mix if args.mix else ''}"
                    f"{' --sharded' if args.sharded else ''}"
                    f"{f' --replicated {args.replicated}' if args.replicated else ''}"
                    f" --salt {args.salt}` at seed {summary.seed}; "
                    f"shrunk from {len(result.original.actions)} to "
                    f"{len(result.minimized.actions)} action(s)"
                ),
            )
            name = f"{args.protocol}-seed{summary.seed}.json"
            path = save_artifact(artifact, artifacts_dir / name)
            shrunk += 1
            lines.append(
                f"  seed {summary.seed}: {summary.summary}"
                f" -> shrunk to {len(result.minimized.actions)} action(s) "
                f"in {result.runs} runs, exported {path}"
            )
            lines.extend(
                "      " + line
                for line in result.outcome.verdict.describe().splitlines()
            )
    else:
        lines.append("  no oracle violations — every run atomic, safe and forgetful")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> str:
    """Run ``--scenario``'s rows of ``--suite`` once each; then write
    their counts to ``--output`` or, with ``--check``, compare them
    exactly against the file there."""
    # Imported lazily, like the explorer: the scenario table pulls in
    # the whole workload/explore stack.
    from repro.bench import (
        build_report,
        count_diff,
        get_scenarios,
        load_baseline,
        measure_scenario,
        write_report,
    )

    if args.list:
        lines = [f"Registered bench scenarios ({args.suite} suite):", ""]
        for scenario in get_scenarios("all", args.suite):
            tags = ",".join(scenario.tags)
            lines.append(f"  {scenario.name:<20} [{tags}] {scenario.description}")
        return "\n".join(lines)
    path = Path(args.output or f"BENCH_{args.suite}.json")
    try:
        scenarios = get_scenarios(args.scenario, args.suite)
        baseline = load_baseline(path, args.smoke) if args.check else None
    except ReproError as exc:
        raise SystemExit(str(exc))
    if args.scenario != "all" and baseline is None and args.output is None:
        # A partial report would replace the whole committed golden file.
        raise SystemExit(
            f"--scenario {args.scenario} selects part of the suite; pass "
            f"--check, or --output for somewhere other than {path}"
        )
    profile_dir = Path(args.profile) if args.profile is not None else None
    lines = [
        f"bench — {args.suite} suite, {len(scenarios)} scenario(s)"
        + (", smoke" if args.smoke else ""),
    ]
    results = []
    for scenario in scenarios:
        print(f"  ... running {scenario.name}", file=sys.stderr, flush=True)
        result, wall = measure_scenario(scenario, args.smoke, profile_dir)
        results.append((scenario, result))
        lines.append(
            f"  {scenario.name:<30} {result.events:>9,} events in {wall:.3f}s"
            f"  checks={'ok' if result.checks_passed else 'FAILED'}"
        )
        # What the run timed: for the terminal only, never written.
        if result.timed:
            lines.append(
                "    timed: "
                + ", ".join(f"{key} {value}" for key, value in result.timed.items())
            )
    report = build_report(results, args.smoke)
    gates_hold = all(result.checks_passed for _, result in results)
    if not gates_hold:
        args.exit_code = 1

    if baseline is not None:
        diff = count_diff(report, baseline, whole_suite=args.scenario == "all")
        if diff:
            args.exit_code = 1
            lines.append(f"  COUNT DIFF vs {path}:")
            lines.extend(f"    {line}" for line in diff)
        else:
            lines.append(f"  counts equal {path}")
    elif not gates_hold:
        lines.append(f"  not writing {path}: a correctness gate failed")
    else:
        lines.append(f"  wrote {write_report(report, path)}")
    if profile_dir is not None:
        lines.append(f"  profiles under {profile_dir}/")
    return "\n".join(lines)


def _topology_from_args(args: argparse.Namespace):
    """The topology ``--sharded`` / ``--replicated N`` name (argparse
    already refused the pair)."""
    from repro.mdbs.topology import Topology

    try:
        return Topology.from_flags(args.sharded, args.replicated)
    except ReproError as exc:
        raise SystemExit(f"--replicated {args.replicated}: {exc}")


def _cluster_from_args(args: argparse.Namespace, command: str):
    """What ``live`` and ``loadgen`` share: protocol → mix + coordinator
    policy, topology, runtime class and constructor options.

    Returns ``(mix, topology, pool, make_cluster, mode)``: ``pool`` is
    how many sites one transaction may touch, ``make_cluster(data_dir,
    **options)`` builds the (unstarted) cluster and ``mode`` describes
    it.
    """
    from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
    from repro.workloads.mixes import homogeneous, three_way

    canonical = {"prn": "PrN", "pra": "PrA", "prc": "PrC"}
    protocol = args.protocol.lower()
    if protocol == "prany":
        mix, coordinator = three_way(args.participants), "dynamic"
    elif protocol in canonical:
        fixed = canonical[protocol]
        mix, coordinator = homogeneous(fixed, args.participants), fixed
    else:
        raise SystemExit(
            f"unknown {command} protocol {args.protocol!r}; "
            f"expected prany, prn, pra or prc"
        )
    topology = _topology_from_args(args)
    try:
        topology.validate(mix)
    except ReproError as exc:
        raise SystemExit(str(exc))
    if args.multiprocess:
        from repro.rt.proc import ProcessCluster as cluster_cls
    else:
        cluster_cls = LiveCluster

    def make_cluster(data_dir, **options):
        return cluster_cls(
            mix,
            data_dir,
            coordinator=coordinator,
            seed=_seed(args),
            timeouts=LIVE_TIMEOUTS,
            time_scale=args.time_scale,
            fsync=not args.no_fsync,
            topology=topology,
            codec=args.codec,
            **options,
        )

    mode = "one OS process per site" if args.multiprocess else "in-process"
    if topology.label:
        mode += f", {topology.label}"
    return mix, topology, topology.participant_pool(len(mix)), make_cluster, mode


def _run_in_data_dir(args: argparse.Namespace, go):
    """``asyncio.run(go(dir))`` over ``--data-dir``, or over a temporary
    directory removed afterwards."""
    import asyncio
    import tempfile

    if args.data_dir is not None:
        return asyncio.run(go(args.data_dir))
    with tempfile.TemporaryDirectory() as tmp:
        return asyncio.run(go(tmp))


#: Wall seconds ``live --kill-restart`` waits after the run for a kill
#: it has not seen yet, before it reports that nothing was killed.
KILL_GRACE = 5.0


def _cmd_live(args: argparse.Namespace) -> str:
    # Imported lazily: the live runtime pulls in asyncio server
    # machinery that the simulated commands never need.
    import asyncio

    from repro.rt.cluster import RUN_MARGIN
    from repro.workloads.generator import WorkloadSpec, generate_transactions

    mix, topology, pool, make_cluster, mode = _cluster_from_args(args, "live")

    n_transactions = 6 if args.smoke else args.transactions
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=args.abort_fraction,
        participants_min=min(2, pool),
        participants_max=min(3, pool),
        inter_arrival=args.inter_arrival,
        hot_keys=0,
        seed=_seed(args),
    )

    transactions = generate_transactions(
        spec, sorted(mix.site_protocols()), placement=topology.placement
    )
    # The victim dies at its first stable prepared record — the moment
    # it holds an in-doubt transaction.
    victim = sorted(mix.site_protocols())[0]
    options: dict = {}
    if args.kill_restart and args.multiprocess:
        # A process cluster's log events stay in each site's trace file
        # until the run ends, so the victim's own process arms the kill.
        from repro.rt.proc import KillSpec

        target = next(
            (
                txn.txn_id
                for txn in transactions
                if victim in txn.writes and not txn.will_abort
            ),
            None,
        )
        if target is not None:
            options["kills"] = {victim: KillSpec("part-after-prepared", target)}

    async def go(data_dir: str) -> list[str]:
        cluster = make_cluster(data_dir, **options)
        await cluster.start()
        kill_notes: list[str] = []
        killed_at: list[float] = []
        kill_task: Optional[asyncio.Task] = None
        if args.kill_restart:
            prepared = asyncio.Event()

            async def kill_and_restart() -> None:
                if args.multiprocess:
                    await cluster.wait_for_crash(victim, timeout=None)
                else:
                    await prepared.wait()
                    await cluster.kill(victim)
                killed_at.append(cluster.sim.now)
                await asyncio.sleep(cluster.sim.to_seconds(30.0))
                report = await cluster.restart(victim)
                kill_notes.append(
                    f"  kill/restart: {victim} killed at {killed_at[0]:.1f}u, "
                    f"restarted at {cluster.sim.now:.1f}u; recovered from "
                    f"disk: {len(report.committed)} committed, "
                    f"{len(report.in_doubt)} in doubt"
                )

            def on_event(event) -> None:
                if (
                    event.site == victim
                    and event.category == "log"
                    and event.name == "append"
                    and event.details.get("type") == "prepared"
                ):
                    prepared.set()

            if not args.multiprocess:
                cluster.sim.trace.subscribe(on_event)
            kill_task = asyncio.ensure_future(kill_and_restart())
        for txn in transactions:
            cluster.submit(txn)
        await cluster.run(
            until=spec.inter_arrival * spec.n_transactions + RUN_MARGIN
        )
        if kill_task is not None:
            if not killed_at and "kills" in options:
                # The run can end just before the armed crash is seen.
                await asyncio.wait({kill_task}, timeout=KILL_GRACE)
            if killed_at:
                await kill_task
            else:
                kill_task.cancel()
                await asyncio.gather(kill_task, return_exceptions=True)
                kill_notes.append(
                    f"  kill/restart: FAILED, {victim} was never killed "
                    f"(it prepared no transaction)"
                )
                args.exit_code = 1
        await cluster.finalize()
        # Shut down first: the multiprocess cluster gathers its sites'
        # end-of-run footprints during shutdown (the in-process one
        # keeps them in memory either way).
        await cluster.shutdown()
        outcomes = cluster.outcomes()
        reports = cluster.check()

        lines = [
            f"live run — {mix.name} over {len(mix)} participants "
            f"({mode}), {n_transactions} transactions, "
            f"{args.time_scale}s/unit (seed {_seed(args)})",
        ]
        for txn in cluster.submitted:
            lines.append(
                f"  {txn.txn_id}  {outcomes.get(txn.txn_id, 'UNDECIDED')}"
            )
        lines.extend(kill_notes)
        terminated = sum(
            1 for txn in cluster.submitted if txn.txn_id in outcomes
        )
        lines.append(
            f"  terminated: {terminated}/{len(cluster.submitted)} "
            f"({cluster.sim.now:.1f} virtual units)"
        )
        lines.append(
            f"  checks: atomicity={reports.atomicity.holds} "
            f"safe_state={reports.safe_state.holds} "
            f"operational={reports.operational.holds}"
        )
        if terminated < len(cluster.submitted) or not reports.all_hold:
            args.exit_code = 1
        return lines

    return "\n".join(_run_in_data_dir(args, go))


def _cmd_loadgen(args: argparse.Namespace) -> str:
    # Imported lazily, like `live`: the runtime stack is not needed by
    # the simulated commands.
    from repro.workloads.openloop import OpenLoopSpec, run_rate_sweep

    mix, topology, pool, make_cluster, mode = _cluster_from_args(
        args, "loadgen"
    )
    try:
        rates = sorted(float(rate) for rate in args.rates.split(","))
    except ValueError:
        raise SystemExit(f"--rates must be comma-separated numbers: {args.rates!r}")
    if args.smoke:
        rates = rates[:2]

    try:
        spec = OpenLoopSpec(
            rate=rates[0],
            n_transactions=8 if args.smoke else args.transactions,
            clients=args.clients,
            arrival=args.arrival,
            burst_mean=args.burst_mean,
            participants_min=min(2, pool),
            participants_max=min(3, pool),
            hot_keys=args.hot_keys,
            hot_fraction=args.hot_fraction,
            abort_fraction=args.abort_fraction,
            read_only_fraction=args.read_only_fraction,
            seed=_seed(args),
        )
    except ReproError as exc:
        raise SystemExit(str(exc))

    async def go(data_dir: str) -> dict:
        async def factory(rate: float):
            cluster = make_cluster(Path(data_dir) / f"rate{rate:g}")
            await cluster.start()
            return cluster

        # Transactions go to run_rate_sweep's default coordinator site
        # ("tm") unless the topology places them per transaction.
        return await run_rate_sweep(
            factory,
            spec,
            rates,
            sorted(mix.site_protocols()),
            time_scale=args.time_scale,
            placement=topology.placement,
        )

    sweep = _run_in_data_dir(args, go)

    lines = [
        f"open-loop sweep — {mix.name} over {len(mix)} participants "
        f"({mode}, {args.codec} codec), {spec.n_transactions} txns/rate, "
        f"{spec.clients} clients, {spec.arrival} arrivals (seed {_seed(args)})",
        "",
        f"  {'offered':>9}  {'achieved':>9}  {'p50':>8}  {'p95':>8}  "
        f"{'p99':>8}  {'undecided':>9}  checks",
    ]
    for row in sweep["rows"]:
        lines.append(
            f"  {row['rate']:>7.1f}/s  {row['achieved']:>7.1f}/s  "
            f"{row['p50_ms']:>6.1f}ms  {row['p95_ms']:>6.1f}ms  "
            f"{row['p99_ms']:>6.1f}ms  {row['undecided']:>9}  "
            f"{'ok' if row['checks_ok'] else 'FAILED'}"
        )
        if not row["checks_ok"]:
            args.exit_code = 1
    knee = sweep["knee"]
    lines.append("")
    lines.append(
        f"  saturation knee: {knee:g} txn/s offered"
        if knee is not None
        else "  saturation knee: beyond the sweep (every rate held)"
    )
    return "\n".join(lines)


def _cmd_all(args: argparse.Namespace) -> str:
    sections = [
        render_flow(reproduce_figure(figure_id, seed=_seed(args)))
        for figure_id in sorted(FIGURES)
    ]
    sections.extend(row.run(args.seed).render() for row in EXPERIMENTS)
    sections.append(_taxonomy(args))
    rule = "\n" + "=" * 72 + "\n"
    return rule.join(sections)


def _add_topology_flags(
    command: argparse.ArgumentParser,
    sharded_note: str = "",
    replicated_note: str = "",
) -> None:
    """``--sharded`` / ``--replicated N``: the serialised form of
    :class:`repro.mdbs.topology.Topology`, one of which at most."""
    group = command.add_mutually_exclusive_group()
    group.add_argument(
        "--sharded",
        action="store_true",
        help="shard the coordinator role across every site (hash "
        "placement, no tm site)" + sharded_note,
    )
    group.add_argument(
        "--replicated",
        type=int,
        default=0,
        metavar="N",
        help="replicate the tm coordinator over N Paxos acceptor sites "
        "(acc0..acc{N-1}, own WALs, decisions stable at a quorum)"
        + replicated_note,
    )


def _add_cluster_flags(
    command: argparse.ArgumentParser, multiprocess_note: str = ""
) -> None:
    """What ``live`` and ``loadgen`` both take to shape their cluster
    (read back by :func:`_cluster_from_args`)."""
    command.add_argument(
        "--protocol",
        default="prany",
        help="prany (dynamic over a PrN+PrA+PrC mix), prn, pra or prc",
    )
    command.add_argument(
        "--participants", type=int, default=4, help="participant site count"
    )
    command.add_argument(
        "--time-scale",
        type=float,
        default=0.01,
        help="wall-clock seconds per virtual time unit",
    )
    command.add_argument(
        "--data-dir",
        default=None,
        help="directory for site WALs/snapshots (default: a temp dir)",
    )
    command.add_argument(
        "--multiprocess",
        action="store_true",
        help="run every site as its own supervised OS process" + multiprocess_note,
    )
    command.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on log forces (faster; tests only)",
    )
    command.add_argument(
        "--codec",
        choices=("json", "binary"),
        default="json",
        help="wire/WAL encoding for every site: json (debuggable "
        "text) or binary (struct-packed fast path); both ends of every "
        "connection must agree",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the artifacts of 'Atomicity with Incompatible "
            "Presumptions' (PODS 1999)."
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: each experiment's own; "
        f"{DEFAULT_SEED} for every other command)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifacts").set_defaults(
        handler=_cmd_list
    )

    figure = sub.add_parser("figure", help="reproduce one flow figure")
    figure.add_argument("id", choices=sorted(FIGURES), help="figure id")
    figure.set_defaults(handler=_cmd_figure)

    theorem = sub.add_parser("theorem", help="demonstrate a theorem")
    theorem.add_argument(
        "number",
        type=int,
        choices=[
            int(name.removeprefix("theorem"))
            for name in _ROWS
            if name.startswith("theorem")
        ],
    )
    theorem.set_defaults(handler=_cmd_experiment)

    explore = sub.add_parser(
        "explore",
        help="fuzz adversarial schedules against the invariant oracle",
    )
    explore.add_argument(
        "--seeds",
        type=_parse_seed_range,
        default=None,
        metavar="A:B",
        help="seed range to sweep (default 0:100; 0:50 with --smoke)",
    )
    explore.add_argument(
        "--protocol",
        default="prany",
        help="coordinator family: prany, u2pc, c2pc, prn, pra, prc",
    )
    explore.add_argument(
        "--mix",
        default=None,
        help="pin the participant mix (default: sample per seed)",
    )
    explore.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: cpu count; 1 = in-process)",
    )
    explore.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; stop issuing new seeds once exceeded",
    )
    explore.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: seeds 0:50 under a 30s budget",
    )
    explore.add_argument(
        "--salt",
        type=int,
        default=0,
        help="schedule-space salt: same seeds, different schedules",
    )
    _add_topology_flags(
        explore,
        sharded_note="; coordinator crashes target each transaction's "
        "actual owner",
        replicated_note="; the adversary adds acceptor-crash and "
        "leader-crash-then-failover victims",
    )
    explore.add_argument(
        "--artifacts",
        default="explore-artifacts",
        help="directory for shrunk counterexample artifacts",
    )
    explore.add_argument(
        "--max-counterexamples",
        type=int,
        default=3,
        help="shrink and export at most this many violating seeds",
    )
    explore.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violating seeds without minimizing them",
    )
    explore.add_argument(
        "--replay",
        default=None,
        metavar="ARTIFACT",
        help="re-simulate an exported artifact and verify it bit-exactly",
    )
    explore.set_defaults(handler=_cmd_explore)

    bench = sub.add_parser(
        "bench",
        help="run the seed-pinned bench rows and write/compare their counts "
        "(BENCH_sim.json, BENCH_live.json)",
    )
    bench.add_argument(
        "--suite",
        choices=("sim", "live"),
        default="sim",
        help="sim: the simulator rows; live: the rows over real sockets "
        "and fsync'd logs (latency and rates are printed, not written)",
    )
    bench.add_argument(
        "--scenario",
        default="all",
        help="'all', or comma-separated scenario names/tags (see --list)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: shrink every scenario to its small variant",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="compare against the report at --output instead of writing "
        "it; exit 1 on any count that differs, naming the row and the field",
    )
    bench.add_argument(
        "--output",
        default=None,
        help="report path (default: BENCH_<suite>.json at the repo root)",
    )
    bench.add_argument(
        "--profile",
        default=None,
        metavar="DIR",
        help="run each scenario under cProfile and dump the artifacts into DIR",
    )
    bench.add_argument(
        "--list", action="store_true", help="list the suite's scenarios and exit"
    )
    bench.set_defaults(handler=_cmd_bench)

    live = sub.add_parser(
        "live",
        help="run the protocol engines over real TCP sockets (asyncio)",
    )
    _add_cluster_flags(
        live,
        multiprocess_note=" (recovery-first boot; --kill-restart becomes a "
        "real SIGKILL)",
    )
    live.add_argument(
        "--transactions", type=int, default=12, help="workload size"
    )
    live.add_argument("--abort-fraction", type=float, default=0.25)
    live.add_argument(
        "--inter-arrival",
        type=float,
        default=1.0,
        help="mean virtual units between submissions",
    )
    live.add_argument(
        "--kill-restart",
        action="store_true",
        help="kill the first participant at its first prepared record, "
        "restart it 30 virtual units later (crash-recovery round)",
    )
    _add_topology_flags(live)
    live.add_argument(
        "--smoke", action="store_true", help="CI preset: 6 transactions"
    )
    live.set_defaults(handler=_cmd_live)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop traffic generator: latency vs offered load over "
        "a live cluster (saturation knee)",
    )
    _add_cluster_flags(loadgen)
    loadgen.add_argument(
        "--rates",
        default="25,50,100,200",
        help="comma-separated offered rates to sweep, in transactions "
        "per wall second (one fresh cluster per rate)",
    )
    loadgen.add_argument(
        "--transactions",
        type=int,
        default=32,
        help="transactions per rate (identical bodies at every rate)",
    )
    loadgen.add_argument(
        "--clients",
        type=int,
        default=4,
        help="independent arrival streams, merged (each offers rate/clients)",
    )
    loadgen.add_argument(
        "--arrival",
        choices=("poisson", "bursty"),
        default="poisson",
        help="arrival process: poisson (exponential gaps) or bursty "
        "(geometric batches at the same offered rate)",
    )
    loadgen.add_argument(
        "--burst-mean",
        type=float,
        default=4.0,
        help="mean batch size of the bursty arrival process",
    )
    loadgen.add_argument(
        "--hot-keys",
        type=int,
        default=0,
        help="size of the shared hot-key pool (0 = no lock contention)",
    )
    loadgen.add_argument(
        "--hot-fraction",
        type=float,
        default=0.0,
        help="probability a write targets the hot-key pool",
    )
    loadgen.add_argument("--abort-fraction", type=float, default=0.0)
    loadgen.add_argument(
        "--read-only-fraction",
        type=float,
        default=0.0,
        help="probability a transaction only reads (READ votes under "
        "the read-only optimization)",
    )
    _add_topology_flags(loadgen)
    loadgen.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: 8 transactions over the two lowest rates",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    for row in EXPERIMENTS:
        if not row.name.startswith("theorem"):
            sub.add_parser(
                row.name, help=f"{row.artifact}: {row.title}"
            ).set_defaults(handler=_cmd_experiment, experiment=row.name)
    sub.choices["costs"].add_argument(
        "--participants", dest="n_participants", type=int, default=2
    )
    sub.add_parser(
        "taxonomy", help="F5: atomic-commitment taxonomy"
    ).set_defaults(handler=_taxonomy)
    sub.add_parser("all", help="run every artifact in order").set_defaults(
        handler=_cmd_all
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], str] = args.handler
    try:
        print(handler(args))
    except BrokenPipeError:
        # Output was piped into something that closed early (e.g. head).
        return 0
    # Commands with a pass/fail notion (explore) set exit_code; the
    # reproduction commands always succeed once they print.
    return getattr(args, "exit_code", 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
