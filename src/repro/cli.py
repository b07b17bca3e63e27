"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main entry points:

* ``explore <instruction>`` — concolic path exploration (Fig. 1 step 1);
* ``test <instruction> [--compiler C] [--backend B]`` — differential
  test of every curated path (steps 2-4);
* ``campaign [--max-bytecodes N] [--max-natives N] [--only NAME] [-j N]
  [--deadline S] [--journal PATH] [--resume] [--fail-fast]
  [--triage] [--confirm-runs N] [--repro-dir DIR] [--mutant ID]
  [--profile] [--profile-json PATH] [--cache-dir DIR]
  [--no-cache]`` — the full Table 2/3 evaluation, with parallel
  sharding (work-stealing), wall-clock budgeting, checkpoint/resume,
  cache/solver profiling, the persistent cross-run result cache, and
  defect triage with standalone reproducer emission (operator guides:
  docs/CAMPAIGN.md, docs/EXPLORATION.md, docs/PERFORMANCE.md,
  docs/TRIAGE.md, docs/INCREMENTAL.md);
* ``mutate [--mutant ID] [--budgets N,N] [--only NAME] [-j N]
  [--journal-dir DIR] [--resume] [--json PATH] [--cache-dir DIR]
  [--no-cache]`` — the detection-recall benchmark: re-run the campaign
  under each registered semantic mutant and report recall, time to
  first detection and the new cause buckets in its records (operator
  guide: docs/MUTATION.md); the result cache reuses the cells a mutant
  does not touch;
* ``cache [--cache-dir DIR] [--gc] [--clear]`` — inspect, compact or
  delete the persistent result store (docs/INCREMENTAL.md);
* ``stitch [--stitch-fragments N] [--stitch-max-methods N]
  [--stitch-depth N] [--stitch-paths N] [--json PATH]`` — derive and
  print the stitched whole-method corpus: constraint-compatible path
  templates chained into ``stitch:`` methods (operator guide:
  docs/STITCHING.md); ``campaign --stitch`` runs it differentially;
* ``list [bytecodes|natives|sequences]`` — the instruction inventory;
* ``disasm <instruction> [--compiler C] [--backend B]`` — machine code
  a compiler generates for an instruction test;
* ``generate <output_dir> <instruction...>`` — persistent pytest suites.

Instruction names are byte-code encodings (``bytecodePrimAdd``),
primitives (``primitiveAt``), sequences (``seq:pushTrue+popStackTop``)
or stitched methods (``stitch:pushOne+longJump.1+...``).
"""

from __future__ import annotations

import argparse
import sys

from repro.bytecode.opcodes import testable_bytecodes
from repro.concolic.explorer import ConcolicExplorer
from repro.concolic.sequences import INTERESTING_SEQUENCES
from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import (
    CampaignConfig,
    campaign_rows,
    run_campaign,
    sequence_campaign_rows,
    spec_named,
    stitched_campaign_rows,
    test_instruction,
)
from repro.errors import BytecodeError
from repro.interpreter.primitives import testable_primitives
from repro.jit.machine.arm32 import Arm32Backend
from repro.jit.machine.x86 import X86Backend
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit

COMPILERS = {
    "simple": SimpleStackBasedCogit,
    "s2r": StackToRegisterCogit,
    "linear": RegisterAllocatingCogit,
    "native": NativeMethodCompiler,
}
BACKENDS = {"x86": X86Backend, "arm32": Arm32Backend}


def resolve_spec(name: str):
    """Instruction name -> spec (byte-code, primitive, sequence, stitch);
    a name that names none exits with a message."""
    try:
        return spec_named(name)
    except KeyError:
        raise SystemExit(f"unknown primitive: {name}")
    except BytecodeError as exc:
        if name.startswith("stitch:"):
            raise SystemExit(f"bad stitched name: {exc}")
        if name.startswith("seq:"):
            raise SystemExit(f"bad sequence name: {exc}")
        raise SystemExit(f"unknown instruction: {name}")


def check_planned(names, rows) -> None:
    """Exit, listing them all, when ``--only`` names select no cell of
    *rows*: a misspelt name, an untestable one (``pushThisContext``), a
    ``seq:`` name without ``--sequences``, or one that
    ``--max-bytecodes``/``--max-natives`` cut off would otherwise run
    an all-zero campaign, and make ``mutate`` report a mutant missed."""
    planned = {spec.name for row in rows for spec in row.specs}
    idle = [name for name in names if name not in planned]
    if idle:
        raise SystemExit(
            "--only: no planned cell for " + ", ".join(map(repr, idle))
            + "; see `repro list`, --sequences, --stitch and "
            "--max-bytecodes/--max-natives"
        )


def scope_config_kwargs(args) -> dict:
    """``--max-bytecodes``/``--max-natives`` as CampaignConfig kwargs; a
    negative count would slice from the corpus's end, so it exits."""
    scope = dict(max_bytecodes=args.max_bytecodes,
                 max_natives=args.max_natives)
    for key, value in scope.items():
        if value is not None and value < 0:
            flag = "--" + key.replace("_", "-")
            raise SystemExit(f"{flag} must be 0 or more, got {value}")
    return scope


def default_compiler_for(spec) -> str:
    return "native" if spec.kind == "native" else "s2r"


def cmd_explore(args) -> int:
    spec = resolve_spec(args.instruction)
    result = ConcolicExplorer(
        spec, max_iterations=args.max_iterations, max_paths=args.max_paths
    ).explore()
    print(
        f"{spec.name}: {result.path_count} paths, {result.iterations} "
        f"iterations, {result.unsat_prefixes} unsat prefixes, "
        f"{result.elapsed_seconds * 1000:.0f} ms"
    )
    for index, path in enumerate(result.paths, 1):
        print(f"\n#{index} [{path.exit.describe()}]")
        print(f"  inputs: {path.model.describe() or '(defaults)'}")
        print(f"  path:   {' AND '.join(str(c) for c in path.constraints)}")
        print(f"  output: {path.output.describe()}")
    return 0


def cmd_test(args) -> int:
    spec = resolve_spec(args.instruction)
    compiler = COMPILERS[args.compiler or default_compiler_for(spec)]
    config = CampaignConfig(
        backends=tuple(BACKENDS[b] for b in args.backend),
        boundary_witnesses=args.boundary,
    )
    result = test_instruction(spec, compiler, config)
    for comparison in result.comparisons:
        print(comparison.describe())
    print(
        f"\n{result.differing_paths} differing / {result.curated_path_count} "
        f"curated paths on {compiler.name}"
    )
    return 1 if result.differing_paths else 0


def stitch_config_kwargs(args) -> dict:
    """The ``--stitch-*`` budget knobs as CampaignConfig kwargs.

    Shared by ``campaign``, ``mutate`` and ``stitch`` so the corpus
    the three subcommands derive from the same flags is identical
    (see docs/STITCHING.md).
    """
    return dict(
        stitch_fragments=args.stitch_fragments,
        stitch_max_methods=args.stitch_max_methods,
        stitch_depth=args.stitch_depth,
        stitch_paths_per_fragment=args.stitch_paths,
    )


def resolve_cache_dir(args):
    """The persistent result store directory for this invocation.

    ``--no-cache`` disables the store outright; ``--cache-dir`` pins
    it; otherwise the default (``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro``) is used — the cache is on by default for the
    CLI because its hits are byte-identical to live execution
    (docs/INCREMENTAL.md) and cold runs merely populate it.
    """
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    from repro.incremental import default_cache_dir

    return default_cache_dir()


def print_cache_stats(stats) -> None:
    """One stdout stats line (CI-parseable) + stderr degradation note."""
    if stats is None:
        return
    print(
        f"\nresult cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.stale} stale) -- hit rate {stats.hit_rate * 100:.1f}%"
    )
    if stats.warning:
        print(f"warning: {stats.warning}", file=sys.stderr)


def cmd_campaign(args) -> int:
    from repro.difftest.report import (
        format_quarantine,
        format_resilience,
        format_retries,
    )

    if args.stitch and args.sequences:
        raise SystemExit("--stitch and --sequences are mutually exclusive")
    profile = bool(args.profile or args.profile_json)
    mutants = ()
    if getattr(args, "mutant", None):
        from repro.mutation import parse_mutants

        mutants = parse_mutants(args.mutant)
    config = CampaignConfig(
        **scope_config_kwargs(args),
        only=tuple(args.only or ()),
        backends=tuple(BACKENDS[b] for b in args.backend),
        max_sim_steps=args.max_sim_steps,
        deadline_seconds=args.deadline,
        cell_timeout_seconds=args.cell_timeout,
        worker_memory_mb=args.worker_memory_mb,
        worker_cpu_seconds=args.worker_cpu_seconds,
        fail_fast=args.fail_fast,
        mutants=mutants,
        profile=profile,
        **stitch_config_kwargs(args),
    )
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal")
    triage = None
    if args.triage:
        from repro.triage import TriageConfig

        triage = TriageConfig(
            confirm_runs=args.confirm_runs,
            repro_dir=args.repro_dir,
        )
    run_kwargs = dict(journal_path=args.journal, resume=args.resume,
                      jobs=args.jobs, triage=triage,
                      cache_dir=resolve_cache_dir(args))
    if args.stitch:
        rows = stitched_campaign_rows(config)
    elif args.sequences:
        rows = sequence_campaign_rows(config)
    else:
        rows = campaign_rows(config)
    check_planned(config.only, rows)
    reports = run_campaign(config, rows, **run_kwargs)
    print(format_table2(reports))
    if not (args.stitch or args.sequences):
        print()
        print(format_table3(reports))
    quarantine_section = format_quarantine(reports.quarantine)
    if quarantine_section:
        print()
        print(quarantine_section)
    retry_section = format_retries(reports)
    if retry_section:
        print()
        print(retry_section)
    resilience_section = format_resilience(reports)
    if resilience_section:
        print()
        print(resilience_section)
    if reports.triage is not None:
        from repro.triage import format_causes

        print()
        print(format_causes(reports.triage))
    if profile and reports.perf is not None:
        from repro.perf.report import format_profile

        print()
        print(format_profile(reports.perf))
        if args.profile_json:
            import json
            from pathlib import Path

            Path(args.profile_json).write_text(
                json.dumps(reports.perf, indent=2, sort_keys=True) + "\n"
            )
    if reports.workers > 1:
        print(
            f"\n{reports.workers} workers; exploration cache "
            f"{reports.cache_hits} hits / {reports.cache_misses} misses"
        )
    print_cache_stats(reports.cache)
    if reports.resumed_cells:
        print(f"\nresumed {reports.resumed_cells} cells from {args.journal}")
    if reports.triage is not None and reports.triage.reused_causes:
        print(
            f"\nreplayed {reports.triage.reused_causes} triaged cause "
            f"bucket(s) from {args.journal} (not re-shrunk)"
        )
    if reports.budget_exhausted:
        where = args.journal or "a journal (use --journal)"
        print(f"\ncampaign deadline expired; resume with --resume via {where}")
        return 2
    return 0


def cmd_mutate(args) -> int:
    """The detection-recall benchmark: ``repro mutate`` (docs/MUTATION.md)."""
    import repro.mutation  # registers the operator corpus
    from repro.mutation import MUTANTS, parse_mutants
    from repro.mutation.recall import (
        DEFAULT_BUDGETS,
        corpus_config,
        corpus_rows,
        format_recall,
        run_recall,
    )

    if args.list:
        for mutant in MUTANTS.values():
            notes = []
            if mutant.corpus != "main":
                notes.append(f"[{mutant.corpus} corpus]")
            if not mutant.expected_caught:
                notes.append("[outside CI gate]")
            suffix = ("  " + " ".join(notes)) if notes else ""
            print(f"{mutant.id:4s} {mutant.family:12s} "
                  f"{mutant.description}{suffix}")
        return 0
    mutant_ids = parse_mutants(args.mutant) or None
    try:
        budgets = tuple(dict.fromkeys(
            int(part) for part in (args.budgets or "").split(",") if part.strip()
        )) or DEFAULT_BUDGETS
    except ValueError:
        raise SystemExit(f"--budgets must be comma-separated integers, "
                         f"got {args.budgets!r}")
    if min(budgets) < 1:
        raise SystemExit(f"--budgets entries must be 1 or more, "
                         f"got {args.budgets!r}")
    if args.resume and not args.journal_dir:
        raise SystemExit("--resume requires --journal-dir")
    config = CampaignConfig(
        **scope_config_kwargs(args),
        only=tuple(args.only or ()),
        backends=tuple(BACKENDS[b] for b in args.backend),
        max_sim_steps=args.max_sim_steps,
        deadline_seconds=args.deadline,
        **stitch_config_kwargs(args),
    )
    # Main-corpus names against the main plan, ``stitch:`` names
    # against the stitched plan: the split every sweep campaign makes.
    for corpus in ("main", "stitched"):
        scoped = corpus_config(config, corpus)
        if scoped.only:
            check_planned(scoped.only, corpus_rows(scoped, corpus))

    def progress(message: str) -> None:
        # Status lines go to stderr: stdout is the deterministic
        # report surface (byte-identical across -j / --resume).
        print(f"mutate: {message}", file=sys.stderr)

    report = run_recall(
        config,
        mutant_ids,
        budgets,
        jobs=args.jobs,
        journal_dir=args.journal_dir,
        resume=args.resume,
        progress=progress,
        cache_dir=resolve_cache_dir(args),
    )
    print(format_recall(report))
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(json.dumps(
            report.to_dict(include_timing=False), indent=2, sort_keys=True
        ) + "\n")
    return 0


def cmd_cache(args) -> int:
    """Inspect, compact or delete the result store: ``repro cache``."""
    from repro.incremental import CACHE_VERSION, ResultStore, default_cache_dir

    directory = args.cache_dir or default_cache_dir()
    store = ResultStore(directory)
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} store file(s) from {directory}")
        return 0
    if args.gc:
        summary = store.gc()
        removed = summary["removed_files"]
        print(
            f"compacted to {summary['entries']} entries; removed "
            f"{len(removed)} stale/corrupt file(s); reclaimed "
            f"{summary['reclaimed_bytes']} bytes"
        )
        for name in removed:
            print(f"  removed {name}")
        return 0
    store.load()
    print(f"cache directory: {directory}")
    print(f"cache version:   {CACHE_VERSION}")
    print(f"entries:         {store.stats.entries}")
    if store.stats.corrupt_lines:
        print(f"corrupt lines:   {store.stats.corrupt_lines} (skipped)")
    for path, kind in store.files():
        size = path.stat().st_size
        print(f"  {kind:8s} {path.name}  {size} bytes")
    if args.journal:
        from repro.robustness.checkpoint import (
            TRIAGE_KEY_PREFIX,
            CampaignJournal,
        )

        journal = CampaignJournal(args.journal)
        completed = journal.load()
        triage_count = sum(
            1 for key in completed if key.startswith(TRIAGE_KEY_PREFIX)
        )
        replay = journal.replay
        print(f"journal:         {args.journal}")
        print(f"  cell records   {len(completed) - triage_count}")
        print(f"  triage records {triage_count}")
        print(f"  torn lines     {replay.torn_lines} (skipped)")
        print(f"  skipped lines  {replay.skipped_lines} (foreign/keyless)")
    if store.stats.warning:
        print(f"warning: {store.stats.warning}", file=sys.stderr)
    return 0


def cmd_stitch(args) -> int:
    """Derive and print the stitched corpus: ``repro stitch``."""
    from repro.stitch import (
        StitchBudget,
        build_stitched_corpus,
        format_stitch_report,
    )

    config = CampaignConfig(**stitch_config_kwargs(args))
    _specs, report = build_stitched_corpus(StitchBudget.from_config(config))
    print(format_stitch_report(report))
    if args.json:
        import json
        from dataclasses import asdict
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
        )
    return 0


def cmd_list(args) -> int:
    what = args.what
    if what in ("bytecodes", "all"):
        for bytecode in testable_bytecodes():
            print(f"{bytecode.opcode:#04x}  {bytecode.name}")
    if what in ("natives", "all"):
        for native in testable_primitives():
            print(f"{native.index:4d}  {native.name}  ({native.category})")
    if what in ("sequences", "all"):
        for entries in INTERESTING_SEQUENCES:
            rendered = "+".join(
                entry if isinstance(entry, str) else entry[0]
                for entry in entries
            )
            print(f"seq:{rendered}")
    return 0


def cmd_disasm(args) -> int:
    from repro.bytecode.methods import SymbolTable
    from repro.jit.compiler import CompilationUnit
    from repro.jit.machine.codecache import CodeCache
    from repro.jit.machine.disassembler import format_disassembly
    from repro.jit.machine.simulator import TrampolineTable
    from repro.memory.bootstrap import bootstrap_memory

    spec = resolve_spec(args.instruction)
    compiler_class = COMPILERS[args.compiler or default_compiler_for(spec)]
    backend = BACKENDS[args.backend[0]]()
    memory, _known = bootstrap_memory(heap_words=2048)
    symbols = SymbolTable(memory)
    trampolines = TrampolineTable()
    for service in ("ceAllocateFloat", "ceNewFixedInstance",
                    "ceNewVariableInstance", "ceMakePoint"):
        trampolines.service(service, lambda sim: None)
    method = spec.build_method(memory, symbols)
    unit = CompilationUnit(
        method=method,
        bytecode=getattr(spec, "bytecode", None),
        native=getattr(spec, "native", None),
        sequence=tuple(getattr(spec, "sequence", ())),
    )
    compiler = compiler_class(
        memory, trampolines, CodeCache(), backend, symbols
    )
    compiled = compiler.compile(unit)
    print(format_disassembly(compiled.code_object, backend, trampolines))
    return 0


def cmd_generate(args) -> int:
    from repro.difftest.testgen import write_test_suite

    specs = [resolve_spec(name) for name in args.instructions]
    by_kind: dict = {"native": [], "other": []}
    for spec in specs:
        by_kind["native" if spec.kind == "native" else "other"].append(spec)
    suites = []
    if by_kind["native"]:
        suites += write_test_suite(
            args.output_dir, by_kind["native"], [NativeMethodCompiler]
        )
    if by_kind["other"]:
        compilers = [COMPILERS[name] for name in ("simple", "s2r", "linear")]
        suites += write_test_suite(args.output_dir, by_kind["other"], compilers)
    total = sum(suite.test_count for suite in suites)
    xfails = sum(suite.xfail_count for suite in suites)
    print(
        f"generated {len(suites)} modules / {total} tests "
        f"({xfails} known-difference xfails) in {args.output_dir}"
    )
    return 0


def add_stitch_arguments(parser) -> None:
    """The shared ``--stitch-*`` budget knobs (docs/STITCHING.md).

    Defaults mirror :class:`repro.stitch.corpus.StitchBudget`; the
    stitched corpus is a pure function of these four values, so any
    two subcommands given the same knobs derive the same corpus.
    """
    parser.add_argument(
        "--stitch-fragments", type=int, default=12, metavar="N",
        help="fragment specs drawn from the sequence corpus to derive "
             "path templates from (default: 12)",
    )
    parser.add_argument(
        "--stitch-max-methods", type=int, default=24, metavar="N",
        help="cap on emitted stitched methods, best-scored first "
             "(default: 24)",
    )
    parser.add_argument(
        "--stitch-depth", type=int, default=2, metavar="N",
        help="fragments per stitched method: 2 = pairs, 3 = adds "
             "triples (default: 2)",
    )
    parser.add_argument(
        "--stitch-paths", type=int, default=8, metavar="N",
        help="curated paths templated per fragment (default: 8)",
    )


def add_cache_arguments(parser) -> None:
    """The shared result-cache knobs (docs/INCREMENTAL.md).

    The persistent store is *on by default* for campaign-running
    subcommands: hits are byte-identical to live execution, so the
    only observable effect of the cache is wall-clock.
    """
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent result store directory (default: "
             "$REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result store: neither read nor "
             "write cached cell results",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interpreter-guided differential JIT compiler unit testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explore = sub.add_parser("explore", help="concolic path exploration")
    explore.add_argument("instruction")
    explore.add_argument("--max-iterations", type=int, default=400)
    explore.add_argument("--max-paths", type=int, default=128)
    explore.set_defaults(handler=cmd_explore)

    test = sub.add_parser("test", help="differential test of one instruction")
    test.add_argument("instruction")
    test.add_argument("--compiler", choices=sorted(COMPILERS))
    test.add_argument("--backend", action="append", choices=sorted(BACKENDS))
    test.add_argument(
        "--boundary", action="store_true",
        help="enrich each path with boundary witnesses (extension)",
    )
    test.set_defaults(handler=cmd_test)

    campaign = sub.add_parser("campaign", help="the full Table 2/3 evaluation")
    campaign.add_argument("--max-bytecodes", type=int)
    campaign.add_argument("--max-natives", type=int)
    campaign.add_argument(
        "--only", action="append", metavar="NAME",
        help="restrict the campaign to this instruction (repeatable); "
             "applied after --max-bytecodes/--max-natives slicing; a "
             "name that selects no planned cell exits",
    )
    campaign.add_argument("--backend", action="append", choices=sorted(BACKENDS))
    campaign.add_argument(
        "--sequences", action="store_true",
        help="run the byte-code sequence corpus instead (extension)",
    )
    campaign.add_argument(
        "--stitch", action="store_true",
        help="run the stitched whole-method corpus instead: "
             "constraint-compatible path templates chained into "
             "methods (extension; see docs/STITCHING.md)",
    )
    campaign.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes to shard the campaign across "
             "(default: 1 = in-process; 0 = one per CPU)",
    )
    campaign.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole campaign (default: none)",
    )
    campaign.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell under -jN: a worker stuck on "
             "one cell longer than this is SIGKILLed, the cell "
             "quarantined and the worker respawned (default: "
             "--deadline/4 when --deadline is set, else unbounded; "
             "no effect with -j 1)",
    )
    campaign.add_argument(
        "--worker-memory-mb", type=int, default=None, metavar="MB",
        help="RLIMIT_AS address-space cap applied in each -jN worker "
             "process; an over-limit cell is quarantined as "
             "WorkerResourceExceeded (default: unlimited)",
    )
    campaign.add_argument(
        "--worker-cpu-seconds", type=int, default=None, metavar="SECONDS",
        help="RLIMIT_CPU cap applied in each -jN worker process; a "
             "worker killed by SIGXCPU is quarantined as "
             "WorkerResourceExceeded (default: unlimited)",
    )
    campaign.add_argument(
        "--max-sim-steps", type=int, default=20_000, metavar="N",
        help="fuel limit per simulated machine execution (default: 20000)",
    )
    campaign.add_argument(
        "--journal", metavar="PATH",
        help="checkpoint completed cells to this JSONL file",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="skip cells already recorded in --journal",
    )
    campaign.add_argument(
        "--fail-fast", action="store_true",
        help="re-raise the first cell crash instead of quarantining",
    )
    campaign.add_argument(
        "--triage", action="store_true",
        help="confirm, shrink and dedup every divergence/crash into "
             "cause buckets and emit standalone reproducers "
             "(see docs/TRIAGE.md)",
    )
    campaign.add_argument(
        "--confirm-runs", type=int, default=3, metavar="N",
        help="fresh re-executions per cause bucket during --triage "
             "confirmation (default: 3)",
    )
    campaign.add_argument(
        "--repro-dir", default="repros", metavar="DIR",
        help="directory for standalone reproducers emitted by --triage "
             "(default: repros)",
    )
    campaign.add_argument(
        "--mutant", action="append", metavar="ID",
        help="run the whole campaign under this semantic mutant from "
             "the mutation registry (repeatable or comma-separated; "
             "R10,R11 re-seeds the paper's Simulation Error defect; see "
             "docs/MUTATION.md and `repro mutate --list`)",
    )
    campaign.add_argument(
        "--profile", action="store_true",
        help="collect cache/solver instrumentation and append a "
             "profile section to the report (see docs/PERFORMANCE.md)",
    )
    campaign.add_argument(
        "--profile-json", metavar="PATH",
        help="write the raw profile snapshot as JSON to PATH "
             "(implies --profile)",
    )
    add_stitch_arguments(campaign)
    add_cache_arguments(campaign)
    campaign.set_defaults(handler=cmd_campaign)

    mutate = sub.add_parser(
        "mutate",
        help="seed known defects and measure campaign recall "
             "(docs/MUTATION.md)",
    )
    mutate.add_argument(
        "--mutant", action="append", metavar="ID",
        help="mutant id(s) to run, repeatable or comma-separated "
             "(default: every registered mutant)",
    )
    mutate.add_argument(
        "--list", action="store_true",
        help="print the registered mutant inventory and exit",
    )
    mutate.add_argument(
        "--budgets", metavar="N,N,...", default=None,
        help="comma-separated path budgets (max paths per instruction, "
             "each 1 or more) to sweep; cause buckets are counted at "
             "the largest (default: 4,16,64)",
    )
    mutate.add_argument("--max-bytecodes", type=int)
    mutate.add_argument("--max-natives", type=int)
    mutate.add_argument(
        "--only", action="append", metavar="NAME",
        help="restrict the campaigns to this instruction (repeatable); "
             "stitch: names scope the stitched corpus, the others the "
             "main one; a name that selects no planned cell exits",
    )
    mutate.add_argument("--backend", action="append", choices=sorted(BACKENDS))
    mutate.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes per campaign (default: 1; 0 = one per CPU)",
    )
    mutate.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per campaign run (default: none)",
    )
    mutate.add_argument(
        "--max-sim-steps", type=int, default=20_000, metavar="N",
        help="fuel limit per simulated machine execution (default: 20000)",
    )
    mutate.add_argument(
        "--journal-dir", metavar="DIR",
        help="checkpoint every (phase, budget) campaign to its own "
             "JSONL journal in this directory",
    )
    mutate.add_argument(
        "--resume", action="store_true",
        help="replay cells already journaled in --journal-dir",
    )
    mutate.add_argument(
        "--json", metavar="PATH",
        help="write the recall report as JSON to PATH (deterministic; "
             "no wall-clock fields)",
    )
    add_stitch_arguments(mutate)
    add_cache_arguments(mutate)
    mutate.set_defaults(handler=cmd_mutate)

    cache = sub.add_parser(
        "cache",
        help="inspect, compact or delete the persistent result store "
             "(docs/INCREMENTAL.md)",
    )
    cache.add_argument(
        "--cache-dir", metavar="DIR",
        help="store directory to operate on (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro)",
    )
    cache.add_argument(
        "--gc", action="store_true",
        help="compact the current store file (last-wins dedup) and "
             "delete stale-version and quarantined files",
    )
    cache.add_argument(
        "--clear", action="store_true",
        help="delete every store file in the cache directory",
    )
    cache.add_argument(
        "--journal", metavar="PATH",
        help="also inspect this campaign journal: record counts plus "
             "torn/skipped line diagnostics (docs/RESILIENCE.md)",
    )
    cache.set_defaults(handler=cmd_cache)

    stitch = sub.add_parser(
        "stitch",
        help="derive and print the stitched whole-method corpus "
             "(docs/STITCHING.md)",
    )
    add_stitch_arguments(stitch)
    stitch.add_argument(
        "--json", metavar="PATH",
        help="write the stitch report as JSON to PATH (deterministic)",
    )
    stitch.set_defaults(handler=cmd_stitch)

    listing = sub.add_parser("list", help="instruction inventory")
    listing.add_argument(
        "what", nargs="?", default="all",
        choices=("bytecodes", "natives", "sequences", "all"),
    )
    listing.set_defaults(handler=cmd_list)

    disasm = sub.add_parser("disasm", help="disassemble a compiled test")
    disasm.add_argument("instruction")
    disasm.add_argument("--compiler", choices=sorted(COMPILERS))
    disasm.add_argument("--backend", action="append", choices=sorted(BACKENDS))
    disasm.set_defaults(handler=cmd_disasm)

    generate = sub.add_parser("generate", help="emit persistent pytest suites")
    generate.add_argument("output_dir")
    generate.add_argument("instructions", nargs="+")
    generate.set_defaults(handler=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None) in (None, []):
        if hasattr(args, "backend"):
            args.backend = ["x86", "arm32"] if args.command in (
                "test", "campaign", "mutate"
            ) else ["x86"]
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
