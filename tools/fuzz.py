#!/usr/bin/env python
"""Coverage-guided crash-and-fault fuzzing from the command line.

Runs a campaign over the joint search space (workload schedule x crash
point x surviving-line subset x injected block faults), keeps the
deduplicated minimized corpus on disk, and triages findings
(see docs/FUZZING.md)::

    PYTHONPATH=src python tools/fuzz.py run --seed 0 --cases 64 \
        --corpus /tmp/corpus --html --check
    PYTHONPATH=src python tools/fuzz.py run --seed 0 --cases 64 --jobs 4
    PYTHONPATH=src python tools/fuzz.py triage /tmp/corpus
    PYTHONPATH=src python tools/fuzz.py triage /tmp/corpus --case a1b2c3d4e5f6
    PYTHONPATH=src python tools/fuzz.py compare /tmp/corpus-a /tmp/corpus-b

``--jobs N`` shards case evaluation across N worker processes
(``repro.parallel``); the corpus, findings, and reports are
byte-identical to a sequential run at any N — candidate batches are
drawn before execution and ingested in batch order, never arrival
order.

Exit codes (matching tools/crash_explore.py): 0 = clean, 1 = findings
(with ``--check``), 2 = usage or harness error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cli import (add_jobs_argument, dump_metrics,  # noqa: E402
                       exit_boundary, print_json)
from repro.fuzz import (Corpus, FuzzCase, FuzzConfig,  # noqa: E402
                        FuzzEngine, compare_campaigns, render_compare_text,
                        render_html, render_text, run_case_task)
from repro.fuzz.report import corpus_case_rows  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.parallel import FuzzShardError, ShardEngine  # noqa: E402
from repro.workloads import FUZZ_SEED_MIXES  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Coverage-guided fuzzing of crash recovery: mutate "
                    "workload schedules, crash points, survivor subsets "
                    "and fault plans; check the durability contract.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a fuzz campaign")
    run.add_argument("--seed", type=int, default=0,
                     help="campaign seed (drives generation, mutation, "
                          "and survivor sampling)")
    run.add_argument("--cases", type=int, default=64,
                     help="total cases to execute (seeds + candidates)")
    run.add_argument("--batch", type=int, default=8,
                     help="candidate batch size; part of the determinism "
                          "contract — never derived from --jobs")
    add_jobs_argument(run, default=1,
                      help="worker processes to shard batches across")
    run.add_argument("--families", type=str, default=None,
                     help="comma list of seed families (default: all of "
                          f"{','.join(sorted(FUZZ_SEED_MIXES))})")
    run.add_argument("--max-ops", type=int, default=12,
                     help="schedule length cap for generated cases")
    run.add_argument("--no-feedback", action="store_true",
                     help="blind baseline: mutate only the seed cases, "
                          "never coverage-novel corpus entries")
    run.add_argument("--no-minimize", action="store_true",
                     help="keep findings as found, skip greedy shrinking")
    run.add_argument("--time-budget", type=float, default=None,
                     help="wall-clock cap in seconds (checked between "
                          "batches; breaks cross-run byte-identity)")
    run.add_argument("--corpus", type=str, default=None,
                     help="directory to write the corpus into "
                          "(cases/, findings/, campaign.json)")
    run.add_argument("--reuse-corpus", action="store_true",
                     help="seed the campaign from the cases already in "
                          "--corpus (cross-campaign corpus reuse: CI "
                          "caches the directory keyed by the source "
                          "tree's stack digest, docs/FUZZING.md); a "
                          "missing or empty directory is a cache miss, "
                          "not an error")
    run.add_argument("--html", action="store_true",
                     help="also write report.html into the corpus dir "
                          "(requires --corpus)")
    run.add_argument("--json", action="store_true",
                     help="emit the campaign summary as JSON on stdout")
    run.add_argument("--metrics", action="store_true",
                     help="dump fuzz.* metrics to stderr after the run")
    run.add_argument("--check", action="store_true",
                     help="exit 1 if any invariant violation is found")

    triage = sub.add_parser("triage", help="inspect a written corpus")
    triage.add_argument("corpus", help="corpus directory from a run")
    triage.add_argument("--case", type=str, default=None,
                        help="replay one case/finding by digest and "
                             "report the outcome")
    triage.add_argument("--html", action="store_true",
                        help="(re)write report.html from the corpus")
    triage.add_argument("--json", action="store_true",
                        help="emit JSON instead of the text report")
    triage.add_argument("--check", action="store_true",
                        help="exit 1 if the corpus (or the replayed "
                             "case) has findings")

    compare = sub.add_parser(
        "compare", help="diff two campaigns' coverage and findings")
    compare.add_argument("corpus_a", help="first corpus directory")
    compare.add_argument("corpus_b", help="second corpus directory")
    compare.add_argument("--json", action="store_true",
                         help="emit the diff as JSON")
    return parser


def write_corpus(root: str, result, want_html: bool) -> None:
    corpus = Corpus(root)
    for case, origin, new_edges in result.corpus:
        corpus.write_case(case, origin, new_edges)
    for finding in result.finding_list():
        corpus.write_finding(finding)
    summary = result.summary()
    corpus.write_campaign(summary)
    if want_html:
        cases = [{"digest": case.digest(), "case": case.to_fields(),
                  "origin": origin, "new_edges": new_edges}
                 for case, origin, new_edges in result.corpus]
        corpus.write_report(
            render_html(summary, result.finding_list(), cases))


def reuse_corpus_seeds(fuzzer: FuzzEngine, root: str) -> None:
    """Extend the campaign's seed pool with the cases of a previous
    corpus (deduplicated by digest, ingested in sorted-digest order so
    the extended campaign stays deterministic). Emits a ``::cache::``
    marker line that ``tools/ci_run.py --json`` surfaces as cache-hit
    stats in job logs."""
    prior = Corpus(root).load_cases()
    seen = {case.digest() for case in fuzzer.seeds}
    reused = 0
    for record in prior:
        case = FuzzCase.from_fields(record["case"])
        if case.digest() in seen:
            continue
        seen.add(case.digest())
        fuzzer.seeds.append(case)
        reused += 1
    print("::cache:: " + json.dumps(
        {"cache": "fuzz-corpus", "hit": bool(prior),
         "available_cases": len(prior), "reused_cases": reused},
        sort_keys=True))


def cmd_run(args) -> int:
    if args.html and args.corpus is None:
        raise ValueError("--html requires --corpus")
    if args.reuse_corpus and args.corpus is None:
        raise ValueError("--reuse-corpus requires --corpus")
    families = (tuple(sorted(set(args.families.split(","))))
                if args.families else tuple(sorted(FUZZ_SEED_MIXES)))
    unknown = set(families) - set(FUZZ_SEED_MIXES)
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")
    config = FuzzConfig(
        seed=args.seed, max_cases=args.cases, batch=args.batch,
        feedback=not args.no_feedback, families=families,
        max_ops=args.max_ops, minimize=not args.no_minimize,
        time_budget=args.time_budget)
    engine = None
    registry = MetricsRegistry()
    if args.jobs != 1:
        engine = ShardEngine(jobs=args.jobs, registry=registry)
    fuzzer = FuzzEngine(config, engine=engine, registry=registry)
    if args.reuse_corpus:
        reuse_corpus_seeds(fuzzer, args.corpus)
    result = fuzzer.run()
    if args.corpus:
        write_corpus(args.corpus, result, args.html)
    if args.metrics:
        dump_metrics(registry, "fuzz")
    if args.json:
        print_json(result.summary())
    else:
        print(render_text(result.summary(), result.finding_list()))
    return 1 if result.findings and args.check else 0


def replay_case(corpus: Corpus, digest: str, as_json: bool) -> int:
    """Re-execute one corpus case or finding in-process and report."""
    finding = corpus.load_finding(digest)
    case = (FuzzCase.from_fields(finding["case"]) if finding
            else corpus.load_case(digest))
    if case is None:
        raise ValueError(f"no case or finding {digest!r} in {corpus.root}")
    outcome = run_case_task(case.to_fields())
    if outcome["error"] is not None:
        print(f"harness error: {outcome['error']}", file=sys.stderr)
        return 2
    if as_json:
        print_json({"digest": digest, "case": case.to_fields(),
                    "violations": outcome["violations"],
                    "points": outcome["points"],
                    "edges": len(outcome["edges"])})
    else:
        print(f"case {digest}: {len(case.schedule)} ops, "
              f"{outcome['points']} crash points, "
              f"{len(outcome['edges'])} edges")
        if finding:
            print(f"expected: [{finding['invariant']}] at "
                  f"{finding['site']} ({finding['variant']})")
        if outcome["violations"]:
            for violation in outcome["violations"]:
                print(f"  [{violation['invariant']}] at "
                      f"{violation['site']} point #{violation['point']} "
                      f"({violation['variant']})")
                print(f"      {violation['message']}")
        else:
            print("  no invariant violations — case recovered clean")
    return 1 if outcome["violations"] else 0


def cmd_triage(args) -> int:
    corpus = Corpus(args.corpus)
    if args.case is not None:
        code = replay_case(corpus, args.case, args.json)
        return code if args.check or code == 2 else 0
    try:
        summary = corpus.load_campaign()
    except FileNotFoundError:
        raise ValueError(f"no campaign.json in {args.corpus} — "
                         "run with --corpus first")
    findings = sorted(corpus.load_findings(), key=lambda f: f["digest"])
    if args.html:
        cases = corpus_case_rows(corpus.load_cases(), summary["corpus"])
        path = corpus.write_report(render_html(summary, findings, cases))
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print_json({"summary": summary, "findings": findings})
    else:
        print(render_text(summary, findings))
    return 1 if findings and args.check else 0


def cmd_compare(args) -> int:
    diff = compare_campaigns(Corpus(args.corpus_a).load_campaign(),
                             Corpus(args.corpus_b).load_campaign())
    if args.json:
        print_json(diff)
    else:
        print(render_compare_text(diff))
    return 0


@exit_boundary(FuzzShardError)
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "triage":
        return cmd_triage(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
