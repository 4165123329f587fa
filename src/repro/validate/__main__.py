"""CLI: ``python -m repro.validate``.

Modes:

* ``--fuzz N`` — run N randomized workload-fuzzer rounds (all schemes x
  configs, invariants + metamorphic properties + differential oracle);
* ``--app NAME`` — validate one catalog app's baseline trace
  (invariants on every hardware variant + differential oracle).

On failure a JSON violation report is written (``--report``, default
``validate-report.json``) for CI artifact upload, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from repro.cache import reset_cache
from repro.validate.invariants import RunValidator, ValidationReport


def _validate_app(name: str, walk_blocks: int) -> List[ValidationReport]:
    """Invariant + differential sweep over one catalog app."""
    from repro.cpu.config import GOOGLE_TABLET, HARDWARE_VARIANTS
    from repro.cpu.pipeline import simulate
    from repro.experiments.runner import app_context
    from repro.validate.differential import differential_check

    ctx = app_context(name, walk_blocks)
    trace = ctx.trace()
    validator = RunValidator(strict=False)
    configs = [GOOGLE_TABLET] + [make() for make in
                                 HARDWARE_VARIANTS.values()]
    for config in configs:
        simulate(trace, config, validator=validator, engine="inline")
    reports = list(validator.reports)
    reports.append(differential_check(trace, GOOGLE_TABLET))
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Pipeline invariants, differential oracle, and "
                    "workload fuzzing.",
    )
    parser.add_argument("--fuzz", type=int, metavar="N", default=0,
                        help="run N workload-fuzzer rounds")
    parser.add_argument("--seed", type=int, default=3,
                        help="fuzzer RNG seed (default 3)")
    parser.add_argument("--walk-blocks", type=int, default=120,
                        help="dynamic blocks per fuzzed walk (default 120)")
    parser.add_argument("--app", action="append", default=[],
                        metavar="NAME",
                        help="validate a catalog app (repeatable)")
    parser.add_argument("--no-differential", action="store_true",
                        help="skip the in-order differential oracle")
    parser.add_argument("--report", default="validate-report.json",
                        help="violation report path (written on failure)")
    args = parser.parse_args(argv)
    if not args.fuzz and not args.app:
        parser.error("nothing to do: pass --fuzz N and/or --app NAME")

    # Fuzzed profiles are throwaway: never persist their artifacts (the
    # env still wins if the caller insists on a cache).
    if "REPRO_CACHE" not in os.environ:
        os.environ["REPRO_CACHE"] = "0"
        reset_cache()

    reports: List[ValidationReport] = []
    checked = 0
    simulations = 0

    for name in args.app:
        app_reports = _validate_app(name, args.walk_blocks)
        simulations += len(app_reports)
        reports.extend(app_reports)
        bad = sum(1 for r in app_reports if not r.ok)
        print(f"app {name}: {len(app_reports)} checks, "
              f"{bad} violation report(s)")

    if args.fuzz:
        from repro.validate.fuzz import run_fuzz

        result = run_fuzz(
            args.fuzz, seed=args.seed, walk_blocks=args.walk_blocks,
            differential=not args.no_differential,
            progress=lambda line: print(line, flush=True),
        )
        checked += result.properties_checked
        simulations += result.simulations
        reports.extend(result.reports)

    failures = [r for r in reports if not r.ok]
    total_violations = sum(len(r.violations) for r in failures)
    print(
        f"validate: {len(reports)} reports, {simulations} simulations, "
        f"{checked} metamorphic properties, "
        f"{total_violations} violation(s)"
    )
    if failures:
        payload = {
            "seed": args.seed,
            "reports": [r.to_dict() for r in failures],
        }
        try:
            with open(args.report, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"violation report written to {args.report}",
                  file=sys.stderr)
        except OSError as exc:
            print(f"could not write {args.report}: {exc}", file=sys.stderr)
        for report in failures[:10]:
            print(report.summary(), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
