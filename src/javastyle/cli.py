"""Command-line interface.

Subcommands: analyze (score one repository), evolve (monthly history
replay), claims (documentation scan), sample (stratified violation
draw from saved reports), corpus (batch analyze and aggregate).

Exit codes: 0 success, 1 threshold breach under --fail-over, 2 usage
or configuration error, 3 fatal I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import posixpath
import sys
from functools import partial

from . import __version__
from .analysis import (DEFAULT_ORDERING_ID, MIN_FILES_PER_WORKER,
                       AnalysisConfig, analyze_repository, load_lexicon)
from .checkers import ORDERING_CONFIGS, Category, Violation
from .lexicon import LexiconError
from .report import (Report, config_digest, emit_corpus_csv, evolution_rows,
                     report_chunks)
from .scoring import (DEFAULT_ADHERENCE_THRESHOLD, aggregate,
                      stratified_sample, threshold_table)

EXIT_OK = 0
EXIT_FAIL_OVER = 1
EXIT_USAGE = 2
EXIT_FATAL = 3

CONFIG_ENV_VAR = "JAVASTYLE_CONFIG"
_CONFIG_KEYS = ("threshold", "ordering", "lexicon", "exclude")


class ConfigError(Exception):
    """Malformed configuration file or invalid setting value."""


class FatalError(Exception):
    """Unrecoverable input problem outside the OSError family."""


def parse_config_file(path: str) -> dict:
    """Read `key=value` lines; keys: threshold, ordering, lexicon, exclude.

    Blank lines and `#` comments are ignored. `exclude` may repeat.
    """
    settings: dict = {"excludes": []}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in _CONFIG_KEYS or not value:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value with key one of "
                    f"{', '.join(_CONFIG_KEYS)}")
            try:
                if key == "threshold":
                    settings["threshold"] = float(value)
                elif key == "ordering":
                    settings["ordering"] = int(value)
                elif key == "lexicon":
                    settings["lexicon"] = value
                else:
                    settings["excludes"].append(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return settings


def _exclude_prefix(prefix: str) -> str:
    """An exclude prefix in the form discovery gives paths: relative,
    "/"-separated, without ".", ".." or empty segments."""
    clean = posixpath.normpath(prefix)
    if clean == "." or clean.startswith("/") or \
            clean.split("/", 1)[0] == "..":
        raise ConfigError(f"exclude prefix must name a path inside the "
                          f"repository: {prefix!r}")
    return clean


def merged_config(args: argparse.Namespace) -> AnalysisConfig:
    """Combine defaults, config file, and CLI flags (flags win)."""
    settings: dict = {"excludes": []}
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        settings = parse_config_file(config_path)
    threshold = (args.threshold if args.threshold is not None
                 else settings.get("threshold", DEFAULT_ADHERENCE_THRESHOLD))
    ordering = (args.ordering if args.ordering is not None
                else settings.get("ordering", DEFAULT_ORDERING_ID))
    lexicon = (args.lexicon if args.lexicon is not None
               else settings.get("lexicon"))
    excludes = tuple(_exclude_prefix(p) for p in
                     (args.exclude or settings.get("excludes", ())))
    if ordering not in ORDERING_CONFIGS:
        raise ConfigError(f"unknown ordering config: {ordering}")
    return AnalysisConfig(threshold=threshold, ordering_id=ordering,
                          lexicon_path=lexicon, excludes=excludes)


def _write(payload: bytes) -> None:
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()


def _write_json(data) -> None:
    _write((json.dumps(data, indent=2) + "\n").encode())


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _below_one(option: str, value: int) -> bool:
    """Report a count option below 1 as a usage error."""
    if value >= 1:
        return False
    print(f"error: {option} must be at least 1, got {value}", file=sys.stderr)
    return True


# Only `evolve` replays history, which loads subprocess and datetime, and
# only `analyze` and `claims` scan claims: each module loads on the first
# call. The names stay in this module, where perfbench's tracer wraps them.
def evolve(path: str, analyze_fn, **options):
    """history.evolve, imported on first use."""
    from .history import evolve as replay
    return replay(path, analyze_fn, **options)


def scan_claims(path: str, deep: bool = False):
    """claims.scan_claims, imported on first use."""
    from .claims import scan_claims as scan
    return scan(path, deep=deep)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if _below_one("--jobs", args.jobs):
        return EXIT_USAGE
    config = merged_config(args)
    result = analyze_repository(args.path, config, jobs=args.jobs)
    claim = scan_claims(args.path, deep=args.deep_claims)
    report = Report(
        repo_path=args.path,
        config_digest=config_digest(config.threshold, config.ordering_id,
                                    config.lexicon_path, config.excludes),
        counts=result.counts,
        scores=result.scores,
        total_normalized=result.total_normalized,
        verdict=result.verdict,
        claim=claim,
        violations=result.violations,
        diagnostics=result.diagnostics,
    )
    out = sys.stdout.buffer
    for chunk in report_chunks(report, args.format):
        out.write(chunk)
    out.flush()
    if args.fail_over and not all(result.verdict.per_category.values()):
        return EXIT_FAIL_OVER
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from .history import HistoryError, spacing_report

    config = merged_config(args)
    as_of = None
    if args.as_of:
        try:
            as_of = datetime.strptime(args.as_of, "%Y-%m-%d").replace(
                tzinfo=timezone.utc)
        except ValueError:
            print(f"error: --as-of expects YYYY-MM-DD, got {args.as_of!r}",
                  file=sys.stderr)
            return EXIT_USAGE

    if _below_one("--months", args.months):
        return EXIT_USAGE
    # Each snapshot reuses the previous one's unchanged files: their
    # parses and file-scope check results.
    reuse: dict = {}

    def analyze_fn(snapshot):
        result = analyze_repository(snapshot, config, reuse=reuse)
        return result.scores, result.total_normalized

    try:
        samples = evolve(args.path, analyze_fn, months=args.months,
                         as_of=as_of, force=args.force)
    except HistoryError as exc:
        raise FatalError(str(exc)) from exc
    selected = [s.commit for s in samples if s.commit is not None]
    _write_json({
        "repo": args.path,
        "months": args.months,
        "asOf": args.as_of,
        "minGapDays": spacing_report(selected),
        "samples": evolution_rows(samples),
    })
    return EXIT_OK


def _cmd_claims(args: argparse.Namespace) -> int:
    result = scan_claims(args.path, deep=args.deep_claims)
    _write_json({
        "repo": args.path,
        "category": result.category,
        "evidence": [{"file": e.file, "line": e.line, "matched": e.matched}
                     for e in result.evidence],
    })
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    if _below_one("--groups", args.groups):
        return EXIT_USAGE
    try:
        names = sorted(n for n in os.listdir(args.scores_dir)
                       if n.endswith(".json"))
    except OSError as exc:
        raise FatalError(f"cannot list {args.scores_dir}: {exc}") from exc
    if not names:
        raise FatalError(f"no .json reports in {args.scores_dir}")

    repo_violations: list[list[Violation]] = []
    repo_names: list[str] = []
    for name in names:
        full = os.path.join(args.scores_dir, name)
        try:
            with open(full, encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FatalError(f"{full}: not a valid JSON report: {exc}") from exc
        if not isinstance(data, dict):
            raise FatalError(f"{full}: not a JSON report object")
        try:
            violations = [
                Violation(Category(v["category"]), v["file"], v["line"],
                          v["message"], v.get("detail", ""))
                for v in data.get("violations", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise FatalError(f"{full}: malformed violation entry: {exc}") from exc
        repo_violations.append(violations)
        repo_names.append(data.get("repo", name))

    try:
        result = stratified_sample(repo_violations, groups=args.groups,
                                   seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_json({
        "groups": args.groups,
        "seed": args.seed,
        "repos": len(repo_names),
        "samples": {
            cat.value: [
                {"group": s.group, "repo": repo_names[s.repo_position],
                 "file": s.violation.file_path, "line": s.violation.line,
                 "message": s.violation.message}
                for s in picked
            ]
            for cat, picked in result.samples.items()
        },
        "diagnostics": result.diagnostics,
    })
    return EXIT_OK


def _corpus_scores(path: str, config: AnalysisConfig) -> dict[Category, float]:
    """One corpus repository's normalized score per category."""
    result = analyze_repository(path, config)
    return {s.category: s.normalized for s in result.scores}


def _cmd_corpus(args: argparse.Namespace) -> int:
    if _below_one("--jobs", args.jobs):
        return EXIT_USAGE
    config = merged_config(args)
    try:
        with open(args.paths_file, encoding="utf-8") as fh:
            paths = [line.strip() for line in fh
                     if line.strip() and not line.strip().startswith("#")]
    except OSError as exc:
        raise FatalError(f"cannot read paths file: {exc}") from exc
    if not paths:
        raise FatalError(f"no repository paths in {args.paths_file}")

    load_lexicon(config)  # once, for the workers to inherit
    score = partial(_corpus_scores, config=config)
    if args.jobs > 1:
        from .workers import map_in_processes
        per_repo = list(map_in_processes(score, paths, args.jobs))
    else:
        per_repo = [score(p) for p in paths]

    stats = aggregate(per_repo)
    table = threshold_table(per_repo)
    if args.format == "csv":
        _write(emit_corpus_csv(stats, table))
    else:
        _write_json({
            "repos": len(paths),
            "stats": {
                cat.value: {
                    "min": round(stats[cat].minimum, 4),
                    "max": round(stats[cat].maximum, 4),
                    "mean": round(stats[cat].mean, 4),
                    "median": round(stats[cat].median, 4),
                }
                for cat in Category
            },
            "thresholdTable": {
                cat.value: [{"threshold": t, "percent": pct}
                            for t, pct in table[cat]]
                for cat in Category
            },
        })
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key=value settings file "
                             f"(or ${CONFIG_ENV_VAR})")
    parser.add_argument("--threshold", type=float, default=None,
                        metavar="T", help="adherence threshold (default 0.05)")
    parser.add_argument("--ordering", type=int,
                        choices=sorted(ORDERING_CONFIGS), default=None,
                        help="member ordering convention")
    parser.add_argument("--lexicon", metavar="FILE", default=None,
                        help="word category lexicon (default: bundled)")
    parser.add_argument("--exclude", action="append", metavar="PREFIX",
                        default=None,
                        help="repo-relative path prefix to skip (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="javastyle",
        description="Audit Java repositories for style and best-practice "
                    "adherence.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="score one repository")
    p.add_argument("path", help="repository root")
    p.add_argument("--format", choices=("json", "markdown", "csv"),
                   default="json")
    p.add_argument("--fail-over", action="store_true",
                   help="exit 1 when any category score reaches the threshold")
    p.add_argument("--deep-claims", action="store_true",
                   help="also scan docs/ for style claims")
    p.add_argument("--jobs", type=int, metavar="N", default=usable_cpus(),
                   help="use N processes, this one and N - 1 forked "
                        "workers, once each gets at least "
                        f"{MIN_FILES_PER_WORKER} files; the report is the "
                        "same for every N (default: usable CPUs, %(default)s)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("evolve", help="replay monthly history")
    p.add_argument("path", help="git repository root")
    p.add_argument("--months", type=int, default=12)
    p.add_argument("--as-of", metavar="DATE",
                   help="window reference date YYYY-MM-DD (default: today)")
    p.add_argument("--force", action="store_true",
                   help="skip the age/activity eligibility gate")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("claims", help="classify documented style claims")
    p.add_argument("path", help="repository root")
    p.add_argument("--deep-claims", action="store_true",
                   help="also scan docs/ for style claims")
    p.set_defaults(func=_cmd_claims)

    p = sub.add_parser("sample", help="stratified violation sample "
                                      "from saved JSON reports")
    p.add_argument("scores_dir", help="directory of analyze --format json "
                                      "outputs")
    p.add_argument("--groups", type=int, default=31)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("corpus", help="batch analyze and aggregate")
    p.add_argument("paths_file", help="file with one repository path per line")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, metavar="N", default=1,
                   help="use N processes, this one and N - 1 forked "
                        "workers, one repository at a time each; the output "
                        "is the same for every N (default 1)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, LexiconError, FatalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
