"""Span tracer that wraps javastyle's functions from outside the package.

Each target names a module attribute as the caller sees it, for example
``analysis.parse_compilation_unit`` is the parser as called by the
analysis loop, and ``checkers.resolve_override`` the resolver as called
by the checks. The wrapper records one span per call and hands the
arguments and the result through untouched. A target whose module or
attribute no longer exists is reported as absent, so code that moves
stays measurable instead of breaking the run.

Spans stay in memory. Self time is computed as each span closes: its
duration minus the time covered by its child spans. A span that starts
on a thread with no open span (a ``corpus --jobs`` worker) is charged to
the root span that covers it, as the union of such intervals, so a
thread pool never makes a layer's self time negative.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter

LAYERS = ("cli", "discovery", "analysis", "lexer", "parser", "javadoc",
          "project_index", "checkers", "lexicon", "scoring", "claims",
          "report", "history")

CHECK_FUNCTIONS = (
    "check_class_names", "check_method_names", "check_variable_names",
    "check_package_names", "check_javadoc_presence",
    "check_javadoc_formatting", "check_missing_override", "check_empty_catch",
    "check_unqualified_static", "check_finalize_override",
    "check_private_instances", "check_string_concatenation", "check_useless",
    "check_ordering",
)


# (module, attribute path, layer); the root span comes first.
TARGETS = (
    ("cli", "main", "cli"),
    ("cli", "analyze_repository", "analysis"),
    ("cli", "evolve", "history"),
    ("cli", "scan_claims", "claims"),
    ("cli", "emit_report", "report"),
    ("cli", "evolution_rows", "report"),
    ("cli", "emit_corpus_csv", "report"),
    ("cli", "config_digest", "report"),
    ("cli", "aggregate", "scoring"),
    ("cli", "threshold_table", "scoring"),
    ("analysis", "discover_sources", "discovery"),
    ("analysis", "load_lexicon", "lexicon"),
    ("analysis", "parse_compilation_unit", "parser"),
    ("parser", "tokenize", "lexer"),
    ("parser", "extract_javadoc", "javadoc"),
    ("analysis", "build_project_index", "project_index"),
    ("analysis", "run_all", "checkers"),
    *(("checkers", name, "checkers") for name in CHECK_FUNCTIONS),
    ("checkers", "resolve_override", "project_index"),
    ("scoring", "resolve_override", "project_index"),
    ("checkers", "resolve_static_access", "project_index"),
    ("scoring", "resolve_static_access", "project_index"),
    ("checkers", "split_identifier", "lexicon"),
    ("checkers", "matches_casing", "lexicon"),
    ("lexicon", "Lexicon.categories_with_fallback", "lexicon"),
    ("analysis", "count_constructs", "scoring"),
    ("analysis", "normalize", "scoring"),
    ("analysis", "total_normalized", "scoring"),
    ("analysis", "classify_adherence", "scoring"),
)


# span name -> (count name, amount of work in one call's result or args)
COUNTS = {
    "analysis.discover_sources": ("discovery.files", lambda r, a: len(r)),
    "parser.tokenize": ("lexer.tokens", lambda r, a: len(r[0])),
    "analysis.build_project_index": ("project_index.types",
                                     lambda r, a: len(r.by_qualified)),
    "analysis.run_all": ("checkers.violations", lambda r, a: len(r)),
    "cli.evolve": ("history.snapshots",
                   lambda r, a: sum(1 for s in r if not s.failed)),
}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class Tracer:
    def __init__(self, package: str = "javastyle", targets=TARGETS):
        self.package = package
        self.targets = targets
        # span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._parsed: set = set()
        self._orphans: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._undo: list = []

    def _new_parse(self, result, args) -> int:
        key = (args[1], hash(args[0]))  # (path, text)
        if key in self._parsed:
            return 0
        self._parsed.add(key)
        return 1

    def install(self) -> None:
        for module_name, attr_path, layer in self.targets:
            name = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(f"{self.package}.{module_name}")
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self.layer_of[name] = layer
            self.stats[name] = [0, 0.0, 0.0]
            count = COUNTS.get(name)
            if name == "analysis.parse_compilation_unit":
                count = ("parser.distinct", self._new_parse)
            setattr(owner, attr, self._wrap(name, fn, count))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn, count):
        stat = self.stats[name]
        counts = self.counts
        local, lock, main = self._local, self._lock, self._main
        orphans = self._orphans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = clock()
                stack.pop()
                duration = stop - start
                child = frame[0]
                with lock:
                    if stack:
                        stack[-1][0] += duration
                    elif threading.current_thread() is not main:
                        orphans.append((start, stop))
                    else:
                        inside = [(max(a, start), min(b, stop))
                                  for a, b in orphans if a < stop and b > start]
                        child += _union_length(inside)
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += max(0.0, duration - child)
            if count is not None:
                key, amount = count
                with lock:
                    counts[key] += amount(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {"stats": self.stats, "layers": self.layer_of,
                "counts": dict(self.counts), "absent": list(self.absent)}


def layer_metrics(summary: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    `wall_s` is the operation's wall time seen from outside its process.
    Metrics of absent spans read 0; their names are in summary["absent"].
    """
    stats, layers, counts = summary["stats"], summary["layers"], summary["counts"]

    def total(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s[2] for n, s in stats.items()
                                     if layers[n] == layer)
    out["discovery.files"] = counts.get("discovery.files", 0)
    tokenize_s = total("parser.tokenize")
    out["lexer.tokens"] = counts.get("lexer.tokens", 0)
    out["lexer.tokens_per_s"] = out["lexer.tokens"] / tokenize_s if tokenize_s else 0.0
    parses = calls("analysis.parse_compilation_unit")
    out["parser.calls"] = parses
    out["parser.useful_ratio"] = counts.get("parser.distinct", 0) / parses if parses else 0.0
    out["javadoc.calls"] = calls("parser.extract_javadoc")
    out["project_index.types"] = counts.get("project_index.types", 0)
    for resolver in ("resolve_override", "resolve_static_access"):
        sites = (f"checkers.{resolver}", f"scoring.{resolver}")
        out[f"project_index.{resolver}.calls"] = calls(*sites)
        out[f"project_index.{resolver}.s"] = total(*sites)
    for fn in CHECK_FUNCTIONS:
        out[f"checkers.{fn}.s"] = total(f"checkers.{fn}")
    out["checkers.violations"] = counts.get("checkers.violations", 0)
    out["scoring.count_constructs.s"] = total("analysis.count_constructs")
    out["history.snapshots"] = counts.get("history.snapshots", 0)
    main_s = total("cli.main")
    out["cli.corpus_concurrency"] = (total("cli.analyze_repository") / main_s
                                     if main_s else 0.0)
    out["trace.unattributed_s"] = max(0.0, wall_s - main_s)
    out["trace.absent_spans"] = len(summary["absent"])
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the form of its name."""
    if name.endswith((".files", ".tokens", ".calls", ".types", ".violations",
                      ".snapshots", ".absent_spans")):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_concurrency")):
        return "ratio"
    return "s"

