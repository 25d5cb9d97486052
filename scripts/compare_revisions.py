"""Compare this checkout's javastyle with a base on the same inputs.

    python3 scripts/compare_revisions.py [--base REV|DIR] [--inputs SETS]
        [--mutations N] [--work DIR]

The base is a git revision of this repository, whose ``src/`` is
extracted with ``git archive`` (default ``HEAD``), or a directory of
sources: one that holds ``javastyle/``, or a checkout that holds
``src/javastyle/``. Each side runs in interpreters of its own over the
same inputs, built once:

* ``fixtures``: the files of ``tests/fixtures``, and a tree of copies
  of them large enough for ``analyze --jobs 2`` to fork a worker, with
  a few files that it skips, each with its diagnostic;
* ``flat``, ``corpus``, ``history``: the trees that ``perfbench/gen.py``
  builds from seeds 5 and 29, at the benchmark's sizes;
* ``mutations``: N seeded edits of the fixtures and of the sample files
  in ``tests/test_parser.py``, which insert, delete or repeat tokens or
  the snippets of that test file.

For each file it compares the parse (the model's repr, or the error it
raised), the file record and the file-scope check outcome. For each tree
it compares the stdout, stderr and exit code of the CLI: ``analyze`` at
``--jobs 1`` and ``2`` on the fixtures, their copies and the flat trees,
and once on the fixtures with ``--config`` naming a copy of the bundled
lexicon; ``corpus`` at ``--jobs 1`` and ``2`` and, at ``--jobs 2``, with
``--format csv`` on the corpus listings; and ``evolve`` on the histories.

It prints a digest per input set and side, then each input that differs
with where the first ones differ, and exits 1 on any difference, 0 when
there is none and 2 when it cannot run. A performance or simplicity
change expects no difference; a spec fix names the ones it expects.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
SETS = ("fixtures", "flat", "corpus", "history", "mutations")
SEEDS = (5, 29)
# The sample files of tests/test_parser.py that mutations start from,
# besides the fixtures, and the list of snippets they insert.
SAMPLE_NAMES = ("SAMPLE", "NESTED", "RECEIVER_SHAPES", "SHAPES")
SNIPPET_NAME = "_SNIPPETS"
# How often an inserted snippet repeats: a few times, or deep enough to
# pass the parser's nesting limit.
REPEATS = (1, 2, 3, 300)
SHOWN_DIFFS = 3
# Files that analyze skips, added to the copies of the fixtures so that
# skipped-file diagnostics come from the worker map too: one not UTF-8,
# one that does not parse and one nested past the parser's limit.
SKIPPED = {
    "a/Mangled.java": b"package a;\nclass Mangled { // caf\xe9\n}\n",
    "copy1/Broken.java": b"package p;\nclass Broken {\n  void f( {\n}\n",
    "zz/Deep.java": b"class A {" * 3000 + b"}" * 3000,
}
_CLI = "import sys; from javastyle.cli import main; sys.exit(main(sys.argv[1:]))"


# ---------------------------------------------------------------------------
# one side: parse, record and check each listed file


def run_worker(manifest_path: str) -> int:
    """Print one JSON line per listed file: its id and each outcome, as a
    SHA-256 or, with "full" set, in full."""
    from javastyle.analysis import AnalysisConfig, decode_source, load_lexicon
    from javastyle.checkers import ORDERING_CONFIGS, CheckContext, check_file
    from javastyle.parser import parse_compilation_unit
    from javastyle.project_index import file_record

    config = AnalysisConfig()
    ctx = CheckContext(None, load_lexicon(config),
                       ORDERING_CONFIGS[config.ordering_id])
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = sys.stdout
    for ident, path, rel in manifest["files"]:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            model = parse_compilation_unit(decode_source(data), rel)
            facts = {"parse": repr(model), "record": repr(file_record(model)),
                     "checks": repr(check_file(model, ctx))}
        except Exception as exc:  # a crash is an outcome to compare too
            facts = {"parse": f"{type(exc).__name__}: {exc}"}
        if not manifest["full"]:
            facts = {k: hashlib.sha256(v.encode()).hexdigest()
                     for k, v in facts.items()}
        out.write(json.dumps([ident, facts]) + "\n")
    return 0


# ---------------------------------------------------------------------------
# the inputs


class InputSet:
    """Files to parse, with their ids, and CLI calls to run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.files: list[tuple[str, str, str]] = []  # (id, path, rel)
        self.calls: list[tuple[str, list[str], dict | None]] = []

    def add_tree(self, root: str) -> None:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != ".git")
            for name in sorted(filenames):
                if name.endswith(".java"):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, root).replace(os.sep, "/")
                    self.files.append((f"{self.name}:{rel}", path, rel))

    def add_analyze(self, root: str, label: str = "analyze") -> None:
        for jobs in ("1", "2"):
            self.calls.append((f"{label} --jobs {jobs}", [
                "analyze", root, "--deep-claims", "--format", "json",
                "--jobs", jobs], None))


def copy_fixtures(root: str, copies: int) -> None:
    """`copies` copies of the fixtures, plus the SKIPPED files and one that
    cannot be read (a dangling link)."""
    for n in range(copies):
        shutil.copytree(FIXTURES, os.path.join(root, f"copy{n}"))
    for rel, data in SKIPPED.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    os.symlink(os.path.join(root, "nowhere.java"),
               os.path.join(root, "copy0", "Gone.java"))


def _test_parser_constants() -> dict:
    """The samples and snippets of tests/test_parser.py, read without
    importing the test module."""
    with open(os.path.join(ROOT, "tests", "test_parser.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    wanted = {*SAMPLE_NAMES, SNIPPET_NAME}
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in wanted}


def mutations(count: int) -> list[str]:
    """`count` texts, each a fixture or sample file with one to three
    tokens deleted, repeated or preceded by snippets, mostly inside member
    bodies (brace depth two or more)."""
    from javastyle.lexer import tokenize

    constants = _test_parser_constants()
    fixtures = InputSet("fixtures")
    fixtures.add_tree(FIXTURES)
    texts = []
    for _, path, _ in fixtures.files:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    texts += [constants[name] for name in SAMPLE_NAMES]
    snippets = constants[SNIPPET_NAME]
    spans_of = []
    for text in texts:
        stream = tokenize(text)
        spans, in_bodies, depth = [], [], 0
        for k, (value, start) in enumerate(zip(stream.values, stream.starts)):
            spans.append((start, len(value)))
            if depth >= 2:
                in_bodies.append(k)
            depth += (value == "{") - (value == "}")
        spans_of.append((spans, in_bodies or list(range(len(spans)))))

    rng = random.Random("mutations")
    out = []
    for _ in range(count):
        which = rng.randrange(len(texts))
        text, (spans, in_bodies) = texts[which], spans_of[which]
        edits = {}
        for _ in range(rng.randint(1, 3)):
            k = rng.choice(in_bodies) if rng.random() < 0.5 \
                else rng.randrange(len(spans))
            edits[k] = (rng.choice(("insert", "delete", "duplicate")),
                        rng.choice(snippets), rng.choice(REPEATS))
        for k in sorted(edits, reverse=True):
            how, snippet, times = edits[k]
            start, length = spans[k]
            if how == "duplicate":
                snippet = text[start:start + length]
            if how == "delete":
                text = text[:start] + text[start + length:]
            else:
                text = text[:start] + (snippet + "\n") * times + text[start:]
        out.append(text)
    return out


def build_inputs(work: str, sets: list[str], count: int) -> list[InputSet]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    built = []
    if "fixtures" in sets:
        fixtures = InputSet("fixtures")
        fixtures.add_tree(FIXTURES)
        fixtures.add_analyze(FIXTURES)
        # Two processes' worth of files, so that --jobs 2 forks a worker.
        from javastyle.analysis import MIN_FILES_PER_WORKER

        root = os.path.join(work, "fixture-copies")
        copy_fixtures(root, -(-2 * MIN_FILES_PER_WORKER
                              // len(fixtures.files)))
        fixtures.add_analyze(root, "copies: analyze")
        # The config and lexicon readers too: a config file naming a copy
        # of the bundled lexicon, which gives the default report.
        lexicon = os.path.join(work, "lexicon.txt")
        shutil.copyfile(os.path.join(ROOT, "src", "javastyle", "data",
                                     "lexicon.txt"), lexicon)
        config = os.path.join(work, "style.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"# the bundled lexicon, as a file\nlexicon = {lexicon}\n")
        fixtures.calls.append(("analyze --config", [
            "analyze", FIXTURES, "--config", config], None))
        built.append(fixtures)
    for seed in SEEDS:
        if "flat" in sets:
            flat = InputSet(f"flat-{seed}")
            root = os.path.join(work, flat.name)
            gen.build_flat(root, seed)
            flat.add_tree(root)
            flat.add_analyze(root)
            built.append(flat)
        if "corpus" in sets:
            corpus = InputSet(f"corpus-{seed}")
            root = os.path.join(work, corpus.name)
            facts = gen.build_corpus(root, seed)
            corpus.add_tree(root)
            for options in (["--jobs", "1"], ["--jobs", "2"],
                            ["--jobs", "2", "--format", "csv"]):
                corpus.calls.append(("corpus " + " ".join(options), [
                    "corpus", facts["paths_file"], *options], None))
            built.append(corpus)
        if "history" in sets:
            history = InputSet(f"history-{seed}")
            root = os.path.join(work, history.name)
            facts = gen.build_history(root, seed)
            history.add_tree(facts["repo"])
            history.calls.append(("evolve", [
                "evolve", facts["repo"], "--months", str(facts["months"]),
                "--as-of", facts["as_of"]], gen.git_env(root)))
            built.append(history)
    if "mutations" in sets and count:
        mutated = InputSet("mutations")
        folder = os.path.join(work, "mutations")
        os.makedirs(folder)
        for n, text in enumerate(mutations(count)):
            rel = f"Mutation{n:05d}.java"
            path = os.path.join(folder, rel)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            mutated.files.append((f"mutations:{rel}", path, rel))
        built.append(mutated)
    return built


# ---------------------------------------------------------------------------
# the two sides


def base_sources(base: str, work: str) -> str:
    """The directory that holds the base's `javastyle` package."""
    if os.path.isdir(base):
        for candidate in (base, os.path.join(base, "src")):
            if os.path.isfile(os.path.join(candidate, "javastyle", "cli.py")):
                return os.path.abspath(candidate)
        raise SystemExit(f"error: no javastyle sources under {base}")
    done = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                           base, "src"], capture_output=True)
    if done.returncode != 0:
        raise SystemExit("error: git archive failed: "
                         + done.stderr.decode(errors="replace").strip())
    target = os.path.join(work, "base")
    os.makedirs(target)
    subprocess.run(["tar", "-x", "-C", target], input=done.stdout, check=True)
    return os.path.join(target, "src")


def side_env(src: str, extra: dict | None = None) -> dict:
    env = dict(extra or os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def file_outcomes(sides: dict[str, str], files: list[tuple[str, str, str]],
                  work: str, full: bool) -> dict[str, dict[str, dict]]:
    """Per side, id -> outcomes of each file; both sides run at once."""
    manifest = os.path.join(work, "manifest-full.json" if full
                            else "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"files": files, "full": full}, fh)
    running = {
        side: subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", manifest],
            env=side_env(src), stdout=subprocess.PIPE, cwd=work)
        for side, src in sides.items()}
    found = {}
    for side, proc in running.items():
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"error: the {side} worker exited "
                             f"{proc.returncode}")
        found[side] = dict(json.loads(line) for line in out.splitlines())
    return found


def run_call(src: str, argv: list[str], env: dict | None,
             work: str) -> dict[str, str]:
    done = subprocess.run([sys.executable, "-c", _CLI, *argv],
                          env=side_env(src, env), capture_output=True,
                          cwd=work)
    # The inputs' directory is named in place of its path, so that the
    # digests do not change from run to run.
    return {"exit": str(done.returncode),
            "stdout": done.stdout.decode("utf-8", "replace").replace(
                work, "$WORK"),
            "stderr": done.stderr.decode("utf-8", "replace").replace(
                work, "$WORK")}


def first_difference(name: str, base: str, head: str) -> list[str]:
    """Where two outcomes first differ, with a little context."""
    at = next((i for i, (a, b) in enumerate(zip(base, head)) if a != b),
              min(len(base), len(head)))
    lo = max(0, at - 60)
    return [f"  {name} differs at character {at}:",
            f"    base: {base[lo:at + 60]!r}",
            f"    head: {head[lo:at + 60]!r}"]


# ---------------------------------------------------------------------------


def compare(sides: dict[str, str], built: list[InputSet], work: str) -> int:
    files = [f for s in built for f in s.files]
    outcomes = file_outcomes(sides, files, work, full=False)
    differing: list[str] = []
    shown: list[tuple[str, str]] = []  # (id, first differing outcome)
    report: list[str] = []
    for input_set in built:
        digests = {side: hashlib.sha256() for side in sides}
        for ident, _, _ in input_set.files:
            facts = {side: outcomes[side][ident] for side in sides}
            for side in sides:
                digests[side].update(
                    json.dumps([ident, facts[side]], sort_keys=True).encode())
            if facts["base"] != facts["head"]:
                keys = sorted(k for k in facts["base"].keys() | facts["head"]
                              if facts["base"].get(k) != facts["head"].get(k))
                differing.append(f"{ident} ({', '.join(keys)})")
                shown.append((ident, keys[0]))
        for label, argv, env in input_set.calls:
            results = {side: run_call(src, argv, env, work)
                       for side, src in sides.items()}
            for side in sides:
                digests[side].update(json.dumps([label, results[side]],
                                                sort_keys=True).encode())
            if results["base"] != results["head"]:
                keys = [k for k in ("exit", "stdout", "stderr")
                        if results["base"][k] != results["head"][k]]
                differing.append(f"{input_set.name}: {label} "
                                 f"({', '.join(keys)})")
                report += [f"{input_set.name}: {label}"] + [
                    line for k in keys for line in first_difference(
                        k, results["base"][k], results["head"][k])]
        base_digest, head_digest = (digests[s].hexdigest()[:16]
                                    for s in ("base", "head"))
        print(f"{input_set.name:12s} {len(input_set.files):5d} files "
              f"{len(input_set.calls)} CLI runs  base {base_digest}  "
              f"head {head_digest}  "
              f"{'same' if base_digest == head_digest else 'DIFFERENT'}")

    wanted = [(ident, path, rel) for ident, path, rel in files
              if ident in {i for i, _ in shown[:SHOWN_DIFFS]}]
    if wanted:
        full = file_outcomes(sides, wanted, work, full=True)
        for ident, key in shown[:SHOWN_DIFFS]:
            report += [ident] + first_difference(
                key, full["base"][ident].get(key, ""),
                full["head"][ident].get(key, ""))
    if not differing:
        print("no difference")
        return 0
    print(f"{len(differing)} inputs differ:")
    for line in differing:
        print("  " + line)
    for line in report:
        print(line)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision or source directory (default HEAD)")
    parser.add_argument("--inputs", default=",".join(SETS),
                        help="comma-separated input sets (default: all of "
                             + ", ".join(SETS) + ")")
    parser.add_argument("--mutations", type=int, default=2000,
                        help="number of mutated files (default 2000)")
    parser.add_argument("--work", metavar="DIR",
                        help="build the inputs in DIR, a new directory, and "
                             "keep them")
    parser.add_argument("--worker", metavar="MANIFEST", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return run_worker(args.worker)
    sets = args.inputs.split(",")
    unknown = set(sets) - set(SETS)
    if unknown:
        parser.error(f"unknown input sets: {', '.join(sorted(unknown))}")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = args.work or tempfile.mkdtemp(prefix="compare-revisions-")
    os.makedirs(work, exist_ok=True)
    try:
        sides = {"base": base_sources(args.base, work),
                 "head": os.path.join(ROOT, "src")}
        print(f"base {args.base}: {sides['base']}")
        built = build_inputs(work, sets, args.mutations)
        return compare(sides, built, work)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
