"""Seeded generator for the benchmark's synthetic Java workloads.

Every workload is built from the seed alone: the same seed writes the
same bytes and, for the history, the same git object IDs. Besides the
files, each builder returns the answers it knows by construction: for a
few categories whose rule leaves no room for judgement, the violations
it planted (``absolute``) and the constructs it wrote (``denominator``).

Shapes:

* ``batch``: the acceptance-test batch class (loops, catches, javadoc).
* ``fixture``: naming, javadoc, enum and static-access cases in the
  style of the curated fixture corpus.
* ``rich``: generics, lambdas, enums, records, nested types, long
  comments and string literals.
* ``level``: one class of a deep inheritance chain, with overrides with
  and without ``@Override`` and static accesses through both instances
  and class names (corpus workload only).

A shape's size does not depend on the seed, so every seed gives the
same amount of work; the seed picks names, order and which blocks carry
a planted violation.
"""

from __future__ import annotations

import calendar
import os
import random
import subprocess
from collections import Counter
from dataclasses import dataclass

# Categories whose answer the generator knows exactly.
CHECKED = ("ClassNames", "MethodNames", "PackageNames", "EmptyCatchBlock",
           "StringConcatenation", "FinalizeOverride", "MissingOverride",
           "UnqualifiedStaticAccess")

QUALIFIERS = ("Order", "Stock", "Price", "Route", "Cargo", "Ledger", "Grid",
              "Token", "Frame", "Signal", "Vector", "Tariff", "Harbor",
              "Meter", "Crate", "Parcel", "Voyage", "Beacon", "Quota",
              "Margin", "Summit", "Canal", "Pilot", "Ember")
NOUNS = ("Manager", "Service", "Handler", "Builder", "Registry", "Channel",
         "Router", "Parser", "Scanner", "Tracker", "Worker",
         "Account", "Invoice", "Session", "Widget", "Engine", "Source",
         "Pool")
VERBS = ("compute", "apply", "build", "flush", "resolve", "render",
         "collect", "recover", "validate", "find", "emit", "parse")

FILLER = ("The generator writes this sentence so that comments carry real "
          "prose, the way documentation in production code does, and the "
          "tokenizer has to walk long runs of text between the code.")


class Answers(Counter):
    """(category, 'absolute' | 'denominator') -> count."""

    def add(self, category: str, absolute: int = 0, denominator: int = 0):
        self[(category, "absolute")] += absolute
        self[(category, "denominator")] += denominator

    def as_dict(self) -> dict:
        return {cat: {"absolute": self[(cat, "absolute")],
                      "denominator": self[(cat, "denominator")]}
                for cat in CHECKED}


def nonblank_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def _class_name(rng: random.Random) -> str:
    return rng.choice(QUALIFIERS) + rng.choice(NOUNS)


# ---------------------------------------------------------------------------
# batch shape


def _batch_pair(k: int, verb: str, empty_catch: bool, bad_name: bool,
                ans: Answers) -> str:
    name = f"Advance_{k}" if bad_name else f"{verb}Step{k}"
    handler = ("    }" if empty_catch
               else f"      recover{k}();\n    }}")
    ans.add("MethodNames", int(bad_name), 2)
    ans.add("EmptyCatchBlock", int(empty_catch), 1)
    ans.add("StringConcatenation", 1, 2)
    return f"""  /**
   * Advances the cursor by step {k} and reports the new position value.
   * @param offset the amount to advance past the current cursor
   * @return the cursor position after the advance completes
   */
  public int {name}(int offset) {{
    int next = cursor + offset;
    for (int i = 0; i < LIMIT; i++) {{
      next += i;
    }}
    try {{
      cursor = next;
    }} catch (RuntimeException e) {{
{handler}
    return next;
  }}

  void recover{k}() {{
    String trail = "";
    for (int i = 0; i < 3; i++) {{
      trail += i;
    }}
    backlog.add(trail);
  }}
"""


def batch_file(rng: random.Random, pkg: str, ans: Answers,
               pairs: int = 8) -> tuple[str, str]:
    name = _class_name(rng)
    ans.add("ClassNames", 0, 1)
    ans.add("FinalizeOverride", 0, 1)
    ans.add("PackageNames", 0, 1)
    body = "\n".join(
        _batch_pair(k, rng.choice(VERBS), rng.random() < 0.25,
                    rng.random() < 0.1, ans)
        for k in range(pairs))
    text = f"""package {pkg};

import java.util.List;

/** Handles batch record processing for the synthetic workload generator. */
public class {name} {{
  private static final int LIMIT = {rng.randrange(2, 64)};

  private int cursor;

  private List backlog;

  public {name}(List backlog) {{
    this.backlog = backlog;
  }}

{body}}}
"""
    return name, text


# ---------------------------------------------------------------------------
# fixture shape


def _fixture_block(k: int, rng: random.Random, owner: str,
                   ans: Answers) -> str:
    verb = rng.choice(VERBS)
    bad_method = rng.random() < 0.15
    via_instance = rng.random() < 0.3
    commented = rng.random() < 0.5
    method = f"Do_{k}" if bad_method else f"{verb}Item{k}"
    ans.add("MethodNames", int(bad_method), 2)
    # sharedCount() is a static method of the owner: one access through
    # the class name, one through the class name or a local instance.
    ans.add("UnqualifiedStaticAccess", int(via_instance), 2)
    ans.add("EmptyCatchBlock", 0, 1)
    ans.add("StringConcatenation", 0, 1)
    second = "self.sharedCount()" if via_instance else f"{owner}.sharedCount()"
    catch_body = ("      // the probe is optional, so a failure is ignored"
                  if commented else "      total = -1;")
    return f"""  /**
   * Processes item {k} and folds the result into the running total value.
   * @param amount the quantity to fold into the running total for now
   * @return the running total after the amount has been folded in
   */
  public int {method}(int amount) {{
    {owner} self = this;
    int total = amount + {owner}.sharedCount();
    try {{
      total += {second};
    }} catch (IllegalStateException ex) {{
{catch_body}
    }}
    while (total > {1000 + k}) {{
      total -= amount;
    }}
    return total;
  }}

  protected String describeItem{k}() {{
    return "item-{k}:" + label;
  }}
"""


def fixture_file(rng: random.Random, pkg: str, ans: Answers,
                 blocks: int = 9) -> tuple[str, str]:
    name = _class_name(rng)
    state = rng.choice(QUALIFIERS) + "State"
    bad_class = rng.random() < 0.2
    helper = "helper_table" if bad_class else rng.choice(QUALIFIERS) + "Table"
    finalize = rng.random() < 0.2
    annotated = rng.random() < 0.5
    # Three types: the public class, the enum and the helper class.
    ans.add("ClassNames", int(bad_class), 3)
    ans.add("FinalizeOverride", int(finalize), 3)
    ans.add("PackageNames", 0, 1)
    # sharedCount, toString, finalize or release, getRows.
    ans.add("MethodNames", 0, 4)
    # toString, and finalize when planted: Object's finalize is
    # deprecated, so overriding it never needs @Override.
    ans.add("MissingOverride", int(not annotated), 1 + int(finalize))
    body = "\n".join(_fixture_block(k, rng, name, ans) for k in range(blocks))
    fin = ("  protected void finalize() {\n    count = 0;\n  }"
           if finalize else
           "  protected void release() {\n    count = 0;\n  }")
    ann = "  @Override\n" if annotated else "  /* plain */\n"
    text = f"""package {pkg};

/**
 * Coordinates scheduled cleanup passes across every registered cache region nightly.
 */
public class {name} {{
  private static int counter;

  private final String label;

  /**
   * Creates the coordinator with a label that identifies it in every log line.
   * @param label the label printed in front of every message it writes
   */
  public {name}(String label) {{
    this.label = label;
  }}

  static int sharedCount() {{
    return counter;
  }}

{body}
{ann}  public String toString() {{
    return "{name}(" + label + ")";
  }}

{fin}

  private int count;
}}

enum {state} {{ READY, RUNNING, DONE }}

class {helper} {{
  private int rows;

  int getRows() {{
    return rows;
  }}
}}
"""
    return name, text


# ---------------------------------------------------------------------------
# rich shape


def _rich_block(k: int, rng: random.Random, ans: Answers) -> str:
    verb = rng.choice(VERBS)
    empty = rng.random() < 0.2
    ans.add("MethodNames", 0, 3)     # collect, describe, weight
    ans.add("ClassNames", 0, 2)      # nested enum and nested class
    ans.add("FinalizeOverride", 0, 3)  # enum, record, class
    ans.add("MissingOverride", 0, 1)   # annotated toString
    ans.add("StringConcatenation", 1, 2)
    ans.add("EmptyCatchBlock", int(empty), 1)
    ans.add("MethodNames", 0, 2)     # Holder.compareTo, Holder.toString
    handler = "" if empty else "      log.add(\"parse failed: \" + ex.getMessage());\n"
    return f"""  /*
   * Block {k}. {FILLER}
   * {FILLER}
   */

  /**
   * Collects the values stored under each key, in the order of the keys given.
   * @param keys the keys to look up in the bucket map for this call
   * @return the values found for every key, flattened into one list
   */
  public List<V> {verb}Values{k}(List<K> keys) {{
    List<V> out = new ArrayList<>();
    keys.stream().filter(key -> buckets.containsKey(key)).forEach(key -> out.addAll(buckets.get(key)));
    for (K key : keys) {{
      Function<K, Integer> size = probe -> buckets.getOrDefault(probe, List.of()).size();
      if (size.apply(key) > {k}) {{
        out.add(null);
      }}
    }}
    return out;
  }}

  String describe{k}(List<String> words) {{
    String text = "block {k}: \\"quoted\\" {{braces}} [brackets] (parens); // not a comment";
    for (String word : words) {{
      text += word.toUpperCase() + ",";
    }}
    try {{
      Integer.parseInt(text);
    }} catch (NumberFormatException ex) {{
{handler}    }}
    return text;
  }}

  enum Mode{k} {{
    FAST("fast lane"), SLOW("slow lane"), IDLE("idle lane");

    private final String tag;

    Mode{k}(String tag) {{
      this.tag = tag;
    }}

    int weight() {{
      return ordinal() * {k + 1} + tag.length();
    }}
  }}

  record Entry{k}(String label, int weight) {{
    Entry{k} {{
      if (weight < 0) {{
        throw new IllegalArgumentException("weight must not be negative: " + label);
      }}
    }}
  }}

  static final class Holder{k}<T> implements Comparable<Holder{k}<T>> {{
    private final T value;

    Holder{k}(T value) {{
      this.value = value;
    }}

    @Override
    public int compareTo(Holder{k}<T> other) {{
      return Integer.compare(hashCode(), other.hashCode());
    }}

    @Override
    public String toString() {{
      return "Holder{k}[" + value + "]";
    }}
  }}
"""


def rich_file(rng: random.Random, pkg: str, ans: Answers,
              blocks: int = 3) -> tuple[str, str]:
    name = _class_name(rng)
    ans.add("ClassNames", 0, 1)
    ans.add("FinalizeOverride", 0, 1)
    ans.add("PackageNames", 0, 1)
    body = "\n".join(_rich_block(k, rng, ans) for k in range(blocks))
    text = f"""package {pkg};

import java.util.ArrayList;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Keeps values in buckets keyed by a comparable key and answers range queries.
 * {FILLER}
 * {FILLER}
 */
public class {name}<K extends Comparable<K>, V> {{
  private static final String BANNER = "{name} v1 -- \\"buckets\\" {{ok}} \\\\ done";

  private final Map<K, List<V>> buckets;

  private final List<String> log = new ArrayList<>();

  /**
   * Wraps the given bucket map; the map is shared, not copied, by this view.
   * @param buckets the map from keys to the values stored under each key
   */
  public {name}(Map<K, List<V>> buckets) {{
    this.buckets = buckets;
  }}

{body}}}
"""
    return name, text


SHAPES = {"batch": batch_file, "fixture": fixture_file, "rich": rich_file}


def _write(root: str, rel: str, text: str) -> None:
    full = os.path.join(root, *rel.split("/"))
    os.makedirs(os.path.dirname(full), exist_ok=True)
    with open(full, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@dataclass
class JavaFile:
    rel: str
    kind: str
    pkg: str
    text: str
    answers: Answers

    def rewrite(self, rng: random.Random) -> None:
        """New content of the same shape and package, as a month's edit."""
        self.answers = Answers()
        _, self.text = SHAPES[self.kind](rng, self.pkg, self.answers)


def flat_files(rng: random.Random, count: int, prefix: str) -> list[JavaFile]:
    """`count` files in equal thirds of each shape, in seeded order."""
    kinds = [("batch", "fixture", "rich")[i % 3] for i in range(count)]
    rng.shuffle(kinds)
    files = []
    for i, kind in enumerate(kinds):
        pkg = f"com.{prefix}.p{i}"
        ans = Answers()
        name, text = SHAPES[kind](rng, pkg, ans)
        rel = f"src/main/java/com/{prefix}/p{i}/{name}.java"
        files.append(JavaFile(rel, kind, pkg, text, ans))
    return files


def _summary(files: list[JavaFile]) -> dict:
    total = Answers()
    for f in files:
        total.update(f.answers)
    return {"answers": total.as_dict(), "files": len(files),
            "lines": sum(nonblank_lines(f.text) for f in files)}


# ---------------------------------------------------------------------------
# workloads


def build_flat(root: str, seed: int, files: int = 480) -> dict:
    """One Maven tree of self-contained classes (analyze workload)."""
    rng = random.Random(f"flat-{seed}")
    made = flat_files(rng, files, "flat")
    for f in made:
        _write(root, f.rel, f.text)
    return _summary(made)


# History: 36 padding months, then the 12-month window before AS_OF.
AS_OF = "2024-01-01"
PADDING_MONTHS = 36
WINDOW_MONTHS = 12
_FIRST_YEAR = 2020

GIT_ENV = {"GIT_CONFIG_NOSYSTEM": "1", "GIT_TERMINAL_PROMPT": "0",
           "LC_ALL": "C"}


def git_env(root: str) -> dict:
    """Environment that keeps git away from user and system config."""
    env = dict(os.environ, **GIT_ENV)
    env["GIT_CONFIG_GLOBAL"] = os.path.join(root, ".gitconfig-bench")
    return env


def _month_stamp(index: int) -> int:
    """Unix time of day 15, 12:00 UTC, of month `index` after Jan 2020."""
    year, month = _FIRST_YEAR + index // 12, index % 12 + 1
    return calendar.timegm((year, month, 15, 12, 0, 0))


def build_history(root: str, seed: int, files: int = 20,
                  changed_per_month: int = 1) -> dict:
    """A git repository whose window months each rewrite a few files.

    Author and committer dates are equal and every month has exactly one
    commit on day 15, so the history is eligible without --force.
    """
    rng = random.Random(f"history-{seed}")
    repo = os.path.join(root, "repo")
    os.makedirs(repo)
    env = git_env(root)
    open(env["GIT_CONFIG_GLOBAL"], "w").close()
    subprocess.run(["git", "init", "-q", "-b", "main", repo], check=True,
                   env=env)
    tree = flat_files(rng, files, "hist")

    stream: list[bytes] = []

    def data(payload: bytes) -> None:
        stream.append(b"data %d\n" % len(payload))
        stream.append(payload + b"\n")

    snapshots = []
    for month in range(PADDING_MONTHS + WINDOW_MONTHS):
        stamp = _month_stamp(month)
        if month == 0:
            changed = tree
        else:
            changed = rng.sample(tree, 1 if month < PADDING_MONTHS
                                 else changed_per_month)
            for f in changed:
                f.rewrite(rng)
        stream.append(b"commit refs/heads/main\nmark :%d\n" % (month + 1))
        who = b"Bench Author <bench@example.org> %d +0000\n" % stamp
        stream.append(b"author " + who + b"committer " + who)
        data(b"month %d" % month)
        for f in changed:
            stream.append(b"M 100644 inline " + f.rel.encode() + b"\n")
            data(f.text.encode())
        if month >= PADDING_MONTHS:
            snapshots.append(_summary(tree))
    marks = os.path.join(root, "marks")
    subprocess.run(["git", "-C", repo, "fast-import", "--quiet",
                    f"--export-marks={marks}"],
                   input=b"".join(stream), check=True, env=env)
    with open(marks, encoding="ascii") as fh:
        ids = dict(line.split() for line in fh)
    subprocess.run(["git", "-C", repo, "checkout", "-q", "-f", "main"],
                   check=True, env=env)
    for i, snap in enumerate(snapshots):
        snap["commit"] = ids[f":{PADDING_MONTHS + i + 1}"]
        month = PADDING_MONTHS + i
        snap["month"] = f"{_FIRST_YEAR + month // 12:04d}-{month % 12 + 1:02d}"
    return {"repo": repo, "as_of": AS_OF, "months": WINDOW_MONTHS,
            "snapshots": snapshots,
            "lines": sum(s["lines"] for s in snapshots),
            "head": ids[f":{PADDING_MONTHS + WINDOW_MONTHS}"]}


# ---------------------------------------------------------------------------
# corpus: repositories of deep inheritance chains


def _level_class(rng: random.Random, pkg: str, chain: str, depth: int,
                 methods: int, ans: Answers) -> tuple[str, str]:
    """Class `depth` of a chain; depth 0 is the root with the statics."""
    root = f"{chain}Base"
    name = root if depth == 0 else f"{chain}Level{depth}Handler"
    parent = None if depth == 0 else (
        root if depth == 1 else f"{chain}Level{depth - 1}Handler")
    ans.add("ClassNames", 0, 1)
    ans.add("FinalizeOverride", 0, 1)
    ans.add("PackageNames", 0, 1)
    parts = []
    if depth == 0:
        parts.append(f"""  static int total;

  static int tally() {{
    return total;
  }}
""")
        ans.add("MethodNames", 0, 1)
    for k in range(methods):
        # Every level redeclares the same signatures, so from depth 1 on
        # each one overrides its parent's, annotated or not.
        overrides = depth > 0
        annotated = overrides and rng.random() < 0.6
        via_instance = rng.random() < 0.35
        empty = rng.random() < 0.1
        ans.add("MethodNames", 0, 1)
        if overrides:
            ans.add("MissingOverride", int(not annotated), 1)
        ans.add("UnqualifiedStaticAccess", int(via_instance), 2)
        ans.add("EmptyCatchBlock", int(empty), 1)
        ans.add("StringConcatenation", 0, 1)
        ann = "  @Override\n" if annotated else ""
        access = "peer.tally()" if via_instance else f"{name}.tally()"
        handler = "" if empty else "      weight = 0;\n"
        parts.append(f"""  /**
   * Computes the weight of slot {k} at depth {depth} of the {chain} chain.
   * @param seed the starting weight handed down from the caller above
   * @return the weight after this level has added its own share
   */
{ann}  public int computeSlot{k}(int seed) {{
    {root} peer = this;
    int weight = seed + {root}.tally();
    try {{
      weight += {access};
    }} catch (ArithmeticException ex) {{
{handler}    }}
    for (int i = 0; i < {depth + 2}; i++) {{
      weight += i * {k + 1};
    }}
    return weight;
  }}
""")
    extends = f" extends {parent}" if parent else ""
    return name, f"""package {pkg};

/**
 * Level {depth} of the {chain} chain; each level refines the weights of its parent.
 */
public class {name}{extends} {{
{chr(10).join(parts)}}}
"""


def build_corpus(root: str, seed: int, repos: int = 8, chains: int = 2,
                 depth: int = 10, methods: int = 12) -> dict:
    """Repositories of deep inheritance chains, one paths file for all."""
    rng = random.Random(f"corpus-{seed}")
    entries = []
    for r in range(repos):
        repo = os.path.join(root, f"repo{r}")
        made = []
        names = rng.sample(QUALIFIERS, chains)
        for c, chain in enumerate(names):
            pkg = f"com.hier.r{r}.c{c}"
            for d in range(depth):
                ans = Answers()
                name, text = _level_class(rng, pkg, chain, d, methods, ans)
                made.append(JavaFile(
                    f"src/main/java/com/hier/r{r}/c{c}/{name}.java", "level",
                    pkg, text, ans))
        for f in made:
            _write(repo, f.rel, f.text)
        entries.append(dict(_summary(made), path=repo))
    paths_file = os.path.join(root, "paths.txt")
    with open(paths_file, "w", encoding="utf-8") as fh:
        fh.write("".join(e["path"] + "\n" for e in entries))
    return {"paths_file": paths_file, "repos": entries,
            "lines": sum(e["lines"] for e in entries)}


BUILDERS = {"flat": build_flat, "history": build_history,
            "corpus": build_corpus}
