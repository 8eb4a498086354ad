"""Build the item pool of a workload and its reference digests.

    python3 perfbench/make_reference.py --workload rescue20

Runs every pool item once, checks it with the correctness gate (apart from
the digest it is about to record), and writes
`perfbench/reference/<workload>.json`. Rerun it only when the program's
results are meant to change; the benchmark then compares against the new
digests. Pools and strata:

- rescue20: 20x20 maps, seeds 0-119 for each of 0, 5 and 20 blocks; each
  block count is cut into 4 bins by the sensed work of both methods.
- explore40: 40x40 maps with 20 blocks, seeds 0-119, cut into 8 bins.
- compile_wide: 10 atom orders of each structured family at 4, 5 and 6
  atoms (one stratum each), and 45 random formulas cut into 3 bins by the
  number of progression calls their compilation makes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import workloads as wl
from tracer import Tracer

MAP_SEEDS = range(120)
FAMILY_ATOMS = (4, 5, 6)
FAMILY_VARIANTS = 10
N_RANDOM = 45
RANDOM_STATE_LIMIT = 256
SENSE_RADIUS = 3  # the planner's default sensing radius


def conj_family(a):
    return " & ".join(f"F {x}" for x in a)


def nest_family(a):
    text = f"F {a[-1]}"
    for x in reversed(a[:-1]):
        text = f"F ({x} & {text})"
    return text


def until_family(a):
    return " & ".join(f"(!{a[i + 1]} U {a[i]})" for i in range(len(a) - 1))


def choice_family(a):
    """A disjunction of ordered pairs; committing to one pair's first atom
    forecloses the others. With an odd count the last atom pairs with a0."""
    pairs = [(a[i], a[i + 1]) for i in range(0, len(a) - 1, 2)]
    if len(a) % 2:
        pairs.append((a[0], a[-1]))
    return " | ".join(f"((!{y} U {x}) & F {y})" for x, y in pairs)


FAMILIES = {"conj": conj_family, "nest": nest_family, "until": until_family, "choice": choice_family}


_BINARY = {"and": "&", "or": "|", "until": "U"}


def random_text(rng: random.Random, names, depth: int) -> str:
    """Random formula text over the parser's grammar, fully parenthesised."""
    if depth <= 0:
        kind = rng.choice(["obs", "obs", "neg", "true"])
    else:
        kind = rng.choice(["obs", "neg", "and", "or", "until", "until", "eventually"])
    if kind == "true":
        return "true"
    if kind in ("obs", "neg"):
        return ("!" if kind == "neg" else "") + rng.choice(names)
    lhs = random_text(rng, names, depth - 1)
    if kind == "eventually":
        return f"F ({lhs})"
    return f"({lhs} {_BINARY[kind]} {random_text(rng, names, depth - 1)})"


def formula_pool(program) -> list:
    items = []
    for family, build in FAMILIES.items():
        for n in FAMILY_ATOMS:
            names = [f"a{i}" for i in range(n)]
            for v in range(FAMILY_VARIANTS):
                order = names[:]
                random.Random(1000 * n + v).shuffle(order)
                items.append({"group": f"{family}{n}", "formula": build(order), "atoms": names})
    rng = random.Random(7)
    seen = set()
    while sum(it["group"] == "random" for it in items) < N_RANDOM:
        names = [f"a{i}" for i in range(rng.choice((4, 5)))]
        text = random_text(rng, names, 4)
        if text in seen:
            continue
        seen.add(text)
        alphabet = program.alphabet.ObservationSet(names)
        try:
            dfa = program.compiler.compile_dfa(program.parser.parse_formula(text, alphabet), alphabet,
                                               max_states=RANDOM_STATE_LIMIT)
        except program.compiler.StateLimitError:
            continue
        if len(dfa.states) >= 3:  # skip formulas that are decided by the first letter
            items.append({"group": "random", "formula": text, "atoms": names})
    return items


def sensed_work(program, grid, trajectory) -> int:
    """Sum over the visited cells of the known-set size after sensing there;
    it tracks the planner's product rebuild cost closely."""
    known = program.env.KnownSet()
    total = 0
    for cell in trajectory:
        known = program.env.sense(grid, cell, SENSE_RADIUS, known)
        total += len(known)
    return total


def bin_items(items: list, bins_per_group: dict) -> None:
    """Cut each group, sorted by reference work, into equal-count bins."""
    groups = {}
    for it in items:
        groups.setdefault(it["group"], []).append(it)
    for group, members in groups.items():
        n_bins = bins_per_group.get(group, 1)
        members.sort(key=lambda it: (it["work"], it["id"]))
        if len(members) % n_bins:
            raise ValueError(f"group {group} of {len(members)} items does not split into {n_bins} bins")
        size = len(members) // n_bins
        for i, it in enumerate(members):
            it["bin"] = i // size


def build(name: str) -> dict:
    workload = wl.WORKLOADS[name]
    program = wl.load_program()
    problems = []
    if workload.kind == "episodes":
        task = wl.prepare_task(program)
        steps = wl.StepClock(program.planner)
        size, blocks = (20, (0, 5, 20)) if name == "rescue20" else (40, (20,))
        items = []
        for b in blocks:
            for seed in MAP_SEEDS:
                grid = program.env.random_map(size, b, seed)
                item = {"id": f"{size}/{b}/{seed}", "group": f"blocks{b}", "map": [size, b, seed],
                        "digest": {}, "work": 0}
                for method in workload.methods:
                    out = wl.run_episode(program, task, grid, method, steps)
                    item["digest"][method] = wl.episode_digest(out)
                    problems += [f"{item['id']} {method}: {p}" for p in
                                 wl.check_episode(program, task, grid, out, item["digest"][method])]
                    item["work"] += sensed_work(program, grid, out.trajectory)
                    item.setdefault("verdict", {})[method] = out.verdict
                    item.setdefault("steps", {})[method] = out.steps
                items.append(item)
                print(item["id"], item["verdict"], item["work"], file=sys.stderr, flush=True)
        bin_items(items, {f"blocks{b}": (4 if name == "rescue20" else 8) for b in blocks})
    else:
        items = formula_pool(program)
        tracer = Tracer()
        tracer.hook(program.compiler, "progress", "progress")
        for i, item in enumerate(items):
            item["id"] = f"{item['group']}/{i:03d}"
            before = len(tracer.spans)
            out = wl.run_formula(program, item["formula"], tuple(item["atoms"]))
            item["work"] = len(tracer.spans) - before
            item["digest"] = wl.formula_digest(out)
            item["states"] = len(out.dfa.states)
            item["commits"] = len(out.commits.commit_set)
            problems += [f"{item['id']}: {p}" for p in
                         wl.check_formula(program, out, item["digest"], random.Random(i))]
            print(item["id"], item["states"], item["work"], file=sys.stderr, flush=True)
        tracer.unhook()
        bin_items(items, {"random": 3})
    if problems:
        raise SystemExit("reference items fail the correctness gate:\n" + "\n".join(problems))
    items.sort(key=lambda it: it["id"])
    return {"workload": name, "items": items}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    reference = build(args.workload)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\"workload\": %s, \"items\": [\n" % json.dumps(reference["workload"]))
        fh.write(",\n".join(json.dumps(it, sort_keys=True) for it in reference["items"]))
        fh.write("\n]}\n")
    print(f"wrote {len(reference['items'])} items to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
