"""Seeded inputs of the three benchmark workloads.

Every input is a pure function of the workload seed and the pinned
files of ``inputs.json``: the campaign order, the serve request
streams and the warm-up requests.  Warm-up requests use task seeds at
or above ``WARMUP_SEED_BASE``; timed streams never do, so no warm-up
can pre-fill the cache for a timed request.

This module imports ``repro`` (from the checkout's ``src``) only to
expand the committed campaign specs and to list the corpus functions;
that happens in the benchmark process, never in a process under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: Task seeds of warm-up requests start here; timed seeds stay below.
WARMUP_SEED_BASE = 1 << 40

#: The two committed campaign specs whose tasks form ``campaign-corpus``.
CAMPAIGN_SPECS = ("examples/campaign_frontend.json",
                  "examples/campaign_intervals.json")

#: Strategies each corpus function is served under in
#: ``serve-corpus-verified``.
CORPUS_STRATEGIES = ("briggs", "george", "brute", "optimistic", "aggressive",
                     "interval", "irc", "linear-scan", "second-chance")

#: ``serve-light`` task shape and its share of repeated keys.
LIGHT_TASK = {"generator": "pressure", "k": 6, "strategy": "briggs",
              "params": {"rounds": 6}}
LIGHT_REPEAT_SHARE = 0.3
#: A repeat picks a key issued at least this many requests earlier, so
#: with two closed-loop connections the earlier request has completed.
LIGHT_REPEAT_LAG = 8
#: Pressure seeds ``0 .. LIGHT_REFERENCE_KEYS-1`` open every stream (in
#: seeded order); quality figures of ``serve-light`` are summed over
#: them, so they do not depend on the seed or on how far a run gets.
LIGHT_REFERENCE_KEYS = 256

#: The function whose tasks stand in for the corpus tail.
LARGE_FUNCTION = "chacha_mix"
#: ``serve-light`` has no corpus function; its large inputs are the
#: pressure instances with at least this many vertices.
LARGE_PRESSURE_VERTICES = 35


class PinError(RuntimeError):
    """A pinned input file is missing or differs from its sha256."""


def check_pins(root: Path) -> Dict[str, str]:
    """Verify every pinned input under ``root``; return the pins.

    The corpus directory must hold exactly the pinned ``.ll`` files, so
    adding a file is as visible as editing one.
    """
    pins = json.loads((BENCH_DIR / "inputs.json").read_text())["sha256"]
    for rel, digest in pins.items():
        path = root / rel
        if not path.is_file():
            raise PinError(f"pinned input {rel} is missing")
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != digest:
            raise PinError(f"pinned input {rel} changed: sha256 {actual}, "
                           f"pinned {digest}")
    present = {f"examples/llvm/{p.name}"
               for p in (root / "examples" / "llvm").glob("*.ll")}
    pinned = {rel for rel in pins if rel.endswith(".ll")}
    if present != pinned:
        raise PinError(f"corpus files differ from the pins: "
                       f"unpinned {sorted(present - pinned)}, "
                       f"missing {sorted(pinned - present)}")
    return pins


def canonical(spec: Dict[str, Any]) -> Dict[str, Any]:
    """A spec dict in ``TaskSpec.as_dict`` form (all fields present)."""
    return {"generator": spec["generator"], "seed": spec["seed"],
            "k": spec.get("k", 0), "strategy": spec["strategy"],
            "params": dict(spec.get("params", {})),
            "max_steps": spec.get("max_steps"),
            "max_seconds": spec.get("max_seconds")}


# ----------------------------------------------------------------------
# campaign-corpus
# ----------------------------------------------------------------------
def campaign_tasks(root: Path) -> List[Dict[str, Any]]:
    """The tasks of both committed campaign specs, in file order."""
    from repro.engine.campaign import load_campaign

    tasks: List[Dict[str, Any]] = []
    for rel in CAMPAIGN_SPECS:
        tasks.extend(spec.as_dict() for spec in load_campaign(str(root / rel)).tasks)
    return tasks


def campaign_order(tasks: List[Dict[str, Any]], seed: int,
                   repetition: int) -> List[Dict[str, Any]]:
    """The seeded task order of one timed campaign."""
    order = list(tasks)
    random.Random(f"campaign:{seed}:{repetition}").shuffle(order)
    return order


def campaign_warmup(tasks: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One task per class (graph generator, corpus coalescing, corpus
    allocation), re-seeded into the warm-up range."""
    picks: Dict[Tuple[str, bool], Dict[str, Any]] = {}
    for spec in tasks:
        cls = (spec["generator"],
               spec["strategy"] in ("linear-scan", "second-chance"))
        picks.setdefault(cls, spec)
    return [dict(spec, seed=WARMUP_SEED_BASE + i)
            for i, spec in enumerate(picks.values())]


def campaign_document(name: str, tasks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A campaign spec file holding ``tasks`` as explicit entries."""
    return {"name": name, "timeout": 60.0, "retries": 1, "verify": True,
            "tasks": tasks}


# ----------------------------------------------------------------------
# serve-light
# ----------------------------------------------------------------------
def light_spec(seed: int) -> Dict[str, Any]:
    """The ``serve-light`` task on pressure seed ``seed``."""
    return canonical(dict(LIGHT_TASK, seed=seed))


def light_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """Endless seeded ``serve-light`` request documents.

    The first misses are the reference keys in seeded order, later
    misses fresh seeded keys; about ``LIGHT_REPEAT_SHARE`` of requests
    repeat a key issued at least ``LIGHT_REPEAT_LAG`` requests earlier.
    """
    rng = random.Random(f"serve-light:{seed}")
    reference = list(range(LIGHT_REFERENCE_KEYS))
    rng.shuffle(reference)
    used = set(reference)
    issued: List[int] = []
    while True:
        eligible = len(issued) - LIGHT_REPEAT_LAG
        if eligible > 0 and rng.random() < LIGHT_REPEAT_SHARE:
            task_seed = issued[rng.randrange(eligible)]
        elif reference:
            task_seed = reference.pop(0)
        else:
            task_seed = rng.randrange(LIGHT_REFERENCE_KEYS, WARMUP_SEED_BASE)
            while task_seed in used:
                task_seed = rng.randrange(LIGHT_REFERENCE_KEYS, WARMUP_SEED_BASE)
            used.add(task_seed)
        issued.append(task_seed)
        yield {"task": light_spec(task_seed)}


def light_warmup() -> List[Dict[str, Any]]:
    """A miss and its repeat (a memory-tier hit) on a warm-up key."""
    document = {"task": light_spec(WARMUP_SEED_BASE)}
    return [document, document]


# ----------------------------------------------------------------------
# serve-corpus-verified
# ----------------------------------------------------------------------
def corpus_functions(root: Path) -> List[Tuple[str, str]]:
    """Every ``(file name, function name)`` of the pinned corpus."""
    from repro.frontend.corpus import parse_path

    out: List[Tuple[str, str]] = []
    for path in sorted((root / "examples" / "llvm").glob("*.ll")):
        out.extend((path.name, fn.name) for fn in parse_path(path).functions)
    return out


def corpus_round_specs(functions: List[Tuple[str, str]]) -> List[Dict[str, Any]]:
    """One round: every corpus function under every strategy once."""
    return [canonical({"generator": "llvm", "seed": 0, "k": 0,
                       "strategy": strategy,
                       "params": {"path": path, "function": function}})
            for path, function in functions for strategy in CORPUS_STRATEGIES]


def corpus_document(spec: Dict[str, Any]) -> Dict[str, Any]:
    """A verified, cache-bypassing request for ``spec``."""
    return {"task": spec, "verify": True, "cache": "bypass"}


def corpus_round(specs: List[Dict[str, Any]], seed: int,
                 round_index: int) -> List[Dict[str, Any]]:
    """Round ``round_index`` of the stream: the specs in seeded order."""
    order = list(specs)
    random.Random(f"serve-corpus:{seed}:{round_index}").shuffle(order)
    return [corpus_document(spec) for spec in order]


def corpus_warmup(specs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One verified request per strategy on the first corpus function,
    re-seeded into the warm-up range, so each strategy's lazy imports
    happen before the timed phase."""
    first = specs[0]["params"]
    return [corpus_document(dict(spec, seed=WARMUP_SEED_BASE))
            for spec in specs if spec["params"] == first]
