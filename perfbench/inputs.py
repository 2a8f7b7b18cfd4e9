"""Seeded problem text for the benchmark.

The program under test only ever receives the text made here. Seed 0 gives
exactly the text of the shipped corpus generators (``run.py`` checks that),
any other seed a renamed and reordered twin with the same answers:

* stack_N: the seed permutes the target tower and the order in which the
  blocks are declared;
* hanoi_N: the seed renames the discs and pegs and shuffles their
  declaration order;
* tyreworld_N: the seed renames the objects and declares the tires in a
  seeded order, each tire's objects moving together.

Declaration order drives the grounder's action and atom ids, so other seeds
exercise other tie-breaks in the planners while the expected outcomes stay
the same. Tyreworld keeps each tire's objects together because a free
shuffle changes the backward search's work on tyreworld_3 by up to 25%
(247k to 323k assignment steps over eight seeds), which would swamp the
benchmark's bounds; moving whole tires keeps the work identical. The fixed
fixtures (blocks3, gripper2 and the ground JSON micro problems) are read
from the package corpus unchanged for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One generated input: its corpus-style name, its text, the route the
    text takes into the program (``pddl`` or ``ground``), and what the
    checks need to know about it."""

    name: str
    route: str
    domain: str  # corpus domain folder for PDDL instances, "" otherwise
    text: str
    goals: tuple  # goal atom names, as the grounder spells them
    tower: tuple = ()  # stack_N only: block names, topmost first


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _atom(pred: str, *args: str) -> str:
    return f"{pred}({','.join(args)})"


def stack(n: int, seed: int) -> Instance:
    """n table blocks to be piled into one tower."""
    blocks = [f"b{i}" for i in range(1, n + 1)]
    tower = list(blocks)
    declared = list(blocks)
    if seed:
        rng = _rng(seed, f"stack_{n}")
        rng.shuffle(tower)
        rng.shuffle(declared)
    init = [f"(on-table {b}) (clear {b})" for b in declared]
    init.append("(arm-empty)")
    init.extend(f"(diff {x} {y})" for x in declared for y in declared
                if x != y)
    pairs = list(zip(tower, tower[1:]))
    goals = [f"(on {x} {y})" for x, y in pairs]
    text = (
        f"(define (problem stack-{n})\n  (:domain stack)\n"
        f"  (:objects {' '.join(declared)})\n"
        f"  (:init {' '.join(init)})\n"
        f"  (:goal (and {' '.join(goals)}))\n)\n"
    )
    return Instance(f"stack_{n}", "pddl", "stack", text,
                    tuple(_atom("on", x, y) for x, y in pairs), tuple(tower))


def _relabel(prefix: str, n: int, rng) -> list:
    labels = list(range(1, n + 1))
    if rng is not None:
        rng.shuffle(labels)
    return [f"{prefix}{k}" for k in labels]


def hanoi(n: int, seed: int) -> Instance:
    """n discs (disc 0 smallest) stacked on the first peg, to move to the
    third."""
    rng = _rng(seed, f"hanoi_{n}") if seed else None
    discs = _relabel("d", n, rng)
    pegs = _relabel("peg", 3, rng)
    declared = discs + pegs
    if rng is not None:
        rng.shuffle(declared)
    init = []
    for i, d in enumerate(discs):
        for other in discs[i + 1:]:
            init.append(f"(smaller {d} {other})")
        for peg in pegs:
            init.append(f"(smaller {d} {peg})")
    init.extend(f"(diff {x} {y})" for x in declared for y in declared
                if x != y)
    for i in range(n - 1):
        init.append(f"(on {discs[i]} {discs[i + 1]})")
    init.append(f"(on {discs[-1]} {pegs[0]})")
    init.extend([f"(clear {discs[0]})", f"(clear {pegs[1]})",
                 f"(clear {pegs[2]})"])
    goal_pairs = [(discs[-1], pegs[2])]
    goal_pairs.extend((discs[i - 1], discs[i]) for i in range(n - 1, 0, -1))
    goals = [f"(on {x} {y})" for x, y in goal_pairs]
    text = (
        f"(define (problem hanoi-{n})\n  (:domain hanoi)\n"
        f"  (:objects {' '.join(declared)})\n"
        f"  (:init {' '.join(init)})\n"
        f"  (:goal (and {' '.join(goals)}))\n)\n"
    )
    return Instance(f"hanoi_{n}", "pddl", "hanoi", text,
                    tuple(_atom("on", x, y) for x, y in goal_pairs))


def tyreworld(n: int, seed: int) -> Instance:
    """n flat tires: spare i replaces flat i on hub i. The tires are
    declared in a seeded order, each tire's objects together, so every seed
    grounds to the same structure up to names."""
    rng = _rng(seed, f"tyreworld_{n}") if seed else None
    flats = _relabel("w", n, rng)
    spares = _relabel("r", n, rng)
    nuts = _relabel("n", n, rng)
    hubs = _relabel("hub", n, rng)
    tires = list(range(n))
    if rng is not None:
        rng.shuffle(tires)
    wheels = [flats[i] for i in tires] + [spares[i] for i in tires]
    objects = (
        f"{' '.join(wheels)} - wheel {' '.join(nuts[i] for i in tires)} - nut "
        f"{' '.join(hubs[i] for i in tires)} - hub pump jack wrench - tool "
        "boot - container"
    )
    init = ["(closed boot)", "(annoyed)",
            "(is-pump pump)", "(is-jack jack)", "(is-wrench wrench)",
            "(in pump boot)", "(in jack boot)", "(in wrench boot)"]
    for i in tires:
        init.extend([
            f"(in {spares[i]} boot)",
            f"(intact {spares[i]})",
            f"(not-inflated {spares[i]})",
            f"(not-inflated {flats[i]})",
            f"(on {flats[i]} {hubs[i]})",
            f"(on-ground {hubs[i]})",
            f"(tight {nuts[i]} {hubs[i]})",
            f"(fastened {hubs[i]})",
        ])
    goal_atoms = []
    for i in tires:
        goal_atoms.extend([
            ("inflated", spares[i]),
            ("on", spares[i], hubs[i]),
            ("tight", nuts[i], hubs[i]),
            ("in", flats[i], "boot"),
        ])
    goal_atoms.extend([("in", "pump", "boot"), ("in", "jack", "boot"),
                       ("in", "wrench", "boot"), ("closed", "boot")])
    goals = [f"({' '.join(g)})" for g in goal_atoms]
    text = (
        f"(define (problem fixit-{n})\n  (:domain tyreworld)\n"
        f"  (:objects {objects})\n"
        f"  (:init {' '.join(init)})\n"
        f"  (:goal (and {' '.join(goals)}))\n)\n"
    )
    return Instance(f"tyreworld_{n}", "pddl", "tyreworld", text,
                    tuple(_atom(*g) for g in goal_atoms))


_FAMILIES = {"stack": stack, "hanoi": hanoi, "tyreworld": tyreworld}

# fixed fixtures: corpus name -> (domain folder, problem file) or ground JSON
_FIXED_PDDL = {"blocks3": ("blocks", "three"), "gripper2": ("gripper", "two")}
_FIXED_GOALS = {
    "blocks3": ("on(a,b)", "on(b,c)"),
    "gripper2": ("at(ball1,roomB)", "at(ball2,roomB)"),
}


def make(name: str, seed: int, corpus) -> Instance:
    """The instance called ``name`` (corpus naming) for the seed. ``corpus``
    is the package's corpus module, used only to read fixed fixtures."""
    family, _, size = name.rpartition("_")
    if family in _FAMILIES:
        return _FAMILIES[family](int(size), seed)
    if name in _FIXED_PDDL:
        domain, problem = _FIXED_PDDL[name]
        return Instance(name, "pddl", domain,
                        corpus.problem_text(domain, problem),
                        _FIXED_GOALS[name])
    text = corpus.micro_text(name)
    return Instance(name, "ground", "", text,
                    tuple(json.loads(text)["goals"]))


def corpus_text(name: str, corpus) -> str:
    """The shipped generator's text for a generated family (seed 0 must
    reproduce it), or None for fixed fixtures."""
    family, _, size = name.rpartition("_")
    generator = {"stack": "stack_problem_text", "hanoi": "hanoi_problem_text",
                 "tyreworld": "tyreworld_problem_text"}.get(family)
    if generator is None:
        return None
    return getattr(corpus, generator)(int(size))
