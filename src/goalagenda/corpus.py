"""Shipped problem corpus: packaged PDDL domains, problem generators for the
scalable families, ground-problem JSON fixtures, and the ground-problem
JSON reader used by the CLI's second input route."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .model import (
    AdlAction,
    AtomTable,
    ConditionalEffect,
    PlanningError,
    PlanningProblem,
    StripsAction,
    set_table,
)
from .pddl import ground, parse


class GroundFileError(PlanningError):
    pass


# --- ground-problem JSON -----------------------------------------------------

def problem_from_dict(data: dict) -> PlanningProblem:
    """Build a PlanningProblem from the ground JSON form. Atom interning
    order: init, goals, then per-action literals. Equal atom sets are one
    frozenset (``model.set_table``)."""
    if not isinstance(data, dict):
        raise GroundFileError("ground problem must be a JSON object")
    for key in ("actions", "init", "goals"):
        if key not in data:
            raise GroundFileError(f"ground problem lacks {key!r}")
    atoms = AtomTable()
    shared = set_table()

    def ids(names, where):
        if not isinstance(names, list) or not all(isinstance(n, str)
                                                  for n in names):
            raise GroundFileError(f"{where} must be a list of atom names")
        return shared(atoms.intern(n) for n in names)

    def objects(items, where):
        if not isinstance(items, list) or not all(isinstance(item, dict)
                                                  for item in items):
            raise GroundFileError(f"{where} must be a list of objects")
        return items

    init = ids(data["init"], "init")
    goals = ids(data["goals"], "goals")
    actions = []
    adl = any("effects" in a for a in objects(data["actions"], "actions"))
    keys = {"name", "pre", "effects"} if adl else {"name", "pre", "add", "del"}
    names = set()
    for a in data["actions"]:
        if not isinstance(a.get("name"), str):
            raise GroundFileError("every action needs a name string")
        if a["name"] in names:
            raise GroundFileError(f"action {a['name']!r} declared twice")
        names.add(a["name"])
        if adl != ("effects" in a):
            raise GroundFileError("actions must be homogeneous")
        _known_keys(a, keys, a["name"])
        if adl:
            effects = []
            for i, eff in enumerate(objects(a["effects"],
                                            f"{a['name']} effects")):
                _known_keys(eff, {"add", "del", "when"},
                            f"{a['name']} effect {i}")
                cond = ids(eff.get("when", []), f"{a['name']} effect {i}")
                if i == 0 and eff.get("when"):
                    raise GroundFileError(
                        f"{a['name']}: effect 0 carries the precondition in "
                        "'pre', not 'when'")
                effects.append(ConditionalEffect(
                    cond if i else ids(a.get("pre", []), "pre"),
                    *(ids(eff.get(key, []), key) for key in ("add", "del"))))
            actions.append(AdlAction(a["name"], tuple(effects)))
        else:
            actions.append(StripsAction(a["name"], *(
                ids(a.get(key, []), key) for key in ("pre", "add", "del"))))
    return PlanningProblem(
        atoms=atoms, actions=tuple(actions), init=init, goals=goals,
        name=data.get("name", "ground-problem"))


def _known_keys(item: dict, keys: set, where: str) -> None:
    unknown = sorted(item.keys() - keys)
    if unknown:
        raise GroundFileError(f"{where}: unknown keys {unknown}")


def load_ground_json(text: str) -> PlanningProblem:
    try:
        return problem_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise GroundFileError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # a form the model rejects as it splits it
        raise GroundFileError(str(exc)) from exc


# --- packaged files ----------------------------------------------------------

def _data(relpath: str) -> str:
    base = resources.files(__package__) / "corpus"
    return (base / relpath).read_text(encoding="utf-8")


def domain_text(domain: str) -> str:
    return _data(f"{domain}/domain.pddl")


def problem_text(domain: str, problem: str) -> str:
    return _data(f"{domain}/{problem}.pddl")


def micro_text(name: str) -> str:
    return _data(f"micro/{name}.json")


# --- generators --------------------------------------------------------------

def _problem_text(name: str, domain: str, objects: str, init: list,
                  goals: list) -> str:
    """A generated problem: ``objects`` as written, the init atoms and the
    goal conjunction each on one line."""
    return (f"(define (problem {name})\n  (:domain {domain})\n"
            f"  (:objects {objects})\n  (:init {' '.join(init)})\n"
            f"  (:goal (and {' '.join(goals)}))\n)\n")


def stack_problem_text(n: int) -> str:
    """n table blocks to be piled into one tower (b1 topmost)."""
    if n < 2:
        raise ValueError("stack needs at least 2 blocks")
    blocks = [f"b{i}" for i in range(1, n + 1)]
    init = [f"(on-table {b}) (clear {b})" for b in blocks]
    init.append("(arm-empty)")
    init.extend(f"(diff {x} {y})" for x in blocks for y in blocks if x != y)
    goals = [f"(on b{i} b{i + 1})" for i in range(1, n)]
    return _problem_text(f"stack-{n}", "stack", " ".join(blocks), init, goals)


def hanoi_problem_text(n: int) -> str:
    """n discs (d1 smallest) start stacked on peg1 and must move to peg3."""
    if n < 1:
        raise ValueError("hanoi needs at least 1 disc")
    discs = [f"d{i}" for i in range(1, n + 1)]
    pegs = ["peg1", "peg2", "peg3"]
    objs = discs + pegs
    init = []
    for i, d in enumerate(discs):
        for other in discs[i + 1:]:
            init.append(f"(smaller {d} {other})")
        for peg in pegs:
            init.append(f"(smaller {d} {peg})")
    init.extend(f"(diff {x} {y})" for x in objs for y in objs if x != y)
    for i in range(n - 1):
        init.append(f"(on d{i + 1} d{i + 2})")
    init.append(f"(on d{n} peg1)")
    init.extend(["(clear d1)", "(clear peg2)", "(clear peg3)"])
    goals = [f"(on d{n} peg3)"]
    goals.extend(f"(on d{i} d{i + 1})" for i in range(n - 1, 0, -1))
    return _problem_text(f"hanoi-{n}", "hanoi", " ".join(objs), init, goals)


def tyreworld_problem_text(n: int) -> str:
    """n flat tires: the spare r_i replaces the flat w_i on hub_i."""
    if n < 1:
        raise ValueError("tyreworld needs at least 1 tire")
    flats = [f"w{i}" for i in range(1, n + 1)]
    spares = [f"r{i}" for i in range(1, n + 1)]
    nuts = [f"n{i}" for i in range(1, n + 1)]
    hubs = [f"hub{i}" for i in range(1, n + 1)]
    objects = (
        f"{' '.join(flats + spares)} - wheel {' '.join(nuts)} - nut "
        f"{' '.join(hubs)} - hub pump jack wrench - tool boot - container"
    )
    init = ["(closed boot)", "(annoyed)",
            "(is-pump pump)", "(is-jack jack)", "(is-wrench wrench)",
            "(in pump boot)", "(in jack boot)", "(in wrench boot)"]
    for i in range(n):
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
    goals = []
    for i in range(n):
        goals.extend([
            f"(inflated {spares[i]})",
            f"(on {spares[i]} {hubs[i]})",
            f"(tight {nuts[i]} {hubs[i]})",
            f"(in {flats[i]} boot)",
        ])
    goals.extend(["(in pump boot)", "(in jack boot)", "(in wrench boot)",
                  "(closed boot)"])
    return _problem_text(f"fixit-{n}", "tyreworld", objects, init, goals)


# --- named corpus ------------------------------------------------------------

def _pddl_problem(domain: str, problem_src: str) -> PlanningProblem:
    dom, prob = parse(domain_text(domain), problem_src)
    return ground(dom, prob)


def load(name: str) -> PlanningProblem:
    """Named corpus instance: fixed files, generated families (stack_N,
    hanoi_N, tyreworld_N, e.g. stack_20), or micro JSON fixtures. KeyError
    for any other name, and for one that is not a bare file name (such as
    ``../micro/trap``)."""
    fixed = {
        "blocks3": lambda: _pddl_problem("blocks", problem_text("blocks", "three")),
        "blocks2": lambda: _pddl_problem("blocks", problem_text("blocks", "two")),
        "gripper2": lambda: _pddl_problem("gripper", problem_text("gripper", "two")),
    }
    if name in fixed:
        return fixed[name]()
    for prefix, domain, generator in (
        ("stack_", "stack", stack_problem_text),
        ("hanoi_", "hanoi", hanoi_problem_text),
        ("tyreworld_", "tyreworld", tyreworld_problem_text),
    ):
        if name.startswith(prefix):
            try:
                text = generator(int(name[len(prefix):]))
            except ValueError as exc:
                raise PlanningError(f"corpus problem {name!r}: {exc}") \
                    from None
            return _pddl_problem(domain, text)
    if Path(name).name == name:  # a bare file name: nothing outside micro/
        try:
            return load_ground_json(micro_text(name))
        except FileNotFoundError:
            pass
    raise KeyError(f"unknown corpus problem {name!r}")


#: Problems small enough for exhaustive oracle runs, used across the test
#: suite.
EXHAUSTIBLE = (
    "blocks2", "blocks3", "stack_4", "hanoi_3", "gripper2",
    "tyreworld_1", "trap", "revival", "diamond", "latch",
)

#: Everything the determinism and verification sweeps iterate over.
ALL_NAMED = EXHAUSTIBLE + ("stack_6", "hanoi_4", "tyreworld_2")
