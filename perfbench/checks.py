"""Output checks that do not rely on the code under test.

Plans are replayed by this module's own simulator (not
``model.validate_plan``); stack agendas and stack oracle state counts are
compared with closed forms; verify rows must satisfy criterion 6 (a graph
ordering implies the exact reasonable ordering). Each check returns a list
of problems found, empty when the output is right.
"""

from __future__ import annotations

import hashlib
import json
from math import comb, factorial


def replay(problem, plan, goal_names) -> list:
    """Execute ``plan`` (parallel steps of action ids) from the initial
    state: every action's precondition holds before its step, no two actions
    of one step interfere (one deletes another's precondition or add), and
    every named goal holds at the end. ADL actions fire each conditional
    effect whose condition holds before the step."""
    issues = []
    state = set(problem.init)
    for index, step in enumerate(plan.steps):
        effects = []
        for action_id in sorted(step):
            action = problem.actions[action_id]
            if hasattr(action, "effects"):
                fired = [e for e in action.effects if e.condition <= state]
                pre = action.effects[0].condition
                add = frozenset().union(*(e.adds for e in fired))
                delete = frozenset().union(*(e.deletes for e in fired))
            else:
                pre, add, delete = action.pre, action.add, action.delete
            if not pre <= state:
                issues.append(f"step {index}: {action.name} inapplicable")
            effects.append((action.name, pre, add, delete))
        for i, (name_a, pre_a, add_a, del_a) in enumerate(effects):
            for name_b, pre_b, add_b, del_b in effects[i + 1:]:
                if del_a & (pre_b | add_b) or del_b & (pre_a | add_a):
                    issues.append(
                        f"step {index}: {name_a} interferes with {name_b}")
        for _, _, _, delete in effects:
            state -= delete
        for _, _, add, _ in effects:
            state |= add
    names = problem.atoms
    missing = [g for g in goal_names
               if g not in names or names.id(g) not in state]
    if missing:
        issues.append(f"goals unmet at the end: {missing}")
    return issues


def stack_agenda(problem, agenda, tower) -> list:
    """A stack_N agenda is n-1 singleton entries, from the bottom of the
    tower upward."""
    expected = [[f"on({x},{y})"] for x, y in
                reversed(list(zip(tower, tower[1:])))]
    got = [sorted(problem.atoms.name(a) for a in entry)
           for entry in agenda.entries]
    if got != expected:
        return [f"stack agenda {got[:3]}... differs from the closed form "
                f"{expected[:3]}..."]
    return []


def _lah_sum(n: int) -> int:
    """Arrangements of n labelled blocks into unordered towers."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k - 1) * factorial(n) // factorial(k)
               for k in range(1, n + 1))


def stack_states(n: int) -> int:
    """Reachable states of the n-block stack domain with one arm: every
    tower arrangement with the arm empty, plus each held block over the
    arrangements of the rest (125, 7,057 and 65,990 for n = 4, 6, 7)."""
    return _lah_sum(n) + n * _lah_sum(n - 1)


def verify_rows(matrix) -> list:
    """Criterion 6: on every pair the exact reasonable ordering (r) holds
    whenever the graph ordering (e) does."""
    return [f"e without r on {row['before']} < {row['after']}"
            for row in matrix["pairs"]
            if row["e"] and row["r"] is not None and not row["r"]]


def digest(output) -> str:
    """Canonical digest of a job's JSON output."""
    text = json.dumps(output, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
