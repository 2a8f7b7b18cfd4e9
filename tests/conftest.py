import pytest

from goalagenda import corpus
from goalagenda.driver import forward_search
from goalagenda.graphplan import GraphContext, build_graph, graphplan_search
from goalagenda.model import SuccessorTable
from goalagenda.oracle import enumerate_reachable

#: Ground-problem JSON of an invertible STRIPS problem that no plan solves:
#: nothing adds X.
TWO_ROOMS = {
    "name": "two_rooms",
    "actions": [
        {"name": "go(A,B)", "pre": ["atA"], "add": ["atB"], "del": ["atA"]},
        {"name": "go(B,A)", "pre": ["atB"], "add": ["atA"], "del": ["atB"]},
    ],
    "init": ["atA"],
    "goals": ["atB", "X"],
}

#: TWO_ROOMS with ADL actions: each move is one unconditional effect.
TWO_ROOMS_ADL = dict(TWO_ROOMS, actions=[
    {"name": a["name"], "pre": a["pre"],
     "effects": [{"add": a["add"], "del": a["del"]}]}
    for a in TWO_ROOMS["actions"]])

_problems: dict = {}
_indexes: dict = {}
_graphs: dict = {}
_criterion_results: dict = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(key, label): acceptance criterion covered by this test")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    key = getattr(report, "_criterion", None)
    if key is None:
        return
    key, label = key
    if hasattr(report, "wasxfail"):
        status = "EXPECTED FAIL (documented)" if report.skipped else "FAIL"
    else:
        status = {"passed": "PASS", "failed": "FAIL",
                  "skipped": "SKIP"}.get(report.outcome, report.outcome)
    _criterion_results[key] = (status, label)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        outcome.get_result()._criterion = (marker.args[0], marker.args[1])


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(_criterion_results, key=str):
        status, label = _criterion_results[key]
        terminalreporter.write_line(f"criterion {key}: {status} - {label}")


@pytest.fixture(scope="session")
def load():
    """Cached corpus loader shared by the whole session."""

    def _load(name):
        if name not in _problems:
            _problems[name] = corpus.load(name)
        return _problems[name]

    return _load


@pytest.fixture(scope="session")
def index_of(load):
    def _index(name):
        if name not in _indexes:
            _indexes[name] = enumerate_reachable(load(name))
        return _indexes[name]

    return _index


@pytest.fixture(scope="session")
def graph_of(load):
    """Leveled planning graphs, light retention (enough for false sets)."""

    def _graph(name):
        if name not in _graphs:
            _graphs[name] = build_graph(load(name), retain_layers=False)
        return _graphs[name]

    return _graph


def atoms(problem, *names):
    return frozenset(problem.atoms.id(n) for n in names)


def names_of(problem, ids):
    return sorted(problem.atoms.name(i) for i in ids)


def graphplan_on(problem, **limits):
    """``graphplan_search`` from the problem's initial state to its goals."""
    return graphplan_search(GraphContext(problem), problem.init,
                            problem.goals, **limits)


def forward_on(problem, **limits):
    """``forward_search`` from the problem's initial state to its goals."""
    return forward_search(SuccessorTable(problem), problem.init,
                          problem.goals, **limits)
