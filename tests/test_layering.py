"""The package dependency order, pinned.

Builds the ``repro.*`` package import graph from source with ``ast`` —
function-level imports count, since a lazy import hides a cycle without
removing it — and asserts the diagram in docs/ARCHITECTURE.md ("Package
dependency layers"): :data:`LAYERS` is that diagram, bottom row first,
and a package imports only from rows below its own, except inside the
three pairs of :data:`ALLOWED_CYCLES`.  That list is shrink-only:
breaking a pair means deleting its entry, and nothing may be added.
"""

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Set

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LAYERS = [
    {"common"},
    {"telemetry", "simcore", "crypto", "directory"},
    {"storage", "qr", "policy", "resolvers", "radius"},
    {"ingest"},
    {"authflow", "otpserver"},
    {"pam", "ssh", "portal"},
    {"core", "workload"},
    {"analysis", "sim", "chaos"},
    {"__init__", "__main__"},
]

ALLOWED_CYCLES = {
    frozenset({"authflow", "otpserver"}),
    frozenset({"pam", "ssh"}),
    frozenset({"analysis", "sim"}),
}


def _package_of(path: Path) -> str:
    parts = path.relative_to(SRC).parts
    return parts[0] if len(parts) > 1 else path.stem


def _imported_modules(tree: ast.AST) -> List[str]:
    modules: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative imports would dodge this test"
            if node.module == "repro":
                modules.extend(f"repro.{alias.name}" for alias in node.names)
            elif node.module:
                modules.append(node.module)
    return modules


def import_graph() -> Dict[str, Set[str]]:
    """package -> the other ``repro`` packages any of its files import."""
    packages = {_package_of(path) for path in SRC.rglob("*.py")}
    graph: Dict[str, Set[str]] = {package: set() for package in packages}
    for path in SRC.rglob("*.py"):
        package = _package_of(path)
        for module in _imported_modules(ast.parse(path.read_text())):
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in packages:
                graph[package].add(parts[1])
        graph[package].discard(package)
    return graph


def cycles(graph: Dict[str, Set[str]]) -> Set[FrozenSet[str]]:
    """Strongly connected components with more than one package."""
    reach: Dict[str, Set[str]] = {}
    for start in graph:
        seen: Set[str] = set()
        stack = list(graph[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(graph[node])
        reach[start] = seen
    components = {
        frozenset(b for b in reach[a] if a in reach[b]) | {a} for a in graph
    }
    return {component for component in components if len(component) > 1}


GRAPH = import_graph()


def test_imports_point_down_the_diagram():
    row = {package: n for n, layer in enumerate(LAYERS) for package in layer}
    assert set(row) == set(GRAPH), "every package has exactly one row"
    upward = [
        (package, target)
        for package, targets in GRAPH.items()
        for target in targets
        if row[target] >= row[package]
        and frozenset({package, target}) not in ALLOWED_CYCLES
    ]
    assert upward == []


def test_extensions_package_is_gone():
    assert "extensions" not in GRAPH
    assert not (SRC / "extensions").exists()


def test_common_imports_nothing_from_repro():
    assert GRAPH["common"] == set()


def test_policy_resolvers_radius_are_leaves():
    for package in ("policy", "resolvers", "radius"):
        assert GRAPH[package] <= {"common", "telemetry"}, (package, GRAPH[package])


def test_ingest_does_not_import_otpserver():
    assert "otpserver" not in GRAPH["ingest"]


def test_every_cycle_is_an_allowed_pair():
    found = cycles(GRAPH)
    assert found <= ALLOWED_CYCLES, sorted(map(sorted, found - ALLOWED_CYCLES))
    # Shrink-only: an entry whose cycle has been cut must be deleted.
    assert ALLOWED_CYCLES <= found, sorted(map(sorted, ALLOWED_CYCLES - found))
    assert max(map(len, found)) == 2


def test_no_deprecation_shims_in_src():
    offenders = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "DeprecationWarning" in path.read_text()
    ]
    assert offenders == []


#: Names of the deleted batch path.  Shrink-only: nothing under
#: ``src/`` may spell them again; ``validate`` and ``IngestQueue.submit*``
#: are the two seams into the back end.
RETIRED_NAMES = (
    "SubmitAPI",
    "handle_batch",
    "map_batch",
    "batch_workers",
    "admission_scope",
    "_pumping",
)


def _spelled_in_src(names):
    return sorted(
        (str(path.relative_to(SRC)), name)
        for path in SRC.rglob("*.py")
        for name in names
        if name in path.read_text()
    )


def test_retired_batch_path_stays_out_of_src():
    assert _spelled_in_src(RETIRED_NAMES) == []


#: Names of the second way to configure a login node.  Shrink-only, as
#: above: the pam.d text through ``standard_registry`` is the one Figure-1
#: stack, resolved per connection by the node's ``PAMServiceManager``.
RETIRED_STACK_NAMES = ("stack_provider", "_build_stack", "policy_factory")


def test_retired_stack_fork_stays_out_of_src():
    assert _spelled_in_src(RETIRED_STACK_NAMES) == []


def test_pam_builds_no_policy_engine_of_its_own():
    """Every policy-backed module asks the engine it is handed (its
    system's); a module-private fallback is where PAM and the system's
    rules drift apart."""
    offenders = [
        str(path.relative_to(SRC))
        for path in (SRC / "pam").rglob("*.py")
        if "PolicyEngine(" in path.read_text()
    ]
    assert offenders == []
