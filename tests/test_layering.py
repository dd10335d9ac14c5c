"""The package dependency order, pinned.

Builds the ``repro.*`` package import graph from source with ``ast`` —
function-level imports count, since a lazy import hides a cycle without
removing it — and asserts the diagram in docs/ARCHITECTURE.md ("Package
dependency layers"): :data:`LAYERS` is that diagram, bottom row first,
and a package imports only from rows below its own.  There are no
exceptions left: :data:`ALLOWED_CYCLES` is shrink-only and has shrunk to
empty, so nothing may be added to it.

The same graph, one level down, answers "is this module used?": every
module is imported by another package (directly, or by name through its
own package's re-export) or by ``__main__``, or it is on the shrink-only
:data:`INVENTORY_ONLY` list of paper-inventory modules that only examples,
tests and paper-figure benchmarks drive.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LAYERS = [
    {"common"},
    {"telemetry", "simcore", "crypto", "directory"},
    {"storage", "qr", "policy", "resolvers", "radius"},
    {"ingest"},
    {"authflow"},
    {"otpserver"},
    {"pam", "portal"},
    {"ssh"},
    {"core", "workload"},
    {"sim", "chaos"},
    {"analysis"},
    {"__init__", "__main__"},
]

ALLOWED_CYCLES: Set[FrozenSet[str]] = set()


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
    assert ALLOWED_CYCLES == set()


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


#: Names of the per-subsystem operator surfaces and of the knobs nothing
#: set.  Shrink-only, as above: ``OTPServer.status()`` behind ``GET
#: /admin/status`` and ``python -m repro status`` is the one operator view.
RETIRED_SURFACE_NAMES = (
    "storage_stats",
    "policy_snapshot",
    "queue_snapshot",
    "resolver_snapshot",
    "attach_ingest",
    "/admin/storage",
    "/admin/policy",
    "/admin/queue",
    "/admin/resolvers",
    "set_version_source",
    "ship_latency",
)


def test_retired_status_surfaces_stay_out_of_src():
    assert _spelled_in_src(RETIRED_SURFACE_NAMES) == []


#: The series that mirrored a count ``status()`` already reports, and the
#: plumbing that existed only to feed them.  Shrink-only, as above: a level
#: or total a subsystem keeps is read from ``OTPServer.status()`` (and
#: scraped as ``repro_status{path=…}``), never registered as a twin series.
#: Series names are matched quoted, as a registration would spell them.
RETIRED_SERIES = (
    "ingest_depth",
    "ingest_submitted_total",
    "ingest_completed_total",
    "ingest_retries_total",
    "ingest_sla_total",
    "resolver_lookups_total",
    "resolver_health",
    "resolver_circuit_state",
    "resolver_circuit_transitions_total",
    "radius_server_health",
    "radius_circuit_state",
    "radius_circuit_transitions_total",
    "radius_server_requests_total",
    "radius_server_duplicates_total",
    "radius_server_unknown_clients_total",
    "policy_risk_assessments_total",
    "storage_shard_rows",
    "storage_wal_snapshots_total",
    "storage_promotions_total",
    "otp_audit_log_size",
    "otp_audit_lag_seconds",
    "storage_cache_entries",
    "storage_cache_hits_total",
    "storage_cache_misses_total",
    "ssh_logins_total",
    "radius_client_requests_total",
    "sms_messages_total",
    "sms_cost_dollars_total",
    "udp_fabric_bindings_total",
    "udp_fabric_chaos_drops_total",
    "portal_logins_total",
    "portal_pairings_total",
    "portal_unpairs_total",
    "otp_honeytoken_alarms_total",
    "storage_replica_ship_total",
    "chaos_faults_injected_total",
    "ingest_shed_total",
)
RETIRED_SERIES_PLUMBING = (
    "_metered",
    "_refresh_gauges",
    "_verdict_cache",
    "health_metric",
    "circuit_metric",
    "transitions_metric",
    "CIRCUIT_GAUGE_VALUE",
    "sim.events",
)


def test_retired_twin_series_stay_out_of_src():
    assert len(set(RETIRED_SERIES)) == 37
    assert _spelled_in_src([f'"{name}"' for name in RETIRED_SERIES]) == []
    assert _spelled_in_src(RETIRED_SERIES_PLUMBING) == []
    # ``common.resilience`` takes no registry from a layer above it, the
    # sharding layer reports its rows through ``describe()`` alone, and the
    # fabric, the portal and the chaos engine have no event a registry keeps.
    for name in (
        "common/resilience.py", "storage/sharding.py", "radius/transport.py",
        "portal/portal.py", "chaos/engine.py",
    ):
        assert "telemetry" not in (SRC / name).read_text(), name


def test_every_registered_series_is_in_the_architecture_table():
    """What is left in the registry are events no attribute keeps: at most
    23 names, each with its reason in docs/ARCHITECTURE.md "Telemetry"."""
    registered = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "histogram")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and len(node.args) > 1  # a registration carries its help text
            ):
                registered.add(node.args[0].value)
    assert 0 < len(registered) <= 23
    table = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    assert [name for name in sorted(registered) if f"| `{name}" not in table] == []


#: The second rollout engine (a numpy twin of ``sim.rollout``'s day loop,
#: with its own CLI command and config class) and the instrument kind no
#: line of ``src/`` registered.  Shrink-only, as above: Figures 3-6 and
#: Table 1 have one loop, and a level is read from ``status()``.
RETIRED_TWIN_NAMES = ("sim.scale", "ScaledRollout", "ScaleConfig", "_cmd_simulate", "gauge(")


def test_retired_rollout_twin_and_gauges_stay_out_of_src():
    assert _spelled_in_src(RETIRED_TWIN_NAMES) == []


#: The second adversarial harness: the campaigns' and the fault plans' own
#: config classes, attempt records, reports and CLI commands.  Shrink-only,
#: as above: ``repro.chaos.run`` dispatches every scenario, ``Report`` judges
#: it, and ``python -m repro scenario`` is the one command.
RETIRED_HARNESS_NAMES = (
    "ChaosReport", "AttackReport", "AttemptRecord", "run_attack",
    "WorkloadConfig", "AttackConfig", "_cmd_chaos", "_cmd_attack",
)  # fmt: skip


def test_retired_harness_names_stay_out_of_src():
    assert _spelled_in_src(RETIRED_HARNESS_NAMES) == []


#: The clocks' pre-redesign names, aliased in ``common.clock`` until every
#: spelling was renamed.  Shrink-only, as above.  (Spelled in two pieces so
#: that ``git grep -w`` for a straggler finds none here.)
RETIRED_CLOCK_NAMES = ("System" "Clock", "Simulated" "Clock")


def test_retired_clock_aliases_stay_out_of_src():
    assert _spelled_in_src(RETIRED_CLOCK_NAMES) == []


#: The admission throttle nothing turned on, and the clock-adoption fork it
#: brought.  Shrink-only, as above: the depth bound is the one shed path, and
#: a policy object takes its clock in its constructor.
RETIRED_THROTTLE_NAMES = (
    "TokenBucketLimiter", "THROTTLE", "bind_clock", "clock_injected",
)  # fmt: skip


def _identifier(node) -> str:
    """The name a node binds or reads, if it is a name at all."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.alias):
        return node.asname or node.name.rpartition(".")[2]
    return ""


def _identifiers_in_src(names) -> List[Tuple[str, str]]:
    """``(file, name)`` for every node under ``src/repro`` that binds or
    reads one of ``names``; comments and docstrings do not count."""
    return sorted(
        (str(path.relative_to(SRC)), name)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (name := _identifier(node)) in names
    )


def test_retired_throttle_stays_out_of_src():
    assert _identifiers_in_src(RETIRED_THROTTLE_NAMES) == []


#: The durable-shard fork: ``ReplicaGroup`` was a ``WALEngine`` that also
#: shipped records, ``ReplicatedEngine`` a ``ShardedEngine`` that only built
#: the groups and forwarded crash/rejoin to them, and ``set_shard_latency``
#: a third way to reach one shard.  Shrink-only, as above: a ``WALEngine``
#: ships to its own replicas, and ``storage.shards_of`` reaches a shard.
RETIRED_STORAGE_NAMES = ("ReplicatedEngine", "ReplicaGroup", "set_shard_latency")


def test_retired_replication_fork_stays_out_of_src():
    assert _identifiers_in_src(RETIRED_STORAGE_NAMES) == []


#: The hand-rolled eviction loops that ``common.cache`` replaced.  Shrink-only,
#: as above: a keyed, bounded record is a ``BoundedCache`` under its owner's
#: lock.
RETIRED_CACHE_NAMES = (
    "OrderedDict", ".popitem(", ".move_to_end(",
    "_response_cache", "DEFAULT_CAPACITY", "DEFAULT_CACHE_CAPACITY",
    "_watchlist_verdicts", "_watchlisted",
)  # fmt: skip


def test_one_eviction_implementation():
    assert _spelled_in_src(RETIRED_CACHE_NAMES) == []


#: The LDAP filter-text language: its parser, its escaping and its substring
#: matcher.  Shrink-only, as above: the directory answers a conjunction of
#: literal ``(attr, value)`` equalities, so a login name is compared and never
#: parsed.
RETIRED_FILTER_NAMES = (
    "parse_filter", "escape_filter_value", "_parse_expr", "_compile_filter",
    "_unescape", "_match_substring",
)  # fmt: skip


def test_one_way_to_ask_the_directory():
    assert _spelled_in_src(RETIRED_FILTER_NAMES) == []


#: The PAM front door's second asks and its write-only trail.  Shrink-only,
#: as above: a session's one ``PolicyEngine.screen`` answers the exemption
#: and the risk verdict for every module, and per-module results are
#: counted in ``pam_module_results_total``.
RETIRED_FRONT_DOOR_NAMES = ("is_exempt", "step_up_required", "session.record(")


def test_a_pam_session_asks_the_policy_once_and_keeps_no_trail():
    assert _spelled_in_src(RETIRED_FRONT_DOOR_NAMES) == []


#: The ingest queue's second and third ways in, its adapter, its per-class
#: config class and its close.  Shrink-only, as above: the queue is the back
#: end (``IngestQueue.validate``), ``submit`` is its one deferred door, and
#: each class's rank, SLA and promotion window are a row of
#: ``ingest.priority.CLASSES``.
RETIRED_INGEST_NAMES = (
    "QueuedBackend", "submit_item", "submit_many", "ClassPolicy",
    "DEFAULT_POLICIES", "policy_for", "SHED_CAUSES", "_closed",
)  # fmt: skip


def test_one_way_into_the_ingest_queue():
    assert _spelled_in_src(RETIRED_INGEST_NAMES) == []
    ingest = [SRC / "ingest" / name for name in ("queue.py", "priority.py")]
    defined = {
        node.name
        for path in ingest
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert {"call", "close", "drain"} & defined == set()


def test_every_priority_class_has_a_submitter_in_src():
    """A class no code in ``src/`` names outside its own table is a lane
    nothing fills: every ``PriorityClass`` member is spelled
    ``PriorityClass.<NAME>`` in some other module."""
    from repro.ingest import PriorityClass

    table = SRC / "ingest" / "priority.py"
    named = {
        node.attr
        for path in SRC.rglob("*.py")
        if path != table
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "PriorityClass"
    }
    assert {member.name for member in PriorityClass} <= named
    assert len(PriorityClass) <= 3


#: Public methods and classes that only tests called.  Shrink-only, as
#: above: a convenience with no caller in ``src/``, ``benchmarks/`` or
#: ``examples/`` is deleted with its tests, not kept for them.  (Matched as
#: identifiers, so a docstring may still name one.)
RETIRED_CONVENIENCE_NAMES = (
    "CallbackConversation", "push_response", "set_answer", "disconnect_all",
    "add_value", "pairing_breakdown", "paired_fraction", "accounts_by_class",
    "set_password", "enable_token", "disable_token", "seconds_remaining",
    "secret_to_base32", "event_log_lines", "set_enforcement_mode",
)  # fmt: skip


def test_retired_conveniences_stay_out_of_src():
    assert _identifiers_in_src(RETIRED_CONVENIENCE_NAMES) == []


def test_search_and_select_take_no_scope_and_no_predicate():
    """Every directory search is a subtree search, and every storage select
    an equality ``where``: no ``search`` or ``select`` in ``src/`` grows a
    ``scope`` or ``predicate`` parameter back."""
    offenders = sorted(
        (str(path.relative_to(SRC)), node.name, arg.arg)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("search", "select")
        for arg in (
            *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
            *filter(None, (node.args.vararg, node.args.kwarg)),
        )
        if arg.arg in ("scope", "predicate")
    )  # fmt: skip
    assert offenders == []


def test_only_the_origin_index_files_ranges():
    """docs/ARCHITECTURE.md "A login computes a value once": the exemption
    ACL, the risk watchlist and the GeoIP table file their ranges in
    ``common.origin.OriginIndex``, the one per-mask network table.  No other
    module reads a parsed origin's mask, network or ALL flag, which is what
    building a table of its own would take."""
    readers = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in SRC.rglob("*.py")
        if path != SRC / "common" / "origin.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("mask", "network", "match_all")
    )
    assert readers == []


def test_octets_and_rounds_loop_in_c_not_in_the_interpreter():
    """docs/ARCHITECTURE.md "A loop over rounds or octets runs inside one C
    call".  Shrink-only, as above: an octet string is one draw
    (``common.ids.random_octets``), never a generator of 8-bit draws, and a
    keyed digest is the one-shot ``hmac.digest``."""
    per_octet_draws = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "getrandbits"
        and [getattr(arg, "value", None) for arg in node.args] == [8]
    )
    assert per_octet_draws == []
    assert _spelled_in_src(("hmac.new(",)) == []
    # ... nor over a row's columns: a storage op costs a fixed number of
    # calls per layer, whatever the row's width.
    assert _spelled_in_src(RETIRED_COLUMN_LOOPS) == []
    assert "json.dumps(" not in (SRC / "simcore" / "digest.py").read_text()


#: The per-column and per-op frames a storage op used to pay for: two calls
#: per column to encode a WAL row, one ``.get`` per column to store a row,
#: the routed columns rebuilt per op, and a call per op to sleep for a
#: latency of zero.  Shrink-only, as above.
RETIRED_COLUMN_LOOPS = (
    "encode_value(value) for",
    "for c in self.schema.columns}",
    "_routed_columns",
    "_pause(",
)


def test_no_layer_forwards_what_it_does_not_declare():
    """docs/ARCHITECTURE.md "Storage engines": a wrapper subclasses
    ``storage.engine.Layer`` and declares only what it changes; an extra is
    reached with ``find_layer``.  Shrink-only, as above: nothing under
    ``src/`` forwards unknown attributes, and no class but ``Layer``
    declares a method only to call the same one on ``self.inner``."""
    assert _spelled_in_src(("def __getattr__",)) == []
    pass_through = sorted(
        f"{path.relative_to(SRC)}:{klass.name}.{method.name}"
        for path in SRC.rglob("*.py")
        for klass in ast.walk(ast.parse(path.read_text()))
        if isinstance(klass, ast.ClassDef) and klass.name != "Layer"
        for method in klass.body
        if isinstance(method, ast.FunctionDef) and _only_calls_inner(method)
    )
    assert pass_through == []


def test_one_introspection_verb():
    """A component's introspection view is ``snapshot()``: no class under
    ``src/`` answers ``stats()`` beside it.  Shrink-only, as above."""
    answering = sorted(
        f"{path.relative_to(SRC)}:{klass.name}"
        for path in SRC.rglob("*.py")
        for klass in ast.walk(ast.parse(path.read_text()))
        if isinstance(klass, ast.ClassDef)
        for method in klass.body
        if isinstance(method, ast.FunctionDef) and method.name == "stats"
    )
    assert answering == []


def _only_calls_inner(method: ast.FunctionDef) -> bool:
    """``method``'s body is one ``[return] self.inner.<its name>(...)``."""
    body = [
        node for node in method.body
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
    ]  # fmt: skip
    if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
        return False
    call = body[0].value
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == method.name
        and ast.unparse(call.func.value) == "self.inner"
    )


def test_status_code_does_not_probe_the_stack_shape():
    """Each storage layer reports itself (``describe``); the code that
    serves or prints the operator view never walks the stack to find out
    what it is made of."""
    for name in ("otpserver/server.py", "otpserver/admin_api.py", "__main__.py"):
        assert "find_layer" not in (SRC / name).read_text(), name
    assert "isinstance" not in (SRC / "__main__.py").read_text()


# -- reachability ---------------------------------------------------------------

#: Modules of the paper's inventory (DESIGN.md §2, by its S-numbers) that
#: no other package and no CLI command imports: examples, tests and the
#: paper-figure benchmarks are their only drivers.  Shrink-only — a module
#: either gets a caller in ``src/`` (delete its entry) or goes; nothing may
#: be added.
INVENTORY_ONLY = {
    "qr.decoder",  # S3: the phone app's side of the pairing round trip
    "portal.portal",  # S11: the user portal ...
    "portal.pairing",  # ... its pairing sessions ...
    "portal.store",  # ... and its hard-token web store
    "analysis.loginaudit",  # S13: the Section 4.1 log audit ...
    "analysis.preaudit",  # S21: ... and the campaign that feeds it
    "workload.scheduler",  # S20: the Section 5 workload-manager mitigations
}

#: Inventory modules that copied a path the deployment already runs, so they
#: were deleted rather than given a caller: the RADIUS proxy hop (the
#: client's own round-robin failover, and the server's Proxy-State echo),
#: RFC 2866 accounting behind ``SSHDaemon(accounting=)`` (the authlog's
#: ``session_open`` rows and the node's login tallies) and ``pam_geo_check``
#: (the risk engine's impossible-travel signal, which both policy-backed
#: PAM modules already act on).  ``storage.replication`` went the same way:
#: its replica group is ``WALEngine``'s own replicas.  Shrink-only, as above:
#: neither the modules nor their classes come back.
RETIRED_INVENTORY = {
    "radius.proxy": ("RADIUSProxy",),
    "radius.accounting": ("AccountingServer", "AccountingClient", "AcctStatusType"),
    "pam.modules.geo": ("PamGeoCheckModule",),
    "storage.replication": ("ReplicatedEngine", "ReplicaGroup"),
}


def _module_of(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


MODULES = {_module_of(path): path for path in SRC.rglob("*.py")}


@functools.lru_cache(maxsize=None)
def _imports(path: Path) -> Tuple[Tuple[str, Optional[str]], ...]:
    """``(module, name)`` per import, relative to ``repro``; ``name`` is
    ``None`` for a plain ``import a.b``."""
    found: List[Tuple[str, Optional[str]]] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend(
                (alias.name[len("repro."):], None)
                for alias in node.names
                if alias.name.startswith("repro.")
            )
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                module = node.module[len("repro."):]
                found.extend((module, alias.name) for alias in node.names)
    return tuple(found)


def _resolve(module: str, name: Optional[str]) -> Optional[str]:
    """The source module an import lands in: the submodule or module named,
    or — for a name imported from a package — wherever that package's
    ``__init__`` got it from (the ``__init__`` itself if it defines it)."""
    if name is not None and f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module in MODULES:
        return module
    init = f"{module}.__init__"
    if init not in MODULES or name is None:
        return None
    for source, exported in _imports(MODULES[init]):
        if exported == name:
            return _resolve(source, name)
    return init


def _names_read(path: Path) -> Set[str]:
    return {
        node.id
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_module_has_a_caller_or_is_inventory():
    package = {module: module.split(".")[0] for module in MODULES}
    importers: Dict[str, Set[str]] = {module: set() for module in MODULES}
    for importer, path in MODULES.items():
        reexporting = importer.endswith("__init__")
        names_read = _names_read(path) if reexporting else set()
        for module, name in _imports(path):
            target = _resolve(module, name)
            if target is None or target == importer:
                continue
            # A package's ``__init__`` re-exporting a name is not a use of
            # it (someone importing the name from the package is); an
            # ``__init__`` whose own code reads the name (``build_engine``)
            # is a caller like any other.
            if reexporting and package[target] == package[importer]:
                if name not in names_read:
                    continue
            importers[target].add(importer)
    # Used from outside its package (``__main__`` and the root ``__init__``
    # are packages of their own here), or by a sibling that is.
    used = {
        module
        for module in MODULES
        if any(package[importer] != package[module] for importer in importers[module])
    }
    frontier = set(used)
    while frontier:
        frontier = {
            module
            for module in set(MODULES) - used
            if any(importer in used for importer in importers[module])
        }
        used |= frontier
    unused = {
        module
        for module in set(MODULES) - used
        if not module.endswith("__init__") and module != "__main__"
    }
    assert unused == INVENTORY_ONLY, sorted(unused ^ INVENTORY_ONLY)
    # Shrink-only: 10 entries at the first count -> 7.
    assert len(INVENTORY_ONLY) <= 7


def test_retired_inventory_stays_out_of_src():
    assert set(RETIRED_INVENTORY) & set(MODULES) == set()
    names = {name for retired in RETIRED_INVENTORY.values() for name in retired}
    assert _identifiers_in_src(names) == []


# -- configuration census -------------------------------------------------------
#
# The rule (docs/ARCHITECTURE.md "Configuration"): a configuration field or
# constructor option stays only while some caller sets it.  A value nothing
# sets is a module constant next to the code that reads it; a harness never
# derives the deployment's shape from the workload it is about to run.

ROOT = SRC.parent.parent

#: The configuration dataclasses under ``src/repro`` (everything but
#: ``analysis``).  Any other ``@dataclass`` there whose name ends ``Config``,
#: ``Policy`` or ``Model`` is counted as well, so a new one cannot dodge.
CONFIG_CLASSES = {
    "RolloutConfig", "AdoptionModel", "AdaptationModel", "TicketModel", "IngestConfig",
    "StorageConfig", "ResolverConfig", "OTPServerConfig", "CarrierProfile",
}  # fmt: skip

#: Fields only tests, the old bench fleet (``benchmarks/*.py``) or examples
#: set.  Exact and shrink-only: the debt is listed here, not paid, and each
#: entry waits on something named — the paper-figure ablations (the
#: lockout threshold, the drift window and the three rollout dates).  A field leaves the list by getting a caller in
#: ``src/`` or by becoming a constant — or with the mechanism it turns on,
#: when nothing else does.
TEST_ONLY_FIELDS = {
    ("OTPServerConfig", "drift_seconds"),
    ("OTPServerConfig", "lockout_threshold"),
    ("RolloutConfig", "announcement"),
    ("RolloutConfig", "phase2"),
    ("RolloutConfig", "phase3"),
}

#: Call sites that set fields or ``__init__`` parameters through a
#: ``**mapping`` the AST cannot read: ``(file, class) -> the names the
#: mapping carries``, with the reason.
OPAQUE_CALLS = {
    # ``STORAGE = dict(...)`` splatted next to ``wal_dir=``; the file is frozen.
    ("benchmarks/loginbench/rigs.py", "StorageConfig"): (
        "shards", "durability", "cache_capacity", "snapshot_every",
    ),
    # ``_demo_login(**center_options)``: what ``status`` and its tests add.
    ("src/repro/__main__.py", "MFACenter"): ("ingest", "resolvers", "risk"),
    # Test helpers that forward their keyword arguments to the constructor.
    ("tests/authflow/test_outcome_writes.py", "MFACenter"): ("telemetry",),
    ("tests/authflow/test_pipeline.py", "OTPServer"): ("telemetry", "config", "policy"),
    ("tests/core/test_infrastructure.py", "MFACenter"): ("storage", "ingest", "pam_dir"),
    ("tests/integration/test_login_once.py", "MFACenter"): ("ingest", "telemetry"),
    ("tests/policy/test_engine.py", "PolicyEngine"): (
        "clock", "ladder", "exemptions", "telemetry",
    ),
    ("tests/portal/test_portal.py", "MFACenter"): (
        "storage", "ingest", "risk", "resolvers",
    ),
    ("tests/radius/test_wait_clock.py", "RADIUSClient"): (
        "clock", "wait_clock", "deadline_budget",
    ),
    ("tests/storage/test_replication.py", "WALEngine"): ("replicas", "snapshot_every"),
}  # fmt: skip

#: The fields the census retired, by class (``None``: the whole class).
#: Shrink-only, as above: none of them comes back as a field.
RETIRED_FIELDS = {
    "WorkloadConfig": None,
    "AdoptionModel": (
        "voluntary_scale", "voluntary_halflife", "countdown_first_prob",
        "countdown_repeat_prob", "phase2_announce_prob", "deadline_prob",
        "phase2_day", "phase3_day",
    ),
    "TicketModel": (
        "baseline_per_10k", "pairing_ticket_prob", "countdown_ticket_prob",
        "lockout_ticket_prob", "steady_mfa_rate_per_10k",
    ),
    "RolloutConfig": ("start", "end", "outreach", "new_accounts_per_1k", "storage"),
    "AttackConfig": None,
    "SMSPricing": None,
    "BackoffPolicy": None,
    "FailoverPolicy": None,
    "RiskWeights": None,
    "RateLimitConfig": None,
    "IngestConfig": (
        "shed_classes", "policies", "retry_base_delay", "retry_max_delay",
        "admission_rate", "admission_burst",
    ),
    "ClassPolicy": None,
    "ResolverConfig": ("cache_ttl", "failover", "negative_ttl", "cache_capacity"),
    "OTPServerConfig": (
        "issuer", "digits", "totp_step", "sms_code_validity", "hotp_look_ahead",
    ),
    "StorageConfig": ("virtual_nodes", "latency"),
    "ConcurrencyConfig": None,
}  # fmt: skip

#: ``__init__`` parameters that only tests passed, or nothing did, now module
#: constants or class attributes (or, for ``IngestQueue.limiter`` and
#: ``PolicyEngine.rate_limit``, a deleted admission throttle, for
#: ``SSHDaemon.accounting`` the deleted RFC 2866 emitter, for ``WALEngine.wal``
#: a ready log no caller passed, for ``InMemoryEngine.latency`` and
#: ``LDAPSimResolver.latency`` the one setter left, ``set_latency``, for
#: ``SMSGateway.carrier`` and ``MFACenter.fabric_loss_rate`` the attribute a
#: rig assigns, for ``Decision``'s risk verdict the stamp after construction,
#: and for ``MFATokenModule.passive_notice`` and ``FlatFileResolver`` the
#: mechanism itself).  Shrink-only, as above: none of them comes back.
RETIRED_PARAMETERS = {
    "IngestQueue": ("limiter",),
    "PriorityHeap": ("policies",),
    "PolicyEngine": ("rate_limit",),
    "RiskEngine": ("weights", "deny_threshold", "flag_log_limit"),
    "HealthTracker": ("policy",),
    "ResolverChain": ("policy",),
    "RADIUSClient": ("policy", "retries", "health_aware"),
    "MFACenter": ("radius_policy", "fabric_loss_rate"),
    "SSHDaemon": ("accounting",),
    "WALEngine": ("wal",),
    "OTPServer": ("concurrency",),
    "AuthPipeline": ("concurrency",),
    "InMemoryEngine": ("latency",),
    "AttestationIssuer": ("audience", "ttl"),
    "AttestationVerifier": ("audience",),
    "DirectoryResolver": ("name",),
    "LDAPSimResolver": ("name", "latency"),
    "FederatedResolver": ("name",),
    "FlatFileResolver": ("text", "name"),
    "IdentityBackend": ("ldap",),
    "PAMStack": ("entries",),
    "Decision": ("risk_score", "risk_action", "risk_signals"),
    "Registry": ("max_series", "max_traces"),
    "Tracer": ("max_traces",),
    "_Instrument": ("max_series",),
    "Counter": ("max_series",),
    "Histogram": ("max_series",),
    "MFATokenModule": ("passive_notice",),
    "IdAllocator": ("width",),
    "SMSGateway": ("carrier",),
}

#: The mechanisms that left with their only option: the flat-file resolver
#: no builder registered, the login notice only tests turned on, and a second
#: way to flip the Figure-1 mode beside ``HPCSystem.set_mode``.  Shrink-only,
#: as above; matched as text, so a docstring may not name them either.
RETIRED_OPTION_NAMES = ("FlatFileResolver", "passive_notice", "set_enforcement_mode")


def test_retired_option_mechanisms_stay_out_of_src():
    assert _spelled_in_src(RETIRED_OPTION_NAMES) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
        if name == "dataclass":
            return True
    return False


@functools.lru_cache(maxsize=None)
def _config_fields() -> Dict[str, List[str]]:
    """Config class name -> its fields, in declaration (= positional) order."""
    found: Dict[str, List[str]] = {}
    for path in SRC.rglob("*.py"):
        if _package_of(path) == "analysis":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            if node.name in CONFIG_CLASSES or node.name in RETIRED_FIELDS or (
                node.name.endswith(("Config", "Policy", "Model"))
            ):
                found[node.name] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return found


def _field_setters(fields: Dict[str, List[str]]):
    """``(class, field) -> the files that set it`` and the opaque call sites,
    read off every call in ``src``, ``tests``, ``benchmarks`` and ``examples``:
    keyword and positional arguments of the class itself, and the keywords of
    ``dataclasses.replace`` (credited to every class that has the field)."""
    setters: Dict[Tuple[str, str], Set[str]] = {
        (name, field): set() for name, names in fields.items() for field in names
    }
    opaque: Set[Tuple[str, str]] = set()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in fields:
                    for position, arg in enumerate(node.args):
                        if isinstance(arg, ast.Starred):
                            opaque.add((where, name))
                            break
                        setters[(name, fields[name][position])].add(where)
                    for keyword in node.keywords:
                        if keyword.arg is None:
                            opaque.add((where, name))
                        elif (name, keyword.arg) in setters:
                            setters[(name, keyword.arg)].add(where)
                elif name == "replace":
                    for keyword in node.keywords:
                        for owner, names in fields.items():
                            if keyword.arg in names:
                                setters[(owner, keyword.arg)].add(where)
    return setters, opaque


def _is_test_side(where: str) -> bool:
    """Tests, examples and the old bench fleet; loginbench is a real caller."""
    return not where.startswith(("src/", "benchmarks/loginbench/"))


def test_every_config_field_has_a_setter():
    fields = _config_fields()
    assert CONFIG_CLASSES <= set(fields), sorted(CONFIG_CLASSES - set(fields))
    setters, opaque = _field_setters(fields)
    for (where, name), carried in OPAQUE_CALLS.items():
        for field in carried:
            if name in fields:
                setters[(name, field)].add(where)
    unset = sorted(key for key, files in setters.items() if not files)
    assert unset == [], "no caller sets these: make each a module constant"
    declared = {key for key in OPAQUE_CALLS if key[1] in fields}
    assert opaque == declared, sorted(opaque ^ declared)
    test_only = {
        key for key, files in setters.items() if all(map(_is_test_side, files))
    }
    assert test_only == TEST_ONLY_FIELDS, sorted(test_only ^ TEST_ONLY_FIELDS)
    # Shrink-only, from the first census: 127 fields -> 78 -> 72 -> 70 -> 58,
    # 42 -> 39 -> 37 -> 30 -> 9 -> 7 -> 5.
    assert len(TEST_ONLY_FIELDS) <= 5
    assert len(setters) <= 26


def test_retired_config_fields_stay_retired():
    fields = _config_fields()
    for name, retired in RETIRED_FIELDS.items():
        if retired is None:
            assert name not in fields, name
        else:
            assert set(fields[name]) & set(retired) == set(), name


def test_retired_parameters_stay_retired():
    classes = {
        node.name: node
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name in RETIRED_PARAMETERS
    }
    # A class retired whole is pinned out by name instead.
    gone = set(RETIRED_PARAMETERS) - set(classes)
    assert gone <= set(RETIRED_OPTION_NAMES), sorted(gone)
    assert sum(map(len, RETIRED_PARAMETERS.values())) == 41
    for name, retired in RETIRED_PARAMETERS.items():
        if name in gone:
            continue
        (init,) = [
            node
            for node in classes[name].body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ]
        params = {arg.arg for arg in init.args.args + init.args.kwonlyargs}
        assert params & set(retired) == set(), name


# -- constructor options ----------------------------------------------------------
#
# The same rule for the options of a constructor: every defaulted ``__init__``
# parameter of a class under ``src/repro`` (but ``analysis`` and the
# ``INVENTORY_ONLY`` modules, as above) needs a caller that passes it.

#: The collaborators every component is handed, so that a test injects its own.
INJECTED_PARAMETERS = frozenset({"clock", "rng", "telemetry", "wait_clock"})

#: The deployment's addresses and secrets, which docs/ARCHITECTURE.md
#: "Configuration" keeps configurable whoever sets them today.
DEPLOYMENT_PARAMETERS = frozenset(
    {"radius_secret", "master_key", "base_dn", "base", "wal_dir", "pam_dir", "path"}
)

#: Parameters only tests, examples or the old bench fleet set, each with what
#: it waits on.  Exact and shrink-only: an entry leaves by getting a caller in
#: ``src/`` or ``benchmarks/loginbench/``, by becoming a constant, or with the
#: mechanism it turns on.
TEST_ONLY_PARAMETERS = {
    ("OTPServer", "config"):
        "the lockout and drift ablations TEST_ONLY_FIELDS lists",
    ("MFACenter", "num_radius_servers"):
        "the server-count ablation in benchmarks/test_ablations.py",
    ("RiskEngine", "step_up_threshold"):
        "benchmarks/test_extensions.py and the risk example; ROADMAP item 11 "
        "re-derives the score",
    ("RiskEngine", "geo_monitor"):
        "the same two callers; ROADMAP item 11 decides the travel feature",
    ("UDPFabric", "loss_rate"):
        "the one loss that drops a reply after the server consumed the code, "
        "which ROADMAP item 20 counts",
    ("ScriptedConversation", "responses"): "the PAM conversation fake",
}  # fmt: skip


@functools.lru_cache(maxsize=None)
def _init_options():
    """Class name -> (its ``__init__`` parameters after ``self``, in
    positional order, the defaulted ones among them, its base-class names)."""
    found = {}
    for module, path in MODULES.items():
        if module.split(".")[0] == "analysis" or module in INVENTORY_ONLY:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for init in node.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    args = init.args
                    positional = [arg.arg for arg in args.posonlyargs + args.args][1:]
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [
                        arg.arg
                        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None
                    ]
                    assert node.name not in found, f"two classes named {node.name}"
                    found[node.name] = (
                        positional, defaulted, [_identifier(base) for base in node.bases],
                    )  # fmt: skip
    return found


class _OptionSetters(ast.NodeVisitor):
    """Credits the parameters each call passes: a call of the class by name,
    ``cls(...)`` inside it, and ``super().__init__(...)`` in a subclass."""

    def __init__(self, options, setters, opaque, where):
        self.options = options
        self.setters = setters
        self.opaque = opaque
        self.where = where
        self.classes: List[str] = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        func, owner = node.func, None
        inside = self.classes[-1] if self.classes else None
        if _identifier(func) in self.options:
            owner = _identifier(func)
        elif _identifier(func) == "cls" and inside in self.options:
            owner = inside
        elif (
            _identifier(func) == "__init__"
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and _identifier(func.value.func) == "super"
            and inside in self.options
        ):
            owner = next((b for b in self.options[inside][2] if b in self.options), None)
        if owner is not None:
            self._credit(owner, node)
        self.generic_visit(node)

    def _credit(self, owner, call):
        # Positions after a ``*args`` are unknown: only those before it count.
        spread = [isinstance(arg, ast.Starred) for arg in call.args] + [True]
        positional = self.options[owner][0][: spread.index(True)]
        names = [*positional, *(keyword.arg for keyword in call.keywords)]
        if None in names or len(positional) < len(call.args):
            self.opaque.add((self.where, owner))
        for name in names:
            if (owner, name) in self.setters:
                self.setters[(owner, name)].add(self.where)


def _option_setters():
    """``(class, parameter) -> the files that pass it`` for every counted
    parameter, and the ``**`` call sites, read off ``src``, ``tests``,
    ``benchmarks`` and ``examples``."""
    options = _init_options()
    setters: Dict[Tuple[str, str], Set[str]] = {
        (name, param): set()
        for name, (_, defaulted, _) in options.items()
        for param in defaulted
    }
    opaque: Set[Tuple[str, str]] = set()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text())
            _OptionSetters(options, setters, opaque, where).visit(tree)
    return setters, opaque


def test_every_init_option_has_a_setter():
    setters, opaque = _option_setters()
    for (where, name), carried in OPAQUE_CALLS.items():
        for param in carried:
            if (name, param) in setters:
                setters[(name, param)].add(where)
    exempt = INJECTED_PARAMETERS | DEPLOYMENT_PARAMETERS
    asked = {key: files for key, files in setters.items() if key[1] not in exempt}
    unset = sorted(key for key, files in asked.items() if not files)
    assert unset == [], "no caller sets these: make each a constant or delete it"
    test_only = {key for key, files in asked.items() if all(map(_is_test_side, files))}
    assert test_only == set(TEST_ONLY_PARAMETERS), sorted(
        test_only ^ set(TEST_ONLY_PARAMETERS)
    )
    # Shrink-only, from the first census: 25 flagged -> 6.
    assert len(TEST_ONLY_PARAMETERS) <= 6
    # Every defaulted parameter, exempt ones included, at the first census:
    # 156 -> 132.  Exact: a retired parameter lowers it, a new one needs a
    # setter and a new count.
    assert len(setters) == 132
    declared = {key for key in OPAQUE_CALLS if key[1] in _init_options()}
    assert opaque == declared, sorted(opaque ^ declared)
