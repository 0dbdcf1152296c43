"""Every definition under ``src/`` is named by the program that runs it.

The companion of ``test_unused_imports.py``: a stdlib ``ast`` scan
checks that every top-level function or class and every non-dunder
method of a top-level class under ``src/`` is named somewhere in
``src/``, ``bench/`` or ``examples/``.  A name, an attribute, an import
alias, or a string constant that is an identifier or a dotted path
(``"schedule_action"``, ``"repro.tools.bench_pairs"``) counts as a
reference.  The definition's own body, docstrings, and the imports and
``__all__`` of an ``__init__.py`` (re-exports) do not.  Tests do not
count either: code only a test reaches is either a diagnostic kept on
purpose, listed in ``ALLOWED`` with its reason, or dead.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFINED_IN = ("src",)
REFERENCED_IN = ("src", "bench", "examples")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

#: ``module:qualname`` (module relative to ``src/repro``) -> why the
#: definition stays although nothing in the program names it.
ALLOWED = {
    # Dispatched by name: GroupConsensus registers ``_on_<kind>``
    # through getattr for each message kind.
    "consensus/paxos.py:GroupConsensus._on_prepare": "getattr handler",
    "consensus/paxos.py:GroupConsensus._on_promise": "getattr handler",
    "consensus/paxos.py:GroupConsensus._on_nack": "getattr handler",
    "consensus/paxos.py:GroupConsensus._on_accept": "getattr handler",
    "consensus/paxos.py:GroupConsensus._on_accepted": "getattr handler",
    "consensus/paxos.py:GroupConsensus._on_decide": "getattr handler",
    "consensus/paxos.py:GroupConsensus._on_forward": "getattr handler",
    # Diagnostics: a stalled or failing run explains itself with them.
    "tools/waits.py:render_waits":
        "what each A-Delivery waits on; the under-load pins print it",
    "store/cluster.py:StoreCluster.inv":
        "routing invariants, asserted at any event boundary",
    "checkers/quiescence.py:check_quiescence":
        "names what is still in flight when a run does not drain",
    "net/trace.py:MessageTrace.sends_of_kind":
        "per-kind send query over a traced run",
    "failure/heartbeat.py:HeartbeatFailureDetector.stop":
        "heartbeat introspection: stops the beat timers",
    "failure/heartbeat.py:HeartbeatFailureDetector.last_heartbeat":
        "heartbeat introspection",
    "failure/heartbeat.py:HeartbeatFailureDetector.pending_timers":
        "heartbeat introspection",
    "store/checker.py:SerializabilityChecker.group_orders":
        "the checker's per-group serial orders, compared with the oracle",
    "baselines/optimistic.py:OptimisticBroadcast.optimistic_deliveries":
        "the optimistic order a baseline guesses before the final one",
    "baselines/sequencer.py:SequencerBroadcast.optimistic_deliveries":
        "the optimistic order a baseline guesses before the final one",
    # Rules and records that build hand-made clocks, logs and meters.
    "clocks/lamport.py:LamportClock.timestamp_send": "Lamport send rule",
    "clocks/lamport.py:LamportClock.observe_receive":
        "Lamport receive rule",
    "clocks/latency.py:LatencyMeter.record_delivery":
        "feeds a hand-made meter",
    "runtime/results.py:DeliveryLog.record_delivery":
        "feeds a hand-made log",
    "runtime/results.py:DeliveryLog.deliveries_of":
        "a message's deliverers, the query the record docs name",
    # Library surface a script drives directly.
    "sim/kernel.py:Simulator.step": "runs one event at a time",
    "sim/kernel.py:Simulator.stop": "ends run() from inside a callback",
    "sim/process.py:Process.handle":
        "hands a message to its handler without a network",
    "net/topology.py:Uniform": "a latency distribution of repro.net",
    "failure/schedule.py:CrashSchedule.crash_time": "schedule query",
    "failure/schedule.py:CrashSchedule.truncated":
        "the remedy CrashHorizonWarning names",
    "store/partition.py:PartitionMap.version":
        "the epoch a map-keyed cache must key by",
    "reconfig/balancer.py:LoadBalancer.pushes":
        "how many ownership pushes the balancer made",
}


def python_files(tops, root=ROOT):
    for top in tops:
        for folder, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def definitions(tree):
    """(qualname, first line, last line) per top-level function or
    class and per non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield (f"{node.name}.{item.name}", item.lineno,
                           item.end_lineno)


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def references(tree, reexports=False):
    """(name, line) per reference in ``tree``.  With ``reexports``
    (an ``__init__.py``) imports and string constants do not count."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if reexports:
                continue
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno
                if alias.asname:
                    yield alias.asname, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and not reexports
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced(root=ROOT):
    """``module:qualname`` per definition nothing else names."""
    refs = {}
    for path in python_files(REFERENCED_IN, root):
        reexports = os.path.basename(path) == "__init__.py"
        for name, line in references(_parse(path), reexports):
            refs.setdefault(name, []).append((path, line))
    found = []
    package = os.path.join(root, "src", "repro")
    for path in python_files(DEFINED_IN, root):
        for qualname, first, last in definitions(_parse(path)):
            name = qualname.rsplit(".", 1)[-1]
            if any(not (where == path and first <= line <= last)
                   for where, line in refs.get(name, ())):
                continue
            module = os.path.relpath(path, package).replace(os.sep, "/")
            found.append(f"{module}:{qualname}")
    return found


def test_scan_finds_the_definitions():
    defs = sum(1 for path in python_files(DEFINED_IN)
               for _ in definitions(_parse(path)))
    assert defs > 500


def test_every_definition_is_referenced():
    found = [hit for hit in unreferenced() if hit not in ALLOWED]
    assert not found, (
        "definitions nothing in src/, bench/ or examples/ names (delete "
        "them, or allow them in ALLOWED with a reason):\n"
        + "\n".join(found))


def test_every_allowance_is_still_needed():
    stale = sorted(set(ALLOWED) - set(unreferenced()))
    assert not stale, "ALLOWED entries that are referenced or gone:\n" + \
        "\n".join(stale)


def test_the_scan_flags_what_it_should(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.probe import exported\n"
        "__all__ = ['exported', 'named_in_all']\n")
    (package / "probe.py").write_text(
        '"""planted, docstring_only, exported"""\n'
        "import os\n"
        "def planted(n):\n"
        "    return planted(n - 1) if n else 0\n"
        "def exported():\n"
        "    pass\n"
        "def named_in_all():\n"
        "    pass\n"
        "def docstring_only():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n"
        "def by_string():\n"
        "    pass\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def used(self):\n"
        "        return called()\n"
        "    def unused(self):\n"
        "        pass\n"
        "ROUTE = 'repro.probe.by_string'\n"
        "Box().used()\n")
    assert unreferenced(str(tmp_path)) == ["probe.py:planted", "probe.py:exported",
                     "probe.py:named_in_all", "probe.py:docstring_only",
                     "probe.py:Box.unused"]
