"""Guards on the package source itself."""

import ast
import graphlib
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "paritykit"


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert outside == []


def test_graph_storage_stays_inside_games():
    """Only games.py builds a ParityGraph from its columns, and only
    automata.py an NPTA, and no module copies edges just to change their
    priorities."""
    home = {"ParityGraph": "games.py", "NPTA": "automata.py"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and home.get(func.id, path.name) != path.name:
                found.append(f"{path.name}:{node.lineno} calls {func.id}(...)")
            if isinstance(func, ast.Attribute) and func.attr == "_replace":
                if any(k.arg == "priority" for k in node.keywords):
                    found.append(f"{path.name}:{node.lineno} calls _replace(priority=...)")
    assert found == []


# public names that no package module and no perfbench script calls, each
# with why it stays: "Class.method" or "module.function"
OUTSIDE_API = {
    "TheoremReport.to_json": "the battery report as JSON, for a future `lab battery --json`",
    "AttractorDecomposition.width": "the width that the paper bounds for Büchi-feasibility; pins and tests "
    "read it",
}


def _references(node, names, attributes):
    """Add every name and every attribute in `node` to `names` and
    `attributes`, but the attributes read off `args`: those are the CLI's
    parsed options, not package methods."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and getattr(child.value, "id", None) != "args":
            attributes.add(child.attr)


def test_every_private_function_is_used():
    """Each module-level private function is referenced in the package
    somewhere besides its own definition, by name or as an attribute, and
    each method of a package class but its dunders and OUTSIDE_API as an
    attribute: a local variable that shares a method's name does not count."""
    defined, names, attributes, outside = {}, set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined[node.name] = (node.name, f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or item.name.endswith("__"):
                        continue
                    qualified = f"{node.name}.{item.name}"
                    if qualified in OUTSIDE_API:
                        outside.add(qualified)
                    else:
                        defined[qualified] = (item.name, f"{path.name}:{qualified}")
        _references(tree, names, attributes)
    assert len(defined) > 50
    # a method's key is "Class.method", a private function's its bare name
    unused = [
        where
        for key, (name, where) in defined.items()
        if name not in attributes and ("." in key or name not in names)
    ]
    assert sorted(unused) == []
    # each outside-only method exists and is still unused inside
    assert outside == {api for api in OUTSIDE_API if api[0].isupper()}
    assert sorted(api for api in outside if api.split(".")[1] in attributes) == []


ROOT = SRC.parent.parent
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imported_module(node, in_package):
    """The package module that `from ... import` reads: its stem, "__init__"
    for the package itself, or None for a module outside the package."""
    if node.level == 1 and in_package:
        return node.module or "__init__"
    if node.level == 0 and node.module == "paritykit":
        return "__init__"
    if node.level == 0 and (node.module or "").startswith("paritykit."):
        return node.module.split(".")[1]
    return None


class _Source:
    """One parsed file and what its imports bind: name -> ("module", stem)
    or ("name", stem, name), at any depth of its code."""

    def __init__(self, path, stem=None):
        self.path, self.stem = path, stem
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.env = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "paritykit" or alias.name.startswith("paritykit."):
                        if alias.asname:
                            self.env[alias.asname] = ("module", alias.name.partition(".")[2] or "__init__")
                        else:
                            self.env["paritykit"] = ("module", "__init__")
            elif isinstance(node, ast.ImportFrom):
                module = _imported_module(node, stem is not None)
                for alias in node.names if module else ():
                    if node.level == 1 and node.module is None:
                        self.env[alias.asname or alias.name] = ("module", alias.name)
                    else:
                        self.env[alias.asname or alias.name] = ("name", module, alias.name)


class _Package:
    """The package's modules, their top-level definitions, and name
    resolution through imports and re-imports."""

    def __init__(self):
        self.modules = {path.stem: _Source(path, path.stem) for path in sorted(SRC.glob("*.py"))}
        self.defs = {
            stem: {n.name: n for n in src.tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            for stem, src in self.modules.items()
        }

    def resolve(self, stem, name):
        """("def", stem, name) of the definition that `name` in module
        `stem` is bound to, ("module", stem) for a package module, or None."""
        for _ in range(len(self.modules)):
            if name in self.defs[stem]:
                return ("def", stem, name)
            if stem == "__init__" and name in self.modules:
                return ("module", name)
            bound = self.modules[stem].env.get(name)
            if bound is None or bound[0] == "module":
                return bound
            stem, name = bound[1], bound[2]
        return None

    def target(self, source, expr, shadow):
        """What `expr`, read in `source` under the local names `shadow`, is
        bound to in the package, or None."""
        if isinstance(expr, ast.Name):
            if expr.id in shadow:
                return None
            if source.stem is not None:
                return self.resolve(source.stem, expr.id)
            bound = source.env.get(expr.id)
            return bound if bound is None or bound[0] == "module" else self.resolve(*bound[1:])
        if isinstance(expr, ast.Attribute):
            base = self.target(source, expr.value, shadow)
            if base is not None and base[0] == "module":
                return self.resolve(base[1], expr.attr)
        return None

    def node(self, target):
        return self.defs[target[1]][target[2]]


def _bound_locally(fn):
    """The names that a function or lambda binds in its own scope; its
    imports bind package names, which `_Source.env` tracks."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _scoped(tree):
    """(node, names bound by its enclosing functions, its top-level
    statement, its innermost enclosing class) for every node of `tree`."""
    stack = [(child, frozenset(), child, None) for child in ast.iter_child_nodes(tree)]
    while stack:
        node, shadow, top, cls = stack.pop()
        yield node, shadow, top, cls
        inner = shadow | _bound_locally(node) if isinstance(node, SCOPES) else shadow
        inner_cls = node if isinstance(node, ast.ClassDef) else cls
        stack.extend((child, inner, top, inner_cls) for child in ast.iter_child_nodes(node))


def _sources(package, *dirs):
    """The package's modules but __init__, then the files of `dirs`."""
    found = [src for stem, src in package.modules.items() if stem != "__init__"]
    return found + [_Source(path) for d in dirs for path in sorted((ROOT / d).glob("*.py"))]


def _public_references(package):
    """"module.name" of each public module-level function or class that is
    read, where the name is bound to the package's own definition, in
    another statement of src/ (the re-exports of __init__.py do not count)
    or in perfbench/."""
    used = set()
    for source in _sources(package, "perfbench"):
        for node, shadow, top, _cls in _scoped(source.tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            target = package.target(source, node, shadow)
            if target is None or target[0] != "def" or package.node(target) is top:
                continue
            used.add(f"{target[1]}.{target[2]}")
    return used


def test_every_public_function_and_class_is_called():
    """Each module-level public function and class of the package is read
    in another module or statement of src/ or in perfbench/, where its name
    is bound to its definition (in its own module, imported from it, or
    read as `module.name`), or is in OUTSIDE_API: the package keeps no
    public name that only its own tests call.  A local variable or an
    option that shares the name does not count."""
    package = _Package()
    defined = {
        f"{stem}.{name}"
        for stem, defs in package.defs.items()
        for name in defs
        if not name.startswith("_")
    }
    assert len(defined) > 100
    uncalled = defined - _public_references(package)
    assert sorted(uncalled - OUTSIDE_API.keys()) == []
    # each outside-only function exists and is still uncalled inside
    assert uncalled == {api for api in OUTSIDE_API if api[0].islower()}


# parameter defaults that lack traffic, as "module.function(param)" or
# "module.Class.method(param)", each with why it stays
OPTIONS_WITHOUT_TRAFFIC = {
    "games.strategy_graph(player)": "no package call builds Adam's strategy graph; tests build it to check "
    "`verify_winning`'s Adam verdict against it",
    "lab.random_automaton(max_states)": "the battery draws automata of up to three states; tests draw "
    "two-state ones to enumerate their runs",
    "cli.main(argv)": "the console script reads sys.argv; tests pass the arguments",
    "decomposition.memory_product(cap)": "its package caller and perfbench pass their own cap; tests build "
    "products at the default, and the cap keywords wait for one cap context (ROADMAP item 11)",
    "manifests.import_pgsolver(use_source_priority)": "the CLI passes its --pg-source-priority flag; tests "
    "read PGSolver text by the format's target-vertex rule",
    "manifests.loads(kinds)": "the CLI names the kinds each command reads; tests round-trip manifests of any kind",
}


def _defaulted_parameters(package):
    """(key, function node, positional parameter names, defaulted names)
    of each package function and method with a default."""
    for stem, defs in package.defs.items():
        for name, node in defs.items():
            functions = [(f"{stem}.{name}", node)] if isinstance(node, ast.FunctionDef) else [
                (f"{stem}.{name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)
            ]
            for key, fn in functions:
                args = fn.args
                positional = [a.arg for a in (*args.posonlyargs, *args.args)]
                defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                if defaulted:
                    yield key, fn, positional, defaulted


def _callees(package, source, call, shadow, cls):
    """(function node, implicit leading arguments) of each package function
    or method that `call` may call; a method called on a receiver of
    unknown class may be any package method of that name.  The package
    has no classmethods."""
    func = call.func
    target = package.target(source, func, shadow)
    if target is not None and target[0] == "def":
        node = package.node(target)
        if isinstance(node, ast.FunctionDef):
            return [(node, 0)]
        init = [item for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
        return [(fn, 1) for fn in init]
    if not isinstance(func, ast.Attribute):
        return []
    owner = package.target(source, func.value, shadow)
    if owner is not None and owner[0] == "module":
        return []
    if owner is not None:
        classes = [package.node(owner)]
    elif isinstance(func.value, ast.Name) and func.value.id == "self" and cls is not None:
        classes = [cls]
    elif isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super":
        classes = []
        for base in cls.bases if cls is not None else ():
            bound = package.target(source, base, shadow)
            classes += [package.node(bound)] if bound is not None and bound[0] == "def" else []
    else:
        classes = [node for defs in package.defs.values() for node in defs.values() if isinstance(node, ast.ClassDef)]
    callees = []
    for c in classes:
        for item in c.body:
            if isinstance(item, ast.FunctionDef) and item.name == func.attr:
                static = any(getattr(deco, "id", None) == "staticmethod" for deco in item.decorator_list)
                # a method read off its class takes its instance explicitly
                callees.append((item, 0 if static or owner is not None else 1))
    return callees


def test_every_option_has_traffic():
    """Each parameter default of a package function or method is both left
    and set by some call in src/ or perfbench/, unless OPTIONS_WITHOUT_TRAFFIC
    names it: a default that only tests leave is not traffic.  A call whose
    arguments cannot be read (`*args`, `**kwargs`) both leaves and sets
    every parameter."""
    package = _Package()
    params = {fn: (key, positional, defaulted) for key, fn, positional, defaulted in _defaulted_parameters(package)}
    left, set_explicitly = set(), set()
    for source in _sources(package, "perfbench"):
        for node, shadow, _top, cls in _scoped(source.tree):
            if not isinstance(node, ast.Call):
                continue
            unread = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            for fn, bound in _callees(package, source, node, shadow, cls):
                if fn not in params:
                    continue
                key, positional, defaulted = params[fn]
                given = set(positional[: bound + len(node.args)]) | {k.arg for k in node.keywords}
                for name in defaulted:
                    option = f"{key}({name})"
                    if unread or name not in given:
                        left.add(option)
                    if unread or name in given:
                        set_explicitly.add(option)
    options = {f"{key}({name})" for key, positional, defaulted in params.values() for name in defaulted}
    assert len(options) > 20
    found = sorted(f"{o}: never left at its default in src/ or perfbench/" for o in options - left)
    found += sorted(f"{o}: never set in src/ or perfbench/" for o in options - set_explicitly)
    assert [f for f in found if f.partition(":")[0] not in OPTIONS_WITHOUT_TRAFFIC] == []
    # each registered option exists and still lacks traffic
    assert sorted(OPTIONS_WITHOUT_TRAFFIC) == sorted({f.partition(":")[0] for f in found})


def test_successor_tables_are_only_indexed():
    """No code reads `out`/`inc` through a dict method: on graphs with
    vertices 0..n-1 the successor tables are lists indexed by vertex."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr in ("get", "items", "keys", "values")):
                continue
            table = node.value
            name = table.attr if isinstance(table, ast.Attribute) else getattr(table, "id", None)
            if name in ("out", "inc"):
                found.append(f"{path.name}:{node.lineno} calls {name}.{node.attr}")
    assert found == []


# functions that may read a graph's `edges`: exports off the solving path,
# which print every edge anyway
EDGE_READERS = {
    "manifests.py:_graph_payload",
    "manifests.py:export_pgsolver",
    "manifests.py:_dot_game",
    "lab.py:shrink_game",
}


def _attribute_readers(attr):
    """"file:Class.function" of every package function that reads `.attr`."""
    readers = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                readers.add(f"{path.name}:{name}")
            visit(child, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return readers


def test_only_explore_raises_state_explosion():
    """There is one state cap: the package raises StateExplosion only where
    `games.explore` numbers a state, whether it looks the state up or is
    told that it is new."""
    raisers = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", None) == "StateExplosion":
                    raisers.append(f"{path.name}:{name}")
            visit(child, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "")
    assert raisers == ["games.py:explore.intern"]


def test_edges_are_read_from_the_columns():
    """`ParityGraph.edges` builds an `Edge` per item it yields, so package
    code indexes or walks `src`/`dst`/`pri` instead; only EDGE_READERS read
    `.edges`, and each of them still does."""
    assert _attribute_readers("edges") == EDGE_READERS


# functions that may read an automaton's `transitions`: the fixed suite
# automaton that lab copies from another's few transitions
TRANSITION_READERS = {"lab.py:_aut_eventually_b_dup"}


def test_transitions_are_read_from_the_columns():
    """`NPTA.transitions` builds a row per item it yields, so package code
    indexes or walks `src`/`letter`/`left`/`right` instead; only
    TRANSITION_READERS read `.transitions`, and each of them still does."""
    assert _attribute_readers("transitions") == TRANSITION_READERS


def test_transition_index_is_read_only_by_transitions_from():
    """Only `NPTA.transitions_from` reads `_by_state_letter`, and no method
    of `NPTA` calls `transitions_from`, so an automaton builds that index
    only when a caller asks for transitions by state and letter, never in
    `NPTA.make`."""
    assert _attribute_readers("_by_state_letter") == {"automata.py:NPTA.transitions_from"}
    callers = _attribute_readers("transitions_from")
    assert sorted(c for c in callers if c.startswith("automata.py:NPTA.")) == []


# functions that call themselves on Python's stack instead of being
# generators run by games.unwind, each with why its depth stays harmless
PLAIN_RECURSION = {
    "manifests.py:_payload": "one level per product base, bounded by MAX_NESTING",
    "manifests.py:_from_payload": "one level per product base, bounded by MAX_NESTING",
    "lab.py:_embeds_by_backtracking": "a brute-force oracle on small trees",
}


def _own_nodes(fn):
    """The nodes of a function's body outside nested functions and classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _self_calls(fn, is_method):
    """True iff `fn` calls its own name, or, for a method, an attribute of
    that name on anything but super()."""
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if is_method and isinstance(f, ast.Attribute) and f.attr == fn.name:
            value = f.value
            if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "super"):
                return True
    return False


def test_recursive_functions_are_generators():
    """A function that calls itself yields its sub-calls to games.unwind, so
    deep inputs cannot exhaust Python's stack; PLAIN_RECURSION names the
    exceptions, and each of them must still recurse plainly."""
    plain = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                generator = any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(child))
                if _self_calls(child, in_class) and not generator:
                    plain.append(name)
                visit(child, name + ".", False)
            else:
                visit(child, prefix, in_class)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, f"{path.name}:", False)
    assert sorted(plain) == sorted(PLAIN_RECURSION)


def test_brute_force_oracles_call_no_games_algorithm():
    """`brute_solve`, `rejecting_vertices` and everything in lab.py that
    they call read graphs and games only through their accessors: no
    module-level function of games.py (solve, attractors, odd-cycle
    searches, verification) is named there, so the oracles stay
    independent of the code they check.  Imports are by name, so
    `_attribute_readers` alone would miss a call."""
    games = ast.parse((SRC / "games.py").read_text())
    algorithms = {node.name for node in games.body if isinstance(node, ast.FunctionDef)}
    assert {"solve", "_attract", "_zielonka", "_odd_cycle_witness", "verify_winning", "check_even", "is_even"} <= algorithms
    lab = ast.parse((SRC / "lab.py").read_text())
    functions = {node.name: node for node in lab.body if isinstance(node, ast.FunctionDef)}
    reached, todo, named = set(), ["brute_solve", "rejecting_vertices", "_odd_reach"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ident in functions:
                todo.append(ident)
            elif ident in algorithms:
                named.add(f"lab.py:{name} names games.{ident}")
    assert "_positions" in reached
    assert sorted(named) == []


def test_only_the_pin_registry_hashes_answers():
    """Every answer digest goes through tests/pins.py, so a pin is saved and
    diffed call by call like the others: no other test file imports
    hashlib."""
    tests = pathlib.Path(__file__).resolve().parent
    found = []
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "hashlib" in names:
                found.append(path.name)
    assert found == ["pins.py"]


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", None) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """Each field of a package dataclass is read as an attribute somewhere
    in src/, tests/ or perfbench/, so no record stores what nobody reads.
    Reads on the CLI's `args` namespace do not count: its attributes are
    options, not fields."""
    root = SRC.parent.parent
    fields = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[f"{path.name}:{node.name}.{item.target.id}"] = item.target.id
    read = set()
    for path in sorted(path for d in (SRC, root / "tests", root / "perfbench") for path in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if path.name == "cli.py" and getattr(node.value, "id", None) == "args":
                    continue
                read.add(node.attr)
    assert len(fields) > 30
    assert sorted(where for where, name in fields.items() if name not in read) == []


def _package_imports(path):
    """The package modules that `path` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from .x import y` names module x; `from . import x` names x
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paritykit."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("paritykit.")}
    return names


def test_package_imports_have_no_cycle():
    """The modules of the package import each other, function-level imports
    included, without a cycle; __init__ only gathers the others."""
    modules = {path.stem: path for path in SRC.glob("*.py") if path.stem != "__init__"}
    graph = {name: _package_imports(path) & modules.keys() for name, path in modules.items()}
    assert graph["transduction"] and graph["automata"]
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle {err.args[1]}")


# the private helpers that other package modules may import by name
SHARED_PRIVATE = {
    ("games", "_attract"),
    ("games", "_odd_cycle_witness"),
    ("decomposition", "_bounded_pair_gate"),
}


def test_only_shared_private_names_cross_modules():
    """A module imports another module's private name only if it is one of
    SHARED_PRIVATE, function-level imports included."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            if node.level == 1:
                module = node.module
            elif node.module.startswith("paritykit."):
                module = node.module.split(".")[1]
            else:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and (module, alias.name) not in SHARED_PRIVATE:
                    found.append(f"{path.name}:{node.lineno} imports {module}.{alias.name}")
    assert found == []


def _identifiers(tree):
    """Every name, attribute, imported name and string constant in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_embedding_oracles_share_no_pruning():
    """The backtracking oracles that check `trees.embed` and
    `is_universal_for` (`lab._embeds_by_backtracking`, perfbench's
    `backtrack_embeds` and `backtracking_embed` in tests/test_trees.py)
    must not prune by what they check: no file under src/ but trees.py,
    none under perfbench/, and not `backtracking_embed`, names the cached
    leaf count `_leaves` or the search `_fits`."""
    root = SRC.parent.parent
    pruning = {"_leaves", "_fits"}
    assert pruning <= set(_identifiers(ast.parse((SRC / "trees.py").read_text())))
    found = []
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "trees.py"]
    for path in paths + sorted((root / "perfbench").rglob("*.py")):
        names = set(_identifiers(ast.parse(path.read_text(), filename=str(path))))
        found += [f"{path.name} names {name}" for name in sorted(names & pruning)]
    tests = ast.parse((root / "tests" / "test_trees.py").read_text())
    (oracle,) = [n for n in tests.body if isinstance(n, ast.FunctionDef) and n.name == "backtracking_embed"]
    found += [f"backtracking_embed names {name}" for name in sorted(set(_identifiers(oracle)) & pruning)]
    assert found == []
